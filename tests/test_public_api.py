"""Every name a module exports in __all__ resolves on that module, so a
stale export fails here and not first in ``from module import *``; the
package resolves its own names on first access, and the CLI imports only
the modules its command runs."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import epilab

SRC = Path(__file__).resolve().parent.parent / "src"
PUBLIC_MODULES = sorted(m.name for m in pkgutil.iter_modules(epilab.__path__, "epilab.")
                        if not m.name.rpartition(".")[2].startswith("_"))


def test_public_modules_found():
    assert "epilab.oracle" in PUBLIC_MODULES and "epilab.bignum" in PUBLIC_MODULES


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


# every name `import epilab` bound when the package imported all its modules
PACKAGE_EXPORTS = {
    "bignum": ["BigFixed", "Surd", "floor_neg_log10", "ilog10_floor", "iroot", "root_interval",
               "surd_eval"],
    "oracle": ["CONSTANTS", "ExpRangeError", "constant_reference", "e_interval", "exp_interval",
               "pi_interval"],
    "series": ["DEFAULT_MAX_TERMS", "E_FACTORIAL", "GREGORY_LEIBNIZ", "LAMBDA6", "NILAKANTHA",
               "NILAKANTHA_PAIRED", "ZETA8", "BoundViolation", "ConvergenceRow",
               "InfeasibleRequest", "SeriesSpec", "SumResult", "builtin", "builtin_names",
               "convergence_table", "partial_sum", "scale_series", "terms_needed"],
    "accel": ["CompareRow", "compare_expansions", "e_regrouped", "gl_regroup_term",
              "nilakantha_doubled", "pair_transform", "paired_term_identity"],
    "stirling": ["STIRLING_COEFFS", "E8Decomposition", "double_factorial", "e_from_ratio",
                 "e_half_integer", "e_power_approx", "stirling_e8_decomposition",
                 "stirling_factor"],
    "expr": ["Add", "ConstE", "ConstPi", "Div", "EvalDomainError", "Exp", "Expr",
             "IntLit", "Mul", "ParseError", "PowInt", "PrecisionCapError", "RatLit", "Root",
             "Sqrt", "Sub", "eval_expr", "eval_interval", "parse", "to_text"],
    "registry": ["REGISTRY", "Relation", "VerificationFailure", "VerificationReport",
                 "digits_of_agreement", "get_relation", "relation_ids", "verify", "verify_all"],
    "derive": ["ScanRow", "binomial_linearize", "cfrac", "linear_combo_scan",
               "linearize_error_bound", "solve_linear_2x2", "solve_pi_quadratic"],
}


@pytest.mark.parametrize("module", sorted(PACKAGE_EXPORTS))
def test_package_names_resolve_lazily(monkeypatch, module):
    names = PACKAGE_EXPORTS[module]
    source = importlib.import_module(f"epilab.{module}")
    assert [n for n in names if getattr(epilab, n) is not getattr(source, n)] == []
    # the module itself, also when the import system has not bound it yet
    monkeypatch.delattr(epilab, module)
    assert getattr(epilab, module) is source
    assert set(names) | {module} <= set(dir(epilab))


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'pi_oracle'"):
        epilab.pi_oracle
    assert not hasattr(epilab, "cli_main")


def test_star_import_binds_every_package_name():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "from epilab import *\n"
        "print(BigFixed.__module__, verify.__module__, derive.__name__, 'import_module' in dir())\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-E", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "epilab.bignum epilab.registry epilab.derive False\n"
    names = {n for names in PACKAGE_EXPORTS.values() for n in names} | set(PACKAGE_EXPORTS)
    assert set(epilab.__all__) == names


def test_cli_imports_only_what_the_command_runs():
    # -S: no site hooks; -E: no PYTHONPATH, so this checkout's sources are
    # the ones imported; compute needs no expr, registry, derive, stirling
    # or accel, text output needs no json, the scan needs derive alone, and
    # the option table needs no argparse, nor the gettext and locale it loads
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import epilab.cli\n"
        "unused = {'epilab.expr', 'epilab.registry', 'epilab.derive', 'epilab.stirling',\n"
        "          'epilab.accel', 'json', 'argparse', 'gettext', 'locale'}\n"
        "print('loaded', sorted(unused & set(sys.modules)))\n"
        "epilab.cli.main(['compute', 'pi', '--digits', '5'])\n"
        "print('loaded', sorted(unused & set(sys.modules)))\n"
        "epilab.cli.main(['scan', '--max', '2', '--quiet'])\n"
        "print('loaded', sorted(unused & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-E", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1] == "pi = 3.14159"
    assert [line for line in lines if line.startswith("loaded")] == [
        "loaded []", "loaded []", "loaded ['epilab.derive']"]


#: the Fraction views of the integer enclosures, and the module of each
VIEWS = {"pi_interval": "oracle", "e_interval": "oracle", "exp_interval": "oracle",
         "eval_interval": "expr", "root_interval": "bignum"}


def _names(node) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name.rpartition(".")[2] for alias in node.names]
    return []


def test_only_bignum_and_cli_name_the_renderer():
    # the library returns what it computes: integers, Fractions and bounds
    # (lo, hi, den); bignum defines the renderer, and the CLI alone rounds
    # for print (a name in __init__'s export string is no identifier)
    uses = sorted((path.name, name)
                  for path in (SRC / "epilab").glob("*.py") if path.stem not in ("bignum", "cli")
                  for node in ast.walk(ast.parse(path.read_text()))
                  for name in _names(node) if name in ("BigFixed", "_fixed_to_string"))
    assert uses == []


def test_package_code_reads_units_not_views():
    # the views stay public for users, tests and the benchmark's tracer;
    # inside the package, code reads the integer units under them
    uses = sorted((path.name, name)
                  for path in (SRC / "epilab").glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text()))
                  for name in _names(node)
                  if VIEWS.get(name, path.stem) != path.stem)
    assert uses == []
