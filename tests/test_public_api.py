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
    "bignum": ["BigFixed", "Surd", "floor_neg_log10", "ilog10_floor", "iroot", "root_interval"],
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
             "Sqrt", "Sub", "cfrac", "eval_expr", "eval_interval", "parse", "to_text"],
    "registry": ["REGISTRY", "Relation", "VerificationFailure", "VerificationReport",
                 "digits_of_agreement", "get_relation", "relation_ids", "verify", "verify_all"],
    "derive": ["ScanRow", "binomial_linearize", "linear_combo_scan", "linearize_error_bound",
               "solve_linear_2x2", "solve_pi_quadratic"],
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


#: every deep-digits form of a continued fraction: an integer combination,
#: exp of a fraction of pi, a root of an affine pi, an exact rational
_CFRACS = ["pi", "e", "exp(pi)", "exp(pi*sqrt(163))", "3*pi + 7*e", "exp(pi/5)",
           "root(3, 2*pi + 5)", "22/7"]


def test_cli_imports_only_what_the_command_runs():
    # -S: no site hooks, which may load re; -E: no PYTHONPATH, so this
    # checkout's sources are the ones imported.  compute needs no expr,
    # registry, derive, stirling or accel, and no re; compute on the
    # oracle, verify and cfrac work on integers, and load neither fractions
    # nor the decimal it imports; csv and json output need neither module
    # of that name; the scan needs derive alone; and the option table needs
    # no argparse, nor the gettext and locale it loads
    commands = [
        *(["compute", c, "--digits", "60", "--format", f]
          for c in ("pi", "e") for f in ("text", "csv", "json")),
        *(["cfrac", x, "--terms", "12"] for x in _CFRACS),
        ["verify", "--all", "--format", "json"],
        ["scan", "--max", "2", "--quiet"],
    ]
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import contextlib, io, epilab.cli\n"
        "watch = {'epilab.expr', 'epilab.registry', 'epilab.derive', 'epilab.stirling',\n"
        "         'epilab.accel', 'epilab.series', 'fractions', 'decimal', 're', 'json', 'csv',\n"
        "         'argparse', 'gettext', 'locale'}\n"
        "print('import', sorted(watch & set(sys.modules)))\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        rc = epilab.cli.main(argv)\n"
        "    print(argv[0], rc, out.getvalue().count('\\n') > 0, sorted(watch & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-E", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "import []",
        *["compute 0 True []"] * 6,
        *["cfrac 0 True ['epilab.expr', 're']"] * len(_CFRACS),
        "verify 0 True ['epilab.expr', 'epilab.registry', 're']",
        "scan 0 True ['decimal', 'epilab.derive', 'epilab.expr', 'epilab.registry', "
        "'fractions', 're']",
    ]


def _top_level_imports(node):
    """The import statements a module runs when it is imported: not those
    inside a function body, which run when the function is called."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _top_level_imports(child)


def _imported_modules(node) -> list[str]:
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return [alias.name for alias in node.names]


def test_only_the_rational_modules_import_fractions_when_imported():
    # bignum, oracle, expr, registry and cli import fractions only inside
    # the functions that hand back a Fraction, so the integer commands load
    # neither it nor decimal; series, accel, stirling and derive work on
    # exact rationals throughout
    tops = sorted(path.stem for path in (SRC / "epilab").glob("*.py")
                  for node in _top_level_imports(ast.parse(path.read_text()))
                  if {"fractions", "decimal"} & set(_imported_modules(node)))
    assert tops == ["accel", "derive", "series", "stirling"]


def test_no_import_of_fractions_sits_in_a_loop():
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = sorted((path.name, inner.lineno)
                   for path in (SRC / "epilab").glob("*.py")
                   for loop in ast.walk(ast.parse(path.read_text())) if isinstance(loop, loops)
                   for inner in ast.walk(loop) if isinstance(inner, (ast.Import, ast.ImportFrom))
                   and "fractions" in _imported_modules(inner))
    assert found == []


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
