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
    "bignum": ["BigFixed", "Surd", "ilog10_floor", "iroot", "root_interval"],
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
             "IntLit", "Mul", "ParseError", "PowInt", "PrecisionCapError", "Root",
             "Sqrt", "Sub", "cfrac", "eval_expr", "eval_interval", "parse", "to_text"],
    "registry": ["REGISTRY", "Relation", "VerificationFailure", "VerificationReport",
                 "digits_of_agreement", "get_relation", "relation_ids", "verify", "verify_all"],
    "derive": ["binomial_linearize", "linearize_error_bound", "scan_units", "solve_linear_2x2",
               "solve_pi_quadratic"],
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


#: the modules whose loading the import test watches
_WATCH = ["epilab.expr", "epilab.registry", "epilab.derive", "epilab.stirling", "epilab.accel",
          "epilab.series", "fractions", "decimal", "re", "json", "csv", "argparse", "gettext",
          "locale"]

#: the exact-sweeps commands: the series, their tables, the scan, compare and stirling
_SERIES = ["e-factorial", "gregory-leibniz", "nilakantha", "nilakantha-paired", "lambda6",
           "zeta8"]
_SWEEPS = [
    ["compute", "e", "--method", "e-factorial", "--terms", "2000"],
    ["compute", "pi", "--method", "gregory-leibniz", "--digits", "4", "--format", "json"],
    ["table", "zeta8", "--checkpoints", "10,100,1000,3000"],
    ["table", "gregory-leibniz", "--checkpoints", "10,100,1000,3000", "--format", "json"],
    ["scan", "--max", "50", "--format", "csv"],
    ["compare", "--rows", "200"],
    ["stirling", "--op", "e8", "--format", "json"],
    *(["compute", "e" if s == "e-factorial" else "pi", "--method", s,
       "--digits", "3" if s == "gregory-leibniz" else "20"] for s in _SERIES),
    *(["table", s, "--checkpoints", "10,50"] for s in _SERIES),
    *(["compare", "--rows", "12", "--format", f] for f in ("text", "csv", "json")),
    *(["stirling", "--op", op, "--format", f] for op in ("approx", "ratio", "e8")
      for f in ("text", "csv")),
]


def _modules_after(commands) -> list[str]:
    """Run each argv through epilab.cli.main in one fresh interpreter, under
    -S (no site hooks, which may load re) and -E (no PYTHONPATH, so this
    checkout's sources are the ones imported), and give a line per
    command: its name, exit code, whether it wrote a line, and which
    watched modules are loaded after it; the first line is after the
    import alone."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import contextlib, io, epilab.cli\n"
        f"watch = set({_WATCH!r})\n"
        "print('import', sorted(watch & set(sys.modules)))\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        rc = epilab.cli.main(argv)\n"
        "    print(argv[0], rc, out.getvalue().count('\\n') > 0, sorted(watch & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-E", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cli_imports_only_what_the_command_runs():
    # compute needs no expr, registry, derive, stirling or accel; no
    # command loads fractions or the decimal it imports, nor re; csv and
    # json output need neither module of that name; cfrac needs expr,
    # verify registry too, and the scan derive alone; and the option table
    # needs no argparse, nor the gettext and locale it loads
    commands = [
        *(["compute", c, "--digits", "60", "--format", f]
          for c in ("pi", "e") for f in ("text", "csv", "json")),
        *(["cfrac", x, "--terms", "12"] for x in _CFRACS),
        ["verify", "--all", "--format", "json"],
        ["scan", "--max", "2", "--quiet"],
    ]
    assert _modules_after(commands) == [
        "import []",
        *["compute 0 True []"] * 6,
        *["cfrac 0 True ['epilab.expr']"] * len(_CFRACS),
        "verify 0 True ['epilab.expr', 'epilab.registry']",
        "scan 0 True ['epilab.derive', 'epilab.expr', 'epilab.registry']",
    ]
    # in a fresh interpreter, the exact-sweeps commands: a series loads
    # series alone, compare accel too, and stirling expr
    scan = "'epilab.derive', 'epilab.series'"
    compare = "'epilab.accel', 'epilab.derive', 'epilab.series'"
    stirling = "'epilab.accel', 'epilab.derive', 'epilab.expr', 'epilab.series', 'epilab.stirling'"
    assert _modules_after(_SWEEPS) == [
        "import []",
        *["compute 0 True ['epilab.series']"] * 2,
        *["table 0 True ['epilab.series']"] * 2,
        f"scan 0 True [{scan}]",
        f"compare 0 True [{compare}]",
        f"stirling 0 True [{stirling}]",
        *[f"compute 0 True [{stirling}]"] * len(_SERIES),
        *[f"table 0 True [{stirling}]"] * len(_SERIES),
        *[f"compare 0 True [{stirling}]"] * 3,
        *[f"stirling 0 True [{stirling}]"] * 6,
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


def test_no_module_imports_fractions_when_imported():
    # every module imports fractions only inside the functions that hand
    # back a Fraction, so the commands, which work on integer pairs and
    # bounds, load neither it nor decimal
    tops = sorted(path.stem for path in (SRC / "epilab").glob("*.py")
                  for node in _top_level_imports(ast.parse(path.read_text()))
                  if {"fractions", "decimal"} & set(_imported_modules(node)))
    assert tops == []


def test_no_import_of_fractions_sits_in_a_loop():
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = sorted((path.name, inner.lineno)
                   for path in (SRC / "epilab").glob("*.py")
                   for loop in ast.walk(ast.parse(path.read_text())) if isinstance(loop, loops)
                   for inner in ast.walk(loop) if isinstance(inner, (ast.Import, ast.ImportFrom))
                   and "fractions" in _imported_modules(inner))
    assert found == []


#: the enclosure functions, each returning bounds (lo, hi, den), by module
ENCLOSURES = {"pi_interval": "oracle", "e_interval": "oracle", "exp_interval": "oracle",
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


def test_the_cli_rounds_for_print_in_one_function():
    # cli renders through _places alone and names no BigFixed, and the
    # registry's reports carry unrounded values
    cli = ast.parse((SRC / "epilab" / "cli.py").read_text())
    assert [name for node in ast.walk(cli) for name in _names(node) if name == "BigFixed"] == []
    (places,) = [fn for fn in cli.body if isinstance(fn, ast.FunctionDef) and fn.name == "_places"]
    inside = {id(node) for node in ast.walk(places)}
    uses = [node for node in ast.walk(cli) if not isinstance(node, (ast.Import, ast.ImportFrom))
            and "_fixed_to_string" in _names(node)]
    assert uses and all(id(node) in inside for node in uses)
    registry = ast.parse((SRC / "epilab" / "registry.py").read_text())
    assert [name for node in ast.walk(registry) if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in _names(node) if name == "_div_nearest"] == []


def test_only_cli_main_names_the_collector():
    # main freezes the collector when it runs as the program; no library
    # call may touch the collector of the process that imported it
    trees = {path.stem: ast.parse(path.read_text()) for path in (SRC / "epilab").glob("*.py")}
    (main,) = [fn for fn in trees["cli"].body if isinstance(fn, ast.FunctionDef)
               and fn.name == "main"]
    inside = {id(node) for node in ast.walk(main)}
    uses = [(stem, node) for stem, tree in trees.items() for node in ast.walk(tree)
            if "gc" in _names(node)]
    assert uses
    assert [(stem, node.lineno) for stem, node in uses if id(node) not in inside] == []


def test_one_function_per_enclosure():
    # each enclosure is one public function returning integer bounds: the
    # oracle's kernels and cache stay inside oracle, the integer twins
    # that stood beside Fraction views are gone, and no enclosure
    # function builds a Fraction
    trees = {path.stem: ast.parse(path.read_text()) for path in (SRC / "epilab").glob("*.py")}
    private = {"_cached", "_pi_unit", "_e_unit", "_exp_unit"}
    gone = {"_enclose", "_exp_units", "root_units", "_ilog10_floor", "floor_neg_log10"}
    uses = sorted((stem, name) for stem, tree in trees.items() for node in ast.walk(tree)
                  for name in _names(node)
                  if name in gone or name in private and stem != "oracle")
    assert uses == []
    # one (P, Q, T) splitter, bignum's: oracle's own Chudnovsky recursion is gone
    assert sorted((stem, name) for stem, tree in trees.items() for node in ast.walk(tree)
                  for name in _defined(node) if name in ("_chudnovsky", "_binary_split")) \
        == [("bignum", "_binary_split")]
    defined = {(stem, node.name): node for stem, tree in trees.items()
               for node in tree.body if isinstance(node, ast.FunctionDef)}
    bodies = [defined[module, name] for name, module in ENCLOSURES.items()]
    assert [fn.name for fn in bodies for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and "fractions" in _imported_modules(node)] == []


def _defined(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return [node.id]
    return []


def test_one_function_per_stream():
    # the scan and the e/2*pi comparison each stream from one public
    # function: the list and Fraction views that stood beside them, and
    # the private twins the CLI ran, are gone, and every name the CLI
    # imports from derive and accel is in that module's __all__
    trees = {path.stem: ast.parse(path.read_text()) for path in (SRC / "epilab").glob("*.py")}
    gone = {"linear_combo_scan", "ScanRow", "_scan_units", "_compare_rows"}
    assert sorted((stem, name) for stem, tree in trees.items() for node in ast.walk(tree)
                  for name in _defined(node) if name in gone) == []
    imported = {(node.module, alias.name) for node in ast.walk(trees["cli"])
                if isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module in ("derive", "accel") for alias in node.names}
    assert {module for module, _ in imported} == {"derive", "accel"}
    assert sorted((module, name) for module, name in imported
                  if name not in importlib.import_module(f"epilab.{module}").__all__) == []
