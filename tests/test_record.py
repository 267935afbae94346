"""The frozen value types: construction, equality, hashing, repr,
immutability, and a start-up that loads no class-generation machinery."""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from epilab._record import record
from epilab.bignum import BigFixed
from epilab.expr import Add, ConstE, ConstPi, IntLit, Root, Sub, eval_expr, parse
from epilab.registry import NEAR_EQUAL, Relation
from epilab.series import SeriesSpec

SRC = Path(__file__).resolve().parent.parent / "src"


@record
class ScanRow:
    """A record with int, Fraction, bool and optional fields."""
    n: int
    m: int
    value: Fraction
    nearest: int
    residual: Fraction
    mod7: bool
    predicted: int | None
    flagged: bool


def _spec(**kw) -> SeriesSpec:
    return SeriesSpec("t", kw.pop("constant", "e"), Fraction(0), 0,
                      lambda a, b: ((1, 2**n) for n in range(a, b + 1)),
                      lambda n: Fraction(1, 2**n), **kw)


def test_equality_within_one_class_only():
    a, b = IntLit(1), ConstPi()
    assert Add(a, b) == Add(IntLit(1), ConstPi())
    assert Add(a, b) != Sub(a, b)
    assert Add(a, b) != Add(b, a)
    assert ConstPi() == ConstPi() and ConstPi() != ConstE()
    assert Add(a, b) != (a, b)


def test_equal_values_hash_equal():
    assert hash(parse("pi^2 + 8*pi")) == hash(parse("pi^2 + 8*pi"))
    assert len({parse("exp(pi) - pi"), parse("exp(pi) - pi"), parse("e")}) == 2
    row = ScanRow(1, -1, Fraction(1, 2), 0, Fraction(1, 2), False, None, False)
    assert row == ScanRow(1, -1, Fraction(1, 2), 0, Fraction(1, 2), False, None, False)
    assert hash(row) == hash(ScanRow(1, -1, Fraction(1, 2), 0, Fraction(1, 2), False, None, False))


def test_fields_cannot_be_assigned_or_deleted():
    node = Add(IntLit(1), ConstPi())
    with pytest.raises(AttributeError):
        node.left = IntLit(2)
    with pytest.raises(AttributeError):
        del node.right
    with pytest.raises(AttributeError):
        node.extra = 1
    fixed = BigFixed(15, 1)
    with pytest.raises(AttributeError):
        fixed.scale = 2
    assert node == Add(IntLit(1), ConstPi()) and fixed.scale == 1


def test_keyword_construction_and_defaults():
    assert _spec().alternating is False
    assert _spec(alternating=True).alternating is True
    rel = Relation("X", ConstPi(), IntLit(3), NEAR_EQUAL, "Eq. (0)", "3")
    assert (rel.min_digits, rel.note) == (6, "")
    rel = Relation(id="X", lhs=ConstPi(), rhs=IntLit(3), kind=NEAR_EQUAL, paper_eq="Eq. (0)",
                   paper_quote="3", note="n", min_digits=9)
    assert (rel.id, rel.min_digits, rel.note) == ("X", 9, "n")
    rel = Relation(id="X", lhs=ConstPi(), rhs=IntLit(3), kind=NEAR_EQUAL, paper_eq="Eq. (0)",
                   paper_quote="3")
    assert (rel.min_digits, rel.note) == (6, "")
    assert Add(right=ConstPi(), left=IntLit(1)) == Add(IntLit(1), ConstPi())


@pytest.mark.parametrize("args, kwargs, cause", [
    ((IntLit(1),), {}, "missing required argument 'right'"),
    ((IntLit(1), ConstPi(), ConstE()), {}, "takes 2 positional arguments but 3 were given"),
    ((IntLit(1), ConstPi()), {"middle": ConstE()}, "unexpected keyword argument 'middle'"),
    ((IntLit(1),), {"left": ConstE(), "right": ConstPi()}, "multiple values for argument 'left'"),
    ((), {"left": IntLit(1)}, "missing required argument 'right'"),
    ((IntLit(1),), {"left": ConstE()}, "multiple values for argument 'left'"),
], ids=["missing", "too-many", "unknown-keyword", "position-and-keyword", "keywords-missing",
        "position-and-keyword-missing"])
def test_bad_arguments_raise_type_error(args, kwargs, cause):
    with pytest.raises(TypeError, match=f"^Add\\(\\) .*{cause}"):
        Add(*args, **kwargs)


def test_post_init_rejects_bad_input():
    with pytest.raises(ValueError):
        Root(ConstPi(), 0)
    with pytest.raises(ValueError):
        Root(arg=ConstPi(), k=0)
    with pytest.raises(ValueError):
        BigFixed(1, -1)
    with pytest.raises(ValueError):
        BigFixed(mantissa=1, scale=-1)
    with pytest.raises(ValueError):
        _spec(constant="tau")
    with pytest.raises(ValueError):
        Relation("X", ConstPi(), IntLit(3), "near", "Eq. (0)", "3")
    with pytest.raises(ValueError):
        Relation("X", ConstPi(), IntLit(3), NEAR_EQUAL, "Eq. (0)", "3", min_digits=5)


def test_repr_names_every_field():
    assert repr(Add(IntLit(1), ConstPi())) == "Add(left=IntLit(value=1), right=ConstPi())"
    assert repr(Root(ConstE(), 3)) == "Root(arg=ConstE(), k=3)"
    row = ScanRow(1, 2, Fraction(7, 2), 4, Fraction(-1, 2), False, None, True)
    assert repr(row) == (
        "ScanRow(n=1, m=2, value=Fraction(7, 2), nearest=4, residual=Fraction(-1, 2), "
        "mod7=False, predicted=None, flagged=True)"
    )


def test_class_defined_methods_are_kept():
    # BigFixed compares numerically and renders its digits
    assert BigFixed(150, 2) == BigFixed(15, 1) == Fraction(3, 2)
    assert hash(BigFixed(150, 2)) == hash(BigFixed(15, 1))
    assert repr(BigFixed(150, 2)) == "BigFixed('1.50')"


def test_eval_result_unpacks():
    # a plain pair of integers: the value in units of 10**-12, the bound in
    # units of 10**-16
    result = eval_expr(parse("e + 2*pi"), 10)
    value, err = result
    assert type(result) is tuple and type(value) is int and type(err) is int
    assert value == 9001467135639 and 0 <= err <= 10**6


def test_cli_import_loads_no_class_generation_modules():
    # -S: the interpreter's site hooks may import typing on their own;
    # -E: no PYTHONPATH, so this checkout's sources are the ones imported
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import epilab.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'json', 'csv'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-E", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
