"""Command-line interface: output formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from decimal import MAX_PREC, ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epilab.bignum import BigFixed, _div_nearest, ceil_div, floor_div
from epilab.cli import _option, _places, _rational, build_parser, main, parse_args
from epilab.series import DEFAULT_MAX_TERMS, builtin_names


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_compute_auto_terms_text(capsys):
    rc, out, err = run(capsys, "compute", "pi", "--method", "nilakantha", "--digits", "8")
    assert rc == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "pi = 3.14159265"
    assert lines[1] == "method = nilakantha"
    assert lines[2] == "terms = 793"
    assert lines[3].startswith("error <= 0.000000005")


def test_compute_quiet_prints_bare_value(capsys):
    rc, out, _ = run(capsys, "compute", "e", "--digits", "10", "--quiet")
    assert rc == 0
    assert out == "2.7182818284\n"


def test_compute_oracle_default(capsys):
    rc, out, _ = run(capsys, "compute", "pi", "--digits", "10")
    assert rc == 0
    assert "pi = 3.1415926535" in out
    assert "method = oracle" in out


def test_compute_json_schema(capsys):
    rc, out, _ = run(capsys, "compute", "pi", "--digits", "8", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert list(doc) == ["constant", "method", "digits", "terms", "value", "error_bound"]
    assert doc["value"] == "3.14159265"
    assert doc["terms"] is None


def test_compute_csv(capsys):
    rc, out, _ = run(capsys, "compute", "pi", "--digits", "8", "--format", "csv")
    assert rc == 0
    header, row = out.splitlines()
    assert header == "constant,method,digits,terms,value,error_bound"
    assert row.startswith("pi,oracle,8,,3.14159265,")


def test_compute_explicit_terms(capsys):
    rc, out, _ = run(capsys, "compute", "pi", "--method", "zeta8", "--digits", "10", "--terms", "25")
    assert rc == 0
    assert "terms = 25" in out


def test_compute_infeasible_exits_one(capsys):
    rc, out, err = run(capsys, "compute", "pi", "--method", "gregory-leibniz", "--digits", "12")
    assert rc == 1
    assert out == ""
    assert "gregory-leibniz" in err
    assert "100000000" in err


def test_compute_unknown_method_exits_two(capsys):
    rc, _, err = run(capsys, "compute", "pi", "--method", "basel")
    assert rc == 2
    assert "basel" in err
    rc, _, err = run(capsys, "compute", "e", "--method", "zeta8")
    assert rc == 2
    assert "not valid for e" in err


def test_table_text_digits_column(capsys):
    rc, out, _ = run(capsys, "table", "gregory-leibniz", "--checkpoints", "10,100,1000")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "series = gregory-leibniz (limit: pi)"
    assert lines[1].split() == ["n", "value", "abs_error", "bound", "digits_correct"]
    assert [row.split()[-1] for row in lines[2:]] == ["1", "2", "3"]
    assert [row.split()[0] for row in lines[2:]] == ["10", "100", "1000"]


def test_table_csv(capsys):
    rc, out, _ = run(capsys, "table", "zeta8", "--checkpoints", "5,20", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,value,abs_error,bound,digits_correct"
    assert len(lines) == 3
    assert lines[1].startswith("5,9488.52277927")


def test_table_rejects_unknown_series(capsys):
    rc, _, err = run(capsys, "table", "basel")
    assert rc == 2
    assert "basel" in err


def test_verify_single_text(capsys):
    rc, out, _ = run(capsys, "verify", "R05")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "R05: exp(pi) - pi vs 20 [near_integer, Eq. (5)]"
    assert lines[1].startswith("lhs = 19.99909997918947")
    assert "digits_of_agreement = 4" in lines
    assert lines[-1] == "certified = yes"


def test_verify_all_text(capsys):
    rc, out, _ = run(capsys, "verify", "--all")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 20
    assert all("certified" in line for line in lines)
    assert lines[0].startswith("R01")
    assert lines[-1].startswith("R20")


def test_verify_all_json(capsys):
    rc, out, _ = run(capsys, "verify", "--all", "--format", "json")
    assert rc == 0
    docs = json.loads(out)
    assert len(docs) == 20
    for doc in docs:
        assert list(doc) == [
            "id",
            "paper_eq",
            "lhs",
            "rhs",
            "abs_residual",
            "rel_residual",
            "digits_of_agreement",
            "precision_used",
            "certified",
        ]
        assert doc["certified"] is True
        assert isinstance(doc["digits_of_agreement"], int)
        assert isinstance(doc["precision_used"], int)
        for key in ("lhs", "rhs", "abs_residual", "rel_residual"):
            # every numeric cell is plain decimal text
            assert re.fullmatch(r"-?\d+(\.\d+)?", doc[key]), doc[key]


def test_verify_all_csv(capsys):
    rc, out, _ = run(capsys, "verify", "--all", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 21
    assert lines[0].startswith("id,paper_eq,lhs,rhs,")
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_usage_errors(capsys):
    rc, _, err = run(capsys, "verify")
    assert rc == 2
    assert "relation id" in err
    rc, _, err = run(capsys, "verify", "R99")
    assert rc == 2
    assert "R99" in err and "R20" in err


def test_cfrac_text_and_json(capsys):
    rc, out, _ = run(capsys, "cfrac", "exp(pi)", "--terms", "3")
    assert rc == 0
    assert out == "expr = exp(pi)\n23 7 9\n"
    rc, out, _ = run(capsys, "cfrac", "exp(pi)", "--terms", "3", "--quiet")
    assert out == "23 7 9\n"
    rc, out, _ = run(capsys, "cfrac", "exp(pi)", "--terms", "3", "--format", "json")
    doc = json.loads(out)
    assert doc == {"expr": "exp(pi)", "quotients": [23, 7, 9]}


def test_cfrac_bad_expression_exits_two(capsys):
    rc, _, err = run(capsys, "cfrac", "1 +")
    assert rc == 2
    assert "error" in err


def test_cfrac_exp_out_of_range_exits_one(capsys):
    # parses, but exp() is certified only for |x| <= 100
    rc, out, err = run(capsys, "cfrac", "exp(101)")
    assert (rc, out, err) == (1, "", "error: exp argument outside |x| <= 100\n")


def test_stirling_approx_far_past_the_exp_limit_exits_one(capsys):
    # n has 401 digits, more than a float holds: the range check must not
    # convert it to print it
    rc, out, err = run(capsys, "stirling", "--op", "approx", "--n", "1" + "0" * 400)
    assert (rc, out, err) == (1, "", "error: exp argument outside |x| <= 100\n")


def test_cfrac_root_of_negative_exits_one(capsys):
    rc, out, err = run(capsys, "cfrac", "root(2, 0-pi)")
    assert (rc, out) == (1, "")
    assert err.startswith("error: root of a negative value")


@pytest.mark.parametrize("expr, bound", [
    ("root(2, -8)", "-8"),
    ("sqrt(pi-4)", "-0.858407"),
    ("sqrt(0-10^20)", "-1e+20"),
    ("sqrt(0-10^400)", "-1e+400"),  # past float range
    ("root(2, 0-10^400)", "-1e+400"),
])
def test_root_of_negative_names_its_bound(capsys, expr, bound):
    assert run(capsys, "cfrac", expr) == (1, "", f"error: root of a negative value (<= {bound})\n")


def test_cfrac_odd_root_of_negative_value(capsys):
    rc, out, err = run(capsys, "cfrac", "root(3, 0-8)")
    assert (rc, out, err) == (0, "expr = root(3, 0 - 8)\n-2\n", "")


def test_scan_text_without_flagged_rows_prints_the_header(capsys):
    rc, out, err = run(capsys, "scan", "--max", "1", "--threshold", "0.0001", "--quiet")
    assert (rc, out, err) == (0, "n  m  value  nearest  residual  mod7  predicted  flagged\n", "")


def test_cfrac_unfinished_expression_exits_two(capsys):
    rc, out, err = run(capsys, "cfrac", "pi+")
    assert (rc, out, err) == (2, "", "error: unexpected end of expression\n")


def test_stirling_e_half(capsys):
    rc, out, _ = run(capsys, "stirling", "--op", "e-half", "--n", "0", "--k", "2")
    assert rc == 0
    assert out == "sqrt(2)*7/6; squared = 49/18 ≈ 2.7222\n"
    # an explicit --scale sets the places of the square; without it, 4
    for scale, square in (("2", "2.72"), ("0", "3"), ("30", "2." + "7" + "2" * 29)):
        assert run(capsys, "stirling", "--op", "e-half", "--n", "0", "--scale", scale) == (
            0, f"sqrt(2)*7/6; squared = 49/18 ≈ {square}\n", "")


def test_stirling_e_half_prints_an_integer_square_as_an_integer(capsys):
    # as every other exact rational is printed, and as the surd's own text
    for argv, surd, square in ((["--n", "0", "--k", "1"], "sqrt(2)", "2"),
                               (["--n", "1", "--k", "1"], "sqrt(2)*3", "18")):
        assert run(capsys, "stirling", "--op", "e-half", *argv) == (
            0, f"{surd}; squared = {square} ≈ {square}.0000\n", "")
        rc, out, _ = run(capsys, "stirling", "--op", "e-half", *argv, "--format", "json")
        assert (rc, json.loads(out)["squared"]) == (0, square)


def test_stirling_approx_reports_relative_error(capsys):
    rc, out, _ = run(capsys, "stirling", "--op", "approx", "--n", "1", "--k", "3")
    assert rc == 0
    assert "2.7242175346" in out
    assert "rel error" in out
    assert "2.7182818285" in out


def test_stirling_e8(capsys):
    rc, out, _ = run(capsys, "stirling", "--op", "e8")
    assert rc == 0
    assert "17850625/11943936" in out
    assert "2980.9579870417" in out


def test_scan_text_shows_flagged_rows(capsys):
    rc, out, _ = run(capsys, "scan", "--max", "3")
    assert rc == 0
    lines = out.splitlines()
    assert "6 of 48" in lines[0]
    assert lines[1].split() == [
        "n", "m", "value", "nearest", "residual", "mod7", "predicted", "flagged",
    ]
    assert len(lines) == 8
    assert all(row.split()[-1] == "true" for row in lines[2:])


def test_scan_all_rows(capsys):
    rc, out, _ = run(capsys, "scan", "--max", "3", "--all-rows")
    assert rc == 0
    assert len(out.splitlines()) == 50


def test_scan_csv_always_full(capsys):
    rc, out, _ = run(capsys, "scan", "--max", "3", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,m,value,nearest,residual,mod7,predicted,flagged"
    assert len(lines) == 49


class _LineCounter(io.TextIOBase):
    """A stdout that keeps nothing it is given but its count of lines."""

    lines = 0

    def write(self, s):
        self.lines += s.count("\n")
        return len(s)


def test_scan_csv_memory_does_not_grow_with_max():
    # 301^2 - 1 = 90,600 rows; a scan that held every row before writing
    # the first would peak near 22 MB here
    import csv  # noqa: F401  imported before tracing, as the scan imports it
    import epilab.derive  # noqa: F401

    sink = _LineCounter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            rc = main(["scan", "--max", "150", "--format", "csv"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert sink.lines == 90_601
    assert peak < 2 * 2**20


def test_scan_json_memory_does_not_grow_with_max():
    # 101^2 - 1 = 10,200 records of ten lines each, between [ and ]; a
    # writer that built the whole document before printing it peaked near
    # 10.5 MiB here
    import json.encoder  # noqa: F401  imported before tracing, as _json imports it
    import epilab.derive  # noqa: F401

    sink = _LineCounter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            rc = main(["scan", "--max", "50", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert sink.lines == 10_200 * 10 + 2
    assert peak < 2 * 2**20


def test_compare_memory_does_not_grow_with_rows():
    # each row's exact sums have thousands of digits at hundreds of rows,
    # and a row is freed once it is rendered: a compare that made every
    # row before rendering the first peaked near 0.9 MiB here (now 0.2)
    import epilab.accel  # noqa: F401

    for fmt in ("csv", "text"):
        sink = _LineCounter()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                rc = main(["compare", "--rows", "300", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert sink.lines == (301 if fmt == "csv" else 302)
        assert peak < 2**19, fmt


def _reference_scan(fmt, max_coeff, digits, threshold):
    """`scan --format csv|json` output built the slow way, as a check on the
    CLI's integer rendering: scan_units' rows, each value and residual
    read as a Fraction and rounded by BigFixed.from_fraction at 6
    places, and in csv json's spellings of booleans, with null as an
    empty cell."""
    import csv
    import io

    from epilab.derive import scan_units

    columns = ["n", "m", "value", "nearest", "residual", "mod7", "predicted", "flagged"]
    two_den, rows = scan_units(max_coeff, digits, Fraction(threshold).as_integer_ratio())
    typed = [
        [n, m, BigFixed.from_fraction(Fraction(total, two_den), 6).to_decimal_string(), nearest,
         BigFixed.from_fraction(Fraction(residual, two_den), 6).to_decimal_string(), *rest]
        for n, m, total, nearest, residual, *rest in rows
    ]
    if fmt == "json":
        return json.dumps([dict(zip(columns, row)) for row in typed], indent=2) + "\n"

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([cell(v) for v in row] for row in typed)
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("threshold", ["0.06", "0.5"])
@pytest.mark.parametrize("digits", [3, 10, 30])
def test_scan_cells_equal_fraction_rendering(capsys, fmt, threshold, digits):
    rc, out, _ = run(capsys, "scan", "--max", "12", "--digits", str(digits),
                     "--threshold", threshold, "--format", fmt)
    assert rc == 0
    assert out.splitlines() == _reference_scan(fmt, 12, digits, threshold).splitlines()
    assert out.endswith("\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_cells_round_ties_away_and_drop_the_sign_of_zero(monkeypatch, capsys, fmt):
    # made-up units on the 10**-7 grid, with midpoints 3 + 5e-7 and
    # 3 + 8e-7: pi's row is a tie at the sixth place, and pi - e = -3e-7
    # is a small negative value that rounds to zero
    import epilab.derive

    monkeypatch.setattr(epilab.derive, "pi_interval",
                        lambda digits: (30000005 - 3333333, 30000005 + 3333333, 10**7))
    monkeypatch.setattr(epilab.derive, "e_interval",
                        lambda digits: (30000008 - 1428571, 30000008 + 1428571, 10**7))
    rc, out, _ = run(capsys, "scan", "--max", "2", "--format", fmt)
    assert rc == 0
    assert out.splitlines() == _reference_scan(fmt, 2, 30, "0.06").splitlines()
    if fmt == "csv":
        lines = out.splitlines()
        assert "1,0,3.000001,3,0.000001,false,,true" in lines
        assert "-1,0,-3.000001,-3,-0.000001,false,,true" in lines
        assert "1,-1,0.000000,0,0.000000,false,,true" in lines
        assert "-0.000000" not in out


@st.composite
def _scan_cells(draw):
    """(num, two_den) for one scan cell.  two_den = 2 * 10**6 * c makes one
    unit of the sixth place 2c in num, so half-unit ties and negatives
    that round to zero can be drawn directly."""
    c = draw(st.integers(1, 10**6))
    num = draw(st.one_of(
        st.integers(-10**20, 10**20),  # either sign, up to 5 * 10**13
        st.integers(-10**13, 10**13).map(lambda u: (2 * u + 1) * c),  # ties
        st.integers(1, c).map(lambda j: -j),  # above -1/2 unit: 0.000000
    ))
    return num, draw(st.sampled_from([2 * 10**6 * c, 2 * c + 1]))


@given(_scan_cells())
@example((-1, 4 * 10**6)).via("a tiny negative")
@example((-1, 2 * 10**6)).via("a negative half-unit tie")
@example((3 * 10**13, 2)).via("a value above 10**6")
def test_scan_cell_is_the_quotient_rounded_half_away(cell):
    # the scan's cell text against decimal's rounding of the same quotient;
    # 60 digits leave no double rounding for these denominators, and the
    # cell, like BigFixed, drops the sign of a zero
    num, two_den = cell
    q = Context(prec=60).divide(Decimal(num), Decimal(two_den))
    q = q.quantize(Decimal("1e-6"), rounding=ROUND_HALF_UP)
    expected = format(abs(q) if q == 0 else q, "f")
    assert _places(num, two_den, 6) == expected


_ROUNDINGS = {"nearest": _div_nearest, "floor": floor_div, "ceil": ceil_div}


def _places_reference(num: int, den: int, places: int, rounding: str) -> str:
    """num/den at `places` decimals by Fraction arithmetic: to nearest with
    ties away from zero, down or up; written out by decimal, which
    converts an int with no cap on its digits."""
    x = Fraction(num, den) * 10**places
    if rounding == "nearest":
        units = math.floor(abs(x) + Fraction(1, 2)) * (-1 if x < 0 else 1)
    else:
        units = math.floor(x) if rounding == "floor" else math.ceil(x)
    return format(Decimal(units).scaleb(-places, Context(prec=MAX_PREC)), "f")


@given(st.integers(-10**50, 10**50), st.integers(1, 10**30), st.integers(0, 40))
@example(1, 2, 0).via("a positive tie")
@example(-1, 2, 0).via("a negative tie")
@example(-25, 1000, 2).via("a negative tie below the point")
@example(-1, 3, 0).via("a negative value that rounds to zero")
@example(7, 1, 5).via("an integer")
@example(-123456, 10**3, 3).via("a negative value on the grid 10**-places")
@example(-7, 1, 0).via("a negative integer at no places")
@example(0, 10**40, 40).via("zero on the grid")
@example(10**45 + 999, 10**40, 40).via("a value on the grid past the point")
def test_places_matches_a_fraction_reference(num, den, places):
    # the one function that rounds every printed decimal, in each rounding
    assert _places(num, den, places) == _places_reference(num, den, places, "nearest")
    for name, rounding in _ROUNDINGS.items():
        got = _places(num, den, places, rounding)
        assert got == _places_reference(num, den, places, name), name


@pytest.mark.parametrize("num, den", [(22, 7), (-1, 3), (10**5000 + 1, 2 * 10**5000),
                                      (-10**5000 - 1, 2 * 10**5000), (31 * 10**4999 + 9, 10**5000),
                                      (-10**5001 - 999, 10**5000)],
                         ids=["22/7", "-1/3", "a tie at place 5,001", "a negative tie",
                              "on the grid", "negative, on the grid"])
def test_places_past_the_int_str_cap(default_int_str_limit, num, den):
    assert _places(num, den, 5000) == _places_reference(num, den, 5000, "nearest")
    for name, rounding in _ROUNDINGS.items():
        assert _places(num, den, 5000, rounding) == _places_reference(num, den, 5000, name), name


@st.composite
def _on_the_oracle_grid(draw):
    digits = draw(st.integers(1, 60))
    return digits, draw(st.integers(10, 10 ** (digits + 5)))


@settings(max_examples=200, deadline=None)
@given(_on_the_oracle_grid())
@example((5, 314159999)).via("a midpoint that ends in ...999")
@example((5, 314160000)).via("a midpoint on the printed grid")
@example((4000, 2718 * 10**4000 - 1)).via("4,000 digits")
@example((5000, 3141 * 10**5000 + 592)).via("5,000 digits")
def test_compute_cells_on_the_oracle_grid(case):
    # compute's oracle path floors the midpoint once, on constant_reference's
    # grid; its cells must be those of the generic expressions for any den
    digits, m = case
    lo, hi, den = m - 10, m + 10, 10 ** (digits + 3)
    value = floor_div((lo + hi) * 10**digits, 2 * den)
    expected = {"value": _places(lo + hi, 2 * den, digits, floor_div),
                "error_bound": _places(hi * 10**digits - value * den, den * 10**digits,
                                       digits + 4, ceil_div)}
    out = io.StringIO()
    with mock.patch("epilab.cli.constant_reference", return_value=(lo, hi, den)), \
            contextlib.redirect_stdout(out):
        assert main(["compute", "pi", "--digits", str(digits), "--format", "json"]) == 0
    cells = json.loads(out.getvalue())
    assert {name: cells[name] for name in expected} == expected


def test_compare_table(capsys):
    rc, out, _ = run(capsys, "compare", "--rows", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[1].split() == ["k", "e_term", "two_pi_term", "running_sum", "distance_to_9"]
    assert lines[2].split() == ["1", "3", "6", "9.0000000000", "0.0000000000"]
    assert lines[4].split() == ["3", "1/24", "-3/70", "8.9988095238", "0.0011904762"]


def _pi_floor(digits: int) -> int:
    """floor(pi * 10**digits), from pi/4 = arctan(1/2) + arctan(1/3) on
    integers with ten guard digits (a different identity from the oracle's)."""
    unit = 10 ** (digits + 10)

    def arctan_inv(q: int) -> int:
        total, power, k = 0, unit // q, 0
        while power:
            total += (-1) ** k * (power // (2 * k + 1))
            power //= q * q
            k += 1
        return total

    return 4 * (arctan_inv(2) + arctan_inv(3)) // 10**10


def test_compute_beyond_int_str_limit(capsys, default_int_str_limit):
    rc, out, err = run(capsys, "compute", "pi", "--digits", "5000", "--quiet")
    assert rc == 0
    assert err == ""
    high, low = divmod(_pi_floor(5000), 10**2500)  # each half under the cap
    expected = f"{high}{low:02500d}"
    assert out == f"{expected[0]}.{expected[1:]}\n"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_cfrac_quotient_beyond_int_str_limit(capsys, default_int_str_limit, fmt):
    rc, out, err = run(capsys, "cfrac", "10^4400 + pi", "--terms", "3", "--format", fmt)
    assert rc == 0, err
    expected = ["1" + "0" * 4399 + "3", "7", "15"]
    if fmt == "json":
        body = out[out.index("[") + 1:out.index("]")]
        got = [line.strip().rstrip(",") for line in body.strip().splitlines()]
    elif fmt == "csv":
        got = [line.split(",")[1] for line in out.splitlines()[1:]]
    else:
        got = out.splitlines()[1].split()
    assert got == expected


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv", [
    ["stirling", "--op", "e-half", "--n", "3000"],  # the surd and its square
    ["compare", "--rows", "1600"],  # e_term is 1/(k+1)!
], ids=["stirling-e-half", "compare"])
def test_exact_rationals_beyond_int_str_limit(capsys, default_int_str_limit, argv, fmt):
    rc, out, err = run(capsys, *argv, "--format", fmt)
    assert (rc, err) == (0, "")
    assert len(max(re.findall(r"\d+", out), key=len)) > 4300


def test_output_is_deterministic(capsys):
    first = run(capsys, "verify", "--all", "--format", "json")
    second = run(capsys, "verify", "--all", "--format", "json")
    assert first == second


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "epilab.cli", "compute", "e", "--digits", "10", "--quiet"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2.7182818284\n"


def test_closed_stdout_ends_quietly():
    # about 250 kB of rows, far more than a pipe holds, so the writes
    # after the reader has gone fail
    proc = subprocess.Popen(
        [sys.executable, "-m", "epilab.cli", "scan", "--max", "30", "--all-rows"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"combinations")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == "error: stdout was closed before the output ended\n"


@pytest.mark.parametrize("argv", [
    ["scan", "--max", "2", "--digits", "-3"],
    ["scan", "--max", "2", "--digits", "0"],
    ["stirling", "--op", "approx", "--n", "3", "--scale", "-20"],
    # --digits is checked before the command runs, whatever its method
    ["compute", "pi", "--method", "zeta8", "--digits", "0"],
    ["compute", "pi", "--method", "lambda6", "--digits", "-3"],
    ["compute", "pi", "--method", "gregory-leibniz", "--digits", "-1"],
    ["verify", "R02", "--digits", "0"],  # verify keeps its own, higher floor
    # --terms too, before the oracle path says it takes none
    ["compute", "pi", "--method", "zeta8", "--terms", "0"],
    ["compute", "pi", "--terms", "-5"],
], ids=" ".join)
def test_non_positive_precision_exits_two(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    cause = {"--digits": "--digits must be >= 1", "--scale": "--scale must be >= 0",
             "--terms": "--terms must be >= 1"}[argv[-2]]
    if argv[0] == "verify":
        cause = "--digits must be >= 6"
    assert err == f"error: {cause}\n"


@pytest.mark.parametrize("threshold", ["1/0", "abc"])
def test_bad_threshold_names_the_option(capsys, threshold):
    assert run(capsys, "scan", "--max", "2", "--threshold", threshold) == (
        2, "", f"error: bad --threshold {threshold!r}\n")


#: pieces of --threshold text: signs, spaces, underscores, points, exponents,
#: slashes, zero, non-ASCII digits and spaces, and words Fraction refuses
_THRESHOLD_PIECES = st.sampled_from(
    ["0", "1", "5", "06", "12", "٣", "١٢", "_", ".", "e", "E", "-", "+", "/", " ", "\t", "\u00a0",
     "\u2003", "d", "x", "nan", "inf", "1/0", "e-3", "E+2"])


@given(st.one_of(
    st.lists(_THRESHOLD_PIECES, max_size=7).map("".join),
    st.from_regex(r"\s?[-+]?(\d(_?\d)?)?(\.(\d(_?\d)?)?)?([eE][-+]?\d)?\s?", fullmatch=True),
    st.from_regex(r"\s?[-+]?\d(_?\d)?\s?/\s?\d(_?\d)?\s?", fullmatch=True),
))
@example(".5")
@example("5.")
@example("-0.06")
@example("1_000/2_000")
@example("1e-2")
@example("1/0")
@example("1 / 2")
@example("nan")
@example("inf")
@example("٠.٥")
@example(" 3/50\n")
@settings(max_examples=500, deadline=None)
@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the reader follows Python 3.11's Fraction(str) grammar")
def test_threshold_reader_reads_what_fraction_reads(text):
    # --threshold is read without fractions: the reader gives Fraction's
    # value (as a pair, q > 0), or rejects what Fraction rejects
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        expected = None
    try:
        p, q, k = _rational(text)
    except (ValueError, ZeroDivisionError):
        assert expected is None, text
    else:
        assert q > 0 and Fraction(p, q) * Fraction(10) ** k == expected, text


@pytest.mark.parametrize("threshold, same_as", [
    ("1e-999999999", "1e-50"), ("123_456.5e-999999999", "1e-50"),
    ("1e999999999", None), ("0.0e999999999", None)])
def test_a_threshold_far_past_the_scans_grid_ends_at_once(threshold, same_as):
    # a billion-digit power of ten would take minutes: below the grid of
    # 10**-work a threshold flags only exact integers, as 10**-(digits +
    # 20) does (at the default 30 digits), and above 1/2 it is out of range
    def scan(text):
        return subprocess.run([sys.executable, "-m", "epilab.cli", "scan", "--max", "3",
                               "--format", "csv", "--threshold", text],
                              capture_output=True, text=True, timeout=5)

    proc = scan(threshold)
    if same_as is None:
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: threshold must be in (0, 1/2]\n"
    else:
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == scan(same_as).stdout


@pytest.mark.parametrize("argv, cause", [
    ("scan --max 0", "--max must be >= 1"),
    ("cfrac pi --terms 0", "--terms must be >= 1"),
    ("compute pi --method zeta8 --terms x", "bad --terms 'x'; expected an integer"),
    # the oracle sums no series, but checks --terms as the series do
    ("compute pi --terms abc", "bad --terms 'abc'; expected an integer"),
    # a count is the one way to give it: 'auto' was the default written out
    ("compute pi --method nilakantha --terms auto", "bad --terms 'auto'; expected an integer"),
    ("compute pi --terms 0", "--terms must be >= 1"),
    ("compute e --terms -2", "--terms must be >= 1"),
    # and rejects a valid one, which it would ignore
    ("compute pi --terms 5", "--terms applies only to a series --method"),
    # the term cap is the library's, DEFAULT_MAX_TERMS, and no option sets it
    ("compute pi --max-terms 3", "unknown option --max-terms"),
    ("table zeta8 --checkpoints 0", "--checkpoints must be >= 1"),
    ("table zeta8 --checkpoints 10,0", "--checkpoints must be >= 1"),
    ("table zeta8 --checkpoints abc", "bad --checkpoints 'abc'; expected e.g. 10,100,1000"),
    ("table zeta8 --checkpoints ,", "--checkpoints must name at least one index"),
    ("table zeta8 --checkpoints 20000", "--checkpoints must be <= 10000"),
    # the floors of the option table name the option, not the library parameter
    ("compare --rows 0", "--rows must be >= 1"),
    ("table zeta8 --scale -1", "--scale must be >= 0"),
    # e8 reads neither --n nor --k, and says so
    ("stirling --op e8 --n 7 --k 9", "--n and --k apply only to --op approx, ratio and e-half"),
    # the other ops range-check them under the options' names
    ("stirling --op approx --n 0", "--n must be >= 1"),
    ("stirling --op ratio --n -3", "--n must be >= 1"),
    ("stirling --op ratio --k 0", "--k must be in 1..4"),
    ("stirling --op approx --k 5", "--k must be in 1..4"),
    ("stirling --op e-half --n -1", "--n must be >= 0"),
    ("stirling --op e-half --k 3", "--k must be in 1..2"),
    # a certified quotient is the same at any precision, so cfrac takes no --digits
    ("cfrac pi --digits 30", "unknown option --digits"),
    # the term cap bounds an explicit count too
    (f"compute pi --method zeta8 --terms {DEFAULT_MAX_TERMS + 1}",
     f"--terms must be <= {DEFAULT_MAX_TERMS}"),
])
def test_option_errors_name_the_option(capsys, argv, cause):
    # the message names the option as the user typed it, not a library parameter
    assert run(capsys, *argv.split()) == (2, "", f"error: {cause}\n")


def test_no_certified_result_errors_share_one_base():
    # main maps the base to exit 1; each class keeps its own bases
    from epilab.expr import EvalDomainError, PrecisionCapError
    from epilab.oracle import ExpRangeError, NoCertifiedResult
    from epilab.series import InfeasibleRequest

    for cls, base in ((ExpRangeError, ValueError), (EvalDomainError, ValueError),
                      (PrecisionCapError, ArithmeticError), (InfeasibleRequest, ValueError)):
        assert issubclass(cls, NoCertifiedResult) and issubclass(cls, base)


def test_unexpected_zero_division_is_a_fault_not_a_usage_error(monkeypatch, capsys):
    import epilab.derive

    def broken(*args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(epilab.derive, "scan_units", broken)
    with pytest.raises(ZeroDivisionError):
        main(["scan", "--max", "2"])


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_verify_all_shows_a_failed_relation_in_every_format(monkeypatch, capsys, fmt):
    import epilab.registry
    from epilab.expr import parse
    from epilab.registry import NEAR_EQUAL, REGISTRY, Relation

    broken = Relation(id="X01", lhs=parse("1/(1 - 1)"), rhs=parse("1"), kind=NEAR_EQUAL,
                      paper_eq="none", paper_quote="")
    # a residual of zero is never certified
    uncertified = Relation(id="X02", lhs=parse("pi"), rhs=parse("pi"), kind=NEAR_EQUAL,
                           paper_eq="none", paper_quote="")
    monkeypatch.setattr(epilab.registry, "REGISTRY", (REGISTRY[0], broken, uncertified))
    rc, out, err = run(capsys, "verify", "--all", "--digits", "12", "--format", fmt)
    # stdout carries the report; stderr one line naming what is not certified
    assert (rc, err) == (1, "error: not certified: X01, X02\n")
    failed, last = out.splitlines()[-2:]
    if fmt == "json":
        assert json.loads(out)[1] == {"id": "X01", "paper_eq": "none",
                                      "error": "division by zero"}
        assert json.loads(out)[0]["certified"] is True
        assert json.loads(out)[2]["certified"] is False
    elif fmt == "csv":
        assert failed == "X01,none,,,,,,,false"
        assert last.startswith("X02,none,") and last.endswith(",false")
    else:
        assert failed == "X01  FAILED: division by zero"
        assert last.startswith("X02  UNCERTIFIED")
    # the certified catalog itself writes nothing to stderr
    monkeypatch.setattr(epilab.registry, "REGISTRY", REGISTRY[:1])
    assert run(capsys, "verify", "--all", "--digits", "12", "--format", fmt)[::2] == (0, "")


@pytest.mark.parametrize("op", ["approx", "ratio", "e-half", "e8"])
def test_negative_scale_exits_two_for_every_op(capsys, op):
    # --scale is checked once, before the op runs, and named as given; e8
    # reads no --n
    n = [] if op == "e8" else ["--n", "3"]
    for scale in ("-1", "-5"):
        assert run(capsys, "stirling", "--op", op, *n, "--scale", scale) == (
            2, "", "error: --scale must be >= 0\n")
    rc, out, err = run(capsys, "stirling", "--op", op, *n, "--scale", "0")
    assert (rc, err) == (0, "") and out


def test_scan_digits_do_not_depend_on_earlier_commands(capsys):
    # the autouse fixture starts the test with cold caches; compute then
    # leaves 45-digit enclosures of pi and e in them
    argv = ["scan", "--max", "5", "--digits", "3", "--format", "csv"]
    cold = run(capsys, *argv)
    run(capsys, "compute", "pi", "--digits", "40")
    run(capsys, "compute", "e", "--digits", "40")
    assert run(capsys, *argv) == cold


def test_table_reference_follows_smallest_bound(capsys):
    # 2/2001! is far below what a 60-digit reference resolves
    rc, out, err = run(capsys, "table", "e-factorial", "--checkpoints", "10,2000",
                       "--format", "json")
    assert rc == 0, err
    rows = json.loads(out)
    assert [r["n"] for r in rows] == ["10", "2000"]
    last = rows[1]
    assert Fraction(last["bound"]) >= Fraction(last["abs_error"])
    assert int(last["digits_correct"]) > 5000


def _literal_cell(value) -> str:
    # how a command spells a typed value as a literal cell
    if isinstance(value, list):
        return [_literal_cell(v) for v in value]
    return "" if value is None else ("true" if value else "false") if isinstance(value, bool) \
        else str(value)


@st.composite
def _json_records(draw):
    """(typed records, literal keys): records of strings under some keys and
    json literals (ints of either sign, booleans, null, lists of ints) under
    the others, each record with its own keys in its own order."""
    keys = draw(st.lists(st.text(max_size=4), min_size=1, max_size=5, unique=True))
    literal = set(draw(st.lists(st.sampled_from(keys), unique=True)))
    strings = st.text(st.characters(codec="utf-8"), max_size=8)  # controls, quotes, non-ASCII
    literals = st.one_of(st.integers(-10**30, 10**30), st.booleans(), st.none(),
                         st.lists(st.integers(-10**6, 10**6), max_size=3))
    records = []
    for _ in range(draw(st.integers(0, 4))):
        chosen = draw(st.lists(st.sampled_from(keys), unique=True))
        records.append({k: draw(literals if k in literal else strings) for k in chosen})
    return records, literal


@given(_json_records())
@example(([{"s": "", "q": '"\\é\n\x00', "i": -7, "t": True, "f": False, "z": None}],
          {"i", "t", "f", "z"})).via("every kind of cell")
@example(([{"expr": "pi", "quotients": [3, 7]}, {"quotients": []}, {}], {"quotients"}))
@example(([], set())).via("an empty list")
def test_json_writer_matches_json_dumps(case):
    from epilab.cli import _json, _json_list

    records, literal = case
    cells = [{k: v if k not in literal else _literal_cell(v) for k, v in r.items()}
             for r in records]
    assert "".join(_json_list(cells, literal)) == json.dumps(records, indent=2)
    pairs = (list(r.items()) for r in cells)
    assert "".join(_json_list(pairs, literal)) == json.dumps(records, indent=2)
    for record, typed in zip(cells, records):
        assert _json(record, literal) == json.dumps(typed, indent=2)


@pytest.mark.parametrize("argv", [
    "",  # no command
    "bogus",  # an unknown command
    "compute pi --bogus",  # an unknown option
    "compute pi --digits",  # a missing value
    "compute pi --method --digits 5",  # an option where the value belongs
    "compute pi --digits x",  # a bad int
    "compute pi --format xml",  # a bad choice
    "compute tau",  # a bad choice of positional
    "cfrac --terms 3",  # a missing positional
    "compute pi e",  # an extra positional
    "stirling --n 2",  # stirling without --op
    "compute pi --quiet=yes",  # a value given to a flag
], ids=repr)
def test_usage_errors_exit_two_with_one_error_line(capsys, argv):
    rc, out, err = run(capsys, *argv.split())
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith("\n")


@pytest.mark.parametrize("command", [None, *build_parser()])
@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_names_every_argument(capsys, command, flag):
    table = build_parser()
    # help wins wherever it stands among the command's arguments
    argv = [flag] if command is None else [command, "--format", "json", flag]
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    named = table if command is None else table[command][2]
    assert [n for n in named if not re.search(rf"^  {re.escape(n)}\b", out, re.M)] == []


def test_compute_takes_a_series_length_as_a_count_alone(capsys):
    rc, out, _ = run(capsys, "compute", "--help")
    terms = [line for line in out.splitlines() if line.startswith("  --terms")]
    assert rc == 0 and len(terms) == 1
    assert terms[0].startswith("  --terms N ") and terms[0].endswith("; >= 1")
    assert "--max-terms" not in out and "auto" not in out


#: what argparse read from `compute pi --digits 5`
_COMPUTE_PI_5 = {"command": "compute", "constant": "pi", "method": "oracle", "terms": None,
                 "format": "text", "quiet": False, "digits": 5}


@pytest.mark.parametrize("argv, changed", [
    ("compute pi --digits 5", {}),
    ("compute pi --digits=5", {}),
    ("compute pi --dig 5", {}),  # a unique prefix
    ("compute pi --di=5", {}),
    ("compute --digits 5 pi", {}),  # an option before the positional
    ("compute pi --digits 9 --digits 5", {}),  # the last of a repeated option wins
    ("compute --digits 5 -- pi", {}),  # -- before positionals
    ("compute pi --digits +5", {}),  # what int() takes
    ("compute pi --digits 5 --qu --quiet", {"quiet": True}),
    ("compute e --method=e-factorial --terms ٣ --digits 5",
     {"constant": "e", "method": "e-factorial", "terms": 3}),  # in Arabic-Indic digits
], ids=repr)
def test_accepted_forms_parse_as_argparse_read_them(argv, changed):
    args = vars(parse_args(argv.split()))
    assert args.pop("func").__name__ == "cmd_compute"
    assert args == {**_COMPUTE_PI_5, **changed}


@pytest.mark.parametrize("argv, expected", [
    ("stirling --op approx --n -20 --k -1", {"op": "approx", "n": -20, "k": -1, "scale": None}),
    ("scan --threshold -0.5 --al", {"threshold": "-0.5", "all_rows": True, "max": 10}),
    ("verify --digits 8 R03 --al", {"id": "R03", "all": True, "digits": 8}),
    ("verify", {"id": None, "all": False, "digits": 30}),  # the id is optional
    ("cfrac -- -pi", {"expr": "-pi", "terms": 7}),
    ("table zeta8 --checkpoints=10,100", {"series": "zeta8", "checkpoints": "10,100"}),
    ("stirling --op approx --n -٢٠ --k -١", {"op": "approx", "n": -20, "k": -1}),
    ("scan --threshold -.٥", {"threshold": "-.٥"}),
])
def test_values_of_each_kind(argv, expected):
    args = vars(parse_args(argv.split()))
    assert {k: args[k] for k in expected} == expected


@given(st.text(alphabet="-.09٣١x", max_size=6).map("-".__add__))
@example("-٣")
@example("-.٣")
@example("-٣.")
@example("-1.2.3")
@example("-.")
def test_a_negative_number_is_a_value_as_argparse_read_it(word):
    # argparse told a value from an option with re: -\d+ or -\d*\.\d+, where
    # \d is any Unicode decimal digit
    names = {"--digits": None}
    if re.fullmatch(r"-\d+|-\d*\.\d+", word):
        assert _option(word, names) == ""
    elif word != "-":
        with contextlib.suppress(ValueError):  # an unknown or ambiguous option
            assert _option(word, names) != ""


def test_an_ambiguous_prefix_names_every_option_it_starts():
    # no command has two options that share a prefix, so the table is
    # stood in for by names that do
    names = {"--method": None, "--max-terms": None}
    with pytest.raises(ValueError, match="^ambiguous option --m: --method, --max-terms$"):
        _option("--m", names)
    assert _option("--me=oracle", names) == "--method"
    assert _option("--max", names) == "--max-terms"


#: values for the arguments the table types as str: valid, edge and bad
_STR_VALUES = {
    "--method": ["oracle", *builtin_names(), "basel"],
    "series": [*builtin_names(), "basel"],
    "--checkpoints": ["10", "1,5,20", "20,3", "0", ",", "abc", "20000"],
    "id": ["R01", "R05", "R20", "R99"],
    "expr": ["pi", "exp(pi) - pi", "root(3, 0-8)", "root(2, 0-pi)", "1/(1 - 1)", "exp(101)",
             "1 +", "-pi"],
    "--threshold": ["0.06", "1/2", "-1", "0", "1/0", "abc"],
}


@st.composite
def _argv(draw):
    """A command, some of its arguments in any order, and their values drawn
    from the option table: ints from one below the floor (or 0) to three
    above it, each choice and one more, flags, and now and then a value of
    the wrong kind.  The ranges keep every example well under a second:
    gregory-leibniz sums about 10**d terms for d digits."""
    table = build_parser()
    command = draw(st.sampled_from(sorted(table)))
    words = []
    for name, (kind, default, floor, _) in table[command][2].items():
        # a required argument is left out now and then, any other half the time
        if draw(st.integers(0, 9)) >= (9 if default is ... else 5):
            continue
        if kind is bool:
            words.append([name])
            continue
        low = 0 if floor is None else floor
        value = draw(st.sampled_from(["x", "", "1.5"]) if draw(st.integers(0, 9)) == 0 else
                     st.integers(low - 1, low + 3).map(str) if kind is int else
                     st.sampled_from([*kind, "nope"]) if isinstance(kind, tuple) else
                     st.sampled_from(_STR_VALUES[name]))
        if name[0] != "-":
            words.append([value])
        else:
            words.append([f"{name}={value}"] if draw(st.booleans()) else [name, value])
    words = draw(st.permutations(words))
    return [command, *(w for word in words for w in word)]


def _output_parses(fmt, out):
    if fmt == "json":
        json.loads(out)
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert rows and all(len(row) == len(rows[0]) for row in rows)
    else:  # text: lines, with no trailing spaces
        assert out.endswith("\n") and all(line == line.rstrip() for line in out.splitlines())


@settings(max_examples=150, deadline=None)
@given(_argv())
@example(["verify", "--digits", "5"]).via("below verify's floor")
@example(["compare", "--rows=0"]).via("a floor the library also checks")
@example(["cfrac", "-pi"]).via("a word argparse read as an unknown option")
def test_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)  # any exception escaping main fails the test
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 1, 2)
    if rc:
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        # verify alone prints its report before the line that names the
        # relations it could not certify
        assert out == "" or argv[0] == "verify" and err.startswith("error: not certified:")
    else:
        assert err == ""
        _output_parses(parse_args(argv).format, out)
