"""Catalog of e/pi numerical coincidences and the certified verifier.

Each Relation pairs a left-hand expression with the value it nearly
equals, either another expression (near_equal) or a claimed integer
(near_integer).  ``verify`` evaluates both sides with certified error
bounds and reports their values as computed, with no rounding for
print; a report is *certified* only when the combined evaluation error
is under a tenth of the residual, i.e. the gap is provably real rather
than rounding noise.

The ``paper_eq`` string is a catalog anchor carried through to reports;
``paper_quote`` is the value traditionally printed for that relation:
its right-hand side as text, or a decimal prefix of its left-hand side,
which tests/test_registry.py checks against the certified enclosure.

Known quirk, kept on purpose: R16 registers pi^6 against 960 even
though the nearest integer is 961 (pi^6 = 961.389...).  The claim comes
from the exact identity pi^6 = 960 * sum(1/(2n+1)^6); the verifier
reports the distance to the claimed integer as registered.
"""

from __future__ import annotations

from ._record import record
from .bignum import ilog10_floor
from .expr import Expr, eval_expr, parse
from .oracle import NoCertifiedResult

__all__ = [
    "NEAR_EQUAL",
    "NEAR_INTEGER",
    "Relation",
    "VerificationReport",
    "VerificationFailure",
    "REGISTRY",
    "relation_ids",
    "get_relation",
    "verify",
    "verify_all",
    "digits_of_agreement",
]

NEAR_EQUAL = "near_equal"
NEAR_INTEGER = "near_integer"
_KINDS = (NEAR_EQUAL, NEAR_INTEGER)


@record
class Relation:
    id: str
    lhs: Expr
    rhs: Expr
    kind: str
    paper_eq: str
    paper_quote: str
    min_digits: int = 6
    note: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if self.min_digits < 6:
            raise ValueError("min_digits must be >= 6")


@record
class VerificationReport:
    relation_id: str
    paper_eq: str
    kind: str
    lhs_units: int  # eval_expr's value, in units of 10**-(precision_used + 2), as is rhs_units
    rhs_units: int
    digits_of_agreement: int
    precision_used: int
    certified: bool


@record
class VerificationFailure:
    relation_id: str
    paper_eq: str
    error: str


def _rel(rid, lhs, rhs, kind, paper_eq, quote, **kw) -> Relation:
    return Relation(rid, parse(lhs), parse(rhs), kind, paper_eq, quote, **kw)


REGISTRY: tuple[Relation, ...] = (
    _rel("R01", "pi^2 / (4*e - 1)", "1", NEAR_EQUAL, "Eq. (1)", "0.9996"),
    _rel("R02", "163*(pi - e)", "69", NEAR_INTEGER, "Eq. (2)", "68.99966..."),
    _rel("R03", "(pi^4 + pi^5)/e^6", "1", NEAR_EQUAL, "Eq. (3)", "0.999999956..."),
    _rel("R04", "pi^9/e^8", "10", NEAR_INTEGER, "Eq. (4)", "9.9998..."),
    _rel("R05", "exp(pi) - pi", "20", NEAR_INTEGER, "Eq. (5)", "19.999..."),
    _rel("R06", "pi^2 * root(2, (pi - e)^3) / e", "1", NEAR_EQUAL, "Eq. (6)",
         "0.9999869..."),
    _rel("R07", "exp(pi * sqrt(163))", "640320^3 + 744", NEAR_INTEGER, "Eq. (7)",
         "262537412640768743.99999999999925...", min_digits=45),
    _rel("R08", "e + 2*pi", "9", NEAR_INTEGER, "Eq. (8)", "9.001..."),
    _rel("R09", "pi^2 + 8*pi", "35", NEAR_INTEGER, "Eq. (14)", "35"),
    _rel("R10", "sqrt(51) - 4", "pi", NEAR_EQUAL, "Eq. (15)", "3.1414..."),
    _rel("R11", "512/163", "pi", NEAR_EQUAL, "Eq. (17)", "3.1411..."),
    _rel("R12", "pi^2 + pi", "13", NEAR_INTEGER, "Eq. (22)", "13"),
    _rel("R13", "4*e + pi", "14", NEAR_INTEGER, "Eq. (24)", "14"),
    _rel("R14", "e^3", "20", NEAR_INTEGER, "Sec. 2", "20.08"),
    _rel("R15", "pi^3", "31", NEAR_INTEGER, "Sec. 2", "31"),
    _rel("R16", "pi^6", "960", NEAR_INTEGER, "Eq. (26)", "960",
         note="claimed integer is 960; the nearest integer is 961"),
    _rel("R17", "e^8", "96*pi^3", NEAR_EQUAL, "Eq. (27)", "96 pi^3"),
    _rel("R18", "exp(pi)", "20 + pi", NEAR_EQUAL, "Eq. (29)", "20 + pi"),
    _rel("R19", "27*pi^8*(pi - 3)^3/(pi^2*e)^2", "1", NEAR_EQUAL, "Eq. (30)", "1"),
    _rel("R20", "pi^2*e", "27", NEAR_INTEGER, "Sec. 2", "27"),
)

_BY_ID = {r.id: r for r in REGISTRY}
if len(_BY_ID) != len(REGISTRY):
    raise AssertionError("duplicate relation id in registry")


def relation_ids() -> list[str]:
    return [r.id for r in REGISTRY]


def get_relation(rid: str) -> Relation:
    try:
        return _BY_ID[rid]
    except KeyError:
        raise KeyError(f"unknown relation {rid!r}; known: {', '.join(_BY_ID)}") from None


def digits_of_agreement(a: int, b: int, *, cap: int | None = None) -> int:
    """floor(-log10(|a-b| / |b|)), clamped to >= 0, for integers a, b on one grid.

    When a == b exactly the relative error is 0 and the true agreement
    is unbounded; the declared cap (typically the working precision) is
    returned, so a cap must be supplied in that case.
    """
    if b == 0:
        raise ValueError("b must be nonzero")
    if a == b:
        if cap is None:
            raise ValueError("identical values: supply cap= to bound the result")
        return cap
    d = ilog10_floor(abs(b), abs(a - b))  # floor(-log10(x)) is floor(log10(1/x))
    if cap is not None:
        d = min(d, cap)
    return max(0, d)


def verify(relation: Relation, digits: int) -> VerificationReport:
    """Evaluate both sides and report them with certification.

    Precision is raised to the relation's min_digits when the request is
    lower.  The report carries each side's value as eval_expr computes
    it, unrounded, so the residual lhs_units - rhs_units is exact on
    that grid; the CLI alone rounds them for print.  For near_integer
    relations the rhs must evaluate to an exact integer and the residual
    is the distance from the lhs to that claimed integer.
    """
    if digits < 6:
        raise ValueError("digits must be >= 6")
    d = max(digits, relation.min_digits)
    # values in units of 10**-(d + 2), bounds in units of 10**-(d + 6)
    lhs, lhs_err = eval_expr(relation.lhs, d)
    rhs, rhs_err = eval_expr(relation.rhs, d)
    if rhs == 0:
        raise ValueError(f"{relation.id}: rhs evaluates to zero")
    if relation.kind == NEAR_INTEGER and rhs % 10 ** (d + 2):
        raise ValueError(f"{relation.id}: near_integer rhs is not an integer")
    return VerificationReport(
        relation_id=relation.id,
        paper_eq=relation.paper_eq,
        kind=relation.kind,
        lhs_units=lhs,
        rhs_units=rhs,
        digits_of_agreement=digits_of_agreement(lhs, rhs, cap=d),
        precision_used=d,
        certified=10 * (lhs_err + rhs_err) < abs(lhs - rhs) * 10**4,
    )


def verify_all(digits: int) -> list[VerificationReport | VerificationFailure]:
    """Verify every registered relation in registry order.

    A relation with no certified result (a NoCertifiedResult: a domain
    error, an exp argument out of range or the precision cap) contributes
    a VerificationFailure and the run continues; output order matches
    REGISTRY order.  Any other exception is a fault and propagates.
    """
    out: list[VerificationReport | VerificationFailure] = []
    for relation in REGISTRY:
        try:
            out.append(verify(relation, digits))
        except NoCertifiedResult as exc:
            out.append(VerificationFailure(relation.id, relation.paper_eq, str(exc)))
    return out
