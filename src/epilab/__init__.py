"""epilab: certified arithmetic around the numerical coincidences of e and pi.

Exact rationals and decimal fixed point only; every approximate value
carries a proven error bound, from the series engines through the
coincidence registry to the continued-fraction expander.

Importing the package imports none of its modules: each public name (and
each module, as an attribute) is resolved on first access through the
table below, so a CLI command loads only the modules it runs.
"""

from importlib import import_module as _import_module

#: every public name, by the module that defines it
_EXPORTS = {
    "bignum": "BigFixed Surd ilog10_floor iroot root_interval",
    "oracle": "CONSTANTS ExpRangeError constant_reference e_interval exp_interval pi_interval",
    "series": "DEFAULT_MAX_TERMS E_FACTORIAL GREGORY_LEIBNIZ LAMBDA6 NILAKANTHA "
              "NILAKANTHA_PAIRED ZETA8 BoundViolation ConvergenceRow InfeasibleRequest "
              "SeriesSpec SumResult builtin builtin_names convergence_table partial_sum "
              "scale_series terms_needed",
    "accel": "CompareRow compare_expansions e_regrouped gl_regroup_term nilakantha_doubled "
             "pair_transform paired_term_identity",
    "stirling": "STIRLING_COEFFS E8Decomposition double_factorial e_from_ratio e_half_integer "
                "e_power_approx stirling_e8_decomposition stirling_factor",
    "expr": "Add ConstE ConstPi Div EvalDomainError Exp Expr IntLit Mul ParseError PowInt "
            "PrecisionCapError Root Sqrt Sub cfrac eval_expr eval_interval parse to_text",
    "registry": "REGISTRY Relation VerificationFailure VerificationReport digits_of_agreement "
                "get_relation relation_ids verify verify_all",
    "derive": "binomial_linearize linearize_error_bound scan_units solve_linear_2x2 "
              "solve_pi_quadratic",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# a star import resolves these through __getattr__, and so loads every module
__all__ = [*_EXPORTS, *_MODULE_OF]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
