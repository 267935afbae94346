"""epilab: certified arithmetic around the numerical coincidences of e and pi.

Exact rationals and decimal fixed point only; every approximate value
carries a proven error bound, from the series engines through the
coincidence registry to the continued-fraction expander.
"""

from .bignum import (
    BigFixed,
    Surd,
    floor_neg_log10,
    ilog10_floor,
    iroot,
    root_interval,
    sqrt_interval,
    surd_eval,
)
from .oracle import (
    CONSTANTS,
    ExpRangeError,
    OracleValue,
    constant_reference,
    e_interval,
    exp_interval,
    pi_interval,
)
from .series import (
    DEFAULT_MAX_TERMS,
    E_FACTORIAL,
    GREGORY_LEIBNIZ,
    LAMBDA6,
    NILAKANTHA,
    NILAKANTHA_PAIRED,
    ZETA8,
    BoundViolation,
    ConvergenceRow,
    InfeasibleRequest,
    SeriesSpec,
    SumResult,
    builtin,
    builtin_names,
    convergence_table,
    partial_sum,
    scale_series,
    terms_needed,
)
from .accel import (
    CompareRow,
    compare_expansions,
    e_regrouped,
    gl_regroup_term,
    nilakantha_doubled,
    pair_transform,
    paired_term_identity,
)
from .stirling import (
    STIRLING_COEFFS,
    E8Decomposition,
    double_factorial,
    e_from_ratio,
    e_half_integer,
    e_power_approx,
    stirling_e8_decomposition,
    stirling_factor,
)
from .expr import (
    Add,
    ConstE,
    ConstPi,
    Div,
    EvalDomainError,
    EvalResult,
    Exp,
    Expr,
    IntLit,
    Mul,
    ParseError,
    PowInt,
    PrecisionCapError,
    RatLit,
    Root,
    Sqrt,
    Sub,
    eval_expr,
    eval_interval,
    parse,
    to_text,
)
from .registry import (
    REGISTRY,
    Relation,
    VerificationFailure,
    VerificationReport,
    digits_of_agreement,
    get_relation,
    relation_ids,
    verify,
    verify_all,
)
from .derive import (
    ScanRow,
    binomial_linearize,
    cfrac,
    linear_combo_scan,
    linearize_error_bound,
    solve_linear_2x2,
    solve_pi_quadratic,
)

__version__ = "0.1.0"
