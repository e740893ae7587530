"""cyclolab: exact-arithmetic laboratory for cyclotomic polynomial values.

Certified root scans for differences of cyclotomic polynomials, value
envelope verification, two total orderings of the positive integers,
primitive prime divisors, and the near-miss constructions that push
coincidence roots toward 2.
"""
from .arith import (
    ArithProfile,
    Factorization,
    divisors,
    factorize,
    inverse_phi,
    is_prime,
    moebius,
    phi_prime_power_primes,
    profile,
)
from .certified import BigFloat
from .polycore import (
    IntPoly,
    cyclotomic,
    difference,
    eval_homogeneous_cyclotomic,
    eval_rational,
)
from .bounds import BoundReport, check_complex_bounds, check_real_bounds, f_ratio, g_value, lemma_tail_gap
from .ordering import (
    ConsecutiveCertificate,
    certify_consecutive,
    check_3mod4_criterion,
    compare_large,
    compare_small,
    gap,
    ordered_prefix,
    phi_class_sorted,
)
from .roots import (
    CoincidenceRecord,
    IsolatingInterval,
    RootRecord,
    isolate_real_roots,
    real_coincidence_roots,
    refine_root,
    sturm_count,
)
from .window import verify_root_window
from .complexroots import complex_roots, quarter_lift_check, scan_complex
from .nearmiss import (
    DeltaDecomposition,
    TripleRecord,
    alpha_root,
    delta_decompose,
    find_triples,
    limit_constants,
    limit_family_root,
    near_miss_root,
    perturbation_estimate,
    psi,
    reference_alpha,
    table1,
)
from .rationalcheck import (
    PpdResult,
    primitive_prime_divisor,
    verify_integer_coincidences,
    verify_rational_coincidences,
)

__version__ = "0.1.0"
