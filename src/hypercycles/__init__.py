"""Exact construction, recovery and certification of hyperelliptic limit
cycles of polynomial Lienard systems."""

from .polyx import Poly, parse_poly, poly_gcd, squarefree_part
from .rootclass import (
    RealRoot,
    RootCount,
    count_roots,
    discriminant_sequence,
    isolate_real_roots,
    sign_on_interval,
    sturm_count,
)
from .lienard import (
    CertificationReport,
    HyperellipticCurve,
    LienardSystem,
    NonPolynomialSystem,
    bounds,
    certify,
    derive_system,
    invariance_check,
)
from .recover import (
    DegenerateLeadingCoefficient,
    RecoveryOutcome,
    UndeterminedType,
    recover_curve,
)
from .families import (
    PatternNotAchieved,
    SearchExhausted,
    construct,
    construct_case_i,
    construct_case_ii,
    construct_high_n,
    construct_n_2m,
    lift,
    perturb_lemma7,
    perturb_lemma8,
)

__all__ = [
    "Poly",
    "parse_poly",
    "poly_gcd",
    "squarefree_part",
    "RealRoot",
    "RootCount",
    "count_roots",
    "discriminant_sequence",
    "isolate_real_roots",
    "sign_on_interval",
    "sturm_count",
    "CertificationReport",
    "HyperellipticCurve",
    "LienardSystem",
    "NonPolynomialSystem",
    "bounds",
    "certify",
    "derive_system",
    "invariance_check",
    "DegenerateLeadingCoefficient",
    "RecoveryOutcome",
    "UndeterminedType",
    "recover_curve",
    "PatternNotAchieved",
    "SearchExhausted",
    "construct",
    "construct_case_i",
    "construct_case_ii",
    "construct_high_n",
    "construct_n_2m",
    "lift",
    "perturb_lemma7",
    "perturb_lemma8",
]
