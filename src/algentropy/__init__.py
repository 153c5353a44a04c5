"""Exact algebraic entropy of rational-matrix dynamical systems.

The headline computation: for a rational N x N matrix, the entropy equals
the logarithmic Mahler measure of its integer characteristic polynomial,
and decomposes as an exact Newton-polygon contribution per prime dividing
the clearing integer plus an archimedean part from certified complex
roots.  An independent brute-force trajectory oracle enumerates the growth
of finite grids under the matrix action and cross-checks the formula and
the polynomial/exponential growth dichotomy at desk scale.
"""

from .entropy import (
    EntropyReport,
    algebraic_entropy,
    is_zero_entropy,
    polynomial_entropy,
)
from .linalg import (
    RationalMatrix,
    SingularMatrixError,
    block_diag,
    char_poly,
    companion,
    inverse,
)
from .mahler import (
    MahlerResult,
    extract_cyclotomic,
    is_cyclotomic_product,
    mahler_measure,
    split_unit_circle,
)
from .padic import (
    NewtonPolygon,
    PlaceIdentityReport,
    Segment,
    newton_polygon,
    verify_place_identity,
)
from .ratpoly import (
    IntPoly,
    InvariantError,
    cyclotomic,
    parse_rational,
    poly_gcd,
    primitivize,
    squarefree_decomposition,
)
from .roots import CertificationError, RootInterval
from .trajectory import (
    DEFAULT_BUDGET,
    BernoulliRun,
    GrowthAssessment,
    TrajectoryRun,
    admissible_m,
    bernoulli_counts,
    classify_growth,
    prime_support,
    trajectory_counts,
)

__version__ = "0.1.0"
