"""Algebraic entropy of endomorphisms of Q^N with per-place decomposition.

One core, `polynomial_entropy`, serves matrix and polynomial input: a
matrix enters through its cleared characteristic polynomial.  The total is
(archimedean part from certified complex roots) + (finite part log s, s the
primitive polynomial's lead): exact integer arithmetic gives the contribution
vp(s) * log p of each prime p dividing s, from one `factorize(s)`.
The only floating point in the headline number is the archimedean sum and
the final log multiplications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linalg import RationalMatrix, char_poly
from .mahler import DEFAULT_TOLERANCE, is_cyclotomic_product, mahler_measure
from .numtheory import factorize
from .ratpoly import IntPoly, InvariantError
from .roots import RootInterval


@dataclass(frozen=True)
class EntropyReport:
    total: float
    log_s: float
    archimedean: float
    finite_places: tuple[tuple[int, int, float], ...]  # (p, vp(s), contribution)
    char_poly_primitive: IntPoly
    s: int
    roots: tuple[RootInterval, ...]
    zero_entropy_exact: bool


def algebraic_entropy(M: RationalMatrix, tolerance: float = DEFAULT_TOLERANCE) -> EntropyReport:
    """Entropy report for a rational matrix: total, places, certification."""
    return polynomial_entropy(char_poly(M), tolerance=tolerance)


def polynomial_entropy(P: IntPoly, tolerance: float = DEFAULT_TOLERANCE) -> EntropyReport:
    """Entropy report for a nonzero integer polynomial, taken as its
    primitive part: s times the monic polynomial, s its positive lead."""
    if P.is_zero:
        raise ValueError("zero polynomial")
    P = P.primitive_part()
    s = P.lead
    # vp(s) is P's Newton-polygon mass at p, a theorem (`NewtonPolygon.positive_mass`)
    finite = tuple((p, v, v * math.log(p)) for p, v in factorize(s).items())
    measured = mahler_measure(P, tolerance=tolerance)
    total = measured.archimedean + sum(c for *_, c in finite)
    # redundant cross-check against the all-floating-point route
    if abs(total - measured.value) > 1e-9 * max(1.0, abs(total)):
        raise InvariantError(f"place sum {total} != Mahler measure {measured.value}")
    return EntropyReport(
        total=total,
        log_s=math.log(s),
        archimedean=measured.archimedean,
        finite_places=finite,
        char_poly_primitive=P,
        s=s,
        roots=measured.roots,
        # s = 1 makes P monic, so it is a cyclotomic product times a power
        # of X exactly when all its nonzero roots are roots of unity
        zero_entropy_exact=(s == 1 and measured.roots_of_unity_only),
    )


def is_zero_entropy(M: RationalMatrix) -> bool:
    """Exact zero-entropy decision, no floating point.

    True iff the primitive characteristic polynomial is monic (s = 1) and a
    product of cyclotomic polynomials times a power of X.
    """
    P = char_poly(M)
    return P.lead == 1 and is_cyclotomic_product(P)
