"""Algebraic entropy of endomorphisms of Q^N with per-place decomposition.

One core, `polynomial_entropy`, serves matrix and polynomial input: a
matrix enters through its cleared characteristic polynomial.  The total is
(archimedean part from certified complex roots) + (finite part from Newton
polygons), where the finite side is exact integer arithmetic: the
contribution at a prime p dividing the clearing integer s is vp(s) * log p.
The only floating point in the headline number is the archimedean sum and
the final log multiplications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linalg import RationalMatrix, char_poly
from .mahler import is_cyclotomic_product, mahler_measure
from .padic import verify_place_identity
from .ratpoly import IntPoly, InvariantError
from .roots import ComplexRootSet

INFINITE_PLACE = math.inf


@dataclass(frozen=True)
class EntropyReport:
    total: float
    log_s: float
    archimedean: float
    finite_places: tuple[tuple[int, int, float], ...]  # (p, vp(s), contribution)
    char_poly_primitive: IntPoly
    s: int
    roots: ComplexRootSet | None
    zero_entropy_exact: bool

    @property
    def certified(self) -> bool:
        """Always True: an entropy that cannot be certified raises CertificationError."""
        return True

    def place_list(self) -> list[tuple[float, float]]:
        """[(place, contribution)] with math.inf marking the archimedean place."""
        places = [(float(p), c) for p, _, c in self.finite_places]
        places.append((INFINITE_PLACE, self.archimedean))
        return places


def algebraic_entropy(
    M: RationalMatrix, tolerance: float = 1e-12, precision: int = 64
) -> EntropyReport:
    """Entropy report for a rational matrix: total, places, certification."""
    if M.n == 0:
        return EntropyReport(
            total=0.0,
            log_s=0.0,
            archimedean=0.0,
            finite_places=(),
            char_poly_primitive=IntPoly([1]),
            s=1,
            roots=None,
            zero_entropy_exact=True,
        )
    return polynomial_entropy(char_poly(M), tolerance=tolerance, precision=precision)


def polynomial_entropy(
    P: IntPoly, tolerance: float = 1e-12, precision: int = 64
) -> EntropyReport:
    """Entropy report for an integer polynomial of degree >= 1, taken as
    its primitive part: s times the monic polynomial, s its positive lead."""
    if P.degree < 1:
        raise ValueError("polynomial must have degree >= 1")
    P = P.primitive_part()
    identity = verify_place_identity(P)
    if not identity.all_ok:
        raise InvariantError(f"Newton polygon masses do not match v_p(s) for {P}")
    finite = tuple((p, v, v * math.log(p)) for p, v, *_ in identity.per_prime)
    measured = mahler_measure(P, tolerance=tolerance, precision=precision)
    total = measured.archimedean + sum(c for *_, c in finite)
    # redundant cross-check against the all-floating-point route
    if abs(total - measured.value) > 1e-9 * max(1.0, abs(total)):
        raise InvariantError(f"place sum {total} != Mahler measure {measured.value}")
    s = identity.s
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
