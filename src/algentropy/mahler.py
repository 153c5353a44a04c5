"""Certified logarithmic Mahler measure of integer polynomials.

The measure of P = s*X^N + ... is log|s| plus the log-moduli of the roots
outside the unit circle.  The delicate part is the roots on or near the
circle.  Protocol:

1. powers of X are removed, and the rest is split into a *candidate*
   factor, which carries every unit-modulus root, and a coprime *cofactor*
   whose roots are provably off the circle;
2. cyclotomic factors are removed from the candidate by exact division, so
   roots of unity contribute zero with an exact certificate (a root of unity
   has the same multiplicity in P and in its reciprocal, so the candidate
   holds all of them);
3. Yun once per factor, then the ladder: the square-free pieces' roots are
   refined on `roots.climb` (64 bits first, up to a 4096-bit cap), and each
   disc's side of the unit circle is decided exactly;
4. one proven error budget, which `climb` applies itself, settles the
   measure.  With lo <= |z| <= hi the disc's modulus bounds, a disc outside
   the circle adds log|centre|, off by at most log(hi/lo) <= (hi - lo)/lo; a
   disc meeting the circle adds 0, as log+|z| lies in [0, log hi] and
   log hi <= hi - 1; a disc inside adds 0.  A rung settles once the widths
   sum to at most tolerance/2, so no root is ever assumed to lie on the
   circle; at the cap, climb raises CertificationError with the roots that
   did certify.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .numtheory import primes
from .ratpoly import IntPoly, InvariantError, cyclotomic, poly_gcd, squarefree_decomposition
from .roots import RootInterval, climb

DEFAULT_TOLERANCE = 1e-12


def split_unit_circle(P: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Split P into coprime (candidate, cofactor), both primitive with positive lead.

    A root with |z| = 1 satisfies conj(z) = 1/z, so it is a root of g = gcd(P,
    reciprocal(P)).  A root more frequent in P than its mirror is left in P/g
    too, so while h = gcd(cofactor, g) is not constant, h moves to g.  The
    cofactor has no unit roots, and the candidate's radical is reciprocal.
    """
    if P.coeffs[0] == 0:
        raise ValueError("constant term must be nonzero (factor out X first)")
    g = h = poly_gcd(P, P.reciprocal())
    cofactor = P.primitive_part()
    while h.degree > 0:
        cofactor = cofactor.divide(h)
        if cofactor is None:
            raise InvariantError(f"gcd {h} does not divide the cofactor of P = {P}")
        h = poly_gcd(cofactor, g)
        g = g * h
    return g, cofactor


# Phi_n(x) != 0 at these points for every n, and rest(x) is tracked at each
_TEST_POINTS = (2, 3)


@functools.cache
def _cyclotomics(degree: int) -> tuple[tuple[int, IntPoly, tuple[int, ...]], ...]:
    """(n, Phi_n, Phi_n at the test points) for every n with totient(n) <= degree, ascending.

    Each such n is a product of prime powers p^e with p <= degree + 1, as
    totient(p^e) = (p - 1) p^(e - 1) >= p - 1; they are built one prime at a time.
    """
    found = [(1, 1)] if degree > 0 else []  # (n, totient(n))
    for p in primes(degree + 1):
        for n, phi in found[:]:  # the n found so far have no prime factor >= p
            q, phi_q = p, p - 1
            while phi * phi_q <= degree:
                found.append((n * q, phi * phi_q))
                q, phi_q = q * p, phi_q * p
    return tuple((n, *_cyclotomic_at(n)) for n, _ in sorted(found))


@functools.cache
def _cyclotomic_at(n: int) -> tuple[IntPoly, tuple[int, ...]]:
    """Phi_n and its values at the test points, evaluated once per process:
    the table of every degree shares them."""
    phi = cyclotomic(n)
    return phi, tuple(phi.evaluate(x) for x in _TEST_POINTS)


def extract_cyclotomic(P: IntPoly) -> tuple[dict[int, int], IntPoly]:
    """Divide out all cyclotomic factors exactly: returns ({n: mult}, rest).

    Phi_n | rest in Z[x] forces Phi_n(x) | rest(x) at every integer x, so a
    division is tried only when that holds at the test points 2 and 3, whose
    values of rest are tracked exactly across the divisions.  Phi_1 = X - 1
    divides rest exactly when rest(1) = 0, which is tested instead.
    """
    rest = P
    rest_at = [P.evaluate(x) for x in _TEST_POINTS]
    factors: dict[int, int] = {}
    for n, phi, phi_at in _cyclotomics(P.degree):
        while phi.degree <= rest.degree and (
            sum(rest.coeffs) == 0 if n == 1 else all(r % v == 0 for r, v in zip(rest_at, phi_at))
        ):
            q = rest.divide(phi)
            if q is None:
                break
            factors[n] = factors.get(n, 0) + 1
            rest, rest_at = q, [r // v for r, v in zip(rest_at, phi_at)]
    return factors, rest


def is_cyclotomic_product(P: IntPoly) -> bool:
    """Exactly decide whether P = +/- X^k * (product of cyclotomics)."""
    if P.is_zero:
        return False
    stripped, _ = P.strip_x()
    if abs(stripped.lead) != 1:
        return False
    if stripped.lead < 0:
        stripped = -stripped
    _, rest = extract_cyclotomic(stripped)
    return rest.coeffs == (1,)


def _cyclotomic_intervals(factors: dict[int, int]) -> list[RootInterval]:
    """The roots of unity, n ascending; each conjugate pair lists its lower
    member first, as `roots.climb` orders the other roots.  1 and -1 are exact, and the two
    members of a pair share one cos and sin of 2*pi*j/n, j < n/2, so they
    are exact conjugates."""
    out = []
    for n, mult in sorted(factors.items()):
        if n <= 2:
            out.append(RootInterval(1.0 if n == 1 else -1.0, 0.0, 1.0, 1.0, mult))
            continue
        for j in range(1, (n + 1) // 2):
            if math.gcd(j, n) == 1:
                theta = 2 * math.pi * j / n
                re, im = math.cos(theta), math.sin(theta)
                out.extend(RootInterval(re, s, 1.0, 1.0, mult) for s in (-im, im))
    return out


@dataclass(frozen=True)
class MahlerResult:
    value: float
    archimedean: float
    log_lead: float
    roots: tuple[RootInterval, ...]
    # every nonzero root is a root of unity: the candidate factor is all
    # cyclotomic and the cofactor is constant
    roots_of_unity_only: bool

    @property
    def assumed_roots(self) -> int:
        """Always 0: no root is assumed.  Kept only for the benchmark's tracer hook."""
        return 0


def mahler_measure(P: IntPoly, tolerance: float = DEFAULT_TOLERANCE) -> MahlerResult:
    """Logarithmic Mahler measure of a nonzero P within `tolerance`, log|c|
    for a constant c; its `roots` are every root of P with multiplicity."""
    if P.is_zero:
        raise ValueError("zero polynomial")
    log_lead = math.log(abs(P.lead))
    stripped, k = P.strip_x()
    zeros = [RootInterval(0.0, 0.0, 0.0, 0.0, multiplicity=k)] if k else []
    candidate, cofactor = split_unit_circle(stripped)
    cyclo, candidate = extract_cyclotomic(candidate)
    # one precision ladder over Yun's pieces of the split; the cofactor's roots are summed first
    pieces = squarefree_decomposition(cofactor) + squarefree_decomposition(candidate)
    arch, numeric = climb(pieces, tolerance)
    roots = (*zeros, *_cyclotomic_intervals(cyclo), *numeric)
    count = sum(r.multiplicity for r in roots)
    if count != P.degree:
        raise InvariantError(f"{count} roots for degree {P.degree}")
    return MahlerResult(
        value=log_lead + arch,
        archimedean=arch,
        log_lead=log_lead,
        roots=roots,
        roots_of_unity_only=candidate.degree == 0 and cofactor.degree == 0,
    )
