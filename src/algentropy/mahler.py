"""Certified logarithmic Mahler measure of integer polynomials.

The measure of P = s*X^N + ... is log|s| plus the log-moduli of the roots
outside the unit circle.  The delicate part is deciding which roots are
outside.  Protocol:

1. powers of X are removed, and the rest is split into a *candidate*
   factor (the primitive gcd with its own reciprocal, which carries every
   unit-modulus root) and a *cofactor* whose roots are provably off the
   circle;
2. cyclotomic factors are removed from the candidate by exact division, so
   roots of unity contribute zero with an exact certificate (a root of unity
   has the same multiplicity in P and in its reciprocal, so the candidate
   holds all of them);
3. cofactor roots are refined with precision doubling (64 up to a 4096-bit
   cap) until their discs separate from the unit circle (decided exactly);
4. candidate roots that keep straddling 1 once their interval is tighter
   than tolerance/(2*deg) are assumed to lie on the circle, contribute
   zero, and are flagged; they make the result uncertified but never shift
   the value by more than the tolerance.  Any root still straddling at the
   precision cap is treated the same way, so the value is always reported
   and the uncertainty is surfaced, never silent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .numtheory import totients
from .ratpoly import IntPoly, InvariantError, cyclotomic, poly_gcd
from .roots import ComplexRootSet, RootInterval, _sorted_roots, climb, to_interval

_PRECISION_CAP = 4096


def split_unit_circle(P: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Split P into (candidate, cofactor), both primitive with positive lead.

    Every unit-modulus root of P is a root of the candidate factor
    gcd(P, reciprocal(P)) -- a root with |z| = 1 satisfies conj(z) = 1/z, so
    it is shared with the reciprocal.  The cofactor has no unit roots.
    """
    if P.coeffs[0] == 0:
        raise ValueError("constant term must be nonzero (factor out X first)")
    g = poly_gcd(P, P.reciprocal())
    cofactor = P.primitive_part().divide(g)
    if cofactor is None:
        raise InvariantError(f"gcd {g} of P and its reciprocal does not divide P = {P}")
    return g, cofactor


@functools.cache
def _cyclotomic_indices(degree: int) -> tuple[int, ...]:
    """Every n with totient(n) <= degree, ascending: the Phi_n of degree <= degree."""
    # totient(n) >= sqrt(n/2), so totient(n) <= degree forces n <= 2*degree^2
    tot = totients(2 * degree * degree + 2)
    return tuple(n for n in range(1, len(tot)) if tot[n] <= degree)


def extract_cyclotomic(P: IntPoly) -> tuple[dict[int, int], IntPoly]:
    """Divide out all cyclotomic factors exactly: returns ({n: mult}, rest)."""
    rest = P
    factors: dict[int, int] = {}
    for n in _cyclotomic_indices(P.degree):
        phi = cyclotomic(n)
        while phi.degree <= rest.degree:
            q = rest.divide(phi)
            if q is None:
                break
            factors[n] = factors.get(n, 0) + 1
            rest = q
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
    out = []
    for n, mult in sorted(factors.items()):
        for j in range(1, n + 1):
            if math.gcd(j, n) != 1:
                continue
            theta = 2 * math.pi * j / n
            out.append(RootInterval(math.cos(theta), math.sin(theta), 1.0, 1.0, mult))
    return out


@dataclass(frozen=True)
class MahlerResult:
    value: float
    certified: bool
    archimedean: float
    log_lead: float
    roots: ComplexRootSet
    assumed_roots: int
    # every nonzero root is a root of unity: the candidate factor is all
    # cyclotomic and the cofactor is constant
    roots_of_unity_only: bool


def mahler_measure(
    P: IntPoly,
    tolerance: float = 1e-12,
    precision: int = 64,
    max_precision: int = _PRECISION_CAP,
) -> MahlerResult:
    """Logarithmic Mahler measure of a nonzero polynomial of degree >= 1."""
    if P.is_zero:
        raise ValueError("zero polynomial")
    if P.degree < 1:
        raise ValueError("polynomial must have degree >= 1")
    log_lead = math.log(abs(P.lead))
    stripped, k = P.strip_x()
    intervals: list[RootInterval] = []
    if k:
        intervals.append(RootInterval(0.0, 0.0, 0.0, 0.0, multiplicity=k))
    candidate, cofactor = split_unit_circle(stripped)
    cyclo, candidate = extract_cyclotomic(candidate)
    intervals.extend(_cyclotomic_intervals(cyclo))
    # one precision ladder over the candidate/cofactor split
    assess = functools.partial(_assess, assume_cap=tolerance / (2 * P.degree), tolerance=tolerance)
    arch, assumed, numeric = climb([candidate, cofactor], max(64, precision), max_precision, assess)
    intervals.extend(numeric)

    result_roots = ComplexRootSet(tuple(intervals))
    if result_roots.total_multiplicity != P.degree:
        raise InvariantError(f"{result_roots.total_multiplicity} roots for degree {P.degree}")
    return MahlerResult(
        value=log_lead + arch,
        certified=(assumed == 0),
        archimedean=arch,
        log_lead=log_lead,
        roots=result_roots,
        assumed_roots=assumed,
        roots_of_unity_only=candidate.degree == 0 and cofactor.degree == 0,
    )


def _assess(root_lists, at_cap, assume_cap, tolerance):
    """Decide whether the current discs settle the measure.

    Returns (arch, assumed, intervals) when every root is classified and the
    total log-width of the outside contributions is within tolerance; None
    when another ladder rung is needed.  Which side of the unit circle a
    disc lies on is decided exactly; a root outside contributes the log of
    its centre, and its log-width log(hi/lo) is bounded by (hi - lo)/lo.
    """
    cand_roots, cof_roots = root_lists
    outside, assumed, plain = [], [], []
    for roots, candidate in ((cof_roots, False), (cand_roots, True)):
        for root in roots:
            side = root.side()
            if side == 0 and not at_cap:
                # log(hi) <= hi - 1: a candidate root this tight is assumed on the circle
                one = 1 << root.k
                if not (candidate and (root.mod_bounds()[1] - one) / one <= assume_cap):
                    return None
            (assumed if side == 0 else outside if side > 0 else plain).append(root)
    width = total = 0.0
    for root in outside:
        lo, hi = root.mod_bounds()
        width += root.multiplicity * (hi - lo) / lo
        total += root.multiplicity * root.log_modulus()
    if width > tolerance / 2 and not at_cap:
        return None
    intervals = [to_interval(r) for r in _sorted_roots(plain + outside)]
    intervals += [to_interval(r, assumed=True) for r in _sorted_roots(assumed)]
    return total, sum(r.multiplicity for r in assumed), intervals
