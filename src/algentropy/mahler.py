"""Certified logarithmic Mahler measure of integer polynomials.

The measure of P = s*X^N + ... is log|s| plus the log-moduli of the roots
outside the unit circle.  The delicate part is deciding which roots are
outside.  Protocol:

1. powers of X and cyclotomic factors are removed by exact division first,
   so roots of unity contribute zero with an exact certificate;
2. the remainder is split into a *candidate* factor (the primitive gcd with
   its own reciprocal, which carries every unit-modulus root) and a
   *cofactor* whose roots are provably off the circle;
3. cofactor roots are refined with precision doubling (64 up to a 4096-bit
   cap) until their modulus intervals separate from 1;
4. candidate roots that keep straddling 1 once their interval is tighter
   than tolerance/(2*deg) are assumed to lie on the circle, contribute
   zero, and are flagged; they make the result uncertified but never shift
   the value by more than the tolerance.  Any root still straddling at the
   precision cap is treated the same way, so the value is always reported
   and the uncertainty is surfaced, never silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf

from .numtheory import totient
from .ratpoly import IntPoly, InvariantError, clear_denominators, cyclotomic, poly_gcd
from .roots import ComplexRootSet, RootInterval, _CertRoot, _sorted_roots, climb, to_interval

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
    if g.degree == 0:
        return IntPoly([1]), P.primitive_part()
    cofactor, r = P.to_rational().divmod(g)
    if not r.is_zero:
        raise InvariantError(f"gcd {g} of P and its reciprocal does not divide P = {P}")
    return clear_denominators(g), clear_denominators(cofactor)


def _cyclotomic_index_bound(degree: int) -> int:
    # totient(n) >= sqrt(n/2), so totient(n) <= degree forces n <= 2*degree^2
    return 2 * degree * degree + 2


def extract_cyclotomic(P: IntPoly) -> tuple[dict[int, int], IntPoly]:
    """Divide out all cyclotomic factors exactly: returns ({n: mult}, rest)."""
    rest = P
    factors: dict[int, int] = {}
    n = 1
    while rest.degree >= 1 and n <= _cyclotomic_index_bound(rest.degree):
        if totient(n) <= rest.degree:
            phi = cyclotomic(n)
            while True:
                q, r = rest.divmod_monic(phi)
                if not r.is_zero:
                    break
                factors[n] = factors.get(n, 0) + 1
                rest = q
        n += 1
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
            out.append(
                RootInterval(
                    re=math.cos(theta),
                    im=math.sin(theta),
                    mod_lo=1.0,
                    mod_hi=1.0,
                    multiplicity=mult,
                )
            )
    return out


@dataclass(frozen=True)
class MahlerResult:
    value: float
    certified: bool
    archimedean: float
    log_lead: float
    roots: ComplexRootSet
    assumed_roots: int


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
    base = stripped.primitive_part()
    cyclo, rest = extract_cyclotomic(base)
    intervals.extend(_cyclotomic_intervals(cyclo))

    arch = 0.0
    assumed = 0
    prec_used = precision
    if rest.degree >= 1:
        candidate, cofactor = split_unit_circle(rest)
        assume_cap = tolerance / (2.0 * P.degree)

        def settle(root_lists, prec, at_cap):
            status = _assess(*root_lists, assume_cap, tolerance, at_cap=at_cap)
            return None if status is None else (*status, prec)

        # one precision ladder over the candidate/cofactor split
        arch, assumed, numeric, prec_used = climb(
            [candidate, cofactor], max(64, precision), max_precision, settle
        )
        intervals.extend(numeric)

    result_roots = ComplexRootSet(tuple(intervals), working_precision=prec_used)
    if result_roots.total_multiplicity != P.degree:
        raise InvariantError(f"{result_roots.total_multiplicity} roots for degree {P.degree}")
    return MahlerResult(
        value=log_lead + arch,
        certified=(assumed == 0),
        archimedean=arch,
        log_lead=log_lead,
        roots=result_roots,
        assumed_roots=assumed,
    )


def _assess(cand_roots, cof_roots, assume_cap, tolerance, at_cap=False):
    """Decide whether the current intervals settle the measure.

    Returns (arch, assumed, intervals) when every root is classified and the
    total interval width of the outside contributions is within tolerance;
    None when another ladder rung is needed.
    """
    outside: list[_CertRoot] = []
    assumed: list[_CertRoot] = []
    plain: list[_CertRoot] = []
    for root in cof_roots:
        lo, hi = root.mod_bounds()
        if lo <= 1 <= hi:
            if not at_cap:
                return None
            assumed.append(root)
        elif lo > 1:
            outside.append(root)
        else:
            plain.append(root)
    for root in cand_roots:
        lo, hi = root.mod_bounds()
        if lo <= 1 <= hi:
            if mp.log(hi) <= assume_cap or at_cap:
                assumed.append(root)
            else:
                return None
        elif lo > 1:
            outside.append(root)
        else:
            plain.append(root)
    width = mpf(0)
    total = mpf(0)
    for root in outside:
        lo, hi = root.mod_bounds()
        llo, lhi = mp.log(lo), mp.log(hi)
        width += root.multiplicity * (lhi - llo)
        total += root.multiplicity * (llo + lhi) / 2
    if width > tolerance / 2 and not at_cap:
        return None
    intervals = [to_interval(r) for r in _sorted_roots(plain + outside)]
    intervals += [to_interval(r, assumed=True) for r in _sorted_roots(assumed)]
    return float(total), sum(r.multiplicity for r in assumed), intervals
