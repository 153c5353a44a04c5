"""Certified complex roots of integer polynomials.

The engine is Aberth-Ehrlich simultaneous iteration, started
deterministically (no RNG) on a circle of radius given by the Fujiwara
coefficient bound.  Float first, as in MPSolve: without a warm start the
iteration runs in numpy complex128 (vectorised Jacobi sweeps), and mpmath
arbitrary precision only polishes the converged iterate, in a couple of
sweeps.  When the float run is unusable -- a coefficient or an evaluation
that overflows a double, no convergence, coinciding iterates -- the mpmath
iteration starts from the circle itself.  After convergence each
approximation z gets an a-posteriori inclusion radius from the classical
bound

    min_i |z - root_i|  <=  deg * |P(z) / P'(z)|,

inflated slightly to absorb evaluation rounding at the working precision.
When the discs are pairwise disjoint, each contains exactly one root of the
(square-free) polynomial, so the modulus of the true root lies in
[|z| - r, |z| + r].  These radii, computed in mpmath, are the only
certificate: a float iterate is never trusted by itself.  Multiple roots
are peeled off beforehand by Yun's square-free decomposition, which is
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp, mpc, mpf

from .ratpoly import IntPoly, InvariantError, squarefree_decomposition


class CertificationError(ArithmeticError):
    """Raised when roots cannot be certified within the precision cap."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class RootInterval:
    """One root: float summary of center, certified modulus interval."""

    re: float
    im: float
    mod_lo: float
    mod_hi: float
    multiplicity: int
    on_circle_assumed: bool = False


@dataclass(frozen=True)
class ComplexRootSet:
    roots: tuple[RootInterval, ...]
    working_precision: int

    @property
    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)


@dataclass(frozen=True)
class _CertRoot:
    """Internal high-precision record: center z, radius r, multiplicity."""

    z: mpc
    r: mpf
    multiplicity: int

    def mod_bounds(self) -> tuple[mpf, mpf]:
        m = abs(self.z)
        lo = m - self.r
        if lo < 0:
            lo = mpf(0)
        return lo, m + self.r


def _horner2(coeffs, z):
    """Evaluate P and P' at z in one Horner pass (ascending int coeffs)."""
    p = mpc(coeffs[-1])
    dp = mpc(0)
    for c in reversed(coeffs[:-1]):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _fujiwara_radius(coeffs):
    """2 * max_k |a_{n-k} / a_n|^(1/k): every root lies inside this circle."""
    n = len(coeffs) - 1
    an = abs(coeffs[-1])
    best = mpf(0)
    for k in range(1, n + 1):
        c = abs(coeffs[n - k])
        if c == 0:
            continue
        ratio = mpf(c) / an
        if k == n:
            ratio /= 2
        best = max(best, ratio ** (mpf(1) / k))
    return 2 * best


def _initial_guesses(coeffs, n: int):
    r0 = _fujiwara_radius(coeffs)
    guesses = []
    for k in range(n):
        theta = 2 * mp.pi * (k + mpf(3) / 10) / n
        guesses.append(mpc(r0) * mp.exp(mpc(0, 1) * theta))
    return guesses


def _float_aberth(coeffs, guesses):
    """Aberth-Ehrlich in complex128 from `guesses`: Jacobi sweeps, O(n^2) each.

    Returns the converged iterate (a complex128 array), or None when it is not
    usable as a start: a coefficient or guess that is not a finite double, a
    sweep that leaves the finite doubles (Horner overflow), no convergence
    within 60 + 8n sweeps, or two iterates that coincide.
    """
    n = len(guesses)
    try:
        p = np.array([float(c) for c in reversed(coeffs)])
    except OverflowError:
        return None
    dp = p[:-1] * np.arange(n, 0, -1)
    z = np.array([complex(g) for g in guesses])
    if not np.all(np.isfinite(z)):
        return None
    with np.errstate(all="ignore"):
        for _ in range(60 + 8 * n):
            newton = np.polyval(p, z) / np.polyval(dp, z)
            inv = z[:, None] - z[None, :]
            np.fill_diagonal(inv, 1)
            inv = 1 / inv
            np.fill_diagonal(inv, 0)
            step = newton / (1 - newton * inv.sum(axis=1))
            z = z - step
            if not np.all(np.isfinite(z)):
                return None
            if np.max(np.abs(step) / np.maximum(np.abs(z), 1)) < 1e-14:
                break
        else:
            return None
    if np.unique(z).size < n:
        return None
    return z


def _aberth_pass(coeffs, zs, prec: int):
    """Iterate Aberth-Ehrlich at the given precision (serial updates).

    Updates are applied in place (Gauss-Seidel style), which is what makes
    the iteration converge reliably from symmetric circle starts.  Always
    returns the final iterate: the a-posteriori radii are rigorous at any
    point, so certification -- not step size -- is the real gate.  For
    ill-conditioned inputs the steps bottom out at the evaluation noise
    floor above eps; the stagnation exit stops the pass once the iterate is
    localized and no longer improving.
    """
    n = len(zs)
    zs = list(zs)
    eps = mpf(2) ** (-prec + 3)
    tiny = mpf(2) ** (-prec // 2)
    max_iters = 60 + 8 * n + prec // 4
    best = mpf("inf")
    stale = 0
    for _ in range(max_iters):
        worst = mpf(0)
        for i in range(n):
            z = zs[i]
            p, dp = _horner2(coeffs, z)
            if p == 0:
                continue
            if dp == 0:
                zs[i] = z + tiny * (1 + mpc(0, 1))
                worst = mpf(1)
                continue
            newton = p / dp
            s = mpc(0)
            collide = False
            for j in range(n):
                if j == i:
                    continue
                diff = z - zs[j]
                if diff == 0:
                    collide = True
                    break
                s += 1 / diff
            if collide:
                zs[i] = z + tiny * (1 - mpc(0, 1)) * (i + 1)
                worst = mpf(1)
                continue
            denom = 1 - newton * s
            step = newton if denom == 0 else newton / denom
            zs[i] = z - step
            rel = abs(step) / max(abs(z), mpf(1))
            if rel > worst:
                worst = rel
        if worst <= eps:
            break
        if worst < best * mpf("0.75"):
            best = worst
            stale = 0
        elif worst < mpf("0.001"):
            stale += 1
            if stale >= 12:
                break
    return zs


def _certify(coeffs, zs, prec: int):
    """Inclusion radii deg*|P/P'| per root, requiring pairwise disjoint discs."""
    n = len(zs)
    slack = mpf(1) + mpf(2) ** (-prec + 10) * (2 * n + 4)
    abs_slack = mpf(2) ** (-prec + 8)
    certs = []
    for z in zs:
        p, dp = _horner2(coeffs, z)
        if dp == 0:
            return None
        r = n * abs(p) / abs(dp)
        r = r * slack + abs_slack * max(abs(z), mpf(1))
        certs.append((z, r))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(certs[i][0] - certs[j][0]) <= certs[i][1] + certs[j][1]:
                return None
    return certs


def _solve_squarefree(coeffs, prec: int, warm=None):
    """One precision level: iterate then certify.  Returns [(z, r)] or None.

    A rung without a warm start first converges in complex128 from the
    Fujiwara circle (`_float_aberth`) and hands that iterate to the mpmath
    pass, which polishes it in a couple of sweeps; when the float run is
    unusable the mpmath pass starts from the circle itself.  Either way
    `_certify` alone decides whether the rung certified.
    """
    n = len(coeffs) - 1
    if n == 1:
        # exact rational root -b/a: certify with a zero-width disc
        with mp.workprec(prec):
            root = Fraction(-coeffs[0], coeffs[1])
            z = mpc(mpf(root.numerator) / mpf(root.denominator))
            r = abs(z) * mpf(2) ** (-prec + 4) + mpf(2) ** (-prec + 4)
            return [(z, r)]
    with mp.workprec(prec + 16):
        if warm:
            zs = [mpc(w) for w in warm]
        else:
            zs = _initial_guesses(coeffs, n)
            start = _float_aberth(coeffs, zs)
            if start is not None:
                zs = [mpc(w) for w in start]
        zs = _aberth_pass(coeffs, zs, prec)
        return _certify(coeffs, zs, prec)


def solve_with_multiplicity(P: IntPoly, prec: int, warm=None):
    """Square-free split + Aberth at one precision.

    Returns (list[_CertRoot], warm_starts) or (None, warm_starts) when the
    level did not certify; warm starts seed the next ladder rung.
    """
    factors = squarefree_decomposition(P)
    out: list[_CertRoot] = []
    warms: dict[int, list] = {}
    ok = True
    for idx, (factor, mult) in enumerate(factors):
        seed = warm.get(idx) if warm else None
        certs = _solve_squarefree(factor.coeffs, prec, warm=seed)
        if certs is None:
            ok = False
            continue
        warms[idx] = [z for z, _ in certs]
        for z, r in certs:
            out.append(_CertRoot(z=z, r=r, multiplicity=mult))
    return (out if ok else None), warms


def _outward_float(x: mpf, up: bool) -> float:
    f = float(x)
    return math.nextafter(f, math.inf if up else -math.inf)


def to_interval(root: _CertRoot, assumed: bool = False) -> RootInterval:
    lo, hi = root.mod_bounds()
    return RootInterval(
        re=float(root.z.real),
        im=float(root.z.imag),
        mod_lo=max(0.0, _outward_float(lo, up=False)),
        mod_hi=_outward_float(hi, up=True),
        multiplicity=root.multiplicity,
        on_circle_assumed=assumed,
    )


def climb(polys, start_bits: int, max_bits: int, settle):
    """The precision ladder: solve every polynomial per rung, warm-started,
    doubling the bits from `start_bits` to `max_bits`, until
    `settle(root_lists, prec, at_cap)` returns something other than None.
    A rung at the cap whose roots do not certify raises CertificationError.
    """
    prec = start_bits
    warm = [None] * len(polys)
    while True:
        at_cap = prec >= max_bits
        with mp.workprec(prec + 16):
            root_lists = []
            for i, P in enumerate(polys):
                roots = []
                if P.degree >= 1:
                    roots, warm[i] = solve_with_multiplicity(P, prec, warm[i])
                root_lists.append(roots)
            if all(roots is not None for roots in root_lists):
                result = settle(root_lists, prec, at_cap)
                if result is not None:
                    return result
        if at_cap:
            raise CertificationError(f"root iteration did not certify within {max_bits} bits")
        prec = min(2 * prec, max_bits)


def find_roots(P: IntPoly, precision: int = 128, max_precision: int = 4096) -> ComplexRootSet:
    """All roots of P with certified modulus intervals.

    Intervals are refined until each radius is below 2**-precision relative
    to the root magnitude; raises CertificationError (carrying the partial
    result) if that cannot be reached by the precision cap.
    """
    if P.is_zero or P.degree < 1:
        raise ValueError("polynomial must have degree >= 1")
    stripped, k = P.strip_x()
    intervals: list[RootInterval] = []
    if k:
        intervals.append(RootInterval(0.0, 0.0, 0.0, 0.0, multiplicity=k))
    if stripped.degree == 0:
        return ComplexRootSet(tuple(intervals), working_precision=precision)
    target = mpf(2) ** (-precision)

    def settle(root_lists, prec, at_cap):
        (roots,) = root_lists
        done = all(r.r <= target * max(abs(r.z), mpf(1)) for r in roots)
        if not (done or at_cap):
            return None
        found = ComplexRootSet(
            tuple(intervals) + tuple(to_interval(r) for r in _sorted_roots(roots)),
            working_precision=prec,
        )
        if not done:
            raise CertificationError(
                f"roots not certified to 2^-{precision} within {max_precision} bits",
                partial=found,
            )
        if found.total_multiplicity != P.degree:
            raise InvariantError(f"{found.total_multiplicity} roots for degree {P.degree}")
        return found

    return climb([stripped], max(64, precision + 16), max_precision, settle)


def _sorted_roots(roots):
    return sorted(roots, key=lambda r: (float(r.z.real), float(r.z.imag)))
