"""Certified complex roots of integer polynomials.

The engine is Aberth-Ehrlich simultaneous iteration, float first as in
MPSolve: float approximations get exact inclusion discs, and multiprecision
runs only where those fail.  A centre is z = (a + ib)/2^K with Python ints
a, b, one scale per polynomial and rung, and K reaches below a lower bound
on the smallest root modulus, so small roots keep their relative precision.
A rung without a warm start has one start, Bini's: points on the circles of
the Newton polygon of log|a_i|, pushed out by a factor 1.3 (deterministic,
no RNG).  It converges on Python complex floats (Gauss-Seidel sweeps), and
that iterate, rounded to the scale 2^K, is certified as it stands.  When
the float run is unusable -- a coefficient or an evaluation that overflows
a double, no convergence, coinciding iterates -- the same circles, rounded
to the scale with no double in between, start the Aberth iteration on
Gaussian integers, which otherwise runs only on a warm rung, from the last
rung's centres.  A degree-1 factor takes its exact floor root.  Only the
certificate decides, and it is exact.  With P(z) = A / 2^(nK) and
P'(z) = B / 2^((n-1)K) from one Gaussian-integer Horner pass, the radius

    r = ceil(sqrt(ceil(n^2 |A|^2 / |B|^2))) / 2^K  >=  n |P(z) / P'(z)|

bounds the classical inclusion radius min_i |z - root_i| <= n |P(z)/P'(z)|.
When the n discs are pairwise disjoint (compared as squared integers), each
holds exactly one root of the square-free polynomial; which side of the
unit circle a disc lies on is decided the same way.  The caller passes
square-free factors, each with its multiplicity.

The rungs form one ladder, `climb`: 64 bits first, doubling up to a
4096-bit cap, each rung warm-started from the last, until the discs settle
the Mahler measure's error budget (`_settle`) within the caller's tolerance;
so a float iterate too noisy to settle at 64 bits climbs to the warm 128-bit
rung.  No module but this one reads a disc.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .padic import lower_hull
from .ratpoly import IntPoly

# bits of the fixed-point scale beyond the rung's precision
_GUARD_BITS = 16
# the ladder's first rung and its cap, in bits
_START_BITS = 64
_MAX_BITS = 4096
_LN2 = math.log(2)
# Bini's circles are pushed out by this factor (see `_bini_guesses`)
_PUSH = 1.3


class CertificationError(ArithmeticError):
    """Raised when roots cannot be certified within the precision cap."""

    def __init__(self, message: str, partial: tuple[RootInterval, ...] = ()):
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


@dataclass(frozen=True)
class _CertRoot:
    """The disc of centre (a + ib)/2^k and radius r/2^k holds exactly one
    root, of the given multiplicity."""

    a: int
    b: int
    r: int
    k: int
    multiplicity: int

    def side(self) -> int:
        """+1 if the disc lies outside the unit circle, -1 inside, 0 if it meets it."""
        norm, one = self.a * self.a + self.b * self.b, 1 << self.k
        if norm > (one + self.r) ** 2:
            return 1
        if self.r < one and norm < (one - self.r) ** 2:
            return -1
        return 0

    def mod_bounds(self) -> tuple[int, int]:
        """Integers lo, hi with lo <= 2^k |root| <= hi."""
        s = math.isqrt(self.a * self.a + self.b * self.b)
        return max(s - self.r, 0), s + 1 + self.r

    def log_modulus(self) -> float:
        """log |centre| (nonzero) to a few ulps, assuming libm's log is within an ulp."""
        norm = self.a * self.a + self.b * self.b
        e = norm.bit_length()
        return (math.log(norm / (1 << e)) + (e - 2 * self.k) * _LN2) / 2


def _float(n: int, k: int) -> float:
    """n / 2^k, correctly rounded; +-inf past the doubles."""
    try:
        return n / (1 << k)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _fixed(x: float, k: int) -> int:
    """floor(x * 2^k) for a finite float x, exactly."""
    num, den = x.as_integer_ratio()
    return (num << k) // den


def _small_root_bits(coeffs) -> int:
    """t >= 0 with every root modulus >= 2^-t: |root| >= |a_0| / (|a_0| + max_j |a_j|)."""
    c0 = abs(coeffs[0])
    top = max(abs(c) for c in coeffs[1:])
    return max(0, (c0 + top).bit_length() - c0.bit_length() + 1)


def _float_aberth(coeffs, guesses):
    """Aberth-Ehrlich on Python complex floats from `guesses`, Gauss-Seidel.

    Returns the converged iterate (a list), or None when it is not usable as
    a start: a coefficient or guess that is not a finite double, an iterate
    that leaves the finite doubles (Horner overflow), a division by zero or
    an overflow, no convergence within 60 + 8n sweeps, or two iterates that
    coincide.  A run whose steps stall below 1e-3 (relative) for 12 sweeps
    has reached its noise floor and is returned as converged: the
    certificate judges it, and a rung it does not settle climbs.
    """
    n = len(guesses)
    try:
        p = [float(c) for c in coeffs]
    except OverflowError:
        return None
    tail = p[-2::-1]
    z = [complex(g) for g in guesses]
    if not all(cmath.isfinite(w) for w in z):
        return None
    best, stale = math.inf, 0
    try:
        for _ in range(60 + 8 * n):
            worst = 0.0
            for i, w in enumerate(z):
                f, df = p[-1], 0.0
                for c in tail:
                    df = df * w + f
                    f = f * w + c
                newton = f / df
                s = 0j  # the Aberth sum S = sum_j 1/(z - z_j)
                for v in z[:i] + z[i + 1 :]:
                    s += 1 / (w - v)
                step = newton / (1 - newton * s)
                w -= step
                if not cmath.isfinite(w):
                    return None
                z[i] = w
                worst = max(worst, abs(step) / max(abs(w), 1.0))
            if worst < 1e-14:
                break
            if worst < 0.75 * best:
                best, stale = worst, 0
            elif worst < 1e-3:
                stale += 1
                if stale >= 12:
                    break
        else:
            return None
    except (ZeroDivisionError, OverflowError):
        return None
    if len(set(z)) < n:
        return None
    return z


def _bini_guesses(coeffs):
    """Bini's start as (log radius, angle) pairs: on each edge i -> j of the
    archimedean Newton polygon, the lower hull of the points (i, -log|a_i|)
    drawn by `padic.lower_hull`, j - i points on the circle of log radius
    e = (y_j - y_i)/(j - i), rotated by 2 pi i/n.  A zero constant
    term puts its zero roots at log radius -inf.  Both iterations start from
    the circles pushed out by `_PUSH`: with 1, a reciprocal polynomial such as
    Lehmer's starts on the circle its roots lie near and takes about three
    times the sweeps."""
    hull = lower_hull([(j, -math.log(abs(c))) for j, c in enumerate(coeffs) if c])
    n = len(coeffs) - 1
    guesses = [(-math.inf, 0.0)] * hull[0][0]
    for (i, yi), (j, yj) in zip(hull, hull[1:]):
        e = (yj - yi) / (j - i)
        guesses += [(e, 2 * math.pi * ((t + 0.3) / (j - i) + i / n)) for t in range(j - i)]
    return guesses


def _circle_point(e: float, angle: float, k: int) -> tuple[int, int]:
    """The start point _PUSH e^e at `angle`, floored to the scale 2^k with no
    double in between: e/ln 2 splits into an integer shift s and a fraction,
    so radii far past the doubles work.  k + s > 0: no circle lies inside
    the lower bound 2^-t of `_small_root_bits`, and k > t."""
    if e == -math.inf:
        return 0, 0
    s = math.floor(e / _LN2)
    m = _PUSH * 2 ** (e / _LN2 - s)
    return _fixed(m * math.cos(angle), k + s), _fixed(m * math.sin(angle), k + s)


def _start(coeffs, k: int, prec: int):
    """Cold centres at scale 2^k from Bini's circles: the float iterate from
    them, rounded to the scale as it stands, or, when the float run is
    unusable, the Gaussian-integer iteration from the same circles."""
    circles = _bini_guesses(coeffs)
    guesses = [
        cmath.rect(_PUSH * math.exp(e), a) if e < 700 else complex(math.inf) for e, a in circles
    ]
    start = _float_aberth(coeffs, guesses)
    if start is not None:
        return [(_fixed(z.real, k), _fixed(z.imag, k)) for z in start]
    return _aberth_fixed(coeffs, [_circle_point(e, a, k) for e, a in circles], k, prec)


def _aberth_fixed(coeffs, zs, k: int, prec: int):
    """Aberth-Ehrlich on Gaussian integers at scale 2^k (serial updates),
    from a warm rung's centres or, on a cold rung, Bini's circles.

    Updates are applied in place (Gauss-Seidel style), which is what makes
    the iteration converge reliably from symmetric circle starts.  Every
    product is truncated to the scale, so on ill-conditioned input the steps
    bottom out at a noise floor; the stagnation exit stops the pass once the
    iterate is localized and no longer improving.  Always returns the final
    iterate: the certificate, not the step size, decides.
    """
    n = len(zs)
    zs = list(zs)
    cs = [c << k for c in coeffs]
    one, k2, tiny = 1 << k, 2 * k, 1 << (k - prec // 2)
    best = stale = 0
    for _ in range(60 + 8 * n + prec // 4):
        worst = k2  # the fewest bits any step lies below max(|z|, 1)
        for i in range(n):
            zr, zi = zs[i]
            # Horner for P and P' at scale 2^k
            pr, pi_, dr, di = cs[-1], 0, 0, 0
            for c in cs[-2::-1]:
                dr, di = ((dr * zr - di * zi) >> k) + pr, ((dr * zi + di * zr) >> k) + pi_
                pr, pi_ = ((pr * zr - pi_ * zi) >> k) + c, (pr * zi + pi_ * zr) >> k
            # Aberth sum S = sum_j 1/(z - z_j); None when two iterates coincide
            sr = si = 0
            for wr, wi in zs[:i] + zs[i + 1 :]:
                er, ei = zr - wr, zi - wi
                ee = er * er + ei * ei
                if ee == 0:
                    sr = None
                    break
                sr += (er << k2) // ee
                si -= (ei << k2) // ee
            dd = dr * dr + di * di
            if dd == 0 or sr is None:
                # a critical point or a coinciding iterate: nudge it off
                zs[i], worst = (zr + tiny * (i + 1), zi - tiny * (i + 1)), 0
                continue
            # Newton correction N = P/P', and the step N / (1 - N S)
            nr = ((pr * dr + pi_ * di) << k) // dd
            ni = ((pi_ * dr - pr * di) << k) // dd
            tr, ti = one - ((nr * sr - ni * si) >> k), -((nr * si + ni * sr) >> k)
            tt = tr * tr + ti * ti
            if tt:
                nr, ni = ((nr * tr + ni * ti) << k) // tt, ((ni * tr - nr * ti) << k) // tt
            zs[i] = (zr - nr, zi - ni)
            size = max(abs(zr), abs(zi), one).bit_length()
            worst = min(worst, size - max(abs(nr), abs(ni)).bit_length())
        if worst >= prec - 3:
            break
        if worst > best:
            best, stale = worst, 0
        elif worst >= 10:
            stale += 1
            if stale >= 12:
                break
    return zs


def _certify(coeffs, zs, k: int):
    """Exact inclusion discs at the centres zs (scale 2^k): [(a, b, r)], or
    None when P' vanishes at a centre or two discs meet."""
    n = len(coeffs) - 1
    scaled = [c << (k * (n - j)) for j, c in enumerate(coeffs)]  # a_j 2^(k(n-j))
    certs = []
    for zr, zi in zs:
        # homogeneous Horner: A = 2^(nk) P(z), B = 2^((n-1)k) P'(z), exactly
        ar, ai, br, bi = coeffs[-1], 0, 0, 0
        for c in scaled[-2::-1]:
            br, bi = br * zr - bi * zi + ar, br * zi + bi * zr + ai
            ar, ai = ar * zr - ai * zi + c, ar * zi + ai * zr
        bb = br * br + bi * bi
        if bb == 0:
            return None
        q = -(-n * n * (ar * ar + ai * ai) // bb)
        r = math.isqrt(q)
        certs.append((zr, zi, r + (r * r < q)))
    for i, (xa, ya, ra) in enumerate(certs):
        for xb, yb, rb in certs[i + 1 :]:
            if (xa - xb) ** 2 + (ya - yb) ** 2 <= (ra + rb) ** 2:
                return None
    return certs


def solve_with_multiplicity(factor: tuple[IntPoly, int], prec: int, warm=None):
    """One rung for a (square-free factor, m) pair: (its roots, each of
    multiplicity m, or None when `_certify` fails; (k, centres at scale 2^k),
    which warm-start the next rung).  The centres: a degree-1 factor's exact
    floor root, the integer iteration from the warm start, or else `_start`'s."""
    poly, mult = factor
    coeffs = poly.coeffs
    k = prec + _GUARD_BITS + _small_root_bits(coeffs)
    if len(coeffs) == 2:
        zs = [((-coeffs[0] << k) // coeffs[1], 0)]
    elif warm:
        k0, zs = warm
        zs = _aberth_fixed(coeffs, [(a << (k - k0), b << (k - k0)) for a, b in zs], k, prec)
    else:
        zs = _start(coeffs, k, prec)
    certs = _certify(coeffs, zs, k)
    roots = None if certs is None else [_CertRoot(a, b, r, k, mult) for a, b, r in certs]
    return roots, (k, zs)


def climb(factors, tolerance: float):
    """The precision ladder over (square-free factor, multiplicity) pairs of
    positive degree: solve every factor per rung, warm-started, doubling the
    bits from `_START_BITS` to `_MAX_BITS`, until the discs settle the error
    budget of `_settle` within `tolerance`.  Returns the archimedean sum, log+
    of every root summed in the order of `factors`, and the roots of every
    factor, as from `_intervals`.  A rung at the cap that does not settle
    raises CertificationError, whose `partial` holds the roots of every
    factor that certified on that rung.
    """
    prec = _START_BITS
    warm = [None] * len(factors)
    while True:
        root_lists = []
        for i, factor in enumerate(factors):
            roots, warm[i] = solve_with_multiplicity(factor, prec, warm[i])
            root_lists.append(roots)
        if all(roots is not None for roots in root_lists):
            total = _settle(root_lists, tolerance)
            if total is not None:
                return total, _intervals(root_lists)
        if prec >= _MAX_BITS:
            message = f"roots did not settle within {_MAX_BITS} bits"
            raise CertificationError(message, _intervals(root_lists))
        prec = min(2 * prec, _MAX_BITS)


def _settle(root_lists, tolerance):
    """The archimedean sum, the lists summed in order, when the discs settle
    the budget proven in the `mahler` docstring's step 4, else None."""
    width = total = 0.0
    for root in (r for roots in root_lists for r in roots):
        side = root.side()
        if side < 0:
            continue
        lo, hi = root.mod_bounds()
        if side > 0:
            total += root.multiplicity * root.log_modulus()
        else:
            lo = 1 << root.k  # lo <= 2^k |z| <= hi; log+|z| lies in [0, log(hi/2^k)]
        width += root.multiplicity * (hi - lo) / lo
    return None if width > tolerance / 2 else total


def _intervals(root_lists) -> tuple[RootInterval, ...]:
    """The certified roots of every list (None: none certified) as
    RootIntervals, in the order of `_sorted_roots`."""
    out = []
    for root in _sorted_roots([r for roots in root_lists if roots for r in roots]):
        lo, hi = root.mod_bounds()
        out.append(
            RootInterval(
                re=_float(root.a, root.k),
                im=_float(root.b, root.k),
                mod_lo=max(0.0, math.nextafter(_float(lo, root.k), -math.inf)),
                mod_hi=math.nextafter(_float(hi, root.k), math.inf),
                multiplicity=root.multiplicity,
            )
        )
    return tuple(out)


def _sorted_roots(roots):
    """The roots ascending by real part, then by imaginary part.

    Real parts count as equal while the discs' extents on the real axis chain
    into one interval.  The extents of conjugate roots, or of any roots with
    one real part, all hold that real part, so the noise in the centres' last
    bits cannot order them.
    """
    top = max((r.k for r in roots), default=0)

    def real(r):  # the disc's extent on the real axis, times 2^top
        return (r.a - r.r) << (top - r.k), (r.a + r.r) << (top - r.k)

    runs, reach = [], None
    for r in sorted(roots, key=real):
        lo, hi = real(r)
        if runs and lo <= reach:
            runs[-1].append(r)
            reach = max(reach, hi)
        else:
            runs.append([r])
            reach = hi
    return [r for run in runs for r in sorted(run, key=lambda r: r.b << (top - r.k))]
