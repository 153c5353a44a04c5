"""Independent oracles used to freeze expected test values.

The root oracle diagonalizes the companion matrix with mpmath's QR-based
eig at high working precision -- a completely different algorithm from the
package's simultaneous-iteration engine, so agreement is meaningful.  The
exact-core oracles are the slow textbook algorithms the package replaced:
Faddeev-LeVerrier for the characteristic polynomial and Euclid over
Fraction coefficients for the gcd.
"""

from fractions import Fraction

from mpmath import mp

from algentropy.linalg import RationalMatrix
from algentropy.ratpoly import IntPoly, RatPoly


def faddeev_char_poly(M: RationalMatrix) -> RatPoly:
    """Monic det(X*I - M) by Faddeev-LeVerrier, O(n^4) exact operations.

    M_1 = M, c_k = -tr(M_k)/k, M_(k+1) = M(M_k + c_k I).
    """
    n = M.n
    if n == 0:
        return RatPoly([1])
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    Mk = M
    ident = RationalMatrix.identity(n)
    for k in range(1, n + 1):
        ck = -Mk.trace() / k
        coeffs[n - k] = ck
        if k < n:
            Mk = M * (Mk + ident * ck)
    return RatPoly(coeffs)


def fraction_euclid_gcd(f, g) -> RatPoly:
    """Monic gcd over Q by Euclid on Fraction coefficients, with its own
    long division so that it shares no division code with the package."""
    a = [Fraction(c) for c in f.coeffs]
    b = [Fraction(c) for c in g.coeffs]
    if not any(a) and not any(b):
        raise ValueError("gcd(0, 0) is undefined")
    while any(b):
        while not b[-1]:
            b.pop()
        while len(a) >= len(b) and any(a):
            c = a[-1] / b[-1]
            shift = len(a) - len(b)
            for j, x in enumerate(b):
                a[shift + j] -= c * x
            a.pop()
        a, b = b, a
    return RatPoly(a).monic()


def eig_moduli(coeffs, dps: int = 60):
    """Sorted root moduli of an ascending integer coefficient list."""
    with mp.workdps(dps):
        n = len(coeffs) - 1
        A = mp.zeros(n)
        an = mp.mpf(coeffs[-1])
        for i in range(1, n):
            A[i, i - 1] = 1
        for i in range(n):
            A[i, n - 1] = -mp.mpf(coeffs[i]) / an
        result = mp.eig(A, left=False, right=False)
        if isinstance(result, tuple):  # 1x1 quirk: returns (E, VL, VR)
            result = result[0]
        return sorted(abs(ev) for ev in result)


def mahler_oracle(poly: IntPoly, dps: int = 60) -> float:
    """log|lead| + sum of log-moduli beyond 1, via the eig route."""
    mods = eig_moduli(poly.coeffs, dps)
    with mp.workdps(dps):
        total = mp.log(abs(poly.coeffs[-1]))
        for m in mods:
            if m > 1:
                total += mp.log(m)
        return float(total)


def naive_trajectory_counts(M, m: int, n_max: int):
    """Direct Fraction-arithmetic sumset enumeration (no scaling tricks).

    Returns (counts, final point set) so containment can be checked on the
    actual enumerated vectors.
    """
    from itertools import product

    dim = M.n
    grid = [
        tuple(Fraction(j, m) for j in c)
        for c in product(range(-m, m + 1), repeat=dim)
    ]
    total = set(grid)
    counts = [len(total)]
    image = grid
    for _ in range(1, n_max):
        image = [M.apply(v) for v in image]
        total = {tuple(a + b for a, b in zip(x, y)) for x in total for y in image}
        counts.append(len(total))
    return counts, total
