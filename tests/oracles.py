"""Independent oracles used to freeze expected test values.

The root oracle diagonalizes the companion matrix with mpmath's QR-based
eig at high working precision -- a completely different algorithm from the
package's simultaneous-iteration engine, so agreement is meaningful.  The
exact-core oracles are the slow textbook algorithms the package replaced:
Faddeev-LeVerrier and the Hessenberg method over Fraction for the
characteristic polynomial (the package runs Hessenberg modulo primes and
recombines by CRT under a proven bound), and Euclid over Fraction
coefficients for the gcd; plain trial division for factorization, the
totient sieve, the n-th cyclotomic polynomial as X^n - 1 divided by every
smaller Phi_d with d | n, the admissible grid density as a product of p-adic norms, the p-adic
valuation by testing p^(e+1) | n for e = 0, 1, ..., and Miller-Rabin
with the first twelve primes as witnesses for primality.  The
polynomial oracles use no package polynomial code: they return monic
polynomials as ascending tuples of Fraction, and `monic` puts a package
`IntPoly` into the same form.  The trajectory counts have two references:
the naive Fraction sumset, and the package's own Python-int layout run
from level 2 on (`python_int_counts`).
"""

import functools
import math
from fractions import Fraction

from mpmath import mp

from algentropy import trajectory
from algentropy.linalg import RationalMatrix
from algentropy.ratpoly import IntPoly


def transpose(M: RationalMatrix) -> RationalMatrix:
    return RationalMatrix(list(zip(*M.rows)))


def trace(M: RationalMatrix) -> Fraction:
    return sum(M.rows[i][i] for i in range(M.n))


def apply(M: RationalMatrix, vec: tuple) -> tuple:
    """Exact matrix-vector product."""
    return tuple(sum(a * x for a, x in zip(row, vec)) for row in M.rows)


def monic(P: IntPoly) -> tuple[Fraction, ...]:
    """P divided by its lead, as an ascending tuple of Fraction."""
    return tuple(Fraction(c, P.lead) for c in P.coeffs)


def faddeev_char_poly(M: RationalMatrix) -> tuple[Fraction, ...]:
    """Monic det(X*I - M) by Faddeev-LeVerrier, O(n^4) exact operations.

    M_1 = M, c_k = -tr(M_k)/k, M_(k+1) = M(M_k + c_k I).
    """
    n = M.n
    if n == 0:
        return (Fraction(1),)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    Mk = M
    ident = RationalMatrix.identity(n)
    for k in range(1, n + 1):
        ck = -trace(Mk) / k
        coeffs[n - k] = ck
        if k < n:
            Mk = M * (Mk + ident * ck)
    return tuple(coeffs)


def hessenberg_char_poly(M: RationalMatrix) -> tuple[Fraction, ...]:
    """Monic det(X*I - M) by the Hessenberg method over Fraction, O(n^3) exact operations.

    The package's char_poly runs the same reduction modulo 61-bit primes;
    here every operation is exact over Q, and pays for a gcd.  Hessenberg
    method (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.2.9): reduce M to upper Hessenberg H by exact similarity
    transforms, swapping a row and column when a pivot is zero, then run
    p_m = (X - h_mm) p_(m-1) - sum_i h_im (prod_(j=i+1..m) h_(j,j-1)) p_(i-1)
    over the leading principal minors p_m of X*I - H.
    """
    n = M.n
    H = [list(row) for row in M.rows]
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if H[i][m - 1] != 0), None)
        if pivot is None:
            continue
        if pivot != m:
            H[m], H[pivot] = H[pivot], H[m]
            for row in H:
                row[m], row[pivot] = row[pivot], row[m]
        inv = 1 / H[m][m - 1]
        for i in range(m + 1, n):
            u = H[i][m - 1] * inv
            if u == 0:
                continue
            # row_i -= u * row_m, then column_m += u * column_i (similarity)
            row_i, row_m = H[i], H[m]
            row_i[m - 1] = Fraction(0)
            for k in range(m, n):
                if row_m[k]:
                    row_i[k] -= u * row_m[k]
            for row in H:
                if row[i]:
                    row[m] += u * row[i]
    # polys[m] = det(X*I - H[:m, :m]) as ascending coefficients
    polys = [[Fraction(1)]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        h = H[m - 1][m - 1]
        p = [Fraction(0)] + prev
        for k, c in enumerate(prev):
            p[k] -= h * c
        t = Fraction(1)
        for i in range(m - 1, 0, -1):
            t *= H[i][i - 1]
            if t == 0:
                break
            c = t * H[i - 1][m - 1]
            if c:
                for k, e in enumerate(polys[i - 1]):
                    p[k] -= c * e
        polys.append(p)
    return tuple(polys[n])


def fraction_euclid_gcd(f, g) -> tuple[Fraction, ...]:
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
    return tuple(c / a[-1] for c in a)


def trial_division_factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1 by dividing by every d = 2, 3, 4, ... while d^2 <= n."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def totients(limit: int) -> list[int]:
    """[totient(0), ..., totient(limit)] by one sieve, with totient(0) = 0."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # no smaller prime divides p
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


@functools.cache
def division_cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n's ascending integer coefficients: X^n - 1 divided exactly by
    Phi_d for every divisor d < n of n, largest first, by synthetic division."""
    rem = [-1] + [0] * (n - 1) + [1]
    for d in range(n - 1, 0, -1):
        if n % d == 0:
            g = division_cyclotomic(d)
            dg = len(g) - 1
            terms = [(j, c) for j, c in enumerate(g[:-1]) if c]
            # g is monic: rem[top] becomes the quotient's coefficient of X^(top - dg)
            for top in range(len(rem) - 1, dg - 1, -1):
                if c := rem[top]:
                    shift = top - dg
                    for j, x in terms:
                        rem[shift + j] -= c * x
            if any(rem[:dg]):
                raise ArithmeticError(f"Phi_{d} does not divide X^{n} - 1 after the smaller factors")
            rem = rem[dg:]
    return tuple(rem)


def vp(x, p: int) -> int:
    """The p-adic valuation of a nonzero rational: the largest e with p^e
    dividing its numerator, less the same for its denominator."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("vp(0) is infinite")

    def exponent(n: int) -> int:
        e = 0
        while n % p ** (e + 1) == 0:
            e += 1
        return e

    return exponent(x.numerator) - exponent(x.denominator)


def product_formula_admissible_m(M: RationalMatrix) -> int:
    """c * prod over primes p of max(1, max_ij |a_ij|_p^-1), with
    c = max(ceil(max row sum of |a_ij|) + 1, 3): the admissible grid density
    as a product of p-adic norms, prime by prime over the primes that trial
    division finds in the entry denominators."""
    entries = [e for row in M.rows for e in row]
    c = max(math.ceil(max((sum(abs(e) for e in row) for row in M.rows), default=0)) + 1, 3)
    primes = set()
    for e in entries:
        primes.update(trial_division_factorize(e.denominator))
    m = c
    for p in primes:
        worst = 0  # max over the entries of max(0, -v_p(a)), read off the denominators
        for e in entries:
            den, v = e.denominator, 0
            while den % p == 0:
                den, v = den // p, v + 1
            worst = max(worst, v)
        m *= p**worst
    return m


def twelve_witness_is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as witnesses: proven below
    3317044064679887385961981 (Sorenson & Webster 2017)."""
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    if n in witnesses:
        return True
    if any(n % p == 0 for p in witnesses):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
        image = [apply(M, v) for v in image]
        total = {tuple(a + b for a, b in zip(x, y)) for x in total for y in image}
        counts.append(len(total))
    return counts, total


def python_int_counts(M, m: int, n_max: int, budget: int = trajectory.DEFAULT_BUDGET):
    """trajectory_counts with every expanded level held as Python-int keys.

    With the int64 keys' and the value tables' limits at 1, each level's
    move overflows both and widens to `_ExactState`, the layout any level
    past the value tables reaches.  Asserts that every level from 2 on
    expanded there.
    """
    import pytest  # bench/checks.py imports this module outside pytest

    ran = []
    real = trajectory._ExactState.expand

    def expand(self, *args):
        state, reason = real(self, *args)
        if reason != "overflow":
            ran.append(type(self))
        return state, reason

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trajectory._PackedState, "limit", 1)
        patch.setattr(trajectory._TableState, "limit", 1)
        patch.setattr(trajectory._ExactState, "expand", expand)
        run = trajectory.trajectory_counts(M, m, n_max, budget)
    assert ran == [trajectory._ExactState] * ((run.budget_exhausted_at or n_max) - 1)
    return run
