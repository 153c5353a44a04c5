"""Exact linear algebra over Q.

Matrices are immutable tuples of Fraction rows.  `char_poly` runs the
Hessenberg method modulo products of 61-bit primes, none of them unlucky,
and recombines by Garner's CRT under a proven Hadamard bound (proof in its
docstring).  The method is exact over the ring Z/q for any such product q:
it inverts only its pivots, and a pivot that is no unit mod q splits q by a
gcd into two coprime moduli, each run on its own.  A product holds at most
`_PRIMES_PER_MODULUS` primes, since Python's big-int remainder is quadratic
in the modulus's length.  It returns the cleared characteristic polynomial:
the primitive integer polynomial with positive lead proportional to
det(X*I - M).  The companion matrix of f is that of f/lead(f) (ones on the
subdiagonal, -c_i/lead(f) in the last column), already Hessenberg, and
char_poly(companion(f)) == f is a round-trip identity for every primitive f
with positive lead.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .numtheory import word_prime
from .ratpoly import IntPoly, parse_rational, primitivize


class SingularMatrixError(ZeroDivisionError):
    """Raised when inverting a matrix with zero determinant."""


class RationalMatrix:
    """Immutable square matrix with Fraction entries."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable]):
        parsed = tuple(
            tuple(e if isinstance(e, Fraction) else parse_rational(e) for e in row)
            for row in rows
        )
        n = len(parsed)
        if any(len(row) != n for row in parsed):
            raise ValueError("matrix must be square")
        self.n = n
        self.rows = parsed

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"RationalMatrix({[[str(e) for e in row] for row in self.rows]})"

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.rows[ij[0]][ij[1]]

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalMatrix([[e * other for e in row] for row in self.rows])
        cols = list(zip(*other.rows))
        return RationalMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RationalMatrix":
        if k < 0:
            return inverse(self) ** (-k)
        out = RationalMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def denominator_lcm(self) -> int:
        return math.lcm(*(e.denominator for row in self.rows for e in row))


# Word primes per modulus of one Hessenberg pass.  Fewer, wider passes pay the
# interpreter's cost per operation fewer times, but big-int % is quadratic in
# the modulus's length: one product of every prime made a 6x6 matrix of
# 1000-digit entries over twice as slow as one prime per pass.  In sweeps
# of 3 to 16 on small and big-entry matrices, 6 stayed within 13% of the
# fastest value on every input
_PRIMES_PER_MODULUS = 6


def _garner(a: list, m: int, b: list, q: int) -> list:
    """The residues mod m*q that are a mod m and b mod q, for coprime m and q (a reduced mod m)."""
    inv = pow(m, -1, q)
    return [x + m * ((y - x) * inv % q) for x, y in zip(a, b)]


def _char_poly_mod(B: list, dens: list, q: int) -> list:
    """det(X*I - M) mod q, ascending, for M = diag(dens)^-1 B and a squarefree q prime to dens.

    Hessenberg method (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.2.9), as in the Fraction oracle `hessenberg_char_poly`.
    Over the ring Z/q it stays exact while every pivot is a unit: the
    reduction is a chain of similarity transforms that divide only by the
    pivots, and the recurrence for the minors divides by nothing.  A
    pivot x that is nonzero but no unit mod q splits q into the coprime
    g = gcd(x, q) and q/g, on which the pass runs again and whose results
    Garner joins (dynamic evaluation: Della Dora, Dicrescenzo & Duval,
    EUROCAL '85); x is 0 mod g and a unit mod q/g.
    """
    n = len(B)
    H = [[b * inv % q for b in row] for inv, row in zip((pow(d, -1, q) for d in dens), B)]
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if H[i][m - 1]), None)
        if pivot is None:
            continue
        if pivot != m:
            H[m], H[pivot] = H[pivot], H[m]
            for row in H:
                row[m], row[pivot] = row[pivot], row[m]
        row_m = H[m]
        if (g := math.gcd(row_m[m - 1], q)) != 1:
            return _garner(_char_poly_mod(B, dens, g), g, _char_poly_mod(B, dens, q // g), q // g)
        inv = pow(row_m[m - 1], -1, q)
        for i in range(m + 1, n):
            if u := H[i][m - 1] * inv % q:
                # row_i -= u * row_m (zero left of column m - 1), then column_m += u * column_i
                H[i] = [(a - u * b) % q for a, b in zip(H[i], row_m)]
                for row in H:
                    row[m] = (row[m] + u * row[i]) % q
    polys = [[1]]  # polys[m] = det(X*I - H[:m, :m])
    for m in range(1, n + 1):
        prev = polys[m - 1]
        f = [a - H[m - 1][m - 1] * b for a, b in zip([0] + prev, prev + [0])]
        t = 1
        for i in range(m - 1, 0, -1):
            if not (t := t * H[i][i - 1] % q):
                break
            c = t * H[i - 1][m - 1]
            for k, e in enumerate(polys[i - 1]):
                f[k] -= c * e
        polys.append([c % q for c in f])
    return polys[n]


def char_poly(M: RationalMatrix) -> IntPoly:
    """The primitive integer polynomial with positive lead proportional to
    det(X*I - M), exactly, from its images modulo products of 61-bit primes.

    With D_i the lcm of row i's denominators, B = diag(D) M is integral and
    Delta = prod D_i.  Each principal minor is det B[S,S] / prod_(i in S) D_i,
    so Delta * det(X*I - M) is in Z[X], and by Hadamard's inequality,
    |det B[S,S]| <= prod_(i in S) rho_i with rho_i = ceil(|B_i|_2), its X^(n-k)
    coefficient (-1)^k Delta e_k(M) is at most [t^k] prod_i (D_i + rho_i t) in
    size; one global lcm d would make this bound grow like d^n.  The word
    primes not dividing Delta are taken in order until their product exceeds
    twice the bound, never earlier, and grouped into moduli q of at most
    `_PRIMES_PER_MODULUS` of them.  M mod q is defined, the determinant
    commutes with reduction mod q, and `_char_poly_mod` is exact over Z/q for
    any such q, so no prime is unlucky.  Garner combines the images, and
    symmetric residues give Delta * det(X*I - M), whose primitive part is
    returned (IntPoly([1]) for the 0x0 matrix).
    """
    dens = [math.lcm(*(e.denominator for e in row)) for row in M.rows]
    B = [[e.numerator * (d // e.denominator) for e in row] for d, row in zip(dens, M.rows)]
    delta, bound = math.prod(dens), [1]
    for d, row in zip(dens, B):
        rho = math.isqrt(sum(b * b for b in row) - 1) + 1 if any(row) else 0
        bound = [d * a + rho * b for a, b in zip(bound + [0], [0] + bound)]
    # rest = (2 * bound) // modulus, so modulus * q <= 2 * bound is q <= rest
    coeffs, modulus, i, rest = [0] * (M.n + 1), 1, 0, 2 * max(bound)
    while rest:
        q, k = 1, 0
        while k < _PRIMES_PER_MODULUS and q <= rest:
            p, i = word_prime(i), i + 1
            if delta % p:
                q, k = q * p, k + 1
        dq = delta % q
        coeffs = _garner(coeffs, modulus, [dq * r for r in _char_poly_mod(B, dens, q)], q)
        modulus, rest = modulus * q, rest // q
    return primitivize(c - modulus if 2 * c > modulus else c for c in coeffs)


def companion(f: IntPoly) -> RationalMatrix:
    """Companion of f/lead(f), 0x0 for a constant: char_poly(companion(f)) == f.primitive_part()."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    n = f.degree
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = Fraction(1)
    for i in range(n):
        rows[i][n - 1] = Fraction(-f.coeffs[i], f.lead)
    return RationalMatrix(rows)


def block_diag(A: RationalMatrix, B: RationalMatrix) -> RationalMatrix:
    """Block-diagonal composition; char poly multiplies across blocks."""
    n, m = A.n, B.n
    rows = []
    for i in range(n):
        rows.append(list(A.rows[i]) + [Fraction(0)] * m)
    for i in range(m):
        rows.append([Fraction(0)] * n + list(B.rows[i]))
    return RationalMatrix(rows)


def inverse(M: RationalMatrix) -> RationalMatrix:
    """Exact inverse by Gauss-Jordan elimination.

    Pivot choice prefers denominator-free entries (smallest denominator,
    then largest |numerator|) to limit coefficient blowup.
    """
    n = M.n
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M.rows)]
    for col in range(n):
        pivot_row = None
        pivot_key = None
        for r in range(col, n):
            e = aug[r][col]
            if e == 0:
                continue
            key = (e.denominator, -abs(e.numerator))
            if pivot_key is None or key < pivot_key:
                pivot_key = key
                pivot_row = r
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [e * inv for e in aug[col]]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col]
            if factor:
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return RationalMatrix([row[n:] for row in aug])

