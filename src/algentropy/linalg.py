"""Exact linear algebra over Q.

Matrices are immutable tuples of Fraction rows.  `char_poly` runs the
Hessenberg method modulo 61-bit primes, none of them unlucky, and
recombines by CRT under a proven Hadamard bound (proof in its docstring).
It returns the cleared characteristic polynomial: the primitive integer
polynomial with positive lead proportional to det(X*I - M).  The companion
matrix of f is that of f/lead(f) (ones on the subdiagonal, -c_i/lead(f) in
the last column), already Hessenberg, and char_poly(companion(f)) == f is a
round-trip identity for every primitive f with positive lead.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .numtheory import word_prime
from .ratpoly import IntPoly, parse_rational, pnorm, primitivize


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

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(list(zip(*self.rows)))

    def trace(self) -> Fraction:
        return sum(self.rows[i][i] for i in range(self.n))

    def apply(self, vec: tuple) -> tuple:
        """Exact matrix-vector product."""
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.rows)

    def denominator_lcm(self) -> int:
        return math.lcm(*(e.denominator for row in self.rows for e in row))


def _char_poly_mod(B: list, dens: list, p: int) -> list:
    """det(X*I - M) mod p, ascending, for M = diag(dens)^-1 B and p prime to dens.

    Hessenberg method (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.2.9), as in the Fraction oracle `hessenberg_char_poly`.
    """
    n = len(B)
    H = [[b * inv % p for b in row] for inv, row in zip((pow(d, -1, p) for d in dens), B)]
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if H[i][m - 1]), None)
        if pivot is None:
            continue
        if pivot != m:
            H[m], H[pivot] = H[pivot], H[m]
            for row in H:
                row[m], row[pivot] = row[pivot], row[m]
        row_m = H[m]
        inv = pow(row_m[m - 1], -1, p)
        for i in range(m + 1, n):
            if u := H[i][m - 1] * inv % p:
                # row_i -= u * row_m (zero left of column m - 1), then column_m += u * column_i
                H[i] = [(a - u * b) % p for a, b in zip(H[i], row_m)]
                for row in H:
                    row[m] = (row[m] + u * row[i]) % p
    polys = [[1]]  # polys[m] = det(X*I - H[:m, :m])
    for m in range(1, n + 1):
        prev = polys[m - 1]
        q = [a - H[m - 1][m - 1] * b for a, b in zip([0] + prev, prev + [0])]
        t = 1
        for i in range(m - 1, 0, -1):
            if not (t := t * H[i][i - 1] % p):
                break
            c = t * H[i - 1][m - 1]
            for k, e in enumerate(polys[i - 1]):
                q[k] -= c * e
        polys.append([c % p for c in q])
    return polys[n]


def char_poly(M: RationalMatrix) -> IntPoly:
    """The primitive integer polynomial with positive lead proportional to
    det(X*I - M), exactly, from its images modulo 61-bit primes.

    With D_i the lcm of row i's denominators, B = diag(D) M is integral and
    Delta = prod D_i.  Each principal minor is det B[S,S] / prod_(i in S) D_i,
    so Delta * det(X*I - M) is in Z[X], and by Hadamard's inequality,
    |det B[S,S]| <= prod_(i in S) rho_i with rho_i = ceil(|B_i|_2), its X^(n-k)
    coefficient (-1)^k Delta e_k(M) is at most [t^k] prod_i (D_i + rho_i t) in
    size; one global lcm d would make this bound grow like d^n.  For p not
    dividing Delta, M mod p is defined, the determinant commutes with reduction
    mod p, and Hessenberg with pivoting works over any field: no such p is
    unlucky.  CRT combines the images until the modulus exceeds twice the
    bound, never earlier, and symmetric residues give Delta * det(X*I - M),
    whose primitive part is returned (IntPoly([1]) for the 0x0 matrix).
    """
    dens = [math.lcm(*(e.denominator for e in row)) for row in M.rows]
    B = [[e.numerator * (d // e.denominator) for e in row] for d, row in zip(dens, M.rows)]
    delta, bound = math.prod(dens), [1]
    for d, row in zip(dens, B):
        rho = math.isqrt(sum(b * b for b in row) - 1) + 1 if any(row) else 0
        bound = [d * a + rho * b for a, b in zip(bound + [0], [0] + bound)]
    coeffs, modulus, i = [0] * (M.n + 1), 1, 0
    while modulus <= 2 * max(bound):
        p, i = word_prime(i), i + 1
        if delta % p:
            # Garner: keep coeffs mod modulus, add delta * det(X*I - M) mod p
            inv, dp = pow(modulus, -1, p), delta % p
            residues = _char_poly_mod(B, dens, p)
            coeffs = [c + modulus * ((dp * r - c) * inv % p) for c, r in zip(coeffs, residues)]
            modulus *= p
    return primitivize(c - modulus if 2 * c > modulus else c for c in coeffs)


def companion(f: IntPoly) -> RationalMatrix:
    """Companion matrix of f/lead(f), for f of degree >= 1: char_poly(companion(f)) == f.primitive_part()."""
    n = f.degree
    if n < 1:
        raise ValueError("companion requires degree >= 1")
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


def operator_norm(M: RationalMatrix, place) -> Fraction:
    """max over rows of the sum of place-norms of the entries.

    ``place`` is a prime or math.inf; finite-place entry norms p**(-vp) are
    exact rationals.
    """
    if M.n == 0:
        return Fraction(0)
    if place == math.inf:
        return max(sum(abs(e) for e in row) for row in M.rows)
    return max(sum(pnorm(e, place) for e in row) for row in M.rows)
