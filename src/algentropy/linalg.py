"""Exact linear algebra over Q.

Matrices are immutable tuples of Fraction rows.  The characteristic
polynomial is computed by reduction to upper Hessenberg form and the
Hessenberg recurrence, O(n^3) exact operations over Q; the companion matrix
convention (ones on the subdiagonal, negated coefficients in the last
column) is already Hessenberg, and makes char_poly(companion(f)) == f a
round-trip identity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .ratpoly import RatPoly, parse_rational, pnorm


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
        d = 1
        for row in self.rows:
            for e in row:
                d = d * e.denominator // math.gcd(d, e.denominator)
        return d


def char_poly(M: RationalMatrix) -> RatPoly:
    """Monic characteristic polynomial det(X*I - M), exactly.

    Hessenberg method (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.2.9): reduce M to upper Hessenberg H by exact similarity
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
    return RatPoly(polys[n])


def companion(f: RatPoly) -> RationalMatrix:
    """Companion matrix of a monic polynomial of degree >= 1."""
    if not f.is_monic:
        raise ValueError("companion requires a monic polynomial")
    n = f.degree
    if n < 1:
        raise ValueError("companion requires degree >= 1")
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = Fraction(1)
    for i in range(n):
        rows[i][n - 1] = -f.coeffs[i]
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
