"""Exact rational scalars and integer polynomial arithmetic.

Rational scalars are plain ``fractions.Fraction`` values: the stdlib class
already keeps gcd(|num|, den) = 1 with den >= 1, is immutable and hashable,
which is exactly the canonical form the rest of the package relies on for
set membership of vectors.

Polynomials are `IntPoly`s: integer coefficient tuples in ascending degree
order; the same ascending convention is used in every file format of the
CLI.  The zero polynomial is the single coefficient (0,).  A rational
polynomial enters only through `primitivize`, which clears it to the
primitive integer polynomial with positive lead; the characteristic
polynomial of a matrix arrives in that form.  The exact core (clearing,
gcd, square-free decomposition, cyclotomic factors) runs on `IntPoly`: by
Gauss's lemma every factor it takes of a primitive integer polynomial is
again one.
"""

from __future__ import annotations

import functools
import math
import numbers
from fractions import Fraction
from typing import Iterable, Union

from .numtheory import prime_divisors, word_prime

Rational = Union[int, Fraction]


class InvariantError(ArithmeticError):
    """An internal exact identity failed: a defect in the library, not bad input.

    Deliberately not a ValueError, so it is never reported as an input
    error.  Raised instead of ``assert`` so that ``python -O`` keeps the check.
    """


def valuation(n: int, p: int) -> int:
    """The exponent of p in the nonzero integer n; p is not checked for primality."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def parse_rational(text) -> Fraction:
    """Parse "a/b" or "a" (ASCII digits, optional sign) or an int into a canonical Fraction.

    Any other string, such as "0.5", "1e9" or "1_000", is a ValueError: an
    exponent would let a few bytes ask for a number of any size.
    """
    if isinstance(text, bool):
        raise ValueError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        num, slash, den = text.strip().partition("/")
        if _digits(num[1:] if num[:1] in ("+", "-") else num) and (not slash or _digits(den)):
            return Fraction(int(num), int(den or 1))
    raise ValueError(f"not a rational: {text!r}")


def _digits(text: str) -> bool:
    """text is one or more ASCII digits."""
    return text.isascii() and text.isdigit()


def _integer(c) -> int:
    """c as an int: an integer or an integral Fraction, else TypeError (never truncated)."""
    if type(c) is int:
        return c
    if isinstance(c, numbers.Integral) or (isinstance(c, Fraction) and c.denominator == 1):
        return int(c)
    raise TypeError(f"IntPoly coefficients must be integers, got {c!r}")


class IntPoly:
    """Integer polynomial, coefficients ascending by degree.

    It combines with `IntPoly`s and ints only; anything else, a Fraction
    included, raises TypeError rather than being truncated by the
    constructor.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [_integer(c) for c in coeffs] or [0]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        return self.coeffs[-1]

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def _operand(self, other) -> tuple:
        """The coefficients of a polynomial this one may combine with."""
        if not isinstance(other, IntPoly):
            raise TypeError(f"cannot combine IntPoly with {type(other).__name__}")
        return other.coeffs

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __add__(self, other) -> "IntPoly":
        a, b = self.coeffs, self._operand(other)
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other) -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        b = self._operand(other)
        if self.is_zero or other.is_zero:
            return IntPoly([0])
        out = [0] * (len(self.coeffs) + len(b) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, c in enumerate(b):
                out[i + j] += a * c
        return IntPoly(out)

    __rmul__ = __mul__

    def derivative(self) -> "IntPoly":
        if self.degree == 0:
            return IntPoly([0])
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        """Horner evaluation; works for any ring element (Fraction, mpc, ...)."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs) if len(self.coeffs) > 1 else abs(self.coeffs[0])

    def primitive_part(self) -> "IntPoly":
        """self divided by its content, sign fixed so the lead is positive."""
        c = self.content()
        if c == 0:
            return self
        if self.lead < 0:
            c = -c
        return IntPoly([x // c for x in self.coeffs])

    def reciprocal(self) -> "IntPoly":
        """X^deg * self(1/X): the coefficient list reversed."""
        if self.coeffs[0] == 0:
            raise ValueError("reciprocal requires a nonzero constant term")
        return IntPoly(list(reversed(self.coeffs)))

    def shift(self, k: int) -> "IntPoly":
        """Multiply by X^k."""
        if self.is_zero:
            return self
        return IntPoly([0] * k + list(self.coeffs))

    def strip_x(self) -> tuple["IntPoly", int]:
        """Factor out the largest power of X: returns (quotient, k)."""
        if self.is_zero:
            return self, 0
        k = 0
        while self.coeffs[k] == 0:
            k += 1
        return IntPoly(self.coeffs[k:]), k

    def divide(self, g: "IntPoly") -> "IntPoly | None":
        """self / g when g divides self in Z[x], else None.

        Returns None as soon as a leading coefficient is not divisible by
        lead(g), so a failed division by a non-monic g usually stops early.
        """
        if g.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dg, lg, gs = g.degree, g.lead, g.coeffs
        quot = []
        for top in range(len(rem) - 1, dg - 1, -1):
            c = rem[top]
            if c:
                if c % lg:
                    return None
                c //= lg
                shift = top - dg
                for j in range(dg):
                    rem[shift + j] -= c * gs[j]
            quot.append(c)
        if any(rem[:dg]):
            return None
        return IntPoly(quot[::-1])

    def pseudo_remainder(self, g: "IntPoly") -> "IntPoly":
        """Remainder of lead(g)^k * self by g over Z, for some k >= 0.

        Each reduction step scales the running remainder by lead(g) only when
        its top coefficient is nonzero, so the result is the classical
        pseudo-remainder up to a power of lead(g); callers that take the
        primitive part see no difference.
        """
        if g.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dg, lg = g.degree, g.lead
        for top in range(len(rem) - 1, dg - 1, -1):
            c = rem[top]
            if c:
                shift = top - dg
                rem = [lg * x for x in rem[:top]]
                for j in range(dg):
                    rem[shift + j] -= c * g.coeffs[j]
            else:
                rem.pop()
        return IntPoly(rem)


def primitivize(coeffs: Iterable[Rational]) -> IntPoly:
    """The primitive integer polynomial with positive lead proportional to the
    polynomial with these ascending ``int``/``Fraction`` coefficients.

    This is the one denominator-clearing step, and `linalg.char_poly` ends
    with it, so it stays a module-level name: the benchmark's tracer records
    it as ``ratpoly.primitivize`` on every matrix input.  For monic input
    the multiplier is the lcm of the coefficient denominators, which is also
    the lead s of the result: some coefficient carries the full power of each
    prime of that lcm in its denominator, so no prime divides every cleared
    coefficient.
    """
    coeffs = tuple(coeffs)
    den = math.lcm(*(c.denominator for c in coeffs))
    return IntPoly([c.numerator * (den // c.denominator) for c in coeffs]).primitive_part()


def _coprime_mod(f: IntPoly, g: IntPoly, p: int) -> bool:
    """Whether f mod p and g mod p, both of degree >= 1, are coprime over GF(p).

    Euclid with the divisor made monic, so each step is one multiply-subtract.
    """
    a, b = [c % p for c in f.coeffs], [c % p for c in g.coeffs]
    while True:
        while b and not b[-1]:
            b.pop()
        if len(b) <= 1:  # b is a nonzero constant (coprime) or zero (the gcd is a, not constant)
            return len(b) == 1
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        db = len(b) - 1
        for top in range(len(a) - 1, db - 1, -1):
            if c := a[top]:
                lo = top - db
                a[lo:top] = [(x - c * y) % p for x, y in zip(a[lo:top], b)]
        del a[db:]
        a, b = b, a


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """The gcd of two integer polynomials: primitive, with positive lead.

    First a coprimality certificate: for a word prime p dividing neither
    lead, a constant gcd of the reductions mod p proves the gcd h in Z[x]
    is 1.  (lead(h) divides lead(f), so h mod p keeps the degree of h and
    divides both reductions; so deg h <= deg gcd_p = 0.)  Otherwise, an
    unlucky p or a real common factor, a primitive polynomial remainder
    sequence decides: Euclid runs on pseudo-remainders over Z, each reduced
    to its primitive part, and by Gauss's lemma the last nonzero term is the
    gcd in Z[x] up to sign.  Dividing out each content keeps the integers
    near the size of the inputs, where Euclid over Fraction coefficients
    lets numerators and denominators grow.
    """
    a, b = f.primitive_part(), g.primitive_part()
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.degree > 0 and b.degree > 0:
        i = 0
        while not (a.lead % (p := word_prime(i)) and b.lead % p):
            i += 1
        if _coprime_mod(a, b, p):
            return IntPoly([1])
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        if b.degree == 0:
            return IntPoly([1])
        a, b = b, a.pseudo_remainder(b).primitive_part()
    return a


def squarefree_decomposition(P: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun's algorithm: P = +/- content * prod A_i^i with A_i squarefree.

    Returns [(A_i primitive with positive lead, i)] for the non-constant
    factors, in increasing multiplicity order.
    """
    if P.is_zero:
        raise ValueError("zero polynomial")
    if P.degree == 0:
        return []
    f = P.primitive_part()
    df = f.derivative()
    g = poly_gcd(f, df)
    # every divisor is primitive, so each quotient of Yun's algorithm is in Z[x]
    w, h = f.divide(g), df.divide(g)
    out: list[tuple[IntPoly, int]] = []
    i = 1
    while True:
        if w is None or h is None:
            raise InvariantError(f"a gcd factor in Yun's algorithm does not divide, for {P}")
        if w.degree == 0:
            return out
        if i > P.degree:
            raise InvariantError(f"multiplicity {i} exceeds the degree of {P}")
        y = h - w.derivative()
        if y.is_zero:
            out.append((w, i))
            return out
        a = poly_gcd(w, y)
        if a.degree > 0:
            out.append((a, i))
        w, h = w.divide(a), y.divide(a)
        i += 1


@functools.cache
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial.  With p the largest prime of n and m = n/p,
    Phi_n(X) is Phi_m(X^p) when p | m, else the exact quotient Phi_m(X^p) / Phi_m(X)
    (Arnold and Monagan, Math. Comp. 80 (2011))."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if n == 1:
        return IntPoly([-1, 1])
    p = prime_divisors(n)[-1]
    m = n // p
    phi = cyclotomic(m)
    lifted = [0] * (phi.degree * p + 1)
    lifted[::p] = phi.coeffs
    if m % p == 0:
        return IntPoly(lifted)
    poly = IntPoly(lifted).divide(phi)
    if poly is None:
        raise InvariantError(f"cyclotomic({m}) does not divide its value at X^{p}")
    return poly
