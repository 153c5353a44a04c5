import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algentropy import linalg
from algentropy.linalg import (
    RationalMatrix,
    SingularMatrixError,
    block_diag,
    char_poly,
    companion,
    inverse,
)
from algentropy.numtheory import is_prime, word_prime
from algentropy.ratpoly import IntPoly, primitivize

from oracles import faddeev_char_poly, hessenberg_char_poly, monic, trace, transpose


def _random_matrix(rng, n, bound=9):
    return RationalMatrix(
        [
            [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def _sparse_matrix(rng, n, density):
    """Random rational matrix with most entries zero, so Hessenberg pivots vanish."""
    return RationalMatrix(
        [
            [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < density else 0
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def _block_triangular(rng, n):
    """[[A, B], [0, C]]: the Hessenberg form keeps a zero subdiagonal entry."""
    k = rng.randint(1, n - 1)
    return RationalMatrix(
        [
            [
                0 if i >= k and j < k else Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def _permuted(rng, M):
    """M conjugated by a random permutation, which moves its zeros onto pivots."""
    perm = list(range(M.n))
    rng.shuffle(perm)
    return RationalMatrix([[M[perm[i], perm[j]] for j in range(M.n)] for i in range(M.n)])


def _random_cleared(rng, deg):
    """A random monic rational polynomial, cleared to its primitive integer multiple."""
    return primitivize(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)] + [1]
    )


def test_char_poly_examples():
    assert char_poly(RationalMatrix([[1, 1], [0, 1]])) == IntPoly([1, -2, 1])
    assert char_poly(RationalMatrix([[0, -1], [1, 0]])) == IntPoly([1, 0, 1])
    assert char_poly(RationalMatrix([["3/2"]])) == IntPoly([-3, 2])
    assert char_poly(RationalMatrix([])) == IntPoly([1])
    # zero pivot in the first column: rows and columns 1 and 2 swap
    assert char_poly(RationalMatrix([[0, 0, 1], [0, 0, 1], [1, 0, 0]])) == IntPoly([0, -1, 0, 1])
    assert char_poly(RationalMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])) == IntPoly([-1, 0, 0, 1])
    # triangular: every subdiagonal entry is zero
    triangular = RationalMatrix([[1, 2, 3], [0, 4, 5], [0, 0, 6]])
    assert char_poly(triangular) == IntPoly([-24, 34, -11, 1])
    assert char_poly(RationalMatrix([[0] * 4] * 4)) == IntPoly([0, 0, 0, 0, 1])


def test_char_poly_matches_faddeev_oracle():
    rng = random.Random(14)
    for n in range(1, 11):
        sparse = _sparse_matrix(rng, n, 0.3)
        cases = [_random_matrix(rng, n), sparse, _permuted(rng, sparse)]
        if n >= 2:
            block = _block_triangular(rng, n)
            cases += [block, _permuted(rng, block)]
        for M in cases:
            assert monic(char_poly(M)) == faddeev_char_poly(M), M


# mixed denominators: small ones, up to 40 bits, and the first modulus char_poly tries
_DENOMINATOR = st.integers(1, 12) | st.integers(1, 2**40) | st.just(2**61 - 1)
_ENTRY = st.just(Fraction(0)) | st.builds(Fraction, st.integers(-(2**20), 2**20), _DENOMINATOR)


@st.composite
def _rational_matrices(draw):
    n = draw(st.integers(0, 8))
    return RationalMatrix(draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)))


@settings(max_examples=80, deadline=None)
@given(_rational_matrices())
@example(RationalMatrix([]))
@example(RationalMatrix([[0]]))
def test_char_poly_matches_hessenberg_oracle(M):
    P = char_poly(M)
    assert P.content() == 1 and P.lead > 0 and P.degree == M.n
    assert monic(P) == hessenberg_char_poly(M)


def _distinct_primes(rng, bits, count):
    primes = set()
    while len(primes) < count:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(p):
            primes.add(p)
    return list(primes)


def test_char_poly_skips_a_modulus_dividing_the_denominators():
    q = word_prime(0)
    assert q == 2**61 - 1
    M = RationalMatrix([[Fraction(1, q), 2], [3, Fraction(5, 7)]])
    assert monic(char_poly(M)) == hessenberg_char_poly(M) == (
        Fraction(5, 7 * q) - 6, -Fraction(1, q) - Fraction(5, 7), 1
    )
    assert char_poly(RationalMatrix([[Fraction(-1, q)]])) == IntPoly([1, q])


def _power(f: IntPoly, k: int) -> IntPoly:
    out = IntPoly([1])
    for _ in range(k):
        out = out * f
    return out


def test_char_poly_meets_the_bound_with_equality():
    # diag(R, ..., R) has Delta = 1 and rho_i = |R|, so the bound [t^k] (1 + |R| t)^8
    # is |[X^(8-k)] (X -+ R)^8| itself.  R^8 lies just above half the product of
    # the first nine moduli: with nine, or under half the bound, the symmetric
    # residue of R^8 would come out negative
    m9 = math.prod(word_prime(i) for i in range(9))
    R = math.isqrt(math.isqrt(math.isqrt(m9 // 2))) + 1
    assert m9 < 2 * R**8 < 2 * m9 and 2**68 < R < 2**70
    for r in (R, -R):
        M = RationalMatrix([[r if i == j else 0 for j in range(8)] for i in range(8)])
        assert char_poly(M) == _power(IntPoly([-r, 1]), 8)


def test_char_poly_rounds_row_norms_up():
    # four blocks [[a, -b], [b, a]] have orthogonal rows, so Hadamard's bound is
    # met: det = s^4 with s = a^2 + b^2, a < sqrt(s) < a + 1 and s^4 > m9 / 2.  The
    # bound takes rho = a + 1; floor(sqrt(s)) = a would give a^8 < m9 / 2, and
    # nine moduli would not be enough
    m9 = math.prod(word_prime(i) for i in range(9))
    r = math.isqrt(math.isqrt(m9 // 2))
    a = math.isqrt(r)
    b = math.isqrt(r - a * a) + 1
    s = a * a + b * b
    assert a**8 < m9 // 2 < s**4 and s < (a + 1) ** 2
    M = RationalMatrix(
        [
            [(a if i == j else (-b if j == i + 1 else b)) if i // 2 == j // 2 else 0 for j in range(8)]
            for i in range(8)
        ]
    )
    assert char_poly(M) == _power(IntPoly([s, -2 * a, 1]), 4)


def test_char_poly_with_distinct_40_bit_prime_denominators():
    rng = random.Random(40)
    dens = _distinct_primes(rng, 40, 64)
    M = RationalMatrix(
        [[Fraction(rng.randint(-99, 99), dens[8 * i + j]) for j in range(8)] for i in range(8)]
    )
    assert monic(char_poly(M)) == hessenberg_char_poly(M)


def _counting_passes(monkeypatch) -> list:
    """Record the modulus of every `_char_poly_mod` pass, splits included."""
    moduli, run = [], linalg._char_poly_mod

    def counting(B, dens, q):
        moduli.append(q)
        return run(B, dens, q)

    monkeypatch.setattr(linalg, "_char_poly_mod", counting)
    return moduli


@pytest.mark.parametrize("primes", [1, 6, 7, 13])
def test_char_poly_runs_one_pass_per_product_of_primes(monkeypatch, primes):
    # [[R]] has Delta = 1 and bound [1, R]: with R the product of the first
    # primes - 1 word primes, exactly `primes` of them make the modulus exceed 2R
    R = math.prod(word_prime(i) for i in range(primes - 1))
    moduli = _counting_passes(monkeypatch)
    assert char_poly(RationalMatrix([[R]])) == IntPoly([-R, 1])
    K = linalg._PRIMES_PER_MODULUS
    assert len(moduli) == -(-primes // K)
    assert math.prod(moduli) == math.prod(word_prime(i) for i in range(primes))


def test_char_poly_over_several_products_matches_the_oracle(monkeypatch):
    rng = random.Random(22)
    M = RationalMatrix(
        [[Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 10**6)) for _ in range(7)] for _ in range(7)]
    )
    moduli = _counting_passes(monkeypatch)
    assert monic(char_poly(M)) == hessenberg_char_poly(M)
    assert len(moduli) >= 3


def test_char_poly_splits_the_modulus_at_a_zero_divisor_pivot(monkeypatch):
    # the column-0 pivot 2^61 - 1 = word_prime(0) is nonzero but no unit modulo
    # the product of the first primes: the pass splits off that prime
    q0 = word_prime(0)
    M = RationalMatrix([[0, 1, 0], [q0, 0, 1], [1, 1, 10**30]])
    moduli = _counting_passes(monkeypatch)
    assert monic(char_poly(M)) == hessenberg_char_poly(M)
    assert char_poly(M) == IntPoly(
        [2305843009213693950999999999999999999999999999999, -2305843009213693952, -(10**30), 1]
    )
    assert q0 in moduli and moduli[0] % q0 == 0 and moduli[0] != q0


# entries that vanish modulo one of the first word primes, so that pivots are zero divisors
_WORD_PRIME_MULTIPLE = st.builds(lambda c, i: c * word_prime(i), st.integers(-3, 3), st.integers(0, 2))
_PLAIN_ENTRY = st.integers(-9, 9) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(_WORD_PRIME_MULTIPLE | _PLAIN_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n
    )
))
@example([[0, 1, 0], [word_prime(0) * word_prime(1), 0, 1], [1, 1, 10**30]])  # splits off two primes
def test_char_poly_with_word_prime_multiples_matches_the_oracle(rows):
    M = RationalMatrix(rows)
    assert monic(char_poly(M)) == hessenberg_char_poly(M)


def test_char_poly_det_trace():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 4)
        M = _random_matrix(rng, n)
        f = monic(char_poly(M))
        assert len(f) == n + 1 and f[n] == 1
        assert -f[n - 1] == trace(M)


def test_companion_roundtrip():
    rng = random.Random(4)
    for _ in range(60):
        f = _random_cleared(rng, rng.randint(1, 8))
        assert char_poly(companion(f)) == f


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=30), min_size=1, max_size=8
    )
)
def test_char_poly_of_companion_property(lower):
    g = primitivize(lower + [1])
    assert char_poly(companion(g)) == g


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-(2**40), 2**40), max_size=8),
    st.integers(-(2**40), 2**40).filter(bool),
)
@example([], -5)
def test_char_poly_of_companion_is_the_primitive_part(lower, lead):
    # any nonzero lead, negative and non-monic included, any content, and
    # degree 0, whose companion is the 0x0 matrix
    f = IntPoly(lower + [lead])
    assert char_poly(companion(f)) == f.primitive_part()


def test_companion_examples():
    C = companion(IntPoly([1, -5, 6]))
    assert C.rows == ((Fraction(0), Fraction(-1, 6)), (Fraction(1), Fraction(5, 6)))
    assert companion(IntPoly([-3, 2])).rows == ((Fraction(3, 2),),)
    assert companion(IntPoly([3, -2])) == companion(IntPoly([-3, 2]))
    assert companion(IntPoly([5])) == RationalMatrix([])
    with pytest.raises(ValueError):
        companion(IntPoly([0]))


def test_char_poly_transpose_and_conjugation():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, 4)
        M = _random_matrix(rng, n)
        assert char_poly(M) == char_poly(transpose(M))
        while True:
            P = RationalMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            try:
                Pinv = inverse(P)
                break
            except SingularMatrixError:
                continue
        assert char_poly(Pinv * M * P) == char_poly(M)


def test_block_diag():
    A = RationalMatrix([[2]])
    B = RationalMatrix([[3]])
    assert block_diag(A, B).rows == ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(3)))
    assert block_diag(RationalMatrix.identity(1), RationalMatrix.identity(1)) == (
        RationalMatrix.identity(2)
    )
    rng = random.Random(8)
    for _ in range(30):
        A = _random_matrix(rng, rng.randint(1, 3))
        B = _random_matrix(rng, rng.randint(1, 3))
        assert char_poly(block_diag(A, B)) == char_poly(A) * char_poly(B)


def test_inverse():
    M = RationalMatrix([[2, 1], [1, 1]])
    assert inverse(M).rows == ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(2)))
    assert inverse(RationalMatrix.identity(3)) == RationalMatrix.identity(3)
    with pytest.raises(SingularMatrixError):
        inverse(RationalMatrix([[1, 1], [1, 1]]))
    rng = random.Random(10)
    checked = 0
    while checked < 40:
        M = _random_matrix(rng, rng.randint(1, 4))
        try:
            Minv = inverse(M)
        except SingularMatrixError:
            continue
        assert M * Minv == RationalMatrix.identity(M.n)
        checked += 1


def test_matrix_power_and_validation():
    M = RationalMatrix([[0, 1], [1, 1]])
    assert M**5 == M * M * M * M * M
    assert M**0 == RationalMatrix.identity(2)
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2]])
