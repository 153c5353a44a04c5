import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from algentropy import ratpoly
from algentropy.ratpoly import (
    IntPoly,
    InvariantError,
    cyclotomic,
    parse_rational,
    poly_gcd,
    primitivize,
    squarefree_decomposition,
)

from algentropy.linalg import RationalMatrix, char_poly
from algentropy.mahler import split_unit_circle
from algentropy.numtheory import word_prime

from oracles import division_cyclotomic, fraction_euclid_gcd, monic, vp


def test_vp_examples():
    assert vp(Fraction(3, 2), 2) == -1
    assert vp(50, 5) == 2


def test_vp_multiplicative_and_ultrametric():
    rng = random.Random(11)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(300):
        p = rng.choice(primes)
        x = Fraction(rng.randint(1, 400) * rng.choice([-1, 1]), rng.randint(1, 400))
        y = Fraction(rng.randint(1, 400) * rng.choice([-1, 1]), rng.randint(1, 400))
        assert ratpoly.valuation(x.numerator, p) - ratpoly.valuation(x.denominator, p) == vp(x, p)
        assert vp(x * y, p) == vp(x, p) + vp(y, p)
        if x + y != 0:
            assert vp(x + y, p) >= min(vp(x, p), vp(y, p))
            if vp(x, p) != vp(y, p):
                assert vp(x + y, p) == min(vp(x, p), vp(y, p))


def test_product_formula_exact_on_valuations():
    # |x|_inf equals the product of p^vp(x) over the supporting primes
    rng = random.Random(5)
    for _ in range(200):
        x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        rebuilt = Fraction(1)
        for p in set(_prime_factors(x.numerator) + _prime_factors(x.denominator)):
            rebuilt *= Fraction(p) ** vp(x, p)
        assert rebuilt == abs(x)


def _prime_factors(n):
    from algentropy.numtheory import prime_divisors

    return prime_divisors(n)


def test_poly_mul_examples():
    assert (IntPoly([-1, 1]) * IntPoly([1, 1])).coeffs == (-1, 0, 1)
    f = IntPoly([4, -7, 0, 2])
    assert (f * IntPoly([1])).coeffs == f.coeffs
    assert (IntPoly([-3, 2]) * IntPoly([-2, 3])).coeffs == (6, -13, 6)


def test_int_poly_plus_fraction_is_a_type_error():
    # the integer constructor would truncate the sum to IntPoly([1, 1])
    with pytest.raises(TypeError):
        IntPoly([1, 1]) + Fraction(1, 2)


def test_int_poly_times_fraction_is_a_type_error():
    with pytest.raises(TypeError):
        IntPoly([1, 1]) * Fraction(1, 2)


def test_int_poly_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        IntPoly([Fraction(1, 2), 1])
    with pytest.raises(TypeError):
        IntPoly([2.7])
    # integral Fractions are integers
    assert IntPoly([Fraction(4, 2), 1]) == IntPoly([2, 1])
    assert all(type(c) is int for c in IntPoly([Fraction(-3), 5]).coeffs)


def test_int_times_int_poly():
    assert 3 * IntPoly([1, 2]) == IntPoly([3, 6])


def test_reciprocal():
    assert IntPoly([-3, 2]).reciprocal().coeffs == (2, -3)
    pal = IntPoly([5, -6, 5])
    assert pal.reciprocal() == pal
    f = IntPoly([3, 0, -2, 7])
    assert f.reciprocal().reciprocal() == f
    with pytest.raises(ValueError):
        IntPoly([0, 1]).reciprocal()


def test_poly_gcd_examples():
    g = poly_gcd(IntPoly([-1, 0, 1]), IntPoly([0, -1, 1]))
    assert g == IntPoly([-1, 1])
    f = IntPoly([2, 5, 3])
    assert poly_gcd(f, f) == f
    assert poly_gcd(IntPoly([1, 0, 1]), IntPoly([-1, 0, 1])).degree == 0
    # the remainder sequence ends in a nonzero constant: coprime, gcd 1
    assert poly_gcd(IntPoly([1, 1, 0, 1]), IntPoly([-1, 2])) == IntPoly([1])
    assert poly_gcd(IntPoly([3]), f) == IntPoly([1])
    # zero arguments, contents and signs: the gcd is primitive with positive lead
    assert poly_gcd(f * 6, IntPoly([0])) == f
    assert poly_gcd(IntPoly([0]), IntPoly([-15, -50])) == IntPoly([3, 10])
    assert poly_gcd(f * -4, f * IntPoly([1, 1]) * 6) == f
    assert poly_gcd(IntPoly([0]), IntPoly([7])) == IntPoly([1])
    with pytest.raises(ValueError):
        poly_gcd(IntPoly([0]), IntPoly([0]))


def _random_int_poly(rng, deg, bound):
    lead = rng.choice([-1, 1]) * rng.randint(1, bound)
    return IntPoly([rng.randint(-bound, bound) for _ in range(deg)] + [lead])


def test_poly_gcd_matches_fraction_euclid_oracle():
    rng = random.Random(31)
    for _ in range(150):
        common = _random_int_poly(rng, rng.randint(0, 4), 6) * rng.randint(1, 12)
        f = common * _random_int_poly(rng, rng.randint(0, 5), 9) * rng.randint(1, 12)
        g = common * _random_int_poly(rng, rng.randint(0, 5), 9)
        u = _random_int_poly(rng, rng.randint(1, 6), 9)
        v = _random_int_poly(rng, rng.randint(1, 6), 9)
        pairs = [
            (f, g),
            (g, f),
            (f, IntPoly([0])),
            (IntPoly([0]), g),
            # almost always coprime: the remainder sequence drops to a constant
            (u, v),
            (f * -rng.randint(1, 9), g),
        ]
        for a, b in pairs:
            gcd = poly_gcd(a, b)
            assert gcd.content() == 1 and gcd.lead > 0, (a, b)
            assert monic(gcd) == fraction_euclid_gcd(a, b), (a, b)
        assert poly_gcd(f, g).degree >= common.degree


def test_intpoly_divide():
    # a non-monic divisor: the quotient is exact in Z[x]
    g = IntPoly([3, 2])
    q = IntPoly([5, -1, 3])
    assert (g * q).divide(g) == q
    assert (g * q * -6).divide(-g) == q * 6
    # the first leading step 1/2 is not an integer
    assert IntPoly([1, 0, 1]).divide(IntPoly([1, 2])) is None
    # every step is integral but the remainder X^2 + 1 = (X + 1)(X - 1) + 2 is not zero
    assert IntPoly([1, 0, 1]).divide(IntPoly([1, 1])) is None
    # a dividend of lower degree divides only when it is zero
    assert IntPoly([1, 2]).divide(IntPoly([1, 0, 1])) is None
    assert IntPoly([0]).divide(IntPoly([1, 0, 1])) == IntPoly([0])
    # constant divisors divide exactly when they divide the content
    assert IntPoly([6, -4]).divide(IntPoly([-2])) == IntPoly([-3, 2])
    assert IntPoly([6, -3]).divide(IntPoly([2])) is None
    with pytest.raises(ZeroDivisionError):
        IntPoly([1, 1]).divide(IntPoly([0]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
)
def test_poly_gcd_property_matches_fraction_euclid(a, b, c):
    f = IntPoly(a) * IntPoly(c)
    g = IntPoly(b) * IntPoly(c)
    assume(not (f.is_zero and g.is_zero))
    gcd = poly_gcd(f, g)
    assert gcd.content() == 1 and gcd.lead > 0
    assert monic(gcd) == fraction_euclid_gcd(f, g)


def test_poly_gcd_divides_both():
    rng = random.Random(23)
    for _ in range(60):
        base = IntPoly([rng.randint(-5, 5) for _ in range(3)] + [rng.randint(1, 5)])
        f = base * IntPoly([rng.randint(-4, 4) for _ in range(2)] + [rng.randint(1, 4)])
        g = base * IntPoly([rng.randint(-4, 4), rng.randint(1, 4)])
        gcd = poly_gcd(f, g)
        for poly in (f, g):
            quotient = poly.divide(gcd)
            assert quotient is not None and quotient * gcd == poly


def test_poly_gcd_unlucky_prime_falls_back_to_the_remainder_sequence(monkeypatch):
    # X - 1 and X - 2^61 are coprime over Z, but both vanish at 1 modulo 2^61 - 1
    f, g = IntPoly([-1, 1]), IntPoly([-(2**61), 1])
    assert word_prime(0) == 2**61 - 1 and not ratpoly._coprime_mod(f, g, word_prime(0))
    calls = []
    real = IntPoly.pseudo_remainder
    monkeypatch.setattr(IntPoly, "pseudo_remainder", lambda a, b: calls.append(1) or real(a, b))
    assert poly_gcd(f, g) == IntPoly([1]) and calls


def test_poly_gcd_skips_a_prime_dividing_a_lead():
    # h mod 2^61 - 1 is the constant 1, so the first prime would see f and g as
    # coprime; it divides both leads and is skipped for the next one
    h = IntPoly([1, word_prime(0)])
    f, g = h * IntPoly([2, 1]), h * IntPoly([3, 1])
    assert ratpoly._coprime_mod(f, g, word_prime(0))
    assert poly_gcd(f, g) == h
    assert poly_gcd(h * IntPoly([1, 0, 1]), h * h) == h


_big_coeffs = st.lists(st.integers(-(2**70), 2**70), min_size=2, max_size=6)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    _big_coeffs,
    _big_coeffs,
    st.lists(st.integers(-9, 9), min_size=2, max_size=4),
    st.booleans(),
    st.sampled_from((1, 2**61 - 1)),
)
def test_poly_gcd_certificate_matches_fraction_euclid(a, b, c, planted, lead_scale):
    f, g, common = IntPoly(a), IntPoly(b), IntPoly(c)
    assume(common.degree > 0)
    # leads the first prime may divide: its reductions of f and common drop in degree
    f, common = (p + IntPoly([0] * p.degree + [p.lead * (lead_scale - 1)]) for p in (f, common))
    if planted:
        f, g = f * common, g * common
    assume(not (f.is_zero and g.is_zero))
    gcd = poly_gcd(f, g)
    assert gcd.content() == 1 and gcd.lead > 0
    assert monic(gcd) == fraction_euclid_gcd(f, g)
    if planted:
        assert gcd.degree >= common.degree


def test_poly_gcd_certificate_decides_a_dense_char_poly(monkeypatch):
    # gcd(P, P*) of the unit-circle split and gcd(f, f') of Yun's algorithm are
    # both 1 for a generic dense matrix; the modular certificate proves it alone
    rng = random.Random(8)
    M = RationalMatrix(
        [[Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(8)] for _ in range(8)]
    )
    P = char_poly(M)
    assert P.degree == 8 and P.coeffs[0] != 0

    def no_prs(a, b):
        raise AssertionError("the remainder sequence ran")

    monkeypatch.setattr(IntPoly, "pseudo_remainder", no_prs)
    assert poly_gcd(P, P.reciprocal()) == IntPoly([1])
    assert poly_gcd(P, P.derivative()) == IntPoly([1])
    assert split_unit_circle(P) == (IntPoly([1]), P)
    assert squarefree_decomposition(P) == [(P, 1)]


def test_primitivize_examples():
    P = primitivize([Fraction(-3, 2), 1])
    assert P.lead == 2 and P.coeffs == (-3, 2)
    P = primitivize([1, -2, 1])
    assert P.lead == 1
    P = primitivize([Fraction(1, 6), Fraction(-5, 6), 1])
    assert P.lead == 6 and P.coeffs == (1, -5, 6)


def test_clear_denominators():
    # primitivize clears any rational polynomial, monic or not
    assert primitivize([Fraction(1, 6), Fraction(-5, 6), 1]).coeffs == (1, -5, 6)
    assert primitivize([Fraction(-4, 3), Fraction(-2, 9)]).coeffs == (6, 1)
    assert primitivize([6, 4]).coeffs == (3, 2)
    assert primitivize([1, 2]).coeffs == (1, 2)
    assert primitivize([0]).coeffs == (0,)


def test_primitivize_minimality():
    from algentropy.numtheory import prime_divisors

    rng = random.Random(3)
    for _ in range(100):
        deg = rng.randint(1, 6)
        coeffs = [
            Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(deg)
        ] + [Fraction(1)]
        P = primitivize(coeffs)
        s = P.lead
        assert P.content() == 1
        assert P.coeffs == tuple(c * s for c in coeffs)
        for q in prime_divisors(s):
            smaller = s // q
            assert any(
                (c * smaller).denominator != 1 for c in coeffs
            ), "clearing integer is not minimal"


def test_squarefree_decomposition_roundtrip():
    rng = random.Random(9)
    for _ in range(40):
        f1 = IntPoly([rng.randint(-4, 4), rng.randint(1, 4)])
        f2 = IntPoly([rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 4)])
        product = f1 * f1 * f2
        rebuilt = IntPoly([1])
        for factor, mult in squarefree_decomposition(product):
            for _ in range(mult):
                rebuilt = rebuilt * factor
        assert rebuilt.primitive_part() == product.primitive_part()


def test_squarefree_decomposition_over_z():
    # negative leads, contents > 1 and multiplicities up to 4: every factor
    # is primitive with positive lead, and they rebuild the product exactly
    rng = random.Random(47)
    for _ in range(40):
        product = IntPoly([rng.choice([-6, -4, -1, 1, 3, 10])])
        for mult in range(1, 5):
            if rng.random() < 0.7:
                lead = rng.choice([-3, -2, -1, 1, 2, 5])
                factor = IntPoly([rng.randint(-5, 5), rng.randint(-5, 5), lead])
                for _ in range(mult):
                    product = product * factor
        if product.degree < 1:
            continue
        factors = squarefree_decomposition(product)
        rebuilt = IntPoly([product.content() * (1 if product.lead > 0 else -1)])
        for factor, mult in factors:
            assert factor.content() == 1 and factor.lead > 0 and factor.degree >= 1
            assert poly_gcd(factor, factor.derivative()).degree == 0
            for _ in range(mult):
                rebuilt = rebuilt * factor
        assert rebuilt == product
        assert [m for _, m in factors] == sorted({m for _, m in factors})


def test_squarefree_decomposition_wrong_gcd_raises(monkeypatch):
    # (X - 1)^2 (X + 2): a gcd that does not divide fails at the first division
    poly = IntPoly([-1, 1]) * IntPoly([-1, 1]) * IntPoly([2, 1])
    monkeypatch.setattr(ratpoly, "poly_gcd", lambda f, g: IntPoly([3, 1]))
    with pytest.raises(InvariantError):
        squarefree_decomposition(poly)
    # a constant "gcd" divides everything but never peels the repeated
    # factor; the multiplicity bound stops the loop instead of spinning
    real_gcd = poly_gcd
    calls = []

    def first_call_only(f, g):
        calls.append(1)
        return real_gcd(f, g) if len(calls) == 1 else IntPoly([1])

    monkeypatch.setattr(ratpoly, "poly_gcd", first_call_only)
    with pytest.raises(InvariantError):
        squarefree_decomposition(poly)
    assert len(calls) <= poly.degree + 1


def test_cyclotomic_polynomials():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(4).coeffs == (1, 0, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(105).degree == 48  # first index with coefficient +/-2
    assert 2 in {abs(c) for c in cyclotomic(105).coeffs}


def test_cyclotomic_matches_the_division_recursion():
    for n in range(1, 1301):
        assert cyclotomic(n).coeffs == division_cyclotomic(n), n


def test_cyclotomic_division_check_raises(monkeypatch):
    # a wrong largest prime 4 of 24: Phi_6(X) does not divide Phi_6(X^4),
    # as 4 and 6 share the factor 2
    real_prime_divisors = ratpoly.prime_divisors
    cyclotomic.cache_clear()
    monkeypatch.setattr(
        ratpoly, "prime_divisors", lambda n: [2, 4] if n == 24 else real_prime_divisors(n)
    )
    with pytest.raises(InvariantError):
        cyclotomic(24)
    cyclotomic.cache_clear()
    assert not issubclass(InvariantError, ValueError)


def test_parse_rational():
    assert parse_rational("3/2") == (3, 2)
    assert parse_rational("-7") == (-7, 1)
    assert parse_rational(4) == (4, 1)
    assert parse_rational(" -12/8 ") == parse_rational(Fraction(-3, 2)) == (-3, 2)
    for bad in ("a/b", "1/0", True, 1.5):
        with pytest.raises(ValueError):
            parse_rational(bad)
