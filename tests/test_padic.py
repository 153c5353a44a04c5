import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from algentropy import cli
from algentropy.entropy import algebraic_entropy, polynomial_entropy
from algentropy.linalg import RationalMatrix, char_poly
from algentropy.padic import newton_polygon, verify_place_identity
from algentropy.ratpoly import IntPoly

from oracles import periodic_point_valuations, root_valuations, vp


def test_polygon_examples():
    p = newton_polygon(IntPoly([-3, 2]), 2)
    assert p.points == ((0, 0), (1, 1))
    assert [(s.slope, s.length) for s in p.segments] == [(1, 1)]
    assert root_valuations(p) == [-1]  # root 3/2 has v2 = -1

    p = newton_polygon(IntPoly([1, -5, 6]), 2)
    assert [(s.slope, s.length) for s in p.segments] == [(0, 1), (1, 1)]
    assert sorted(root_valuations(p)) == [-1, 0]  # roots 1/2 and 1/3

    p = newton_polygon(IntPoly([1, 0, 1]), 2)
    assert [(s.slope, s.length) for s in p.segments] == [(0, 2)]

    # three collinear points: the middle one is no vertex, one segment remains
    p = newton_polygon(IntPoly([1, 2, 4]), 2)
    assert [(s.slope, s.length) for s in p.segments] == [(1, 2)]


def test_polygon_validation():
    with pytest.raises(ValueError):
        newton_polygon(IntPoly([2, -6]), 2)  # content 2
    with pytest.raises(ValueError):
        newton_polygon(IntPoly([-3, 2]), 6)  # not prime
    with pytest.raises(ValueError):
        newton_polygon(IntPoly([7]), 5)  # content 7
    # the constant 1 is primitive: one point and no segment
    polygon = newton_polygon(IntPoly([1]), 5)
    assert polygon.points == ((0, 0),) and polygon.segments == ()


def test_polygon_shape_invariants():
    rng = random.Random(17)
    for _ in range(150):
        deg = rng.randint(1, 9)
        coeffs = [rng.randint(-500, 500) for _ in range(deg)] + [rng.randint(1, 500)]
        poly = IntPoly(coeffs).primitive_part()
        if poly.degree < 1:
            continue
        p = rng.choice([2, 3, 5, 7])
        polygon = newton_polygon(poly, p)
        slopes = [s.slope for s in polygon.segments]
        assert all(a < b for a, b in zip(slopes, slopes[1:]))
        first_nonzero = next(i for i, c in enumerate(poly.coeffs) if c != 0)
        assert sum(s.length for s in polygon.segments) == poly.degree - first_nonzero
        assert polygon.points[0][0] == first_nonzero
        assert polygon.points[-1] == (poly.degree, vp(poly.lead, p))


# primes below 2^64 and past it, where is_prime switches to Baillie-PSW
_POLYGON_PRIMES = (2, 3, 7, 1009, 2**61 - 1, 2**89 - 1, 2**127 - 1)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.sampled_from(_POLYGON_PRIMES),
    st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(0, 4)), min_size=2, max_size=9),
)
def test_polygon_points_are_coefficient_valuations(p, terms):
    # each coefficient u * p^e, u of any sign and possibly divisible by p
    poly = IntPoly([u * p**e for u, e in terms]).primitive_part()
    assume(poly.degree >= 1)
    polygon = newton_polygon(poly, p)
    assert list(polygon.points) == [(i, vp(c, p)) for i, c in enumerate(poly.coeffs) if c != 0]


def test_polygon_against_linear_factor_oracle():
    # P = prod (q_i X - r_i) with coprime pairs: the polygon's root
    # valuations at p must equal the multiset {vp(r_i / q_i)}
    rng = random.Random(31)
    for _ in range(120):
        factors = []
        poly = IntPoly([1])
        for _ in range(rng.randint(1, 5)):
            while True:
                q = rng.randint(1, 40)
                r = rng.randint(-40, 40)
                if r != 0 and math.gcd(q, abs(r)) == 1:
                    break
            factors.append((q, r))
            poly = poly * IntPoly([-r, q])
        p = rng.choice([2, 3, 5, 7, 11])
        polygon = newton_polygon(poly.primitive_part(), p)
        expected = sorted(Fraction(vp(Fraction(r, q), p)) for q, r in factors)
        assert sorted(root_valuations(polygon)) == expected


def _polygon_contributions(capsys, coeffs) -> dict[int, tuple[str, float]]:
    """{p: (contribution_exact, contribution)} from the polygon subcommand."""
    assert cli.main(["polygon", "--poly", json.dumps(coeffs)]) == 0
    doc = json.loads(capsys.readouterr().out)
    return {row["p"]: (row["contribution_exact"], row["contribution"]) for row in doc["primes"]}


def test_place_contribution_examples(capsys):
    assert newton_polygon(IntPoly([-3, 2]), 2).positive_mass() == 1
    [(exact, value)] = _polygon_contributions(capsys, [-3, 2]).values()
    assert exact == "1" and abs(value - math.log(2)) < 1e-15
    assert newton_polygon(IntPoly([1, 0, 1]), 2).positive_mass() == 0
    assert _polygon_contributions(capsys, [1, 0, 1]) == {}  # monic: no prime row
    assert newton_polygon(IntPoly([1, -5, 6]), 3).positive_mass() == 1
    exact, value = _polygon_contributions(capsys, [1, -5, 6])[3]
    assert exact == "1" and abs(value - math.log(3)) < 1e-15


def _relevant_primes(P: IntPoly) -> list[int]:
    return [p for p, *_ in verify_place_identity(P).per_prime]


def test_relevant_primes():
    assert _relevant_primes(IntPoly([1, -5, 6])) == [2, 3]
    assert _relevant_primes(IntPoly([-2, 0, 1])) == []
    assert _relevant_primes(IntPoly([-1, 10])) == [2, 5]


def test_relevant_primes_match_positive_slopes():
    rng = random.Random(41)
    for _ in range(100):
        deg = rng.randint(1, 8)
        coeffs = [rng.randint(-300, 300) for _ in range(deg)] + [rng.randint(1, 300)]
        poly = IntPoly(coeffs).primitive_part()
        if poly.degree < 1:
            continue
        declared = set(_relevant_primes(poly))
        by_polygon = {
            p
            for p in {2, 3, 5, 7, 11, 13}
            if any(s.slope > 0 for s in newton_polygon(poly, p).segments)
        }
        assert by_polygon <= declared
        for p in declared:
            assert any(s.slope > 0 for s in newton_polygon(poly, p).segments)


def test_verify_place_identity_examples():
    rep = verify_place_identity(IntPoly([1, -5, 6]))
    assert rep.all_ok
    assert [(p, v) for p, v, *_ in rep.per_prime] == [(2, 1), (3, 1)]

    rep = verify_place_identity(IntPoly([-2, 0, 1]))  # monic
    assert rep.all_ok and rep.per_prime == () and rep.log_gap == 0.0

    rep = verify_place_identity(IntPoly([5, -6, 5]))
    assert rep.all_ok
    assert rep.per_prime[0][:2] == (5, 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-200, 200), min_size=1, max_size=8),
    st.integers(-400, 400).filter(bool),
)
def test_place_identity_property(lower, lead):
    # polygon mass equals vp(s) at every prime, whether or not p divides s
    poly = IntPoly(lower + [lead]).primitive_part()
    s = poly.lead
    assert verify_place_identity(poly).all_ok
    for p in (2, 3, 5, 7, 11):
        assert newton_polygon(poly, p).positive_mass() == vp(s, p)


_ENTRY = st.builds(Fraction, st.integers(-49, 49), st.integers(1, 49))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_periodic_points_give_every_finite_place(rows):
    # vp(s) at each prime of the denominators, from det(A^n - I) alone,
    # against the entropy report and the Newton polygon
    expected = periodic_point_valuations(rows)
    assume(expected is not None)  # 1 is an eigenvalue
    report = algebraic_entropy(RationalMatrix(rows))
    places = {p: v for p, v, _ in report.finite_places}
    assert set(places) <= set(expected)
    for p, v in expected.items():
        polygon = newton_polygon(report.char_poly_primitive, p)
        assert places.get(p, 0) == v == polygon.positive_mass(), p


def _assert_places_are_polygon_masses(P):
    # the entropy path reads its finite places from factorize(s); the place
    # identity proves that they are the polygon masses
    identity = verify_place_identity(P.primitive_part())
    places = polynomial_entropy(P).finite_places
    assert [(p, v) for p, v, _ in places] == [(p, v) for p, v, *_ in identity.per_prime]
    assert identity.all_ok


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-200, 200), min_size=1, max_size=8),
    st.integers(-400, 400).filter(bool),
)
def test_entropy_finite_places_are_the_polygon_masses(lower, lead):
    _assert_places_are_polygon_masses(IntPoly(lower + [lead]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_matrix_finite_places_are_the_polygon_masses(rows):
    _assert_places_are_polygon_masses(char_poly(RationalMatrix(rows)))
