import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc

from algentropy import mahler, ratpoly, roots
from algentropy.mahler import (
    extract_cyclotomic,
    is_cyclotomic_product,
    mahler_measure,
    split_unit_circle,
)
from algentropy.ratpoly import IntPoly, InvariantError, cyclotomic
from algentropy.roots import CertificationError
from algentropy.verify import cyclotomic_product_corpus, non_cyclotomic_corpus

from oracles import division_cyclotomic, eig_moduli, mahler_oracle, totients

LEHMER = IntPoly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])

# frozen via the companion-eig oracle at 60 digits
LEHMER_MEASURE = 0.16235761200773814
LEHMER_TOP_MODULUS = 1.1762808182599175
LEHMER_BOTTOM_MODULUS = 0.8501371309270424


def test_find_roots_linear():
    (root,) = mahler_measure(IntPoly([-3, 2])).roots
    assert root.mod_lo <= 1.5 <= root.mod_hi
    assert root.mod_hi - root.mod_lo < 1e-12


def test_find_roots_gaussian_unit():
    rs = mahler_measure(IntPoly([1, 0, 1])).roots
    assert len(rs) == 2
    for root in rs:
        assert root.mod_lo <= 1.0 <= root.mod_hi


def test_root_order_does_not_follow_the_centres_noise():
    # discs (a + ib)/2^k of radius r/2^k: a conjugate pair whose centres' real
    # parts differ by one unit either way, a second pair on the same real part,
    # one root stored at another scale, and a real root.  Ordering by the
    # centres' real parts would let those units order each pair
    for da in (-1, 1):
        discs = [
            roots._CertRoot(-20 + da, 30, 2, 4, 1),
            roots._CertRoot(-40, -60, 4, 5, 1),
            roots._CertRoot(-20, 50, 2, 4, 1),
            roots._CertRoot(-20 - da, -50, 2, 4, 1),
            roots._CertRoot(40, 1, 2, 4, 1),
        ]
        for perm in itertools.permutations(discs):
            assert [r.b / 2**r.k for r in roots._sorted_roots(list(perm))] == [
                -50 / 16, -30 / 16, 30 / 16, 50 / 16, 1 / 16
            ]


def test_find_roots_lehmer_against_oracle():
    rs = mahler_measure(LEHMER).roots
    assert sum(r.multiplicity for r in rs) == 10
    outside = [r for r in rs if r.mod_lo > 1]
    inside = [r for r in rs if r.mod_hi < 1]
    straddling = [r for r in rs if r.mod_lo <= 1 <= r.mod_hi]
    assert len(outside) == 1 and len(inside) == 1 and len(straddling) == 8
    assert outside[0].mod_lo <= LEHMER_TOP_MODULUS <= outside[0].mod_hi
    assert inside[0].mod_lo <= LEHMER_BOTTOM_MODULUS <= inside[0].mod_hi
    oracle_mods = eig_moduli(LEHMER.coeffs)
    by_center = sorted(rs, key=lambda r: (r.mod_lo + r.mod_hi) / 2)
    for r, m in zip(by_center, sorted(float(x) for x in oracle_mods)):
        assert r.mod_lo <= m <= r.mod_hi


def test_find_roots_multiplicities():
    cube = IntPoly([2, 1]) * IntPoly([2, 1]) * IntPoly([2, 1])
    poly = IntPoly([-1, 1]) * IntPoly([-1, 1]) * cube
    rs = mahler_measure(poly).roots
    assert sum(r.multiplicity for r in rs) == 5
    mults = sorted(r.multiplicity for r in rs)
    assert mults == [2, 3]
    # -2 and its mirror -1/2 go to the candidate, the third -2 too: the split
    # is coprime, so -2 is one root of multiplicity 3, not 1 + 2
    poly = cube * IntPoly([1, 2]) * IntPoly([1, 1])
    rs = mahler_measure(poly).roots
    assert sorted((round(r.re, 9), r.multiplicity) for r in rs) == [(-2.0, 3), (-1.0, 1), (-0.5, 1)]


def _distinct_discs(rs) -> bool:
    """No two roots' discs meet: each disc has radius at most half its modulus width."""
    for i, a in enumerate(rs):
        for b in rs[i + 1 :]:
            reach = (a.mod_hi - a.mod_lo + b.mod_hi - b.mod_lo) / 2
            if abs(complex(a.re - b.re, a.im - b.im)) <= reach:
                return False
    return True


def test_mirrored_linear_factors_report_each_root_once():
    # (b + aX)^m (a + bX)^m' at random multiplicities, half of them times
    # Lehmer: each root is reported once, with its full multiplicity, and the
    # measure is exact, as M(b + aX) = log max(|a|, |b|)
    rng = random.Random(33)
    for case in range(40):
        poly, expected = IntPoly([1]), 0.0
        for _ in range(rng.randint(1, 2)):
            a, b = rng.randint(1, 5), rng.choice([-1, 1]) * rng.randint(1, 5)
            for lin, m in ((IntPoly([b, a]), rng.randint(1, 3)), (IntPoly([a, b]), rng.randint(0, 3))):
                for _ in range(m):
                    poly = poly * lin
                expected += m * math.log(max(a, abs(b)))
        if case % 2:
            poly, expected = poly * LEHMER, expected + LEHMER_MEASURE
        r = mahler_measure(poly)
        assert sum(root.multiplicity for root in r.roots) == poly.degree, poly
        assert _distinct_discs(r.roots), poly
        assert abs(r.value - expected) < 1e-9, poly


def test_find_roots_zero_roots():
    rs = mahler_measure(IntPoly([0, 0, -3, 2])).roots
    zero = [r for r in rs if r.mod_hi == 0.0]
    assert len(zero) == 1 and zero[0].multiplicity == 2


def test_find_roots_residual_consistency():
    # |P(center)| must match the certified radius: r = deg * |P/P'| at center
    rng = random.Random(77)
    for _ in range(25):
        deg = rng.randint(2, 7)
        coeffs = [rng.randint(-50, 50) for _ in range(deg)] + [rng.randint(1, 50)]
        poly = IntPoly(coeffs)
        if poly.coeffs[0] == 0 or poly.degree < 2:
            continue
        rs = mahler_measure(poly).roots
        with mp.workprec(256):
            for root in rs:
                z = mpc(root.re, root.im)
                value = abs(poly.evaluate(z))
                dvalue = abs(poly.derivative().evaluate(z))
                radius = (root.mod_hi - root.mod_lo) / 2 + 1e-25
                assert value <= dvalue * radius * poly.degree + 1e-20


def test_find_roots_ill_conditioned_integer_roots():
    # product of (X - j), j = 1..12: notoriously ill-conditioned evaluation,
    # so the iteration must be gated by certification, not step size
    poly = IntPoly([1])
    for j in range(1, 13):
        poly = poly * IntPoly([-j, 1])
    rs = mahler_measure(poly).roots
    mods = sorted((r.mod_lo + r.mod_hi) / 2 for r in rs)
    assert all(abs(m - j) < 1e-20 for m, j in zip(mods, range(1, 13)))
    got = mahler_measure(poly).value
    assert abs(got - sum(math.log(j) for j in range(2, 13))) < 1e-10


def test_split_unit_circle_examples():
    candidate, cofactor = split_unit_circle(IntPoly([1, 0, 1]))
    assert candidate.coeffs == (1, 0, 1) and cofactor.coeffs == (1,)
    candidate, cofactor = split_unit_circle(IntPoly([-2, 1]))
    assert candidate.coeffs == (1,) and cofactor.coeffs == (-2, 1)
    candidate, cofactor = split_unit_circle(IntPoly([5, -6, 5]))
    assert candidate.coeffs == (5, -6, 5) and cofactor.coeffs == (1,)
    candidate, cofactor = split_unit_circle(IntPoly([5, -6, 5]) * IntPoly([-4, 6]))
    assert candidate.coeffs == (5, -6, 5) and cofactor.coeffs == (-2, 3)
    candidate, cofactor = split_unit_circle(IntPoly([-3]))
    assert candidate.coeffs == (1,) and cofactor.coeffs == (1,)
    with pytest.raises(ValueError):
        split_unit_circle(IntPoly([0, 1]))


def test_split_unit_circle_division_check_raises(monkeypatch):
    monkeypatch.setattr(mahler, "poly_gcd", lambda f, g: IntPoly([-5, 1]))
    with pytest.raises(InvariantError):
        split_unit_circle(IntPoly([5, -6, 5]))


def test_split_product_reconstructs():
    rng = random.Random(13)
    for _ in range(40):
        poly = IntPoly([rng.randint(-20, 20) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 20)])
        if poly.coeffs[0] == 0:
            continue
        candidate, cofactor = split_unit_circle(poly)
        product = candidate * cofactor
        assert product.primitive_part() == poly.primitive_part()


def test_mahler_examples():
    r = mahler_measure(IntPoly([-3, 2]))
    assert abs(r.value - math.log(3)) < 1e-12
    r = mahler_measure(IntPoly([1, -2, 1]))
    assert r.value == 0.0
    r = mahler_measure(IntPoly([1, -5, 6]))
    assert abs(r.value - math.log(6)) < 1e-12
    assert r.archimedean == 0.0
    with pytest.raises(ValueError):
        mahler_measure(IntPoly([0]))
    r = mahler_measure(IntPoly([7]))  # a constant c measures log|c|
    assert r.value == math.log(7) and r.roots == ()


def test_mahler_lehmer():
    r = mahler_measure(LEHMER)
    assert abs(r.value - LEHMER_MEASURE) < 1e-9
    # the 8 unit-circle roots are certified by the error budget, not assumed
    assert r.assumed_roots == 0
    assert abs(r.value - mahler_oracle(LEHMER)) < 1e-9


def test_mahler_against_oracle_random():
    rng = random.Random(19)
    for _ in range(40):
        deg = rng.randint(1, 7)
        coeffs = [rng.randint(-60, 60) for _ in range(deg)] + [rng.randint(1, 60)]
        poly = IntPoly(coeffs)
        if poly.degree < 1:
            continue
        result = mahler_measure(poly)
        assert abs(result.value - mahler_oracle(poly)) < 1e-9
        assert result.value >= -1e-15


def test_mahler_multiplicative_and_reciprocal():
    rng = random.Random(29)
    for _ in range(25):
        f = IntPoly([rng.randint(-30, 30) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 30)])
        g = IntPoly([rng.randint(-30, 30) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 30)])
        assert abs(
            mahler_measure(f * g).value - mahler_measure(f).value - mahler_measure(g).value
        ) <= 2e-12
        assert abs(mahler_measure(f).value - mahler_measure(-f).value) == 0.0
        if f.coeffs[0] != 0:
            assert abs(
                mahler_measure(f).value - mahler_measure(f.reciprocal()).value
            ) <= 1e-10


def test_on_circle_non_cyclotomic_flagged():
    r = mahler_measure(IntPoly([5, -6, 5]))  # roots (3 +/- 4i)/5, modulus 1
    assert abs(r.value - math.log(5)) < 1e-12
    # both discs meet the circle; their log+ is proven within the budget
    assert r.assumed_roots == 0
    touching = [root for root in r.roots if root.mod_lo <= 1 <= root.mod_hi]
    assert len(touching) == 2


def test_extract_cyclotomic():
    poly = cyclotomic(3) * cyclotomic(8) * IntPoly([-2, 1])
    factors, rest = extract_cyclotomic(poly)
    assert factors == {3: 1, 8: 1}
    assert rest.coeffs == (-2, 1)
    # non-monic rest: the monic integer division still finds every factor
    poly = cyclotomic(1) * cyclotomic(1) * cyclotomic(6) * IntPoly([-3, 2]) * IntPoly([1, 3])
    factors, rest = extract_cyclotomic(poly)
    assert factors == {1: 2, 6: 1}
    assert rest.coeffs == (-3, -7, 6)


def test_cyclotomic_factors_all_lie_in_the_candidate():
    # a root of unity has the same multiplicity in P and in its reciprocal,
    # so extracting from the split candidate finds every cyclotomic factor
    rng = random.Random(53)
    for cyclo in cyclotomic_product_corpus(rng, 40):
        poly = cyclo.strip_x()[0]
        for _ in range(rng.randint(0, 2)):
            # (q X - r) with |q| != |r| has its root off the circle
            q, r = rng.choice([(1, 2), (2, 1), (3, -1), (2, -5), (1, -3)])
            poly = poly * IntPoly([-r, q])
        if rng.random() < 0.5:
            poly = poly * IntPoly([2, -3, 1, 4])
        whole, _ = extract_cyclotomic(poly.primitive_part())
        candidate, _ = split_unit_circle(poly)
        from_candidate, rest = extract_cyclotomic(candidate)
        assert whole and from_candidate == whole
        assert extract_cyclotomic(rest)[0] == {}


def test_conjugate_pairs_list_the_lower_member_first():
    # roots of unity (i and Phi_3's pair) order a pair as the numeric roots (2i) do
    for poly in (IntPoly([4, 0, 5, 0, 1]), cyclotomic(3) * cyclotomic(4)):
        roots = mahler_measure(poly).roots
        for i, upper in enumerate(roots):
            if upper.im > 1e-9:
                lower = [
                    j for j, z in enumerate(roots)
                    if abs(z.re - upper.re) < 1e-9 and abs(z.im + upper.im) < 1e-9
                ]
                assert lower and lower[0] < i, (poly, roots)


def test_roots_of_unity_are_exact_conjugate_pairs():
    # 1 and -1 carry no float noise, and each other root of unity follows
    # its exact conjugate, the lower member first
    poly = IntPoly([1])
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 12):
        poly = poly * cyclotomic(n)
    roots = mahler_measure(poly).roots
    assert (roots[0].re, roots[0].im) == (1.0, 0.0) and (roots[1].re, roots[1].im) == (-1.0, 0.0)
    pairs = roots[2:]
    assert len(pairs) == poly.degree - 2
    for lower, upper in zip(pairs[::2], pairs[1::2]):
        assert upper.im > 0 and (lower.re, lower.im) == (upper.re, -upper.im)


def test_is_cyclotomic_product():
    assert is_cyclotomic_product(IntPoly([1, 1, 1]))
    assert not is_cyclotomic_product(IntPoly([-1, -1, 1]))
    p = IntPoly([-1, 1]) * IntPoly([1, 0, 0, 0, 1])
    assert p.coeffs == (-1, 1, 0, 0, -1, 1)
    assert is_cyclotomic_product(p)
    assert is_cyclotomic_product(-p)
    assert is_cyclotomic_product(p.shift(3))
    assert is_cyclotomic_product(IntPoly([1]))
    assert not is_cyclotomic_product(IntPoly([2]))
    assert not is_cyclotomic_product(IntPoly([0]))
    assert not is_cyclotomic_product(IntPoly([1, -5, 6]))
    assert not is_cyclotomic_product(LEHMER)


def test_certification_cap_behavior(monkeypatch):
    # roots 2 and 2 + 1e-30: cannot be separated within a 64-bit cap
    k = 10**30
    monkeypatch.setattr(roots, "_MAX_BITS", 64)
    with pytest.raises(CertificationError):
        mahler_measure(IntPoly([2 * k + 1, -k]) * IntPoly([-2, 1]))
    # roots 1 and 1 + 1e-30: the measure resolves, as (X - 1) leaves exactly,
    # and the leftover root separates from the circle once the ladder climbs
    poly = IntPoly([k + 1, -k]) * IntPoly([-1, 1])
    monkeypatch.setattr(roots, "_MAX_BITS", 256)
    good = mahler_measure(poly)
    assert abs(good.value - math.log(k) - 1e-30) < 1e-9
    # at a forced low cap the unresolved disc still meets the circle, and
    # its log+ (about 1e-30) is proven to lie within the error budget
    monkeypatch.setattr(roots, "_MAX_BITS", 64)
    capped = mahler_measure(poly)
    assert abs(capped.value - good.value) < 1e-9


def _reciprocal_height_1(degree: int):
    """Every reciprocal X^degree + ... + 1 of even degree with coefficients in {-1, 0, 1}."""
    half = degree // 2
    for digits in itertools.product((-1, 0, 1), repeat=half):
        low = [1, *digits]
        yield IntPoly(low + low[-2::-1])


def test_degree_10_height_1_reciprocal_corpus_all_certified(monkeypatch):
    starts = _spy_float_starts(monkeypatch)
    corpus = list(_reciprocal_height_1(10))
    assert len(corpus) == 243 and len(set(corpus)) == 243
    assert all(p.reciprocal() == p for p in corpus)
    positive = []
    for poly in corpus:
        r = mahler_measure(poly)
        # Kronecker: a monic integer polynomial measures 0 iff it is a
        # product of cyclotomics (times a power of X)
        assert (r.value == 0.0) == is_cyclotomic_product(poly), poly
        if r.value > 0:
            positive.append(r.value)
    assert abs(min(positive) - 0.1623576120) <= 1e-9
    # one float start per square-free factor left after the cyclotomic
    # extraction, and every one of them converges
    assert len(starts) == 193 and all(s is not None for s in starts)


def _trace_to_reciprocal(q) -> IntPoly:
    """X^d Q(X + 1/X) for Q of degree d, ascending coefficients q."""
    d = len(q) - 1
    out = IntPoly([0])
    for j, c in enumerate(q):
        # X^(d - j) (X^2 + 1)^j
        term = IntPoly([c]).shift(d - j)
        for _ in range(j):
            term = term * IntPoly([1, 0, 1])
        out = out + term
    return out


# Q(y) = c y - b with |b| < 2c gives c X^2 - b X + c, whose two roots lie
# on the unit circle; they are roots of unity only when b = 0 or |b| = c
_ON_CIRCLE_TRACE = st.integers(1, 6).flatmap(
    lambda c: st.tuples(st.just(c), st.integers(-2 * c + 1, 2 * c - 1))
)


@settings(max_examples=20, deadline=None)
@given(
    on_circle=st.lists(_ON_CIRCLE_TRACE, min_size=1, max_size=2),
    extra=st.lists(st.integers(-4, 4), min_size=1, max_size=2),
    cyclo=st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12]), max_size=1),
    linear=st.lists(
        st.tuples(st.integers(1, 5), st.integers(-5, 5)).filter(
            lambda t: t[1] and abs(t[1]) != t[0]
        ),
        max_size=2,
    ),
)
def test_salem_type_trace_polynomials_certified(on_circle, extra, cyclo, linear):
    # Q: factors with roots in (-2, 2) times a monic factor whose roots
    # outside [-2, 2] put roots off the circle, as in a Salem polynomial
    q = IntPoly([1])
    for c, b in on_circle:
        q = q * IntPoly([-b, c])
    q = q * IntPoly([*extra, 1])
    poly = _trace_to_reciprocal(q.coeffs)
    for n in cyclo:
        poly = poly * cyclotomic(n)
    for a, b in linear:
        poly = poly * IntPoly([-b, a])  # root b/a, off the circle
    r = mahler_measure(poly)
    assert abs(r.value - mahler_oracle(poly)) < 1e-9


def test_non_cyclotomic_corpus_certified():
    for poly in non_cyclotomic_corpus(random.Random(7), 40):
        r = mahler_measure(poly)
        assert r.value > 0.1


def test_cap_raises_with_the_certified_roots(monkeypatch):
    # two cofactor roots 1 + 2^-200 and 1 + 2^-199 cannot be told apart
    # within 128 bits; Lehmer's 10 roots certify on every rung
    big = 2**200
    poly = LEHMER * IntPoly([-big - 1, big]) * IntPoly([-big - 2, big])
    monkeypatch.setattr(roots, "_MAX_BITS", 128)
    with pytest.raises(CertificationError) as exc:
        mahler_measure(poly)
    partial = exc.value.partial
    assert sum(r.multiplicity for r in partial) == 10
    by_center = sorted(partial, key=lambda r: (r.mod_lo + r.mod_hi) / 2)
    for root, m in zip(by_center, eig_moduli(LEHMER.coeffs)):
        assert root.mod_lo <= float(m) <= root.mod_hi


def test_cyclotomic_table_matches_the_totient_sieve():
    # totient(n) >= sqrt(n/2) bounds every index of the degree-300 table by
    # 2 * 300^2; its largest index is 1,260, within the recursion test's range
    tot = totients(2 * 300 * 300)
    small = [(n, phi) for n, phi in enumerate(tot) if 0 < phi <= 300]
    for degree in range(301):
        table = mahler._cyclotomics(degree)
        assert [n for n, _, _ in table] == [n for n, phi in small if phi <= degree], degree
    assert all(phi.coeffs == division_cyclotomic(n) for n, phi, _ in table)


def test_cyclotomic_table_divides_once_per_index_at_most(monkeypatch):
    # Phi_n is built from Phi_(n/p), p the largest prime of n, with one
    # division when p does not divide n/p; X^n - 1 divided by every smaller
    # Phi_d took 4,013 divisions for this table
    mahler._cyclotomics.cache_clear()
    mahler._cyclotomic_at.cache_clear()
    cyclotomic.cache_clear()
    calls = []
    real = IntPoly.divide
    monkeypatch.setattr(IntPoly, "divide", lambda f, g: calls.append(g) or real(f, g))
    table = mahler._cyclotomics(286)
    assert len(calls) <= len(table) == 548


def test_cyclotomic_tables_evaluate_each_index_once(monkeypatch):
    # the tables of every degree share each Phi_n and its values at 2 and 3:
    # rebuilding them per degree took 174,760 evaluations up to degree 300
    mahler._cyclotomics.cache_clear()
    mahler._cyclotomic_at.cache_clear()
    calls = []
    real = IntPoly.evaluate
    monkeypatch.setattr(IntPoly, "evaluate", lambda f, x: calls.append(x) or real(f, x))
    for degree in range(301):
        table = mahler._cyclotomics(degree)
    assert len(calls) <= 2 * len(table)


def _naive_extract_cyclotomic(P):
    factors, rest = {}, P
    for n, phi, _ in mahler._cyclotomics(P.degree):
        while (q := rest.divide(phi)) is not None:
            factors[n] = factors.get(n, 0) + 1
            rest = q
    return factors, rest


def test_cyclotomic_pretest_skips_only_impossible_divisions(monkeypatch):
    rng = random.Random(61)
    samples = [cyclo.strip_x()[0] for cyclo in cyclotomic_product_corpus(rng, 30)]
    samples += [p.strip_x()[0] for p in non_cyclotomic_corpus(rng, 30)]
    # a root at X = 2 or 3 makes rest(2) or rest(3) 0, which every Phi_n value divides
    samples.append(cyclotomic(3) * cyclotomic(6) * IntPoly([-2, 1]))
    samples.append(cyclotomic(1) * cyclotomic(4) * IntPoly([-2, 1]) * IntPoly([-3, 1]))
    for poly in samples:
        assert extract_cyclotomic(poly) == _naive_extract_cyclotomic(poly)
    calls = []
    real = IntPoly.divide
    monkeypatch.setattr(IntPoly, "divide", lambda f, g: calls.append(g) or real(f, g))
    # (X - 3)(X + 9) is -11 at X = 2 and -20 at X = 1: Phi_1(2) = 1 divides
    # -11, but Phi_1 is tried only when rest(1) = 0
    assert extract_cyclotomic(IntPoly([-27, 6, 1])) == ({}, IntPoly([-27, 6, 1]))
    assert calls == []


def test_cyclotomic_pretest_tries_only_the_dividing_factors(monkeypatch):
    # Lehmer * Phi_2 * Phi_6: at X = 2 Phi_2(2) = 3 still divides the value
    # after Phi_2 is divided out, and only the value at X = 3 rules out a
    # second Phi_2; Lehmer(1) = -1 rules out Phi_1
    calls = []
    real = IntPoly.divide
    monkeypatch.setattr(IntPoly, "divide", lambda f, g: calls.append(g) or real(f, g))
    factors, rest = extract_cyclotomic(LEHMER * cyclotomic(2) * cyclotomic(6))
    assert (factors, rest) == ({2: 1, 6: 1}, LEHMER)
    assert calls == [cyclotomic(2), cyclotomic(6)]


def test_kronecker_equivalence_small():
    # both directions of: cyclotomic product <=> monic and certified zero
    samples = [
        cyclotomic(1),
        cyclotomic(5),
        cyclotomic(12) * cyclotomic(2),
        -cyclotomic(4).shift(1),
        IntPoly([-2, 1]),
        IntPoly([-1, -1, 1]),
        IntPoly([1, -5, 6]),
        LEHMER,
        IntPoly([5, -6, 5]),
    ]
    for poly in samples:
        claimed = is_cyclotomic_product(poly)
        r = mahler_measure(poly)
        monic = abs(poly.strip_x()[0].lead) == 1
        assert claimed == (monic and abs(r.value) <= 1e-12)


def _spy_float_starts(monkeypatch):
    """Record what every float-start call returned (None = fallback)."""
    starts = []
    real = roots._float_aberth

    def spy(coeffs, guesses):
        result = real(coeffs, guesses)
        starts.append(result)
        return result

    monkeypatch.setattr(roots, "_float_aberth", spy)
    return starts


def _spy_fixed_runs(monkeypatch):
    """Record the precision of every Gaussian-integer Aberth run."""
    runs = []
    real = roots._aberth_fixed

    def spy(coeffs, zs, k, prec):
        runs.append(prec)
        return real(coeffs, zs, k, prec)

    monkeypatch.setattr(roots, "_aberth_fixed", spy)
    return runs


def test_float_start_falls_back_when_doubles_overflow(monkeypatch):
    starts = _spy_float_starts(monkeypatch)
    fixed = _spy_fixed_runs(monkeypatch)
    # 10**400 does not convert to a double
    r = mahler_measure(IntPoly([3, 0, 10**400, 1]))
    assert r.value == pytest.approx(400 * math.log(10), rel=1e-15)
    assert starts and all(s is None for s in starts)
    # Bini's circles, rounded to the scale with no double in between, start
    # the Gaussian-integer iteration, and its one 64-bit run settles
    assert fixed == [64]
    # every coefficient fits a double, but Horner at |z| ~ 1e200 overflows
    starts.clear()
    fixed.clear()
    poly = IntPoly([-(10**200), 1]) * IntPoly([2, 1, 1])
    r = mahler_measure(poly)
    assert r.value == pytest.approx(200 * math.log(10) + math.log(2), rel=1e-15)
    assert starts and all(s is None for s in starts)
    assert fixed[:1] == [64]


def test_both_cold_starts_take_the_same_circles(monkeypatch):
    # the float guesses and the Gaussian-integer fallback's centres are one
    # start: each centre / 2^k is its float guess up to double rounding
    seen = {}

    def no_float_run(coeffs, guesses):  # None: the fallback runs
        seen["floats"] = guesses

    def fixed_start(coeffs, zs, k, prec):
        seen["fixed"] = zs
        return zs

    monkeypatch.setattr(roots, "_float_aberth", no_float_run)
    monkeypatch.setattr(roots, "_aberth_fixed", fixed_start)
    rng = random.Random(16)
    random_16 = IntPoly([rng.randint(-9, 9) for _ in range(16)] + [1])
    with_zero = IntPoly([0, 5, -2, 0, 1])  # X (X^3 - 2X + 5)
    for poly in (LEHMER, random_16, with_zero):
        k = 64 + roots._GUARD_BITS + roots._small_root_bits(poly.coeffs)
        assert roots._start(poly.coeffs, k, 64) is seen["fixed"]
        assert len(seen["fixed"]) == len(seen["floats"]) == poly.degree
        for (a, b), guess in zip(seen["fixed"], seen["floats"]):
            if guess == 0:
                assert (a, b) == (0, 0)
            else:
                assert abs(complex(a / 2**k, b / 2**k) - guess) <= 1e-14 * abs(guess)
    assert sum(guess == 0 for guess in seen["floats"]) == 1
    # the points (i, -log|a_i|) of 1 + 2X + 4X^2 are collinear: the middle one
    # is no vertex of the hull, so one edge puts both guesses on the circle of
    # radius 1/2, half a turn apart
    assert roots._bini_guesses([1, 2, 4]) == [
        (-math.log(2), 2 * math.pi * ((t + 0.3) / 2)) for t in range(2)
    ]


def test_float_start_random_against_eig_oracle(monkeypatch):
    starts = _spy_float_starts(monkeypatch)
    rng = random.Random(2024)
    polys = [
        IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [lead])
        for deg, lead in ((16, 1), (19, 7), (22, 1), (24, -5), (18, 6))
    ]
    # Lehmer's polynomial, and a degree-18 Salem-type product: Lehmer times
    # the minimal polynomial of the degree-8 Salem number 1.2806...
    polys += [LEHMER, LEHMER * IntPoly([1, 0, 0, -1, -1, -1, 0, 0, 1])]
    # Newton-polygon edges longer than 1: X^12 - 2 (one edge), and zero inner
    # coefficients in X^12 + 1000 X^6 + 1 (two edges of length 6) and
    # 2 X^9 - 7 X^3 + 3 (edges of length 3 and 6)
    polys += [
        IntPoly([-2] + [0] * 11 + [1]),
        IntPoly([1] + [0] * 5 + [1000] + [0] * 5 + [1]),
        IntPoly([3, 0, 0, -7, 0, 0, 0, 0, 0, 2]),
    ]
    for poly in polys:
        rs = mahler_measure(poly).roots
        assert sum(r.multiplicity for r in rs) == poly.degree
        by_center = sorted(rs, key=lambda r: (r.mod_lo + r.mod_hi) / 2)
        for r, m in zip(by_center, eig_moduli(poly.coeffs, dps=60)):
            assert r.mod_lo <= float(m) <= r.mod_hi
    # every input, square-free, takes one float start and not the fallback
    assert len(starts) == len(polys) and all(s is not None for s in starts)


def test_degree_80_certifies_quickly():
    rng = random.Random(80)
    poly = IntPoly([rng.randint(-9, 9) for _ in range(80)] + [1])
    start = time.perf_counter()
    r = mahler_measure(poly)
    seconds = time.perf_counter() - start
    print(f"degree 80 random monic: {seconds:.2f} s")
    assert sum(root.multiplicity for root in r.roots) == 80
    assert seconds < 10.0


def _contains(root, x: int) -> bool:
    """The disc of a certified root contains the integer x: exact."""
    return (root.a - (x << root.k)) ** 2 + root.b**2 <= root.r**2


def test_wilkinson_discs_contain_their_roots():
    # prod (X - s*j), j = 1..N: Horner cancels badly near the roots, so a
    # radius from rounded arithmetic can exclude the root it claims
    for n in (12, 16, 20, 24):
        for s in (1, 3, 7):
            poly = IntPoly([1])
            for j in range(1, n + 1):
                poly = poly * IntPoly([-s * j, 1])
            for bits in (64, 96, 128, 192, 256):
                certified, _ = roots.solve_with_multiplicity((poly, 1), bits)
                if certified is None:
                    assert bits < 256, (n, s)
                    continue
                assert len(certified) == n
                for root in certified:
                    assert any(_contains(root, s * j) for j in range(1, n + 1)), (n, s, bits)


def test_float_start_survives_its_noise_floor(monkeypatch):
    # bench poly-measure item 39-monic-18: the complex128 run stalls at its
    # noise floor, which is a usable start, not a reason to fall back
    starts = _spy_float_starts(monkeypatch)
    poly = IntPoly(
        [3136, -56, -10278, 16185, -15859, -4553, 37680, -60848, 75908, -78121,
         50806, -13260, -5765, 6172, -2042, 180, 57, -15, 1]
    )
    rungs = []
    real = roots.solve_with_multiplicity

    def spy(factor, prec, warm=None):
        rungs.append((prec, warm is not None))
        return real(factor, prec, warm)

    monkeypatch.setattr(roots, "solve_with_multiplicity", spy)
    # Yun's decomposition runs once per polynomial of the measure, not per rung
    decomposed = []
    yun = ratpoly.squarefree_decomposition

    def yun_spy(poly):
        decomposed.append(poly.coeffs)
        return yun(poly)

    for module in (ratpoly, mahler, roots):
        if getattr(module, "squarefree_decomposition", None) is yun:
            monkeypatch.setattr(module, "squarefree_decomposition", yun_spy)
    r = mahler_measure(poly)
    assert sum(root.multiplicity for root in r.roots) == 18
    assert abs(r.value - mahler_oracle(poly)) < 1e-9
    assert starts and all(s is not None for s in starts)
    # the float iterate's discs certify at 64 bits but are too wide to
    # settle; the 128-bit rung starts from those centres, not afresh
    assert rungs == [(64, False), (128, True)]
    assert poly.coeffs in decomposed and len(set(decomposed)) == len(decomposed)


def test_cold_rung_certifies_the_float_iterate(monkeypatch):
    # the converged float iterate, rounded to the scale, is the 64-bit
    # rung's centres: no Gaussian-integer Aberth run comes before the
    # certificate, and none comes after it when the rung settles
    def no_fixed(*args):
        raise AssertionError("_aberth_fixed ran")

    monkeypatch.setattr(roots, "_aberth_fixed", no_fixed)
    rng = random.Random(16)
    random_16 = IntPoly([rng.randint(-9, 9) for _ in range(16)] + [1])
    for poly in (LEHMER, random_16):
        certified, _ = roots.solve_with_multiplicity((poly, 1), 64)
        assert certified is not None and len(certified) == poly.degree
        assert abs(mahler_measure(poly).value - mahler_oracle(poly)) < 1e-9


def test_package_does_not_use_mpmath():
    # mpmath stays in tests/ as the independent oracle, never in the package
    package = Path(roots.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py")) if "mpmath" in p.read_text()] == []
    code = "import sys, algentropy.cli; print('mpmath' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(package.parent)}, timeout=60,
    )
    assert done.stdout.strip() == "False"
