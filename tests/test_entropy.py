import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import algentropy
from algentropy import verify
from algentropy.entropy import (
    INFINITE_PLACE,
    algebraic_entropy,
    is_zero_entropy,
    polynomial_entropy,
)
from algentropy.linalg import (
    RationalMatrix,
    SingularMatrixError,
    block_diag,
    companion,
    inverse,
)
from algentropy.mahler import is_cyclotomic_product
from algentropy.ratpoly import IntPoly

from oracles import mahler_oracle, monic

GOLDEN = 0.4812118250596034  # log((1 + sqrt 5)/2), frozen from the oracle


def _random_matrix(rng, max_n=4, bound=20):
    n = rng.randint(1, max_n)
    return RationalMatrix(
        [
            [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def test_entropy_examples():
    r = algebraic_entropy(RationalMatrix([["3/2"]]))
    assert abs(r.total - math.log(3)) < 1e-12
    assert r.s == 2
    assert [(p, v) for p, v, _ in r.finite_places] == [(2, 1)]
    assert abs(r.archimedean - math.log(Fraction(3, 2))) < 1e-12
    assert r.certified and not r.zero_entropy_exact

    r = algebraic_entropy(RationalMatrix.identity(2))
    assert r.total == 0.0 and r.zero_entropy_exact

    r = algebraic_entropy(RationalMatrix([[0, 1], [1, 1]]))
    assert abs(r.total - GOLDEN) < 1e-12
    assert not r.finite_places

    r = algebraic_entropy(RationalMatrix([[0, "-1/6"], [1, "5/6"]]))
    assert abs(r.total - math.log(6)) < 1e-12
    assert r.archimedean == 0.0
    assert [(p, v) for p, v, _ in r.finite_places] == [(2, 1), (3, 1)]


def test_entropy_internal_consistency():
    rng = random.Random(53)
    for _ in range(40):
        r = algebraic_entropy(_random_matrix(rng))
        assert abs(r.total - r.archimedean - sum(c for *_, c in r.finite_places)) <= 1e-12
        assert abs(r.log_s - sum(c for *_, c in r.finite_places)) <= 1e-12
        assert r.total >= -1e-12
        # cross-check against the eig-based oracle on the primitive poly
        assert abs(r.total - mahler_oracle(r.char_poly_primitive)) < 1e-8


def _integer_matrix_entropy(M):
    report = algebraic_entropy(M)
    assert report.s == 1 and report.finite_places == ()
    return report.total


def test_ks_entropy():
    assert abs(_integer_matrix_entropy(RationalMatrix([[2]])) - math.log(2)) < 1e-15
    assert _integer_matrix_entropy(RationalMatrix([[0, -1], [1, 0]])) == 0.0
    assert abs(_integer_matrix_entropy(RationalMatrix([[2, 1], [1, 1]])) - 0.9624236501192069) < 1e-12


def test_ks_matches_total_on_integer_matrices():
    # integer matrices clear with s = 1: the total is the archimedean part alone
    rng = random.Random(59)
    for _ in range(30):
        n = rng.randint(1, 4)
        M = RationalMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        report = algebraic_entropy(M)
        assert report.s == 1
        assert abs(report.archimedean - report.total) <= 1e-12


def test_place_decomposition():
    places = algebraic_entropy(RationalMatrix([["3/2"]])).place_list()
    assert places[0][0] == 2.0 and abs(places[0][1] - math.log(2)) < 1e-15
    assert places[1][0] == INFINITE_PLACE
    assert abs(places[1][1] - math.log(1.5)) < 1e-12

    places = algebraic_entropy(RationalMatrix([[2]])).place_list()
    assert len(places) == 1 and places[0][0] == INFINITE_PLACE

    places = algebraic_entropy(RationalMatrix([[0, "-1/6"], [1, "5/6"]])).place_list()
    assert [(p, round(c, 10)) for p, c in places] == [
        (2.0, round(math.log(2), 10)),
        (3.0, round(math.log(3), 10)),
        (INFINITE_PLACE, 0.0),
    ]


def test_place_sum_equals_total():
    rng = random.Random(61)
    for _ in range(30):
        M = _random_matrix(rng)
        r = algebraic_entropy(M)
        assert abs(sum(c for _, c in r.place_list()) - r.total) <= 1e-12


def test_block_additivity():
    rng = random.Random(67)
    for _ in range(30):
        A = _random_matrix(rng, max_n=3)
        B = _random_matrix(rng, max_n=3)
        gap = abs(
            algebraic_entropy(block_diag(A, B)).total
            - algebraic_entropy(A).total
            - algebraic_entropy(B).total
        )
        assert gap <= 2e-12


def test_inverse_invariance():
    rng = random.Random(71)
    done = 0
    while done < 25:
        M = _random_matrix(rng)
        try:
            Minv = inverse(M)
        except SingularMatrixError:
            continue
        assert abs(algebraic_entropy(M).total - algebraic_entropy(Minv).total) <= 1e-10
        done += 1


def test_conjugation_invariance_total():
    rng = random.Random(73)
    for _ in range(25):
        M = _random_matrix(rng)
        while True:
            P = RationalMatrix(
                [[rng.randint(-3, 3) for _ in range(M.n)] for _ in range(M.n)]
            )
            try:
                Pinv = inverse(P)
                break
            except SingularMatrixError:
                continue
        conj = Pinv * M * P
        # same characteristic polynomial, hence the identical report
        assert algebraic_entropy(conj).total == algebraic_entropy(M).total


def test_power_law():
    rng = random.Random(79)
    for _ in range(15):
        M = _random_matrix(rng, max_n=3, bound=6)
        base = algebraic_entropy(M).total
        for k in (2, 3, 4):
            assert abs(algebraic_entropy(M**k).total - k * base) <= k * 1e-10


def test_zero_entropy_decision():
    assert is_zero_entropy(RationalMatrix([[0, -1], [1, 0]]))
    assert not is_zero_entropy(RationalMatrix([[2]]))
    assert not is_zero_entropy(RationalMatrix([[0, "-1/6"], [1, "5/6"]]))
    assert is_zero_entropy(RationalMatrix([[0, 1], [0, 0]]))  # nilpotent
    assert is_zero_entropy(RationalMatrix([]))
    assert is_zero_entropy(companion(IntPoly([1, -1, 1])))  # sixth root of unity


def test_zero_entropy_iff_certified_zero_total():
    rng = random.Random(83)
    for _ in range(40):
        M = _random_matrix(rng, max_n=3, bound=6)
        r = algebraic_entropy(M)
        assert is_zero_entropy(M) == (r.certified and abs(r.total) <= 1e-12)


def test_zero_dimensional_matrix():
    r = algebraic_entropy(RationalMatrix([]))
    assert r.total == 0.0 and r.s == 1 and r.zero_entropy_exact and r.certified


def test_polynomial_entropy_examples():
    r = polynomial_entropy(IntPoly([-1, 5, -6]))  # -(6X^2 - 5X + 1)
    assert r.char_poly_primitive == IntPoly([1, -5, 6]) and r.s == 6
    assert monic(r.char_poly_primitive) == (Fraction(1, 6), Fraction(-5, 6), 1)
    assert [(p, v) for p, v, _ in r.finite_places] == [(2, 1), (3, 1)]
    assert abs(r.total - math.log(6)) < 1e-12 and r.archimedean == 0.0
    assert r == algebraic_entropy(RationalMatrix([[0, "-1/6"], [1, "5/6"]]))
    assert polynomial_entropy(IntPoly([2, 0, 2])).zero_entropy_exact  # content 2
    with pytest.raises(ValueError):
        polynomial_entropy(IntPoly([5]))


def test_zero_entropy_exact_is_the_cyclotomic_decision():
    # read off the split that mahler_measure already made, not decided again
    rng = random.Random(10)
    corpus = verify.cyclotomic_product_corpus(rng, 40) + verify.non_cyclotomic_corpus(rng, 40)
    for poly in corpus:
        assert polynomial_entropy(poly).zero_entropy_exact == is_cyclotomic_product(poly), poly
    assert sum(map(is_cyclotomic_product, corpus)) == 40


_SKEWED_POLYGON = """
import dataclasses
from fractions import Fraction
from algentropy import entropy, padic
from algentropy.ratpoly import IntPoly, InvariantError

real_newton_polygon = padic.newton_polygon

def skewed(P, p):
    polygon = real_newton_polygon(P, p)
    extra = padic.Segment(Fraction(1), 1)
    return dataclasses.replace(polygon, segments=polygon.segments + (extra,))

padic.newton_polygon = skewed
assert False, "python -O strips this"
try:
    entropy.polynomial_entropy(IntPoly([1, -5, 6]))
except InvariantError as exc:
    print("InvariantError:", exc)
"""


def test_polygon_mass_check_survives_python_O():
    src = str(Path(algentropy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", _SKEWED_POLYGON],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("InvariantError: Newton polygon masses")
