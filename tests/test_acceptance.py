"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v`; the PASS/FAIL lines are
printed straight to the terminal (bypassing capture) so the per-criterion
outcome is always visible.  Every tolerance is pinned here, not computed.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from algentropy.entropy import algebraic_entropy
from algentropy.linalg import (
    RationalMatrix,
    SingularMatrixError,
    block_diag,
    inverse,
)
from algentropy.mahler import mahler_measure
from algentropy.padic import verify_place_identity
from algentropy.ratpoly import IntPoly
from algentropy.trajectory import (
    DEFAULT_BUDGET,
    admissible_m,
    bernoulli_counts,
    classify_growth,
    trajectory_counts,
)
from algentropy.verify import random_primitive_poly, run_suite

from oracles import mahler_oracle

LEHMER = IntPoly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
GOLDEN = 0.4812118
LOG3 = math.log(3)
LOG6 = math.log(6)

THREE_HALVES = RationalMatrix([["3/2"]])
FIBONACCI = RationalMatrix([[0, 1], [1, 1]])
NONARCH = RationalMatrix([[0, "-1/6"], [1, "5/6"]])
ROTATION = RationalMatrix([[0, -1], [1, 0]])
DOUBLING = RationalMatrix([[2]])


def _criterion(capsys, num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _timed_run(M, m, n_max, **kwargs):
    start = time.perf_counter()
    run = trajectory_counts(M, m, n_max, **kwargs)
    return run, time.perf_counter() - start


@pytest.fixture(scope="module")
def three_halves_run():
    return _timed_run(THREE_HALVES, 1, 12, budget=DEFAULT_BUDGET)


@pytest.fixture(scope="module")
def fibonacci_run():
    return _timed_run(FIBONACCI, 1, 60, budget=DEFAULT_BUDGET)


@pytest.fixture(scope="module")
def nonarch_run():
    m = admissible_m(NONARCH)
    run, seconds = _timed_run(NONARCH, m, 40, budget=DEFAULT_BUDGET)
    return run, seconds, m


@pytest.fixture(scope="module")
def rotation_run():
    return _timed_run(ROTATION, 1, 50, budget=DEFAULT_BUDGET)


@pytest.fixture(scope="module")
def doubling_run():
    return _timed_run(DOUBLING, 1, 12, budget=DEFAULT_BUDGET)


def test_criterion_1_place_identity(capsys):
    start = time.perf_counter()
    rng = random.Random(2026)
    failures = 0
    for _ in range(200):
        poly = random_primitive_poly(rng, max_deg=8, max_coeff=1000)
        report = verify_place_identity(poly)
        if not (report.all_ok and report.log_gap < 1e-9):
            failures += 1
    seconds = time.perf_counter() - start
    _criterion(
        capsys,
        1,
        failures == 0 and seconds < 5.0,
        f"200 polynomials, {failures} failures, {seconds:.2f}s < 5s",
    )


def test_criterion_2_lehmer(capsys):
    start = time.perf_counter()
    result = mahler_measure(LEHMER)
    seconds = time.perf_counter() - start
    target = 0.1623576120
    oracle = mahler_oracle(LEHMER)
    ok = (
        abs(result.value - target) <= 1e-9
        and abs(result.value - oracle) <= 1e-9
        and seconds < 1.0
    )
    _criterion(
        capsys,
        2,
        ok,
        f"measure={result.value:.12f} target={target} oracle gap="
        f"{abs(result.value - oracle):.2e} {seconds:.3f}s < 1s",
    )


def test_criterion_3_oracle_1d_rational(capsys, three_halves_run):
    run, seconds = three_halves_run
    formula = algebraic_entropy(THREE_HALVES).total
    ok = (
        run.counts == tuple(3**n for n in range(1, 13))
        and abs(run.h_inc[-1] - LOG3) <= 1e-12
        and abs(formula - LOG3) <= 1e-12
        and seconds < 60.0
    )
    _criterion(
        capsys,
        3,
        ok,
        f"tau(n)=3^n up to n=12, H_inc(12)={run.h_inc[-1]:.15f}, "
        f"formula={formula:.15f}, {seconds:.2f}s < 60s",
    )


def test_criterion_4_oracle_2d_integer(capsys, fibonacci_run):
    run, seconds = fibonacci_run
    formula = algebraic_entropy(FIBONACCI).total
    gap = abs(run.h_inc[-1] - formula)
    ok = (
        run.levels >= 25
        and abs(formula - GOLDEN) <= 1e-6
        and gap <= 0.05
        and seconds < 60.0
    )
    _criterion(
        capsys,
        4,
        ok,
        f"levels={run.levels} (>=25), H_inc={run.h_inc[-1]:.6f}, "
        f"formula={formula:.6f}, gap={gap:.2e} <= 0.05, {seconds:.1f}s < 60s",
    )


def test_criterion_5_non_archimedean(capsys, nonarch_run):
    report = algebraic_entropy(NONARCH)
    places_ok = (
        [(p, v) for p, v, _ in report.finite_places] == [(2, 1), (3, 1)]
        and abs(report.finite_places[0][2] - math.log(2)) <= 1e-12
        and abs(report.finite_places[1][2] - math.log(3)) <= 1e-12
    )
    run, _, m = nonarch_run
    gap = abs(run.h_inc[-1] - LOG6)
    ok = (
        abs(report.total - LOG6) <= 1e-12
        and report.archimedean == 0.0
        and places_ok
        and gap <= 0.15
    )
    _criterion(
        capsys,
        5,
        ok,
        f"entropy={report.total:.15f} (log 6), archimedean={report.archimedean}, "
        f"places 2,3; trajectory m={m} largest n={run.levels} "
        f"H_inc={run.h_inc[-1]:.4f} gap={gap:.3f} <= 0.15",
    )


def test_criterion_6_dichotomy(capsys, rotation_run, doubling_run):
    rot, _ = rotation_run
    dbl, _ = doubling_run
    rot_ok = (
        rot.counts == tuple((2 * n + 1) ** 2 for n in range(1, 51))
        and classify_growth(rot, formula_entropy=0.0).classification == "Polynomial"
        and algebraic_entropy(ROTATION).total == 0.0
    )
    dbl_ok = (
        dbl.counts == tuple(2 ** (n + 1) - 1 for n in range(1, 13))
        and classify_growth(dbl).classification == "Exponential"
    )
    suite = run_suite("dichotomy", seed=0, count=10)
    ok = rot_ok and dbl_ok and suite.ok
    _criterion(
        capsys,
        6,
        ok,
        f"rotation=(2n+1)^2 Polynomial, doubling=2^(n+1)-1 Exponential, "
        f"seeded corpus {suite.passed}/{len(suite.checks)} without discrepancy",
    )


def test_criterion_7_invariance_suite(capsys):
    rng = random.Random(314159)
    matrices = []
    while len(matrices) < 100:
        n = rng.randint(1, 4)
        matrices.append(
            RationalMatrix(
                [
                    [
                        Fraction(rng.randint(-20, 20), rng.randint(1, 20))
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
            )
        )
    totals = {id(M): algebraic_entropy(M).total for M in matrices}

    additivity_bad = 0
    for A, B in zip(matrices[0::2], matrices[1::2]):
        gap = abs(algebraic_entropy(block_diag(A, B)).total - totals[id(A)] - totals[id(B)])
        additivity_bad += gap > 2e-12

    inverse_bad = inverse_count = 0
    for M in matrices:
        try:
            Minv = inverse(M)
        except SingularMatrixError:
            continue
        inverse_count += 1
        inverse_bad += abs(algebraic_entropy(Minv).total - totals[id(M)]) > 1e-10

    conjugation_bad = 0
    from algentropy.linalg import char_poly

    for M in matrices[:50]:
        while True:
            P = RationalMatrix(
                [[rng.randint(-3, 3) for _ in range(M.n)] for _ in range(M.n)]
            )
            try:
                Pinv = inverse(P)
                break
            except SingularMatrixError:
                continue
        conjugation_bad += char_poly(Pinv * M * P) != char_poly(M)

    power_bad = 0
    for M in matrices[:50]:
        for k in (2, 3):
            power_bad += abs(algebraic_entropy(M**k).total - k * totals[id(M)]) > 1e-9

    reciprocal_bad = reciprocal_count = 0
    for M in matrices:
        poly = algebraic_entropy(M).char_poly_primitive
        if poly.coeffs[0] == 0:
            continue
        reciprocal_count += 1
        gap = abs(mahler_measure(poly).value - mahler_measure(poly.reciprocal()).value)
        reciprocal_bad += gap > 1e-10

    ok = (
        additivity_bad == 0
        and inverse_bad == 0
        and conjugation_bad == 0
        and power_bad == 0
        and reciprocal_bad == 0
    )
    _criterion(
        capsys,
        7,
        ok,
        f"100 matrices: additivity {50 - additivity_bad}/50, inverse "
        f"{inverse_count - inverse_bad}/{inverse_count}, conjugation "
        f"{50 - conjugation_bad}/50, power-law {100 - power_bad}/100, "
        f"reciprocal {reciprocal_count - reciprocal_bad}/{reciprocal_count}",
    )


def test_criterion_8_kronecker_equivalence(capsys):
    start = time.perf_counter()
    suite = run_suite("kronecker", seed=8, count=100)
    seconds = time.perf_counter() - start
    _criterion(
        capsys,
        8,
        suite.ok and len(suite.checks) == 100 and seconds < 3.0,
        f"{suite.passed}/{len(suite.checks)} cyclotomic products and "
        f"non-examples agree in both directions, {seconds:.2f}s < 3s",
    )


def test_criterion_9_bernoulli_shift(capsys):
    ok = True
    details = []
    for q in (2, 3, 5):
        run = bernoulli_counts(q, 8)
        good = run.counts == tuple(q**n for n in range(1, 9)) and run.estimate == math.log(q)
        ok = ok and good
        details.append(f"q={q}:{'ok' if good else 'bad'}")
    _criterion(capsys, 9, ok, f"tau(n)=q^n for n<=8, estimate=log q exactly; {' '.join(details)}")


# tau(1..L) of the five criteria 3-6 runs, frozen from an engine that gave
# them identically with 1, 2 and 8 residue-class splits and, over the full
# length, on the Python-int backend; Fibonacci and nonarch stop at the
# budget (tau(28) and tau(6) would exceed it)
PINNED_COUNTS = {
    "three-halves": (
        3, 9, 27, 81, 243, 729, 2187, 6561, 19683, 59049, 177147, 531441,
    ),
    "fibonacci": (
        9, 29, 69, 141, 265, 473, 817, 1381, 2301, 3797, 6225, 10161, 16537,
        26861, 43573, 70621, 114393, 185225, 299841, 485301, 785389, 1270949,
        2056609, 3327841, 5384745, 8712893, 14097957,
    ),
    "nonarch": (1369, 24049, 234001, 1779697, 12047905),
    "rotation": (
        9, 25, 49, 81, 121, 169, 225, 289, 361, 441, 529, 625, 729, 841, 961,
        1089, 1225, 1369, 1521, 1681, 1849, 2025, 2209, 2401, 2601, 2809, 3025,
        3249, 3481, 3721, 3969, 4225, 4489, 4761, 5041, 5329, 5625, 5929, 6241,
        6561, 6889, 7225, 7569, 7921, 8281, 8649, 9025, 9409, 9801, 10201,
    ),
    "doubling": (3, 7, 15, 31, 63, 127, 255, 511, 1023, 2047, 4095, 8191),
}


def _blob(counts):
    return json.dumps([str(c) for c in counts]).encode()


def test_criterion_10_determinism(
    capsys,
    three_halves_run, fibonacci_run, nonarch_run, rotation_run, doubling_run
):
    start = time.perf_counter()
    runs = {
        "three-halves": three_halves_run[0],
        "fibonacci": fibonacci_run[0],
        "nonarch": nonarch_run[0],
        "rotation": rotation_run[0],
        "doubling": doubling_run[0],
    }
    pinned_bad = [
        name for name, run in runs.items() if _blob(run.counts) != _blob(PINNED_COUNTS[name])
    ]
    # the Python-int backend recomputes the short runs from scratch
    exact_bad = [
        name
        for name, M, n_max in (
            ("three-halves", THREE_HALVES, 12),
            ("rotation", ROTATION, 50),
            ("doubling", DOUBLING, 12),
        )
        if _blob(trajectory_counts(M, 1, n_max, budget=DEFAULT_BUDGET, force_exact=True).counts)
        != _blob(runs[name].counts)
    ]
    seconds = time.perf_counter() - start
    _criterion(
        capsys,
        10,
        not pinned_bad and not exact_bad and seconds < 2.0,
        f"counts byte-identical to the pinned sequences on criteria 3-6 "
        f"(mismatch: {pinned_bad or 'none'}) and packed = Python-int backend on "
        f"three-halves, rotation, doubling (mismatch: {exact_bad or 'none'}), {seconds:.2f}s < 2s",
    )
