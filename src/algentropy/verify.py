"""Seeded verification suites over the package's exact identities.

Each suite draws its inputs from a seeded RNG, so a (suite, seed, count)
triple is fully reproducible.  Suites yield per-check results; the CLI
prints them and exits nonzero on any failure.  The exact suites (place
identities, Kronecker, conjugation) admit no tolerance at all: a failure
there is an implementation bug, not noise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .entropy import algebraic_entropy, is_zero_entropy
from .linalg import (
    RationalMatrix,
    SingularMatrixError,
    block_diag,
    char_poly,
    companion,
    inverse,
)
from .mahler import is_cyclotomic_product, mahler_measure
from .padic import verify_place_identity
from .ratpoly import IntPoly, cyclotomic
from .trajectory import DEFAULT_BUDGET, MIN_LEVELS, bernoulli_counts, classify_growth, trajectory_counts


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> int:
        return sum(c.passed for c in self.checks)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def random_primitive_poly(
    rng: random.Random, max_deg: int = 8, max_coeff: int = 1000
) -> IntPoly:
    # the lead is drawn nonzero, so the primitive part keeps the degree
    coeffs = [rng.randint(-max_coeff, max_coeff) for _ in range(rng.randint(1, max_deg))]
    coeffs.append(rng.choice([-1, 1]) * rng.randint(1, max_coeff))
    return IntPoly(coeffs).primitive_part()


def random_rational_matrix(rng: random.Random, max_n: int = 4, bound: int = 20) -> RationalMatrix:
    n = rng.randint(1, max_n)
    return RationalMatrix(
        [
            [f"{rng.randint(-bound, bound)}/{rng.randint(1, bound)}" for _ in range(n)]
            for _ in range(n)
        ]
    )


def random_invertible_int(rng: random.Random, n: int, bound: int = 3) -> RationalMatrix:
    while True:
        M = RationalMatrix(
            [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        )
        try:
            inverse(M)
            return M
        except SingularMatrixError:
            continue


def cyclotomic_product_corpus(rng: random.Random, count: int) -> list[IntPoly]:
    """Random products of cyclotomics, optionally times -1 and a power of X."""
    out = []
    for _ in range(count):
        poly = IntPoly([1])
        for _ in range(rng.randint(1, 3)):
            poly = poly * cyclotomic(rng.randint(1, 20))
            if poly.degree >= 10:
                break
        poly = poly.shift(rng.randint(0, 2))
        if rng.random() < 0.5:
            poly = -poly
        out.append(poly)
    return out


def non_cyclotomic_corpus(rng: random.Random, count: int) -> list[IntPoly]:
    """Polynomials with positive measure.

    Mix of non-monic products of off-circle linear factors (times an optional
    cyclotomic), monic polynomials with a root beyond the unit circle, and
    the degree-10 small-measure classic with eight on-circle roots.
    """
    lehmer = IntPoly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
    out = [lehmer]
    while len(out) < count:
        kind = rng.randint(0, 2)
        if kind == 0:
            poly = IntPoly([1])
            for _ in range(rng.randint(1, 3)):
                a = rng.randint(1, 9)
                b = rng.choice([s for s in range(-9, 10) if abs(s) not in (0, a)])
                g = math.gcd(a, abs(b))
                poly = poly * IntPoly([b // g, a // g])
        elif kind == 1:
            root = rng.randint(2, 9)
            poly = IntPoly([-root, 1]) * cyclotomic(rng.randint(1, 12))
        else:
            poly = IntPoly([-1, -1, 1]) * cyclotomic(rng.randint(1, 8))
        out.append(poly)
    return out[:count]


def _gap_check(name: str, gap: float, bound: float) -> Check:
    return Check(name, gap <= bound, f"gap={gap:.2e}")


def _suite_place_identity(rng, count):
    for i in range(count):
        rep = verify_place_identity(random_primitive_poly(rng))
        yield Check(
            f"place-identity/{i}",
            rep.all_ok and rep.log_gap < 1e-9,
            f"s={rep.s} primes={[p for p, *_ in rep.per_prime]}",
        )


def _suite_multiplicativity(rng, count):
    for i in range(count):
        f = random_primitive_poly(rng, max_deg=6, max_coeff=50)
        g = random_primitive_poly(rng, max_deg=6, max_coeff=50)
        mf = mahler_measure(f).value
        mg = mahler_measure(g).value
        gap = abs(mahler_measure(f * g).value - mf - mg)
        yield _gap_check(f"multiplicativity/{i}", gap, 2e-12)


def _suite_reciprocal(rng, count):
    for i in range(count):
        poly, _ = random_primitive_poly(rng).strip_x()
        gap = abs(mahler_measure(poly).value - mahler_measure(poly.reciprocal()).value)
        yield _gap_check(f"reciprocal/{i}", gap, 1e-10)


def _suite_block_additivity(rng, count):
    for i in range(count):
        A = random_rational_matrix(rng, max_n=3)
        B = random_rational_matrix(rng, max_n=3)
        total = algebraic_entropy(block_diag(A, B)).total
        parts = algebraic_entropy(A).total + algebraic_entropy(B).total
        yield _gap_check(f"block-additivity/{i}", abs(total - parts), 2e-12)


def _suite_inverse(rng, count):
    done = 0
    while done < count:
        M = random_rational_matrix(rng)
        try:
            Minv = inverse(M)
        except SingularMatrixError:
            continue
        gap = abs(algebraic_entropy(M).total - algebraic_entropy(Minv).total)
        yield _gap_check(f"inverse/{done}", gap, 1e-10)
        done += 1


def _suite_conjugation(rng, count):
    for i in range(count):
        M = random_rational_matrix(rng)
        P = random_invertible_int(rng, M.n)
        conjugated = inverse(P) * M * P
        yield Check(
            f"conjugation/{i}", char_poly(conjugated) == char_poly(M), "char polys equal exactly"
        )


def _suite_power_law(rng, count):
    for i in range(count):
        M = random_rational_matrix(rng, max_n=3, bound=6)
        base = algebraic_entropy(M).total
        for k in (2, 3):
            gap = abs(algebraic_entropy(M**k).total - k * base)
            yield _gap_check(f"power-law/{i}/k={k}", gap, 1e-9)


def _suite_kronecker(rng, count):
    half = max(1, count // 2)
    for label, corpus, expect in (
        ("cyclotomic", cyclotomic_product_corpus(rng, half), True),
        ("other", non_cyclotomic_corpus(rng, half), False),
    ):
        for i, poly in enumerate(corpus):
            claimed = is_cyclotomic_product(poly)
            measure = mahler_measure(poly).value
            decisions = (claimed, abs(measure) <= 1e-12, is_zero_entropy(companion(poly)))
            yield Check(
                f"kronecker/{label}/{i}",
                all(decision == expect for decision in decisions),
                f"claimed={claimed} measure={measure:.3e}",
            )


def _suite_oracle(rng, count):
    del rng, count  # fixed desk-scale corpus
    run = trajectory_counts(RationalMatrix([["3/2"]]), 1, 12)
    yield Check(
        "oracle/3-2-counts", run.counts == tuple(3**n for n in range(1, 13)), "tau(n) = 3^n"
    )
    formula = algebraic_entropy(RationalMatrix([["3/2"]])).total
    yield Check(
        "oracle/3-2-estimate",
        abs(run.h_inc[-1] - formula) <= 1e-12,
        f"H_inc={run.h_inc[-1]:.12f} formula={formula:.12f}",
    )
    run = trajectory_counts(RationalMatrix([[2]]), 1, 12)
    yield Check(
        "oracle/doubling-counts",
        run.counts == tuple(2 ** (n + 1) - 1 for n in range(1, 13)),
        "tau(n) = 2^(n+1) - 1",
    )
    # admissible grid density: estimate approaches the formula value
    run = trajectory_counts(RationalMatrix([["3/2"]]), 6, 8)
    yield Check(
        "oracle/3-2-admissible-m",
        abs(run.h_inc[-1] - formula) <= 0.05,
        f"m=6 H_inc={run.h_inc[-1]:.6f}",
    )


def _suite_bernoulli(rng, count):
    del rng, count
    for q in (2, 3, 5):
        run = bernoulli_counts(q, 8)
        yield Check(
            f"bernoulli/q={q}",
            run.counts == tuple(q**n for n in range(1, 9)) and run.estimate == math.log(q),
            f"counts={run.counts[:4]}... estimate={run.estimate:.12f}",
        )


def _suite_dichotomy(rng, count):
    fixtures = (
        ("doubling", RationalMatrix([[2]]), 12, DEFAULT_BUDGET),
        ("three-halves", RationalMatrix([["3/2"]]), 12, DEFAULT_BUDGET),
        ("rotation", RationalMatrix([[0, -1], [1, 0]]), 50, DEFAULT_BUDGET),
        ("identity", RationalMatrix.identity(2), 12, DEFAULT_BUDGET),
        ("unipotent", RationalMatrix([[1, 1], [0, 1]]), 12, DEFAULT_BUDGET),
        ("sixth-root", companion(cyclotomic(6)), 12, DEFAULT_BUDGET),
        ("fibonacci", RationalMatrix([[0, 1], [1, 1]]), 14, 1_000_000),
        ("nonarch", RationalMatrix([[0, "-1/6"], [1, "5/6"]]), 10, DEFAULT_BUDGET),
    )
    # each random matrix is drawn when the loop reaches it
    drawn = (
        (
            f"random-{i}",
            RationalMatrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]),
            12,
            1_000_000,
        )
        for i in range(count)
    )
    for systems in (fixtures, drawn):
        for name, M, n_max, budget in systems:
            run = trajectory_counts(M, 1, n_max, budget=budget)
            if run.levels < MIN_LEVELS:
                yield Check(f"dichotomy/{name}", False, "too few levels")
                continue
            formula = algebraic_entropy(M).total
            verdict = classify_growth(run, formula_entropy=formula)
            yield Check(
                f"dichotomy/{name}",
                not verdict.discrepancy,
                f"{verdict.classification} formula={formula:.4f}",
            )


SUITES = {
    "place-identity": (_suite_place_identity, 200),
    "multiplicativity": (_suite_multiplicativity, 50),
    "reciprocal": (_suite_reciprocal, 100),
    "block-additivity": (_suite_block_additivity, 40),
    "inverse": (_suite_inverse, 40),
    "conjugation": (_suite_conjugation, 60),
    "power-law": (_suite_power_law, 25),
    "kronecker": (_suite_kronecker, 100),
    "oracle": (_suite_oracle, 1),
    "bernoulli": (_suite_bernoulli, 1),
    "dichotomy": (_suite_dichotomy, 10),
}


def run_suite(name: str, seed: int = 0, count: int | None = None) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    fn, default_count = SUITES[name]
    checks = fn(random.Random(seed), count if count is not None else default_count)
    return SuiteResult(suite=name, checks=tuple(checks))
