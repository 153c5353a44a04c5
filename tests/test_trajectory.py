import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algentropy
from algentropy import numtheory, trajectory
from algentropy.entropy import algebraic_entropy
from algentropy.linalg import RationalMatrix
from algentropy.trajectory import (
    EXPONENTIAL,
    INCONCLUSIVE,
    POLYNOMIAL,
    admissible_m,
    bernoulli_counts,
    classify_growth,
    prime_support,
    trajectory_counts,
)

from oracles import naive_trajectory_counts, product_formula_admissible_m, python_int_counts, vp

DOUBLING = RationalMatrix([[2]])
THREE_HALVES = RationalMatrix([["3/2"]])
ROTATION = RationalMatrix([[0, -1], [1, 0]])
NONARCH = RationalMatrix([[0, "-1/6"], [1, "5/6"]])


def test_prime_support():
    assert prime_support(THREE_HALVES, 1) == (2,)
    assert prime_support(DOUBLING, 1) == ()
    assert prime_support(DOUBLING, 6) == (2, 3)
    assert prime_support(NONARCH, 10) == (2, 3, 5)


def test_admissible_m_examples():
    assert admissible_m(THREE_HALVES) == 6
    assert admissible_m(DOUBLING) == 3
    assert admissible_m(RationalMatrix.identity(2)) == 3
    assert admissible_m(NONARCH) == 18
    # c = ceil(||M||_inf) + 1, the largest row sum of absolute values
    assert admissible_m(RationalMatrix([[1, 1], [0, 1]])) == 3
    assert admissible_m(RationalMatrix([["7/2"]])) == 10
    assert admissible_m(RationalMatrix([[-5, "1/3"], [0, 1]])) == 21


_SMALL_ENTRY = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60))
_SQUARE_ROWS = st.integers(0, 3).flatmap(
    lambda n: st.lists(st.lists(_SMALL_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=200, deadline=None)
@given(_SQUARE_ROWS)
def test_admissible_m_is_the_product_formula(rows):
    # c * lcm(denominators) is the product over primes of max_ij |a_ij|_p^-1
    M = RationalMatrix(rows)
    assert admissible_m(M) == product_formula_admissible_m(M)


def test_counts_closed_forms():
    run = trajectory_counts(DOUBLING, 1, 12)
    assert run.counts == tuple(2 ** (n + 1) - 1 for n in range(1, 13))
    run = trajectory_counts(THREE_HALVES, 1, 12)
    assert run.counts == tuple(3**n for n in range(1, 13))
    assert run.h_inc[-1] == math.log(3)
    run = trajectory_counts(ROTATION, 1, 20)
    assert run.counts == tuple((2 * n + 1) ** 2 for n in range(1, 21))


def test_matches_naive_enumeration():
    # the scaled-integer engine against direct Fraction sumsets
    for M, m, n in (
        (THREE_HALVES, 1, 7),
        (THREE_HALVES, 2, 5),
        (NONARCH, 1, 5),
        (NONARCH, 2, 4),
        (RationalMatrix([[1, 1], [0, 1]]), 1, 6),
        (RationalMatrix([["-2/3"]]), 1, 6),
    ):
        expected, points = naive_trajectory_counts(M, m, n)
        run = trajectory_counts(M, m, n)
        assert run.counts == tuple(expected)
        # containment: outside the support, all coordinates are p-integral
        support = prime_support(M, m)
        for p in (2, 3, 5, 7):
            if p in support:
                continue
            for vec in points:
                assert all(vp(c, p) >= 0 for c in vec if c != 0)


def test_trajectory_counts_do_not_factor(monkeypatch):
    # only the CLI's support_primes needs the primes of m * d: the counts of
    # 1/n need no factor of n, so an exhausted rho budget does not stop them
    monkeypatch.setattr(numtheory, "_RHO_BUDGET", 2**10)
    n = (2**31 - 1) * (2**61 - 1)
    assert trajectory_counts(RationalMatrix([[Fraction(1, n)]]), 1, 3).counts == (3, 9, 27)


def test_exact_path_matches_packed_path():
    for M, m, n in ((THREE_HALVES, 1, 8), (NONARCH, 1, 5), (ROTATION, 1, 10)):
        fast = trajectory_counts(M, m, n)
        slow = python_int_counts(M, m, n)
        assert fast.counts == slow.counts


def test_three_dimensional_against_naive():
    M = RationalMatrix([[0, 1, 0], [0, 0, 1], [1, 0, "1/2"]])
    expected, _ = naive_trajectory_counts(M, 1, 4)
    run = trajectory_counts(M, 1, 4)
    assert run.counts == tuple(expected)
    N = RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, -1]])
    expected, _ = naive_trajectory_counts(N, 1, 5)
    assert trajectory_counts(N, 1, 5).counts == tuple(expected)


def test_int64_overflow_falls_back_to_exact():
    # nilpotent with denominator 6: the storage scale 6^(n-1) overflows the
    # packed-key path around n = 13 while the counts stay tiny
    M = RationalMatrix([[0, "1/6"], [0, 0]])
    fast = trajectory_counts(M, 1, 30)
    slow = python_int_counts(M, 1, 30)
    assert fast.counts == slow.counts
    assert fast.counts[-1] == 27


def _expanded_levels(monkeypatch, *args):
    """Run trajectory_counts; also return the state of every expanded level.

    A run's last level on int64 or Python-int keys is only counted: its
    state holds no keys, and is returned as it is (see `_counted`)."""
    levels = []
    for cls in (trajectory._PackedState, trajectory._TableState, trajectory._ExactState):

        def expand(self, *a, _real=cls.expand):
            state, reason = _real(self, *a)
            if state is not None:
                # the next level's expand takes the chunks over and moves
                # them in place, so keep a copy
                chunks = state.chunks if _counted(state) else [c.copy() for c in state.chunks]
                levels.append(type(state)(chunks, state.lo, state.hi))
            return state, reason

        monkeypatch.setattr(cls, "expand", expand)
    return trajectory_counts(*args), levels


def _counted(state):
    """Whether the level holds its number of points, chunks = [count], in
    place of its points."""
    return isinstance(state.chunks[0], int)


def _stored(levels):
    return [state for state in levels if not _counted(state)]


def _stored_points(state):
    """Decode a state's keys digit by digit, its runs of keys, or its rank
    keys through its value tables; the chunks must be nonempty and hold
    distinct keys in the box in any order, maximal nonempty runs in
    increasing order, or strictly increasing tables of exactly the occupied
    digits and strictly increasing keys below the tables' size product, and
    the box must be their exact extent."""
    assert state.chunks and all(len(c) for c in state.chunks), "no chunks, or an empty one"
    if isinstance(state, trajectory._TableState):
        keys, *tables = (c.tolist() for c in state.chunks)
        assert all(a < b for t in tables for a, b in zip(t, t[1:])), "a table not strictly increasing"
        assert all(a < b for a, b in zip(keys, keys[1:])), "keys not strictly increasing"
        assert 0 <= keys[0] and keys[-1] < math.prod(map(len, tables)), "a key outside its tables"
        points = set()
        for key in keys:
            digits = []
            for table in reversed(tables):
                key, rank = divmod(key, len(table))
                digits.append(table[rank])
            points.add(tuple(lo + c for c, lo in zip(reversed(digits), state.lo)))
        for j, (table, lo) in enumerate(zip(tables, state.lo)):
            assert {p[j] - lo for p in points} == set(table), f"table {j} not the occupied digits"
    else:
        if isinstance(state, trajectory._RunState):
            runs = _runs(state)
            assert all(s < e for s, e in runs), "an empty run"
            assert all(e < s for (_, e), (s, _) in zip(runs, runs[1:])), "runs out of order, or not maximal"
            keys = [key for s, e in runs for key in range(s, e)]
        else:
            (keys,) = (c.tolist() for c in state.chunks)
            assert len(set(keys)) == len(keys), "keys not distinct"
        points = set()
        for key in keys:
            coords = []
            for lo, hi in zip(reversed(state.lo), reversed(state.hi)):
                key, digit = divmod(key, hi - lo + 1)
                coords.append(lo + digit)
            assert key == 0, "key outside its box"
            points.add(tuple(reversed(coords)))
    for j, (lo, hi) in enumerate(zip(state.lo, state.hi)):
        axis = [p[j] for p in points]
        assert (min(axis), max(axis)) == (lo, hi), f"box not exact on axis {j}"
    return points


def _runs(state):
    starts, ends = state.chunks
    return list(zip(starts.tolist(), ends.tolist()))


@pytest.mark.parametrize("python_ints", [False, True])
def test_carried_box_is_exact(monkeypatch, python_ints):
    # the box carried from level to level is the true per-axis extent of the
    # stored points, and those points are the enumeration at scale m d^(n-1);
    # checked with int64 keys, runs of them for integer matrices, and, with
    # the layouts' limits at 1, with every expanded level held as value
    # tables and rank keys, or as Python-int keys
    layouts = [(trajectory._ExactState, (1, 1))] if python_ints else [
        (trajectory._PackedState, None),
        (trajectory._TableState, (1, trajectory._INT64_LIMIT)),
    ]
    systems = (
        (THREE_HALVES, 1, 7),
        (NONARCH, 2, 3),
        (ROTATION, 1, 5),
        (RationalMatrix([[0, 1], [1, 1]]), 1, 6),
        (RationalMatrix([[0, 1, 0], [0, 0, 1], [1, 0, "1/2"]]), 1, 3),
    )
    for (layout, limits), (M, m, n) in itertools.product(layouts, systems):
        if limits is not None:
            monkeypatch.setattr(trajectory._PackedState, "limit", limits[0])
            monkeypatch.setattr(trajectory._TableState, "limit", limits[1])
        # level n is stored in this run, and the last level, only counted, in the other
        longer = trajectory_counts(M, m, n + 1)
        run, levels = _expanded_levels(monkeypatch, M, m, n)
        assert run.counts == longer.counts[:n]
        assert len(levels) == n - 1
        d = M.denominator_lcm()
        expected_layout = trajectory._RunState if layout is trajectory._PackedState and d == 1 else layout
        assert {type(s) for s in levels} == {expected_layout}
        # keys are counted on their last level, runs and value tables stored
        counts_last = expected_layout in (trajectory._PackedState, trajectory._ExactState)
        assert [_counted(s) for s in levels] == [False] * (n - 2) + [counts_last]
        for level, state in enumerate(levels, start=2):
            _, expected = naive_trajectory_counts(M, m, level)
            if _counted(state):
                assert len(state) == run.counts[level - 1] == len(expected)
                continue
            points = _stored_points(state)
            assert len(points) == len(state) == run.counts[level - 1]
            if isinstance(state, trajectory._RunState):
                assert len(_runs(state)) <= len(state) / (2 * m + 1)
            scale = m * d ** (level - 1)
            assert {tuple(Fraction(c, scale) for c in p) for p in points} == expected
        monkeypatch.undo()


def test_int64_to_columns_mid_run(monkeypatch):
    # the benchmark's wide shapes: past 2^62 keys, after level 1 or 2, every
    # axis and the product of the table sizes still fit a word, so the
    # points move to value tables and never to Python ints
    swap = RationalMatrix([[0, "1/46351"], ["1/46351", 0]])  # 46351 is prime
    K = 10**6
    unipotent = RationalMatrix([[1, K, 0], [0, 1, K], [0, 0, 1]])
    q = "1/1009"  # 1009 is prime; level 3 holds 27^3 points on 3 axes
    cyclic = RationalMatrix([[0, 0, q], [q, 0, 0], [0, q, 0]])
    for M, n, expected in (
        (swap, 3, tuple(9**k for k in range(1, 4))),
        (unipotent, 4, (27, 405, 4347, 35721)),
        (cyclic, 3, (27, 729, 19683)),
    ):
        run, levels = _expanded_levels(monkeypatch, M, 1, n)
        assert run.counts == expected
        backends = [type(s).__name__ for s in levels]
        # the integer matrix starts on runs of keys, the swap on keys
        first = "_RunState" if M.denominator_lcm() == 1 else "_PackedState"
        assert backends[0] == first and backends[-1] == "_TableState"
        assert "_ExactState" not in backends
        if first == "_PackedState":
            # out of order, so the rank keys are sorted only by the widening
            keys = levels[0].chunks[0]
            assert (keys[1:] < keys[:-1]).any()
        for state in levels:
            assert len(_stored_points(state)) == len(state)
        monkeypatch.undo()


@pytest.mark.parametrize(
    "M, m, n",
    [
        (RationalMatrix([[0, 1], [1, 1]]), 1, 14),
        (RationalMatrix([[2, 1], [1, 1]]), 3, 5),
        (RationalMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]), 2, 5),
        (RationalMatrix([[-2]]), 4, 6),
        (RationalMatrix([[0, 0], [1, 0]]), 2, 4),
        # each level is one full box, one run that crosses every row: every
        # move cuts it
        (RationalMatrix.identity(2), 1, 8),
    ],
)
def test_integer_levels_are_runs_of_at_least_2m_plus_1(monkeypatch, M, m, n):
    # a level of an integer matrix is a union of translates of the grid box,
    # so each of its maximal runs holds a row segment of 2m+1 keys
    exact = python_int_counts(M, m, n)
    run, levels = _expanded_levels(monkeypatch, M, m, n)
    assert run.counts == exact.counts
    if M == RationalMatrix.identity(2):
        assert run.counts == tuple((2 * k + 1) ** 2 for k in range(1, n + 1))
        assert all(len(_runs(s)) == 1 for s in levels)
    assert len(levels) == n - 1 and all(isinstance(s, trajectory._RunState) for s in levels)
    for state in levels:
        assert len(_stored_points(state)) == len(state)
        assert len(_runs(state)) <= len(state) / (2 * m + 1)


def test_axis_past_int64_reaches_python_ints(monkeypatch):
    # 1/(2^31 - 1): level 2's box has about 2^64 keys on two 2^32-wide axes,
    # and level 3's axes are about 2^63 wide, past what a table holds; level
    # 4, the last, is only counted
    p = 2**31 - 1
    swap = RationalMatrix([[0, f"1/{p}"], [f"1/{p}", 0]])
    run, levels = _expanded_levels(monkeypatch, swap, 1, 4)
    assert run.counts == (9, 81, 729, 6561)
    assert [type(s).__name__ for s in levels] == ["_TableState", "_ExactState", "_ExactState"]
    assert 2**62 <= max(h - l + 1 for l, h in zip(levels[1].lo, levels[1].hi)) < 2**63
    assert isinstance(levels[1].chunks[0][0], int)
    assert [_counted(s) for s in levels] == [False, False, True]
    for state in _stored(levels):
        assert len(_stored_points(state)) == len(state)


def test_table_product_at_the_limit_widens_to_python_ints(monkeypatch):
    # Fibonacci's level 2 has tables of 5 and 7 digits, level 3 of 9 and 13:
    # with the table layout's limit at 117 level 3 overflows on the product
    # of its table sizes while both axes, 9 and 13 wide, still fit
    limit = 117
    monkeypatch.setattr(trajectory._PackedState, "limit", 1)
    monkeypatch.setattr(trajectory._TableState, "limit", limit)
    M = RationalMatrix([[0, 1], [1, 1]])
    exact = python_int_counts(M, 1, 5)
    run, levels = _expanded_levels(monkeypatch, M, 1, 5)
    assert run.counts == exact.counts
    assert [type(s).__name__ for s in levels] == ["_TableState"] + ["_ExactState"] * 3
    points = _stored_points(levels[1])
    extents = [h - l + 1 for l, h in zip(levels[1].lo, levels[1].hi)]
    assert max(extents) < limit <= math.prod(len({p[j] for p in points}) for j in range(2))
    # the last level, on Python-int keys, is counted against python_int_counts above
    assert [_counted(s) for s in levels] == [False] * 3 + [True]
    for state in _stored(levels):
        assert len(_stored_points(state)) == len(state)


_ENTRY = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


@st.composite
def _small_systems(draw):
    dim = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(_ENTRY, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    # m = 3 and 4 take offset sets that m = 1, 2 and 18 do not: (0, 3, 4)
    # and (0, 3, 5) after (0, 1, 2)
    m = draw(st.sampled_from([1, 2, 3, 4] if dim <= 2 else [1, 2]))
    # keep the naive oracle's work, about (2m+1)^(dim*n) sums, small
    n = 1
    while (2 * m + 1) ** (dim * (n + 1)) <= 5_000:
        n += 1
    return RationalMatrix(rows), m, draw(st.integers(1, max(n, 2)))


@settings(max_examples=40, deadline=None)
@given(_small_systems())
def test_engine_matches_naive_property(system):
    M, m, n = system
    expected, _ = naive_trajectory_counts(M, m, n)
    counts = {trajectory_counts(M, m, n).counts, python_int_counts(M, m, n).counts}
    assert counts == {tuple(expected)}


@settings(max_examples=60, deadline=None)
@given(
    _small_systems(),
    st.sampled_from([(8, 1 << 62), (8, 6), (1, 1)]),
    st.sampled_from([0, 10, 100, None]),
)
def test_layouts_widening_mid_run_match_naive_property(system, limits, slack):
    # small layout limits move a run from int64 keys to value tables to
    # Python ints partway through; counts, and the level a budget stops a
    # run at, are those of the naive enumeration and the Python-int backend
    M, m, n = system
    expected, _ = naive_trajectory_counts(M, m, n)
    budget = trajectory.DEFAULT_BUDGET if slack is None else expected[0] + slack
    stop = next((level for level, c in enumerate(expected, start=1) if c > budget), None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trajectory._PackedState, "limit", limits[0])
        patch.setattr(trajectory._TableState, "limit", limits[1])
        run = trajectory_counts(M, m, n, budget=budget)
    exact = python_int_counts(M, m, n, budget=budget)
    assert run.counts == exact.counts == tuple(expected[: stop - 1 if stop else n])
    assert run.budget_exhausted_at == exact.budget_exhausted_at == stop


def test_nesting_and_subadditivity_exposed():
    run = trajectory_counts(RationalMatrix([[2, 1], [1, 1]]), 1, 9)
    for a, b in zip(run.counts, run.counts[1:]):
        assert b >= a
    L = run.levels
    for a in range(1, L + 1):
        for b in range(a, L - a + 1):
            assert run.counts[a + b - 1] <= run.counts[a - 1] * run.counts[b - 1]


def test_fekete_consistency():
    for M, m, n in (
        (DOUBLING, 1, 12),
        (THREE_HALVES, 1, 10),
        (ROTATION, 1, 30),
        (NONARCH, 1, 8),
    ):
        run = trajectory_counts(M, m, n)
        window = run.h_inc[-5:]
        assert run.h_cum[-1] >= sum(window) / len(window) - 1e-9


def test_monotone_in_grid_density():
    for M in (THREE_HALVES, NONARCH):
        coarse = trajectory_counts(M, 1, 5)
        fine = trajectory_counts(M, 2, 5)
        assert all(a <= b for a, b in zip(coarse.counts, fine.counts))
        assert coarse.h_cum[-1] <= fine.h_cum[-1] + 1e-12


def test_budget_truncation():
    run = trajectory_counts(THREE_HALVES, 1, 12, budget=1000)
    assert run.budget_exhausted_at == 7  # tau(7) = 2187 > 1000
    assert run.counts == tuple(3**n for n in range(1, 7))
    # tau(4) = 1,779,697 on a last level that is only counted: a budget of
    # exactly that passes, one less stops the run there
    pinned = (1369, 24049, 234001, 1779697)
    run = trajectory_counts(NONARCH, 18, 4, budget=1_779_697)
    assert run.counts == pinned and run.budget_exhausted_at is None
    run = trajectory_counts(NONARCH, 18, 4, budget=1_779_696)
    assert run.counts == pinned[:3] and run.budget_exhausted_at == 4
    with pytest.raises(ValueError):
        trajectory_counts(THREE_HALVES, 1, 5, budget=2)


def test_classification():
    rot = trajectory_counts(ROTATION, 1, 50)
    assert classify_growth(rot).classification == POLYNOMIAL
    doubling = trajectory_counts(DOUBLING, 1, 12)
    assert classify_growth(doubling).classification == EXPONENTIAL
    ident = trajectory_counts(RationalMatrix.identity(2), 1, 12)
    assert classify_growth(ident).classification == POLYNOMIAL
    unipotent = trajectory_counts(RationalMatrix([[1, 1], [0, 1]]), 1, 12)
    assert classify_growth(unipotent).classification == POLYNOMIAL

    formula = algebraic_entropy(ROTATION).total
    verdict = classify_growth(rot, formula_entropy=formula)
    assert verdict.classification == POLYNOMIAL and not verdict.discrepancy
    # a wrong formula value must be flagged
    assert classify_growth(rot, formula_entropy=1.0).discrepancy

    with pytest.raises(ValueError):
        classify_growth(trajectory_counts(DOUBLING, 1, 5))


def test_bernoulli():
    for q in (2, 3, 5):
        run = bernoulli_counts(q, 8)
        assert run.counts == tuple(q**n for n in range(1, 9))
        assert all(h == math.log(q) for h in run.h_inc)
        assert run.estimate == math.log(q)
    assert bernoulli_counts(2, 1).counts == (2,)
    with pytest.raises(ValueError):
        bernoulli_counts(1, 4)


def test_validation_errors():
    # Q^0 is no error: its grid is {()}, so every count is 1
    run = trajectory_counts(RationalMatrix([]), 1, 3)
    assert run.counts == (1, 1, 1) and run.h_inc == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        trajectory_counts(DOUBLING, 0, 3)
    with pytest.raises(ValueError):
        trajectory_counts(DOUBLING, 1, 0)


def test_inconclusive_constant():
    assert INCONCLUSIVE == "Inconclusive"


def test_offset_sets_cover_each_span_exactly():
    # choosing one offset per set gives every total in 0..span once or more
    # and none past it, with at most three runs per step
    for span in range(401):
        sets = list(trajectory._offset_sets(span))
        assert all(o[0] == 0 and len(o) <= 3 and list(o) == sorted(set(o)) for o in sets)
        totals = {0}
        for offsets in sets:
            totals = {t + o for t in totals for o in offsets}
        assert totals == set(range(span + 1)), span
    assert [len(list(trajectory._offset_sets(2 * m))) for m in (1, 3, 18)] == [1, 2, 4]


@st.composite
def _progressions(draw):
    """Distinct keys in any order, a key shift and a span, with every key +
    c * delta, 0 <= c <= span, non-negative as in a level's box."""
    dtype = draw(st.sampled_from([np.int64, object]))
    span = draw(st.sampled_from([2, 6, 36]))
    huge = 1 << (40 if dtype is np.int64 else 100)  # past int64 for Python ints
    delta = draw(st.integers(1, 50) | st.integers(1, huge)) * draw(st.sampled_from([1, -1]))
    # dense keys overlap and touch under the shift, sparse ones do not
    width = draw(st.sampled_from([8, 300, huge]))
    keys = draw(st.lists(st.integers(0, width), unique=True, min_size=1, max_size=300))
    if delta < 0:
        keys = [k - span * delta for k in keys]
    return np.array(keys, dtype=dtype), delta, span


@settings(max_examples=200, deadline=None)
@given(_progressions())
def test_progression_union_is_the_union(case):
    # against a union of shifted copies, with budgets one below and exactly
    # at the union's size
    keys, delta, span = case
    expected = functools.reduce(np.union1d, [keys + c * delta for c in range(span + 1)])
    for count_only in (False, True):
        assert trajectory._progression_union(keys.copy(), delta, span, len(expected) - 1, count_only) is None
    assert trajectory._progression_union(keys.copy(), delta, span, len(expected), True) == len(expected)
    result = trajectory._progression_union(keys.copy(), delta, span, len(expected), False)
    assert result.dtype == keys.dtype
    assert len(result) == len(expected) and sorted(result.tolist()) == expected.tolist()


@pytest.mark.parametrize("span", [2, 36])
@pytest.mark.parametrize("sign", [1, -1])
def test_progression_union_next_to_the_int64_limit(span, sign):
    # a box of just under 2^62 keys and |delta| * span close to its size:
    # the composite keys res * Q + quo reach past the box, to 4/3 of it at
    # span 2, and a wrap anywhere breaks the union against Python ints
    size = trajectory._INT64_LIMIT - 1
    a = size // (span + 1)
    rng = random.Random(span)
    keys = [rng.randrange(size - span * a) for _ in range(200)] + [size - span * a - 1, 0]
    keys = sorted(set(keys), key=lambda _: rng.random())
    if sign < 0:
        keys = [k + span * a for k in keys]
    expected = {k + c * sign * a for k in keys for c in range(span + 1)}
    assert max(expected) < size
    result = trajectory._progression_union(np.array(keys, dtype=np.int64), sign * a, span, len(expected), False)
    assert len(result) == len(expected) and set(result.tolist()) == expected


@st.composite
def _key_runs(draw):
    """Runs [s, e) in increasing order, some touching: maximal runs of a key set, cut at random keys."""
    span = draw(st.sampled_from([8, 300, 1 << 40]))
    keys = sorted(draw(st.lists(st.integers(-span, span), unique=True, max_size=200)))
    cuts = set(draw(st.lists(st.sampled_from(keys), max_size=5))) if keys else set()
    starts = [k for i, k in enumerate(keys) if i == 0 or keys[i - 1] != k - 1 or k in cuts]
    ends = [k + 1 for i, k in enumerate(keys) if i + 1 == len(keys) or keys[i + 1] != k + 1 or k + 1 in cuts]
    return np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(
    _key_runs(),
    st.lists(st.integers(-400, 400) | st.integers(-(1 << 41), 1 << 41), min_size=1, max_size=3),
)
def test_run_union_is_the_union_as_maximal_runs(runs, shifts):
    starts, ends = runs
    expected = {k + t for s, e in zip(starts.tolist(), ends.tolist()) for k in range(s, e) for t in shifts}
    new_starts, new_ends = trajectory._run_union(starts, ends, shifts)
    union = list(zip(new_starts.tolist(), new_ends.tolist()))
    assert all(s < e for s, e in union)
    assert all(e < s for (_, e), (s, _) in zip(union, union[1:])), "runs out of order, or not maximal"
    keys = [k for s, e in union for k in range(s, e)]
    assert len(keys) == len(expected) and set(keys) == expected


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda dim: st.tuples(
        st.lists(st.tuples(*[st.integers(0, 6)] * dim), unique=True, min_size=1, max_size=40),
        st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=3),
    )),
    st.lists(st.integers(-9, 15), max_size=6),
)
def test_table_union_is_the_union_of_rows(case, unoccupied):
    # up to three shifted copies, some by negative shifts, of points ranked
    # in value tables with gaps, against the set union of the rows; the
    # tables hold every digit of the union and digits no point has, as a
    # level's final tables do
    rows, shifts = case
    union = {tuple(c + s for c, s in zip(row, t)) for row in rows for t in shifts}
    axes = zip(*rows, *union, strict=True)
    tables = [np.array(sorted(set(axis) | set(unoccupied)), dtype=np.int64) for axis in axes]

    def key(row):
        k = 0
        for table, c in zip(tables, row):
            k = k * len(table) + int(table.searchsorted(c))
        return k

    keys = np.array(sorted(map(key, rows)), dtype=np.int64)
    result = trajectory._table_union(keys, tables, [np.array(t, dtype=np.int64) for t in shifts])
    assert result.dtype == np.int64
    decoded = []
    for key in result.tolist():
        digits = []
        for table in reversed(tables):
            key, rank = divmod(key, len(table))
            digits.append(int(table[rank]))
        assert key == 0
        decoded.append(tuple(reversed(digits)))
    assert decoded == sorted(union)


def test_pinned_counts_on_int64_and_python_int_keys():
    # criterion 10's frozen sequences, on runs of keys (Fibonacci) and on
    # progression unions of int64 keys (nonarch), against Python-int keys
    from test_acceptance import PINNED_COUNTS

    for name, M, m, n in (
        ("fibonacci", RationalMatrix([[0, 1], [1, 1]]), 1, 20),
        ("nonarch", NONARCH, 18, 3),
    ):
        counts = trajectory_counts(M, m, n).counts
        exact = python_int_counts(M, m, n).counts
        pinned = PINNED_COUNTS[name][:n]
        assert _blob(counts) == _blob(pinned) == _blob(exact)


@pytest.mark.parametrize(
    "M, m, n", [(RationalMatrix([[0, 1], [1, 1]]), 1, 22), (NONARCH, 18, 4)], ids=["fibonacci", "nonarch"]
)
def test_peak_memory_is_about_two_levels_of_keys(M, m, n):
    # a step holds its input keys, their quotients or differences, and its
    # output: no shifted copy of a level, and no previous level's keys beside
    # the ones that move
    tracemalloc.start()
    try:
        run = trajectory_counts(M, m, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.budget_exhausted_at is None
    assert peak <= 3.2 * 8 * run.counts[-1], peak / (8 * run.counts[-1])


def _blob(counts):
    return json.dumps([str(c) for c in counts]).encode()


_THREADS_AFTER = """
import sys, threading
from algentropy import cli

if sys.argv[1] == "shard":
    # nonarch: 1.78 M keys at n = 4, the largest level in the examples
    runs = [["trajectory", "--matrix", '[["0","-1/6"],["1","5/6"]]', "--m", "18", "--max-n", "4"]]
else:
    runs = [
        ["entropy", "--matrix", '[["3/2","1"],["0","-1"]]'],
        ["trajectory", "--matrix", '[["0","1/46351"],["1/46351","0"]]', "--max-n", "3"],
        ["trajectory", "--matrix", '[["0","1"],["1","1"]]', "--max-n", "12"],
    ]
codes = [cli.main(argv) for argv in runs]
print(codes, "concurrent.futures" in sys.modules, threading.active_count())
"""


@pytest.mark.parametrize("mode, past_a_million_keys", [("small", False), ("shard", True)])
def test_worker_threads_start_only_for_split_steps(mode, past_a_million_keys):
    # no step is split, so no run imports an executor or starts a thread:
    # every level, past a million keys or not, runs on the calling thread
    src = str(Path(algentropy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", _THREADS_AFTER, mode],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    codes, started, threads = run.stdout.splitlines()[-1].rsplit(" ", 2)
    assert set(json.loads(codes)) == {0}
    assert started == "False" and threads == "1"
    assert past_a_million_keys == ("1779697" in run.stdout)


_SHRINKING_LEVEL = """
import numpy as np
from algentropy import trajectory
from algentropy.linalg import RationalMatrix
from algentropy.ratpoly import InvariantError

real_expand = trajectory._PackedState.expand

def shrinking(self, *args):
    # each level, the counted last one too, becomes the one key 0
    state, reason = real_expand(self, *args)
    return (None if state is None else trajectory._PackedState([np.zeros(1, dtype=np.int64)], state.lo, state.hi)), reason

trajectory._PackedState.expand = shrinking
assert False, "python -O strips this"
try:
    trajectory.trajectory_counts(RationalMatrix([["3/2"]]), 1, 4)
except InvariantError as exc:
    print("InvariantError:", exc)
"""


def test_monotone_count_check_survives_python_O():
    src = str(Path(algentropy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", _SHRINKING_LEVEL],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("InvariantError: trajectory counts must be nondecreasing")


_INTEGER_ROW_ENTRY = st.builds(Fraction, st.integers(-60, 60))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(_SMALL_ENTRY, min_size=n, max_size=n)
        | st.lists(_INTEGER_ROW_ENTRY, min_size=n, max_size=n)  # no denominator
        | st.just([Fraction(0)] * n),
        min_size=n, max_size=n,
    )
))
def test_integer_inputs_are_the_fraction_formulas(rows):
    # admissible_m and the scaled matrix d*M that the first level moves the
    # grid by, both read from the row denominators and integer rows, against
    # ceil(max row sum of |e|) and int(e * d) over Fractions
    M = RationalMatrix(rows)
    d = math.lcm(*(e.denominator for row in rows for e in row))
    c = max(math.ceil(max(sum(abs(e) for e in row) for row in rows)) + 1, 3)
    assert admissible_m(M) == c * d
    seen = []
    real = trajectory._PackedState.expand

    def recording(self, d, axes, *args):
        seen.append((d, axes))
        return real(self, d, axes, *args)

    trajectory._PackedState.expand = recording
    try:
        trajectory_counts(M, 1, 2)
    finally:
        trajectory._PackedState.expand = real
    [(scale, axes)] = seen
    assert scale == d
    assert [list(col) for col in zip(*axes)] == [[int(e * d) for e in row] for row in rows]
