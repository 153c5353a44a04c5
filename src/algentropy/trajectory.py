"""Brute-force trajectory enumeration: the independent growth oracle.

Counts tau(n) = |E + phi(E) + ... + phi^(n-1)(E)| exactly for the grid
E = {(c_1, ..., c_N) : c_i in {0, +/-1/m, ..., +/-m/m}}.  Vectors at level n
are stored as integer tuples at the fixed scale m * d^(n-1), where d is the
lcm of the matrix-entry denominators: dedup is then pure integer equality,
and moving to the next level multiplies stored points by d and adds the
scaled image of the grid, tracked exactly through integer powers of d*M.

The scaled image of the grid is itself a product of arithmetic progressions
along the N image axes, so one level expands axis by axis with doubling
(span 1, 2, 4, ... up to 2m), costing about N * log2(m) sorted-set unions
instead of (2m+1)^N sumset passes.  The hot path packs coordinates into
int64 keys (per-level affine packing) and dedups with numpy; when a level
would not fit in int64 the state falls back to exact big-int tuples.  Both
paths compute the same sets, and partitioned expansion (candidates split by
key residue, merged by union) yields counts independent of the partition
count by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .linalg import RationalMatrix, operator_norm
from .numtheory import prime_divisors
from .ratpoly import InvariantError, vp

DEFAULT_BUDGET = 20_000_000
_INT64_LIMIT = 1 << 62

EXPONENTIAL = "Exponential"
POLYNOMIAL = "Polynomial"
INCONCLUSIVE = "Inconclusive"

_EPS_EXP = 0.02  # nats; exponential-growth floor for the trailing window
_WINDOW = 5


@dataclass(frozen=True)
class PrimeSupport:
    """Finite primes dividing m or an entry denominator; infinity implicit."""

    primes: frozenset[int]
    includes_infinity: bool = True

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.primes))


@dataclass(frozen=True)
class TrajectoryRun:
    matrix_id: str
    dim: int
    m: int
    counts: tuple[int, ...]  # tau(1..L), exact
    h_cum: tuple[float, ...]  # log tau(n) / n
    h_inc: tuple[float, ...]  # log(tau(n) / tau(n-1)), with tau(0) = 1
    budget: int
    budget_exhausted_at: int | None
    support_primes: tuple[int, ...]
    classification: str | None = None

    @property
    def levels(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class GrowthAssessment:
    classification: str
    formula_entropy: float | None
    discrepancy: bool


def fraction_grid(dim: int, m: int) -> set[tuple[Fraction, ...]]:
    """The (2m+1)^dim grid of vectors with coordinates j/m, |j| <= m."""
    if dim < 1 or m < 1:
        raise ValueError("dim and m must be >= 1")
    rng = [Fraction(j, m) for j in range(-m, m + 1)]
    return set(itertools.product(rng, repeat=dim))


def prime_support(M: RationalMatrix, m: int) -> PrimeSupport:
    """Primes dividing m or any entry denominator of M."""
    if m < 1:
        raise ValueError("m must be >= 1")
    primes = set(prime_divisors(m))
    primes.update(prime_divisors(M.denominator_lcm()))
    return PrimeSupport(primes=frozenset(primes))


def admissible_m(M: RationalMatrix) -> int:
    """A grid density m for which the run's limit equals the entropy.

    Conservative rule: c * prod over support primes of p^(e_p), where
    p^e_p = max_ij |a_ij|_p and c = max(ceil(||M||_inf) + 1, 3).  Any
    multiple of a valid density is valid, so rounding up is safe.
    """
    c = max(math.ceil(operator_norm(M, math.inf)) + 1, 3)
    m = c
    for p in sorted(prime_support(M, 1).primes):
        e = 0
        for row in M.rows:
            for entry in row:
                v = vp(entry, p)
                if v is not math.inf and v < 0:
                    e = max(e, -v)
        m *= p**e
    return m


def _merge_sorted(acc: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Union of two sorted unique int64 arrays, keeping the result sorted."""
    pos = np.searchsorted(acc, batch)
    member = np.zeros(batch.size, dtype=bool)
    inside = pos < acc.size
    member[inside] = acc[pos[inside]] == batch[inside]
    novel = batch[~member]
    if novel.size == 0:
        return acc
    return np.insert(acc, pos[~member], novel)


def _doubling_steps(span: int):
    """Step sizes 1, 2, 4, ... whose running sums cover 0..span exactly."""
    s = 0
    while s < span:
        step = min(s + 1, span - s)
        yield step
        s += step


class _PackedState:
    """Point set as an int64 coordinate array; dedup via packed keys."""

    def __init__(self, coords: np.ndarray):
        self.coords = coords

    def __len__(self) -> int:
        return self.coords.shape[0]

    def expand(self, d: int, axes, m: int, budget: int, partitions: int):
        X = self.coords
        dim = X.shape[1]
        lo_t = [int(v) for v in X.min(axis=0)]
        hi_t = [int(v) for v in X.max(axis=0)]
        # working coordinate range: rescaled points plus per-axis progression
        # coefficients shifted to 0..2m (translated back to -m..m at the end)
        lo = [
            d * lo_t[j] + sum(min(0, 2 * m * v[j]) for v in axes) for j in range(dim)
        ]
        hi = [
            d * hi_t[j] + sum(max(0, 2 * m * v[j]) for v in axes) for j in range(dim)
        ]
        base = [h - l + 1 for l, h in zip(lo, hi)]
        if math.prod(base) >= _INT64_LIMIT or max(
            max(abs(l), abs(h)) for l, h in zip(lo, hi)
        ) >= _INT64_LIMIT:
            return None, "overflow"
        weights = [1] * dim
        for j in range(dim - 2, -1, -1):
            weights[j] = weights[j + 1] * base[j + 1]
        d64 = np.int64(d)
        keys = X[:, 0] * d64
        for j in range(1, dim):
            keys = keys * np.int64(base[j]) + X[:, j] * d64
        keys = keys - np.int64(sum(l * w for l, w in zip(lo, weights)))
        keys.sort()
        parts: list = [None] * partitions
        if partitions == 1:
            parts[0] = keys
        else:
            residue = keys % partitions
            for p in range(partitions):
                parts[p] = keys[residue == p]
        for v in axes:
            delta = sum(v[j] * weights[j] for j in range(dim))
            if delta == 0:
                continue
            for step in _doubling_steps(2 * m):
                shift = np.int64(step * delta)
                shifted = [
                    None if a is None or a.size == 0 else a + shift for a in parts
                ]
                for block in shifted:
                    if block is None:
                        continue
                    if partitions == 1:
                        pieces = ((0, block),)
                    else:
                        residue = block % partitions
                        pieces = tuple(
                            (p, block[residue == p]) for p in range(partitions)
                        )
                    for p, piece in pieces:
                        if piece.size == 0:
                            continue
                        parts[p] = (
                            piece.copy()
                            if parts[p] is None
                            else _merge_sorted(parts[p], piece)
                        )
                running = sum(a.size for a in parts if a is not None)
                if running > budget:
                    return None, "budget"
        # unpack with the -m translate folded into the offsets
        t0 = [-m * sum(v[j] for v in axes) for j in range(dim)]
        lo2 = [l + t for l, t in zip(lo, t0)]
        total = sum(a.size for a in parts if a is not None)
        out = np.empty((total, dim), dtype=np.int64)
        pos = 0
        for a in parts:
            if a is None or a.size == 0:
                continue
            k = a.copy()
            block = out[pos : pos + a.size]
            for j in range(dim - 1, 0, -1):
                block[:, j] = k % base[j] + lo2[j]
                k //= base[j]
            block[:, 0] = k + lo2[0]
            pos += a.size
        return _PackedState(out), "ok"

    def to_exact(self) -> "_ExactState":
        return _ExactState({tuple(int(v) for v in row) for row in self.coords})


class _ExactState:
    """Point set as exact big-int tuples (fallback for deep rescaled runs)."""

    def __init__(self, points: set):
        self.points = points

    def __len__(self) -> int:
        return len(self.points)

    def expand(self, d: int, axes, m: int, budget: int, partitions: int):
        dim = len(axes[0])
        acc = {tuple(d * t[j] for j in range(dim)) for t in self.points}
        for v in axes:
            if all(c == 0 for c in v):
                continue
            for step in _doubling_steps(2 * m):
                move = tuple(step * c for c in v)
                acc |= {tuple(t[j] + move[j] for j in range(dim)) for t in acc}
                if len(acc) > budget:
                    return None, "budget"
        t0 = tuple(-m * sum(v[j] for v in axes) for j in range(dim))
        acc = {tuple(t[j] + t0[j] for j in range(dim)) for t in acc}
        return _ExactState(acc), "ok"

    def to_exact(self) -> "_ExactState":
        return self


def _log_ratio(a: int, b: int) -> float:
    """log(a/b) for exact big integers, exact when the ratio is integral."""
    if b == 1:
        return math.log(a)
    if a % b == 0:
        return math.log(a // b)
    return math.log(a) - math.log(b)


def trajectory_counts(
    M: RationalMatrix,
    m: int,
    n_max: int,
    budget: int = DEFAULT_BUDGET,
    partitions: int = 1,
    force_exact: bool = False,
) -> TrajectoryRun:
    """Exact growth counts tau(1..n) with estimators and classification.

    Levels are reported exactly while tau(n) <= budget; the first level that
    would exceed the budget is recorded in budget_exhausted_at and the run
    is truncated there (not an error).
    """
    if M.n < 1:
        raise ValueError("matrix dimension must be >= 1")
    if m < 1 or n_max < 1 or partitions < 1:
        raise ValueError("m, n_max and partitions must be >= 1")
    grid_size = (2 * m + 1) ** M.n
    if budget < grid_size:
        raise ValueError(f"budget {budget} below the grid size {grid_size}")

    dim = M.n
    d = M.denominator_lcm()
    m_int = [[int(e * d) for e in row] for row in M.rows]
    support = prime_support(M, m)
    # containment: stored points live at scale m * d^(n-1), so coordinate
    # denominators only ever involve the support primes
    if not set(prime_divisors(m * d)) <= support.primes:
        raise InvariantError(f"primes of m*d = {m * d} outside the support {support.sorted()}")

    counts = [grid_size]
    grid0 = [tuple(c) for c in itertools.product(range(-m, m + 1), repeat=dim)]
    state = _ExactState(set(grid0)) if force_exact else _PackedState(
        np.array(grid0, dtype=np.int64)
    )
    # power[i][j]: entry of (d*M)^level, so its columns span the scaled image
    # of the grid at the current level
    power = [[int(i == j) for j in range(dim)] for i in range(dim)]
    exhausted = None
    for level in range(1, n_max):
        power = [
            [sum(m_int[i][k] * power[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]
        axes = [tuple(power[i][j] for i in range(dim)) for j in range(dim)]
        new_state, reason = state.expand(d, axes, m, budget, partitions)
        if reason == "overflow":
            state = state.to_exact()
            new_state, reason = state.expand(d, axes, m, budget, partitions)
        if reason == "budget":
            exhausted = level + 1
            break
        state = new_state
        counts.append(len(state))

    for a, b in zip(counts, counts[1:]):
        if b < a:
            raise InvariantError(f"trajectory counts must be nondecreasing: {a} then {b}")
    levels = len(counts)
    for a in range(1, levels + 1):
        for b in range(a, levels - a + 1):
            if counts[a + b - 1] > counts[a - 1] * counts[b - 1]:
                raise InvariantError(f"log tau must be subadditive: tau({a + b}) > tau({a}) tau({b})")

    h_cum = tuple(math.log(t) / n for n, t in enumerate(counts, start=1))
    h_inc = tuple(
        _log_ratio(t, counts[i - 1]) if i else math.log(t)
        for i, t in enumerate(counts)
    )
    run = TrajectoryRun(
        matrix_id=";".join(",".join(str(e) for e in row) for row in M.rows),
        dim=dim,
        m=m,
        counts=tuple(counts),
        h_cum=h_cum,
        h_inc=h_inc,
        budget=budget,
        budget_exhausted_at=exhausted,
        support_primes=support.sorted(),
    )
    if run.levels >= 6:
        run = replace(run, classification=classify_growth(run).classification)
    return run


def classify_growth(run: TrajectoryRun, formula_entropy: float | None = None) -> GrowthAssessment:
    """Classify the run as polynomial or exponential growth.

    Exponential growth keeps the incremental estimate above a fixed floor
    over the trailing window; polynomial growth is recognized by a degree
    estimate within the 2N cap whose envelope, fitted on the first half of
    the run, still bounds the second half.  When the formula value is
    supplied, a mismatch (zero entropy must mean polynomial growth) is
    flagged as a discrepancy.
    """
    levels = run.levels
    if levels < 6:
        raise ValueError("classification needs at least 6 computed levels")
    w = _WINDOW
    window = run.h_inc[-w:]
    counts = run.counts
    log_t = [math.log(t) for t in counts]
    d_cap = 2 * run.dim
    d_hat = (log_t[-1] - log_t[-1 - w]) / (math.log(levels) - math.log(levels - w))

    poly_fit = False
    if d_hat <= d_cap + 0.5:
        half = max(1, levels // 2)
        for deg in range(max(0, math.floor(d_hat)), d_cap + 1):
            envelope = max(log_t[n - 1] - deg * math.log(n) for n in range(1, half + 1))
            if all(
                log_t[n - 1] <= envelope + deg * math.log(n) + 1e-9
                for n in range(half + 1, levels + 1)
            ):
                poly_fit = True
                break

    if poly_fit and levels * run.h_inc[-1] <= d_cap + 0.5 + 1e-9:
        classification = POLYNOMIAL
    elif min(window) >= _EPS_EXP:
        classification = EXPONENTIAL
    else:
        classification = INCONCLUSIVE

    discrepancy = False
    if formula_entropy is not None:
        expected = POLYNOMIAL if formula_entropy <= 1e-9 else EXPONENTIAL
        discrepancy = classification != expected
    return GrowthAssessment(
        classification=classification,
        formula_entropy=formula_entropy,
        discrepancy=discrepancy,
    )


def minor_trajectory_counts(M: RationalMatrix, m: int, n_max: int) -> tuple[int, ...]:
    """|E + phi^(n-1) E| for n = 1..n_max: the two-term lower-bound device.

    Bounded by |E|^2 for every n, so it never grows in the discrete case.
    """
    if M.n < 1 or m < 1 or n_max < 1:
        raise ValueError("dimension, m and n_max must be >= 1")
    grid = sorted(fraction_grid(M.n, m))
    counts = []
    power = RationalMatrix.identity(M.n)
    for _ in range(n_max):
        image = [power.apply(e) for e in grid]
        sums = {tuple(a + b for a, b in zip(x, y)) for x in grid for y in image}
        counts.append(len(sums))
        power = M * power
    return tuple(counts)


@dataclass(frozen=True)
class BernoulliRun:
    q: int
    counts: tuple[int, ...]
    h_inc: tuple[float, ...]

    @property
    def estimate(self) -> float:
        return self.h_inc[-1]


def bernoulli_counts(q: int, n_max: int) -> BernoulliRun:
    """Shift-map growth on length-n_max tuples over Z/qZ.

    The starting set is the first-coordinate copy of Z/qZ; the shift moves
    every coordinate one slot right.  Enumeration is a generic iterated
    sumset with dedup, so the q^n law is measured, not assumed.
    """
    if q < 2 or n_max < 1:
        raise ValueError("q >= 2 and n_max >= 1 required")
    first = {(x,) + (0,) * (n_max - 1) for x in range(q)}
    total = set(first)
    shifted = first
    counts = [len(total)]
    for _ in range(1, n_max):
        shifted = {(0,) + v[:-1] for v in shifted}
        total = {
            tuple((a + b) % q for a, b in zip(x, y)) for x in total for y in shifted
        }
        counts.append(len(total))
    h_inc = tuple(
        _log_ratio(t, counts[i - 1]) if i else math.log(t)
        for i, t in enumerate(counts)
    )
    return BernoulliRun(q=q, counts=tuple(counts), h_inc=h_inc)
