"""Brute-force trajectory enumeration: the independent growth oracle.

Counts tau(n) = |E + phi(E) + ... + phi^(n-1)(E)| exactly for the grid
E = {(c_1, ..., c_N) : c_i in {0, +/-1/m, ..., +/-m/m}}.  Vectors at level n
are integer points at the fixed scale m * d^(n-1), where d is the
lcm of the matrix-entry denominators: dedup is then pure integer equality,
and moving to the next level multiplies stored points by d and adds the
scaled image of the grid, tracked exactly through integer powers of d*M.

The scaled image of the grid is itself a product of arithmetic progressions
along the N image axes, so one level expands axis by axis with doubling
(span 1, 2, 4, ... up to 2m), costing about N * log2(m) set unions instead
of (2m+1)^N sumset passes.  Points are stored as mixed-radix keys in the
level's per-axis box, and the box is carried from level to level: it is
exact (the minimum of a Minkowski sum of products is the sum of the
minima), so nothing is reduced over the points to find it.  Each step is
a linear-time union of two sorted runs (one stable timsort of the
concatenation, then adjacent-unique points), and the points take one of
three layouts, the narrowest that holds the level's box:

- while the box has fewer than 2^62 keys, one sorted int64 array of keys.
  Moving a level to the next box rewrites each key by one increasing
  affine-plus-carries map (`_Level.rekey`), and a doubling step is a shift
  of every key;
- past that, while every axis extent stays below 2^62, an (n, N) int64
  array of per-axis digits x_j - lo_j, rows in lexicographic order, which
  is the order of the keys.  The move is one multiply-add per column, a
  doubling step adds a row vector, and the sort compares each row as one
  big-endian byte string;
- past that, the keys as an object array of Python ints, run by the same
  code as the int64 keys.

A level widens to the next layout when its move would overflow the one it
is in, so every layout computes the same sets and the counts are exact.

A union step on more than 2^17 int64 keys is split into contiguous
key-range shards of at most 2^17 source keys each (`_Union`), which up to
k threads take in turn, k the cores this process may run on
(`os.sched_getaffinity`, else `os.cpu_count`): numpy releases the GIL in
the copies, sorts, compares and compactions.  The worker threads start
when a run first splits a step, and the run joins them before it returns.
Python-int keys and digit columns stay one shard, run inline.

numpy is imported inside the functions that build key arrays, so importing
this module (and with it the CLI) does not load it; the first
`trajectory_counts` call does.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .linalg import RationalMatrix
from .numtheory import prime_divisors
from .ratpoly import InvariantError

if TYPE_CHECKING:
    import numpy as np

DEFAULT_BUDGET = 20_000_000
_INT64_LIMIT = 1 << 62
# source keys per shard of a union step, at most.  A step on 2^17 keys or
# fewer stays one shard, since split below about 2^16 keys a shard costs
# more in thread hand-offs than it saves, so split steps have shards of
# 2^16 to 2^17 keys.  The bound also bounds every temporary a worker thread
# allocates (timsort's merge buffer, the compaction's indices), which
# matters because glibc keeps each thread's malloc arena resident.
_SHARD_KEYS = 1 << 17
_BLOCK = 1 << 15  # keys a worker compacts per temporary

EXPONENTIAL = "Exponential"
POLYNOMIAL = "Polynomial"
INCONCLUSIVE = "Inconclusive"

_EPS_EXP = 0.02  # nats; exponential-growth floor for the trailing window
_WINDOW = 5
MIN_LEVELS = _WINDOW + 1  # the fewest levels classify_growth takes


@dataclass(frozen=True)
class TrajectoryRun:
    dim: int
    m: int
    counts: tuple[int, ...]  # tau(1..L), exact
    h_cum: tuple[float, ...]  # log tau(n) / n
    h_inc: tuple[float, ...]  # log(tau(n) / tau(n-1)), with tau(0) = 1
    budget: int
    budget_exhausted_at: int | None
    support_primes: tuple[int, ...]

    @property
    def levels(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class GrowthAssessment:
    classification: str
    formula_entropy: float | None
    discrepancy: bool


def prime_support(M: RationalMatrix, m: int) -> tuple[int, ...]:
    """Primes dividing m or any entry denominator of M, ascending; the
    infinite place is implicit."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return tuple(prime_divisors(m * M.denominator_lcm()))


def admissible_m(M: RationalMatrix) -> int:
    """A grid density m for which the run's limit equals the entropy.

    Conservative rule: c * prod over primes p of max(1, max_ij |a_ij|_p),
    where c = max(ceil(||M||_inf) + 1, 3).  That product is the lcm of the
    entry denominators.  Any multiple of a valid density is valid, so rounding
    up is safe.
    """
    norm = max((sum(abs(e) for e in row) for row in M.rows), default=0)  # ||M||_inf
    c = max(math.ceil(norm) + 1, 3)
    return c * M.denominator_lcm()


def _weights(bases) -> list[int]:
    """Mixed-radix place values: weights[-1] = 1, weights[j] = weights[j+1] * bases[j+1].

    A point x of the box lo..hi (bases = hi - lo + 1) has the key
    sum_j (x_j - lo_j) * weights[j]: a bijection onto range(prod(bases))
    that orders keys as the points are ordered lexicographically.
    """
    w = [1]
    for b in reversed(bases[1:]):
        w.append(w[-1] * b)
    return w[::-1]


class _Level:
    """The move from one level's points to the next's, shared by every layout.

    lo/hi bound the next level exactly: the minimum of a Minkowski sum is the
    sum of the minima, so d*lo - m*sum_i |v_i| is attained on each axis;
    bases are its per-axis extents and size is the number of keys in that
    box.  A stored point x moves to d*x - m*(v_1 + ... + v_N): its digit
    x_j - lo_j becomes d * digit + starts[j] in the new box, with
    starts[j] = m * sum_i (|v_ij| - v_ij) >= 0, so no digit of the move
    exceeds the new extent.  `rekey` maps the key of x to the key of its
    move; the map is increasing, so sorted keys stay sorted.  `axes` are the
    nonzero v_i, and deltas[i] is the key shift of one unit along axes[i].
    """

    def __init__(self, lo, hi, d: int, axes, m: int):
        dim = len(lo)
        reach = [m * sum(abs(v[j]) for v in axes) for j in range(dim)]
        self.lo = tuple(d * l - r for l, r in zip(lo, reach))
        self.hi = tuple(d * h + r for h, r in zip(hi, reach))
        old_b = [h - l + 1 for l, h in zip(lo, hi)]
        new_b = [h - l + 1 for l, h in zip(self.lo, self.hi)]
        old_w, new_w = _weights(old_b), _weights(new_b)
        self.bases = new_b
        self.size = math.prod(new_b)
        self.scale = d
        self.starts = [d * lo[j] - m * sum(v[j] for v in axes) - self.lo[j] for j in range(dim)]
        self.axes = [v for v in axes if any(v)]
        # digit j of the new key is d * (digit j of the old key) + a constant,
        # so the new key is d * (the old digits read in the new weights) +
        # offset.  With the prefixes P_j = k // old_w[j], digit j is
        # P_j - old_b[j] * P_(j-1), and the old digits read in the new weights
        # come to k plus, for each j < dim - 1, P_j * new_w[j+1] * (new_b[j+1]
        # - old_b[j+1]).
        self.carries = [
            (old_w[j], d * new_w[j + 1] * (new_b[j + 1] - old_b[j + 1]))
            for j in range(dim - 1)
            if new_b[j + 1] != old_b[j + 1]
        ]
        self.offset = sum(s * w for s, w in zip(self.starts, new_w))
        self.deltas = [sum(v[j] * new_w[j] for j in range(dim)) for v in self.axes]

    def rekey(self, keys):
        """Elementwise on int64 arrays and on Python ints alike."""
        out = keys * self.scale + self.offset
        for w, c in self.carries:
            out = out + (keys // w) * c
        return out


def _doubling_steps(span: int):
    """Step sizes 1, 2, 4, ... whose running sums cover 0..span exactly."""
    s = 0
    while s < span:
        step = min(s + 1, span - s)
        yield step
        s += step


def _cpu_count() -> int:
    """The cores this process may run on: the most threads a union step uses."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _shard_total(keys: np.ndarray) -> int:
    """How many key-range shards a union step on these keys is split into.

    Python ints stay one shard: their compares hold the GIL.  int64 keys
    are split into shards of at most _SHARD_KEYS source keys.  (Digit
    columns do not come here: their steps are one shard, run inline.)
    """
    return 1 if keys.dtype == object else -(-keys.size // _SHARD_KEYS)


class _Workers:
    """Runs a union step's shard jobs on this thread and up to threads - 1 others.

    numpy releases the GIL while it copies, adds, sorts, compares and
    compacts int64 arrays, so the shards of one step run on that many cores
    at once.  Only int64 keys are split: Python-int keys and digit columns
    run each step as one shard on the calling thread.  The thread pool (and
    the `concurrent.futures` import) starts the first time a step has more
    than one shard, and `close` joins its threads.
    """

    def __init__(self, threads: int):
        self.threads = threads
        self._pool = None
        self._lock = threading.Lock()

    def __enter__(self) -> "_Workers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def run(self, fn, jobs: list) -> list:
        """[fn(*job) for job in jobs], each job taken by the next free thread."""
        threads = min(self.threads, len(jobs))
        if threads <= 1:
            return [fn(*job) for job in jobs]
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(self.threads - 1, thread_name_prefix="algentropy-shard")
        results = [None] * len(jobs)
        todo = iter(range(len(jobs)))

        def drain():
            while True:
                with self._lock:
                    i = next(todo, None)
                if i is None:
                    return
                results[i] = fn(*jobs[i])

        futures = [self._pool.submit(drain) for _ in range(threads - 1)]
        drain()
        for future in futures:
            future.result()
        return results


class _Union:
    """keys | (keys + shift) for sorted unique keys, in k key-range shards.

    The cuts are the keys at positions j*n/k.  Shard j holds its own keys
    in [cut_j, cut_(j+1)) and the shifted keys that land there, which come
    from [cut_j - shift, cut_(j+1) - shift): those source ranges partition
    the keys, so nothing is computed twice.  The constructor copies each
    shard's two sorted runs side by side into one buffer and keeps no
    reference to the keys, so the caller can drop them before `merge`;
    `distinct` then compacts each shard into its slice of the result (a
    single shard's compacted keys are the result).  The calling thread
    allocates every array that grows with the keys; a worker allocates only
    temporaries of at most one shard's size.  Each phase runs its shards
    through `_Workers.run`, so k = 1 is the same code run inline.
    """

    def __init__(self, keys: np.ndarray, shift: int, k: int, workers: _Workers):
        import numpy as np

        n = keys.size
        k = max(1, min(k, n))
        own = [j * n // k for j in range(k + 1)]
        moved = [0, *(int(keys.searchsorted(keys[i] - shift)) for i in own[1:-1]), n]
        # shard j's runs start where the earlier shards' own and moved keys end
        self.bounds = [a + b for a, b in zip(own, moved)]
        self.workers = workers
        self.buf = np.empty(2 * n, dtype=keys.dtype)
        jobs = [(j, keys[own[j] : own[j + 1]], keys[moved[j] : moved[j + 1]], shift) for j in range(k)]
        workers.run(self._fill, jobs)

    def _fill(self, j: int, own: np.ndarray, moved: np.ndarray, shift: int) -> None:
        import numpy as np

        buf = self.buf[self.bounds[j] : self.bounds[j + 1]]
        buf[: own.size] = own
        np.add(moved, shift, out=buf[own.size :])

    def merge(self) -> int:
        """Sort every shard and mark its distinct keys; returns the union's size."""
        import numpy as np

        self.keep = np.empty(self.buf.size, dtype=bool)
        self.counts = self.workers.run(self._merge, [(j,) for j in range(len(self.bounds) - 1)])
        return sum(self.counts)

    def _merge(self, j: int) -> int:
        import numpy as np

        # the stable sort is timsort, which merges the two presorted runs in
        # linear time, on int64 and on object (Python int) arrays alike;
        # shards cover disjoint key ranges, so a shard's first key is new
        buf = self.buf[self.bounds[j] : self.bounds[j + 1]]
        keep = self.keep[self.bounds[j] : self.bounds[j + 1]]
        buf.sort(kind="stable")
        keep[:1] = True
        np.not_equal(buf[1:], buf[:-1], out=keep[1:])
        return int(np.count_nonzero(keep))

    def distinct(self) -> np.ndarray:
        """The union, sorted (after `merge`)."""
        import numpy as np

        if len(self.counts) == 1:
            return _kept(self.buf, self.keep, self.counts[0])
        out = np.empty(sum(self.counts), dtype=self.buf.dtype)
        starts = itertools.accumulate(self.counts, initial=0)
        jobs = [(j, out[a : a + c]) for j, (a, c) in enumerate(zip(starts, self.counts))]
        self.workers.run(self._compact, jobs)
        return out

    def _compact(self, j: int, out: np.ndarray) -> None:
        import numpy as np

        # block by block, so that the temporaries stay small
        filled = 0
        for a in range(self.bounds[j], self.bounds[j + 1], _BLOCK):
            b = min(a + _BLOCK, self.bounds[j + 1])
            keep = self.keep[a:b]
            count = int(np.count_nonzero(keep))
            _kept(self.buf[a:b], keep, count, out[filled : filled + count])
            filled += count


def _kept(buf: np.ndarray, keep: np.ndarray, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """buf[keep], count keys, into out if given.

    Boolean indexing copies each run of kept keys with one memcpy, which is
    fast when few keys repeat; on int64 keys `compress`, which gathers by
    index, is faster once more than about a fifth of them do (about 40% do
    in most steps).  On Python ints boolean indexing was as fast or faster
    at every share seen in big-int steps (0 to 40%).
    """
    if buf.dtype != object and 5 * (buf.size - count) > buf.size:
        return buf.compress(keep, out=out)
    if out is None:
        return buf[keep]
    out[...] = buf[keep]
    return out


class _PackedState:
    """Point set as its sorted int64 keys in the exact box lo..hi.

    `expand` is written once for every layout: a layout supplies how a level
    overflows it, how its points move to the next box, the shift of one unit
    along each axis and the union of its points with their shift.
    """

    dtype = "int64"
    limit = _INT64_LIMIT  # a box with this many keys or more overflows the dtype

    def __init__(self, keys: np.ndarray, lo: tuple, hi: tuple):
        self.keys = keys
        self.lo = lo
        self.hi = hi

    def __len__(self) -> int:
        return len(self.keys)

    def expand(self, d: int, axes, m: int, budget: int, workers: _Workers):
        level = _Level(self.lo, self.hi, d, axes, m)
        if self._overflows(level):
            return None, "overflow"
        keys = self._move(level)
        for delta in self._deltas(level):
            for step in _doubling_steps(2 * m):
                union = self._union(keys, step * delta, workers)
                # the old keys are dropped before the merge, and the merged
                # buffer before the next step allocates; a step past the
                # budget stops before its keys are compacted
                del keys
                if union.merge() > budget:
                    return None, "budget"
                keys = union.distinct()
                del union
        return type(self)(keys, level.lo, level.hi), "ok"

    def _overflows(self, level: _Level) -> bool:
        return level.size >= self.limit

    def _move(self, level: _Level):
        return level.rekey(self.keys)

    def _deltas(self, level: _Level):
        return level.deltas

    def _union(self, keys: np.ndarray, shift, workers: _Workers):
        return _Union(keys, shift, _shard_total(keys), workers)

    def widen(self) -> "_ColumnState":
        """The same points as per-axis digits: N int64 divmods of the keys."""
        import numpy as np

        keys = self.keys
        rows = np.empty((keys.size, len(self.lo)), dtype=np.int64)
        for j in reversed(range(len(self.lo))):
            keys, rows[:, j] = np.divmod(keys, self.hi[j] - self.lo[j] + 1)
        return _ColumnState(rows, self.lo, self.hi)


class _ExactState(_PackedState):
    """The same sorted keys as Python ints in an object array (any box)."""

    dtype = object
    limit = math.inf  # never overflows, so it never widens
    # its own class-dict entry: bench/tracer.py hooks each backend's expand
    # there to count the levels past 2^62 keys apart from the int64 ones
    expand = _PackedState.expand


class _ColumnState(_ExactState):
    """Point set as an (n, N) int64 array of per-axis digits x_j - lo_j.

    `keys` holds one row of digits per point, in lexicographic order, which
    is the order of the points' mixed-radix keys.  This layout holds boxes
    of 2^62 keys or more whose every axis extent stays below 2^62, so no
    digit, and no sum a step forms, leaves int64.  Its steps run as one
    shard on the calling thread.  It derives from `_ExactState` for that
    class's `expand`, so the bench tracer's hook there counts every level
    past 2^62 keys, on digit columns or on Python ints.
    """

    dtype = "int64"
    limit = _INT64_LIMIT  # an axis extent this large or larger overflows the dtype

    def _overflows(self, level: _Level) -> bool:
        return max(level.bases, default=0) >= self.limit

    def _move(self, level: _Level):
        import numpy as np

        # one multiply-add per column, with no carries between the digits
        rows = self.keys * level.scale
        rows += np.array(level.starts, dtype=np.int64)
        return rows

    def _deltas(self, level: _Level):
        import numpy as np

        return [np.array(v, dtype=np.int64) for v in level.axes]

    def _union(self, rows: np.ndarray, shift: np.ndarray, workers: _Workers):
        return _ColumnUnion(rows, shift)

    def widen(self) -> _ExactState:
        """The same points as Python-int keys: Horner over the extents."""
        import numpy as np

        keys = np.zeros(len(self), dtype=object)
        for j, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            keys = keys * (hi - lo + 1) + self.keys[:, j].astype(object)
        return _ExactState(keys, self.lo, self.hi)


class _ColumnUnion:
    """rows | (rows + shift) for rows of digits in lexicographic order.

    The interface of `_Union`, as one shard: the constructor copies both
    sorted runs into one buffer, `merge` sorts it and marks the distinct
    rows, `distinct` compacts them.  The buffer holds big-endian words and
    timsort sorts each row as one byte string: the digits are non-negative,
    so the byte order of their big-endian words is their numeric order on
    any host, and the two presorted runs merge in linear time.
    """

    def __init__(self, rows: np.ndarray, shift: np.ndarray):
        import numpy as np

        n, dim = rows.shape
        self.buf = np.empty((2 * n, dim), dtype=">i8")
        self.buf[:n] = rows
        np.add(rows, shift, out=self.buf[n:])

    def merge(self) -> int:
        """Sort the rows and mark the distinct ones; returns their number."""
        import numpy as np

        rows, dim = self.buf.shape
        self.buf.view(f"S{8 * dim}").reshape(-1).sort(kind="stable")
        # equal rows are equal bit for bit, so the words compare in host
        # order without a swap; a row is new unless every column equals the
        # row above, and comparing the columns one by one is about eight
        # times faster than np.any over the rows
        words = self.buf.view(np.int64)
        self.keep = np.empty(rows, dtype=bool)
        self.keep[0] = True
        np.not_equal(words[1:, 0], words[:-1, 0], out=self.keep[1:])
        differs = np.empty(rows - 1, dtype=bool)
        for j in range(1, dim):
            np.not_equal(words[1:, j], words[:-1, j], out=differs)
            self.keep[1:] |= differs
        return int(np.count_nonzero(self.keep))

    def distinct(self) -> np.ndarray:
        """The union in lexicographic order, as host int64 rows (after `merge`)."""
        import numpy as np

        return self.buf.compress(self.keep, axis=0).astype(np.int64, copy=False)


def _log_ratio(a: int, b: int) -> float:
    """log(a/b) for exact big integers, exact when the ratio is integral."""
    if a % b == 0:
        return math.log(a // b)
    return math.log(a) - math.log(b)


def trajectory_counts(
    M: RationalMatrix,
    m: int,
    n_max: int,
    budget: int = DEFAULT_BUDGET,
    force_exact: bool = False,
) -> TrajectoryRun:
    """Exact growth counts tau(1..n) with their entropy estimators.

    Levels are reported exactly while tau(n) <= budget; the first level that
    would exceed the budget is recorded in budget_exhausted_at and the run
    is truncated there (not an error).
    """
    import numpy as np

    if m < 1 or n_max < 1:
        raise ValueError("m and n_max must be >= 1")
    grid_size = (2 * m + 1) ** M.n
    if budget < grid_size:
        raise ValueError(f"budget {budget} below the grid size {grid_size}")

    dim = M.n
    d = M.denominator_lcm()
    m_int = [[int(e * d) for e in row] for row in M.rows]
    support = prime_support(M, m)

    counts = [grid_size]
    # the grid fills its box, so its keys are all of range(grid_size)
    lo, hi = (-m,) * dim, (m,) * dim
    backend = _ExactState if force_exact else _PackedState
    state = backend(np.arange(grid_size, dtype=backend.dtype), lo, hi)
    # power[i][j]: entry of (d*M)^level, so its columns span the scaled image
    # of the grid at the current level
    power = [[int(i == j) for j in range(dim)] for i in range(dim)]
    exhausted = None
    with _Workers(_cpu_count()) as workers:
        for level in range(1, n_max):
            power = [
                [sum(m_int[i][k] * power[k][j] for k in range(dim)) for j in range(dim)]
                for i in range(dim)
            ]
            axes = [tuple(power[i][j] for i in range(dim)) for j in range(dim)]
            # each layout checks the new box before any int64 arithmetic
            # (numpy wraps silently) and widens the level it holds on overflow:
            # int64 keys -> int64 digit columns -> Python-int keys
            new_state, reason = state.expand(d, axes, m, budget, workers)
            while reason == "overflow":
                state = state.widen()
                new_state, reason = state.expand(d, axes, m, budget, workers)
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
    return TrajectoryRun(
        dim=dim,
        m=m,
        counts=tuple(counts),
        h_cum=h_cum,
        h_inc=h_inc,
        budget=budget,
        budget_exhausted_at=exhausted,
        support_primes=support,
    )


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
    if levels < MIN_LEVELS:
        raise ValueError(f"classification needs at least {MIN_LEVELS} computed levels")
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
