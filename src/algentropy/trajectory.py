"""Brute-force trajectory enumeration: the independent growth oracle.

Counts tau(n) = |E + phi(E) + ... + phi^(n-1)(E)| exactly for the grid
E = {(c_1, ..., c_N) : c_i in {0, +/-1/m, ..., +/-m/m}}.  Vectors at level n
are integer points at the fixed scale m * d^(n-1), where d is the
lcm of the matrix-entry denominators: dedup is then pure integer equality,
and moving to the next level multiplies stored points by d and adds the
scaled image of the grid, tracked exactly through integer powers of d*M.

The scaled image of the grid is itself a product of arithmetic progressions
along the N image axes, so one level expands axis by axis, each step the
union of up to three shifted copies of the points (offsets {0, 1, 2},
then {0, 3, 6}, ..., whose sums cover 0..2m), costing about N * log3(m)
unions instead of (2m+1)^N sumset passes.  Points are stored as mixed-radix
keys in the level's per-axis box, and the box is carried from level to
level: it is exact (the minimum of a Minkowski sum of products is the sum
of the minima), so nothing is reduced over the points to find it.  Each
step is a linear-time union of sorted runs (one stable timsort of the runs
side by side, then adjacent-unique points), and the points take one of
four layouts, the narrowest that holds the level's box:

- for an integer matrix (d = 1), while the box has fewer than 2^62 keys,
  maximal runs [s, e) of consecutive int64 keys, as sorted starts and
  ends.  A level is then E + T, a union of translates of the grid box
  {-m..m}^N, so each of its points lies in a row segment of 2m+1
  consecutive keys and every run is at least 2m+1 long.  The move cuts
  the runs where `_Level.rekey`'s carries change and rekeys their starts,
  and a step shifts the starts and the ends, sorts each, and keeps a
  start exactly where the end before it lies below it.  With d > 1 the
  move spreads neighbouring points d apart and breaks every run, so:
- otherwise, while the box has fewer than 2^62 keys, sorted int64 keys.
  Moving a level to the next box rewrites each key by one increasing
  affine-plus-carries map (`_Level.rekey`), and a step shifts every key;
- past that, while every axis extent and the product of the table sizes
  stay below 2^62, per-axis value tables and one sorted int64 key per
  point.  Table j holds the digits x_j - lo_j that occur on axis j, and a
  key is the mixed-radix number of the point's ranks in the tables, so the
  keys sort as the points do lexicographically.  The move and each step
  re-rank the points through increasing per-axis maps into the level's
  final tables (`_TableState`);
- past that, the keys as an object array of Python ints, run by the same
  code as the int64 keys.

A level widens to the next layout when its move would overflow the one it
is in (runs of keys straight to value tables), so every layout computes
the same sets and the counts are exact.  The layout is read from d, a
property of the input, and is no option.

A level is a list of sorted, key-disjoint chunks in increasing key order.
Int64 keys move chunk by chunk, in place, and a union step on them is split
into key ranges of about `_SHARD_KEYS` shifted keys each: one job per range
gathers the shifted runs that land in it from the chunks, sorts and
compacts them, and its result is one chunk of the next level
(`_sharded_union`).  Up to k threads take the jobs in turn, k the cores this
process may run on (`os.sched_getaffinity`, else `os.cpu_count`): numpy
releases the GIL in the copies, sorts, compares and compactions.  The
worker threads start when a run first has more than one job, and the run
joins them before it returns.  Python-int keys are one
chunk and one job, run inline, as are runs of keys and value tables.

numpy is imported inside the functions that build key arrays, so importing
this module (and with it the CLI) does not load it; the first
`trajectory_counts` call does.
"""

from __future__ import annotations

import bisect
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
# shifted keys per job of an int64 union step, about: a step with fewer stays
# one job.  Split much finer, a job costs more in thread hand-offs than it
# saves.  The bound also bounds every temporary a worker thread allocates
# (the job's buffer, timsort's merge buffer, the compaction) and the chunks a
# level is made of, which matters because glibc keeps each thread's malloc
# arena resident.
_SHARD_KEYS = 1 << 17

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
    nonzero v_i, deltas[i] is the key shift of one unit along axes[i], and
    span = 2m is the most units a level's steps add along each.
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
        self.span = 2 * m
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

    def rekey(self, keys: np.ndarray) -> None:
        """Rewrite an int64 or object array of keys in place.

        Every term is non-negative and the new key is their sum, so no
        partial sum leaves int64.
        """
        carry = sum((keys // w * c for w, c in self.carries), start=0)  # from the old keys
        keys *= self.scale
        keys += self.offset
        keys += carry


def _offset_sets(span: int):
    """Offset sets of up to three runs whose running sums cover 0..span exactly.

    With 0..s covered, the set {0, a, b}, a = min(s+1, span-s) and
    b = min(2s+2, span-s), covers 0..s+b without a gap: a <= s+1 and
    b <= a+s+1.  So s grows to 3s+2 until the last set, which ends at span.
    """
    s = 0
    while s < span:
        a, b = min(s + 1, span - s), min(2 * s + 2, span - s)
        yield (0, a, b) if a < b else (0, a)
        s += b


def _cpu_count() -> int:
    """The cores this process may run on: the most threads a union step uses."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


class _Workers:
    """Runs a level's jobs on this thread and up to threads - 1 others.

    numpy releases the GIL while it copies, adds, sorts, compares and
    compacts int64 arrays, so the jobs of one step run on that many cores
    at once.  Python-int keys and value tables are one job, run on the
    calling thread.  The thread pool (and the `concurrent.futures` import)
    starts the first time a step or a move has more than one job, and
    `close` joins its threads.
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


class _Chunks:
    """Sorted, key-disjoint chunks in increasing key order, read as one array."""

    def __init__(self, chunks: list):
        self.chunks = [c for c in chunks if len(c)]
        self.firsts = [int(c[0]) for c in self.chunks]
        self.starts = list(itertools.accumulate(map(len, self.chunks), initial=0))

    def __len__(self) -> int:
        return self.starts[-1]

    def at(self, i: int) -> int:
        """The i-th smallest key."""
        j = bisect.bisect_right(self.starts, i) - 1
        return int(self.chunks[j][i - self.starts[j]])

    def between(self, lo: int | None, hi: int | None) -> list:
        """Views of the keys in [lo, hi), in order; None leaves a side open."""
        first = 0 if lo is None else max(bisect.bisect_right(self.firsts, lo) - 1, 0)
        last = len(self.chunks) if hi is None else bisect.bisect_left(self.firsts, hi)
        views = []
        for c in self.chunks[first:last]:
            a = 0 if lo is None else int(c.searchsorted(lo))
            b = len(c) if hi is None else int(c.searchsorted(hi))
            if a < b:
                views.append(c[a:b])
        return views


def _sharded_union(chunks: list, shifts: list, k: int, workers: _Workers) -> list:
    """The union of chunks + t over the shifts, as up to k sorted key-disjoint chunks.

    Each of the r shifted copies is sampled at the positions i*n/k, and
    every r-th of the r*k samples, in order, cuts the key line, so a range
    holds at most about 2rn/k shifted keys.  One job per range gathers from
    each copy the keys that land there (`_union_shard`).  The chunks stay
    whole until the step returns, and a job allocates only arrays of its
    own range's size: no step-sized buffer is made, for int64 keys or
    Python ints.
    """
    keys = _Chunks(chunks)
    n, r = len(keys), len(shifts)
    if n == 0:
        return []
    sampled = [keys.at(i * n // k) for i in range(k)]
    samples = sorted(key + t for t in shifts for key in sampled)
    cuts = [None, *samples[r::r], None]
    jobs = [(keys, shifts, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    return [c for c in workers.run(_union_shard, jobs) if c.size]


def _union_shard(keys: _Chunks, shifts: list, lo: int | None, hi: int | None) -> np.ndarray:
    """The keys in [lo, hi) of the union of keys + t over the shifts, sorted."""
    import numpy as np

    runs = [
        (view, t)
        for t in shifts
        for view in keys.between(None if lo is None else lo - t, None if hi is None else hi - t)
    ]
    buf = np.empty(sum(len(view) for view, _ in runs), dtype=keys.chunks[0].dtype)
    filled = 0
    for view, t in runs:
        np.add(view, t, out=buf[filled : filled + len(view)])
        filled += len(view)
    return _merge_unique(buf)


def _merge_unique(buf: np.ndarray) -> np.ndarray:
    """The distinct values of sorted runs laid side by side, ascending; sorts buf.

    The stable sort is timsort, which merges the presorted runs in linear
    time, on int64 and on object (Python int) arrays alike.
    """
    import numpy as np

    buf.sort(kind="stable")
    keep = np.empty(buf.size, dtype=bool)
    keep[:1] = True
    np.not_equal(buf[1:], buf[:-1], out=keep[1:])
    return buf.compress(keep)


class _PackedState:
    """Point set as sorted int64 keys in the exact box lo..hi, in chunks.

    `expand` is written once for every layout: a layout supplies how a level
    overflows it, how its points move to the next box, the shift of one unit
    along each axis and the union of its points with their shifts.
    """

    dtype = "int64"
    limit = _INT64_LIMIT  # a box with this many keys or more overflows the dtype

    def __init__(self, chunks: list, lo: tuple, hi: tuple):
        self.chunks = chunks
        self.lo = lo
        self.hi = hi

    def __len__(self) -> int:
        return self._count(self.chunks)

    def expand(self, d: int, axes, m: int, budget: int, workers: _Workers):
        level = _Level(self.lo, self.hi, d, axes, m)
        if self._overflows(level):
            return None, "overflow"
        # the keys move in place, so this state gives them up: no level's
        # keys outlive the step that reads them
        chunks, self.chunks = self.chunks, None
        chunks = self._move(level, chunks, workers)
        for delta in self._deltas(level):
            for offsets in _offset_sets(level.span):
                chunks = self._union(chunks, [o * delta for o in offsets], workers)
                if self._count(chunks) > budget:
                    return None, "budget"
        return type(self)(chunks, level.lo, level.hi), "ok"

    def _count(self, chunks: list) -> int:
        return sum(len(c) for c in chunks)

    def _overflows(self, level: _Level) -> bool:
        return level.size >= self.limit

    def _move(self, level: _Level, chunks: list, workers: _Workers) -> list:
        workers.run(level.rekey, [(c,) for c in chunks])
        return chunks

    def _deltas(self, level: _Level):
        return level.deltas

    def _union(self, chunks: list, shifts: list, workers: _Workers) -> list:
        # Python ints stay one job: their compares hold the GIL
        shifted = len(shifts) * sum(len(c) for c in chunks)
        k = 1 if self.dtype == object else -(-shifted // _SHARD_KEYS)
        return _sharded_union(chunks, shifts, k, workers)

    def widen(self) -> "_TableState":
        """The same points as value tables and rank keys: N int64 divmods of
        the keys, then each axis's distinct digits and their ranks."""
        import numpy as np

        keys = np.concatenate(self.chunks)
        digits = [None] * len(self.lo)
        for j in reversed(range(len(self.lo))):
            keys, digits[j] = np.divmod(keys, self.hi[j] - self.lo[j] + 1)
        # np.unique takes several times as long on a level's few hundred digits
        tables = [_merge_unique(np.sort(c)) for c in digits]
        ranks = [t.searchsorted(c) for t, c in zip(tables, digits)]
        keys = _horner(ranks, [len(t) for t in tables])
        return _TableState([keys, *tables], self.lo, self.hi)


class _RunState(_PackedState):
    """An integer matrix's points as maximal runs of keys: chunks = [starts, ends].

    No `expand` of its own: the bench tracer's hook on `_PackedState.expand`
    counts its levels with the int64 keys'.
    """

    def _count(self, chunks: list) -> int:
        starts, ends = chunks
        return int((ends - starts).sum())

    def _move(self, level: _Level, chunks: list, workers: _Workers) -> list:
        import numpy as np

        starts, ends = chunks
        # with d = 1 rekey adds one constant between multiples of the least
        # carry weight; runs cut there stay maximal, as every carry is > 0
        width = min((w for w, _ in level.carries), default=None)
        if width is not None:
            first = starts // width
            pieces = (ends - 1) // width - first + 1
            run = np.repeat(np.arange(len(starts)), pieces)
            row = np.arange(len(run)) + np.repeat(first - (np.cumsum(pieces) - pieces), pieces)
            starts = np.maximum(row * width, starts[run])
            ends = np.minimum((row + 1) * width, ends[run])
        lengths = ends - starts
        level.rekey(starts)
        return [starts, starts + lengths]

    def _union(self, chunks: list, shifts: list, workers: _Workers) -> list:
        return _run_union(*chunks, shifts)

    def widen(self) -> "_TableState":
        """The same points as value tables and rank keys: the runs' keys, then
        the keys' widening."""
        import numpy as np

        starts, ends = self.chunks
        lengths = ends - starts
        keys = np.arange(int(lengths.sum()), dtype=np.int64)
        keys += np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        return _PackedState([keys], self.lo, self.hi).widen()


def _run_union(starts: np.ndarray, ends: np.ndarray, shifts: list) -> list:
    """The union of the runs [s + t, e + t) over the shifts, as maximal runs.

    With the starts and the ends each sorted, x is covered exactly when
    more starts than ends are <= x, so the union has a gap just before
    starts[i] exactly when ends[i-1] < starts[i]: those starts begin its
    runs, and the ends just before them (and the last end) close them.
    This holds for any intervals, and runs that touch merge.
    """
    import numpy as np

    r = len(starts)
    buf = np.empty((2, len(shifts) * r), dtype=np.int64)
    for i, t in enumerate(shifts):
        np.add(starts, t, out=buf[0, i * r : (i + 1) * r])
        np.add(ends, t, out=buf[1, i * r : (i + 1) * r])
    # timsort merges the presorted shifted copies in linear time
    for row in buf:
        row.sort(kind="stable")
    begins = np.empty(buf.shape[1] + 1, dtype=bool)
    begins[0] = begins[-1] = True
    np.less(buf[1, :-1], buf[0, 1:], out=begins[1:-1])
    return [buf[0].compress(begins[:-1]), buf[1].compress(begins[1:])]


class _ExactState(_PackedState):
    """The same sorted keys as Python ints in an object array (any box)."""

    dtype = object
    limit = math.inf  # never overflows, so it never widens
    # its own class-dict entry: bench/tracer.py hooks each backend's expand
    # there to count the levels past 2^62 keys apart from the int64 ones
    expand = _PackedState.expand


class _TableState(_ExactState):
    """Point set as per-axis value tables and sorted int64 keys: chunks = [keys, T_0, ..., T_(N-1)].

    T_j is the sorted int64 array of the digits x_j - lo_j that occur on
    axis j, and a point's key is the mixed-radix number of its ranks (its
    index in each T_j) over the table sizes, so the keys sort as the points
    do lexicographically.  A level's final tables are known before its
    move: the projection of a Minkowski sum is the sum of the projections,
    so T'_j is the moved T_j plus every sum of c_i * v_ij over the axes,
    0 <= c_i <= 2m, built by 1-D unions with the steps' offset sets
    (`_level_tables`).  They hold every digit of every point the move and
    the steps form, and x -> d*x + starts is increasing on every axis, so
    the move ranks the moved digits straight into them and each step adds
    to the keys of its shifted copies their change of rank
    (`_table_union`).

    This layout holds boxes of 2^62 keys or more while every axis extent
    and the product of the final table sizes stay below 2^62, so no digit,
    rank or key leaves int64.  Its steps run as one job on the calling
    thread.  It derives from `_ExactState` for that class's `expand`, so the
    bench tracer's hook there counts every level past 2^62 keys, on value
    tables or on Python ints.
    """

    limit = _INT64_LIMIT  # an axis extent or a table product this large overflows

    def _count(self, chunks: list) -> int:
        return len(chunks[0])

    def _overflows(self, level: _Level) -> bool:
        if max(level.bases, default=0) >= self.limit:
            return True
        # kept for the move: the check needs the tables' sizes
        level.tables = _level_tables(self.chunks[1:], level)
        return math.prod(len(t) for t in level.tables) >= self.limit

    def _move(self, level: _Level, chunks: list, workers: _Workers) -> list:
        keys, *tables = chunks
        sizes = [len(t) for t in tables]
        weights = _weights(sizes)
        ranks = [
            new.searchsorted(table * level.scale + start)[_rank(keys, weights, sizes, j)]
            for j, (table, new, start) in enumerate(zip(tables, level.tables, level.starts))
        ]
        return [_horner(ranks, [len(t) for t in level.tables]), *level.tables]

    def _deltas(self, level: _Level):
        import numpy as np

        return [np.array(v, dtype=np.int64) for v in level.axes]

    def _union(self, chunks: list, shifts: list, workers: _Workers) -> list:
        keys, *tables = chunks
        return [_table_union(keys, tables, shifts), *tables]

    def widen(self) -> _ExactState:
        """The same points as Python-int keys, one chunk: each rank's digit,
        then Horner over the extents."""
        keys, *tables = self.chunks
        sizes = [len(t) for t in tables]
        weights = _weights(sizes)
        digits = [t[_rank(keys, weights, sizes, j)].astype(object) for j, t in enumerate(tables)]
        bases = [h - l + 1 for l, h in zip(self.lo, self.hi)]
        return _ExactState([_horner(digits, bases)], self.lo, self.hi)


def _rank(keys: np.ndarray, weights: list, sizes: list, j: int) -> np.ndarray:
    """Digit j of mixed-radix keys over the sizes, whose place values are weights."""
    rank = keys // weights[j] if weights[j] > 1 else keys
    return rank % sizes[j] if j else rank


def _horner(digits: list, bases: list) -> np.ndarray:
    """The mixed-radix numbers of the digit arrays over the bases (bases[0] is not read)."""
    keys = digits[0]
    for digit, base in zip(digits[1:], bases[1:]):
        keys = keys * base + digit
    return keys


def _level_tables(tables: list, level: _Level) -> list:
    """The next level's value tables from this level's: the moved digits plus
    every sum of c_i * v_ij, 0 <= c_i <= 2m, as unions of shifted copies."""
    import numpy as np

    out = []
    for j, table in enumerate(tables):
        table = table * level.scale + level.starts[j]
        for v in level.axes:
            if v[j]:
                for offsets in _offset_sets(level.span):
                    table = _merge_unique(np.concatenate([table + o * v[j] for o in offsets]))
        out.append(table)
    return out


def _table_union(keys: np.ndarray, tables: list, shifts: list) -> np.ndarray:
    """The union of the points + t over the shift vectors, as sorted keys.

    keys rank the points in tables, which hold every digit a shifted point
    has.  A copy's rank on axis j is m_j(rank), m_j =
    searchsorted(tables[j], tables[j] + t_j): each m_j is increasing on the
    digits that occur, so each copy stays sorted.  A copy adds to each key
    the change of rank along the axes it shifts, and the other axes' ranks
    are not decoded.
    """
    import numpy as np

    sizes = [len(t) for t in tables]
    weights = _weights(sizes)
    n = len(keys)
    buf = np.empty(len(shifts) * n, dtype=np.int64)
    ranks = {}
    gathered = np.empty(n, dtype=np.int64)
    for i, t in enumerate(shifts):
        out = buf[i * n : (i + 1) * n]
        out[:] = keys
        for j, table in enumerate(tables):
            if not t[j]:
                continue
            if j not in ranks:
                ranks[j] = _rank(keys, weights, sizes, j)
            change = table.searchsorted(table + t[j]) - np.arange(len(table))
            change *= weights[j]
            # every rank is in range: "clip" spares the buffered copy "raise" makes
            np.take(change, ranks[j], out=gathered, mode="clip")
            out += gathered
    return _merge_unique(buf)


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
    if d == 1:
        state = _RunState([np.zeros(1, dtype=np.int64), np.full(1, grid_size, dtype=np.int64)], lo, hi)
    else:
        state = _PackedState([np.arange(grid_size, dtype=np.int64)], lo, hi)
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
            # int64 keys -> value tables and int64 keys -> Python-int keys
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
