"""Brute-force trajectory enumeration: the independent growth oracle.

Counts tau(n) = |E + phi(E) + ... + phi^(n-1)(E)| exactly for the grid
E = {(c_1, ..., c_N) : c_i in {0, +/-1/m, ..., +/-m/m}}.  Vectors at level n
are integer points at the fixed scale m * d^(n-1), where d is the
lcm of the matrix-entry denominators: dedup is then pure integer equality,
and moving to the next level multiplies stored points by d and adds the
scaled image of the grid, tracked exactly through integer powers of d*M.

The scaled image of the grid is itself a product of arithmetic progressions
along the N image axes, so one level expands axis by axis: along an axis
whose unit moves a key by delta, a level adds S + {0, 1, ..., 2m} * delta
to its points S.  Points are stored as mixed-radix keys in the level's
per-axis box, and the box is carried from level to level: it is exact (the
minimum of a Minkowski sum of products is the sum of the minima), so
nothing is reduced over the points to find it.  The points take one of
four layouts, the narrowest that holds the level's box:

- for an integer matrix (d = 1), while the box has fewer than 2^62 keys,
  maximal runs [s, e) of consecutive int64 keys, as sorted starts and
  ends.  A level is then E + T, a union of translates of the grid box
  {-m..m}^N, so each of its points lies in a row segment of 2m+1
  consecutive keys and every run is at least 2m+1 long.  The move cuts
  the runs that cross a row, where `_Level.rekey`'s carries change, and
  rekeys their starts,
  and an axis is stepped as unions of up to three shifted copies (offsets
  {0, 1, 2}, then {0, 3, 6}, ..., whose sums cover 0..2m): each shifts
  the starts and the ends, sorts each, and keeps a start exactly where the
  end before it lies below it.  With d > 1 the move spreads neighbouring
  points d apart and breaks every run, so:
- otherwise, while the box has fewer than 2^62 keys, int64 keys in no set
  order.  Moving a level to the next box rewrites each key by one
  affine-plus-carries map (`_Level.rekey`), and each axis is one union of
  arithmetic progressions of step delta: one sort of the keys by residue
  and quotient modulo delta finds the maximal progressions, and one cumsum
  writes them out (`_progression_union`);
- past that, while every axis extent and the product of the table sizes
  stay below 2^62, per-axis value tables and one sorted int64 key per
  point.  Table j holds the digits x_j - lo_j that occur on axis j, and a
  key is the mixed-radix number of the point's ranks in the tables, so the
  keys sort as the points do lexicographically.  The move and each union
  of shifted copies (by the runs' offset sets) re-rank the points through
  increasing per-axis maps into the level's final tables (`_TableState`);
- past that, the keys as an object array of Python ints, run by the same
  code as the int64 keys.

A level widens to the next layout when its move would overflow the one it
is in (runs of keys and unordered keys straight to value tables, the
latter after one sort), so every layout computes the same sets and the
counts are exact.  The layout is read from d, a property of the input, and
is no option.  Every step runs on the calling thread.

A run reads only the size of its last level, so on the layouts whose axis
step is a progression union (int64 and Python-int keys) that level's last
step only counts its keys and writes none.

numpy is imported inside the functions that build key arrays, so importing
this module (and with it the CLI) does not load it; the first
`trajectory_counts` call does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .linalg import RationalMatrix
from .numtheory import prime_divisors
from .ratpoly import InvariantError

if TYPE_CHECKING:
    import numpy as np

DEFAULT_BUDGET = 20_000_000
_INT64_LIMIT = 1 << 62

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
    ceil_norm = max((-(-sum(map(abs, row)) // d) for d, row in zip(M.dens, M.B)), default=0)
    c = max(ceil_norm + 1, 3)
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


def _merge_unique(buf: np.ndarray) -> np.ndarray:
    """The distinct values of sorted runs laid side by side, ascending; sorts buf.

    The stable sort is timsort, which merges the presorted runs in linear
    time.
    """
    import numpy as np

    buf.sort(kind="stable")
    keep = np.empty(buf.size, dtype=bool)
    keep[:1] = True
    np.not_equal(buf[1:], buf[:-1], out=keep[1:])
    return buf.compress(keep)


def _offset_steps(self, chunks: list, delta, span: int, budget: int, count_only: bool) -> list | None:
    """chunks + {0, 1, ..., span} * delta as unions of up to three shifted
    copies, one per offset set, or None once a union holds more than budget
    points: the axis step of the layouts that keep their points sorted.
    They write the last step's points too, so count_only is not read."""
    for offsets in _offset_sets(span):
        chunks = self._union(chunks, [o * delta for o in offsets])
        if self._count(chunks) > budget:
            return None
    return chunks


def _progression_union(
    keys: np.ndarray, delta: int, span: int, budget: int, count_only: bool
) -> np.ndarray | int | None:
    """The distinct keys of S + {0, 1, ..., span} * delta in no set order,
    or with count_only only their number, or None when they number more
    than budget.

    keys holds S: distinct, nonempty, in any order, as int64 or Python ints,
    and is overwritten.  With a = |delta|, each key adds the progression
    b, b + a, ..., b + span*a, where b is the key, or the key + span*delta
    when delta < 0.  Write b = quo*a + res: the progressions of one residue
    are the quotient intervals [quo, quo + span], and two of them overlap or
    touch exactly when their quotients differ by at most span + 1.  So one
    sort by c = res*Q + quo, Q = max(quo) + span + 2, puts each residue's
    quotients in order and two residues more than span + 1 apart, and a
    progression of the union starts wherever c[i] > c[i-1] + span + 1 and
    ends span past the last c before the next start.  The lengths are known
    before any output key, so the budget is checked first, and the number
    is returned before anything is allocated; the keys are one cumsum of
    a's with a jump to each progression's first key.

    No int64 value wraps.  Every b + c*a, 0 <= c <= span, is a key of the
    next level, so it lies in [0, size) for that level's box size size <
    2^62; with b >= 0 that gives span*a < size, so 2a < size, and (max(quo) +
    span)*a <= max(b) + span*a < size.  Then every c < a*Q = (max(quo) +
    span)*a + 2a < size + 2a < 2*size < 2^63; the differences of sorted c's
    are smaller still, and the cumsum's partial sums are output keys.
    """
    import numpy as np

    a = abs(delta)
    if delta < 0:
        keys += span * delta
    # numpy's // by a scalar runs several times as fast as its %, so each
    # remainder is taken as a difference
    quo = keys // a
    q = int(quo.max()) + span + 2
    keys -= quo * a
    keys *= q
    keys += quo
    del quo
    # sorted compares Python ints natively, numpy's object sort by rich compares
    if keys.dtype == object:
        keys[:] = sorted(keys)
    else:
        keys.sort()
    # cuts[i]: keys[i] starts a progression; cuts[i + 1]: keys[i] is its last c
    cuts = np.empty(len(keys) + 1, dtype=bool)
    cuts[0] = cuts[-1] = True
    np.greater(keys[1:] - keys[:-1], span + 1, out=cuts[1:-1])
    firsts = keys[cuts[:-1]]
    lengths = keys[cuts[1:]] - firsts + (span + 1)
    del keys, cuts
    counts = lengths.astype(np.int64, copy=False)
    total = int(counts.sum())
    if total > budget:
        return None
    if count_only:
        return total
    res = firsts // q
    firsts = (firsts - res * q) * a + res
    jumps = firsts.copy()
    jumps[1:] -= firsts[:-1] + (lengths[:-1] - 1) * a
    out = np.full(total, a, dtype=jumps.dtype)
    out[np.cumsum(counts) - counts] = jumps
    return np.cumsum(out, out=out)


class _PackedState:
    """Point set as distinct int64 keys in the exact box lo..hi, in no set
    order: chunks = [keys], or [count] for a run's last level, whose keys
    are counted and not written.

    `expand` is written once for every layout: a layout supplies how a level
    overflows it, how its points move to the next box, the shift of one unit
    along each axis and the step along one axis, which on the last level
    (last) may return the number of points in place of the points.
    """

    limit = _INT64_LIMIT  # a box with this many keys or more overflows the dtype

    def __init__(self, chunks: list, lo: tuple, hi: tuple):
        self.chunks = chunks
        self.lo = lo
        self.hi = hi

    def __len__(self) -> int:
        return self._count(self.chunks)

    def expand(self, d: int, axes, m: int, budget: int, last: bool):
        level = _Level(self.lo, self.hi, d, axes, m)
        if self._overflows(level):
            return None, "overflow"
        # the keys move in place, so this state gives them up: no level's
        # keys outlive the step that reads them
        chunks, self.chunks = self.chunks, None
        chunks = self._move(level, chunks)
        deltas = self._deltas(level)
        for i, delta in enumerate(deltas, start=1):
            chunks = self._axis(chunks, delta, level.span, budget, last and i == len(deltas))
            if chunks is None:
                return None, "budget"
        return type(self)(chunks, level.lo, level.hi), "ok"

    def _count(self, chunks: list) -> int:
        keys = chunks[0]
        return keys if isinstance(keys, int) else len(keys)

    def _overflows(self, level: _Level) -> bool:
        return level.size >= self.limit

    def _move(self, level: _Level, chunks: list) -> list:
        level.rekey(chunks[0])
        return chunks

    def _deltas(self, level: _Level):
        return level.deltas

    def _axis(self, chunks: list, delta: int, span: int, budget: int, count_only: bool) -> list | None:
        # popped, so the union holds the only reference to the keys it frees
        keys = _progression_union(chunks.pop(), delta, span, budget, count_only)
        return None if keys is None else [keys]

    def widen(self) -> "_TableState":
        """The same points as value tables and rank keys: the keys sorted,
        N int64 divmods of them, then each axis's distinct digits and their
        ranks."""
        import numpy as np

        keys = np.sort(self.chunks[0])
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

    _axis = _offset_steps

    def _move(self, level: _Level, chunks: list) -> list:
        import numpy as np

        starts, ends = chunks
        # with d = 1 rekey adds one constant between multiples of the least
        # carry weight; runs cut there stay maximal, as every carry is > 0.
        # Only a run that crosses such a row is cut: most moves cut none
        width = min((w for w, _ in level.carries), default=None)
        if width is not None:
            first = starts // width
            pieces = (ends - 1) // width - first + 1
            if pieces.max() > 1:
                run = np.repeat(np.arange(len(starts)), pieces)
                row = np.arange(len(run)) + np.repeat(first - (np.cumsum(pieces) - pieces), pieces)
                starts = np.maximum(row * width, starts[run])
                ends = np.minimum((row + 1) * width, ends[run])
        lengths = ends - starts
        level.rekey(starts)
        return [starts, starts + lengths]

    def _union(self, chunks: list, shifts: list) -> list:
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
    """The same keys as Python ints in an object array (any box)."""

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
    rank or key leaves int64.  It derives from `_ExactState` for that
    class's `expand`, so the bench tracer's hook there counts every level
    past 2^62 keys, on value tables or on Python ints.
    """

    limit = _INT64_LIMIT  # an axis extent or a table product this large overflows
    _axis = _offset_steps

    def _overflows(self, level: _Level) -> bool:
        if max(level.bases, default=0) >= self.limit:
            return True
        # kept for the move: the check needs the tables' sizes
        level.tables = _level_tables(self.chunks[1:], level)
        return math.prod(len(t) for t in level.tables) >= self.limit

    def _move(self, level: _Level, chunks: list) -> list:
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

    def _union(self, chunks: list, shifts: list) -> list:
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


def _increments(counts) -> tuple[float, ...]:
    """log(tau(n) / tau(n - 1)) for exact big integers, with tau(0) = 1;
    exact when the ratio is integral."""
    return tuple(
        math.log(t // b) if t % b == 0 else math.log(t) - math.log(b)
        for t, b in zip(counts, (1, *counts))
    )


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
    m_int = [[b * (d // D) for b in row] for D, row in zip(M.dens, M.B)]

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
    for level in range(1, n_max):
        power = [
            [sum(m_int[i][k] * power[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]
        axes = [tuple(power[i][j] for i in range(dim)) for j in range(dim)]
        # each layout checks the new box before any int64 arithmetic
        # (numpy wraps silently) and widens the level it holds on overflow:
        # int64 keys -> value tables and int64 keys -> Python-int keys
        last = level == n_max - 1  # the run reads only its size
        new_state, reason = state.expand(d, axes, m, budget, last)
        while reason == "overflow":
            state = state.widen()
            new_state, reason = state.expand(d, axes, m, budget, last)
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
    return TrajectoryRun(
        dim=dim,
        m=m,
        counts=tuple(counts),
        h_cum=h_cum,
        h_inc=_increments(counts),
        budget=budget,
        budget_exhausted_at=exhausted,
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
    return BernoulliRun(q=q, counts=tuple(counts), h_inc=_increments(counts))
