"""Seeded inputs for the benchmark workloads.

Every workload is a fixed schedule of item shapes (kind, degree or
dimension, trajectory depth); the seed only draws the entries, coefficients
and conjugations inside each shape.  Costs therefore stay nearly the same
from seed to seed while the inputs change, which keeps the run-to-run
spread of the timings small.

The polynomial and companion inputs are built from factors whose Mahler
measures are cheap to check independently (the measure is additive over
products); the dense matrices are random, and their characteristic
polynomials are computed here by an algorithm of the benchmark's own.  The
trajectory systems are sign conjugates of fixed systems, which leave
tau(n) unchanged.  Nothing here calls the package: a change
to the package cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
import numpy as np

WORKLOADS = ("matrix-entropy", "poly-measure", "trajectory-packed", "trajectory-bigint")

LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)

# Cyclotomic indices with totient at most 8, the building blocks of the
# zero-entropy items.
_CYCLO_INDICES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20, 24, 30)

# tau(1..L) at m = 1 (or the admissible m) for the fixed trajectory systems,
# frozen from the package at the commit that introduced this benchmark.
# The scaled permutations (1/p) P need no table: tau(n) = (3**N)**n, since
# a point's coordinates are base-p numbers with digits -1, 0, 1.
FROZEN_COUNTS = {
    "fibonacci": (
        9, 29, 69, 141, 265, 473, 817, 1381, 2301, 3797, 6225, 10161, 16537,
        26861, 43573, 70621, 114393, 185225, 299841, 485301, 785389, 1270949,
        2056609,
    ),
    "nonarch": (1369, 24049, 234001, 1779697),
    # the same for every off-diagonal entry K >= 10**6 drawn below
    "unipotent": (27, 405, 4347, 35721),
}

TRAJECTORY_BUDGET = 2_000_000

# numerators and denominators of the dense matrices' entries
DENSE_BOUND = 20


@dataclass(frozen=True)
class Item:
    """One CLI call: its argv, recorded input properties and expected output."""

    id: str
    argv: tuple[str, ...]
    props: dict
    expect: dict


# -- exact integer polynomials (ascending coefficient lists) -----------------


def pmul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def pdiv_exact_monic(a, b) -> list[int]:
    """a / b for a monic divisor b that divides a exactly."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + len(b) - 1]
        q[k] = c
        for j, y in enumerate(b):
            a[k + j] -= c * y
    if any(a):
        raise ArithmeticError("inexact division")
    return q


def cyclotomic(n: int) -> list[int]:
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = pdiv_exact_monic(poly, cyclotomic(d))
    return poly


def product(factors) -> list[int]:
    out = [1]
    for f in factors:
        out = pmul(out, f)
    return out


def is_reciprocal(p) -> bool:
    """P equals its reciprocal X^deg P(1/X) up to sign."""
    rev = list(reversed(p))
    return rev == list(p) or rev == [-c for c in p]


def coeff_bits(values) -> int:
    return max(abs(v).bit_length() for v in values)


def _det(rows) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1 :]:
            factor = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - factor * row_k[j]) // prev
        prev = pivot
    return sign * a[-1][-1]


def char_poly_primitive(rows) -> list[int]:
    """Primitive integer characteristic polynomial of a rational matrix.

    With d the lcm of the denominators and A = d*M, g(y) = det(yI - A) is
    interpolated from its values at y = 0..n, and the answer is g(d*X)
    divided by its content.  Independent of the package's Faddeev-LeVerrier.
    """
    n = len(rows)
    d = math.lcm(*(Fraction(e).denominator for row in rows for e in row))
    a = [[int(Fraction(e) * d) for e in row] for row in rows]
    values = [
        _det([[(y if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)])
        for y in range(n + 1)
    ]
    # Newton's divided differences at the nodes 0..n, then expand
    diffs = [Fraction(v) for v in values]
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / k
    g = [diffs[n]]
    for k in range(n - 1, -1, -1):  # g = g * (y - k) + diffs[k]
        g = [Fraction(0)] + g
        for i in range(len(g) - 1):
            g[i] -= k * g[i + 1]
        g[0] += diffs[k]
    if any(c.denominator != 1 for c in g) or g[-1] != 1:
        raise ArithmeticError("interpolated characteristic polynomial is not monic integral")
    scaled = [int(c) * d**i for i, c in enumerate(g)]
    content = math.gcd(*scaled)
    return [c // content for c in scaled]


# -- random factors ----------------------------------------------------------


def _split(degree: int) -> list[int]:
    """Factor degrees: fours, then a two or a three (4 + 1 becomes 3 + 2).

    A fixed split per degree keeps an item's cost from depending on how
    the seed happens to cut it into factors.
    """
    parts = [4] * (degree // 4)
    rest = degree % 4
    if rest == 1 and parts:
        parts[-1:] = [3, 2]
    elif rest:
        parts.append(rest)
    return parts


def _random_factor(rng: random.Random, deg: int, lead_max: int, height: int) -> list[int]:
    """Random primitive integer factor with positive lead and |constant| >= 2.

    The constant term keeps the factor itself from being cyclotomic.
    """
    while True:
        coeffs = [rng.randint(-height, height) for _ in range(deg)]
        coeffs.append(rng.randint(1, lead_max))
        if abs(coeffs[0]) >= 2 and math.gcd(*coeffs) == 1:
            return coeffs


def _random_factors(rng: random.Random, degree: int, lead_max: int, height: int) -> list[list[int]]:
    return [_random_factor(rng, d, lead_max, height) for d in _split(degree)]


def _trace_to_reciprocal(q) -> list[int]:
    """X^k * Q(X + 1/X) for an ascending trace polynomial Q of degree k."""
    k = len(q) - 1
    out = [0] * (2 * k + 1)
    for j, qj in enumerate(q):
        # qj * X^(k - j) * (X^2 + 1)^j
        for i in range(j + 1):
            out[k - j + 2 * i] += qj * math.comb(j, i)
    return out


def _salem_factor(rng: random.Random, half: int) -> list[int]:
    """Reciprocal factor of degree 2*half from a Salem-type trace polynomial.

    The trace polynomial Q has one real root beyond +/-2 and half - 1
    distinct real roots inside (-2, 2), so the factor has a real pair
    z, 1/z off the unit circle and 2*(half - 1) roots on it: the input of
    the unit-circle candidate path.
    """
    while True:
        q = [rng.randint(-3, 3) for _ in range(half)] + [1]
        roots = np.roots(q[::-1])
        if np.max(np.abs(roots.imag)) > 1e-7:
            continue
        re = np.sort(roots.real)
        inside = np.abs(re) < 2 - 1e-6
        if inside.sum() == half - 1 and (~inside).sum() == 1 and np.min(np.diff(re)) > 1e-6:
            if np.all(np.abs(np.abs(re[~inside]) - 2) > 1e-6):
                return _trace_to_reciprocal(q)


def _cyclotomic_product(rng: random.Random, degree: int) -> list[list[int]]:
    """Cyclotomic factors (with repeats) whose degrees add up to `degree`."""
    factors = []
    left = degree
    while left:
        fits = [n for n in _CYCLO_INDICES if len(cyclotomic(n)) - 1 <= left]
        f = cyclotomic(rng.choice(fits))
        factors.append(f)
        left -= len(f) - 1
    return factors


def _measure_factors(rng: random.Random, kind: str, degree: int) -> list[list[int]]:
    """Integer factors of a degree-`degree` input of the given kind."""
    if kind == "cyclotomic":
        return _cyclotomic_product(rng, degree)
    if kind == "lehmer":
        # Lehmer's polynomial or L(-X), which has the same measure
        sign = rng.choice((1, -1))
        lehmer = [c * sign**i for i, c in enumerate(LEHMER)]
        return [lehmer] + _cyclotomic_product(rng, degree - 10)
    if kind == "salem":
        halves = [4] * (degree // 8) + ([degree % 8 // 2] if degree % 8 >= 6 else [])
        rest = degree - 2 * sum(halves)
        return [_salem_factor(rng, h) for h in halves] + _random_factors(rng, rest, 1, 9)
    if kind == "monic":
        return _random_factors(rng, degree, 1, 9)
    if kind == "nonmonic":
        return _random_factors(rng, degree, 9, 9)
    raise ValueError(f"unknown factor kind {kind!r}")


# -- matrices ----------------------------------------------------------------


def _companion_rows(monic) -> list[list[Fraction]]:
    """Companion matrix of a monic polynomial with rational coefficients."""
    n = len(monic) - 1
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = Fraction(1)
    for i in range(n):
        rows[i][n - 1] = -Fraction(monic[i])
    return rows


def _sign_conjugate(rng: random.Random, rows):
    """D M D for a random diagonal D of signs.

    The trajectory grid is the symmetric box, which D maps onto itself, so
    every tau(n) and the admissible m are unchanged, and so is the cost:
    a permutation of the axes would also keep tau(n) but changes the
    packing order, which moves the run time by a third.
    """
    sign = [rng.choice((-1, 1)) for _ in rows]
    return [[si * sj * Fraction(e) for sj, e in zip(sign, row)] for si, row in zip(sign, rows)]


def _matrix_json(rows) -> str:
    return json.dumps([[str(e) for e in row] for row in rows], separators=(",", ":"))


def _den_lcm(rows) -> int:
    return math.lcm(*(Fraction(e).denominator for row in rows for e in row))


# -- items -------------------------------------------------------------------


def _measure_item(idx, kind, factors, argv_head, field, matrix_rows=None) -> Item:
    poly = product(factors)
    props = {
        "dim": len(matrix_rows) if matrix_rows is not None else None,
        "degree": len(poly) - 1,
        "coeff_bits": coeff_bits(poly),
        "den_lcm": _den_lcm(matrix_rows) if matrix_rows is not None else 1,
        "reciprocal": is_reciprocal(poly),
        "backend": None,
    }
    if matrix_rows is not None:
        argv = (*argv_head, "--matrix", _matrix_json(matrix_rows))
    else:
        argv = (*argv_head, "--poly", json.dumps(poly, separators=(",", ":")))
    expect = {
        "check": "measure",
        "field": field,
        "factors": [list(f) for f in factors],
        "poly": poly,
    }
    return Item(id=f"{idx:02d}-{kind}-{len(poly) - 1}", argv=argv, props=props, expect=expect)


# The schedules fill cost bands of 15, 10, 9 and 6 items: cheap, the
# median band (the p50 ranks 20 and 21), the tail band (the p75 rank 30)
# and heavy.  Each middle band holds shapes of one cost level that moves
# little from seed to seed, apart from the neighbouring bands, so the p50
# and p75 ranks fall inside their band for every seed and item_p50_ms and
# item_tail_ms stay steady while the inputs change.

# (kind, degree) per companion item; (kind, dimension) per dense item.
# Costs on a 2-core Xeon VM with Python 3.11: dense 8 about 100 ms, dense
# 9 about 140 ms, dense 16 about 2.5 s, more than half of it in the gcd
# over Q of the unit-circle split.
MATRIX_SCHEDULE = (
    [("cyclotomic", d) for d in (4, 6, 6, 8, 8)]
    + [("salem", 6)] * 3
    + [("monic", d) for d in (4, 4, 6, 6)]
    + [("dense", 6)] * 3
    # median band
    + [("dense", 8)] * 10
    # tail band
    + [("dense", 9)] * 9
    # heavy
    + [("monic", 12), ("lehmer", 16), ("cyclotomic", 16), ("dense", 11), ("dense", 12), ("dense", 16)]
)

# (command, kind, degree) per polynomial item: median band about 90 ms,
# tail band about 150 ms.
POLY_SCHEDULE = (
    [("entropy", "cyclotomic", d) for d in (4, 8, 12, 16, 20, 24)]
    + [("mahler", "nonmonic", 6)] * 3
    + [("mahler", "monic", 8)] * 2
    + [("mahler", "monic", 4), ("mahler", "nonmonic", 4)]
    + [("mahler", "salem", 8), ("entropy", "salem", 8)]
    # median band
    + [("entropy", "lehmer", d) for d in (12, 16, 20, 24, 28) * 2]
    # tail band
    + [("mahler", "monic", 12)] * 5
    + [("entropy", "nonmonic", 12)] * 4
    # heavy
    + [("mahler", "nonmonic", 16), ("entropy", "nonmonic", 16), ("mahler", "monic", 16)]
    + [("mahler", "monic", 16), ("mahler", "nonmonic", 18), ("mahler", "monic", 18)]
)


def _dense_item(idx, rng, dim) -> Item:
    """Random dense matrix of small fractions a/b, |a| <= 20 and 1 <= b <= 20.

    Its characteristic polynomial, computed here, is the item's only factor.
    """
    rows = [
        [Fraction(rng.randint(-DENSE_BOUND, DENSE_BOUND), rng.randint(1, DENSE_BOUND)) for _ in range(dim)]
        for _ in range(dim)
    ]
    return _measure_item(idx, "dense", [char_poly_primitive(rows)], ("entropy",), "entropy", rows)


def _matrix_entropy(rng: random.Random) -> list[Item]:
    items = []
    for idx, (kind, size) in enumerate(MATRIX_SCHEDULE):
        if kind == "dense":
            items.append(_dense_item(idx, rng, size))
            continue
        factors = _measure_factors(rng, kind, size)
        rows = _companion_rows(product(factors))
        items.append(_measure_item(idx, kind, factors, ("entropy",), "entropy", rows))
    return items


def _poly_measure(rng: random.Random) -> list[Item]:
    items = []
    for idx, (command, kind, degree) in enumerate(POLY_SCHEDULE):
        factors = _measure_factors(rng, kind, degree)
        field = "value" if command == "mahler" else "entropy"
        items.append(_measure_item(idx, kind, factors, (command,), field))
    return items


_FIBONACCI = (("0", "1"), ("1", "1"))
_NONARCH = (("0", "-1/6"), ("1", "5/6"))


def _trajectory_item(idx, rng, system, rows, m, n_max, backend, reciprocal, expect) -> Item:
    rows = _sign_conjugate(rng, rows)
    flat = [Fraction(e) for row in rows for e in row]
    argv = (
        "trajectory",
        "--matrix",
        _matrix_json(rows),
        "--m",
        str(m),
        "--max-n",
        str(n_max),
        "--budget",
        str(TRAJECTORY_BUDGET),
    )
    props = {
        "dim": len(rows),
        "degree": len(rows),
        "coeff_bits": coeff_bits([e.numerator for e in flat]),
        "den_lcm": _den_lcm(rows),
        "reciprocal": reciprocal,
        "backend": backend,
    }
    expect = {"check": "trajectory", "system": system, "n_max": n_max, **expect}
    return Item(id=f"{idx:02d}-{system}-{n_max}", argv=argv, props=props, expect=expect)


# (system, n_max) per item, in the same cost bands as above; m = 1 except
# for the non-archimedean system (m = 0, the admissible density 18).
PACKED_SCHEDULE = (
    [("fibonacci", n) for n in (10, 10, 12, 12, 12, 14, 14, 14)]
    + [("nonarch", 2)] * 7
    + [("fibonacci", 16)] * 10
    + [("nonarch", 3)] * 9
    + [("fibonacci", n) for n in (18, 20, 20, 22, 40)]
    + [("nonarch", 4)]
)

# (system, n_max, prime or off-diagonal range); each range makes the
# rescaled coordinates overflow int64 at the same level for every draw,
# while staying below 2**61, where the cost of hashing them starts to
# depend on the draw.
BIGINT_SCHEDULE = (
    [("swap", 3, (46349, 60000))] * 10
    + [("unipotent", 3, (10**6, 10**7))] * 5
    + [("swap", 4, (3001, 4000))] * 10
    + [("cyclic", 3, (1009, 1100))] * 9
    + [("swap", 5, (1031, 1100))] * 3
    + [("unipotent", 4, (10**6, 10**7))] * 3
)


def _trajectory_packed(rng: random.Random) -> list[Item]:
    items = []
    for idx, (system, n_max) in enumerate(PACKED_SCHEDULE):
        if system == "fibonacci":
            rows, m, entropy = _FIBONACCI, 1, math.log((1 + math.sqrt(5)) / 2)
        else:
            rows, m, entropy = _NONARCH, 0, math.log(6)
        expect = {"entropy": entropy, "m": 1 if m else 18}
        items.append(_trajectory_item(idx, rng, system, rows, m, n_max, "packed", False, expect))
    return items


def _next_prime(n: int) -> int:
    while n < 2 or any(n % p == 0 for p in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def _trajectory_bigint(rng: random.Random) -> list[Item]:
    items = []
    for idx, (system, n_max, (lo, hi)) in enumerate(BIGINT_SCHEDULE):
        if system == "unipotent":
            k = str(rng.randint(lo, hi))
            rows = (("1", k, "0"), ("0", "1", k), ("0", "0", "1"))
            reciprocal, expect = True, {"entropy": 0.0, "m": 1}
        else:
            # (1/p) times a coordinate permutation; char poly p^N X^N - 1
            q = f"1/{_next_prime(rng.randint(lo, hi))}"
            if system == "swap":
                rows = (("0", q), (q, "0"))
            else:
                rows = (("0", "0", q), (q, "0", "0"), ("0", q, "0"))
            reciprocal, expect = False, {"entropy": len(rows) * math.log(Fraction(q).denominator), "m": 1}
        items.append(_trajectory_item(idx, rng, system, rows, 1, n_max, "bigint", reciprocal, expect))
    return items


_GENERATORS = {
    "matrix-entropy": _matrix_entropy,
    "poly-measure": _poly_measure,
    "trajectory-packed": _trajectory_packed,
    "trajectory-bigint": _trajectory_bigint,
}


def generate(workload: str, seed: int) -> list[Item]:
    """The workload's items for this seed; the same seed gives the same items."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
