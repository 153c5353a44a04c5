"""Self-tests of the benchmark: generator, tracer, output checks, backends.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.use_checkout()

import algentropy.cli as cli  # noqa: E402
import hostspeed  # noqa: E402
from checks import Checker  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, char_poly_primitive, cyclotomic, generate  # noqa: E402


def _cheapest(items, k=3):
    return sorted(items, key=lambda it: (it.props["degree"], it.expect.get("n_max", 0)))[:k]


def _bindings():
    snapshot = {}
    for name, mod in sys.modules.items():
        if name == "algentropy" or name.startswith("algentropy."):
            for attr, value in vars(mod).items():
                snapshot[(name, attr)] = value
    traj = sys.modules["algentropy.trajectory"]
    for cls in (traj._PackedState, traj._ExactState):
        for attr, value in vars(cls).items():
            snapshot[(cls.__qualname__, attr)] = value
    return snapshot


def test_generator_is_seeded():
    for workload in WORKLOADS:
        a, b = generate(workload, 5), generate(workload, 5)
        assert a == b
        # the nearest-rank p75 over per-item medians needs 10 items above it
        assert len(a) >= 40
    for workload in ("matrix-entropy", "poly-measure", "trajectory-bigint"):
        assert [i.argv for i in generate(workload, 5)] != [i.argv for i in generate(workload, 6)]


def test_char_poly_of_known_matrices():
    # trace 9/14, determinant 1/210: 210 X^2 - 135 X + 1
    assert char_poly_primitive([["1/2", "1/3"], ["1/5", "1/7"]]) == [1, -135, 210]
    # companion matrix of Phi_12 = X^4 - X^2 + 1; a singular first pivot
    companion = [["0", "0", "0", "-1"], ["1", "0", "0", "0"], ["0", "1", "0", "1"], ["0", "0", "1", "0"]]
    assert char_poly_primitive(companion) == cyclotomic(12)
    assert char_poly_primitive([["0", "0"], ["0", "0"]]) == [0, 0, 1]


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = Tracer(run.TRACED, run.HOOKS)
    with tracer.installed():
        during = _bindings()
        assert during[("algentropy.entropy", "char_poly")] is not before[("algentropy.entropy", "char_poly")]
        assert during[("algentropy.linalg", "char_poly")] is during[("algentropy.entropy", "char_poly")]
        assert during[("_ExactState", "expand")] is not before[("_ExactState", "expand")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_gives_the_same_documents(workload):
    items = _cheapest(generate(workload, 0))
    plain = run.run_pass(cli, items, probes=True).results
    tracer = Tracer(run.TRACED, run.HOOKS)
    with tracer.installed():
        wall, _, traced, _ = run.run_pass(cli, items, tracer)
    assert [(rc, out) for _, rc, out, _ in traced] == [(rc, out) for _, rc, out, _ in plain]
    assert all(rc == 0 for _, rc, _, _ in plain)
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"] * len(items)
    assert [s.item for s in roots] == [i.id for i in items]
    # self times partition the root spans exactly
    total_root = sum(s.seconds for s in roots)
    assert sum(self_times(tracer.spans).values()) == pytest.approx(total_root, rel=1e-9)
    assert total_root <= wall


def _corruptions(doc):
    """Copies of a correct output document, each wrong in one field."""
    if "counts" in doc:
        yield {**doc, "counts": doc["counts"][:-1] + [str(int(doc["counts"][-1]) + 1)]}
        yield {**doc, "counts": doc["counts"][:-1]}
        yield {**doc, "budget_exhausted_at": 99}
        yield {**doc, "formula_entropy": doc["formula_entropy"] + 1e-6}
        return
    field = "entropy" if "entropy" in doc else "value"
    yield {**doc, field: doc[field] + 1e-6}
    yield {**doc, field: str(doc[field])}
    if field == "entropy":
        coeffs = list(doc["char_poly_primitive"])
        coeffs[0] = str(int(coeffs[0]) + 1)
        yield {**doc, "char_poly_primitive": coeffs}
        yield {**doc, "zero_entropy_exact": not doc["zero_entropy_exact"]}


def _checked_items():
    """The cheapest item of each workload, and the cheapest dense matrix."""
    items = {w: _cheapest(generate(w, 0), 1)[0] for w in WORKLOADS}
    dense = [i for i in generate("matrix-entropy", 0) if i.props["den_lcm"] > 1]
    items["matrix-entropy-dense"] = _cheapest(dense, 1)[0]
    return items


CHECKED_ITEMS = _checked_items()


@pytest.mark.parametrize("name", CHECKED_ITEMS)
def test_check_rejects_corrupted_documents(name):
    checker = Checker()
    item = CHECKED_ITEMS[name]
    _, rc, out, _ = run.call(cli, item.argv)
    assert checker.check(item, rc, out) is None
    doc = json.loads(out)
    bad = list(_corruptions(doc))
    assert bad
    for wrong in bad:
        assert checker.check(item, 0, json.dumps(wrong)) is not None, wrong
    assert checker.check(item, 1, out) is not None
    assert checker.check(item, 0, out[:-5]) is not None
    assert checker.check(item, 0, "[]") is not None


def _levels_per_item(workload, seed):
    """[(packed levels, big-int levels)] per item of the workload."""
    items = generate(workload, seed)
    tracer = Tracer(run.TRACED, run.HOOKS)
    with tracer.installed():
        run.run_pass(cli, items, tracer)
    levels = {}
    for span in tracer.spans:
        if span.name == "trajectory.trajectory_counts":
            levels[span.item] = (
                span.counters.get("packed_levels", 0),
                span.counters.get("bigint_levels", 0),
            )
    return [levels[item.id] for item in items]


def test_backends_split_between_trajectory_workloads():
    """Every bigint item reaches the big-int fallback, no packed item does,
    and each item's split of levels does not depend on the seed."""
    for workload, want_bigint in (("trajectory-packed", False), ("trajectory-bigint", True)):
        levels = _levels_per_item(workload, 0)
        assert _levels_per_item(workload, 1) == levels
        assert all((bigint > 0) is want_bigint for _, bigint in levels), levels
        bigint = sum(b for _, b in levels)
        print(f"{workload}: {bigint} of {sum(p + b for p, b in levels)} levels on the big-int path")


def test_probes_sample_every_kind():
    samples = {}
    hostspeed.probe(samples, repeat=3)
    assert sorted(samples) == sorted(hostspeed.PROBES)
    assert all(len(s) == 3 for s in samples.values())
    assert hostspeed.slowdown(samples) > 0


def test_slowdown_is_the_geometric_mean_of_median_ratios():
    ref = hostspeed.REFERENCE_MS
    samples = {
        "exact": [ref["exact"] * 1e-3 * f for f in (2.0, 4.0, 9.0)],
        "numpy": [ref["numpy"] * 1e-3 * f for f in (1.0, 0.5)],
    }
    assert hostspeed.slowdown(samples) == pytest.approx((4.0 * 0.75) ** 0.5)


def test_tail_percentile_keeps_ten_items_beyond():
    assert run.percentile_rank(range(1, 41)) == (75, 30)
    assert run.percentile_rank(range(1, 101)) == (90, 90)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
