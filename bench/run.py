"""Run one benchmark workload through `algentropy.cli.main` and report metrics.

    python3 bench/run.py --workload matrix-entropy --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's `src/`.  The workload's items are generated
from the seed (bench/workloads.py), called once each in an untimed warm-up
pass, then in timed passes for about `--seconds` seconds, one in-process
CLI call per item with stdout captured: a closed loop with one caller,
each call made when the previous one has returned.  Before each call,
outside its time, host-speed probes run (bench/hostspeed.py), and every
end-to-end time is scaled by its pass's
probe slowdown, so the timings follow the package and not the load other
tenants put on the host.  Outputs are checked after the timed region
(bench/checks.py).

With `--trace 0` the last line of stdout is a JSON object whose metrics are
the end-to-end ones of BENCHMARK.json; with `--trace 1` the passes
alternate untraced and traced (bench/tracer.py) and the metrics are the
per-layer ones, in raw seconds of the traced passes.  Spans and per-item
records are written to `.bench_out/` in the checkout.  The process starts
no threads; it starts child processes only to time a fresh import, after
its memory has been read.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
IMPORT_SAMPLES = 7
GENERATE_SAMPLES = 3
MIN_PASSES = 2
# host-speed probes before each import and generation (bench/hostspeed.py)
SETUP_PROBE_REPEAT = 4

# "module.function" -> observer setting span counters (see tracer.Tracer).
# Which end-to-end metric each one should move is listed in bench/baseline.json.


def _char_poly_dim(span, args, kwargs, result):
    span.counters["dim"] = args[0].n


def _solve_rung(span, args, kwargs, result):
    span.counters["bits"] = args[1] if len(args) > 1 else kwargs["prec"]
    span.counters["failed"] = int(result[0] is None)


def _mahler_assumed(span, args, kwargs, result):
    span.counters["assumed"] = result.assumed_roots


def _count_level(key):
    def observe(tracer, result):
        if result[1] == "overflow":
            return
        span = tracer.current
        if span is not None:
            span.counters[key] = span.counters.get(key, 0) + 1

    return observe


TRACED = {
    "cli.main": None,
    "entropy.algebraic_entropy": None,
    "linalg.char_poly": _char_poly_dim,
    "ratpoly.primitivize": None,
    "padic.newton_polygon": None,
    "mahler.mahler_measure": _mahler_assumed,
    "mahler.is_cyclotomic_product": None,
    "mahler.extract_cyclotomic": None,
    "mahler.split_unit_circle": None,
    "ratpoly.poly_gcd": None,
    "ratpoly.squarefree_decomposition": None,
    "roots.solve_with_multiplicity": _solve_rung,
    "trajectory.trajectory_counts": None,
    "trajectory.classify_growth": None,
}
HOOKS = {
    "trajectory._PackedState.expand": _count_level("packed_levels"),
    "trajectory._ExactState.expand": _count_level("bigint_levels"),
}

# metric names and units, as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def use_checkout() -> None:
    """Import the package, the test oracles and the bench modules from this checkout, or exit 2."""
    missing = [p for p in ("src/algentropy/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: {ROOT} is not a checkout of the package: missing {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    for path in (str(ROOT), str(ROOT / "src"), str(ROOT / "bench")):
        if path not in sys.path:
            sys.path.insert(0, path)


def call(cli, argv) -> tuple[float, int, str, str]:
    """One CLI call: (seconds, exit code, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an item that raises is a failed item, not a failed run
        rc, error = -1, repr(exc)
    seconds = time.perf_counter() - start
    return seconds, rc, out.getvalue(), error or err.getvalue()


class Pass(NamedTuple):
    wall: float  # the sum of the calls' wall seconds
    cpu: float  # the calls' user + sys seconds, of the process and its children
    results: list  # (seconds, rc, stdout, error) per item
    probes: dict  # probe kind -> [seconds]


def run_pass(cli, items, tracer=None, probes=False) -> Pass:
    """One call per item; with probes, one probe of each kind before each call, outside its time."""
    results, samples, cpu = [], {}, 0.0
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        if probes:
            hostspeed.probe(samples)
        cpu0 = _cpu_seconds()
        results.append(call(cli, item.argv))
        cpu += _cpu_seconds() - cpu0
    return Pass(sum(r[0] for r in results), cpu, results, samples)


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def percentile_rank(values, n_beyond: int = 10) -> tuple[int, float]:
    """Highest of p99/p95/p90/p75/p50 with at least n_beyond values above it."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75, 50):
        rank = -(-p * len(ordered) // 100)  # nearest rank, 1-based
        if len(ordered) - rank >= n_beyond:
            return p, ordered[rank - 1]
    return 50, statistics.median(ordered)


def import_seconds(samples: dict) -> float:
    """Median time for a fresh interpreter to import the CLI module; probes go to samples."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import algentropy.cli; print(time.perf_counter() - t)"
    )
    seconds = []
    for _ in range(IMPORT_SAMPLES):
        hostspeed.probe(samples, SETUP_PROBE_REPEAT)
        done = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        seconds.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(seconds)


def measure(cli, items, seconds, tracer=None) -> tuple[list, list]:
    """Timed passes for about `seconds`, and at least MIN_PASSES of them.

    Returns (plain, traced): plain holds (wall, cpu seconds, results,
    slowdown) per untraced pass, the slowdown from the probes run in that
    pass; with a tracer every untraced pass is followed by a traced one,
    with the same probes so that the two compare, and traced holds (wall,
    spans, results) per traced pass.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        p = run_pass(cli, items, probes=True)
        plain.append((p.wall, p.cpu, p.results, hostspeed.slowdown(p.probes)))
        if tracer is not None:
            tracer.spans = []
            with tracer.installed():
                p = run_pass(cli, items, tracer, probes=True)
            traced.append((p.wall, tracer.spans, p.results))
        elapsed = time.perf_counter() - start
        if len(plain) >= MIN_PASSES and elapsed * (1 + 1 / len(plain)) > seconds:
            return plain, traced


def check_outputs(items, passes) -> tuple[int, int, list[str]]:
    """(attempted calls, failed calls, one line per distinct failure)."""
    from checks import Checker

    checker = Checker()
    verdicts: dict[tuple[int, int, str], str | None] = {}
    attempted = failed = 0
    for results in passes:
        for i, (item, (_, rc, out, error)) in enumerate(zip(items, results)):
            key = (i, rc, out)
            if key not in verdicts:
                verdict = checker.check(item, rc, out)
                verdicts[key] = f"{verdict}: {error.strip()[-300:]}" if rc and error else verdict
            attempted += 1
            failed += verdicts[key] is not None
    problems = [f"{items[i].id}: {v}" for (i, _, _), v in sorted(verdicts.items()) if v is not None]
    return attempted, failed, problems


def output_documents(results) -> list[dict | None]:
    docs = []
    for _, rc, out, _ in results:
        try:
            docs.append(json.loads(out) if rc == 0 else None)
        except json.JSONDecodeError:
            docs.append(None)
    return docs


def layer_metrics(items, plain, traced, docs) -> dict:
    """Per-layer values: medians over traced passes, counts from the output."""
    from tracer import self_times

    per_pass = []
    for wall, spans, _ in traced:
        by_name = {name: [] for name in TRACED}
        counters: dict[str, list] = {}
        for span in spans:
            by_name[span.name].append(span)
            for key, value in span.counters.items():
                counters.setdefault(key, []).append(value)
        per_pass.append((wall, self_times(spans), by_name, counters))

    def med(fn):
        return statistics.median(fn(*p) for p in per_pass)

    _, _, by_name, counters = per_pass[-1]
    points = levels = exhausted = nbytes = 0
    for item, doc in zip(items, docs):
        if doc is not None and "counts" in doc:
            counts = [int(c) for c in doc["counts"]]
            levels += len(counts)
            points += sum(counts)
            nbytes += sum(counts) * item.props["dim"] * 8
            exhausted = max(exhausted, doc["budget_exhausted_at"] or 0)
    traj_s = med(lambda w, o, b, c: sum(s.seconds for s in b["trajectory.trajectory_counts"]))

    values = {
        "linalg.char_poly.calls": len(by_name["linalg.char_poly"]),
        "linalg.char_poly.max_dim": max(counters.get("dim", [0])),
        "padic.newton_polygon.calls": len(by_name["padic.newton_polygon"]),
        "roots.solve_with_multiplicity.calls": len(by_name["roots.solve_with_multiplicity"]),
        "roots.rungs_failed": sum(counters.get("failed", [])),
        "roots.max_bits": max(counters.get("bits", [0])),
        "mahler.assumed_roots": sum(counters.get("assumed", [])),
        "trajectory.levels": levels,
        "trajectory.points": points,
        "trajectory.bytes_computed": nbytes,
        "trajectory.us_per_point": traj_s / points * 1e6 if points else 0.0,
        "trajectory.budget_exhausted_at": exhausted,
        "trajectory.packed_levels": sum(counters.get("packed_levels", [])),
        "trajectory.bigint_levels": sum(counters.get("bigint_levels", [])),
        "process.cpu_s": statistics.median(cpu for _, cpu, _, _ in plain),
        "trace.wall_s": med(lambda w, o, b, c: w),
        "trace.untraced_wall_s": statistics.median(w for w, _, _, _ in plain),
    }
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    for name in PER_LAYER:
        if name.endswith((".s", ".self_s")):
            target = name.rsplit(".", 1)[0]
            values[name] = med(lambda w, o, b, c: o.get(target, 0.0))
    return values


def write_records(stem, items, item_ms, plain, traced, docs) -> None:
    """Per-item properties and timings (scaled, and raw per pass), and the spans, under .bench_out/."""
    OUT_DIR.mkdir(exist_ok=True)
    records = [
        {
            "id": item.id,
            "props": item.props,
            "item_ms": ms,
            "raw_ms_per_pass": [results[i][0] * 1e3 for _, _, results, _ in plain],
            "certified": None if doc is None else doc.get("certified"),
        }
        for i, (item, ms, doc) in enumerate(zip(items, item_ms, docs))
    ]
    (OUT_DIR / f"items-{stem}.json").write_text(json.dumps(records, indent=1))
    if traced:
        spans = [
            {"pass": k, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "item": s.item, "counters": s.counters}
            for k, (_, pass_spans, _) in enumerate(traced)
            for s in pass_spans
        ]
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(spans))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout()
    import algentropy.cli as cli
    from tracer import Tracer
    from workloads import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")

    gen_samples, setup_probes = [], {}
    for _ in range(GENERATE_SAMPLES):
        hostspeed.probe(setup_probes, SETUP_PROBE_REPEAT)
        start = time.perf_counter()
        items = generate(args.workload, args.seed)
        gen_samples.append(time.perf_counter() - start)

    run_pass(cli, items, probes=True)  # warm-up: fills lazy caches, untimed
    tracer = Tracer(TRACED, HOOKS) if args.trace else None
    plain, traced = measure(cli, items, args.seconds, tracer)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    attempted, failed, problems = check_outputs(
        items, [p[2] for p in plain] + [p[2] for p in traced]
    )
    docs = output_documents(plain[-1][2])
    uncertified = sum(d is not None and d.get("certified") is False for d in docs)
    # every time scaled to the reference host speed by its pass's slowdown
    item_ms = [
        statistics.median(results[i][0] / slow for _, _, results, slow in plain) * 1e3
        for i in range(len(items))
    ]
    walls = [w / slow for w, _, _, slow in plain]

    print(f"workload {args.workload} seed {args.seed}: {len(items)} items, "
          f"{len(plain)} timed passes + {len(traced)} traced")
    print(f"pass wall_s raw {' '.join(f'{w:.3f}' for w, _, _, _ in plain)}; "
          f"probe slowdown {' '.join(f'{p[3]:.3f}' for p in plain)}; "
          f"scaled {' '.join(f'{w:.3f}' for w in walls)}")
    for line in problems:
        print(f"FAILED {line}")
    print(f"error_frac {failed / attempted:.4f} ratio ({failed}/{attempted} calls)")
    print(f"uncertified_frac {uncertified / len(items):.4f} ratio ({uncertified}/{len(items)} items)")

    if args.trace:
        metrics = layer_metrics(items, plain, traced, docs)
        metrics["output.error_frac"] = failed / attempted
        metrics["output.uncertified_frac"] = uncertified / len(items)
        units = PER_LAYER
    else:
        tail_p, tail_ms = percentile_rank(item_ms)
        import_s = import_seconds(setup_probes)
        setup_slow = hostspeed.slowdown(setup_probes)
        metrics = {
            "wall_s": statistics.median(walls),
            "item_p50_ms": statistics.median(item_ms),
            "item_tail_ms": tail_ms,
            "peak_rss_mb": rss_kib / 1024,
            "setup_s": (import_s + statistics.median(gen_samples)) / setup_slow,
        }
        units = END_TO_END
        print(f"item_p50_ms and item_tail_ms (p{tail_p}) over {len(items)} items, each item's "
              f"median over {len(plain)} passes; wall_s the median pass; setup_s raw "
              f"{import_s + statistics.median(gen_samples):.4f} s, probe slowdown {setup_slow:.3f}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")

    write_records(f"{args.workload}-seed{args.seed}-trace{args.trace}",
                  items, item_ms, plain, traced, docs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
