"""The benchmark's tracer still finds every package function it wraps.

`bench/run.py --trace 1` wraps the functions named in `run.TRACED` and hooks
the methods named in `run.HOOKS`, by name, from outside the package.  The
benchmark's own tests are not part of this suite, so a rename in `src/`
that breaks the tracer is caught here instead.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import algentropy.cli as cli
from algentropy import trajectory

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _bindings():
    snapshot = {}
    for name, mod in list(sys.modules.items()):
        if name == "algentropy" or name.startswith("algentropy."):
            snapshot.update(((name, attr), value) for attr, value in vars(mod).items())
    for cls in (trajectory._PackedState, trajectory._ExactState):
        snapshot.update(((cls.__name__, attr), value) for attr, value in vars(cls).items())
    return snapshot


def test_bench_tracer_counts_both_trajectory_backends(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports hostspeed
    run, tracer_mod = _load(monkeypatch, "run"), _load(monkeypatch, "tracer")
    before = _bindings()
    tracer = tracer_mod.Tracer(run.TRACED, run.HOOKS)
    with tracer.installed():
        assert cli.main(["mahler", "--poly", "[-3,2]"]) == 0
        # char poly (X - 3/2)(X + 1): clearing, the split, Phi_2 and Yun all run
        assert cli.main(["entropy", "--matrix", '[["3/2","1"],["0","-1"]]']) == 0
        # both are prime; with 1/46351 level 2 runs on int64 keys and level
        # 3 on value tables, with 1/(2^31 - 1) level 2 on value tables and
        # level 3, whose axes are past 2^62 wide, on Python ints
        for p in (46351, 2**31 - 1):
            swap = f'[["0","1/{p}"],["1/{p}","0"]]'
            assert cli.main(["trajectory", "--matrix", swap, "--max-n", "3"]) == 0
    capsys.readouterr()
    counted = {}
    for span in tracer.spans:
        for key, value in span.counters.items():
            counted[key] = counted.get(key, 0) + value
    # the big-int hook counts every level past 2^62 keys, on value tables
    # and on Python ints alike: 1/46351 runs one such level, 1/(2^31 - 1) two
    assert counted["packed_levels"] == 1 and counted["bigint_levels"] == 3
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "mahler.mahler_measure", "trajectory.trajectory_counts"} <= names
    assert {
        "linalg.char_poly",
        "ratpoly.primitivize",
        "ratpoly.poly_gcd",
        "ratpoly.squarefree_decomposition",
        "mahler.split_unit_circle",
        "mahler.extract_cyclotomic",
    } <= names
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_cli_import_leaves_numpy_out_and_the_tracer_installs():
    # a fresh process, as in a one-shot CLI call: numpy is left for the
    # trajectory oracle to load, but algentropy.trajectory itself is
    # imported, since the tracer looks up its backends by name
    code = (
        "import sys, algentropy.cli\n"
        "assert 'numpy' not in sys.modules and 'algentropy.trajectory' in sys.modules\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import run, tracer\n"
        "t = tracer.Tracer(run.TRACED, run.HOOKS)\n"
        "t.install()\n"
        "t.uninstall()\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
