import ast
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algentropy import cli, numtheory, padic, roots
from algentropy.entropy import algebraic_entropy, polynomial_entropy
from algentropy.linalg import RationalMatrix, char_poly, companion
from algentropy.mahler import mahler_measure
from algentropy.numtheory import is_prime
from algentropy.ratpoly import IntPoly, InvariantError
from algentropy.roots import CertificationError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entropy_matrix(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--matrix", '[["3/2"]]')
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["entropy"] - math.log(3)) < 1e-7
    assert doc["finite_places"] == [
        {"p": 2, "v_s": 1, "contribution": math.log(2)}
    ]
    assert doc["s"] == "2"
    assert doc["char_poly_primitive"] == ["-3", "2"]
    assert doc["certified"] is True and doc["zero_entropy_exact"] is False


def test_entropy_poly(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--poly", "[1,-5,6]")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["entropy"] - math.log(6)) < 1e-12
    assert doc["archimedean"] == 0.0
    assert [f["p"] for f in doc["finite_places"]] == [2, 3]


def test_entropy_identity_matrix(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--matrix", '[["1","0"],["0","1"]]')
    doc = json.loads(out)
    assert code == 0 and doc["entropy"] == 0.0 and doc["zero_entropy_exact"] is True


def test_mahler_command(capsys):
    code, out, _ = run_cli(capsys, "mahler", "--poly", "[-3,2]")
    doc = json.loads(out)
    assert code == 0 and abs(doc["value"] - math.log(3)) < 1e-12
    assert len(doc["roots"]) == 1


def test_polygon_command(capsys):
    code, out, _ = run_cli(capsys, "polygon", "--poly", "[1,-5,6]", "--pretty")
    doc = json.loads(out)
    assert code == 0
    assert doc["s"] == "6"
    assert [p["p"] for p in doc["primes"]] == [2, 3]
    assert doc["primes"][0]["segments"] == [
        {"slope": "0", "length": 1},
        {"slope": "1", "length": 1},
    ]
    assert doc["identity"]["pass"] is True


POLYGON_1_M5_6 = (
    '{"poly": ["1", "-5", "6"], "content": "1", "primitive": ["1", "-5", "6"], "s": "6", '
    '"primes": [{"p": 2, "points": [[0, 0], [1, 0], [2, 1]], "segments": [{"slope": "0", '
    '"length": 1}, {"slope": "1", "length": 1}], "contribution_exact": "1", '
    '"contribution": 0.6931471805599453, "v_s": 1}, {"p": 3, "points": [[0, 0], [1, 0], '
    '[2, 1]], "segments": [{"slope": "0", "length": 1}, {"slope": "1", "length": 1}], '
    '"contribution_exact": "1", "contribution": 1.0986122886681098, "v_s": 1}], '
    '"identity": {"pass": true, "log_gap": 0.0}}\n'
)


def test_polygon_builds_each_polygon_once(capsys, monkeypatch):
    calls = []
    real = padic.newton_polygon

    def counting(P, p):
        calls.append(p)
        return real(P, p)

    monkeypatch.setattr(padic, "newton_polygon", counting)
    code, out, _ = run_cli(capsys, "polygon", "--poly", "[1,-5,6]")
    assert code == 0 and calls == [2, 3]
    assert out == POLYGON_1_M5_6


def test_trajectory_command(capsys):
    code, out, _ = run_cli(
        capsys, "trajectory", "--matrix", '[["3/2"]]', "--m", "1", "--max-n", "10"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["counts"] == [str(3**n) for n in range(1, 11)]
    assert doc["classification"] == "Exponential"
    assert doc["gap"] < 1e-12
    assert doc["discrepancy"] is False
    assert doc["budget_exhausted_at"] is None


def test_trajectory_admissible_m_flag(capsys):
    code, out, _ = run_cli(
        capsys, "trajectory", "--matrix", '[["3/2"]]', "--m", "0", "--max-n", "5"
    )
    doc = json.loads(out)
    assert code == 0 and doc["m"] == 6


def test_classify_command(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--matrix", '[["0","-1"],["1","0"]]', "--m", "1",
        "--max-n", "20",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["classification"] == "Polynomial"
    assert doc["formula_entropy"] == 0.0 and doc["discrepancy"] is False


def test_classify_refuses_a_truncated_run_after_it(capsys):
    # the budget of 10 points stops the run at level 3: two levels, too few to classify
    code, out, err = run_cli(
        capsys, "classify", "--matrix", '[["2"]]', "--max-n", "6", "--budget", "10"
    )
    assert code == 2 and out == ""
    assert "needs at least 6 computed levels, got 2" in err


def test_input_file_and_flag_override(tmp_path, capsys):
    spec = {"matrix": [["2"]], "m": 1, "n_max": 4}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "trajectory", "--input", str(path))
    assert code == 0 and json.loads(out)["counts"] == ["3", "7", "15", "31"]
    code, out, _ = run_cli(capsys, "trajectory", "--input", str(path), "--max-n", "6")
    assert code == 0 and len(json.loads(out)["counts"]) == 6
    path.write_text(json.dumps({**spec, "n_max": " 5 "}))  # integer strings stay accepted
    code, out, _ = run_cli(capsys, "trajectory", "--input", str(path))
    assert code == 0 and len(json.loads(out)["counts"]) == 5


def test_spec_roundtrip():
    doc = {
        "matrix": [["3/2", "-1"], ["0", "7"]],
        "m": 2,
        "n_max": 9,
        "budget": 1000,
        "tolerance": 1e-10,
    }
    spec = cli.parse_spec(doc, "trajectory")
    assert [[str(e) for e in row] for row in spec.matrix.rows] == doc["matrix"]
    assert spec.poly is None
    assert (spec.m, spec.n_max, spec.budget, spec.tolerance) == (2, 9, 1000, 1e-10)
    spec = cli.parse_spec({"poly": ["1", "-5", "6"]}, "mahler")
    assert [str(c) for c in spec.poly.coeffs] == ["1", "-5", "6"]
    assert spec.matrix is None
    # options the command does not read keep their defaults
    matrix = cli.parse_spec(doc, "trajectory").matrix
    assert cli.parse_spec(doc, "entropy") == cli.InputSpec(matrix=matrix, tolerance=1e-10)
    assert cli.parse_spec({**doc, "poly": [1, 1]}, "polygon") == cli.InputSpec(poly=IntPoly([1, 1]))


# the document keys each computing subcommand reads, a valid document for
# it, and a valid value for each key's flag (--max-n for n_max)
READ_KEYS = {
    "entropy": ("matrix", "poly", "tolerance"),
    "mahler": ("poly", "tolerance"),
    "polygon": ("poly",),
    "trajectory": ("matrix", "m", "n_max", "budget", "tolerance"),
    "classify": ("matrix", "m", "n_max", "budget", "tolerance"),
}
VALID_DOCS = {
    "entropy": {"matrix": [["3/2"]]},
    "mahler": {"poly": [-3, 2]},
    "polygon": {"poly": [1, -5, 6]},
    "trajectory": {"matrix": [["2"]], "m": 1, "n_max": 6},
    "classify": {"matrix": [["2"]], "m": 1, "n_max": 6},
}
FLAG_VALUES = {
    "matrix": '[["2"]]', "poly": "[1,2]", "m": "1", "n_max": "6", "budget": "1000",
    "tolerance": "1e-3",
}


def _document(spec: cli.InputSpec) -> dict:
    """The input document of a parsed spec, sent through JSON text as the CLI reads it."""
    doc = {
        "m": spec.m,
        "n_max": spec.n_max,
        "budget": spec.budget,
        "tolerance": spec.tolerance,
    }
    if spec.matrix is not None:
        doc["matrix"] = [[str(e) for e in row] for row in spec.matrix.rows]
    else:
        doc["poly"] = [str(c) for c in spec.poly.coeffs]
    return json.loads(json.dumps(doc))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**400), 10**400) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_RATIONAL = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
_ENTRY = st.integers(-50, 50) | _RATIONAL.map(str) | _RATIONAL.map(lambda q: f" {q} ")
_OPTION = st.integers(-3, 10**6) | st.integers(-3, 10**6).map(str)
_FIELDS = ("matrix", "poly", "m", "n_max", "budget", "tolerance")


@st.composite
def _documents(draw):
    """Input documents: well-formed ones, and ones with an arbitrary JSON value in some field."""
    doc = {}
    if draw(st.booleans()):
        n = draw(st.integers(0, 3))
        doc["matrix"] = draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n))
    else:
        doc["poly"] = draw(st.lists(st.integers(-20, 20) | st.integers(-20, 20).map(str), min_size=1, max_size=6))
    for field in ("m", "n_max", "budget"):
        if draw(st.booleans()):
            doc[field] = draw(_OPTION)
    if draw(st.booleans()):
        doc["tolerance"] = draw(st.floats(1e-300, 1.0) | st.floats(1e-300, 1.0).map(repr))
    for field in draw(st.lists(st.sampled_from(_FIELDS), max_size=2, unique=True)):
        doc[field] = draw(_JSON)
    return doc


@settings(max_examples=300, deadline=None)
@given(_documents(), st.sampled_from(sorted(READ_KEYS)))
@example({"poly": [1, 2], "tolerance": 10**400}, "mahler")  # float() raises OverflowError
@example({"matrix": [["1/0"]], "m": "x"}, "trajectory")
def test_parse_spec_accepts_and_round_trips_or_raises_input_error(doc, command):
    # a malformed entry is an InputError (exit 2), never a bare ValueError,
    # TypeError or OverflowError, which main would report as a defect
    try:
        spec = cli.parse_spec(doc, command)
    except cli.InputError:
        return
    assert cli.parse_spec(_document(spec), command) == spec


def test_huge_integer_tolerance_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"poly": [1, 2], "tolerance": 10**400}))
    code, _, err = run_cli(capsys, "entropy", "--input", str(path))
    assert code == 2 and "tolerance" in err


def test_input_errors_exit_2(capsys, tmp_path):
    negative_m = tmp_path / "negative_m.json"
    negative_m.write_text(json.dumps({"matrix": [["2"]], "m": -2}))
    cases = [
        ("entropy", "--matrix", '[["1/0"]]'),
        ("entropy", "--matrix", '[["1","2"]]'),  # not square
        ("entropy", "--poly", "[1,2,0]"),  # zero leading coefficient
        ("entropy", "--poly", "[0.5,1]"),  # float coefficient
        ("mahler", "--poly", "[-3,2]", "--tolerance", "0"),
        ("mahler", "--poly", "[-3,2]", "--tolerance", "-1"),
        ("mahler", "--poly", "[-3,2]", "--tolerance", "inf"),
        ("mahler", "--poly", "[-3,2]", "--tolerance", "nan"),
        ("verify", "--suite", "oracle", "--count", "-1"),
        ("classify", "--matrix", '[["2"]]', "--m", "1", "--max-n", "5"),
        ("trajectory", "--matrix", '[["2"]]', "--m", "-2"),  # only 0 means admissible
        ("classify", "--matrix", '[["2"]]', "--m", "-1", "--max-n", "8"),
        ("trajectory", "--input", str(negative_m)),
    ]
    for command in ("trajectory", "classify"):
        cases += [
            (command, "--matrix", '[["2"]]', "--max-n", "0"),
            (command, "--matrix", '[["2"]]', "--m", "1", "--budget", "2"),  # grid size 3
        ]
    # options from a file: a bool or a float is refused, not truncated
    for i, options in enumerate(
        (
            {"tolerance": True},
            {"m": True},
            {"n_max": 6.9},
            {"budget": 1000.5},
            {"n_max": 6.9, "m": True, "budget": 1000.5},
        )
    ):
        path = tmp_path / f"option_{i}.json"
        path.write_text(json.dumps({"matrix": [["3/2"]], **options}))
        cases.append(("trajectory", "--input", str(path)))
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "error" in err


def test_precision_is_not_an_option(capsys, tmp_path):
    # the root ladder has no knob: a "precision" key is ignored like any
    # other unknown key, and the --precision flag is an argparse error
    path = tmp_path / "in.json"
    for command, doc in (
        ("mahler", {"poly": [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]}),
        ("entropy", {"matrix": [["3/2", "1"], ["0", "-1"]]}),
    ):
        path.write_text(json.dumps(doc))
        plain = run_cli(capsys, command, "--input", str(path))
        assert plain[0] == 0
        for precision in (64.0, "x"):
            path.write_text(json.dumps({**doc, "precision": precision}))
            assert run_cli(capsys, command, "--input", str(path)) == plain
    for argv in (
        ("mahler", "--poly", "[-3,2]", "--precision", "64"),
        ("entropy", "--poly", "[-3,2]", "--precision", "0"),
        ("entropy", "--matrix", '[["2"]]', "--precision", "-5"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        assert "--precision" in capsys.readouterr().err


def test_every_measure_starts_on_one_64_bit_rung(capsys, monkeypatch):
    rungs = []
    real = roots.solve_with_multiplicity

    def recording(P, prec, warm=None):
        rungs.append(prec)
        return real(P, prec, warm)

    monkeypatch.setattr(roots, "solve_with_multiplicity", recording)
    lehmer = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
    for argv in (
        ("mahler", "--poly", json.dumps(lehmer)),
        ("entropy", "--matrix", '[["3/2","1"],["0","-1"]]'),
    ):
        rungs.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert rungs == [64], argv
    rungs.clear()
    mahler_measure(IntPoly(lehmer))
    assert rungs == [64]


def test_both_matrix_and_poly_rejected():
    with pytest.raises(cli.InputError):
        cli.parse_spec({"matrix": [["1"]], "poly": ["1", "1"]}, "entropy")
    for command in READ_KEYS:
        with pytest.raises(cli.InputError):
            cli.parse_spec({}, command)
    # an input the subcommand does not read is no input for it
    with pytest.raises(cli.InputError, match="'matrix'"):
        cli.parse_spec({"poly": ["1", "1"]}, "trajectory")
    with pytest.raises(cli.InputError, match="'poly'"):
        cli.parse_spec({"matrix": [["1"]]}, "mahler")


def test_certification_failure_exit_3(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise CertificationError("forced for the exit-code contract")

    monkeypatch.setattr(cli, "mahler_measure", explode)
    code, out, _ = run_cli(capsys, "mahler", "--poly", "[-3,2]")
    assert code == 3
    doc = json.loads(out)
    assert doc == {"error": "forced for the exit-code contract", "certified": False, "roots": []}


LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]


def test_exit_3_emits_the_certified_roots(capsys):
    # cofactor roots 1 + 2^-5000 and 1 + 2^-4999 stay unresolved at the
    # 4096-bit cap; Lehmer's 10 roots certify, and so does the square-free
    # piece X - 3 of the cofactor: the document lists every certified factor
    big = 2**5000
    unresolved = IntPoly(LEHMER) * IntPoly([-big - 1, big]) * IntPoly([-big - 2, big])
    for extra, count, outside in ((IntPoly([1]), 10, 1), (IntPoly([9, -6, 1]), 11, 2)):
        poly = unresolved * extra
        code, out, _ = run_cli(capsys, "mahler", "--poly", json.dumps([str(c) for c in poly.coeffs]))
        assert code == 3
        doc = json.loads(out)
        assert doc["certified"] is False and "4096 bits" in doc["error"]
        roots = doc["roots"]
        assert len(roots) == count and sum(r["multiplicity"] for r in roots) == extra.degree + 10
        for r in roots:
            z = complex(r["re"], r["im"])
            assert abs(IntPoly(LEHMER).evaluate(z)) < 1e-9 or (abs(z - 3) < 1e-9 and r["multiplicity"] == 2)
        assert sum(r["mod_lo"] > 1 for r in roots) == outside
        assert sum(r["mod_lo"] <= 1 <= r["mod_hi"] for r in roots) == 8


def test_cofactor_root_next_to_the_circle_is_certified(capsys):
    # the root 1 + 10^-1300 is off the circle, but no rung up to the 4096-bit
    # cap separates its disc from it; its log+ (about 1e-1300) lies within
    # the proven budget on the first rung
    poly = json.dumps([str(10**1300 + 1), str(-(10**1300))])
    code, out, _ = run_cli(capsys, "mahler", "--poly", poly)
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is True and doc["value"] == doc["log_lead"]
    assert doc["value"] == pytest.approx(1300 * math.log(10), rel=1e-15)
    assert "assumed_roots" not in doc


def test_invariant_failure_exit_5(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantError("forced for the exit-code contract")

    monkeypatch.setattr(cli, "polynomial_entropy", broken)
    code, out, err = run_cli(capsys, "entropy", "--poly", "[-3,2]")
    assert code == 5 and out == ""
    assert err.startswith("internal error: forced")


def test_input_checks_keep_valid_edge_inputs(capsys):
    code, out, _ = run_cli(capsys, "polygon", "--poly", "[5]")
    assert code == 0 and json.loads(out)["content"] == "5"
    # Q^0 has characteristic polynomial 1, and a constant c measures log|c|
    empty = run_cli(capsys, "entropy", "--matrix", "[]")
    assert empty[0] == 0 and json.loads(empty[1])["entropy"] == 0.0
    assert run_cli(capsys, "entropy", "--poly", "[5]") == empty
    code, out, _ = run_cli(capsys, "mahler", "--poly", "[5]")
    doc = json.loads(out)
    assert code == 0 and doc["value"] == math.log(5) and doc["roots"] == []
    code, out, _ = run_cli(capsys, "trajectory", "--matrix", "[]", "--max-n", "8")
    assert code == 0 and json.loads(out)["counts"] == ["1"] * 8
    code, out, _ = run_cli(capsys, "classify", "--matrix", "[]")
    doc = json.loads(out)
    assert code == 0 and doc["classification"] == "Polynomial" and doc["discrepancy"] is False


@pytest.mark.parametrize("order", [0, 1])
def test_two_inline_inputs_exit_2(capsys, tmp_path, order):
    # two inline inputs are two inputs, in either order: neither replaces the other
    flags = [("--matrix", '[["2"]]'), ("--poly", "[1,3]")]
    argv = [arg for flag in flags[order:] + flags[:order] for arg in flag]
    code, out, err = run_cli(capsys, "entropy", *argv)
    assert code == 2 and out == "" and "exactly one" in err
    # one inline input still replaces the file's, whichever it holds
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"matrix": [["5"]]}))
    code, out, _ = run_cli(capsys, "entropy", "--input", str(path), *flags[order])
    assert code == 0 and math.isclose(json.loads(out)["entropy"], math.log(2 + order))


def test_library_value_error_exit_5(capsys, monkeypatch):
    # input checks raise InputError, so a ValueError from the library is a defect
    def broken(*args, **kwargs):
        raise ValueError("forced for the exit-code contract")

    monkeypatch.setattr(cli, "trajectory_counts", broken)
    code, out, err = run_cli(capsys, "trajectory", "--matrix", '[["2"]]', "--m", "1")
    assert code == 5 and out == ""
    assert err.startswith("internal error: forced")


def test_composite_past_psi_12_is_not_a_place(capsys):
    # 3317044064679887385961981 passes Miller-Rabin for the first twelve prime bases
    psi_12, p, q = 3317044064679887385961981, 1287836182261, 2575672364521
    code, out, _ = run_cli(capsys, "polygon", "--poly", f"[1, {psi_12}]")
    doc = json.loads(out)
    assert code == 0 and doc["identity"]["pass"] is True
    assert [(f["p"], f["v_s"]) for f in doc["primes"]] == [(p, 1), (q, 1)]
    total = sum(f["contribution"] for f in doc["primes"])
    assert math.isclose(total, math.log(psi_12), rel_tol=1e-15)


def test_seed_only_on_verify(capsys):
    with pytest.raises(SystemExit):
        cli.main(["entropy", "--poly", "[-3,2]", "--seed", "1"])
    with pytest.raises(SystemExit):
        cli.main(["verify", "--suite", "oracle", "--pretty"])
    capsys.readouterr()


def test_partitions_option_is_gone(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["trajectory", "--matrix", '[["2"]]', "--m", "1", "--partitions", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    # in an input file the key is ignored like any other unknown key
    spec = {"matrix": [["2"]], "m": 1, "n_max": 6}
    outs = []
    for doc in (spec, {**spec, "partitions": 8}):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "trajectory", "--input", str(path))
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]


def _flag(key: str) -> str:
    return "--max-n" if key == "n_max" else f"--{key}"


def test_each_subcommand_has_a_flag_for_each_key_it_reads_and_no_other(capsys, tmp_path):
    assert sorted(READ_KEYS) == sorted(cli._READS)
    path = tmp_path / "in.json"
    for command, doc in VALID_DOCS.items():
        path.write_text(json.dumps(doc))
        for key, value in FLAG_VALUES.items():
            argv = [command, "--input", str(path), _flag(key), value]
            if key in READ_KEYS[command]:
                assert run_cli(capsys, *argv)[0] == 0, argv
                continue
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
            assert f"unrecognized arguments: {_flag(key)}" in capsys.readouterr().err


def test_each_subcommand_ignores_the_keys_it_does_not_read(capsys, tmp_path):
    # a junk value under a key the subcommand does not read leaves its exit
    # code and output byte-identical; under a key it reads, it exits 2
    path = tmp_path / "in.json"
    for command, doc in VALID_DOCS.items():
        path.write_text(json.dumps(doc))
        plain = run_cli(capsys, command, "--input", str(path))
        assert plain[0] == 0 and plain[2] == ""
        for key in FLAG_VALUES:
            path.write_text(json.dumps({**doc, key: "x"}))
            code, out, err = run_cli(capsys, command, "--input", str(path))
            if key in READ_KEYS[command]:
                assert code == 2 and out == "" and "input error" in err, (command, key)
            else:
                assert (code, out, err) == plain, (command, key)


def test_classify_refuses_too_few_levels_before_it_runs(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("classify ran a trajectory too short to classify")

    monkeypatch.setattr(cli, "trajectory_counts", unreachable)
    code, out, err = run_cli(
        capsys, "classify", "--matrix", '[["0","-1/6"],["1","5/6"]]', "--m", "18", "--max-n", "5"
    )
    assert code == 2 and out == "" and "n_max >= 6" in err


def test_polygon_identity_failure_exit_4(capsys, monkeypatch):
    # a wrong exponent of s = 6: the polygon mass at 2 is 1, not the claimed 2
    monkeypatch.setattr(padic, "factorize", lambda s: {2: 2, 3: 1})
    code, out, _ = run_cli(capsys, "polygon", "--poly", "[1,-5,6]")
    doc = json.loads(out)
    assert code == 4 and doc["identity"]["pass"] is False
    assert [(f["p"], f["v_s"]) for f in doc["primes"]] == [(2, 2), (3, 1)]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=1, max_size=8), st.integers(1, 12))
def test_entropy_poly_matches_companion_matrix(lower, lead):
    f = IntPoly(lower + [lead]).primitive_part()
    by_poly = io.StringIO()
    by_matrix = io.StringIO()
    with contextlib.redirect_stdout(by_poly):
        assert cli.main(["entropy", "--poly", json.dumps(list(f.coeffs))]) == 0
    rows = [[str(e) for e in row] for row in companion(f).rows]
    with contextlib.redirect_stdout(by_matrix):
        assert cli.main(["entropy", "--matrix", json.dumps(rows)]) == 0
    assert by_poly.getvalue() == by_matrix.getvalue()


def _square_matrices(max_dim):
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    return st.integers(0, max_dim).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    ).map(RationalMatrix)


@settings(max_examples=30, deadline=None)
@given(_square_matrices(4))
@example(RationalMatrix([]))
def test_entropy_poly_of_the_char_poly_matches_the_matrix(M):
    # one entropy path: Q^0 included, where the characteristic polynomial is 1
    report = algebraic_entropy(M)
    assert polynomial_entropy(char_poly(M)) == report
    rows = json.dumps([[str(e) for e in row] for row in M.rows])
    by_matrix, by_poly = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(by_matrix):
        assert cli.main(["entropy", "--matrix", rows]) == 0
    printed = json.loads(by_matrix.getvalue())["char_poly_primitive"]
    with contextlib.redirect_stdout(by_poly):
        assert cli.main(["entropy", "--poly", json.dumps(printed)]) == 0
    assert by_poly.getvalue() == by_matrix.getvalue()


def test_verify_command(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "place-identity", "--seed", "7", "--count", "20"
    )
    assert code == 0
    assert "SUITE place-identity: 20/20 passed" in out

    for suite in ("no-such-suite", "norms"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", suite])
        assert exc.value.code == 2 and f"invalid choice: '{suite}'" in capsys.readouterr().err


# frozen from the suites' output: a (suite, seed, count) triple prints the
# same checks, so the RNG draws keep their order
VERIFY_PLACE_IDENTITY_7_5 = """\
ok  place-identity/0 s=375 primes=[3, 5]
ok  place-identity/1 s=39 primes=[3, 13]
ok  place-identity/2 s=247 primes=[13, 19]
ok  place-identity/3 s=847 primes=[7, 11]
ok  place-identity/4 s=591 primes=[3, 197]
SUITE place-identity: 5/5 passed
"""
VERIFY_KRONECKER_8_6 = """\
ok  kronecker/cyclotomic/0 claimed=True measure=0.000e+00
ok  kronecker/cyclotomic/1 claimed=True measure=0.000e+00
ok  kronecker/cyclotomic/2 claimed=True measure=0.000e+00
ok  kronecker/other/0 claimed=False measure=1.624e-01
ok  kronecker/other/1 claimed=False measure=2.197e+00
ok  kronecker/other/2 claimed=False measure=1.609e+00
SUITE kronecker: 6/6 passed
"""


def test_verify_suites_are_reproducible(capsys):
    for suite, seed, count, expected in (
        ("place-identity", "7", "5", VERIFY_PLACE_IDENTITY_7_5),
        ("kronecker", "8", "6", VERIFY_KRONECKER_8_6),
    ):
        code, out, err = run_cli(
            capsys, "verify", "--suite", suite, "--seed", seed, "--count", count
        )
        assert (code, out, err) == (0, expected, ""), suite


def test_verify_failure_exit_4(capsys, monkeypatch):
    from algentropy import verify as verify_mod

    def broken(name, seed=0, count=None):
        return verify_mod.SuiteResult(
            suite=name, checks=(verify_mod.Check("forced", False, "boom"),)
        )

    monkeypatch.setattr(cli, "run_suite", broken)
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle")
    assert code == 4 and "FAIL forced" in out


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    code, pretty, _ = run_cli(capsys, "mahler", "--poly", "[-3,2]", "--pretty")
    assert code == 0 and "\n  " in pretty
    # the reused parser starts every call from its defaults: --pretty does not carry over
    code, plain, _ = run_cli(capsys, "mahler", "--poly", "[-3,2]")
    assert code == 0 and plain.count("\n") == 1
    assert json.loads(plain) == json.loads(pretty)
    assert len(built) == 1


def _main_quiet(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


_ENTRY_TEXT = st.text(alphabet="0123456789+-/._eE ", max_size=14) | st.text(max_size=6)


@settings(max_examples=300, deadline=None)
@given(_ENTRY_TEXT)
@example("0.5")
@example("1_000")
@example(" -12/8 ")
@example("9" * 1000)
@example("1/" + "9" * 1001)
@example("1e99999")  # exponent notation, refused before it is expanded
def test_matrix_entry_strings_parse_or_exit_2(entry):
    # an entry is "a/b" or "a" in ASCII digits with at most 1000 digits each,
    # and anything else exits 2; a parsed entry q gives char poly b*X - a
    code, out = _main_quiet(["entropy", "--matrix", json.dumps([[entry]])])
    match = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", entry.strip())
    parts = [int(g) for g in match.groups(default="1")] if match else None
    if parts and parts[1] and max(len(str(abs(g))) for g in parts) <= 1000:
        q = Fraction(*parts)
        assert code == 0 and json.loads(out)["char_poly_primitive"] == [
            str(-q.numerator),
            str(q.denominator),
        ]
    else:
        assert code == 2 and out == ""


@settings(max_examples=300, deadline=None)
@given(_ENTRY_TEXT)
@example("1_0")
@example("\u0663")  # ARABIC-INDIC DIGIT THREE, which int() reads as 3
@example(" +12 ")
@example("-0")
@example("1/1")
@example("9" * 1000)
@example("0\x1f")  # str.strip() drops U+001C-U+001F, int() does not
def test_integer_strings_parse_or_exit_2(text):
    # a polynomial coefficient or an option is an optional sign and ASCII
    # digits, as a matrix entry is without the slash; anything else exits 2
    code, out = _main_quiet(["entropy", "--poly", json.dumps([text, "1"])])
    doc = {"matrix": [["2"]], "n_max": text}
    if re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        assert code == 0 and json.loads(out)["char_poly_primitive"] == [str(int(text.strip())), "1"]
        assert cli.parse_spec(doc, "trajectory").n_max == int(text.strip())
    else:
        assert code == 2 and out == ""
        with pytest.raises(cli.InputError):
            cli.parse_spec(doc, "trajectory")


def test_huge_exponent_entry_exits_2_quickly():
    # Fraction("1e9999999") builds a ten-million-digit integer
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "algentropy.cli", "entropy", "--matrix", '[["1e9999999"]]'],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 2 and "1e9999999" in done.stderr and done.stdout == ""


def test_integers_past_the_str_digit_limit(capsys, tmp_path):
    # a JSON integer past Python's 4300-digit limit is an input error, not a defect
    nines = "9" * 5000
    code, out, err = run_cli(capsys, "entropy", "--poly", f"[1, {nines}]")
    assert code == 2 and out == "" and "--poly" in err
    path = tmp_path / "in.json"
    path.write_text(f'{{"matrix": [[{nines}]]}}')
    code, out, err = run_cli(capsys, "entropy", "--input", str(path))
    assert code == 2 and out == "" and "input file" in err
    code, out, _ = run_cli(capsys, "entropy", "--matrix", '[["1e99999"]]')
    assert code == 2 and out == ""
    # a result past the limit is written in full: (X - a)^5 for a 1000-digit a
    a = 10**999 + 7
    rows = [[str(a) if i == j else "0" for j in range(5)] for i in range(5)]
    code, out, _ = run_cli(capsys, "entropy", "--matrix", json.dumps(rows))
    assert code == 0
    expected = [math.comb(5, k) * (-a) ** (5 - k) for k in range(6)]
    assert [Decimal(c) for c in json.loads(out)["char_poly_primitive"]] == expected


def test_wide_trajectory_levels_count_under_python_O():
    # level 3 passes 2^62 keys: with 1/46351 it runs on value tables, with
    # 1/(2^31 - 1), whose axes pass 2^62 as well, on Python ints
    src = Path(cli.__file__).resolve().parents[1]
    for p in (46351, 2**31 - 1):
        done = subprocess.run(
            [sys.executable, "-O", "-m", "algentropy.cli", "trajectory",
             "--matrix", f'[["0","1/{p}"],["1/{p}","0"]]', "--max-n", "3"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["counts"] == ["9", "81", "729"]


def test_unfactorable_clearing_integer_exits_2():
    # s = pq with two 21-digit primes: Pollard rho runs out of its budget
    p, q = 10**20 + 39, 10**20 + 129
    assert is_prime(p) and is_prime(q)
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "algentropy.cli", "entropy", "--matrix", f'[["1/{p * q}"]]'],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 2 and done.stdout == ""
    assert "cannot factor a 41-digit integer" in done.stderr


def test_every_factorizing_subcommand_maps_an_exhausted_rho_to_exit_2(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the trajectory ran before its support was factored")

    monkeypatch.setattr(numtheory, "_RHO_BUDGET", 2**10)
    monkeypatch.setattr(cli, "trajectory_counts", unreachable)
    n = (2**31 - 1) * (2**61 - 1)
    for argv in (
        ("polygon", "--poly", f"[1, {n}]"),
        ("trajectory", "--matrix", f'[["1/{n}"]]', "--max-n", "2"),
        ("classify", "--matrix", f'[["1/{n}"]]'),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "cannot factor a 28-digit integer" in err, argv


def test_package_has_no_assert_statement():
    # python -O strips assert: the package's invariants raise named errors
    package = Path(cli.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_prime_power_clearing_integer(capsys):
    q = 2**61 - 1
    code, out, _ = run_cli(capsys, "entropy", "--matrix", f'[["1/{q**2}"]]')
    doc = json.loads(out)
    assert code == 0 and doc["s"] == str(q**2)
    assert [(f["p"], f["v_s"]) for f in doc["finite_places"]] == [(q, 2)]


_NINES = "9" * 1000  # 10^1000 - 1, the largest numerator an entry may have


@pytest.mark.parametrize(
    "entry, pair",
    [
        ("4/6", (2, 3)),
        ("-0", (0, 1)),
        ("+3", (3, 1)),
        (" 1", (1, 1)),
        pytest.param(_NINES, (10**1000 - 1, 1), id="10^1000-1"),
        # 1001 digits, reduced below the limit
        pytest.param(f"{3 * (10**1000 - 1)}/3", (10**1000 - 1, 1), id="3(10^1000-1)/3"),
        pytest.param("1" + "0" * 1000, None, id="10^1000"),
        ("1/0", None),
        ("0.5", None),
        ("1e9", None),
        ("1_000", None),
        ("\u0663", None),  # ARABIC-INDIC DIGIT THREE, which int() reads as 3
        ("3/-2", None),
        ("", None),
        (True, None),
        (1.5, None),
    ],
)
def test_matrix_entries_parse_to_reduced_pairs(capsys, entry, pair):
    # an entry parses to the reduced pair (a, b), b > 0, of the Fraction it
    # gave before, under the same 1000-digit limit; anything else exits 2
    code, out, _ = run_cli(capsys, "entropy", "--matrix", json.dumps([[entry]]))
    if pair is None:
        assert code == 2 and out == ""
        with pytest.raises(cli.InputError):
            cli._parse_entry(entry)
    else:
        a, b = pair
        assert cli._parse_entry(entry) == pair
        assert code == 0 and json.loads(out)["char_poly_primitive"] == [str(-a), str(b)]


def test_no_fraction_from_parse_to_char_poly():
    built = []
    new = Fraction.__new__.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is new:
            built.append(frame)

    def run():
        sys.setprofile(profile)
        try:
            spec = cli.parse_spec({"matrix": [["4/6", "-1/3"], ["0", "7/2"]]}, "entropy")
            return char_poly(spec.matrix)
        finally:
            sys.setprofile(None)

    assert run() == IntPoly([14, -25, 6]) and built == []
    sys.setprofile(profile)
    Fraction(4, 6)  # the profile sees a Fraction built
    sys.setprofile(None)
    assert len(built) == 1
