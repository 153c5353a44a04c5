"""Output checks, run after the timed region.

Measures are compared with the 60-digit eig oracle of the test suite,
applied to each known factor of the input (the Mahler measure is additive
over products, by Gauss's lemma also for the cleared characteristic
polynomial of a rational matrix).  A dense matrix has one factor, its
characteristic polynomial as bench/workloads.py computes it, by
interpolated determinants rather than the package's algorithm; the exact
comparison with the reported `char_poly_primitive` checks the package's
polynomial too.  Trajectory counts are compared with the
closed form where one holds and with counts frozen from the package
otherwise.
"""

from __future__ import annotations

import json
import math

from workloads import FROZEN_COUNTS, TRAJECTORY_BUDGET, Item

TOL = 1e-9
# tau(n) = base**n for the scaled coordinate permutations (see FROZEN_COUNTS)
CLOSED_FORM = {"swap": 9, "cyclic": 27}


def expected_counts(system: str, n_max: int) -> tuple[list[int], int | None]:
    """(tau(1..L), budget_exhausted_at) for a run stopped by n_max or the budget."""
    if system in CLOSED_FORM:
        seq = [CLOSED_FORM[system] ** n for n in range(1, n_max + 1)]
    else:
        seq = FROZEN_COUNTS[system]
    counts = []
    for n in range(n_max):
        if n >= len(seq):
            raise LookupError(f"no frozen count for {system} at n={n + 1}")
        if seq[n] > TRAJECTORY_BUDGET:
            return counts, n + 1
        counts.append(seq[n])
    return counts, None


class Checker:
    """Checks one item's CLI result; oracle values are kept for the run."""

    def __init__(self):
        from algentropy.ratpoly import IntPoly
        from tests.oracles import mahler_oracle

        self._int_poly = IntPoly
        self._oracle = mahler_oracle
        self._factor_measure: dict[tuple[int, ...], float] = {}

    def expected_measure(self, factors) -> float:
        total = 0.0
        for f in factors:
            key = tuple(f)
            if key not in self._factor_measure:
                self._factor_measure[key] = self._oracle(self._int_poly(key))
            total += self._factor_measure[key]
        return total

    def check(self, item: Item, rc: int, stdout: str) -> str | None:
        """None when the output is right, else what is wrong with it."""
        if rc != 0:
            return f"exit code {rc}"
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        if not isinstance(doc, dict):
            return "output is not a JSON object"
        try:
            if item.expect["check"] == "measure":
                return self._check_measure(item.expect, doc)
            return self._check_trajectory(item.expect, doc)
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed output: {exc!r}"

    def _check_measure(self, expect: dict, doc: dict) -> str | None:
        want = self.expected_measure(expect["factors"])
        got = doc[expect["field"]]
        if not isinstance(got, float) or not abs(got - want) <= TOL:
            return f"{expect['field']} {got!r} != oracle {want!r}"
        if not isinstance(doc["certified"], bool):
            return "certified is not a boolean"
        if expect["field"] == "entropy":
            poly = [str(c) for c in expect["poly"]]
            if doc["char_poly_primitive"] != poly:
                return f"char_poly_primitive {doc['char_poly_primitive']} != {poly}"
            # Kronecker: measure 0 exactly for a monic product of cyclotomics;
            # any other integer polynomial of these degrees measures > 0.1
            zero = expect["poly"][-1] == 1 and want < 1e-6
            if doc["zero_entropy_exact"] is not zero:
                return f"zero_entropy_exact {doc['zero_entropy_exact']!r} != {zero!r}"
        return None

    def _check_trajectory(self, expect: dict, doc: dict) -> str | None:
        counts, exhausted = expected_counts(expect["system"], expect["n_max"])
        got = [int(c) for c in doc["counts"]]
        if got != counts:
            return f"counts {got} != {counts}"
        if doc["budget_exhausted_at"] != exhausted:
            return f"budget_exhausted_at {doc['budget_exhausted_at']!r} != {exhausted!r}"
        if doc["m"] != expect["m"]:
            return f"m {doc['m']!r} != {expect['m']!r}"
        if not abs(doc["formula_entropy"] - expect["entropy"]) <= TOL:
            return f"formula_entropy {doc['formula_entropy']!r} != {expect['entropy']!r}"
        h_inc = [math.log(c / p) for p, c in zip([1] + counts, counts)]
        if len(doc["h_inc"]) != len(counts) or any(
            not abs(a - b) <= TOL for a, b in zip(doc["h_inc"], h_inc)
        ):
            return "h_inc does not match the counts"
        return None
