"""Differential tests of the JSON writer and of the payload builders.

``finalg.dump_json`` must return ``json.dumps(p, indent=2, sort_keys=True)
+ "\\n"`` byte for byte: on drawn payloads (strings with NUL, brackets,
commas and lone surrogates, wide ints, empty and ragged rows, lists that mix
scalars, rows and dicts, dicts with int keys) and on every JSON payload the
CLI snapshots record.  The builders ``_mat_to_json`` and
``_algebra_to_json`` walk each field once in sorted order; the references
below are the earlier sort-based builders, kept verbatim, and both must give
equal lists.  A guard pins that no other code writes indented JSON.
"""

from __future__ import annotations

import ast
import json
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

import conftest
import frobkit
from frobkit.exactlin import Mat, Vec, scalar_to_str
from frobkit.finalg import AlgebraData, _vec_to_json, dump_json
from frobkit.finalg import _algebra_to_json as new_algebra_to_json
from frobkit.finalg import _mat_to_json as new_mat_to_json
from frobkit.nsy import nsy_build, nsy_delta, sweep_params
from frobkit.whopf import (
    QTGInput,
    cyclic_group_table,
    groupoid_algebra,
    hopf_group_algebra,
    qtg_build,
    separable_matrix_algebra,
    trivial_action,
)

# ------------------------------------------------------------ reference builders


def _mat_to_json(m: Mat) -> list:
    return sorted([c, r, scalar_to_str(v)] for r, c, v in m.items())


def _algebra_to_json(a: AlgebraData) -> dict:
    """The "dim", "labels", "mult" and "unit" fields."""
    return {
        "dim": a.dim,
        "labels": list(a.labels),
        "mult": [
            [i, j, k, scalar_to_str(v)]
            for (i, j) in sorted(a.mult)
            for k, v in sorted(a.mult[(i, j)])
        ],
        "unit": _vec_to_json(a.unit),
    }


# ------------------------------------------------------------ the writer


def _reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


TRICKY_STRINGS = ["", "\x00", "\x01\x1f\x7f", '"', "\\", "[", "]", ",", "]\x00[", "[]",
                  "a\nb", "é", "日本", "\ud800", "\udfff", "\U0001f600", '],\n  ["']
strings = st.sampled_from(TRICKY_STRINGS) | st.text(
    st.characters(exclude_categories=()) | st.sampled_from("\x00[],\"\\"), max_size=8
)
ints = st.integers(-(2**130), 2**130) | st.sampled_from([0, -1, 2**63, -(2**64) - 1])
scalars = strings | ints | st.booleans() | st.none() | st.floats()
rows = st.lists(scalars, min_size=1, max_size=5)


def _containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(rows, max_size=5)
        | st.lists(st.lists(scalars, max_size=3), max_size=4)
        | st.lists(st.one_of(scalars, rows, st.dictionaries(strings, children, max_size=2)),
                   max_size=5)
        | st.dictionaries(strings, children, max_size=5)
        | st.dictionaries(st.integers(-5, 5), children, max_size=3)
    )


payloads = st.recursive(scalars | st.just([]) | st.just({}) | st.just([[]]), _containers,
                        max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_writer_matches_indented_dumps(payload):
    assert dump_json(payload) == _reference(payload)


def test_writer_on_fixed_shapes():
    for payload in (
        [["]\x00[", 1], ["a"], [None, True, False, -(2**70)]],
        {"cells": [[0, 1], [1, 0]], "labels": ["e0", "]\x00["]},
        [[1], [], [2]],
        [1, [2, 3], {"a": [4]}, []],
        {"a": {1: "x", 2: [[1]]}, "b": ({"c": 1},)},
        (1, [2]),
    ):
        assert dump_json(payload) == _reference(payload)


def test_writer_on_every_snapshot_payload():
    snapshots = json.loads(Path(__file__).with_name("cli_snapshots.json").read_text("utf-8"))
    seen = 0
    for case in snapshots.values():
        try:
            payload = json.loads(case["stdout"])
        except json.JSONDecodeError:
            continue
        assert dump_json(payload) == _reference(payload) == case["stdout"]
        seen += 1
    assert seen >= 40


# ------------------------------------------------------------ the builders


def _weak_hopf_zoo():
    zoo = [groupoid_algebra(g) for g in conftest.build_groupoid_fixture_set().values()]
    zoo += [hopf_group_algebra(cyclic_group_table(n)) for n in (1, 2, 3, 6)]
    zoo += [qtg_build(q) for q in conftest.build_qtg_instances().values()]
    L = hopf_group_algebra(cyclic_group_table(2))
    B, e, om = separable_matrix_algebra(2)
    zoo.append(qtg_build(QTGInput(L, B, e, om, trivial_action(B, L))))
    return zoo


def test_builders_match_reference_on_nsy_sweep():
    for p in sweep_params(3, 3, 2):
        algebra = nsy_build(p)
        assert new_algebra_to_json(algebra) == _algebra_to_json(algebra)
        delta = nsy_delta(p, algebra).delta
        assert new_mat_to_json(delta) == _mat_to_json(delta)


def test_builders_match_reference_on_weak_hopf_zoo():
    fractional = 0
    for h in _weak_hopf_zoo():
        assert new_algebra_to_json(h.algebra) == _algebra_to_json(h.algebra)
        for m in (h.delta_wk, h.antipode):
            assert new_mat_to_json(m) == _mat_to_json(m)
        fractional += any("/" in e[2] for e in _mat_to_json(h.delta_wk))
    assert fractional >= 4  # the QTGs, whose delta_wk entries are 1/2


def test_builders_match_reference_on_hand_built_mat():
    h = Fraction(1, 2)
    m = Mat(6, 4, [(5, 3, -3), (0, 3, h), (2, 0, h), (0, 0, -h), (4, 1, 7), (1, 1, 7),
                   (3, 0, Fraction(-5, 3)), (5, 0, 7), (2, 3, h), (1, 2, 2**70)])
    assert new_mat_to_json(m) == _mat_to_json(m)
    assert new_mat_to_json(m)[:3] == [[0, 0, "-1/2"], [0, 2, "1/2"], [0, 3, "-5/3"]]


def test_builders_match_reference_on_hand_built_algebra():
    """Products listed out of order, with terms stored out of order."""
    h = Fraction(1, 2)
    mult = {(2, 1): ((2, h), (0, -3)), (0, 2): ((1, h),),
            (1, 1): ((2, 1), (1, -h), (0, 2**70)), (0, 0): ((0, 1),)}
    a = AlgebraData(3, ["x", "]\x00[", "y"], mult, Vec(3, {2: h, 0: 1}))
    assert new_algebra_to_json(a) == _algebra_to_json(a)
    assert new_algebra_to_json(a)["mult"][:2] == [[0, 0, 0, "1"], [0, 2, 1, "1/2"]]


# ------------------------------------------------------------ guard


def test_indented_json_only_in_dump_json():
    """Indented JSON is written by one function, finalg.dump_json; the CLI
    and the weak-Hopf exporter import it."""
    root = Path(frobkit.__file__).parent
    writers, importers = [], set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        name = path.relative_to(root).as_posix()
        for fn in tree.body:  # module-level functions, nested ones included
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "dumps"
                    and any(k.arg == "indent" for k in node.keywords)
                ):
                    writers.append((name, getattr(fn, "name", None)))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(a.name == "dump_json" for a in node.names):
                importers.add(name)
    assert writers == [("finalg.py", "dump_json")]
    assert {"cli.py", "whopf/core.py"} <= importers
