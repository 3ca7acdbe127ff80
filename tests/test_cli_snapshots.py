"""CLI output pinned case by case: exit code, stdout and stderr of every report
command, in the default format and with --format json, csv and markdown.

Input files are written under a temporary directory; its path is written as
<tmp> in the case arguments and in the recorded output.  After a deliberate
output change, rewrite the data file with

    PYTHONPATH=src python tests/test_cli_snapshots.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from frobkit.cli import main
from frobkit.exactlin import scalar_from_str, scalar_to_str
from frobkit.whopf import (
    QTGInput,
    cyclic_group_table,
    groupoid_algebra,
    hopf_group_algebra,
    pair_groupoid,
    qtg_build,
    separable_group_algebra,
    trivial_action,
    weak_hopf_to_json,
)

SNAPSHOT_FILE = Path(__file__).with_name("cli_snapshots.json")

FORMATS = ((), ("--format", "json"), ("--format", "csv"), ("--format", "markdown"))

# Frobenius and non-counital NSY algebras, dims 4 to 17
NSY_PARAMS = (
    "n=2 ell=2 m=1,1",
    "n=2 ell=2 m=2,1",
    "n=3 ell=2 m=1,1,2",
    "n=3 ell=3 m=2,2,2",
    "n=4 ell=3 m=1,1,2,2",
)

WHOPF_SOURCES = (
    "groupoid --pair-objects 2",
    "groupoid --objects 2 --group cyclic:2",
    "group --cyclic 3",
    "qtg --L trivial --B matrix:2",
    "qtg --L cyclic:2 --B cyclic:2",
)

WHOPF_OPS = ("check", "integrals", "frobenius")


def _nsy_file(params: str, corrupt=None):
    def write(path: Path) -> None:
        code = main(["nsy", "build", *params.split(), "--output", str(path)])
        assert code == 0
        if corrupt is not None:
            payload = json.loads(path.read_text())
            corrupt(payload)
            path.write_text(json.dumps(payload))

    return write


def _scale_first_delta(payload):
    payload["delta"][0][2] = "2"


def _set_counit(counit):
    def corrupt(payload):
        payload["counit"] = counit

    return corrupt


def _retarget_first_mult(payload):
    # keeps the table monomial, breaks associativity
    entry = payload["mult"][0]
    entry[2] = (entry[2] + 1) % payload["dim"]


def _pair2_file(drop_morphism_delta: bool):
    def write(path: Path) -> None:
        payload = weak_hopf_to_json(groupoid_algebra(pair_groupoid(2)))
        if drop_morphism_delta:
            # Delta(m0_1) = 0 fails the weak Hopf counit axioms, so integrals
            # and frobenius stop at the check
            payload["delta_wk"] = [e for e in payload["delta_wk"] if e[0] != 1]
        path.write_text(json.dumps(payload))

    return write


def _shift_first(field: str, by: Fraction):
    def corrupt(payload):
        entry = payload[field][0]
        entry[-1] = scalar_to_str(scalar_from_str(entry[-1]) + by)

    return corrupt


def _drop_first(field: str):
    def corrupt(payload):
        del payload[field][0]

    return corrupt


def _qtg_file(corrupt):
    """The QTG over L = B = kZ/2, whose Delta carries 1/2, with one field
    corrupted, so witnesses are rescaled from n Delta."""

    def write(path: Path) -> None:
        L = hopf_group_algebra(cyclic_group_table(2))
        B, e, omega = separable_group_algebra(cyclic_group_table(2))
        payload = weak_hopf_to_json(qtg_build(QTGInput(L, B, e, omega, trivial_action(B, L))))
        corrupt(payload)
        path.write_text(json.dumps(payload))

    return write


def _non_associative_file(path: Path) -> None:
    """k x k with e1 e1 = e0 + e1 and 1 = e0 + e1 (neither associative nor
    unital) and the zero Delta, which passes every coalgebra check."""
    payload = {
        "dim": 2,
        "labels": ["e0", "e1"],
        "mult": [[0, 0, 0, "1"], [1, 1, 0, "1"], [1, 1, 1, "1"]],
        "unit": [[0, "1"], [1, "1"]],
        "delta": [],
    }
    path.write_text(json.dumps(payload))


INPUT_FILES = {
    "frobenius": _nsy_file("n=2 ell=2 m=1,1"),
    "non_counital": _nsy_file("n=3 ell=2 m=1,1,2"),
    "bad_delta": _nsy_file("n=2 ell=2 m=1,1", _scale_first_delta),
    "bad_mult": _nsy_file("n=2 ell=2 m=2,1", _retarget_first_mult),
    # verify compares a supplied counit with the solved one
    "wrong_counit": _nsy_file("n=2 ell=2 m=1,1", _set_counit([[0, "5"]])),
    "non_counital_counit": _nsy_file("n=2 ell=2 m=2,1", _set_counit([[1, "1"], [4, "1"]])),
    "pair2": _pair2_file(False),
    "pair2_degenerate": _pair2_file(True),
    "non_associative": _non_associative_file,
    "qtg_delta": _qtg_file(_shift_first("delta_wk", Fraction(1, 5))),
    "qtg_antipode": _qtg_file(_drop_first("antipode")),
    "qtg_epsilon": _qtg_file(_shift_first("epsilon_wk", Fraction(1, 3))),
}


def _cases() -> dict[str, list[str]]:
    commands = []
    for params in NSY_PARAMS:
        for action in ("check", "counit", "table", "delta"):
            commands.append(["nsy", action, *params.split()])
    commands.append(["nsy", "sweep", "nmax=2", "lmax=2", "mmax=2"])
    for source in WHOPF_SOURCES:
        for op in WHOPF_OPS:
            commands.append(["whopf", *source.split(), op])
    for name in ("frobenius", "non_counital", "bad_delta", "bad_mult", "non_associative"):
        commands.append(["verify", f"<tmp>/{name}.json"])
    for op in WHOPF_OPS:
        commands.append(["whopf", "<tmp>/pair2.json", op])
    commands.append(["whopf", "check", "<tmp>/pair2.json"])
    commands.append(["whopf", "<tmp>/pair2_degenerate.json", "frobenius"])
    cases = [cmd + list(fmt) for cmd in commands for fmt in FORMATS]
    for name in ("wrong_counit", "non_counital_counit"):
        cases.append(["verify", f"<tmp>/{name}.json"])
    for name in ("qtg_delta", "qtg_antipode", "qtg_epsilon"):
        for fmt in ("markdown", "json"):
            cases.append(["whopf", "check", f"<tmp>/{name}.json", "--format", fmt])
    cases.append(
        ["whopf", "check", "<tmp>/pair2_degenerate.json", "--output", "<tmp>/pair2_degenerate.out"]
    )
    cases.append(["nsy", "check", "n=2", "ell=2", "m=1,1", "--format", "bogus"])
    cases.append(["whopf", "qtg", "--L", "trivial", "--B", "matrix:2", "--format", "bogus"])
    return {" ".join(argv): argv for argv in cases}


CASES = _cases()


def _write_inputs(root: Path) -> None:
    for name, write in INPUT_FILES.items():
        write(root / f"{name}.json")


def _run(argv: list[str], root: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("<tmp>", str(root)) for a in argv])
    return {
        "exit": code,
        "stdout": out.getvalue().replace(str(root), "<tmp>"),
        "stderr": err.getvalue().replace(str(root), "<tmp>"),
    }


@pytest.fixture(scope="module")
def snapshots():
    return json.loads(SNAPSHOT_FILE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("snapshot_inputs")
    _write_inputs(root)
    return root


def test_snapshot_file_covers_every_case(snapshots):
    assert sorted(snapshots) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_snapshot(case, inputs, snapshots):
    assert _run(CASES[case], inputs) == snapshots[case]


def _regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_inputs(root)
        snapshots = {case: _run(argv, root) for case, argv in sorted(CASES.items())}
    SNAPSHOT_FILE.write_text(
        json.dumps(snapshots, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(snapshots)} cases to {SNAPSHOT_FILE}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
