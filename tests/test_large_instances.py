"""The larger instances ROADMAP.md times, run end to end through the CLI: the
dim-900 NSY algebra, the quantum transformation groupoids of dim 256 (check)
and of dim 81 and 162 (frobenius, which cross-checks the closed form),
k[Z/120] and k[Z/400] (frobenius) and the groupoid algebras of dim 576, 192
and 1,600 (check).  Each must exit 0 with every check line [PASS] and, where
the command classifies, the expected classification.  The dim-900
``nsy build`` output must be the indented JSON of its payload.  No timing is
asserted.
"""

import json

import pytest

from frobkit import __version__
from frobkit.cli import main

pytestmark = pytest.mark.slow

WEAK_HOPF_CHECKS = 15  # every line of check_weak_hopf's report


def _qtg_matrix3_frobenius_tail(one: str) -> list[str]:
    """eps(a (x) l (x) b) = w(a) lam(l) w(b) with w = 3 trace on M_3."""
    terms = [f"9*E[{i},{i}](x){one}(x)E[{j},{j}]" for i in range(3) for j in range(3)]
    return [
        "classification: Frobenius",
        f"counit: {' + '.join(terms)}",
        "closed-form comultiplication verified against the integral construction",
        f"frobkit {__version__}, seed 271828",
    ]


@pytest.mark.parametrize(
    "argv, checks, tail",
    [
        ("nsy check n=6 ell=6 m=5,5,5,5,5,5", 7, ["classification: Frobenius"]),
        ("whopf qtg --L trivial --B matrix:4 check", WEAK_HOPF_CHECKS, []),
        (
            "whopf group --cyclic 120 frobenius",
            3,
            ["classification: Frobenius", "counit: g0", f"frobkit {__version__}, seed 271828"],
        ),
        (
            "whopf group --cyclic 400 frobenius",
            3,
            ["classification: Frobenius", "counit: g0", f"frobkit {__version__}, seed 271828"],
        ),
        ("whopf groupoid --pair-objects 24 check", WEAK_HOPF_CHECKS, []),
        ("whopf groupoid --pair-objects 40 check", WEAK_HOPF_CHECKS, []),
        ("whopf groupoid --objects 4 --group cyclic:12 check", WEAK_HOPF_CHECKS, []),
        ("whopf qtg --L trivial --B matrix:3 frobenius", 3, _qtg_matrix3_frobenius_tail("1")),
        ("whopf qtg --L cyclic:2 --B matrix:3 frobenius", 3, _qtg_matrix3_frobenius_tail("g0")),
    ],
    ids=["nsy_900", "qtg_matrix4_256", "kZ120_frobenius", "kZ400_frobenius", "pair24_576",
         "pair40_1600", "objects4_z12_192", "qtg_matrix3_frobenius_81",
         "qtg_z2_matrix3_frobenius_162"],
)
def test_large_instance_passes(argv, checks, tail, capsys):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    lines = captured.out.splitlines()
    assert len(lines) == checks + len(tail)
    assert all(line.startswith("[PASS] ") for line in lines[:checks])
    assert lines[checks:] == tail


def test_large_nsy_build_is_indented_json(capsys):
    """The dim-900 ``nsy build`` output is what ``json.dumps`` writes for it."""
    code = main("nsy build n=6 ell=6 m=5,5,5,5,5,5".split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    payload = json.loads(captured.out)
    assert payload["dim"] == 900
    assert captured.out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
