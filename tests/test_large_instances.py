"""The larger instances ROADMAP.md times, run end to end through the CLI: the
dim-900 NSY algebra, the dim-256 quantum transformation groupoid, k[Z/120]
and the groupoid algebras of dim 576 and 192.  Each must exit 0 with every
check line [PASS] and, where the command classifies, the expected
classification.  No timing is asserted.
"""

import pytest

from frobkit import __version__
from frobkit.cli import main

pytestmark = pytest.mark.slow

WEAK_HOPF_CHECKS = 15  # every line of check_weak_hopf's report


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
        ("whopf groupoid --pair-objects 24 check", WEAK_HOPF_CHECKS, []),
        ("whopf groupoid --objects 4 --group cyclic:12 check", WEAK_HOPF_CHECKS, []),
    ],
    ids=["nsy_900", "qtg_matrix4_256", "kZ120_frobenius", "pair24_576", "objects4_z12_192"],
)
def test_large_instance_passes(argv, checks, tail, capsys):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    lines = captured.out.splitlines()
    assert len(lines) == checks + len(tail)
    assert all(line.startswith("[PASS] ") for line in lines[:checks])
    assert lines[checks:] == tail
