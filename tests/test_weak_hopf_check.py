"""check_weak_hopf: the row-wise eps(abc) block against the scalar triple
loop it replaced, and the report kept on each WeakHopfData.

Corruptions: one entry of epsilon_wk is shifted, or one entry is added to
delta_wk, on the groupoid, group and quantum transformation groupoid
fixtures of conftest.py.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobkit.cli import main
from frobkit.exactlin import Mat, Vec
from frobkit.finalg import Witness
from frobkit.whopf import WeakHopfData, check_weak_hopf, core

NOTE_A = "eps(abc) != eps(a b_1) eps(b_2 c)"
NOTE_B = "eps(abc) != eps(a b_2) eps(b_1 c)"
WEAK_MULT = {"epsilon_wk_weak_mult_a": NOTE_A, "epsilon_wk_weak_mult_b": NOTE_B}
SHIFTS = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)]


@pytest.fixture(scope="session")
def weak_hopf_cases(groupoid_algebras, hopf_group_algebras, qtg_built):
    cases = dict(groupoid_algebras)
    cases.update({f"kZ{n}": h for n, h in hopf_group_algebras.items()})
    cases.update(qtg_built)
    return cases


def shift_epsilon(h: WeakHopfData, k: int, value) -> WeakHopfData:
    eps = Vec(h.dim, [*h.epsilon_wk.terms(), (k, value)])
    return WeakHopfData(h.algebra, h.delta_wk, eps, h.antipode)


def add_delta_entry(h: WeakHopfData, row: int, col: int, value) -> WeakHopfData:
    d = h.dim
    delta = Mat(d * d, d, [*h.delta_wk.items(), (row, col, value)])
    return WeakHopfData(h.algebra, delta, h.epsilon_wk, h.antipode)


def naive_weak_mult(h: WeakHopfData):
    """First (a, b, c) witness of each identity, scanning b, then a, then c,
    with one scalar eps(e_a e_b e_c) and two scalar sums per triple."""
    alg = h.algebra
    d = h.dim
    e = [Vec.basis(d, k) for k in range(d)]
    eps = h.epsilon_wk.dot
    eps_prod = [[eps(alg.mul(e[i], e[j])) for j in range(d)] for i in range(d)]
    first = {NOTE_A: None, NOTE_B: None}
    for b in range(d):
        pairs = [(t // d, t % d, v) for t, v in h.delta_wk.col(b).items()]
        for i in range(d):
            for k in range(d):
                direct = eps(alg.mul(alg.mul(e[i], e[b]), e[k]))
                split_a = split_b = Fraction(0)
                for p, q, v in pairs:
                    split_a += v * eps_prod[i][p] * eps_prod[q][k]
                    split_b += v * eps_prod[i][q] * eps_prod[p][k]
                for note, split in ((NOTE_A, split_a), (NOTE_B, split_b)):
                    if first[note] is None and direct != split:
                        first[note] = Witness(
                            (i, b, k), Vec(1, {0: direct}), Vec(1, {0: split}), note
                        )
                if None not in first.values():
                    return first
    return first


def assert_matches_naive(h: WeakHopfData):
    checks = {c.name: c for c in check_weak_hopf(h).checks}
    expected = naive_weak_mult(h)
    for name, note in WEAK_MULT.items():
        assert checks[name].passed == (expected[note] is None)
        assert checks[name].witness == expected[note]
    return checks


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_weak_mult_matches_naive_on_corrupted_data(weak_hopf_cases, data):
    h = weak_hopf_cases[data.draw(st.sampled_from(sorted(weak_hopf_cases)))]
    d = h.dim
    value = data.draw(st.sampled_from(SHIFTS))
    if data.draw(st.booleans()):
        h = shift_epsilon(h, data.draw(st.integers(0, d - 1)), value)
    else:
        h = add_delta_entry(
            h, data.draw(st.integers(0, d * d - 1)), data.draw(st.integers(0, d - 1)), value
        )
    assert_matches_naive(h)


# Delta(e_0) of (k, M_2) gains e_0 (x) e_1 or e_0 (x) e_2: only one of the
# two identities breaks, so the scan runs to the end looking for the other.
@pytest.mark.parametrize(
    "row, fails", [(1, "epsilon_wk_weak_mult_a"), (2, "epsilon_wk_weak_mult_b")]
)
def test_weak_mult_one_identity_fails(qtg_built, row, fails):
    checks = assert_matches_naive(add_delta_entry(qtg_built["k_mat2"], row, 0, Fraction(1)))
    assert [name for name in WEAK_MULT if not checks[name].passed] == [fails]


def test_weak_mult_matches_naive_on_fixtures(weak_hopf_cases):
    for h in weak_hopf_cases.values():
        checks = assert_matches_naive(h)
        assert all(checks[name].passed for name in WEAK_MULT)


def test_report_is_kept_on_the_data(groupoid_algebras):
    h = groupoid_algebras["pair2"]
    assert check_weak_hopf(h) is check_weak_hopf(h)


@pytest.mark.parametrize(
    "argv, structures",
    [
        (["whopf", "groupoid", "--pair-objects", "3", "check"], 1),
        (["whopf", "qtg", "--L", "cyclic:2", "--B", "cyclic:2", "check"], 2),  # L and H
    ],
)
def test_cli_verifies_each_structure_once(monkeypatch, capsys, argv, structures):
    verified = []
    uncached = core._weak_hopf_report

    def counting(h):
        verified.append(h)
        return uncached(h)

    monkeypatch.setattr(core, "_weak_hopf_report", counting)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(verified) == structures
    assert len({id(h) for h in verified}) == structures
