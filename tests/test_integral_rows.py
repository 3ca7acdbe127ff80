"""Integrals solved on the generating set, and the monomial generator walk.

When check_weak_hopf passes, integral_space solves x L = 0 (L x = 0) only for
x = n y - n eps_t(y) with y = e_s b (b e_s, eps_s), s a generator and b in a
basis of A_t (A_s).  Its kernel basis is compared with the all-basis
reference of test_whopf on groupoid, group and QTG algebras up to dim 81; the
two weak bialgebra identities the proof uses are checked on all basis pairs
of the same algebras.  Data that fails the check keeps the all-basis rows.
AlgebraData.generators on a monomial table is compared with a test-local
copy of the LinearSystem walk, which still runs on every other algebra.
"""

import pytest

from frobkit import exactlin, finalg
from frobkit.errors import InternalConsistencyError
from frobkit.exactlin import LinearSystem, Mat, Vec, addto, rank_raising
from frobkit.finalg import AlgebraData
from frobkit.nsy import nsy_build, sweep_params
from frobkit.whopf import (
    QTGInput,
    WeakHopfData,
    automorphism_action,
    check_weak_hopf,
    connected_groupoid,
    cyclic_group_table,
    epsilon_s,
    epsilon_t,
    groupoid_algebra,
    hopf_group_algebra,
    integral_space,
    pair_groupoid,
    qtg_build,
    separable_group_algebra,
    separable_matrix_algebra,
    source_subalgebra_basis,
    target_subalgebra_basis,
    trivial_action,
    trivial_hopf,
)
from frobkit.whopf import core, qtg
from counit_maps import epsilon_s_matrix, epsilon_t_matrix
from test_whopf import reference_integral_space


def _qtg_input(L, separable, perms=None) -> QTGInput:
    B, e, omega = separable
    action = trivial_action(B, L) if perms is None else automorphism_action(B, L, perms)
    return QTGInput(L, B, e, omega, action)


def _build_cases() -> dict[str, WeakHopfData]:
    cases = {f"pair{k}": groupoid_algebra(pair_groupoid(k)) for k in range(1, 9)}
    for k in range(1, 5):
        for m in (2, 3):
            cases[f"pair{k}_x_z{m}"] = groupoid_algebra(connected_groupoid(k, cyclic_group_table(m)))
    cases.update({f"kZ{n}": hopf_group_algebra(cyclic_group_table(n)) for n in range(1, 25)})
    kz2 = hopf_group_algebra(cyclic_group_table(2))
    z3 = separable_group_algebra(cyclic_group_table(3))
    cases["k_mat2"] = qtg_build(_qtg_input(trivial_hopf(), separable_matrix_algebra(2)))
    cases["k_mat3"] = qtg_build(_qtg_input(trivial_hopf(), separable_matrix_algebra(3)))
    cases["kz2_kz2"] = qtg_build(_qtg_input(kz2, separable_group_algebra(cyclic_group_table(2))))
    cases["kz2_on_kz3"] = qtg_build(_qtg_input(kz2, z3, [[0, 1, 2], [0, 2, 1]]))
    return cases


CASES = _build_cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_integral_space_matches_the_all_basis_reference(name):
    h = CASES[name]
    assert check_weak_hopf(h).passed
    for side in ("left", "right"):
        assert integral_space(h, side).basis == reference_integral_space(h, side), side


@pytest.mark.parametrize("name", sorted(CASES))
def test_counital_maps_absorb_their_own_image(name):
    """eps_t(x eps_t(y)) = eps_t(xy) and eps_s(eps_s(x) y) = eps_s(xy)."""
    h = CASES[name]
    a, d = h.algebra, h.dim
    basis = [Vec.basis(d, k) for k in range(d)]
    tgt = [epsilon_t(h, e) for e in basis]
    src = [epsilon_s(h, e) for e in basis]
    for x in range(d):
        for y in range(d):
            xy = a.basis_product(x, y)
            assert epsilon_t(h, a.mul(basis[x], tgt[y])) == epsilon_t(h, xy), (x, y)
            assert epsilon_s(h, a.mul(src[x], basis[y])) == epsilon_s(h, xy), (x, y)


def _all_basis_annihilators(h: WeakHopfData, left: bool) -> list[dict]:
    eps = core._counital_terms(h)[3 if left else 2]
    xs = [addto({k: h.denom}, -1, eps[k].items()) for k in range(h.dim)]
    return [x for x in xs if x]


@pytest.mark.parametrize("name, col, value", [("pair3", 1, 5), ("kZ4", 2, 1), ("k_mat2", 3, 2)])
def test_failed_check_keeps_the_all_basis_rows(name, col, value):
    h = CASES[name]
    d = h.dim
    antipode = Mat(d, d, [*h.antipode.items(), (0, col, value)])
    broken = WeakHopfData(h.algebra, h.delta_wk, h.epsilon_wk, antipode)
    assert not check_weak_hopf(broken).passed
    for side, left in (("left", True), ("right", False)):
        assert core._integral_annihilators(broken, left) == _all_basis_annihilators(broken, left)
        assert integral_space(broken, side).basis == reference_integral_space(broken, side)


def test_verified_data_uses_the_generator_rows():
    """On a groupoid algebra e_s b is e_s or 0 for b in A_t: at most one x
    per generator, against one per basis element outside A_t."""
    h = CASES["pair6"]
    gens = h.algebra.generators()
    for left in (True, False):
        xs = core._integral_annihilators(h, left)
        assert 0 < len(xs) <= len(gens) < len(_all_basis_annihilators(h, left))


def test_integral_space_adds_fewer_rows(monkeypatch):
    """The LinearSystem.add calls of one integral_space on the pair groupoid
    with 6 objects (dim 36): 180 with one set of rows per basis element, 66
    with the rows of the 11 generators plus the 6 columns that raise the
    rank of eps_t (eps_s)."""
    h = CASES["pair6"]
    calls = []
    add = exactlin.LinearSystem.add

    def counted(self, coeffs, rhs=0):
        calls.append(1)
        return add(self, coeffs, rhs)

    monkeypatch.setattr(exactlin.LinearSystem, "add", counted)
    for side in ("left", "right"):
        calls.clear()
        integral_space(h, side)
        assert len(calls) == 66, side


def reference_column_space_basis(m: Mat) -> list[Vec]:
    """The matrix-based subalgebra basis: the columns, scanned in ascending
    order, that increase the rank."""
    return [m.col(j) for j in rank_raising(m.nrows, (m.col(j) for j in range(m.ncols)))]


@pytest.mark.parametrize("name", sorted(CASES))
def test_counital_subalgebra_bases_match_the_matrix_columns(name):
    h = CASES[name]
    assert source_subalgebra_basis(h) == reference_column_space_basis(epsilon_s_matrix(h))
    assert target_subalgebra_basis(h) == reference_column_space_basis(epsilon_t_matrix(h))


def test_integral_pair_rejects_an_element_that_is_not_a_left_integral():
    """Ibar built from a right 'integral' of L = k[Z/3] that is not one."""
    L = hopf_group_algebra(cyclic_group_table(3))
    q = _qtg_input(L, separable_group_algebra(cyclic_group_table(2)))
    h = qtg_build(q)
    with pytest.raises(InternalConsistencyError, match="not a left integral"):
        qtg._integral_pair(q, h, Vec(3, {0: 1, 1: 1, 2: 2}))


def reference_generators(a: AlgebraData) -> list[int]:
    """The LinearSystem walk of AlgebraData.generators, kept verbatim."""
    d = a.dim
    basis = [Vec.basis(d, k) for k in range(d)]
    span, seen, words, gens = LinearSystem(d), set(), [], []

    def close(pending: list[Vec]) -> None:
        while pending and span.rank < d:
            v = pending.pop()
            if v.is_zero() or v in seen:
                continue
            seen.add(v)
            rank = span.rank
            span.add(dict(v.terms()))
            if span.rank > rank:
                words.append(v)
                pending += [a.mul(basis[g], v) for g in gens]

    close([a.unit])
    for k in range(d):
        rank = span.rank
        close([basis[k]])
        if span.rank > rank:
            gens.append(k)
            close([a.mul(basis[k], w) for w in words])
    return gens


@pytest.fixture
def span_walks(monkeypatch):
    """The algebras on which generators() ran the LinearSystem walk."""
    walked = []
    original = AlgebraData._span_generators

    def spy(self):
        walked.append(self)
        return original(self)

    monkeypatch.setattr(AlgebraData, "_span_generators", spy)
    return walked


def _fresh(a: AlgebraData) -> AlgebraData:
    return AlgebraData(a.dim, a.labels, a.mult, a.unit)


MONOMIAL_ALGEBRAS = [
    *(h.algebra for h in CASES.values()),
    *(nsy_build(p) for p in sweep_params(3, 3, 2)),
]


def test_monomial_walk_matches_the_span_walk(span_walks):
    for a in MONOMIAL_ALGEBRAS:
        a = _fresh(a)
        assert a.monomial_table is not None and finalg.check_algebra(a).passed
        assert a.generators() == reference_generators(a), a.labels
    assert span_walks == []


def _kz2_with_basis_1_2g() -> AlgebraData:
    """k[Z/2] on the basis 1, 2g: (2g)(2g) = 4 * 1 is not a monomial product."""
    mult = {
        (0, 0): ((0, 1),),
        (0, 1): ((1, 1),),
        (1, 0): ((1, 1),),
        (1, 1): ((0, 4),),
    }
    return AlgebraData(2, ["1", "2g"], mult, Vec.basis(2, 0))


def test_non_monomial_algebra_runs_the_span_walk(span_walks):
    a = _kz2_with_basis_1_2g()
    assert a.monomial_table is None
    assert a.generators() == reference_generators(a) == [1]
    assert span_walks == [a]


def test_monomial_table_without_unit_law_runs_the_span_walk(span_walks):
    """pair2 with the unit e_0 only: the unit laws fail, so no word shortcut."""
    b = CASES["pair2"].algebra
    a = AlgebraData(b.dim, b.labels, b.mult, Vec.basis(b.dim, 0))
    assert a.monomial_table is not None and not finalg.check_algebra(a).passed
    assert a.generators() == reference_generators(a)
    assert span_walks == [a]
