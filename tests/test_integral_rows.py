"""Integrals solved on the generating set, and the monomial generator walk.

When check_weak_hopf passes, integral_space solves x L = 0 (L x = 0) only for
x = n y - n eps_t(y) with y = e_s b (b e_s, eps_s), s a generator and b in a
basis of A_t (A_s).  Its kernel basis is compared with the all-basis
reference of test_whopf on groupoid, group and QTG algebras up to dim 81; the
two weak bialgebra identities the proof uses are checked on all basis pairs
of the same algebras.  Data that fails the check keeps the all-basis rows.
AlgebraData.generators is compared with a test-local copy of the
LinearSystem walk it replaced, on monomial tables, on their bases rescaled
by signs and scalars, and on E(1); it builds no LinearSystem.  A table
whose unit laws fail, or whose products are not one term each, keeps the
whole basis, and the Casimir, bimodule and coassociativity checks of a
multi-term table still agree with the naive references.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import conftest
from frobkit import exactlin, finalg
from frobkit.errors import InternalConsistencyError
from frobkit.exactlin import LinearSystem, Mat, Vec, addto, rank_raising
from frobkit.finalg import AlgebraData, CasimirElement, casimir_comult, check_casimir
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
    target_subalgebra_basis,
    trivial_action,
    trivial_hopf,
)
from frobkit.whopf import core, qtg
from counit_maps import epsilon_s_matrix, epsilon_t_matrix
from test_delta_one import assert_matches_reference, casimir_basis, with_delta_entry
from test_whopf import reference_integral_space
from test_witness import naive_casimir, witness_tuple


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
        assert integral_space(h, side) == reference_integral_space(h, side), side


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
        assert integral_space(broken, side) == reference_integral_space(broken, side)


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
    return [m.col(j) for j in rank_raising(m.nrows, (m.col(j) for j in range(m.ncols)))[0]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_counital_subalgebra_bases_match_the_matrix_columns(name):
    """A_s as the integral rows read it, and the public A_t basis."""
    h = CASES[name]
    source = [Vec.adopt(h.dim, c).scale(Fraction(1, h.denom)) for c in core._counital_basis(h, 2)]
    assert source == reference_column_space_basis(epsilon_s_matrix(h))
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


def _refuse(*args):
    raise AssertionError("generators() built a LinearSystem")


@pytest.fixture
def no_linear_system(monkeypatch):
    """generators() may not build a LinearSystem: building one raises."""
    monkeypatch.setattr(finalg, "LinearSystem", _refuse)


def walked_generators(a: AlgebraData) -> list[int]:
    """generators() of a fresh copy of ``a``, with no LinearSystem allowed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finalg, "LinearSystem", _refuse)
        return _fresh(a).generators()


def _fresh(a: AlgebraData) -> AlgebraData:
    return AlgebraData(a.dim, a.labels, a.mult, a.unit)


MONOMIAL_ALGEBRAS = [
    *(h.algebra for h in CASES.values()),
    *(nsy_build(p) for p in sweep_params(3, 3, 2)),
]


def test_monomial_walk_matches_the_span_walk(no_linear_system):
    for a in MONOMIAL_ALGEBRAS:
        a = _fresh(a)
        assert a.monomial_table is not None and finalg.check_algebra(a).passed
        assert a.generators() == reference_generators(a), a.labels


def _kz2_with_basis_1_2g() -> AlgebraData:
    """k[Z/2] on the basis 1, 2g: (2g)(2g) = 4 * 1 is not a monomial product."""
    mult = {
        (0, 0): ((0, 1),),
        (0, 1): ((1, 1),),
        (1, 0): ((1, 1),),
        (1, 1): ((0, 4),),
    }
    return AlgebraData(2, ["1", "2g"], mult, Vec.basis(2, 0))


def test_scaled_one_term_table_runs_the_index_walk(no_linear_system):
    a = _kz2_with_basis_1_2g()
    assert a.monomial_table is None
    assert a.generators() == reference_generators(a) == [1]


def test_monomial_table_without_unit_law_keeps_the_basis(no_linear_system):
    """pair2 with the unit e_0 only: the unit laws fail, so S is the basis."""
    b = CASES["pair2"].algebra
    a = AlgebraData(b.dim, b.labels, b.mult, Vec.basis(b.dim, 0))
    assert a.monomial_table is not None and not finalg.check_algebra(a).passed
    assert a.generators() == list(range(a.dim))


def sweedler() -> AlgebraData:
    """E(1) on 1, g, x, gx: g^2 = 1, x^2 = 0 and xg = -gx, a signed table."""
    mult = {(0, k): ((k, 1),) for k in range(4)}
    mult.update({(k, 0): ((k, 1),) for k in range(1, 4)})
    mult.update({
        (1, 1): ((0, 1),), (1, 2): ((3, 1),), (1, 3): ((2, 1),),
        (2, 1): ((3, -1),), (3, 1): ((2, -1),),
    })
    return AlgebraData(4, ["1", "g", "x", "gx"], mult, Vec.basis(4, 0))


def test_sweedler_algebra_runs_the_index_walk(no_linear_system):
    a = sweedler()
    assert a.monomial_table is None and finalg.check_algebra(a).passed
    assert a.generators() == reference_generators(a) == [1, 2]


def kz3_on_1_g_h() -> AlgebraData:
    """k[Z/3] on 1, g, h = g + g^2: g^2 = h - g, gh = hg = 1 - g + h and
    h^2 = 2 + h, a table of multi-term products."""
    gh = ((0, 1), (1, -1), (2, 1))
    mult = {(0, k): ((k, 1),) for k in range(3)}
    mult.update({(k, 0): ((k, 1),) for k in (1, 2)})
    mult.update({(1, 1): ((1, -1), (2, 1)), (1, 2): gh, (2, 1): gh, (2, 2): ((0, 2), (2, 1))})
    return AlgebraData(3, ["1", "g", "h"], mult, Vec.basis(3, 0))


def test_multi_term_table_keeps_the_basis(no_linear_system):
    a = kz3_on_1_g_h()
    assert finalg.check_algebra(a).passed
    assert a.generators() == [0, 1, 2]
    assert reference_generators(a) == [1]


def test_multi_term_table_decides_casimir_bimodule_and_coassociativity():
    """A Casimir comultiplication of k[Z/3] on 1, g, h with one Delta entry
    added anywhere: every check agrees with the naive references."""
    a = kz3_on_1_g_h()
    d = a.dim
    x = Vec(d * d)
    for b, v in zip(casimir_basis(a), (1, 2, -3, Fraction(1, 2))):
        x = x + b.scale(v)
    assert naive_casimir(CasimirElement(a, x)) is None
    c = casimir_comult(CasimirElement(a, x))
    assert_matches_reference(c)
    for column in range(d):
        for flat in range(d * d):
            assert_matches_reference(with_delta_entry(c, column, flat, Fraction(-2)))
    for flat in range(d * d):
        cas = CasimirElement(a, x + Vec(d * d, {flat: 1}))
        (result,) = check_casimir(cas).checks
        assert witness_tuple(result) == naive_casimir(cas)


RESCALED_BASES = {
    **{f"groupoid_{k}": groupoid_algebra(g).algebra
       for k, g in conftest.build_groupoid_fixture_set().items()},
    **{f"kZ{n}": hopf_group_algebra(cyclic_group_table(n)).algebra for n in range(1, 7)},
    **{f"nsy_{p.n}_{p.ell}_{p.mults}": nsy_build(p) for p in sweep_params(3, 3, 2)},
}


def rescaled(a: AlgebraData, c: list[Fraction]) -> AlgebraData:
    """``a`` on the basis f_k = c_k e_k: f_i f_j = (c_i c_j / c_k) f_k for
    e_i e_j = e_k, and 1 = sum_k (u_k / c_k) f_k."""
    mult = {(i, j): tuple((k, v * c[i] * c[j] / c[k]) for k, v in terms)
            for (i, j), terms in a.mult.items()}
    unit = Vec(a.dim, {k: u / c[k] for k, u in a.unit.terms()})
    return AlgebraData(a.dim, a.labels, mult, unit)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_rescaled_tables_run_the_index_walk(data):
    a = RESCALED_BASES[data.draw(st.sampled_from(sorted(RESCALED_BASES)))]
    scale = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3)])
    b = rescaled(a, [data.draw(scale) for _ in range(a.dim)])
    assert finalg.check_algebra(b).passed
    assert walked_generators(b) == reference_generators(b) == walked_generators(a)
