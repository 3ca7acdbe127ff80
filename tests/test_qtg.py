"""Quantum transformation groupoid tests, including the closed-form
Frobenius structure and the L = k reductions."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobkit.errors import ConstructionError, InputError, InternalConsistencyError
from frobkit.exactlin import Mat, Vec, addto
from frobkit.finalg import (
    AlgebraData,
    Classification,
    ComultData,
    check_bimodule,
    check_coassoc,
    classify,
    solve_counit,
)
from frobkit.whopf import (
    QTGInput,
    WeakHopfData,
    automorphism_action,
    check_weak_hopf,
    cyclic_group_table,
    epsilon_t,
    frobenius_from_integral,
    groupoid_algebra,
    hopf_group_algebra,
    integral_space,
    is_hopf,
    iterated_comult,
    pair_groupoid,
    psi_map,
    qtg_build,
    qtg_frobenius,
    qtg_integral,
    separable_group_algebra,
    separable_matrix_algebra,
    trivial_action,
    trivial_hopf,
    weak_hopf_to_json_str,
)
from frobkit.whopf import qtg as qtg_mod
from frobkit.whopf.core import _psi_solve
from counit_maps import eps_tensor_id, id_tensor_eps

F = Fraction


def test_trivial_hopf_is_hopf():
    h = trivial_hopf()
    assert check_weak_hopf(h).passed
    assert is_hopf(h)


def test_separable_group_algebra_axioms_brute_force():
    """Verify the separability identities of k(Z/2) by direct expansion."""
    b, e, omega = separable_group_algebra(cyclic_group_table(2))
    d = b.dim
    pairs = [(flat // d, flat % d, v) for flat, v in e.items()]
    # e = (1/2)(1 (x) 1 + g (x) g), w(1) = 2, w(g) = 0
    assert sorted(pairs) == [(0, 0, F(1, 2)), (1, 1, F(1, 2))]
    assert omega == Vec(2, {0: F(2)})
    # b e1 (x) e2 = e1 (x) e2 b for every basis b
    for x in range(d):
        lhs = Vec(d * d)
        rhs = Vec(d * d)
        for p, q, v in pairs:
            lhs = lhs + b.basis_product(x, p).scale(v).tensor(Vec.basis(d, q))
            rhs = rhs + Vec.basis(d, p).tensor(b.basis_product(q, x).scale(v))
        assert lhs == rhs
    # e1 e2 = 1
    contracted = Vec(d)
    for p, q, v in pairs:
        contracted = contracted + b.basis_product(p, q).scale(v)
    assert contracted == b.unit
    # symmetry
    assert sorted((q, p, v) for p, q, v in pairs) == sorted(pairs)
    # trace identity
    lhs = Vec(d)
    for p, q, v in pairs:
        lhs = lhs + Vec.basis(d, q).scale(v * omega.get(p))
    assert lhs == b.unit


def test_separable_matrix_algebra_axioms_brute_force():
    """Verify the separability identities of M_2 on all four basis matrices."""
    b, e, omega = separable_matrix_algebra(2)
    d = b.dim
    pairs = [(flat // d, flat % d, v) for flat, v in e.items()]
    assert all(v == F(1, 2) for _, _, v in pairs) and len(pairs) == 4
    for x in range(d):
        lhs = Vec(d * d)
        rhs = Vec(d * d)
        for p, q, v in pairs:
            lhs = lhs + b.basis_product(x, p).scale(v).tensor(Vec.basis(d, q))
            rhs = rhs + Vec.basis(d, p).tensor(b.basis_product(q, x).scale(v))
        assert lhs == rhs
    contracted = Vec(d)
    for p, q, v in pairs:
        contracted = contracted + b.basis_product(p, q).scale(v)
    assert contracted == b.unit
    assert sorted((q, p, v) for p, q, v in pairs) == sorted(pairs)
    first = Vec(d)
    second = Vec(d)
    for p, q, v in pairs:
        first = first + Vec.basis(d, q).scale(v * omega.get(p))
        second = second + Vec.basis(d, p).scale(v * omega.get(q))
    assert first == b.unit == second


def test_qtg_dimensions(qtg_built):
    assert qtg_built["k_mat2"].dim == 16
    assert qtg_built["k_kz2"].dim == 4
    assert qtg_built["kz2_kz2"].dim == 8


def test_qtg_pass_weak_hopf(qtg_built):
    for name, h in qtg_built.items():
        assert check_weak_hopf(h).passed, name


def test_qtg_unitality(qtg_built):
    for h in qtg_built.values():
        for k in range(h.dim):
            ek = Vec.basis(h.dim, k)
            assert h.algebra.mul(h.unit, ek) == ek
            assert h.algebra.mul(ek, h.unit) == ek


def _m2_h_index(a: int, b: int) -> int:
    # H(k, M2) basis flattening: (a, l=0, b) -> a * 4 + b
    return a * 4 + b


def test_example_structure_maps_l_trivial_b_mat2(qtg_instances, qtg_built):
    """For L = k the structure maps collapse to the two-sided form:
    mult (a(x)b)(a'(x)b') = a'a (x) bb', Delta(a(x)b) = (a(x)e1)(x)(e2(x)b),
    eps(a(x)b) = w(ab), S(a(x)b) = b(x)a."""
    q = qtg_instances["k_mat2"]
    h = qtg_built["k_mat2"]
    B = q.B
    d = B.dim
    pairs = q.pairs
    for a in range(d):
        for b in range(d):
            col = _m2_h_index(a, b)
            # multiplication against every other basis element
            for a2 in range(d):
                for b2 in range(d):
                    col2 = _m2_h_index(a2, b2)
                    expected = Vec(h.dim)
                    first = B.basis_product(a2, a)
                    second = B.basis_product(b, b2)
                    for ka, va in first.items():
                        for kb, vb in second.items():
                            expected = expected + Vec(
                                h.dim, {_m2_h_index(ka, kb): va * vb}
                            )
                    assert h.algebra.basis_product(col, col2) == expected
            # comultiplication
            expected_delta = Vec(h.dim * h.dim)
            for p, qq, v in pairs:
                flat = _m2_h_index(a, p) * h.dim + _m2_h_index(qq, b)
                expected_delta = expected_delta + Vec(h.dim * h.dim, {flat: v})
            assert h.delta_wk.col(col) == expected_delta
            # counit: w(ab)
            prod = B.basis_product(a, b)
            assert h.epsilon_wk.get(col) == q.omega.dot(prod)
            # antipode: swap
            assert h.antipode.col(col) == Vec.basis(h.dim, _m2_h_index(b, a))


def test_qtg_integral_l_trivial(qtg_instances, qtg_built):
    """For L = k: Ibar = e1 (x) e2 and lam_bar = w (x) w."""
    q = qtg_instances["k_mat2"]
    h = qtg_built["k_mat2"]
    ibar, lam_bar = qtg_integral(q, h)
    expected_ibar = Vec(h.dim)
    for p, qq, v in q.pairs:
        expected_ibar = expected_ibar + Vec(h.dim, {_m2_h_index(p, qq): v})
    assert ibar == expected_ibar
    expected_lam = Vec(h.dim)
    for a in range(q.B.dim):
        for b in range(q.B.dim):
            val = q.omega.get(a) * q.omega.get(b)
            if val:
                expected_lam = expected_lam + Vec(h.dim, {_m2_h_index(a, b): val})
    assert lam_bar == expected_lam


def test_qtg_integral_psi_is_unit(qtg_instances, qtg_built):
    for name, q in qtg_instances.items():
        h = qtg_built[name]
        ibar, lam_bar = qtg_integral(q, h)
        assert psi_map(h, ibar).matvec(lam_bar) == h.unit, name
        # Ibar is a left integral: h Ibar = eps_t(h) Ibar
        for k in range(h.dim):
            ek = Vec.basis(h.dim, k)
            assert h.algebra.mul(ek, ibar) == h.algebra.mul(epsilon_t(h, ek), ibar)


def test_right_integral_and_dual_of_kz2(qtg_instances):
    q = qtg_instances["kz2_kz2"]
    lam_r = integral_space(q.L, "right").basis[0]
    assert lam_r == Vec(2, {0: F(1), 1: F(1)})
    lam = _psi_solve(q.L, q.L.antipode.matvec(lam_r))  # lam(S(I_1)) S(I_2) = 1
    assert lam == Vec(2, {0: F(1)})


def test_qtg_frobenius_matches_generic(qtg_instances, qtg_built):
    for name, q in qtg_instances.items():
        h = qtg_built[name]
        comult = qtg_frobenius(q, h)
        ibar, lam_bar = qtg_integral(q, h)
        generic = frobenius_from_integral(h, ibar)
        assert generic.delta == comult.delta, name
        assert generic.counit == comult.counit == lam_bar, name
        # decided again on a fresh ComultData, not as built
        assert classify(ComultData(h.algebra, comult.delta)) is Classification.FROBENIUS, name


@pytest.mark.parametrize("field", ["delta", "counit"])
def test_qtg_frobenius_rejects_a_differing_generic_structure(
    field, qtg_instances, qtg_built, monkeypatch
):
    """qtg_frobenius returns the generic structure only after checking it
    equal to the closed form: a generic Delta or counit scaled by 2 raises."""
    generic = qtg_mod.frobenius_from_integral

    def scaled(h, lam):
        c = generic(h, lam)
        if field == "delta":
            return ComultData(h.algebra, c.delta.scale(2), c.counit)
        return ComultData(h.algebra, c.delta, c.counit.scale(2))

    monkeypatch.setattr(qtg_mod, "frobenius_from_integral", scaled)
    with pytest.raises(InternalConsistencyError, match="closed-form"):
        qtg_frobenius(qtg_instances["kz2_kz2"], qtg_built["kz2_kz2"])


def test_qtg_frobenius_closed_form_mat2(qtg_instances, qtg_built):
    """Delta(a (x) b) = (e1 a (x) b e'1) (x) (e2 (x) e'2) for L = k, B = M2."""
    q = qtg_instances["k_mat2"]
    h = qtg_built["k_mat2"]
    comult = qtg_frobenius(q, h)
    B = q.B
    d = B.dim
    pairs = q.pairs
    for a in range(d):
        for b in range(d):
            col = _m2_h_index(a, b)
            expected = Vec(h.dim * h.dim)
            for p, qq, v in pairs:
                first_b = B.basis_product(p, a)
                for p2, q2, v2 in pairs:
                    second_b = B.basis_product(b, p2)
                    for ka, va in first_b.items():
                        for kb, vb in second_b.items():
                            flat = (
                                _m2_h_index(ka, kb) * h.dim
                                + _m2_h_index(qq, q2)
                            )
                            expected = expected + Vec(
                                h.dim * h.dim, {flat: v * v2 * va * vb}
                            )
            assert comult.delta.col(col) == expected, (a, b)


def test_qtg_counit_and_bimodule_identities_mat2(qtg_instances, qtg_built):
    q = qtg_instances["k_mat2"]
    h = qtg_built["k_mat2"]
    comult = qtg_frobenius(q, h)
    ident = Mat(h.dim, h.dim, [(k, k, 1) for k in range(h.dim)])
    assert eps_tensor_id(comult, comult.counit) == ident
    assert id_tensor_eps(comult, comult.counit) == ident
    fresh = ComultData(h.algebra, comult.delta)
    assert check_coassoc(fresh).passed
    assert check_bimodule(fresh).passed
    # eps(a (x) b) = w(a) w(b)
    for a in range(q.B.dim):
        for b in range(q.B.dim):
            assert comult.counit.get(_m2_h_index(a, b)) == q.omega.get(a) * q.omega.get(b)


def test_qtg_nontrivial_automorphism_action():
    L = hopf_group_algebra(cyclic_group_table(2))
    B, e, om = separable_group_algebra(cyclic_group_table(3))
    act = automorphism_action(B, L, [[0, 1, 2], [0, 2, 1]])
    q = QTGInput(L, B, e, om, act)
    h = qtg_build(q)
    assert h.dim == 18
    assert check_weak_hopf(h).passed
    comult = qtg_frobenius(q, h)
    assert classify(ComultData(h.algebra, comult.delta)) is Classification.FROBENIUS


def _one_dim_weak_hopf(square: Vec) -> WeakHopfData:
    """Structure maps of k on one basis element x with x x = ``square``;
    the product is wrong on purpose, so nothing here is verified."""
    alg = AlgebraData(1, ["x"], {(0, 0): tuple(square.terms())}, Vec.basis(1, 0))
    return WeakHopfData(alg, Mat(1, 1, [(0, 0, 1)]), Vec.basis(1, 0), Mat(1, 1, [(0, 0, 1)]))


@pytest.mark.parametrize(
    "L",
    [
        pytest.param(groupoid_algebra(pair_groupoid(2)), id="zero_product"),
        pytest.param(_one_dim_weak_hopf(Vec(1, {0: F(2)})), id="coefficient_two"),
        pytest.param(_one_dim_weak_hopf(Vec(1, {})), id="zero_square"),
    ],
)
def test_automorphism_action_rejects_non_group_l(L):
    B, _, _ = separable_group_algebra(cyclic_group_table(2))
    with pytest.raises(InputError, match="group-algebra L"):
        automorphism_action(B, L, [[0, 1]] * L.dim)


def test_qtg_rejects_broken_idempotent():
    L = trivial_hopf()
    B, e, om = separable_group_algebra(cyclic_group_table(2))
    bad_e = Vec(4, {0 * 2 + 0: F(1, 2), 0 * 2 + 1: F(1, 2)})  # not symmetric
    with pytest.raises(ConstructionError):
        QTGInput(L, B, bad_e, om, trivial_action(B, L))


def naive_idempotent1(B, e) -> bool:
    """b e1 (x) e2 == e1 (x) e2 b for every basis b, summed term by term."""
    d = B.dim
    pairs = [(t // d, t % d, v) for t, v in e.items()]
    for b in range(d):
        lhs, rhs = {}, {}
        for p, q, v in pairs:
            addto(lhs, v, B.basis_product(b, p).terms(), q, d)
            addto(rhs, v, B.basis_product(q, b).terms(), p * d)
        if lhs != rhs:
            return False
    return True


SEPARABLE_B = {
    "kz2": separable_group_algebra(cyclic_group_table(2)),
    "kz3": separable_group_algebra(cyclic_group_table(3)),
    "mat2": separable_matrix_algebra(2),
}


@given(
    st.sampled_from(sorted(SEPARABLE_B)),
    st.lists(st.tuples(st.integers(0, 80), st.fractions(-2, 2, max_denominator=3)), max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_idempotent1_matches_naive_loop(name, edits):
    # e plus a few edited entries; a symmetric edit keeps the Casimir identity
    B, e, om = SEPARABLE_B[name]
    d2 = B.dim * B.dim
    bad_e = e + Vec(d2, [(k % d2, v) for k, v in edits])
    expect_fail = not naive_idempotent1(B, bad_e)
    try:
        QTGInput(trivial_hopf(), B, bad_e, om, trivial_action(B, trivial_hopf()))
        failed = False
    except ConstructionError as exc:
        failed = str(exc).startswith("idempotent1:")
    assert failed == expect_fail


def naive_trace(B, e, omega) -> bool:
    """w(e1) e2 == 1_B == e1 w(e2), summed term by term."""
    d = B.dim
    first: dict[int, Fraction] = {}
    second: dict[int, Fraction] = {}
    for t, v in e.items():
        p, q = divmod(t, d)
        addto(first, omega.get(p), ((q, v),))
        addto(second, omega.get(q), ((p, v),))
    return Vec.adopt(d, first) == B.unit and Vec.adopt(d, second) == B.unit


@given(
    st.sampled_from(sorted(SEPARABLE_B)),
    st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "rescale"]),
            st.integers(0, 15),
            st.fractions(-2, 2, max_denominator=3),
        ),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=120, deadline=None)
def test_trace_matches_naive_loop(name, edits):
    # w with a few entries added to, removed or rescaled; rescaling by 1 or
    # adding 0 keeps it a trace form
    B, e, om = SEPARABLE_B[name]
    entries = dict(om.items())
    for kind, k, c in edits:
        k %= B.dim
        if kind == "add":
            entries[k] = entries.get(k, 0) + c
        elif kind == "remove":
            entries.pop(k, None)
        else:
            entries[k] = entries.get(k, 0) * c
    bad_om = Vec(B.dim, entries)
    expect_fail = not naive_trace(B, e, bad_om)
    L = trivial_hopf()
    try:
        QTGInput(L, B, e, bad_om, trivial_action(B, L))
        failed = False
    except ConstructionError as exc:
        assert str(exc).startswith("trace:")
        failed = True
    assert failed == expect_fail


@pytest.mark.parametrize("name", sorted(SEPARABLE_B))
def test_non_casimir_e_fails_idempotent1_before_trace(name):
    B, e, om = SEPARABLE_B[name]
    bad_e = e + Vec(B.dim * B.dim, {1: F(1)})  # plus e_0 (x) e_1
    bad_om = om.scale(2)
    assert not naive_idempotent1(B, bad_e)
    assert not naive_trace(B, bad_e, bad_om)
    L = trivial_hopf()
    with pytest.raises(ConstructionError, match="^idempotent1:"):
        QTGInput(L, B, bad_e, bad_om, trivial_action(B, L))


def test_qtg_rejects_broken_trace():
    L = trivial_hopf()
    B, e, om = separable_group_algebra(cyclic_group_table(2))
    bad_om = Vec(2, {0: F(1)})
    with pytest.raises(ConstructionError, match="trace"):
        QTGInput(L, B, e, bad_om, trivial_action(B, L))


def test_qtg_rejects_non_hopf_l(groupoid_fixtures):
    L = groupoid_algebra(groupoid_fixtures["two_points"])  # weak but not Hopf
    B, e, om = separable_group_algebra(cyclic_group_table(2))
    with pytest.raises(ConstructionError, match="Hopf"):
        QTGInput(L, B, e, om, trivial_action(B, L))


def test_qtg_rejects_broken_action():
    L = hopf_group_algebra(cyclic_group_table(2))
    B, e, om = separable_group_algebra(cyclic_group_table(2))
    bad = Mat(
        B.dim,
        B.dim * L.dim,
        [(0, 0, F(1)), (1, 1, F(1)), (0, 2, F(1)), (1, 3, F(1))],
    )
    with pytest.raises(ConstructionError):
        QTGInput(L, B, e, om, bad)


def naive_action_failure(L, B, e, action) -> str | None:
    """The first action axiom that fails, checked over every basis b, l, l'
    as QTGInput did before it decided QTGaction1/2 on the generators of L,
    or None."""
    dB, dL = B.dim, L.dim
    pairs = [(t // dB, t % dB, v) for t, v in e.items()]
    basis_b = [Vec.basis(dB, k) for k in range(dB)]
    basis_l = [Vec.basis(dL, k) for k in range(dL)]

    def act(b, l):
        return action.matvec(b.tensor(l))

    acts = [[action.col(b * dL + l) for l in range(dL)] for b in range(dB)]
    for b in range(dB):
        if act(basis_b[b], L.unit) != basis_b[b]:
            return "QTGaction1: b <| 1_L != b"
    for b in range(dB):
        for l1 in range(dL):
            for l2 in range(dL):
                rhs = act(basis_b[b], L.algebra.basis_product(l1, l2))
                if act(acts[b][l1], basis_l[l2]) != rhs:
                    return "QTGaction1: (b <| l) <| l' != b <| (l l')"
    for l in range(dL):
        if act(B.unit, basis_l[l]) != B.unit.scale(L.epsilon_wk.get(l)):
            return "QTGaction2: 1_B <| l != eps(l) 1_B"
    for b1 in range(dB):
        for b2 in range(dB):
            prod = B.basis_product(b1, b2)
            for l in range(dL):
                acc = {}
                for p, q, v in L.coalgebra.delta_pairs(l):
                    addto(acc, v, B.mul(acts[b1][p], acts[b2][q]).terms())
                if act(prod, basis_l[l]) != Vec.adopt(dB, acc):
                    return "QTGaction2: (b b') <| l != (b <| l_1)(b' <| l_2)"
    for l in range(dL):
        lhs, rhs = {}, {}
        s_l = L.antipode.col(l)
        for p, q, v in pairs:
            addto(lhs, v, acts[p][l].terms(), q, dB)
            addto(rhs, v, act(basis_b[q], s_l).terms(), p * dB)
        if lhs != rhs:
            return "idempotentAction: (e1 <| l) (x) e2 != e1 (x) (e2 <| S(l))"
    return None


# (order of the cyclic L, B, basis permutation of each group element): the
# automorphism actions pass every axiom; swapping g0 and g1 of k[Z/3] is a
# module but moves 1_B, and swapping g1 and g2 of k[Z/4] fixes 1_B but is no
# algebra map, so each fails one QTGaction2 identity
PERMUTATION_ACTIONS = [
    (2, "cyclic:3", [[0, 1, 2], [0, 2, 1]]),
    (4, "cyclic:5", [[0, 1, 2, 3, 4], [0, 2, 4, 1, 3], [0, 4, 3, 2, 1], [0, 3, 1, 4, 2]]),
    (2, "matrix:2", [[0, 1, 2, 3], [3, 2, 1, 0]]),
    (2, "cyclic:3", [[0, 1, 2], [1, 0, 2]]),
    (2, "cyclic:4", [[0, 1, 2, 3], [0, 2, 1, 3]]),
]


@given(
    st.sampled_from(range(len(PERMUTATION_ACTIONS) + 2)),
    st.lists(
        st.tuples(st.integers(0, 99), st.integers(0, 99), st.sampled_from([0, 1, -1, F(1, 2), 2])),
        max_size=2,
    ),
)
@settings(max_examples=150, deadline=None)
def test_action_axioms_on_generators_match_full_loops(case, edits):
    # an action with up to two entries set to a drawn value (0 removes one);
    # the last two cases are trivial actions of k[Z/3] on k[Z/2] and of k on M_2
    if case < len(PERMUTATION_ACTIONS):
        order, B_token, perms = PERMUTATION_ACTIONS[case]
        L = hopf_group_algebra(cyclic_group_table(order))
        B, e, om = _separable_b(B_token)
        action = automorphism_action(B, L, perms)
    else:
        if case == len(PERMUTATION_ACTIONS):
            L, (B, e, om) = hopf_group_algebra(cyclic_group_table(3)), _separable_b("cyclic:2")
        else:
            L, (B, e, om) = trivial_hopf(), _separable_b("matrix:2")
        action = trivial_action(B, L)
    entries = {(r, c): v for r, c, v in action.items()}
    for r, c, v in edits:
        entries[r % action.nrows, c % action.ncols] = v
    action = Mat(action.nrows, action.ncols, [(r, c, v) for (r, c), v in entries.items()])
    expected = naive_action_failure(L, B, e, action)
    try:
        QTGInput(L, B, e, om, action)
        message = None
    except ConstructionError as exc:
        message = str(exc)
    assert message == expected


# sha256 of weak_hopf_to_json_str(qtg_build(...)) over the (L, B) pairs of the
# whopf-qtg benchmark workload, recorded before the action table of qtg_build
QTG_BUILD_DIGESTS = [
    ("trivial", "cyclic:2", "e6956b8dd24e9cab1a4c9100d7c46dc3bb3f5629429450409808ae89ce7c6953"),
    ("cyclic:2", "cyclic:2", "92d7dd73f9499ddedc7adf402b7effc5c174355a45b68b2bc5ce6c2096c156e3"),
    ("cyclic:3", "cyclic:2", "770fce27a13361b3707cd383e21b6b24cf5ecd1c407a114f3cb5204becf244dd"),
    ("cyclic:4", "cyclic:2", "bfbaaaf93c42f8a48be05960a83f2c3b82d8e0d5954f3a552c9e1e0776aa41ed"),
    ("cyclic:5", "cyclic:2", "24bdeda0c0361b001363e3eea3619fa17a531bb4e60b5437bd28bd61990945cd"),
    ("cyclic:6", "cyclic:2", "f489e1ec21721e156f39c93825387beaa2772ef291ba5f2f21e7360a1310940a"),
    ("trivial", "cyclic:3", "61507d5cbb0edfbc33e121c584f857e493131c2f2a805e300a3d06f9216b1aa7"),
    ("cyclic:2", "cyclic:3", "f6e9c7f9951b970b67211114e64b15471acc627dfe5bc840cae292996d7d2b03"),
    ("cyclic:3", "cyclic:3", "e975a3167fa7f911d90e00017d04432f22a6e8b96b2b6fcd6aeba5cf74681b68"),
    ("trivial", "cyclic:4", "3a29b0afe6578bec41022409b3e8c7fafd0ab6a85cce45578111e912df4e632e"),
    ("trivial", "matrix:2", "15cc104c703168edf28477b121a8581aed9552df333681aa25158040b1f54ef4"),
    ("cyclic:2", "matrix:2", "cf1ffd0156dada25218fb39d2b2fcae3b27e1e15a349eeedf4732d5474d852b3"),
]


@pytest.mark.parametrize("L_token, B_token, digest", QTG_BUILD_DIGESTS)
def test_qtg_build_output_is_pinned(L_token, B_token, digest):
    L = trivial_hopf()
    if L_token != "trivial":
        L = hopf_group_algebra(cyclic_group_table(int(L_token.split(":")[1])))
    kind, size = B_token.split(":")
    if kind == "matrix":
        B, e, omega = separable_matrix_algebra(int(size))
    else:
        B, e, omega = separable_group_algebra(cyclic_group_table(int(size)))
    h = qtg_build(QTGInput(L, B, e, omega, trivial_action(B, L)))
    text = weak_hopf_to_json_str(h)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _separable_b(token: str):
    kind, size = token.split(":")
    if kind == "matrix":
        return separable_matrix_algebra(int(size))
    return separable_group_algebra(cyclic_group_table(int(size)))


def _trivial_action_input(L_token: str, B_token: str) -> QTGInput:
    L = trivial_hopf()
    if L_token != "trivial":
        L = hopf_group_algebra(cyclic_group_table(int(L_token.split(":")[1])))
    B, e, omega = _separable_b(B_token)
    return QTGInput(L, B, e, omega, trivial_action(B, L))


# (order of the cyclic L, B, basis permutation of each group element) and the
# sha256 of weak_hopf_to_json_str(qtg_build(...)), recorded before qtg_build
# assembled the product from factor tables
AUTOMORPHISM_ACTIONS = [
    (2, "cyclic:3", [[0, 1, 2], [0, 2, 1]],
     "9a36e7853905ec2441946219bc568ad2efc8f91984ee87dc2bcc6abdff41ea0d"),
    (2, "cyclic:4", [[0, 1, 2, 3], [0, 3, 2, 1]],
     "2d81916c577e84353b3593e8dbb7cd9763514c319fd50123a0e8396d225cd58e"),
    (2, "cyclic:5", [[0, 1, 2, 3, 4], [0, 4, 3, 2, 1]],
     "52552a2d0e1a52b56e2a8eabab9862099af7a13d1652e9d30b940a1472c3306a"),
    (2, "matrix:2", [[0, 1, 2, 3], [3, 2, 1, 0]],
     "20bb9a98267d1314bca90d1eff9d88693ba813726d7b75209935257a4bf7a8a7"),
    (4, "cyclic:5", [[0, 1, 2, 3, 4], [0, 2, 4, 1, 3], [0, 4, 3, 2, 1], [0, 3, 1, 4, 2]],
     "14aeea78bf8faac161cdfa3dd22bbc8f461dc93bd8e0410861085894b7775382"),
]
AUTOMORPHISM_IDS = [f"Z{n}_on_{b.replace(':', '')}" for n, b, _, _ in AUTOMORPHISM_ACTIONS]


def _automorphism_input(order: int, B_token: str, perms) -> QTGInput:
    L = hopf_group_algebra(cyclic_group_table(order))
    B, e, omega = _separable_b(B_token)
    return QTGInput(L, B, e, omega, automorphism_action(B, L, perms))


@pytest.mark.parametrize("order, B_token, perms, digest", AUTOMORPHISM_ACTIONS, ids=AUTOMORPHISM_IDS)
def test_qtg_build_automorphism_output_is_pinned(order, B_token, perms, digest):
    h = qtg_build(_automorphism_input(order, B_token, perms))
    text = weak_hopf_to_json_str(h)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _per_pair_reference(q: QTGInput):
    """The structure maps of qtg_build as it assembled them before its factor
    tables: every basis pair recomputes its three factors."""
    L, B = q.L, q.B
    dB, dL = B.dim, L.dim
    dim = dB * dL * dB

    def index(a, l, b):  # row-major (a, l, b)
        return (a * dL + l) * dB + b

    def split(flat):
        a, lb = divmod(flat, dL * dB)
        return (a, *divmod(lb, dB))

    def add_tensor3(acc, coeff, first, mid, last):
        for a, ca in first.terms():
            for l, cl in mid.terms():
                addto(acc, coeff * ca * cl, last.terms(), (a * dL + l) * dB)
        return acc

    basis_b = [Vec.basis(dB, k) for k in range(dB)]
    s_cols = [L.antipode.col(j) for j in range(dL)]
    act_s = [[q.act(basis_b[b], s_cols[u]) for u in range(dL)] for b in range(dB)]
    act_e = [[q.action.col(b * dL + v) for v in range(dL)] for b in range(dB)]

    mult = {}
    for p1 in range(dim):
        a1, l1, b1 = split(p1)
        l1_pairs = L.coalgebra.delta_pairs(l1)
        for p2 in range(dim):
            a2, l2, b2 = split(p2)
            acc = {}
            for u1, u2, c1 in l1_pairs:
                first = B.mul(act_s[a2][u1], basis_b[a1])
                if first.is_zero():
                    continue
                for v1, v2, c2 in L.coalgebra.delta_pairs(l2):
                    mid = L.algebra.basis_product(u2, v1)
                    if mid.is_zero():
                        continue
                    last = B.mul(act_e[b1][v2], basis_b[b2])
                    if last.is_zero():
                        continue
                    add_tensor3(acc, c1 * c2, first, mid, last)
            if acc:
                mult[(p1, p2)] = tuple(acc.items())

    e_pairs = q.pairs
    delta_entries = []
    for col in range(dim):
        a, l, b = split(col)
        for key, c in iterated_comult(L, Vec.basis(dL, l), 3).items():
            u1, u2, u3 = key
            for p, qq, ce in e_pairs:
                left = index(a, u1, p)
                for bp, cb in act_s[qq][u2].items():
                    right = index(bp, u3, b)
                    delta_entries.append((left * dim + right, col, c * ce * cb))
    delta = Mat(dim * dim, dim, delta_entries)

    eps_entries = []
    for col in range(dim):
        a, l, b = split(col)
        acted = q.act(basis_b[b], q.s_inv.col(l))
        val = q.omega.dot(B.mul(basis_b[a], acted))
        if val:
            eps_entries.append((col, val))
    epsilon = Vec(dim, eps_entries)

    antipode_entries = []
    for col in range(dim):
        a, l, b = split(col)
        for lk, cv in s_cols[l].items():
            antipode_entries.append((index(b, lk, a), col, cv))
    antipode = Mat(dim, dim, antipode_entries)
    return mult, delta, epsilon, antipode


@pytest.mark.parametrize(
    "make, args",
    [
        *(pytest.param(_trivial_action_input, (L_token, B_token), id=f"{L_token}-{B_token}")
          for L_token, B_token, _ in QTG_BUILD_DIGESTS),
        *(pytest.param(_automorphism_input, (order, B_token, perms), id=name)
          for (order, B_token, perms, _), name in zip(AUTOMORPHISM_ACTIONS, AUTOMORPHISM_IDS)),
    ],
)
def test_qtg_build_matches_per_pair_reference(make, args):
    q = make(*args)
    h = qtg_build(q)
    mult, delta, epsilon, antipode = _per_pair_reference(q)
    assert h.algebra.mult == mult
    assert h.delta_wk == delta
    assert h.epsilon_wk == epsilon
    assert h.antipode == antipode


@pytest.mark.parametrize(
    "perms",
    [
        pytest.param([[0, 1, 2], [0, 2]], id="short"),
        pytest.param([[0, 1, 2, 3], [0, 2, 1, 3]], id="long"),
        pytest.param([[0, 1, 2], [0, 1, 1]], id="repeated"),
        pytest.param([[0, 1, 2], [0, 2, 3]], id="out_of_range"),
        pytest.param([[0, 1, 2], [-1, 1, 2]], id="negative"),
    ],
)
def test_automorphism_action_rejects_non_permutations(perms):
    L = hopf_group_algebra(cyclic_group_table(2))
    B, _, _ = separable_group_algebra(cyclic_group_table(3))
    with pytest.raises(InputError, match="not a permutation of range"):
        automorphism_action(B, L, perms)
