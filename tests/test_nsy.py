"""NSY algebra tests: dimensions, golden multiplication tables, golden
comultiplications, the counit dichotomy, and the path-model oracle.

The tables and Delta terms are read the way ``nsy table`` and ``nsy delta``
read them: off the products of nsy_build and the columns of nsy_delta,
through the labels."""

import itertools

import pytest

from frobkit.cli import main as cli_main
from frobkit.errors import InputError
from frobkit.exactlin import Vec
from frobkit.finalg import (
    CasimirElement,
    Classification,
    casimir_comult,
    check_algebra,
    check_bimodule,
    check_casimir,
    check_coassoc,
    classify,
    solve_counit,
)
from frobkit.nsy import (
    NSYParams,
    basis_label,
    counit_candidate,
    is_frobenius,
    nsy_build,
    nsy_delta,
    nsy_dimension,
    nsy_epsilon,
    sweep_params,
)

import golden
from counit_maps import eps_tensor_id, id_tensor_eps
from golden import DELTA_22_11, DELTA_22_21, P22_11, P22_21, P43_1122, P43_1212
from nsy_oracle import NSYBasisIndex, basis_indices, nakayama_permutation, nsy_build_oracle

X = NSYBasisIndex


def pos_of(p, idx):
    return basis_indices(p).index(idx)


def built_cells(p):
    """The product table of nsy_build: each cell the label of the product,
    or "0"; every nonzero product is one basis element with coefficient 1."""
    alg = nsy_build(p)
    cells = [["0"] * alg.dim for _ in range(alg.dim)]
    for (x, y), terms in alg.mult.items():
        ((k, c),) = terms
        assert c == 1
        cells[x][y] = alg.labels[k]
    return cells


def delta_columns(p):
    """Delta of each basis element as its (left, right) index pairs, in
    column order: the nsy_delta columns read through the labels."""
    comult = nsy_delta(p)
    labels, d = comult.algebra.labels, comult.algebra.dim
    index = {basis_label(b): b for b in basis_indices(p)}
    out = {}
    for j, x in enumerate(labels):
        terms = list(comult.delta.col_terms(j))
        assert all(v == 1 for _, v in terms)
        out[index[x]] = [(index[labels[t // d]], index[labels[t % d]]) for t, _ in terms]
    return out


def test_params_validation():
    with pytest.raises(InputError):
        NSYParams(0, 1, ())
    with pytest.raises(InputError):
        NSYParams(2, 0, (1, 1))
    with pytest.raises(InputError):
        NSYParams(2, 2, (1,))
    with pytest.raises(InputError):
        NSYParams(2, 2, (1, 0))


@pytest.mark.parametrize(
    "params,expected",
    [
        (P22_11, 4),
        (P22_21, 9),
        (P43_1212, 28),
        (P43_1122, 27),
        (NSYParams(1, 1, (1,)), 1),
    ],
)
def test_dimensions(params, expected):
    assert nsy_dimension(params) == expected
    assert nsy_build(params).dim == expected


def test_nakayama_permutation():
    assert nakayama_permutation(P22_11) == [1, 0]
    assert nakayama_permutation(NSYParams(3, 1, (1, 1, 1))) == [0, 1, 2]
    assert nakayama_permutation(NSYParams(4, 3, (1, 1, 1, 1))) == [2, 3, 0, 1]


def test_nakayama_fixed_points_iff_ell_is_one_mod_n():
    for n in range(1, 5):
        for ell in range(1, 6):
            perm = nakayama_permutation(NSYParams(n, ell, (1,) * n))
            has_fixed = any(perm[i] == i for i in range(n))
            assert has_fixed == ((ell - 1) % n == 0)


def test_is_frobenius():
    assert is_frobenius(P43_1212)
    assert not is_frobenius(P43_1122)
    assert is_frobenius(NSYParams(3, 2, (2, 2, 2)))
    assert not is_frobenius(P22_21)
    assert is_frobenius(P22_11)


def _table_from_positions(params, table):
    labels = [basis_label(b) for b in basis_indices(params)]
    return [[labels[k] if k >= 0 else "0" for k in row] for row in table]


def test_golden_table_22_11():
    assert built_cells(P22_11) == _table_from_positions(
        P22_11, golden.TABLE_22_11
    )


def test_golden_table_22_21():
    assert built_cells(P22_21) == _table_from_positions(
        P22_21, golden.TABLE_22_21
    )


def test_basis_order_22_21_matches_published_listing():
    assert [basis_label(b) for b in basis_indices(P22_21)] == [
        "X[0,0]^(0,0)",
        "X[0,0]^(0,1)",
        "X[0,0]^(1,0)",
        "X[0,0]^(1,1)",
        "X[0,1]^(0,0)",
        "X[0,1]^(1,0)",
        "X[1,0]^(0,0)",
        "X[1,1]^(0,0)",
        "X[1,1]^(0,1)",
    ]


def test_units():
    alg = nsy_build(P22_11)
    assert alg.unit == Vec(4, {0: 1, 2: 1})
    alg21 = nsy_build(P22_21)
    # X[0,0]^(0,0) + X[0,0]^(1,1) + X[1,0]^(0,0)
    assert alg21.unit == Vec(9, {0: 1, 3: 1, 6: 1})


def test_published_product_examples():
    alg = nsy_build(P22_11)
    p = {idx: k for k, idx in enumerate(basis_indices(P22_11))}
    assert alg.basis_product(p[X(0, 0, 0, 0)], p[X(0, 1, 0, 0)]) == Vec.basis(4, p[X(0, 1, 0, 0)])
    assert alg.basis_product(p[X(0, 1, 0, 0)], p[X(0, 1, 0, 0)]).is_zero()

    alg21 = nsy_build(P22_21)
    q = {idx: k for k, idx in enumerate(basis_indices(P22_21))}
    assert alg21.basis_product(q[X(0, 0, 0, 1)], q[X(0, 0, 1, 0)]) == Vec.basis(9, q[X(0, 0, 0, 0)])
    assert alg21.basis_product(q[X(0, 1, 0, 0)], q[X(1, 0, 0, 0)]) == Vec.basis(9, q[X(0, 1, 0, 0)])


def test_unitality_b43_1122():
    alg = nsy_build(P43_1122)
    for k in range(alg.dim):
        ek = Vec.basis(alg.dim, k)
        assert alg.mul(alg.unit, ek) == ek
        assert alg.mul(ek, alg.unit) == ek


def test_golden_delta_22_11():
    got = delta_columns(P22_11)
    for idx, expected in DELTA_22_11.items():
        assert sorted(got[idx]) == sorted(expected)


def test_golden_delta_22_21_all_nine():
    assert len(DELTA_22_21) == 9
    got = delta_columns(P22_21)
    for idx, expected in DELTA_22_21.items():
        assert sorted(got[idx]) == sorted(expected), idx


def test_golden_delta_43_1212():
    got = delta_columns(P43_1212)
    for idx, expected in golden.DELTA_43_1212.items():
        assert sorted(got[idx]) == sorted(expected)


def test_golden_delta_43_1122():
    got = delta_columns(P43_1122)
    for idx, expected in golden.DELTA_43_1122.items():
        assert sorted(got[idx]) == sorted(expected)


def test_epsilon_golden_22_11():
    eps = nsy_epsilon(P22_11)
    p = {idx: k for k, idx in enumerate(basis_indices(P22_11))}
    assert eps.get(p[X(0, 1, 0, 0)]) == 1
    assert eps.get(p[X(1, 1, 0, 0)]) == 1
    assert eps.get(p[X(0, 0, 0, 0)]) == 0
    assert eps.get(p[X(1, 0, 0, 0)]) == 0
    assert solve_counit(nsy_delta(P22_11)) == eps


def test_epsilon_counitality_43_1212():
    comult = nsy_delta(P43_1212)
    eps = nsy_epsilon(P43_1212)
    alg = comult.algebra
    j = pos_of(P43_1212, X(2, 1, 0, 1))
    ej = Vec.basis(alg.dim, j)
    assert eps_tensor_id(comult, eps).col(j) == ej
    assert id_tensor_eps(comult, eps).col(j) == ej


def test_counit_mismatch_22_21():
    comult = nsy_delta(P22_21)
    cand = counit_candidate(P22_21)
    j = pos_of(P22_21, X(0, 0, 0, 0))
    d = comult.algebra.dim
    left = eps_tensor_id(comult, cand).col(j)
    right = id_tensor_eps(comult, cand).col(j)
    assert left == Vec(
        d, {pos_of(P22_21, X(0, 0, 0, 0)): 1, pos_of(P22_21, X(0, 0, 1, 0)): 1}
    )
    assert right == Vec(
        d, {pos_of(P22_21, X(0, 0, 0, 0)): 1, pos_of(P22_21, X(0, 0, 0, 1)): 1}
    )
    assert solve_counit(comult) is None
    assert nsy_epsilon(P22_21) is None


def test_counit_mismatch_43_1122():
    comult = nsy_delta(P43_1122)
    cand = counit_candidate(P43_1122)
    j = pos_of(P43_1122, X(2, 1, 0, 1))
    d = comult.algebra.dim
    left = eps_tensor_id(comult, cand).col(j)
    right = id_tensor_eps(comult, cand).col(j)
    assert left == Vec(
        d, {pos_of(P43_1122, X(2, 1, 0, 1)): 1, pos_of(P43_1122, X(2, 1, 1, 1)): 1}
    )
    assert right.is_zero()
    assert solve_counit(comult) is None


@pytest.mark.parametrize(
    "params",
    [P22_11, P22_21, NSYParams(1, 1, (3,)), NSYParams(3, 2, (2, 1, 2)), NSYParams(2, 3, (1, 2))],
)
def test_oracle_matches_build(params):
    built = nsy_build(params)
    oracle = nsy_build_oracle(params)
    assert built.mult == oracle.mult
    assert built.unit == oracle.unit
    assert built.labels == oracle.labels


@pytest.mark.slow
def test_oracle_matches_build_on_nsy_check_box():
    """n 2-5, ell 2-5, m_i 1-3 up to dim 79: the nsy-check benchmark box."""
    box = [
        NSYParams(n, ell, mults)
        for n in range(2, 6)
        for ell in range(2, 6)
        for mults in itertools.product(range(1, 4), repeat=n)
    ]
    box = [p for p in box if nsy_dimension(p) <= 79]
    assert len(box) == 957
    mismatches = []
    for p in box:
        built, oracle = nsy_build(p), nsy_build_oracle(p)
        if (built.mult, built.unit, built.labels) != (oracle.mult, oracle.unit, oracle.labels):
            mismatches.append(p)
    assert mismatches == []


def test_oracle_single_vertex_is_matrix_units():
    p = NSYParams(1, 1, (3,))
    alg = nsy_build_oracle(p)
    pos = {idx: k for k, idx in enumerate(basis_indices(p))}
    for r in range(3):
        for s in range(3):
            for r2 in range(3):
                for s2 in range(3):
                    prod = alg.basis_product(pos[X(0, 0, r, s)], pos[X(0, 0, r2, s2)])
                    if s == r2:
                        assert prod == Vec.basis(9, pos[X(0, 0, r, s2)])
                    else:
                        assert prod.is_zero()


def test_ell_one_gives_product_of_matrix_algebras():
    p = NSYParams(2, 1, (2, 3))
    alg = nsy_build(p)
    assert alg.mult == nsy_build_oracle(p).mult
    pos = {idx: k for k, idx in enumerate(basis_indices(p))}
    for i in range(2):
        for i2 in range(2):
            for r in range(p.mults[i]):
                for s in range(p.mults[i]):
                    for r2 in range(p.mults[i2]):
                        for s2 in range(p.mults[i2]):
                            prod = alg.basis_product(
                                pos[X(i, 0, r, s)], pos[X(i2, 0, r2, s2)]
                            )
                            if i == i2 and s == r2:
                                assert prod == Vec.basis(alg.dim, pos[X(i, 0, r, s2)])
                            else:
                                assert prod.is_zero()


def test_all_ones_multiplicities_simplified_delta():
    for n, ell in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        p = NSYParams(n, ell, (1,) * n)
        got = delta_columns(p)
        assert list(got) == basis_indices(p)
        for idx in basis_indices(p):
            expected = [
                (
                    X(idx.i, idx.j + k, 0, 0),
                    X((idx.i + idx.j + k - ell + 1) % n, ell - 1 - k, 0, 0),
                )
                for k in range(ell - idx.j)
            ]
            assert got[idx] == expected
        # eps(X[i,j]) = [j == ell-1]
        eps = nsy_epsilon(p)
        for pos, idx in enumerate(basis_indices(p)):
            assert eps.get(pos) == (1 if idx.j == ell - 1 else 0)


def test_named_instances_pass_all_checks():
    for p in [P22_11, P22_21, P43_1212, P43_1122]:
        alg = nsy_build(p)
        assert check_algebra(alg).passed
        comult = nsy_delta(p, alg)
        assert check_coassoc(comult).passed
        assert check_bimodule(comult).passed
        cas = CasimirElement(alg, comult.delta.matvec(alg.unit))
        assert check_casimir(cas).passed


def test_casimir_of_22_11_matches_published_value():
    alg = nsy_build(P22_11)
    comult = nsy_delta(P22_11, alg)
    p = {idx: k for k, idx in enumerate(basis_indices(P22_11))}
    d = alg.dim
    expected = Vec(
        d * d,
        {
            p[X(0, 0, 0, 0)] * d + p[X(1, 1, 0, 0)]: 1,
            p[X(0, 1, 0, 0)] * d + p[X(0, 0, 0, 0)]: 1,
            p[X(1, 0, 0, 0)] * d + p[X(0, 1, 0, 0)]: 1,
            p[X(1, 1, 0, 0)] * d + p[X(1, 0, 0, 0)]: 1,
        },
    )
    assert comult.delta.matvec(alg.unit) == expected


def test_dimension_formula_matches_basis_count():
    for p in sweep_params(3, 3, 2):
        assert nsy_dimension(p) == len(basis_indices(p))


def test_dimension_closed_form_matches_the_double_sum():
    """ell below, at and many times past n: the full turns of the cycle and
    the window of the last ell mod n steps."""
    for p in sweep_params(4, 11, 3):
        direct = sum(p.mults[i] * p.mult_at(i + j) for i in range(p.n) for j in range(p.ell))
        assert nsy_dimension(p) == direct, p


def test_casimir_rebuild_recovers_delta():
    # Delta(x) = a_i (x) b_i x with a_i (x) b_i = Delta(1), so rebuilding the
    # comultiplication from its own Casimir element is the identity operation
    for p in sweep_params(3, 3, 2):
        alg = nsy_build(p)
        comult = nsy_delta(p, alg)
        cas = CasimirElement(alg, comult.delta.matvec(alg.unit))
        assert casimir_comult(cas).delta == comult.delta, p


def test_classify_named_instances():
    assert classify(nsy_delta(P43_1212)) is Classification.FROBENIUS
    assert classify(nsy_delta(P43_1122)) is Classification.NON_COUNITAL_ONLY
    assert classify(nsy_delta(P22_11)) is Classification.FROBENIUS
    assert classify(nsy_delta(P22_21)) is Classification.NON_COUNITAL_ONLY


def test_markdown_table_golden_22_11(capsys):
    assert cli_main(["nsy", "table", "n=2", "ell=2", "m=1,1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == (
        "| * | X[0,0]^(0,0) | X[0,1]^(0,0) | X[1,0]^(0,0) | X[1,1]^(0,0) |"
    )
    assert lines[2] == (
        "| X[0,0]^(0,0) | X[0,0]^(0,0) | X[0,1]^(0,0) | 0 | 0 |"
    )
    assert lines[5] == "| X[1,1]^(0,0) | X[1,1]^(0,0) | 0 | 0 | 0 |"
