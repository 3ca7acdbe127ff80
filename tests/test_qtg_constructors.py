"""The QTG inputs come from the shared constructors: the separable base
algebras are groupoid algebras, b <| l is Mat.matvec on a Vec.tensor, and
the triple tensors of qtg.py are Vec.tensor chains.  Each is compared with a
verbatim copy of the hand-built code it replaced."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import frobkit.whopf.qtg as qtg_mod
from frobkit.errors import InputError
from frobkit.exactlin import ONE, Vec, addto
from frobkit.finalg import AlgebraData
from frobkit.whopf import (
    QTGInput,
    automorphism_action,
    cyclic_group_table,
    hopf_group_algebra,
    separable_group_algebra,
    separable_matrix_algebra,
    trivial_action,
    trivial_hopf,
)
from frobkit.whopf.groupoid import _group_of

S3_TABLE = [  # permutations of {0, 1, 2} in lexicographic order, composed
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 4, 0, 5, 1, 3],
    [3, 5, 1, 4, 0, 2],
    [4, 2, 5, 0, 3, 1],
    [5, 3, 4, 1, 2, 0],
]

# a loop (identity and two-sided inverses) that is not associative; neither
# constructor checks associativity, QTGInput does
LOOP5_TABLE = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


# -- verbatim copies of the hand-built constructors --------------------------
def reference_separable_matrix_algebra(d: int) -> tuple[AlgebraData, Vec, Vec]:
    """d x d matrix units with e = (1/d) sum E_ij (x) E_ji and w = d * trace."""
    if d < 1:
        raise InputError("matrix size must be >= 1")
    dim = d * d
    pos = {(i, j): i * d + j for i in range(d) for j in range(d)}
    labels = [f"E[{i},{j}]" for i in range(d) for j in range(d)]
    mult = {}
    for (i, j), p in pos.items():
        for (k, l), q in pos.items():
            if j == k:
                mult[(p, q)] = ((pos[(i, l)], ONE),)
    unit = Vec(dim, [(pos[(i, i)], ONE) for i in range(d)])
    algebra = AlgebraData(dim, labels, mult, unit)
    inv_d = Fraction(1, d)
    e = Vec(
        dim * dim,
        [
            (pos[(i, j)] * dim + pos[(j, i)], inv_d)
            for i in range(d)
            for j in range(d)
        ],
    )
    omega = Vec(dim, [(pos[(i, i)], Fraction(d)) for i in range(d)])
    return algebra, e, omega


def reference_separable_group_algebra(table: list[list[int]]) -> tuple[AlgebraData, Vec, Vec]:
    """Group algebra with e = (1/|G|) sum g (x) g^{-1} and w(g) = |G| [g = 1]."""
    n = len(table)
    ident, inv = _group_of(table)
    labels = [f"g{k}" for k in range(n)]
    mult = {(a, b): ((table[a][b], ONE),) for a in range(n) for b in range(n)}
    algebra = AlgebraData(n, labels, mult, Vec.basis(n, ident))
    inv_n = Fraction(1, n)
    e = Vec(n * n, [(g * n + inv[g], inv_n) for g in range(n)])
    omega = Vec(n, {ident: Fraction(n)})
    return algebra, e, omega


def _typed(v: Vec) -> list:
    """Entries with the type of each value, so int and Fraction differ."""
    return [(k, type(x), x) for k, x in v.items()]


def _assert_same(new, old):
    (b, e, w), (b0, e0, w0) = new, old
    assert b.dim == b0.dim
    assert b.labels == b0.labels
    assert dict(b.mult) == dict(b0.mult)
    assert _typed(b.unit) == _typed(b0.unit)
    assert _typed(e) == _typed(e0)
    assert _typed(w) == _typed(w0)


@pytest.mark.parametrize("d", range(1, 6))
def test_separable_matrix_algebra_matches_hand_built(d):
    _assert_same(separable_matrix_algebra(d), reference_separable_matrix_algebra(d))


@pytest.mark.parametrize(
    "table",
    [pytest.param(cyclic_group_table(n), id=f"cyclic{n}") for n in range(1, 9)]
    + [pytest.param(S3_TABLE, id="S3"), pytest.param(LOOP5_TABLE, id="loop5")],
)
def test_separable_group_algebra_matches_hand_built(table):
    _assert_same(separable_group_algebra(table), reference_separable_group_algebra(table))


@pytest.mark.parametrize(
    "table",
    [
        pytest.param([], id="empty"),
        pytest.param([[0, 1], [1]], id="not_square"),
        pytest.param([[0, 5], [5, 0]], id="out_of_range"),
        pytest.param([[1, 1], [1, 1]], id="no_identity"),
        pytest.param([[0, 1], [1, 1]], id="no_inverse"),
    ],
)
def test_separable_group_algebra_rejects_non_groups_alike(table):
    with pytest.raises(InputError) as old:
        reference_separable_group_algebra(table)
    with pytest.raises(InputError) as new:
        separable_group_algebra(table)
    assert str(new.value) == str(old.value)


@pytest.mark.parametrize("d", [0, -1])
def test_separable_matrix_algebra_keeps_its_size_message(d):
    with pytest.raises(InputError, match="matrix size must be >= 1"):
        separable_matrix_algebra(d)


# -- b <| l and the triple tensor ---------------------------------------------
def reference_act(q: QTGInput, b: Vec, l: Vec) -> Vec:
    """Bilinear b <| l, as the double loop it replaced."""
    acc: dict[int, Fraction] = {}
    for bi, cb in b.terms():
        for li, cl in l.terms():
            addto(acc, cb * cl, q.action.col_terms(bi * q.L.dim + li))
    return Vec.adopt(q.B.dim, acc)


def reference_add_tensor3(acc: dict, coeff, q: QTGInput, first: Vec, mid: Vec, last: Vec) -> dict:
    """acc += coeff * first (x) mid (x) last over B^op (x) L (x) B."""
    dL, dB = q.L.dim, q.B.dim
    for a, ca in first.terms():
        for l, cl in mid.terms():
            addto(acc, coeff * ca * cl, last.terms(), (a * dL + l) * dB)
    return acc


def reference_tensor3(q: QTGInput, first: Vec, mid: Vec, last: Vec) -> Vec:
    """first (x) mid (x) last as a vector over B^op (x) L (x) B."""
    return Vec.adopt(q.B.dim * q.L.dim * q.B.dim, reference_add_tensor3({}, 1, q, first, mid, last))


def _inputs() -> dict[str, QTGInput]:
    out = {}
    for name, (B, e, om) in {
        "kz3": separable_group_algebra(cyclic_group_table(3)),
        "mat2": separable_matrix_algebra(2),
    }.items():
        for L_name, L in {"k": trivial_hopf(), "kz2": hopf_group_algebra(cyclic_group_table(2))}.items():
            out[f"{L_name}_{name}_trivial"] = QTGInput(L, B, e, om, trivial_action(B, L))
    B, e, om = separable_group_algebra(cyclic_group_table(3))
    L = hopf_group_algebra(cyclic_group_table(2))
    out["kz2_kz3_inverse"] = QTGInput(L, B, e, om, automorphism_action(B, L, [[0, 1, 2], [0, 2, 1]]))
    B, e, om = separable_matrix_algebra(2)  # g acts by conjugation with the swap matrix
    out["kz2_mat2_swap"] = QTGInput(L, B, e, om, automorphism_action(B, L, [[0, 1, 2, 3], [3, 2, 1, 0]]))
    return out


INPUTS = _inputs()

_scalars = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(-3, 3, max_denominator=4).filter(bool),
)


def _sparse(dim: int):
    return st.lists(st.tuples(st.integers(0, dim - 1), _scalars), max_size=4).map(
        lambda entries: Vec(dim, entries)
    )


@st.composite
def _act_case(draw):
    q = INPUTS[draw(st.sampled_from(sorted(INPUTS)))]
    return q, draw(_sparse(q.B.dim)), draw(_sparse(q.L.dim))


@given(_act_case())
@settings(max_examples=150, deadline=None)
def test_act_matches_double_loop(case):
    q, b, l = case
    assert _typed(q.act(b, l)) == _typed(reference_act(q, b, l))


@st.composite
def _tensor_case(draw):
    q = INPUTS[draw(st.sampled_from(sorted(INPUTS)))]
    dB, dL = q.B.dim, q.L.dim
    return q, draw(_sparse(dB)), draw(_sparse(dL)), draw(_sparse(dB)), draw(_scalars)


@given(_tensor_case())
@settings(max_examples=150, deadline=None)
def test_tensor_chain_matches_tensor3(case):
    q, first, mid, last, coeff = case
    chain = first.tensor(mid).tensor(last)
    assert _typed(chain) == _typed(reference_tensor3(q, first, mid, last))
    acc = addto({}, coeff, chain.terms())
    ref = reference_add_tensor3({}, coeff, q, first, mid, last)
    assert list(acc.items()) == list(ref.items())
    assert [type(v) for v in acc.values()] == [type(v) for v in ref.values()]


# -- guard ----------------------------------------------------------------------
def test_qtg_module_keeps_to_the_shared_constructors():
    """qtg.py builds an algebra only for the quantum transformation groupoid
    itself (in qtg_build): the base algebras come from the groupoid
    constructor, there are no private tensor kernels, and the Casimir
    identity of e is decided through the public check_casimir, not by a
    private Casimir evaluator."""
    tree = ast.parse(Path(qtg_mod.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_tensor3", "_add_tensor3"}
    builders = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "AlgebraData":
                builders.append(getattr(top, "name", f"line {node.lineno}"))
    assert builders == ["qtg_build"]
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not [name for name in imported if name.startswith("_") and "casimir" in name]
