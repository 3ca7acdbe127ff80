"""AlgebraData keeps each nonzero product as its term tuple, admitted once.

The constructor range-checks i, j and k, admits each coefficient through
``exactlin._scalar``, drops zero terms and empty products, rejects a
repeated k, and fills ``monomial_table``, ``by_right`` and ``by_left`` in the
same pass.  The reference below is the earlier design, kept verbatim in
substance: every constructor built one ``Vec`` per product, the algebra kept
the nonzero ones, and ``monomial_table()`` and ``product_index()`` walked
them again.  Both must give the same terms with the same scalar type, the
same table and the same index, in the same order, for drawn tables and for
every constructor; ``nsy_build_oracle`` stays the independent reference of
``nsy_build``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from frobkit.errors import InputError
from frobkit.exactlin import ONE, Vec, addto
from frobkit.finalg import AlgebraData, comult_from_json, comult_to_json
from frobkit.nsy import (
    NSYParams,
    _layout,
    basis_label,
    nsy_build,
    nsy_delta,
    sweep_params,
)
from frobkit.whopf import (
    QTGInput,
    automorphism_action,
    connected_groupoid,
    cyclic_group_table,
    group_groupoid,
    hopf_group_algebra,
    pair_groupoid,
    qtg_build,
    separable_group_algebra,
    weak_hopf_from_json,
    weak_hopf_to_json,
)
from frobkit.whopf.groupoid import _groupoid_product
from nsy_oracle import basis_indices, nsy_build_oracle

# ------------------------------------------------------------ the Vec design


def vec_fields(dim: int, mult: dict) -> tuple:
    """The fields of the earlier AlgebraData over Vec products: the nonzero
    products, ``monomial_table()`` and ``product_index()``, each loop as it
    was, with the products as typed term lists."""
    clean = {}
    for (i, j), vec in mult.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise InputError(f"structure constant index ({i}, {j}) out of range")
        if vec.dim != dim:
            raise InputError(f"product vector for ({i}, {j}) has wrong dimension")
        if not vec.is_zero():
            clean[(i, j)] = vec
    table: dict | None = {}
    for (i, j), vec in clean.items():
        terms = vec.terms()
        ((k, v),) = terms if len(terms) == 1 else ((None, None),)
        if v != ONE:
            table = None
            break
        table.setdefault(i, {})[j] = k
    by_right: list[list[int]] = [[] for _ in range(dim)]
    by_left: list[list[int]] = [[] for _ in range(dim)]
    for i, j in clean:
        by_right[j].append(i)
        by_left[i].append(j)
    typed = {key: [(k, type(v), v) for k, v in vec.terms()] for key, vec in clean.items()}
    return typed, table, by_right, by_left


def fields(a: AlgebraData) -> tuple:
    typed = {key: [(k, type(c), c) for k, c in terms] for key, terms in a.mult.items()}
    assert all(type(terms) is tuple for terms in a.mult.values())
    return typed, a.monomial_table, a.by_right, a.by_left


def assert_same_algebra(a: AlgebraData, dim: int, labels: list, mult: dict, unit: Vec):
    assert (a.dim, a.labels, a.unit) == (dim, labels, unit)
    assert fields(a) == vec_fields(dim, mult)
    # the outer order of the table and of the products is that of the Vec design
    assert list(a.mult) == list(vec_fields(dim, mult)[0])


def vec_nsy_build(p: NSYParams) -> tuple:
    off, basis = _layout(p)[0], basis_indices(p)
    dim, m, n = len(basis), p.mults, p.n
    e = [Vec.adopt(dim, {k: ONE}) for k in range(dim)]
    mult = {}
    for p1, (i, j, r, s) in enumerate(basis):
        a = (i + j) % n
        for b in range(p.ell - j):
            mb = m[(a + b) % n]
            y, xy = off[a][b] + s * mb, off[i][j + b] + r * mb
            for t in range(mb):
                mult[(p1, y + t)] = e[xy + t]
    unit = Vec.adopt(dim, {off[i][0] + r * m[i] + r: ONE for i in range(n) for r in range(m[i])})
    return dim, [basis_label(b) for b in basis], mult, unit


def vec_groupoid_product(g) -> tuple:
    n = g.num_morphisms
    basis = [Vec.basis(n, k) for k in range(n)]
    mult = {(a, b): basis[k] for (a, b), k in g.compose.items()}
    unit = Vec(n, [(e, ONE) for e in g.identities.values()])
    return n, [m.name for m in g.morphisms], mult, unit


def vec_qtg_product(q: QTGInput) -> tuple:
    L, B = q.L, q.B
    dB, dL = B.dim, L.dim
    dim = dB * dL * dB
    triples = list(product(range(dB), range(dL), range(dB)))
    labels = [f"{B.labels[a]}(x){L.algebra.labels[l]}(x){B.labels[b]}" for a, l, b in triples]
    basis_b, act_s = q.basis_b, q.act_s
    firsts = [[[tuple(B.mul(act_s[a2][u], basis_b[a1]).terms()) for a1 in range(dB)]
               for u in range(dL)] for a2 in range(dB)]
    mids = [[tuple(L.algebra.basis_product(u, v).terms()) for v in range(dL)] for u in range(dL)]
    lasts = [[[tuple(B.mul(act, basis_b[b2]).terms()) for b2 in range(dB)] for act in by_v]
             for by_v in q.acts]
    comult_pairs = [L.coalgebra.delta_pairs(l) for l in range(dL)]
    mult = {}
    for p1, (a1, l1, b1) in enumerate(triples):
        for p2, (a2, l2, b2) in enumerate(triples):
            acc: dict = {}
            for u1, u2, c1 in comult_pairs[l1]:
                first = firsts[a2][u1][a1]
                if not first:
                    continue
                for v1, v2, c2 in comult_pairs[l2]:
                    last = lasts[b1][v2][b2]
                    if not last:
                        continue
                    for a, ca in first:
                        for l, cl in mids[u2][v1]:
                            addto(acc, c1 * c2 * ca * cl, last, (a * dL + l) * dB)
            if acc:
                mult[(p1, p2)] = Vec.adopt(dim, acc)
    return dim, labels, mult, B.unit.tensor(L.unit).tensor(B.unit)


def vec_json_product(payload) -> tuple:
    """The product fields of the earlier JSON decoder, on a valid payload."""
    dim = payload["dim"]
    mult: dict = {}
    for i, j, k, v in payload["mult"]:
        v = Fraction(v)
        e = mult.setdefault((i, j), {})
        if v:
            e[k] = e.get(k, 0) + v
            if not e[k]:
                del e[k]
    return {key: Vec(dim, e) for key, e in mult.items()}


# ------------------------------------------------------------ every constructor


@pytest.mark.parametrize("p", [*sweep_params(3, 3, 2), NSYParams(5, 5, (3, 2, 3, 2, 3))], ids=str)
def test_nsy_build_fields_match_vec_build_and_oracle(p):
    a = nsy_build(p)
    assert_same_algebra(a, *vec_nsy_build(p))
    oracle = nsy_build_oracle(p)
    assert (oracle.mult, oracle.unit, oracle.labels) == (a.mult, a.unit, a.labels)
    assert fields(oracle) == fields(a)


GROUPOIDS = {
    "pair1": pair_groupoid(1),
    "pair3": pair_groupoid(3),
    "connected2_z3": connected_groupoid(2, cyclic_group_table(3)),
    "connected3_z2": connected_groupoid(3, cyclic_group_table(2)),
    "group_z5": group_groupoid(cyclic_group_table(5)),
    "group_s3": group_groupoid(
        [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 4, 0, 5, 1, 3],
         [3, 5, 1, 4, 0, 2], [4, 2, 5, 0, 3, 1], [5, 3, 4, 1, 2, 0]]
    ),
}


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_groupoid_product_fields_match_vec_build(name):
    g = GROUPOIDS[name]
    assert_same_algebra(_groupoid_product(g), *vec_groupoid_product(g))


def _qtg_inputs():
    out = {}
    for order, perms in ((1, [[0, 1, 2]]), (2, [[0, 1, 2], [0, 2, 1]])):
        L = hopf_group_algebra(cyclic_group_table(order))
        B, e, om = separable_group_algebra(cyclic_group_table(3))
        out[f"kz{order}_on_kz3"] = QTGInput(L, B, e, om, automorphism_action(B, L, perms))
    return out


@pytest.mark.parametrize("name", ["kz1_on_kz3", "kz2_on_kz3", "k_mat2", "k_kz2", "kz2_kz2"])
def test_qtg_build_fields_match_vec_build(name, qtg_instances):
    q = {**qtg_instances, **_qtg_inputs()}[name]
    assert_same_algebra(qtg_build(q).algebra, *vec_qtg_product(q))


def test_json_decode_fields_match_vec_build(qtg_built, groupoid_algebras):
    payloads = [comult_to_json(nsy_delta(p)) for p in sweep_params(2, 3, 2)]
    payloads += [weak_hopf_to_json(h) for h in (*qtg_built.values(), *groupoid_algebras.values())]
    # repeated entries: two that add up to a scaled term, two that cancel
    payload = payloads[-1]
    i, j, k, _ = payload["mult"][0]
    payload["mult"] += [[i, j, k, "1/2"], [i, j, (k + 1) % payload["dim"], "-1"]]
    i, j, k, _ = payload["mult"][1]
    payload["mult"] += [[i, j, k, "-1"]]
    for payload in payloads:
        decode = weak_hopf_from_json if "delta_wk" in payload else comult_from_json
        a = decode(payload).algebra
        assert_same_algebra(a, payload["dim"], payload["labels"], vec_json_product(payload), a.unit)
    assert a.monomial_table is None


# ------------------------------------------------------------ drawn tables

SCALARS = [1, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2), "3/4"]


@st.composite
def products(draw, d: int) -> tuple:
    """A product's terms, distinct k: monomial ((k, 1),), scaled, several
    terms, some with coefficient 0, or all 0 (the product cancels)."""
    kind = draw(st.sampled_from(["monomial", "scaled", "several", "zeros", "cancel"]))
    ks = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=min(d, 3), unique=True))
    if kind == "monomial":
        return ((ks[0], 1),)
    if kind == "scaled":
        return ((ks[0], draw(st.sampled_from(SCALARS))),)
    if kind == "cancel":
        return tuple((k, 0) for k in ks)
    coeffs = st.sampled_from(SCALARS + [0] * (kind == "zeros"))
    return tuple((k, draw(coeffs)) for k in ks)


@st.composite
def tables(draw) -> tuple[int, dict]:
    d = draw(st.integers(1, 5))
    keys = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
    monomial = draw(st.booleans())
    values = st.integers(0, d - 1).map(lambda k: ((k, 1),)) if monomial else products(d)
    return d, draw(st.dictionaries(keys, values, max_size=d * d))


@settings(max_examples=300, deadline=None)
@given(tables())
def test_one_pass_admission_matches_vec_loops(drawn):
    d, mult = drawn
    labels, unit = [f"e{k}" for k in range(d)], Vec.basis(d, 0)
    a = AlgebraData(d, labels, mult, unit)
    assert_same_algebra(a, d, labels, {key: Vec(d, terms) for key, terms in mult.items()}, unit)
    assert all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1)
        for terms in a.mult.values() for _, c in terms
    )


def test_admitted_one_term_tuples_are_shared_not_copied():
    e = ((1, 1),)
    a = AlgebraData(2, ["a", "b"], {(0, 1): e, (1, 1): e, (1, 0): ((1, Fraction(2, 2)),)}, Vec(2))
    assert a.mult[0, 1] is e and a.mult[1, 1] is e
    assert a.mult[1, 0] == e and type(a.mult[1, 0][0][1]) is int


@pytest.mark.parametrize(
    "mult, message",
    [
        ({(0, 3): ((0, 1),)}, "structure constant index (0, 3) out of range"),
        ({(0, 0): ((3, 1),)}, "index 3 out of range for dimension 3"),
        ({(0, 0): ((0, 1), (-1, 2))}, "index -1 out of range for dimension 3"),
        ({(1, 2): ((0, 0.5),)}, "bad scalar 0.5: expected an int, a Fraction or a string"),
        ({(1, 2): ((0, 1), (2, 1.0))}, "bad scalar 1.0: expected an int, a Fraction or a string"),
        ({(1, 2): ((0, True),)}, "bad scalar True: expected an int, a Fraction or a string"),
        ({(1, 2): ((2, False),)}, "bad scalar False: expected an int, a Fraction or a string"),
        ({(2, 1): ((1, 1), (1, 1))}, "product (2, 1) lists index 1 more than once"),
        ({(2, 1): ((1, 1), (0, 2), (1, -1))}, "product (2, 1) lists index 1 more than once"),
        ({(2, 1): ((0, 0), (0, 0))}, "product (2, 1) lists index 0 more than once"),
    ],
)
def test_malformed_products_are_rejected(mult, message):
    with pytest.raises(InputError) as exc:
        AlgebraData(3, ["a", "b", "c"], mult, Vec.basis(3, 0))
    assert str(exc.value) == message


@pytest.mark.parametrize("terms", [((3, 1),), ((0, 0.5),), ((0, True),)])
def test_rejected_terms_read_as_the_vec_constructor_did(terms):
    """Where the Vec design rejected a product, in Vec itself, the message
    is the same."""
    with pytest.raises(InputError) as old:
        Vec(3, terms)
    with pytest.raises(InputError) as new:
        AlgebraData(3, ["a", "b", "c"], {(0, 0): terms}, Vec(3))
    assert str(new.value) == str(old.value)


def test_nsy_build_shares_one_term_tuple_per_basis_element():
    a = nsy_build(NSYParams(3, 4, (2, 1, 2)))
    assert len({id(t) for t in a.mult.values()}) <= a.dim
    assert all(len(t) == 1 and t[0][1] == 1 for t in itertools.islice(a.mult.values(), 50))


# ------------------------------------------------------------ no empty products


@pytest.fixture
def handed_mults(monkeypatch):
    """Every ``mult`` handed to AlgebraData while the test runs."""
    seen = []
    init = AlgebraData.__init__

    def spy(self, dim, labels, mult, unit):
        seen.append(dict(mult))
        init(self, dim, labels, mult, unit)

    monkeypatch.setattr(AlgebraData, "__init__", spy)
    return seen


def test_builders_hand_no_empty_product(handed_mults, qtg_instances):
    """nsy_build, _groupoid_product, qtg_build and the JSON decoder store a
    product only when it is nonzero: the constructor would drop an empty
    one, but only after its per-term admission path.  nsy_build_oracle is
    the independent reference and keeps its empties.  The per-entry decoder
    also hands over a product whose entries cancel, so that the constructor
    range-checks its pair (see test_json_codec)."""
    for p in sweep_params(3, 3, 2):
        nsy_build(p)
    for g in GROUPOIDS.values():
        _groupoid_product(g)
    for q in {**qtg_instances, **_qtg_inputs()}.values():
        qtg_build(q)
    payload = comult_to_json(nsy_delta(NSYParams(2, 3, (2, 1))))
    count = len(handed_mults)
    comult_from_json(payload)  # the bulk path
    payload["mult"].append(payload["mult"][0])  # a pair listed twice: the per-entry path
    comult_from_json(payload)
    assert len(handed_mults) == count + 2
    for mult in handed_mults:
        assert () not in mult.values()
