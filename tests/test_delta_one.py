"""check_bimodule, check_coassoc and check_casimir_of_delta against the naive
references of test_witness.py, now that all three are decided from Delta(1)
when Delta is the bimodule map of a Casimir element over an associative
algebra.

Cases: NSY, group and M_2 comultiplications (plus the grouplike Delta on a
group algebra, which is not a bimodule map) with delta entries added,
removed or rescaled in any column, the unit's support included; algebras
whose mult is corrupted so check_algebra fails; and one-sided Deltas
Delta(x) = X x or x X whose X is not Casimir.  Every result must agree with the
reference on the passed flag, witness indices, lhs, rhs and note.

The pairwise bimodule scan visits only pairs where some side can be nonzero,
and the Casimir products walk only nonzero basis products; the cases below
with first witnesses at a pair whose product e_i e_j is zero, products added
outside the algebra's support, and corrupted Casimir elements pin both.

Both scans run on the residuals of Delta against Delta(1) and visit only the
rows and columns those touch.  Entries added in two or three distinct
columns, inside the unit's support (Delta(1) changes and may fail the
Casimir identity, so the record keeps X = 0 and both scans run on Delta
itself) and removed entries pin the row and column sets; a spy pins that on one added
entry off the unit's support fewer than d of each are visited.
"""

import random
from fractions import Fraction
from functools import cache

from hypothesis import assume, given, settings, strategies as st

import pytest

from test_witness import (
    corrupted_comult,
    naive_bimodule,
    naive_casimir,
    naive_coassoc,
    seeded_params,
)

from frobkit import finalg
from frobkit.exactlin import LinearSystem, Mat, Vec
from frobkit.finalg import (
    AlgebraData,
    CasimirElement,
    ComultData,
    _delta_one,
    casimir_comult,
    check_algebra,
    check_bimodule,
    check_casimir,
    check_casimir_of_delta,
    check_coassoc,
)
from frobkit.nsy import NSYParams, nsy_build, nsy_delta
from frobkit.whopf import cyclic_group_table, separable_group_algebra, separable_matrix_algebra

NOTES = {
    "coassociativity": "(Delta(x)id)Delta != (id(x)Delta)Delta",
    "bimodule_right": "(id(x)m)(Delta(x)id) != Delta m",
    "bimodule_left": "(m(x)id)(id(x)Delta) != Delta m",
    "casimir": "a_i (x) b_i x != x a_i (x) b_i",
}
SCALARS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)]
NSY_PARAMS = {
    "nsy_1_2_2": NSYParams(1, 2, (2,)),
    "nsy_2_2_12": NSYParams(2, 2, (1, 2)),
    "nsy_3_2_112": NSYParams(3, 2, (1, 1, 2)),
}
BIMODULE_CASES = [*NSY_PARAMS, "z3", "m2"]
CASES = [*BIMODULE_CASES, "z3_grouplike"]


def from_delta_one(c: ComultData) -> bool:
    """Whether solve_counit solves ``c`` from Delta(1): its _delta_one record
    is Casimir with no residual."""
    rec = _delta_one(c)
    return rec.casimir and not rec.residuals


@cache
def base_comult(name: str) -> ComultData:
    if name in NSY_PARAMS:
        p = NSY_PARAMS[name]
        return nsy_delta(p, nsy_build(p))
    if name == "m2":
        algebra, e, _ = separable_matrix_algebra(2)
    else:
        algebra, e, _ = separable_group_algebra(cyclic_group_table(3))
    if name == "z3_grouplike":
        d = algebra.dim
        return ComultData(algebra, Mat(d * d, d, [(j * d + j, j, 1) for j in range(d)]))
    return casimir_comult(CasimirElement(algebra, e))


def outcome(result):
    w = result.witness
    return result.passed, None if w is None else (w.indices, w.lhs, w.rhs, w.note)


def reference_outcome(name, ref):
    return ref is None, None if ref is None else (*ref, NOTES[name])


def assert_matches_reference(c: ComultData) -> None:
    (coassoc,) = check_coassoc(c).checks
    right, left = check_bimodule(c).checks
    ref_right, ref_left = naive_bimodule(c)
    assert outcome(coassoc) == reference_outcome("coassociativity", naive_coassoc(c))
    assert outcome(right) == reference_outcome("bimodule_right", ref_right)
    assert outcome(left) == reference_outcome("bimodule_left", ref_left)
    (casimir,) = check_casimir_of_delta(c).checks
    ref_casimir = naive_casimir(CasimirElement(c.algebra, c.delta_of(c.algebra.unit)))
    assert outcome(casimir) == reference_outcome("casimir", ref_casimir)


@st.composite
def edited_comult(draw):
    c = base_comult(draw(st.sampled_from(CASES)))
    d = c.algebra.dim
    entries = {(t, j): v for t, j, v in c.delta.items()}
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.one_of(st.sampled_from(c.algebra.unit.support()), st.integers(0, d - 1)))
        present = sorted(t for t, k in entries if k == j)
        op = draw(st.sampled_from(["add", "remove", "rescale"]))
        if op == "add" or not present:
            t = draw(st.integers(0, d * d - 1))
            entries[(t, j)] = entries.get((t, j), 0) + draw(st.sampled_from(SCALARS))
        else:
            t = draw(st.sampled_from(present))
            if op == "remove":
                del entries[(t, j)]
            else:
                entries[(t, j)] *= draw(st.sampled_from(SCALARS))
    return ComultData(c.algebra, Mat(d * d, d, [(t, j, v) for (t, j), v in entries.items()]))


@settings(max_examples=60, deadline=None)
@given(edited_comult())
def test_edited_delta_matches_reference(c):
    assert_matches_reference(c)


def test_unperturbed_bimodule_maps_take_the_delta_one_path():
    for name in BIMODULE_CASES:
        c = base_comult(name)
        fresh = ComultData(c.algebra, c.delta)
        assert from_delta_one(fresh), name
        assert check_coassoc(fresh).passed and check_bimodule(fresh).passed, name
    grouplike = base_comult("z3_grouplike")
    assert not from_delta_one(ComultData(grouplike.algebra, grouplike.delta))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(BIMODULE_CASES), st.data())
def test_corrupted_mult_runs_the_scan(name, data):
    c = base_comult(name)
    a = c.algebra
    d = a.dim
    mult = dict(a.mult)
    index = st.integers(0, d - 1)
    key = data.draw(st.one_of(st.sampled_from(sorted(mult)), st.tuples(index, index)))
    if data.draw(st.booleans()) and key in mult:
        del mult[key]
    else:
        prod = Vec(d, mult.get(key, ())) + Vec.basis(d, data.draw(st.integers(0, d - 1)))
        mult[key] = tuple(prod.terms())
    broken = AlgebraData(d, a.labels, mult, a.unit)
    assume(not check_algebra(broken).passed)
    c = ComultData(broken, c.delta)
    assert not from_delta_one(c)
    assert_matches_reference(c)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BIMODULE_CASES), st.sampled_from(["right", "left"]), st.data())
def test_one_sided_delta_matches_reference(name, side, data):
    """Delta(x) = X x (right-linear) or x X (left-linear) for X = Delta(1)
    plus one entry: linear on the other side only when X is still Casimir."""
    a = base_comult(name).algebra
    d = a.dim
    e = [Vec.basis(d, k) for k in range(d)]
    t = data.draw(st.integers(0, d * d - 1))
    x = base_comult(name).delta_of(a.unit) + Vec(d * d, {t: data.draw(st.sampled_from(SCALARS))})
    cols = []
    for j in range(d):
        col = Vec(d * d)
        for flat, v in x.terms():
            p, q = divmod(flat, d)
            if side == "right":
                col = col + e[p].tensor(a.mul(e[q], e[j])).scale(v)
            else:
                col = col + a.mul(e[j], e[p]).tensor(e[q]).scale(v)
        cols.append(col)
    c = ComultData(a, Mat.from_columns(d * d, cols))
    assert naive_bimodule(c)[0 if side == "right" else 1] is None
    assert_matches_reference(c)


def non_associative_kxk() -> AlgebraData:
    """k x k with e_1 e_1 = e_0 + e_1 and 1 = e_0 + e_1: neither associative
    nor unital."""
    e0, e1 = Vec.basis(2, 0), Vec.basis(2, 1)
    return AlgebraData(2, ["e0", "e1"], {(0, 0): ((0, 1),), (1, 1): ((0, 1), (1, 1))}, e0 + e1)


def broken_kxk_comult() -> ComultData:
    """Delta(e_0) = e_0 (x) e_0, Delta(e_1) = 0 on :func:`non_associative_kxk`."""
    return ComultData(non_associative_kxk(), Mat(4, 2, [(0, 0, 1)]))


def test_non_associative_algebra_is_not_decided_from_delta_one():
    """Delta(e_j) = Delta(1) e_j = e_j Delta(1) holds for broken_kxk_comult,
    but the algebra fails check_algebra and Delta(e_1) e_1 != Delta(e_1 e_1)."""
    c = broken_kxk_comult()
    assert not from_delta_one(c)
    assert not check_bimodule(c).passed
    assert_matches_reference(c)


@cache
def casimir_space(name: str) -> list[Vec]:
    return casimir_basis(base_comult(name).algebra)


def casimir_basis(a: AlgebraData) -> list[Vec]:
    """Exact basis of {X : X e_x = e_x X for all x} in the tensor square."""
    d = a.dim
    e = [Vec.basis(d, k) for k in range(d)]
    entries = []
    for p in range(d):
        for q in range(d):
            for x in range(d):
                diff = e[p].tensor(a.mul(e[q], e[x])) - a.mul(e[x], e[p]).tensor(e[q])
                entries += [(x * d * d + s, p * d + q, v) for s, v in diff.terms()]
    sys_ = LinearSystem(d * d)
    sys_.add_matrix(Mat(d**3, d * d, entries))
    return sys_.kernel()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(BIMODULE_CASES), st.data())
def test_casimir_comult_of_any_casimir_element_is_coassociative(name, data):
    a = base_comult(name).algebra
    d = a.dim
    element = Vec(d * d)
    for b in casimir_space(name):
        element = element + b.scale(data.draw(st.sampled_from([Fraction(0), *SCALARS])))
    c = casimir_comult(CasimirElement(a, element))
    assert naive_coassoc(c) is None
    assert naive_bimodule(c) == (None, None)


def test_check_algebra_report_is_kept():
    a = base_comult("m2").algebra
    assert check_algebra(a) is check_algebra(a)


def with_delta_entry(c: ComultData, column: int, flat: int, value=Fraction(1)) -> ComultData:
    d = c.algebra.dim
    return ComultData(c.algebra, Mat(d * d, d, c.delta.items() + [(flat, column, value)]))


@pytest.mark.parametrize(
    "name, side, column, flat",
    [
        ("nsy_2_2_12", 0, 3, 52),
        ("nsy_3_2_112", 0, 5, 101),
        ("nsy_1_2_2", 1, 3, 6),
        ("nsy_2_2_12", 1, 4, 45),
        ("m2", 1, 3, 5),
        # in the unit's support, so Delta(1) fails the Casimir identity
        ("nsy_2_2_12", 0, 3, 0),
        ("nsy_3_2_112", 1, 2, 0),
        ("m2", 1, 3, 1),
    ],
)
def test_first_witness_at_a_zero_product(name, side, column, flat):
    """One added delta entry whose first right (side 0) or left (side 1)
    witness sits at a pair (i, j) with e_i e_j = 0: zero target, nonzero lhs.
    Outside the unit's support the residual loops run with L = R; inside
    it, with L from the full e_x X pass."""
    c = with_delta_entry(base_comult(name), column, flat)
    indices, lhs, target = naive_bimodule(c)[side]
    assert c.algebra.basis_product(*indices).is_zero()
    assert target.is_zero() and not lhs.is_zero()
    assert_matches_reference(c)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([*NSY_PARAMS, "m2"]), st.data())
def test_added_delta_entry_matches_reference(name, data):
    c = base_comult(name)
    d = c.algebra.dim
    column = data.draw(st.integers(0, d - 1))
    flat = data.draw(st.integers(0, d * d - 1))
    assert_matches_reference(with_delta_entry(c, column, flat, data.draw(st.sampled_from(SCALARS))))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(BIMODULE_CASES), st.data())
def test_product_outside_support_matches_reference(name, data):
    """mult gains e_i e_j = e_k for a pair (i, j) whose product was zero."""
    c = base_comult(name)
    a = c.algebra
    d = a.dim
    index = st.integers(0, d - 1)
    key = data.draw(st.tuples(index, index).filter(lambda key: key not in a.mult))
    mult = {**a.mult, key: ((data.draw(index), 1),)}
    assert_matches_reference(ComultData(AlgebraData(d, a.labels, mult, a.unit), c.delta))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BIMODULE_CASES), st.data())
def test_corrupted_casimir_element_matches_reference(name, data):
    """check_casimir on Delta(1) with entries added, removed or rescaled."""
    c = base_comult(name)
    a = c.algebra
    d = a.dim
    entries = dict(c.delta_of(a.unit).terms())
    for _ in range(data.draw(st.integers(1, 2))):
        op = data.draw(st.sampled_from(["add", "remove", "rescale"]))
        if op == "add" or not entries:
            t = data.draw(st.integers(0, d * d - 1))
            entries[t] = entries.get(t, 0) + data.draw(st.sampled_from(SCALARS))
        else:
            t = data.draw(st.sampled_from(sorted(entries)))
            if op == "remove":
                del entries[t]
            else:
                entries[t] *= data.draw(st.sampled_from(SCALARS))
    cas = CasimirElement(a, Vec(d * d, entries))
    (result,) = check_casimir(cas).checks
    ref = naive_casimir(cas)
    expected = None if ref is None else (*ref, "a_i (x) b_i x != x a_i (x) b_i")
    assert outcome(result) == (ref is None, expected)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BIMODULE_CASES), st.data())
def test_entries_added_in_distinct_columns_match_reference(name, data):
    """Two or three residual columns: the rows and columns of the residual
    loops are the union of what each one touches."""
    c = base_comult(name)
    d = c.algebra.dim
    columns = data.draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=3, unique=True))
    for j in columns:
        c = with_delta_entry(
            c, j, data.draw(st.integers(0, d * d - 1)), data.draw(st.sampled_from(SCALARS))
        )
    if not set(columns) & set(c.algebra.unit.support()):
        assert sorted(_delta_one(c).residuals) == sorted(columns)
    assert_matches_reference(c)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BIMODULE_CASES), st.data())
def test_entry_added_in_the_unit_support_matches_reference(name, data):
    """Delta(1) changes and may fail the Casimir identity: then the record
    keeps X = 0, whose residuals are the nonzero columns of Delta."""
    c = base_comult(name)
    a = c.algebra
    d = a.dim
    column = data.draw(st.sampled_from(a.unit.support()))
    edited = with_delta_entry(
        c, column, data.draw(st.integers(0, d * d - 1)), data.draw(st.sampled_from(SCALARS))
    )
    assert edited.delta_of(a.unit) != c.delta_of(a.unit)
    rec = _delta_one(edited)
    assert rec.casimir == check_casimir(CasimirElement(a, edited.delta_of(a.unit))).passed
    if not rec.casimir:
        columns = {j: dict(edited.delta.col_terms(j)) for j in range(d)}
        assert rec.x.is_zero() and rec.residuals == {j: col for j, col in columns.items() if col}
    assert_matches_reference(edited)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CASES), st.data())
def test_removed_entry_matches_reference(name, data):
    c = base_comult(name)
    d = c.algebra.dim
    t, j, _ = data.draw(st.sampled_from(c.delta.items()))
    kept = [(r, k, v) for r, k, v in c.delta.items() if (r, k) != (t, j)]
    assert_matches_reference(ComultData(c.algebra, Mat(d * d, d, kept)))


@pytest.mark.parametrize("seed", range(4))
def test_residual_loops_visit_fewer_than_d_rows_and_columns(seed, monkeypatch):
    """One delta entry added off the unit's support of an NSY build, as in
    the verify-mixed benchmark: Delta(1) stays Casimir, so coassociativity
    sums fewer than d columns and the bimodule loop visits fewer than d rows,
    with the witnesses of the reference scans."""
    c = corrupted_comult(seeded_params(seed), random.Random(3000 + seed))
    d = c.algebra.dim
    sides, rows = finalg._coassoc_sides, finalg._bimodule_rows
    summed, visited = [], []

    def sides_spy(*args):
        summed.append(args[1])
        return sides(*args)

    def rows_spy(*args):
        visited.extend(rows(*args))
        return visited

    monkeypatch.setattr(finalg, "_coassoc_sides", sides_spy)
    monkeypatch.setattr(finalg, "_bimodule_rows", rows_spy)
    assert _delta_one(c).casimir and len(_delta_one(c).residuals) == 1
    assert_matches_reference(c)
    assert 0 < len(summed) < d and 0 < len(visited) < d
