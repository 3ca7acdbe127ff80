"""check_bimodule and check_coassoc against the naive references of
test_witness.py, now that both are decided from Delta(1) when Delta is the
bimodule map of a Casimir element over an associative algebra.

Cases: NSY, group and M_2 comultiplications (plus the grouplike Delta on a
group algebra, which is not a bimodule map) with delta entries added,
removed or rescaled in any column, the unit's support included; algebras
whose mult is corrupted so check_algebra fails; and one-sided Deltas
Delta(x) = X x or x X whose X is not Casimir.  Every result must agree with the
reference on the passed flag, witness indices, lhs, rhs and note.
"""

from fractions import Fraction
from functools import cache

from hypothesis import assume, given, settings, strategies as st

from test_witness import naive_bimodule, naive_coassoc

from frobkit.exactlin import Mat, Vec, kernel_basis
from frobkit.finalg import (
    AlgebraData,
    CasimirElement,
    ComultData,
    _from_delta_one,
    casimir_comult,
    check_algebra,
    check_bimodule,
    check_coassoc,
)
from frobkit.nsy import NSYParams, nsy_build, nsy_delta
from frobkit.whopf import cyclic_group_table, separable_group_algebra, separable_matrix_algebra

NOTES = {
    "coassociativity": "(Delta(x)id)Delta != (id(x)Delta)Delta",
    "bimodule_right": "(id(x)m)(Delta(x)id) != Delta m",
    "bimodule_left": "(m(x)id)(id(x)Delta) != Delta m",
}
SCALARS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)]
NSY_PARAMS = {
    "nsy_1_2_2": NSYParams(1, 2, (2,)),
    "nsy_2_2_12": NSYParams(2, 2, (1, 2)),
    "nsy_3_2_112": NSYParams(3, 2, (1, 1, 2)),
}
BIMODULE_CASES = [*NSY_PARAMS, "z3", "m2"]
CASES = [*BIMODULE_CASES, "z3_grouplike"]


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
        assert _from_delta_one(fresh), name
        assert check_coassoc(fresh).passed and check_bimodule(fresh).passed, name
    grouplike = base_comult("z3_grouplike")
    assert not _from_delta_one(ComultData(grouplike.algebra, grouplike.delta))


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
        mult[key] = mult.get(key, Vec(d)) + Vec.basis(d, data.draw(st.integers(0, d - 1)))
    broken = AlgebraData(d, a.labels, mult, a.unit)
    assume(not check_algebra(broken).passed)
    c = ComultData(broken, c.delta)
    assert not _from_delta_one(c)
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


def test_non_associative_algebra_is_not_decided_from_delta_one():
    """k x k with e_1 e_1 = e_0 + e_1: Delta(e_j) = Delta(1) e_j = e_j Delta(1)
    holds for Delta(e_0) = e_0 (x) e_0, Delta(e_1) = 0, but the algebra fails
    check_algebra and Delta(e_1) e_1 != Delta(e_1 e_1)."""
    e0, e1 = Vec.basis(2, 0), Vec.basis(2, 1)
    broken = AlgebraData(2, ["e0", "e1"], {(0, 0): e0, (1, 1): e0 + e1}, e0 + e1)
    c = ComultData(broken, Mat(4, 2, [(0, 0, 1)]))
    assert not _from_delta_one(c)
    assert not check_bimodule(c).passed
    assert_matches_reference(c)


@cache
def casimir_space(name: str) -> list[Vec]:
    """Exact basis of {X : X e_x = e_x X for all x} in the tensor square."""
    a = base_comult(name).algebra
    d = a.dim
    e = [Vec.basis(d, k) for k in range(d)]
    entries = []
    for p in range(d):
        for q in range(d):
            for x in range(d):
                diff = e[p].tensor(a.mul(e[q], e[x])) - a.mul(e[x], e[p]).tensor(e[q])
                entries += [(x * d * d + s, p * d + q, v) for s, v in diff.terms()]
    return kernel_basis(Mat(d**3, d * d, entries))


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
