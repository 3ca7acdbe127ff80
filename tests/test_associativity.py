"""check_algebra's associativity result against a naive triple loop built from
AlgebraData.mul and plain Vec operations.

A monomial table is decided by walking only its nonzero products and counting
the triples with a nonzero right-hand side; only a failed decision runs the
triple scan that reports the witness.  Cases: NSY, k[Z/3] and M_2 tables
with products redirected, added or removed; NSY tables whose every failing
triple has a zero (e_i e_j) e_k, which only the count detects; and
non-monomial tables (k[Z/3] and M_2 with one scaled entry), which take the
generic branch.  The result must agree with the reference on the passed
flag, witness indices, lhs, rhs and note.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from frobkit.exactlin import Vec
from frobkit.finalg import AlgebraData, check_algebra
from frobkit.nsy import NSYParams, nsy_build
from frobkit.whopf import cyclic_group_table, separable_group_algebra, separable_matrix_algebra

NOTE = "(e_i e_j) e_k != e_i (e_j e_k)"
NSY_PARAMS = {
    "nsy_1_2_2": NSYParams(1, 2, (2,)),
    "nsy_2_2_12": NSYParams(2, 2, (1, 2)),
    "nsy_3_2_112": NSYParams(3, 2, (1, 1, 2)),
}
CASES = [*NSY_PARAMS, "z3", "m2"]
SCALARS = [Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)]


@cache
def base_algebra(name: str) -> AlgebraData:
    if name in NSY_PARAMS:
        return nsy_build(NSY_PARAMS[name])
    if name == "m2":
        return separable_matrix_algebra(2)[0]
    return separable_group_algebra(cyclic_group_table(3))[0]


def failing_triples(a: AlgebraData):
    """Every (indices, lhs, rhs) with (e_i e_j) e_k != e_i (e_j e_k), in scan order."""
    d = a.dim
    e = [Vec.basis(d, k) for k in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = a.mul(a.mul(e[i], e[j]), e[k])
                rhs = a.mul(e[i], a.mul(e[j], e[k]))
                if lhs != rhs:
                    yield (i, j, k), lhs, rhs


def naive_assoc(a: AlgebraData):
    return next(failing_triples(a), None)


def outcome(a: AlgebraData):
    result = check_algebra(a).checks[0]
    assert result.name == "associativity"
    w = result.witness
    return result.passed, None if w is None else (w.indices, w.lhs, w.rhs, w.note)


def reference_outcome(a: AlgebraData):
    ref = naive_assoc(a)
    return ref is None, None if ref is None else (*ref, NOTE)


def edited(a: AlgebraData, mult: dict) -> AlgebraData:
    return AlgebraData(a.dim, a.labels, mult, a.unit)


@st.composite
def edited_algebra(draw):
    a = base_algebra(draw(st.sampled_from(CASES)))
    d = a.dim
    mult = dict(a.mult)
    index = st.integers(0, d - 1)
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(["redirect", "add", "remove"]))
        if op == "add":
            key = draw(st.tuples(index, index))
        else:
            key = draw(st.sampled_from(sorted(mult)))
        if op == "remove":
            mult.pop(key, None)
        else:
            mult[key] = ((draw(index), 1),)
    return edited(a, mult)


@settings(max_examples=80, deadline=None)
@given(edited_algebra())
def test_edited_monomial_table_matches_reference(a):
    assert a.monomial_table is not None
    assert outcome(a) == reference_outcome(a)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["z3", "m2"]), st.data())
def test_scaled_entry_takes_generic_branch(name, data):
    a = base_algebra(name)
    mult = dict(a.mult)
    key = data.draw(st.sampled_from(sorted(mult)))
    mult[key] = tuple(Vec(a.dim, mult[key]).scale(data.draw(st.sampled_from(SCALARS))).terms())
    broken = edited(a, mult)
    assert broken.monomial_table is None
    assert outcome(broken) == reference_outcome(broken)
    assert not outcome(broken)[0]


def test_unedited_tables_pass():
    for name in CASES:
        a = base_algebra(name)
        fresh = edited(a, a.mult)
        assert outcome(fresh) == (True, None) == reference_outcome(fresh), name


def test_single_removals_and_redirects_match_reference():
    """Every one-product removal and redirect of a small NSY table, which
    covers a first failing triple with a zero lhs and a nonzero rhs, and the
    reverse."""
    a = base_algebra("nsy_1_2_2")
    d = a.dim
    kinds = set()
    for key in sorted(a.mult):
        variants = [{k: v for k, v in a.mult.items() if k != key}]
        variants += [{**a.mult, key: ((m, 1),)} for m in range(d)]
        for mult in variants:
            broken = edited(a, mult)
            assert outcome(broken) == reference_outcome(broken)
            first = naive_assoc(broken)
            if first is not None:
                kinds.add((first[1].is_zero(), first[2].is_zero()))
    assert {(True, False), (False, True)} <= kinds


@pytest.mark.parametrize(
    "name, removed, added",
    [
        ("nsy_1_2_2", [(4, 1), (6, 1)], {}),
        ("nsy_1_2_2", [(5, 2), (7, 2)], {}),
        ("nsy_2_2_12", [], {(0, 7): 7}),
        ("nsy_2_2_12", [], {(0, 8): 8}),
    ],
)
def test_failure_seen_only_by_the_count(name, removed, added):
    """Tables whose every failing triple has (e_i e_j) e_k = 0: the walk over
    the nonzero left-hand sides finds no difference, and only the count of
    nonzero right-hand sides tells the table is not associative."""
    a = base_algebra(name)
    mult = {k: v for k, v in a.mult.items() if k not in removed}
    mult.update({k: ((m, 1),) for k, m in added.items()})
    broken = edited(a, mult)
    failures = list(failing_triples(broken))
    assert failures and all(lhs.is_zero() for _, lhs, _ in failures)
    assert outcome(broken) == reference_outcome(broken)
