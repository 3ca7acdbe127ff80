"""check_algebra reads 1 e_k and e_k 1 off the product index in one pass.
Its whole report, witnesses included, must equal the one the earlier
per-basis loop gave: 2d full products ``mul(1, e_k)`` and ``mul(e_k, 1)``,
compared in ascending k.  That report builder is copied verbatim below,
with the all-middles associativity walk it called.

Passing algebras: NSY, groupoid, k[Z/n], M_2 and a QTG algebra in a basis
scaled by 1/dim B.  Failing ones: a zero unit, a unit missing one
idempotent, a unit with coefficient 2, a one-sided unit, and random tables.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_groupoid_fixture_set, build_qtg_instances
from frobkit.exactlin import Vec
from frobkit.finalg import (
    AlgebraData,
    CheckResult,
    VerificationReport,
    Witness,
    _algebra_report,
)
from frobkit.nsy import NSYParams, nsy_build
from frobkit.whopf import (
    cyclic_group_table,
    groupoid_algebra,
    hopf_group_algebra,
    qtg_build,
    separable_matrix_algebra,
)


def monomial_associative(a: AlgebraData, table: dict[int, dict[int, int]]) -> bool:
    """The all-middles associativity walk check_algebra used before Light's
    test, kept verbatim (underscore dropped)."""
    by_right = a.by_right
    walked = 0
    try:  # a missing row or entry is a zero product where (e_i e_j) e_k != 0
        for ti in table.values():
            for j, ij in ti.items():
                tij = table.get(ij)
                if tij:
                    tj = table[j]
                    for k, ijk in tij.items():
                        if ti[tj[k]] != ijk:
                            return False
                    walked += len(tij)
    except KeyError:
        return False
    return walked == sum(len(by_right[jk]) for tj in table.values() for jk in tj.values())


def ref_algebra_report(a: AlgebraData) -> VerificationReport:
    d = a.dim
    checks = []

    assoc_witness = None
    table = a.monomial_table
    # a monomial table is decided by the O(nnz) walk; on one that fails it,
    # the d^3 scan runs only to find the witness
    if table is None or not monomial_associative(a, table):
        basis = [Vec.basis(d, k) for k in range(d)]
        for i, j, k in itertools.product(range(d), repeat=3):
            lhs = a.mul(a.basis_product(i, j), basis[k])
            rhs = a.mul(basis[i], a.basis_product(j, k))
            if lhs != rhs:
                assoc_witness = Witness((i, j, k), lhs, rhs, "(e_i e_j) e_k != e_i (e_j e_k)")
                break
    checks.append(CheckResult("associativity", assoc_witness is None, assoc_witness))

    left_witness = None
    right_witness = None
    for k in range(d):
        ek = Vec.basis(d, k)
        lhs = a.mul(a.unit, ek)
        if left_witness is None and lhs != ek:
            left_witness = Witness((k,), lhs, ek, "1 * e_k != e_k")
        rhs = a.mul(ek, a.unit)
        if right_witness is None and rhs != ek:
            right_witness = Witness((k,), rhs, ek, "e_k * 1 != e_k")
    checks.append(CheckResult("unit_left", left_witness is None, left_witness))
    checks.append(CheckResult("unit_right", right_witness is None, right_witness))
    return VerificationReport(tuple(checks))


def fresh(a: AlgebraData, unit: Vec | None = None) -> AlgebraData:
    """The same table with no cached derived data, optionally another unit."""
    return AlgebraData(a.dim, a.labels, a.mult, a.unit if unit is None else unit)


def assert_report_matches(a: AlgebraData) -> VerificationReport:
    report = _algebra_report(fresh(a))
    assert report == ref_algebra_report(fresh(a))
    return report


def scaled(a: AlgebraData, c: Fraction) -> AlgebraData:
    """a in the basis f_k = c e_k: f_i f_j = c (e_i e_j), 1 = sum (u_k / c) f_k."""
    mult = {key: tuple(Vec(a.dim, terms).scale(c).terms()) for key, terms in a.mult.items()}
    return AlgebraData(a.dim, a.labels, mult, a.unit.scale(1 / c))


def matrix_units() -> AlgebraData:
    return separable_matrix_algebra(2)[0]


def one_sided_unit() -> AlgebraData:
    """e_i e_j = e_j: every e_i is a left unit and none is a right unit."""
    mult = {(i, j): ((j, 1),) for i in range(3) for j in range(3)}
    return AlgebraData(3, ["a", "b", "c"], mult, Vec.basis(3, 0))


def passing_algebras() -> dict[str, AlgebraData]:
    qtg = build_qtg_instances()["k_mat2"]
    out = {
        "nsy_22_21": nsy_build(NSYParams(2, 2, (2, 1))),
        "nsy_43_1212": nsy_build(NSYParams(4, 3, (1, 2, 1, 2))),
        "nsy_55_32323": nsy_build(NSYParams(5, 5, (3, 2, 3, 2, 3))),
        "M_2": matrix_units(),
        "qtg_k_mat2_over_dim_B": scaled(qtg_build(qtg).algebra, Fraction(1, qtg.B.dim)),
    }
    out.update({f"k[Z/{n}]": hopf_group_algebra(cyclic_group_table(n)).algebra for n in (1, 2, 5)})
    out.update(
        {f"groupoid_{name}": groupoid_algebra(g).algebra
         for name, g in build_groupoid_fixture_set().items()}
    )
    return out


PASSING = passing_algebras()


@pytest.mark.parametrize("name", sorted(PASSING))
def test_unit_laws_pass_as_before(name):
    a = PASSING[name]
    assert any(type(v) is Fraction for terms in a.mult.values() for _, v in terms) == (
        name == "qtg_k_mat2_over_dim_B"
    )
    assert assert_report_matches(a).passed


def _failing_units() -> dict[str, tuple[AlgebraData, Vec]]:
    nsy = nsy_build(NSYParams(2, 2, (2, 1)))
    m2 = matrix_units()
    kz3 = hopf_group_algebra(cyclic_group_table(3)).algebra
    return {
        "zero_unit_nsy": (nsy, Vec(nsy.dim)),
        "zero_unit_k[Z/3]": (kz3, Vec(3)),
        "missing_idempotent_nsy": (nsy, nsy.unit - Vec.basis(nsy.dim, nsy.unit.support()[1])),
        "missing_idempotent_M_2": (m2, Vec.basis(4, 0)),
        "coefficient_two_nsy": (nsy, nsy.unit.scale(2)),
        "coefficient_two_k[Z/3]": (kz3, kz3.unit.scale(2)),
        "half_unit_M_2": (m2, m2.unit.scale(Fraction(1, 2))),
        "one_sided": (one_sided_unit(), Vec.basis(3, 0)),
        "one_sided_sum": (one_sided_unit(), Vec(3, {0: 2, 1: -1})),
    }


FAILING = _failing_units()


@pytest.mark.parametrize("name", sorted(FAILING))
def test_unit_law_witnesses_as_before(name):
    a, unit = FAILING[name]
    report = assert_report_matches(fresh(a, unit))
    assert not report.passed
    if name.startswith("one_sided"):
        assert [c.passed for c in report.checks] == [True, True, False]


SCALARS = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def random_tables(draw):
    d = draw(st.integers(1, 4))
    vec = st.lists(st.tuples(st.integers(0, d - 1), SCALARS), max_size=3).map(
        lambda entries: Vec(d, entries)
    )
    keys = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
    mult = draw(st.dictionaries(keys, vec.map(lambda v: tuple(v.terms())), max_size=d * d))
    return AlgebraData(d, [f"e{k}" for k in range(d)], mult, draw(vec))


@settings(max_examples=200, deadline=None)
@given(random_tables())
def test_random_tables_report_as_before(a):
    assert_report_matches(a)
