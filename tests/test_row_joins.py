"""The bimodule scan of check_bimodule and the weak-Hopf multiplicativity rows
of whopf.core._mult_row, both joins of the nonzero basis products with the
terms of Delta indexed by left factor (ComultData._terms_by_left), against
test-local copies of the earlier scans.

``visit_scan`` is the earlier failure scan of check_bimodule: per row i, a
set of the j where some side can be nonzero, and two sums per pair (i, j).
``grouped_mult_row`` is the earlier _mult_row: Delta's terms regrouped per
column j, all terms of (n Delta)(x) walked again for every j.  Whole results
must agree: passed flag, witness indices, lhs, rhs and note, and the first
failing j with both sides.  Cases: the comultiplications of test_delta_one.py
and the weak Hopf algebras of ``generator_cases``, each with delta entries
added, removed or rescaled, and one corrupted delta column of the dim-169
NSY algebra n=5 ell=5 m=3,2,3,2,3.

On a monomial table the unit laws and the bimodule row set read a product
by its index; ``streamed_unit_checks`` and ``scanned_bimodule_rows`` are the
paths any other table takes.  The right-hand side of _mult_row once read
the index too and now streams each product through addto;
``indexed_mult_row`` keeps that version.  All must agree with the code on
monomial NSY, groupoid and QTG fixtures and on one edit of each: a product
redirected or dropped, a unit term changed, or one Delta entry added.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import pytest

from test_delta_one import CASES, SCALARS, base_comult, edited_comult, with_delta_entry
from test_generators import generator_cases  # noqa: F401 (fixture)

from frobkit.exactlin import ONE, Mat, Vec, addto
from frobkit.finalg import (
    AlgebraData,
    CheckResult,
    ComultData,
    VerificationReport,
    Witness,
    _bimodule_rows,
    _DeltaOne,
    _delta_one,
    _unit_checks,
    check_bimodule,
)
from frobkit.nsy import NSYParams, nsy_build, nsy_delta
from frobkit.whopf import WeakHopfData, core


def visit_scan(c: ComultData) -> VerificationReport:
    """The pairwise failure scan of check_bimodule before the join, verbatim."""
    a = c.algebra
    d = a.dim
    by_left = a.by_left
    cols_with_left: list[set[int]] = [set() for _ in range(d)]
    for j in range(d):
        for p, _, _ in c.delta_pairs(j):
            cols_with_left[p].add(j)
    right_witness = None
    left_witness = None
    for i in range(d):
        pairs_i = c.delta_pairs(i)
        visit: set[int] = set()
        for p in by_left[i]:
            visit.add(p)
            visit |= cols_with_left[p]
        for _, q, _ in pairs_i:
            visit.update(by_left[q])
        for j in sorted(visit):
            target = c.delta_of(a.basis_product(i, j))
            if right_witness is None:
                acc: dict[int, Fraction] = {}
                for p, q, v in pairs_i:
                    addto(acc, v, a.basis_product(q, j).terms(), p * d)
                lhs = Vec.adopt(d * d, acc)
                if lhs != target:
                    right_witness = Witness(
                        (i, j), lhs, target, "(id(x)m)(Delta(x)id) != Delta m"
                    )
            if left_witness is None:
                acc = {}
                for p, q, v in c.delta_pairs(j):
                    addto(acc, v, a.basis_product(i, p).terms(), q, d)
                lhs = Vec.adopt(d * d, acc)
                if lhs != target:
                    left_witness = Witness(
                        (i, j), lhs, target, "(m(x)id)(id(x)Delta) != Delta m"
                    )
            if right_witness is not None and left_witness is not None:
                break
        if right_witness is not None and left_witness is not None:
            break
    return VerificationReport(
        (
            CheckResult("bimodule_right", right_witness is None, right_witness),
            CheckResult("bimodule_left", left_witness is None, left_witness),
        )
    )


def grouped(h: WeakHopfData) -> list[dict[int, list]]:
    """The per-column regrouping the earlier _weak_hopf_report built."""
    out: list[dict[int, list]] = [{} for _ in range(h.dim)]
    for j in range(h.dim):
        for p, q, v in h.scaled.delta_pairs(j):
            out[j].setdefault(p, []).append((q, v))
    return out


def grouped_mult_row(h: WeakHopfData, x_pairs, x: Vec, grouped: list[dict]):
    """_mult_row before the join, verbatim."""
    a, d, n = h.algebra, h.dim, h.denom
    mult, by_left = a.mult, a.by_left
    for j in range(d):
        acc: dict[int, Fraction] = {}
        for p, q, v in x_pairs:
            for p2 in by_left[p] if len(by_left[p]) < len(grouped[j]) else grouped[j]:
                left = mult.get((p, p2))
                if left is None or p2 not in grouped[j]:
                    continue
                left_terms = left
                for q2, v2 in grouped[j][p2]:
                    right = mult.get((q, q2))
                    if right is not None:
                        for kl, vl in left_terms:
                            addto(acc, v * v2 * vl, right, kl * d)
        rhs: dict[int, Fraction] = {}
        for k, c in a.mul(x, Vec.basis(d, j)).terms():
            addto(rhs, n * c, h.scaled.delta.col_terms(k))
        if acc != rhs:
            return j, acc, rhs
    return None


def transpose(c: ComultData) -> list[list]:
    d = c.algebra.dim
    return [
        [(j, q, v) for j in range(d) for p2, q, v in c.delta_pairs(j) if p2 == p]
        for p in range(d)
    ]


def scan_outcome(report: VerificationReport):
    return [
        (r.name, r.passed, None if r.witness is None else (
            r.witness.indices, r.witness.lhs, r.witness.rhs, r.witness.note
        ))
        for r in report.checks
    ]


def assert_scans_agree(c: ComultData) -> None:
    """The join against visit_scan on the failure path, forced even where
    Delta is decided from Delta(1) by the record of X = 0, whose residuals
    are the columns of Delta, and the index against the transpose."""
    d = c.algebra.dim
    forced = ComultData(c.algebra, c.delta)
    columns = {j: dict(c.delta.col_terms(j)) for j in range(d) if c.delta.col_terms(j)}
    forced._delta_one = _DeltaOne(Vec(d * d), columns, False)
    assert scan_outcome(check_bimodule(forced)) == scan_outcome(visit_scan(forced))
    assert forced._terms_by_left() == transpose(forced)
    assert forced._terms_by_left() is forced._terms_by_left()
    fresh = ComultData(c.algebra, c.delta)
    assert scan_outcome(check_bimodule(fresh)) == scan_outcome(check_bimodule(forced))


def test_unedited_comultiplications():
    for name in CASES:
        assert_scans_agree(base_comult(name))


@settings(max_examples=80, deadline=None)
@given(edited_comult())
def test_edited_delta_scan_matches_visit_scan(c):
    assert_scans_agree(c)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CASES), st.data())
def test_added_delta_entry_scan_matches_visit_scan(name, data):
    c = base_comult(name)
    d = c.algebra.dim
    column = data.draw(st.integers(0, d - 1))
    flat = data.draw(st.integers(0, d * d - 1))
    assert_scans_agree(with_delta_entry(c, column, flat, data.draw(st.sampled_from(SCALARS))))


@pytest.fixture(scope="module")
def nsy_169() -> ComultData:
    p = NSYParams(5, 5, (3, 2, 3, 2, 3))
    c = nsy_delta(p)
    assert c.algebra.dim == 169
    return c


@pytest.mark.parametrize("column, op", [(0, "add"), (40, "drop"), (168, "rescale")])
def test_corrupted_nsy_169_column(nsy_169, column, op):
    c = nsy_169
    d = c.algebra.dim
    entries = [(t, j, v) for t, j, v in c.delta.items()]
    k = next(i for i, (_, j, _) in enumerate(entries) if j == column)
    if op == "add":
        entries.append((d * d - 1 - column, column, Fraction(1)))
    elif op == "drop":
        del entries[k]
    else:
        t, j, v = entries[k]
        entries[k] = (t, j, v * 2)
    broken = ComultData(c.algebra, Mat(d * d, d, entries))
    assert not check_bimodule(broken).passed
    assert_scans_agree(broken)


def edited_weak_hopf(h: WeakHopfData, data) -> WeakHopfData:
    """h with 0-3 delta_wk entries added, removed or rescaled."""
    d = h.dim
    entries = {(t, j): v for t, j, v in h.delta_wk.items()}
    for _ in range(data.draw(st.integers(0, 3))):
        j = data.draw(st.integers(0, d - 1))
        present = sorted(t for t, k in entries if k == j)
        op = data.draw(st.sampled_from(["add", "remove", "rescale"]))
        if op == "add" or not present:
            t = data.draw(st.integers(0, d * d - 1))
            entries[(t, j)] = entries.get((t, j), 0) + data.draw(st.sampled_from(SCALARS))
            if not entries[(t, j)]:
                del entries[(t, j)]
        else:
            t = data.draw(st.sampled_from(present))
            if op == "remove":
                del entries[(t, j)]
            else:
                entries[(t, j)] *= data.draw(st.sampled_from(SCALARS))
    delta = Mat(d * d, d, [(t, j, v) for (t, j), v in entries.items()])
    return WeakHopfData(h.algebra, delta, h.epsilon_wk, h.antipode)


def assert_rows_agree(h: WeakHopfData, xs: list[Vec]) -> None:
    index = h.scaled._terms_by_left()
    assert index == transpose(h.scaled)
    regrouped = grouped(h)
    for x in xs:
        x_pairs = [(t // h.dim, t % h.dim, v) for t, v in h.scaled.delta_of(x).terms()]
        assert core._mult_row(h, x_pairs, x, index) == grouped_mult_row(h, x_pairs, x, regrouped)


def test_rows_of_every_generator_case(generator_cases):  # noqa: F811
    for h in generator_cases.values():
        a = h.algebra
        rows = [a.unit] + [Vec.basis(h.dim, g) for g in a.generators()]
        assert_rows_agree(h, rows)
        assert h.scaled._terms_by_left() is h.scaled._terms_by_left()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_edited_delta_wk_rows_match_grouped_rows(generator_cases, data):  # noqa: F811
    name = data.draw(st.sampled_from(sorted(generator_cases)))
    h = edited_weak_hopf(generator_cases[name], data)
    d = h.dim
    basis = st.integers(0, d - 1).map(lambda k: Vec.basis(d, k))
    combo = st.dictionaries(st.integers(0, d - 1), st.sampled_from(SCALARS), max_size=3)
    xs = [h.unit] + data.draw(st.lists(basis, max_size=4)) + [Vec(d, data.draw(combo))]
    assert_rows_agree(h, xs)
    mult = [c for c in core._weak_hopf_report(h).checks if c.name == "delta_wk_multiplicative"]
    if not mult[0].passed:
        i, j = mult[0].witness.indices
        x = Vec.basis(d, i)
        x_pairs = h.scaled.delta_pairs(i)
        assert grouped_mult_row(h, x_pairs, x, grouped(h))[0] == j


def streamed_unit_checks(a: AlgebraData) -> tuple[CheckResult, CheckResult]:
    """finalg._unit_checks by the addto path alone, on any table, uncached."""
    d, by_right, by_left = a.dim, a.by_right, a.by_left
    left: dict[int, dict] = {}  # k -> 1 e_k, and right: k -> e_k 1
    right: dict[int, dict] = {}
    for q, u in a.unit.terms():
        for k in by_left[q]:
            addto(left.setdefault(k, {}), u, a.mult[q, k])
        for k in by_right[q]:
            addto(right.setdefault(k, {}), u, a.mult[k, q])
    checks = []
    for name, sums, note in (("unit_left", left, "1 * e_k != e_k"),
                             ("unit_right", right, "e_k * 1 != e_k")):
        k = next((k for k in range(d) if sums.get(k, {}) != {k: ONE}), None)
        w = None if k is None else Witness((k,), Vec(d, sums.get(k)), Vec.basis(d, k), note)
        checks.append(CheckResult(name, w is None, w))
    return tuple(checks)


def scanned_bimodule_rows(a: AlgebraData, residuals: dict, left_factors) -> list[int]:
    """finalg._bimodule_rows by the product scan alone, on any table."""
    rows = {*residuals, *(i for p in left_factors for i in a.by_right[p])}
    rows.update(i for (i, _), prod in a.mult.items() for k, _ in prod if k in residuals)
    return sorted(rows)


def indexed_mult_row(h: WeakHopfData, x_pairs, x: Vec, terms_by_left: list[list]):
    """core._mult_row with the monomial-table right-hand side, verbatim."""
    a, d, n = h.algebra, h.dim, h.denom
    mult, by_left, table = a.mult, a.by_left, a.monomial_table
    lhs: dict[int, dict] = {}
    for p, q, v in x_pairs:
        if table is not None:
            row_q = table.get(q, {})
            for p2 in by_left[p]:
                kd = table[p][p2] * d
                for j, q2, v2 in terms_by_left[p2]:
                    kr = row_q.get(q2)
                    if kr is not None:
                        acc, t, w = lhs.setdefault(j, {}), kd + kr, v * v2
                        if t in acc:
                            w += acc[t]
                            if not w:
                                del acc[t]
                                continue
                        acc[t] = w
            continue
        for p2 in by_left[p]:
            left_terms = mult[p, p2]
            for j, q2, v2 in terms_by_left[p2]:
                right = mult.get((q, q2))
                if right is not None:
                    for kl, vl in left_terms:
                        addto(lhs.setdefault(j, {}), v * v2 * vl, right, kl * d)
    rhs: dict[int, dict] = {}
    for k, c in x.terms():
        for j in by_left[k]:
            if table is not None:
                addto(rhs.setdefault(j, {}), n * c, h.scaled.delta.col_terms(table[k][j]))
                continue
            for m, u in mult[k, j]:
                addto(rhs.setdefault(j, {}), n * c * u, h.scaled.delta.col_terms(m))
    for j in sorted(lhs.keys() | rhs.keys()):
        if lhs.get(j, {}) != rhs.get(j, {}):
            return j, lhs.get(j, {}), rhs.get(j, {})
    return None


@pytest.fixture(scope="module")
def monomial_cases(groupoid_algebras, qtg_built):
    """name -> (algebra, Delta, weak Hopf data or None), every table monomial."""
    cases = {}
    for p in (NSYParams(2, 2, (2, 1)), NSYParams(3, 2, (1, 1, 2)), NSYParams(3, 3, (2, 1, 2))):
        c = nsy_delta(p, nsy_build(p))
        cases[f"nsy_{p.n}_{p.ell}_{p.mults}"] = (c.algebra, c.delta, None)
    weak = {f"groupoid_{k}": h for k, h in groupoid_algebras.items()}
    weak.update(qtg_built)
    cases.update({name: (h.algebra, h.delta_wk, h) for name, h in weak.items()})
    return cases


def single_edit(a: AlgebraData, delta: Mat, data) -> tuple[AlgebraData, Mat]:
    """A fresh copy of ``a`` and ``delta``, or one of them with one edit that
    keeps the table monomial."""
    d = a.dim
    mult, unit = dict(a.mult), a.unit
    edit = data.draw(st.sampled_from(["none", "redirect", "drop", "unit", "delta"]))
    if edit in ("redirect", "drop"):
        key = data.draw(st.sampled_from(sorted(mult)))
        if edit == "drop":
            del mult[key]
        else:
            mult[key] = ((data.draw(st.integers(0, d - 1)), 1),)
    elif edit == "unit":
        k = data.draw(st.integers(0, d - 1))
        unit = unit + Vec(d, {k: data.draw(st.sampled_from(SCALARS))})
    elif edit == "delta":
        flat, column = data.draw(st.integers(0, d * d - 1)), data.draw(st.integers(0, d - 1))
        delta = Mat(d * d, d, [*delta.items(), (flat, column, data.draw(st.sampled_from(SCALARS)))])
    return AlgebraData(d, a.labels, mult, unit), delta


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_monomial_paths_match_the_general_paths(monomial_cases, data):
    name = data.draw(st.sampled_from(sorted(monomial_cases)))
    a, delta, h = monomial_cases[name]
    a, delta = single_edit(a, delta, data)
    assert a.monomial_table is not None
    assert _unit_checks(a) == streamed_unit_checks(a)

    c = ComultData(a, delta)
    d = a.dim
    columns = {j: dict(delta.col_terms(j)) for j in range(d) if delta.col_terms(j)}
    for residuals in (_delta_one(c).residuals, columns):
        left_factors = {t // d for res in residuals.values() for t in res}
        expected = scanned_bimodule_rows(a, residuals, left_factors)
        assert _bimodule_rows(a, residuals, left_factors) == expected

    if h is not None:
        h = WeakHopfData(a, delta, h.epsilon_wk, h.antipode)
        index = h.scaled._terms_by_left()
        basis = st.integers(0, d - 1).map(lambda k: Vec.basis(d, k))
        combo = st.dictionaries(st.integers(0, d - 1), st.sampled_from(SCALARS), max_size=3)
        xs = [h.unit, *data.draw(st.lists(basis, max_size=3)), Vec(d, data.draw(combo))]
        for x in xs:
            x_pairs = [(t // d, t % d, v) for t, v in h.scaled.delta_of(x).terms()]
            assert core._mult_row(h, x_pairs, x, index) == indexed_mult_row(h, x_pairs, x, index)
