"""The monomial-table branches of finalg._casimir_columns, finalg._unit_checks,
finalg._bimodule_rows and whopf.core._mult_row, and the LinearSystem rows of
finalg._counit_rows, against test-local verbatim copies of the code before
them, which sums every basis product through addto over ``mult``.

Cases: random monomial tables of dimension 2-5, unital or not, associative
or not, whose products collide (e_q e_x = e_q' e_x with q != q'), and X, Delta
and the terms of (n Delta)(x) drawn with coefficients that cancel on those
collisions, so a stored zero shows; and the NSY, groupoid, group and QTG
algebras of the suite.  A guard pins that those algebras, the ones the
benchmark runs, have a monomial table, and that a table edited off the
monomial form gives the same answers on the addto path.
"""

from fractions import Fraction
from functools import cache

from hypothesis import Phase, find, given, settings, strategies as st

import conftest
from frobkit.exactlin import ONE, LinearSystem, Mat, Vec, addto
from frobkit.finalg import (
    AlgebraData,
    CheckResult,
    ComultData,
    Witness,
    _bimodule_rows,
    _casimir_columns,
    _counit_rows,
    _unit_checks,
    comult_from_json,
    comult_to_json,
)
from frobkit.nsy import NSYParams, nsy_delta
from frobkit.whopf import (
    WeakHopfData,
    connected_groupoid,
    core,
    cyclic_group_table,
    groupoid_algebra,
    hopf_group_algebra,
    pair_groupoid,
    qtg_build,
)

SCALARS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)]
FIRST_FOUND = settings(database=None, phases=[Phase.generate])  # for find: no shrinking


# --- the replaced code, kept verbatim (underscores dropped) -----------------


def casimir_columns(a: AlgebraData, element: Vec, right):
    d = a.dim
    by_q: dict[int, list] = {}  # q -> the (p, v), and by_p: p -> the (q, v)
    by_p: dict[int, list] = {}
    for t, v in element.terms():
        p, q = divmod(t, d)
        by_q.setdefault(q, []).append((p, v))
        by_p.setdefault(p, []).append((q, v))
    mult, by_right, by_left = a.mult, a.by_right, a.by_left
    for x in range(d):
        lhs: dict[int, Fraction] = {}
        for q in by_right[x]:
            if q in by_q:
                prod = mult[q, x]
                for p, v in by_q[q]:
                    addto(lhs, v, prod, p * d)
        rhs: dict[int, Fraction] = {} if x in right else lhs
        for p in by_left[x] if x in right else ():
            if p in by_p:
                prod = mult[x, p]
                for q, v in by_p[p]:
                    addto(rhs, v, prod, q, d)
        yield x, lhs, rhs


def unit_checks(a: AlgebraData) -> tuple[CheckResult, CheckResult]:
    d, by_right, by_left = a.dim, a.by_right, a.by_left
    left: dict[int, dict] = {}  # k -> 1 e_k, and right: k -> e_k 1
    right: dict[int, dict] = {}
    for q, u in a.unit.terms():
        for k in by_left[q]:
            addto(left.setdefault(k, {}), u, a.mult[(q, k)])
        for k in by_right[q]:
            addto(right.setdefault(k, {}), u, a.mult[(k, q)])
    checks = []
    for name, sums, note in (("unit_left", left, "1 * e_k != e_k"),
                             ("unit_right", right, "e_k * 1 != e_k")):
        k = next((k for k in range(d) if sums.get(k, {}) != {k: ONE}), None)
        w = None if k is None else Witness((k,), Vec(d, sums.get(k)), Vec.basis(d, k), note)
        checks.append(CheckResult(name, w is None, w))
    return tuple(checks)


def bimodule_rows(a: AlgebraData, residuals: dict, left_factors) -> list[int]:
    by_right = a.by_right
    rows = {*residuals, *(i for p in left_factors for i in by_right[p])}
    if residuals:
        rows.update(i for (i, _), prod in a.mult.items() for k, _ in prod if k in residuals)
    return sorted(rows)


def counit_rows(a: AlgebraData, element: Vec) -> Vec | None:
    # the copy called exactlin.solve_linear, since deleted; its body inlined
    d = a.dim
    sys_ = LinearSystem(d)
    sys_.add_matrix(Mat(d, d, [(t % d, t // d, v) for t, v in element.terms()]), a.unit)
    return sys_.solution()


def mult_row(h: WeakHopfData, x_pairs, x: Vec, terms_by_left: list[list]):
    a, d, n = h.algebra, h.dim, h.denom
    mult, by_left = a.mult, a.by_left
    lhs: dict[int, dict] = {}
    for p, q, v in x_pairs:
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
            for m, u in mult[k, j]:
                addto(rhs.setdefault(j, {}), n * c * u, h.scaled.delta.col_terms(m))
    for j in sorted(lhs.keys() | rhs.keys()):
        if lhs.get(j, {}) != rhs.get(j, {}):
            return j, lhs.get(j, {}), rhs.get(j, {})
    return None


# --- cases -----------------------------------------------------------------


@cache
def fixtures() -> dict[str, ComultData | WeakHopfData]:
    """NSY comultiplications, and the weak Hopf algebras of conftest.py plus
    pair, connected and cyclic-group sizes like those the benchmark draws."""
    out: dict[str, ComultData | WeakHopfData] = {}
    for p in (NSYParams(1, 3, (2,)), NSYParams(2, 2, (1, 2)), NSYParams(3, 3, (2, 1, 2))):
        out[f"nsy_{p.n}_{p.ell}"] = nsy_delta(p)
    for name, g in conftest.build_groupoid_fixture_set().items():
        out[f"groupoid_{name}"] = groupoid_algebra(g)
    out["pair_4"] = groupoid_algebra(pair_groupoid(4))
    out["connected_2_z3"] = groupoid_algebra(connected_groupoid(2, cyclic_group_table(3)))
    for n in (2, 5):
        out[f"kz{n}"] = hopf_group_algebra(cyclic_group_table(n))
    for name, q in conftest.build_qtg_instances().items():
        out[f"qtg_{name}"] = qtg_build(q)
    return out


def delta_one(case) -> Vec:
    if isinstance(case, WeakHopfData):
        return case.comult(case.unit)
    return case.delta_of(case.algebra.unit)


def fresh(a: AlgebraData) -> AlgebraData:
    """A copy of ``a`` with nothing derived yet."""
    return AlgebraData(a.dim, a.labels, a.mult, a.unit)


@st.composite
def monomial_algebras(draw) -> AlgebraData:
    """A random table with products in few basis elements, so that they
    collide; e_0 is a two-sided unit (some of its products then broken)
    or the unit is a random vector."""
    d = draw(st.integers(2, 5))
    unital = draw(st.booleans())
    table = {}
    for i in range(d):
        for j in range(d):
            k = (i + j) if unital and 0 in (i, j) else draw(st.none() | st.integers(0, d - 1))
            if k is not None:
                table[i, j] = k
    if unital:
        for k in draw(st.sets(st.integers(1, d - 1), max_size=2)):
            pair = draw(st.sampled_from([(0, k), (k, 0)]))
            table[pair] = draw(st.integers(0, d - 1))
        unit = Vec.basis(d, 0)
    else:
        entries = st.dictionaries(
            st.integers(0, d - 1), st.sampled_from(SCALARS), min_size=1, max_size=3
        )
        unit = Vec(d, draw(entries))
    mult = {pair: ((k, 1),) for pair, k in table.items()}
    return AlgebraData(d, [f"e{k}" for k in range(d)], mult, unit)


def algebras():
    return monomial_algebras() | st.sampled_from(sorted(fixtures())).map(
        lambda name: fresh(fixtures()[name].algebra)
    )


def collisions(a: AlgebraData) -> tuple[list, list]:
    """``(left, right)``: the (q, q2) with e_q e_x = e_q2 e_x != 0 and the
    (p, p2) with e_x e_p = e_x e_p2 != 0, for some x and q < q2, p < p2."""
    table, by_right, by_left = a.monomial_table, a.by_right, a.by_left
    left = [(q, q2) for x in range(a.dim) for q in by_right[x] for q2 in by_right[x]
            if q < q2 and table[q][x] == table[q2][x]]
    right = [(p, p2) for x in range(a.dim) for p in by_left[x] for p2 in by_left[x]
             if p < p2 and table[x][p] == table[x][p2]]
    return left, right


def cancelling_terms(draw, a: AlgebraData) -> dict[tuple[int, int], Fraction]:
    """Random (p, q) -> coefficient terms of a tensor, plus pairs c e_p (x) e_q
    - c e_p (x) e_q2 (or - c e_p2 (x) e_q) on colliding factors, which cancel
    in X e_x (or e_x X) and in the products of Delta(x) with Delta(e_j)."""
    d = a.dim
    idx = st.integers(0, d - 1)
    terms = draw(st.dictionaries(st.tuples(idx, idx), st.sampled_from(SCALARS), max_size=5))
    left, right = collisions(a)
    for pairs, on_left in ((left, True), (right, False)):
        for u, u2 in draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else ():
            other, c = draw(idx), draw(st.sampled_from(SCALARS))
            pair = [(other, u), (other, u2)] if on_left else [(u, other), (u2, other)]
            terms.update(zip(pair, (c, -c)))
    return terms


def tensor(terms: dict, d: int) -> Vec:
    return Vec(d * d, {p * d + q: v for (p, q), v in terms.items()})


def edited(a: AlgebraData, data) -> AlgebraData:
    """``a`` with one product scaled by 2 or given a second term."""
    pair = data.draw(st.sampled_from(sorted(a.mult)))
    prod = dict(a.mult[pair])
    if data.draw(st.booleans()):
        prod = {k: 2 * v for k, v in prod.items()}
    else:
        k = data.draw(st.integers(0, a.dim - 1))
        prod[k] = prod.get(k, 0) + 1
    mult = {**a.mult, pair: tuple(Vec(a.dim, prod).terms())}
    return AlgebraData(a.dim, a.labels, mult, a.unit)


# --- comparisons -----------------------------------------------------------


def assert_casimir_columns_match(a: AlgebraData, x: Vec) -> None:
    for right in (frozenset(a.generators()), range(a.dim)):
        got = list(_casimir_columns(a, x, right))
        assert got == list(casimir_columns(a, x, right))
        assert all(all(lhs.values()) and all(rhs.values()) for _, lhs, rhs in got)
        assert all((rhs is lhs) == (k not in right) for k, lhs, rhs in got)


def assert_unit_checks_match(a: AlgebraData) -> None:
    assert _unit_checks(fresh(a)) == unit_checks(fresh(a))


def checked_mult_row(h: WeakHopfData, x_pairs, x: Vec):
    index = h.scaled._terms_by_left()
    got = core._mult_row(h, x_pairs, x, index)
    assert got == mult_row(h, x_pairs, x, index)
    assert got is None or all(got[1].values()) and all(got[2].values())
    return got


def residual_terms(draw, a: AlgebraData) -> dict[int, dict[int, Fraction]]:
    d = a.dim
    cols = draw(st.lists(st.integers(0, d - 1), max_size=3))
    return {j: dict(tensor(cancelling_terms(draw, a), d).terms()) or {j: ONE} for j in cols}


def left_factors(residuals: dict, d: int) -> dict[int, list]:
    by_p: dict[int, list] = {}
    for j, res in residuals.items():
        for t, v in res.items():
            p, q = divmod(t, d)
            by_p.setdefault(p, []).append((j, q, v))
    return by_p


# --- tests -----------------------------------------------------------------


def test_benchmark_algebras_have_a_monomial_table():
    for name, case in fixtures().items():
        assert case.algebra.monomial_table is not None, name
    c = nsy_delta(NSYParams(3, 4, (3, 2, 3)))
    assert c.algebra.monomial_table is not None
    # verify reads the algebra back from JSON, whose products are "1" literals
    assert comult_from_json(comult_to_json(c)).algebra.monomial_table is not None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_edited_table_takes_the_addto_path(data):
    name = data.draw(st.sampled_from(sorted(fixtures())))
    case = fixtures()[name]
    a = edited(case.algebra, data)
    assert a.monomial_table is None
    assert_unit_checks_match(a)
    assert_casimir_columns_match(a, delta_one(case))
    assert_casimir_columns_match(a, tensor(cancelling_terms(data.draw, fresh(case.algebra)), a.dim))
    residuals = residual_terms(data.draw, fresh(case.algebra))
    assert _bimodule_rows(a, residuals, left_factors(residuals, a.dim)) == bimodule_rows(
        a, residuals, left_factors(residuals, a.dim)
    )
    if isinstance(case, WeakHopfData):
        h = WeakHopfData(a, case.delta_wk, case.epsilon_wk, case.antipode)
        for g in range(a.dim):
            checked_mult_row(h, h.scaled.delta_pairs(g), Vec.basis(a.dim, g))


def test_fixture_columns_units_and_rows_match():
    for case in fixtures().values():
        a = case.algebra
        assert_unit_checks_match(a)
        assert all(c.passed for c in _unit_checks(a))
        assert_casimir_columns_match(a, delta_one(case))
        if isinstance(case, WeakHopfData):  # Delta(x e_j) = Delta(x) Delta(e_j) holds
            rows = [(case.scaled_unit_pairs, a.unit)]
            rows += [(case.scaled.delta_pairs(g), Vec.basis(a.dim, g)) for g in range(a.dim)]
            assert all(checked_mult_row(case, *row) is None for row in rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_casimir_columns_match_reference(data):
    a = data.draw(algebras())
    assert_casimir_columns_match(a, tensor(cancelling_terms(data.draw, a), a.dim))


@settings(max_examples=100, deadline=None)
@given(monomial_algebras())
def test_unit_checks_match_reference(a):
    assert_unit_checks_match(a)


def test_failing_unit_laws_match_reference():
    for side in range(2):
        a = find(monomial_algebras(), lambda a: not _unit_checks(fresh(a))[side].passed,
                 settings=FIRST_FOUND)
        assert_unit_checks_match(a)


@st.composite
def mult_rows(draw) -> tuple[WeakHopfData, list, Vec]:
    """A random Delta on a drawn algebra, with a row x and the terms of
    (n Delta)(x): drawn with cancelling pairs, or those of Delta(x)."""
    a = draw(algebras())
    d = a.dim
    delta = Mat.from_columns(d * d, [tensor(cancelling_terms(draw, a), d) for _ in range(d)])
    h = WeakHopfData(a, delta, Vec(d), Mat(d, d, [(k, k, 1) for k in range(d)]))
    x = Vec(d, draw(st.dictionaries(st.integers(0, d - 1), st.sampled_from(SCALARS), max_size=3)))
    if draw(st.booleans()):
        return h, [(p, q, v) for (p, q), v in cancelling_terms(draw, a).items()], x
    return h, [(t // d, t % d, v) for t, v in h.scaled.delta_of(x).terms()], x


@settings(max_examples=150, deadline=None)
@given(mult_rows())
def test_mult_rows_match_reference(row):
    checked_mult_row(*row)


def test_failing_mult_row_matches_reference():
    def failing(row) -> bool:
        return mult_row(*row, row[0].scaled._terms_by_left()) is not None

    assert checked_mult_row(*find(mult_rows(), failing, settings=FIRST_FOUND)) is not None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_counit_rows_match_reference(data):
    a = data.draw(algebras())
    x = tensor(cancelling_terms(data.draw, a), a.dim)
    assert _counit_rows(a, x) == counit_rows(a, x)


def test_counit_rows_consistent_and_inconsistent():
    outcomes = set()
    for case in fixtures().values():
        a, x = case.algebra, delta_one(case)
        assert _counit_rows(a, x) == counit_rows(a, x)
        outcomes.add(counit_rows(a, x) is None)
    assert outcomes == {True, False}  # NSY Delta(1) may have no counit
    a = fixtures()["kz2"].algebra
    # X = e_0 (x) e_1: (eps (x) id)X = eps(e_0) e_1 is never the unit e_0
    inconsistent = Vec.basis(4, 1)
    assert counit_rows(a, inconsistent) is None
    assert _counit_rows(a, inconsistent) is None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bimodule_rows_match_reference(data):
    a = data.draw(algebras())
    residuals = residual_terms(data.draw, a)
    by_p = left_factors(residuals, a.dim)
    assert _bimodule_rows(a, residuals, by_p) == bimodule_rows(a, residuals, by_p)
