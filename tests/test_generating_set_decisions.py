"""Three identities decided on the generating set S of AlgebraData.generators,
each against a test-local copy of the code it replaced.

- Associativity of a monomial table (Light's test): only the middle factors
  g in S are walked once the unit laws hold.  Compared with the all-middles
  walk and the whole check_algebra report of test_unit_laws, on drawn tables
  that are non-associative or fail a unit law, and (slow) on NSY d 900,
  k[Z/120], pair(24) and the QTG (trivial, M_4).
- The generator walk, which now needs only the unit laws and visits
  by_right[r], against the walk it replaced and the LinearSystem walk; a
  table whose unit laws fail keeps the whole basis.
- Coassociativity of a multiplicative Delta in check_weak_hopf, decided on
  the rows {1} u S, against check_coassoc and the reference report of
  test_weak_hopf_check, on multiplicative Deltas that are not coassociative.
- The Casimir identity, with e_x X summed for x in S only, against the
  all-columns references of test_casimir_columns.
- Delta^2(1) summed as joins, against the double loop over Delta(1)'s terms.

Spies pin that each fast path is taken on passing data.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import conftest
from test_casimir_columns import assert_casimir_matches, assert_delta_matches, edit
from test_delta_one import SCALARS
from test_integral_rows import reference_generators
from test_unit_laws import monomial_associative, ref_algebra_report
from test_weak_hopf_check import EDIT_VALUES, add_delta_entry, add_mult_entry, reference_report

from frobkit import cli, finalg
from frobkit.exactlin import LinearSystem, Mat, Vec, addto
from frobkit.finalg import (
    AlgebraData,
    CasimirElement,
    ComultData,
    _algebra_report,
    _coassoc_sides,
    _monomial_associative,
    check_algebra,
    check_coassoc,
)
from frobkit.nsy import NSYParams, nsy_build, sweep_params
from frobkit.whopf import (
    QTGInput,
    WeakHopfData,
    check_weak_hopf,
    core,
    cyclic_group_table,
    groupoid_algebra,
    hopf_group_algebra,
    pair_groupoid,
    qtg_build,
    separable_matrix_algebra,
    trivial_action,
    trivial_hopf,
)


# --- the replaced code, kept verbatim (underscores dropped) -----------------


def old_monomial_generators(a: AlgebraData, table: dict[int, dict[int, int]]) -> list[int]:
    unit = set(a.unit.support())
    words: set[int] = set()  # R
    gens: list[int] = []
    for k in range(a.dim):
        if k in words or (k in unit and unit - {k} <= words):
            continue
        gens.append(k)
        row = table.get(k, {})
        pending = [k, *(row[r] for r in words if r in row)]
        while pending:  # R += pending, closed under the e_g
            r = pending.pop()
            if r not in words:
                words.add(r)
                pending += [table[g][r] for g in gens if r in table.get(g, ())]
    return gens


def old_delta_unit_sums(h: WeakHopfData) -> tuple[dict, dict, dict]:
    """n^2 Delta^2(1) and both n^2 products, over all pairs of Delta(1)'s terms."""
    a, d, scaled = h.algebra, h.dim, h.scaled
    lhs: dict = {}
    acc_a: dict = {}
    acc_b: dict = {}
    for p, q, v in h.scaled_unit_pairs:
        addto(lhs, v, scaled.delta.col_terms(p), q, d)  # (Delta (x) id)Delta(1)
        for r, s, w in h.scaled_unit_pairs:  # Delta(1) (x) 1 times 1 (x) Delta(1)
            # middle slot k of the product: flat (p*d + k)*d + s
            addto(acc_a, v * w, a.basis_product(q, r).terms(), p * d * d + s, d)
            addto(acc_b, v * w, a.basis_product(r, q).terms(), p * d * d + s, d)
    return lhs, acc_a, acc_b


# --- monomial tables --------------------------------------------------------


def fresh(a: AlgebraData) -> AlgebraData:
    return AlgebraData(a.dim, a.labels, a.mult, a.unit)


def monomial_algebra(d: int, table: dict, unit: dict) -> AlgebraData:
    mult = {(i, j): ((k, 1),) for (i, j), k in table.items()}
    return AlgebraData(d, [f"e{k}" for k in range(d)], mult, Vec(d, unit))


def _base_tables() -> dict[str, AlgebraData]:
    bases = {f"groupoid_{k}": groupoid_algebra(g).algebra
             for k, g in conftest.build_groupoid_fixture_set().items()}
    bases.update({f"kZ{n}": hopf_group_algebra(cyclic_group_table(n)).algebra for n in (3, 4)})
    bases["m2"] = separable_matrix_algebra(2)[0]
    for p in (NSYParams(1, 2, (2,)), NSYParams(2, 2, (1, 2)), NSYParams(3, 2, (1, 1, 2))):
        bases[f"nsy_{p.n}_{p.ell}"] = nsy_build(p)
    return bases


BASES = _base_tables()


@st.composite
def edited_tables(draw) -> AlgebraData:
    """A base table with up to three products redirected, removed or added,
    and maybe one unit term moved: often non-associative or not unital."""
    a = BASES[draw(st.sampled_from(sorted(BASES)))]
    d = a.dim
    table = {(i, j): k for i, row in a.monomial_table.items() for j, k in row.items()}
    unit = dict(a.unit.terms())
    index = st.integers(0, d - 1)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["redirect", "remove", "add", "unit"]))
        if op == "unit":
            unit.pop(draw(st.sampled_from(sorted(unit))), None)
            unit[draw(index)] = 1
        elif op == "add" or not table:
            table[draw(index), draw(index)] = draw(index)
        else:
            key = draw(st.sampled_from(sorted(table)))
            if op == "remove":
                del table[key]
            else:
                table[key] = draw(index)
    return monomial_algebra(d, table, unit)


@st.composite
def random_tables(draw) -> AlgebraData:
    d = draw(st.integers(1, 4))
    cells = [(i, j) for i in range(d) for j in range(d)]
    table = {key: k for key in cells if (k := draw(st.integers(-1, d - 1))) >= 0}
    unit = {k: 1 for k in draw(st.sets(st.integers(0, d - 1), min_size=1))}
    return monomial_algebra(d, table, unit)


def units_hold(a: AlgebraData) -> bool:
    return all(c.passed for c in check_algebra(fresh(a)).checks[1:])


def assert_algebra_report_matches(a: AlgebraData) -> None:
    report = _algebra_report(fresh(a))
    expected = ref_algebra_report(fresh(a))
    assert report == expected
    assert json.dumps(report.to_json()) == json.dumps(expected.to_json())
    b = fresh(a)
    table = b.monomial_table
    if units_hold(b):
        assert b.generators() == reference_generators(b)
        assert b.generators() == old_monomial_generators(b, table)
        assert _monomial_associative(b, table, b.generators()) == monomial_associative(b, table)
    else:
        assert b.generators() == list(range(b.dim))


@settings(max_examples=200, deadline=None)
@given(edited_tables())
def test_light_walk_matches_the_full_walk_on_edited_tables(a):
    assert_algebra_report_matches(a)


@settings(max_examples=150, deadline=None)
@given(random_tables())
def test_light_walk_matches_the_full_walk_on_random_tables(a):
    assert_algebra_report_matches(a)


@pytest.mark.parametrize("name", ["groupoid_pair2", "groupoid_pair2_x_z2", "kZ4", "nsy_2_2"])
def test_single_redirects_reach_every_outcome(name):
    """Every product of the base redirected to every basis element: the
    reports match, and Light's walk decides non-associative tables whose
    unit laws hold."""
    a = BASES[name]
    d = a.dim
    table = {(i, j): k for i, row in a.monomial_table.items() for j, k in row.items()}
    outcomes = set()
    for key, old in table.items():
        for k in range(d):
            if k != old:
                b = monomial_algebra(d, {**table, key: k}, dict(a.unit.terms()))
                assert_algebra_report_matches(b)
                outcomes.add((units_hold(b), check_algebra(b).checks[0].passed))
    assert {(True, False), (False, False)} <= outcomes


def _redirected(a: AlgebraData) -> AlgebraData:
    """One product e_i e_j of two elements outside the unit's support sent to
    another basis element: the unit laws still hold."""
    unit = set(a.unit.support())
    table = a.monomial_table
    i, j = next((i, j) for i in table for j in table[i] if i not in unit and j not in unit)
    mult = dict(a.mult)
    mult[i, j] = (((table[i][j] + 1) % a.dim, 1),)
    return AlgebraData(a.dim, a.labels, mult, a.unit)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["nsy_900", "kZ120", "pair24", "qtg_trivial_m4"])
def test_light_walk_on_large_instances(name):
    if name == "nsy_900":
        a = nsy_build(NSYParams(6, 6, (5,) * 6))
    elif name == "kZ120":
        a = hopf_group_algebra(cyclic_group_table(120)).algebra
    elif name == "pair24":
        a = groupoid_algebra(pair_groupoid(24)).algebra
    else:
        B, e, omega = separable_matrix_algebra(4)
        L = trivial_hopf()
        a = qtg_build(QTGInput(L, B, e, omega, trivial_action(B, L))).algebra
    for b, associative in ((fresh(a), True), (_redirected(a), False)):
        table = b.monomial_table
        assert units_hold(b)
        gens = b.generators()
        assert gens == old_monomial_generators(b, table)
        assert len(gens) < b.dim
        assert monomial_associative(b, table) is associative
        assert _monomial_associative(b, table, gens) is associative
    assert check_algebra(fresh(a)).passed


def test_generator_walk_matches_the_old_walk_on_every_fixture(request):
    algebras = [fresh(a) for a in BASES.values()]
    for fixture in ("groupoid_algebras", "hopf_group_algebras", "qtg_built"):
        algebras += [fresh(h.algebra) for h in request.getfixturevalue(fixture).values()]
    algebras += [nsy_build(p) for p in sweep_params(3, 3, 2)]
    for a in algebras:
        assert check_algebra(a).passed and a.monomial_table is not None
        assert a.generators() == old_monomial_generators(a, a.monomial_table), a.labels


# --- coassociativity of a multiplicative Delta --------------------------------


def semisimple_comult(m: int, owner: dict) -> WeakHopfData:
    """k^m with Delta(e_i) the sum of the e_p (x) e_q with owner[p, q] = i:
    disjoint supports, so Delta is multiplicative, and coassociative only
    for some owners.  eps = 0 and S = id: the other axioms are not the point."""
    d = m
    mult = {(i, i): ((i, 1),) for i in range(d)}
    a = AlgebraData(d, [f"e{i}" for i in range(d)], mult, Vec(d, {i: 1 for i in range(d)}))
    delta = Mat(d * d, d, [(p * d + q, i, 1) for (p, q), i in owner.items()])
    return WeakHopfData(a, delta, Vec(d), Mat(d, d, [(k, k, 1) for k in range(d)]))


def power_comult(n: int, s: int, t: int) -> WeakHopfData:
    """k[Z/n] with Delta(g) = g^s (x) g^t: multiplicative, and coassociative
    iff s^2 = s and t^2 = t mod n."""
    h = hopf_group_algebra(cyclic_group_table(n))
    delta = Mat(n * n, n, [((s * g % n) * n + t * g % n, g, 1) for g in range(n)])
    return WeakHopfData(h.algebra, delta, h.epsilon_wk, h.antipode)


def unit_row_comult() -> WeakHopfData:
    """k x k, S = {e_0}, Delta(e_0) = e_0 (x) e_0 and Delta(e_1) = e_1 (x) e_1
    + e_1 (x) e_0: multiplicative, coassociative at e_0 but not at e_1, so
    only the row a = 1 sees the failure."""
    return semisimple_comult(2, {(0, 0): 0, (1, 1): 1, (1, 0): 1})


def assert_weak_hopf_report_matches(h: WeakHopfData) -> None:
    got = core._weak_hopf_report(h)
    expected = reference_report(h)
    assert got.checks == expected.checks
    assert json.dumps(got.to_json()) == json.dumps(expected.to_json())
    (coassoc,) = check_coassoc(h.coalgebra).checks
    assert [c for c in got.checks if c.name == "coassociativity_wk"] == [
        finalg.CheckResult("coassociativity_wk", coassoc.passed, coassoc.witness)
    ]


@st.composite
def multiplicative_comults(draw) -> WeakHopfData:
    if draw(st.booleans()):
        n = draw(st.integers(2, 6))
        h = power_comult(n, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
    else:
        m = draw(st.integers(2, 4))
        cells = [(p, q) for p in range(m) for q in range(m)]
        owner = {c: i for c in cells if (i := draw(st.integers(-1, m - 1))) >= 0}
        h = semisimple_comult(m, owner)
    if draw(st.booleans()):
        d = h.dim
        rest = sorted(set(range(d)) - set(h.algebra.generators())) or [0]
        col = draw(st.one_of(st.sampled_from(rest), st.integers(0, d - 1)))
        h = add_delta_entry(h, draw(st.integers(0, d * d - 1)), col, draw(st.sampled_from(EDIT_VALUES)))
    return h


@settings(max_examples=150, deadline=None)
@given(multiplicative_comults())
def test_coassociativity_on_the_rows_matches_check_coassoc(h):
    assert_weak_hopf_report_matches(h)


def test_the_unit_row_decides_coassociativity():
    h = unit_row_comult()
    a, scaled = h.algebra, h.scaled
    assert check_algebra(a).passed and a.generators() == [0]
    for g in a.generators():
        lhs, rhs = _coassoc_sides(scaled, scaled.delta_pairs(g))
        assert lhs == rhs
    lhs, rhs = _coassoc_sides(scaled, h.scaled_unit_pairs)
    assert lhs != rhs
    checks = {c.name: c for c in check_weak_hopf(h).checks}
    assert checks["delta_wk_multiplicative"].passed
    assert not checks["coassociativity_wk"].passed
    assert_weak_hopf_report_matches(h)


def test_the_rows_decide_only_a_multiplicative_delta():
    """Delta(g) = g (x) g on k[Z/5] plus e_0 (x) e_1 in Delta(g^3): the rows
    1 and g agree, but Delta is not multiplicative, and check_coassoc finds
    the failure at g^3."""
    h = add_delta_entry(power_comult(5, 1, 1), 1, 3, 1)
    scaled = h.scaled
    assert h.algebra.generators() == [1]
    for pairs in (h.scaled_unit_pairs, scaled.delta_pairs(1)):
        lhs, rhs = _coassoc_sides(scaled, pairs)
        assert lhs == rhs
    checks = {c.name: c for c in check_weak_hopf(h).checks}
    assert not checks["delta_wk_multiplicative"].passed
    assert checks["coassociativity_wk"].witness.indices == (3,)
    assert_weak_hopf_report_matches(h)


@pytest.mark.parametrize("n, s, t, coassociative", [(3, 1, 2, False), (4, 1, 3, False),
                                                    (6, 3, 4, True), (5, 1, 1, True)])
def test_power_comults(n, s, t, coassociative):
    h = power_comult(n, s, t)
    checks = {c.name: c for c in check_weak_hopf(h).checks}
    assert checks["delta_wk_multiplicative"].passed
    assert checks["coassociativity_wk"].passed is coassociative
    assert_weak_hopf_report_matches(h)


# --- Delta^2(1) as joins ------------------------------------------------------


@pytest.fixture(scope="module")
def unit_cases(request) -> dict[str, WeakHopfData]:
    cases = {}
    for fixture in ("groupoid_algebras", "hopf_group_algebras", "qtg_built"):
        cases.update({f"{fixture}_{k}": h for k, h in request.getfixturevalue(fixture).items()})
    return cases


def assert_delta_unit_matches(h: WeakHopfData) -> None:
    lhs, acc_a, acc_b = old_delta_unit_sums(h)
    checks = {c.name: c for c in core._weak_hopf_report(h).checks}
    d3 = h.dim**3
    for name, acc, note in (
        ("delta_wk_unit_a", acc_a, "Delta^2(1) != (Delta(1)(x)1)(1(x)Delta(1))"),
        ("delta_wk_unit_b", acc_b, "Delta^2(1) != (1(x)Delta(1))(Delta(1)(x)1)"),
    ):
        expected = None if lhs == acc else core._scaled_witness(h, (), lhs, acc, d3, 2, note)
        assert checks[name] == finalg.CheckResult(name, expected is None, expected)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_delta_unit_joins_match_the_double_loop(unit_cases, data):
    h = unit_cases[data.draw(st.sampled_from(sorted(unit_cases)))]
    d = h.dim
    index = st.integers(0, d - 1)
    value = data.draw(st.sampled_from(EDIT_VALUES))
    if data.draw(st.booleans()):
        col = data.draw(st.one_of(st.sampled_from(h.unit.support()), index))
        h = add_delta_entry(h, data.draw(st.integers(0, d * d - 1)), col, value)
    else:
        h = add_mult_entry(h, data.draw(index), data.draw(index), data.draw(index), value)
    assert_delta_unit_matches(h)


def test_delta_unit_joins_match_on_fixtures(unit_cases):
    for h in unit_cases.values():
        assert_delta_unit_matches(h)
    for n in (3, 4):
        assert_delta_unit_matches(power_comult(n, 1, n - 1))
    assert_delta_unit_matches(unit_row_comult())


# --- the Casimir identity on the generators ----------------------------------


def commutant(a: AlgebraData, xs) -> list[Vec]:
    """Exact basis of {X : X e_x = e_x X for x in xs} in the tensor square."""
    d = a.dim
    e = [Vec.basis(d, k) for k in range(d)]
    entries = []
    for p in range(d):
        for q in range(d):
            for x in xs:
                diff = e[p].tensor(a.mul(e[q], e[x])) - a.mul(e[x], e[p]).tensor(e[q])
                entries += [(x * d * d + s, p * d + q, v) for s, v in diff.terms()]
    sys_ = LinearSystem(d * d)
    sys_.add_matrix(Mat(d**3, d * d, entries))
    return sys_.kernel()


def _redirect(a: AlgebraData, key: tuple[int, int], k: int) -> AlgebraData:
    """a with e_i e_j = e_k for key = (i, j): unital, not associative."""
    mult = {**a.mult, key: ((k, 1),)}
    return AlgebraData(a.dim, a.labels, mult, a.unit)


ASSOCIATIVE = {
    "m2": separable_matrix_algebra(2)[0],
    "kZ4": hopf_group_algebra(cyclic_group_table(4)).algebra,
    "pair3": groupoid_algebra(pair_groupoid(3)).algebra,
    "nsy_2_2": nsy_build(NSYParams(2, 2, (1, 2))),
    "nsy_3_2": nsy_build(NSYParams(3, 2, (1, 1, 2))),
}
NON_ASSOCIATIVE = {
    "kZ3_22_0": _redirect(BASES["kZ3"], (2, 2), 0),
    "kZ4_13_2": _redirect(BASES["kZ4"], (1, 3), 2),
}
CASIMIR_ALGEBRAS = {**ASSOCIATIVE, **NON_ASSOCIATIVE}
# the X that commute with the generators: the Casimir space when the algebra
# is associative, a larger space on the two non-associative tables
CASIMIR_BASES = {name: commutant(a, a.generators()) for name, a in CASIMIR_ALGEBRAS.items()}


def test_generators_decide_the_casimir_space_only_when_associative():
    for name, a in CASIMIR_ALGEBRAS.items():
        on_gens, full = CASIMIR_BASES[name], commutant(a, range(a.dim))
        assert units_hold(a)
        if name in ASSOCIATIVE:
            assert on_gens == full, name  # equal spaces, equal reduced bases
        else:
            assert not check_algebra(a).passed and len(on_gens) > len(full), name


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_casimir_decision_on_generators_matches_all_columns(data):
    """A drawn element of the Casimir space, then edited: check_casimir,
    casimir_comult (or its PreconditionError witness), _from_delta_one and
    solve_counit against the all-columns references."""
    name = data.draw(st.sampled_from(sorted(CASIMIR_ALGEBRAS)))
    a = fresh(CASIMIR_ALGEBRAS[name])
    d = a.dim
    x = Vec(d * d)
    for b in CASIMIR_BASES[name]:
        x = x + b.scale(data.draw(st.sampled_from([Fraction(0), *SCALARS])))
    x = edit(x, d * d, data)
    assert_casimir_matches(a, x)
    columns = [Vec.adopt(d * d, lhs) for _, lhs, _ in finalg._casimir_columns(a, x, range(d))]
    assert_delta_matches(ComultData(a, Mat.from_columns(d * d, columns)))


# --- the fast paths are taken -----------------------------------------------


@pytest.fixture
def middles(monkeypatch):
    """The middle factors of every associativity walk."""
    walks = []
    original = finalg._monomial_associative

    def spy(a, table, mids):
        walks.append((a, list(mids)))
        return original(a, table, mids)

    monkeypatch.setattr(finalg, "_monomial_associative", spy)
    return walks


def test_associativity_walk_visits_only_the_generators(request, middles):
    algebras = []
    for fixture in ("groupoid_algebras", "hopf_group_algebras", "qtg_built"):
        algebras += [fresh(h.algebra) for h in request.getfixturevalue(fixture).values()]
    for a in algebras:
        middles.clear()
        assert check_algebra(a).passed
        assert middles == [(a, a.generators())]
    assert any(len(a.generators()) < a.dim - 1 for a in algebras)


def test_weak_hopf_check_skips_the_coassociativity_scan(request, monkeypatch):
    calls = []
    original = core.check_coassoc
    monkeypatch.setattr(core, "check_coassoc", lambda c: calls.append(c) or original(c))
    for fixture in ("groupoid_algebras", "hopf_group_algebras", "qtg_built"):
        for h in request.getfixturevalue(fixture).values():
            copy = WeakHopfData(fresh(h.algebra), h.delta_wk, h.epsilon_wk, h.antipode)
            assert check_weak_hopf(copy).passed
    assert calls == []
    h = power_comult(3, 1, 2)
    assert not check_weak_hopf(h).passed
    assert calls == [h.scaled]


@pytest.mark.parametrize(
    "argv",
    [
        ["whopf", "groupoid", "--pair-objects", "3", "frobenius"],
        ["whopf", "group", "--cyclic", "5", "frobenius"],
        ["whopf", "qtg", "--L", "cyclic:3", "--B", "cyclic:3", "frobenius"],
        ["nsy", "check", "n=3", "ell=2", "m=1,1,2"],
    ],
)
def test_casimir_right_side_is_summed_on_the_generators(argv, monkeypatch, capsys):
    """Each pass yields X e_x for all d columns and sums e_x X on |S| of them."""
    passes = []
    columns = finalg._casimir_columns

    def spy(a, element, right):
        read = [a, 0, 0]  # algebra, columns, e_x X summed
        passes.append(read)
        for x, lhs, rhs in columns(a, element, right):
            read[1] += 1
            read[2] += rhs is not lhs
            yield x, lhs, rhs

    monkeypatch.setattr(finalg, "_casimir_columns", spy)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert passes
    for a, read, summed in passes:
        assert (read, summed) == (a.dim, len(a.generators()))
        assert summed < a.dim
