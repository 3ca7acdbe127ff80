"""check_weak_hopf: the eps(abc) block against the scalar triple loop it
replaced, the whole report against the all-Fraction report it replaced, and
the report kept on each WeakHopfData.  The eps(abc) row scan must run only
when the decision on a row and column basis of E = [eps(e_m e_c)] cannot
pass, and E's rank is pinned on the fixtures.  On passing QTG data the
check builds one LinearSystem, for E's rows and columns together, and
decides the counit identities and the antipode's invertibility without
counit_failures or an elimination; on grouplike data (groupoid and group
algebras) it builds none.

Corruptions: one entry of epsilon_wk is shifted, or one entry is added to
delta_wk, the antipode or the product, on the groupoid, group and quantum
transformation groupoid fixtures of conftest.py; or, off the grouplike fast
path, one eps value or Delta coefficient is set to 2, or one product is
redirected.  Grouplike-shaped data that is no weak Hopf algebra (k[x]/(x^n)
and the algebras of small monoids with zero, with Delta(m) = m (x) m, eps 1
and S = id) is compared with the reference too.  A slow sweep runs larger
group and groupoid algebras against both references.
"""

import itertools
import json
import math
import random
import sys
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from frobkit.cli import main
from frobkit import finalg
from frobkit.exactlin import LinearSystem, Mat, Vec, addto, is_invertible, rank_raising
from frobkit.finalg import (
    AlgebraData,
    CheckResult,
    VerificationReport,
    Witness,
    _scalar_witness,
    check_algebra,
    check_coassoc,
    counit_failures,
)
from frobkit.whopf import (
    QTGInput,
    WeakHopfData,
    check_weak_hopf,
    core,
    connected_groupoid,
    cyclic_group_table,
    groupoid_algebra,
    hopf_group_algebra,
    iterated_comult,
    pair_groupoid,
    qtg_build,
    separable_group_algebra,
    trivial_action,
    trivial_hopf,
)
from conftest import comult_pairs

NOTE_A = "eps(abc) != eps(a b_1) eps(b_2 c)"
NOTE_B = "eps(abc) != eps(a b_2) eps(b_1 c)"
WEAK_MULT = {"epsilon_wk_weak_mult_a": NOTE_A, "epsilon_wk_weak_mult_b": NOTE_B}
SHIFTS = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)]


@pytest.fixture(scope="session")
def weak_hopf_cases(groupoid_algebras, hopf_group_algebras, qtg_built):
    cases = dict(groupoid_algebras)
    cases.update({f"kZ{n}": h for n, h in hopf_group_algebras.items()})
    cases.update(qtg_built)
    return cases


def shift_epsilon(h: WeakHopfData, k: int, value) -> WeakHopfData:
    eps = Vec(h.dim, [*h.epsilon_wk.terms(), (k, value)])
    return WeakHopfData(h.algebra, h.delta_wk, eps, h.antipode)


def add_delta_entry(h: WeakHopfData, row: int, col: int, value) -> WeakHopfData:
    d = h.dim
    delta = Mat(d * d, d, [*h.delta_wk.items(), (row, col, value)])
    return WeakHopfData(h.algebra, delta, h.epsilon_wk, h.antipode)


def add_mult_entry(h: WeakHopfData, i: int, j: int, k: int, value) -> WeakHopfData:
    a = h.algebra
    mult = dict(a.mult)
    mult[(i, j)] = tuple((a.basis_product(i, j) + Vec(a.dim, {k: value})).terms())
    algebra = AlgebraData(a.dim, a.labels, mult, a.unit)
    return WeakHopfData(algebra, h.delta_wk, h.epsilon_wk, h.antipode)


def monomial_weak_hopf(dim: int, table: dict, unit: int) -> WeakHopfData:
    """Grouplike-shaped data: e_i e_j = e_k for table[i, j] = k (absent: 0),
    Delta(e_j) = e_j (x) e_j, eps(e_j) = 1 and S = id."""
    mult = {key: ((k, 1),) for key, k in table.items()}
    algebra = AlgebraData(dim, [f"e{j}" for j in range(dim)], mult, Vec.basis(dim, unit))
    delta = Mat(dim * dim, dim, [(j * dim + j, j, 1) for j in range(dim)])
    identity = Mat(dim, dim, [(j, j, 1) for j in range(dim)])
    return WeakHopfData(algebra, delta, Vec(dim, [(j, 1) for j in range(dim)]), identity)


def truncated_polynomial(n: int) -> WeakHopfData:
    """k[x]/(x^n) on the basis x^0, ..., x^(n-1): a weak Hopf algebra only for n = 1."""
    return monomial_weak_hopf(n, {(i, j): i + j for i in range(n) for j in range(n - i)}, 0)


def monoids_with_zero(size: int) -> list[list[list[int]]]:
    """Every associative table on {0, ..., size - 1} with zero 0 and identity 1."""
    others = range(2, size)
    tables = []
    for values in itertools.product(range(size), repeat=len(others) ** 2):
        t = [[0] * size for _ in range(size)]
        for x in range(1, size):
            t[1][x] = t[x][1] = x
        for (x, y), v in zip(itertools.product(others, others), values):
            t[x][y] = v
        triples = itertools.product(range(size), repeat=3)
        if all(t[t[x][y]][z] == t[x][t[y][z]] for x, y, z in triples):
            tables.append(t)
    return tables


# 1 + 3 + 25 tables: {0, 1}, then one and two more elements
MONOIDS = [t for size in (2, 3, 4) for t in monoids_with_zero(size)]


def monoid_algebra(t: list[list[int]], contracted: bool) -> WeakHopfData:
    """k[M] on every element of M, or k_0[M] (``contracted``), where the zero
    of M is 0 and the basis is M minus it."""
    if not contracted:
        table = {(x, y): v for x, row in enumerate(t) for y, v in enumerate(row)}
        return monomial_weak_hopf(len(t), table, 1)
    table = {
        (x - 1, y - 1): v - 1 for x, row in enumerate(t) for y, v in enumerate(row) if v and x and y
    }
    return monomial_weak_hopf(len(t) - 1, table, 0)


def set_epsilon(h: WeakHopfData, k: int, value) -> WeakHopfData:
    return shift_epsilon(h, k, value - h.epsilon_wk.get(k))


def set_delta_entry(h: WeakHopfData, col: int, value) -> WeakHopfData:
    """Delta(e_col) with its first term's coefficient set to ``value``."""
    row, v = next(iter(h.delta_wk.col_terms(col)))
    return add_delta_entry(h, row, col, value - v)


def redirect_product(h: WeakHopfData, key: tuple[int, int], k: int) -> WeakHopfData:
    a = h.algebra
    mult = {**a.mult, key: ((k, 1),)}
    algebra = AlgebraData(a.dim, a.labels, mult, a.unit)
    return WeakHopfData(algebra, h.delta_wk, h.epsilon_wk, h.antipode)


def naive_weak_mult(h: WeakHopfData):
    """First (a, b, c) witness of each identity, scanning b, then a, then c,
    with one scalar eps(e_a e_b e_c) and two scalar sums per triple."""
    alg = h.algebra
    d = h.dim
    e = [Vec.basis(d, k) for k in range(d)]
    eps = h.epsilon_wk.dot
    eps_prod = [[eps(alg.mul(e[i], e[j])) for j in range(d)] for i in range(d)]
    first = {NOTE_A: None, NOTE_B: None}
    for b in range(d):
        pairs = [(t // d, t % d, v) for t, v in h.delta_wk.col(b).items()]
        for i in range(d):
            for k in range(d):
                direct = eps(alg.mul(alg.mul(e[i], e[b]), e[k]))
                split_a = split_b = Fraction(0)
                for p, q, v in pairs:
                    split_a += v * eps_prod[i][p] * eps_prod[q][k]
                    split_b += v * eps_prod[i][q] * eps_prod[p][k]
                for note, split in ((NOTE_A, split_a), (NOTE_B, split_b)):
                    if first[note] is None and direct != split:
                        first[note] = Witness(
                            (i, b, k), Vec(1, {0: direct}), Vec(1, {0: split}), note
                        )
                if None not in first.values():
                    return first
    return first


def assert_matches_naive(h: WeakHopfData):
    checks = {c.name: c for c in check_weak_hopf(h).checks}
    expected = naive_weak_mult(h)
    for name, note in WEAK_MULT.items():
        assert checks[name].passed == (expected[note] is None)
        assert checks[name].witness == expected[note]
    return checks


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_weak_mult_matches_naive_on_corrupted_data(weak_hopf_cases, data):
    h = weak_hopf_cases[data.draw(st.sampled_from(sorted(weak_hopf_cases)))]
    d = h.dim
    index = st.integers(0, d - 1)
    value = data.draw(st.sampled_from(SHIFTS))
    edit = data.draw(st.sampled_from(["epsilon_wk", "delta_wk", "mult"]))
    if edit == "epsilon_wk":
        h = shift_epsilon(h, data.draw(index), value)
    elif edit == "delta_wk":
        h = add_delta_entry(h, data.draw(st.integers(0, d * d - 1)), data.draw(index), value)
    else:  # usually non-associative: the decision on R x C is skipped
        h = add_mult_entry(h, data.draw(index), data.draw(index), data.draw(index), value)
    assert_matches_naive(h)


# Delta(e_0) of (k, M_2) gains e_0 (x) e_1 or e_0 (x) e_2: only one of the
# two identities breaks, so the scan runs to the end looking for the other.
@pytest.mark.parametrize(
    "row, fails", [(1, "epsilon_wk_weak_mult_a"), (2, "epsilon_wk_weak_mult_b")]
)
def test_weak_mult_one_identity_fails(qtg_built, row, fails):
    checks = assert_matches_naive(add_delta_entry(qtg_built["k_mat2"], row, 0, Fraction(1)))
    assert [name for name in WEAK_MULT if not checks[name].passed] == [fails]


def test_weak_mult_matches_naive_on_fixtures(weak_hopf_cases):
    for h in weak_hopf_cases.values():
        checks = assert_matches_naive(h)
        assert all(checks[name].passed for name in WEAK_MULT)


# ---------------------------------------------------------------------------
# The decision on the cells (a in R, b, c in C), R and C the rows and columns
# of E = [eps(e_m e_c)] that raise its rank: the row scan runs only when the
# algebra check fails or a cell differs, and then gives the witnesses.


@pytest.fixture
def scans(monkeypatch):
    calls = []
    scan = core._weak_mult_scan

    def spy(h):
        calls.append(h)
        return scan(h)

    monkeypatch.setattr(core, "_weak_mult_scan", spy)
    return calls


def test_weak_mult_scan_skipped_on_fixtures(weak_hopf_cases, scans):
    for h in weak_hopf_cases.values():
        checks = {c.name: c for c in core._weak_hopf_report(h).checks}
        assert all(checks[check].passed for check in WEAK_MULT)
    assert scans == []


# Each edit breaks the identities only in cells that the decision reaches
# through a row of R or a column of C other than the first, or through a
# row or column that is not among the first rank(E); the mult edit leaves
# an identity broken that R x C misses, and the algebra check fails.
@pytest.mark.parametrize(
    "name, edit, args",
    [
        ("z2_plus_point", shift_epsilon, (2, Fraction(1))),
        ("pair2", add_delta_entry, (10, 0, Fraction(1))),
        ("pair2", add_delta_entry, (5, 0, Fraction(1))),
        ("pair2_x_z2", add_delta_entry, (36, 0, Fraction(1))),
        ("k_kz2", add_mult_entry, (2, 0, 1, Fraction(1))),
    ],
)
def test_weak_mult_scan_runs_when_an_identity_breaks(weak_hopf_cases, scans, name, edit, args):
    h = edit(weak_hopf_cases[name], *args)
    checks = assert_matches_naive(h)
    assert not all(checks[check].passed for check in WEAK_MULT)
    assert scans == [h]


def eps_form_rank(h: WeakHopfData) -> int:
    """rank E, checking that the pivots of the elimination of E's rows are
    the columns that raise the rank of E's columns in order."""
    eps_row, eps_col = core._counital_terms(h)[:2]
    rows, pivots = rank_raising(h.dim, eps_row)
    assert pivots == rank_raising(h.dim, eps_col)[0]
    return len(rows)


def test_rank_of_eps_form(weak_hopf_cases, groupoid_fixtures):
    for name, h in weak_hopf_cases.items():
        rank = eps_form_rank(h)
        if name.startswith("kZ"):
            assert rank == 1
        elif name in groupoid_fixtures:
            assert rank == len(groupoid_fixtures[name].objects)


def test_report_is_kept_on_the_data(groupoid_algebras):
    h = groupoid_algebras["pair2"]
    assert check_weak_hopf(h) is check_weak_hopf(h)


@pytest.mark.parametrize(
    "argv, structures",
    [
        (["whopf", "groupoid", "--pair-objects", "3", "check"], 1),
        (["whopf", "qtg", "--L", "cyclic:2", "--B", "cyclic:2", "check"], 2),  # L and H
    ],
)
def test_cli_verifies_each_structure_once(monkeypatch, capsys, argv, structures):
    verified = []
    uncached = core._weak_hopf_report

    def counting(h):
        verified.append(h)
        return uncached(h)

    monkeypatch.setattr(core, "_weak_hopf_report", counting)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(verified) == structures
    assert len({id(h) for h in verified}) == structures


# ---------------------------------------------------------------------------
# The whole report against the all-Fraction report it replaced: every identity
# that multiplies Delta terms is now decided on n Delta, with n the lcm of the
# denominators of delta_wk, and its witnesses are divided back by n^k.


def reference_epsilon_s(h: WeakHopfData, x: Vec) -> Vec:
    acc = {}
    for p, q, v in comult_pairs(h, h.unit):
        c = h.epsilon_wk.dot(h.algebra.mul(x, Vec.basis(h.dim, q)))
        addto(acc, c, ((p, v),))
    return Vec.adopt(h.dim, acc)


def reference_epsilon_t(h: WeakHopfData, x: Vec) -> Vec:
    acc = {}
    for p, q, v in comult_pairs(h, h.unit):
        c = h.epsilon_wk.dot(h.algebra.mul(Vec.basis(h.dim, p), x))
        addto(acc, c, ((q, v),))
    return Vec.adopt(h.dim, acc)


def reference_row_witness(prefix, lhs: dict, rhs: dict, note: str) -> Witness:
    k = min(k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))
    return _scalar_witness((*prefix, k), lhs.get(k, 0), rhs.get(k, 0), note)


def reference_convolutions(h: WeakHopfData, j: int) -> tuple[Vec, Vec]:
    a, s = h.algebra, h.antipode
    src = {}
    tgt = {}
    for p, q, v in h.coalgebra.delta_pairs(j):
        for k, c in s.col_terms(p):
            addto(src, v * c, a.basis_product(k, q).terms())
        for k, c in s.col_terms(q):
            addto(tgt, v * c, a.basis_product(p, k).terms())
    return Vec.adopt(h.dim, src), Vec.adopt(h.dim, tgt)


def reference_report(h: WeakHopfData) -> VerificationReport:
    """The unscaled report on Fraction Delta terms, kept verbatim."""
    a = h.algebra
    d = h.dim
    checks = list(check_algebra(a).checks)
    (coassoc,) = check_coassoc(h.coalgebra).checks
    checks.append(CheckResult("coassociativity_wk", coassoc.passed, coassoc.witness))

    basis = [Vec.basis(d, k) for k in range(d)]
    left_w = None
    right_w = None
    for j, lvec, rvec in counit_failures(h.coalgebra, h.epsilon_wk):
        if left_w is None and lvec != basis[j]:
            left_w = Witness((j,), lvec, basis[j], "(eps(x)id)Delta != id")
        if right_w is None and rvec != basis[j]:
            right_w = Witness((j,), rvec, basis[j], "(id(x)eps)Delta != id")
    checks.append(CheckResult("counit_wk_left", left_w is None, left_w))
    checks.append(CheckResult("counit_wk_right", right_w is None, right_w))

    mult_w = None
    for i in range(d):
        pairs_i = h.coalgebra.delta_pairs(i)
        for j in range(d):
            acc = {}
            for p, q, v in pairs_i:
                for p2, q2, v2 in h.coalgebra.delta_pairs(j):
                    right_terms = a.basis_product(q, q2).terms()
                    for kl, vl in a.basis_product(p, p2).terms():
                        addto(acc, v * v2 * vl, right_terms, kl * d)
            lhs = Vec.adopt(d * d, acc)
            rhs = h.coalgebra.delta_of(a.basis_product(i, j))
            if lhs != rhs:
                mult_w = Witness((i, j), lhs, rhs, "Delta(a)Delta(b) != Delta(ab)")
                break
        if mult_w:
            break
    checks.append(CheckResult("delta_wk_multiplicative", mult_w is None, mult_w))

    eps_row = [
        {k: c for k in range(d) if (c := h.epsilon_wk.dot(a.basis_product(m, k)))}
        for m in range(d)
    ]
    weak_a = None
    weak_b = None
    for b_mid in range(d):
        dpairs = h.coalgebra.delta_pairs(b_mid)
        for i in range(d):
            row_i = eps_row[i]
            direct = {}
            for m, c in a.basis_product(i, b_mid).terms():
                addto(direct, c, eps_row[m].items())
            split_a = {}
            split_b = {}
            for p, q, v in dpairs:
                if p in row_i:
                    addto(split_a, v * row_i[p], eps_row[q].items())
                if q in row_i:
                    addto(split_b, v * row_i[q], eps_row[p].items())
            if weak_a is None and direct != split_a:
                weak_a = reference_row_witness((i, b_mid), direct, split_a, NOTE_A)
            if weak_b is None and direct != split_b:
                weak_b = reference_row_witness((i, b_mid), direct, split_b, NOTE_B)
            if weak_a is not None and weak_b is not None:
                break
        if weak_a is not None and weak_b is not None:
            break
    checks.append(CheckResult("epsilon_wk_weak_mult_a", weak_a is None, weak_a))
    checks.append(CheckResult("epsilon_wk_weak_mult_b", weak_b is None, weak_b))

    unit_pairs = comult_pairs(h, h.unit)
    lhs_vec = Vec(
        d * d * d,
        [((p * d + q) * d + r, v) for (p, q, r), v in iterated_comult(h, h.unit, 3).items()],
    )
    acc_a = {}
    acc_b = {}
    for p, q, v in unit_pairs:
        for r, s, w in unit_pairs:
            addto(acc_a, v * w, a.basis_product(q, r).terms(), p * d * d + s, d)
            addto(acc_b, v * w, a.basis_product(r, q).terms(), p * d * d + s, d)
    rhs_a = Vec.adopt(d * d * d, acc_a)
    rhs_b = Vec.adopt(d * d * d, acc_b)
    wa = None if lhs_vec == rhs_a else Witness(
        (), lhs_vec, rhs_a, "Delta^2(1) != (Delta(1)(x)1)(1(x)Delta(1))"
    )
    wb = None if lhs_vec == rhs_b else Witness(
        (), lhs_vec, rhs_b, "Delta^2(1) != (1(x)Delta(1))(Delta(1)(x)1)"
    )
    checks.append(CheckResult("delta_wk_unit_a", wa is None, wa))
    checks.append(CheckResult("delta_wk_unit_b", wb is None, wb))

    s_cols = [h.antipode.col(j) for j in range(d)]
    src_w = None
    tgt_w = None
    sand_w = None
    for j in range(d):
        lhs_src, lhs_tgt = reference_convolutions(h, j)
        es = reference_epsilon_s(h, basis[j])
        et = reference_epsilon_t(h, basis[j])
        if src_w is None and lhs_src != es:
            src_w = Witness((j,), lhs_src, es, "S(h_1) h_2 != eps_s(h)")
        if tgt_w is None and lhs_tgt != et:
            tgt_w = Witness((j,), lhs_tgt, et, "h_1 S(h_2) != eps_t(h)")
        if sand_w is None:
            acc = {}
            for (p, q, r), v in iterated_comult(h, basis[j], 3).items():
                term = a.mul(a.mul(s_cols[p], basis[q]), s_cols[r])
                addto(acc, v, term.terms())
            lhs_sand = Vec.adopt(d, acc)
            if lhs_sand != s_cols[j]:
                sand_w = Witness(
                    (j,), lhs_sand, s_cols[j], "S(h_1) h_2 S(h_3) != S(h)"
                )
    checks.append(CheckResult("antipode_source", src_w is None, src_w))
    checks.append(CheckResult("antipode_target", tgt_w is None, tgt_w))
    checks.append(CheckResult("antipode_sandwich", sand_w is None, sand_w))

    span = LinearSystem(d)
    span.add_matrix(h.antipode)
    inv_ok = span.rank == d
    checks.append(
        CheckResult(
            "antipode_invertible",
            inv_ok,
            None
            if inv_ok
            else Witness((), Vec(1), Vec(1), "antipode matrix is singular"),
        )
    )
    return VerificationReport(tuple(checks))


# 1/5 and -2/7 bring new denominators into delta_wk, so n changes (2 -> 10, ...)
EDIT_VALUES = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(1, 5), Fraction(-2, 7)]


def add_antipode_entry(h: WeakHopfData, row: int, col: int, value) -> WeakHopfData:
    antipode = Mat(h.dim, h.dim, [*h.antipode.items(), (row, col, value)])
    return WeakHopfData(h.algebra, h.delta_wk, h.epsilon_wk, antipode)


QTG_CASES = {"k_mat2", "k_kz2", "kz2_kz2", "k_kz3"}
TRUNCATED = {f"kx{n}": n for n in range(1, 7)}  # k[x]/(x^n); only kx1 passes


@pytest.fixture(scope="session")
def report_cases(weak_hopf_cases):
    """The fixtures, the QTG (k, kZ/3), whose n is 3, and k[x]/(x^n) for n <= 6."""
    B, e, om = separable_group_algebra(cyclic_group_table(3))
    L = trivial_hopf()
    cases = {**weak_hopf_cases, "k_kz3": qtg_build(QTGInput(L, B, e, om, trivial_action(B, L)))}
    cases.update({name: truncated_polynomial(n) for name, n in TRUNCATED.items()})
    return cases


def assert_report_matches_reference(h: WeakHopfData):
    expected_n = math.lcm(*(Fraction(v).denominator for _, _, v in h.delta_wk.items()))
    assert h.denom == expected_n
    scaled = [v for j in range(h.dim) for _, _, v in h.scaled.delta_pairs(j)]
    assert all(type(v) is int for v in scaled)
    assert all(type(v) is int for _, _, v in h.scaled_unit_pairs)
    got = core._weak_hopf_report(h)
    expected = reference_report(h)
    assert got.checks == expected.checks
    assert json.dumps(got.to_json()) == json.dumps(expected.to_json())


def test_report_matches_reference_on_fixtures(report_cases, groupoid_algebras):
    for h in groupoid_algebras.values():
        assert h.denom == 1
    assert {report_cases[k].denom for k in ("k_mat2", "k_kz2", "kz2_kz2")} == {2}
    assert report_cases["k_kz3"].denom == 3
    for h in report_cases.values():
        assert_report_matches_reference(h)


EDITS = ["delta_wk", "epsilon_wk", "antipode", "mult", "eps_to_2", "delta_to_2", "redirect"]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_report_matches_reference_on_edited_data(report_cases, data):
    if data.draw(st.booleans()):
        h = report_cases[data.draw(st.sampled_from(sorted(report_cases)))]
    else:  # k[M] or k_0[M] for a monoid M with zero, unedited or edited
        h = monoid_algebra(data.draw(st.sampled_from(MONOIDS)), data.draw(st.booleans()))
    d = h.dim
    index = st.integers(0, d - 1)
    value = data.draw(st.sampled_from(EDIT_VALUES))
    field = data.draw(st.sampled_from(["none", *EDITS]))
    if field == "delta_wk":
        h = add_delta_entry(h, data.draw(st.integers(0, d * d - 1)), data.draw(index), value)
    elif field == "epsilon_wk":
        h = shift_epsilon(h, data.draw(index), value)
    elif field == "antipode":
        h = add_antipode_entry(h, data.draw(index), data.draw(index), value)
    elif field == "mult":
        h = add_mult_entry(h, data.draw(index), data.draw(index), data.draw(index), value)
    elif field == "eps_to_2":
        h = set_epsilon(h, data.draw(index), 2)
    elif field == "delta_to_2":
        h = set_delta_entry(h, data.draw(index), 2)
    elif field == "redirect" and h.algebra.mult:
        key = data.draw(st.sampled_from(sorted(h.algebra.mult)))
        h = redirect_product(h, key, data.draw(index))
    eps_form_rank(h)
    assert_report_matches_reference(h)


def test_grouplike_edits_leave_the_fast_path(groupoid_algebras):
    """Each edit that the hypothesis test draws as eps_to_2, delta_to_2 or
    redirect takes a groupoid fixture off the grouplike path, and its report
    still equals the reference's."""
    for name, h in groupoid_algebras.items():
        assert core.grouplike(h), name
        (key, ((k, _),)), d = next(iter(h.algebra.mult.items())), h.dim
        edits = [set_epsilon(h, 0, 2), set_delta_entry(h, 0, 2)]
        edits += [redirect_product(h, key, (k + 1) % d)] if d > 1 else []
        for edited in edits:
            assert not core.grouplike(edited), name
            assert_report_matches_reference(edited)


@pytest.mark.parametrize("contracted", [False, True])
def test_report_matches_reference_on_monoid_algebras(contracted):
    assert len(MONOIDS) == 29
    for t in MONOIDS:
        h = monoid_algebra(t, contracted)
        assert core.grouplike(h)
        assert_report_matches_reference(h)


def test_truncated_polynomial_witnesses(report_cases):
    """k[x]/(x^3): Delta(x^i) = x^i (x) x^i passes every coalgebra check, but
    eps(x 1 x^2) = 0 while eps(x 1) eps(1 x^2) = 1, and S = id is no antipode."""
    h = report_cases["kx3"]
    assert core.grouplike(h)
    failures = [(c.name, c.witness.indices) for c in check_weak_hopf(h).failures()]
    assert failures == [
        ("epsilon_wk_weak_mult_a", (1, 0, 2)),
        ("epsilon_wk_weak_mult_b", (1, 0, 2)),
        ("antipode_source", (1,)),
        ("antipode_target", (1,)),
        ("antipode_sandwich", (1,)),
    ]
    assert check_weak_hopf(report_cases["kx1"]).passed


# ---------------------------------------------------------------------------
# The work the check saves on passing data: one elimination for both bases of
# E, the counit identities on n Delta, and no elimination for a permutation-
# shaped antipode.  Spies record the caller of each LinearSystem built.


@pytest.fixture
def systems(monkeypatch):
    built = []
    init = LinearSystem.__init__

    def spy(self, ncols):
        built.append(sys._getframe(1).f_code.co_name)
        init(self, ncols)

    def no_counit_failures(*args):
        raise AssertionError("counit_failures called")

    monkeypatch.setattr(LinearSystem, "__init__", spy)
    monkeypatch.setattr(finalg, "counit_failures", no_counit_failures)
    monkeypatch.setattr(core, "counit_failures", no_counit_failures, raising=False)
    return built


def test_passing_check_saves_work(report_cases, systems):
    for name, h in report_cases.items():
        if name in TRUNCATED and name != "kx1":
            continue
        systems.clear()
        assert is_invertible(h.antipode), name
        assert systems == [], name
        assert core._weak_hopf_report(h).passed, name
        # QTG data: the eps(abc) decision's one elimination picks R, and C from
        # its pivots; grouplike data (groupoid and group algebras, k) counts
        assert core.grouplike(h) == (name not in QTG_CASES), name
        assert systems == (["rank_raising"] if name in QTG_CASES else []), name


def test_counit_witnesses_are_unscaled_on_k_kz3(report_cases):
    h = report_cases["k_kz3"]
    assert h.denom == 3
    fractional = False
    for k in range(h.dim):
        for value in EDIT_VALUES:
            edited = shift_epsilon(h, k, value)
            got = {c.name: c for c in core._weak_hopf_report(edited).checks}
            expected = {c.name: c for c in reference_report(edited).checks}
            for name in ("counit_wk_left", "counit_wk_right"):
                assert got[name] == expected[name]
                w = got[name].witness
                assert w is not None and w.rhs == Vec.basis(h.dim, w.indices[0])
                fractional |= any(type(v) is Fraction for _, v in w.lhs.terms())
    assert fractional


def test_report_matches_reference_when_n_grows(report_cases):
    # n = 3 on (k, kZ/3); a 1/5 entry makes it 15 and a -2/7 entry 105
    h = add_delta_entry(report_cases["k_kz3"], 0, 0, Fraction(1, 5))
    assert h.denom == 15
    assert_report_matches_reference(h)
    h = add_delta_entry(h, 1, 1, Fraction(-2, 7))
    assert h.denom == 105
    assert_report_matches_reference(h)


def nested_mul_sandwich(h: WeakHopfData) -> Witness | None:
    """The first witness of S(h_1) h_2 S(h_3) = S(h) on n Delta, two nested
    AlgebraData.mul calls per term of (Delta (x) id)Delta(e_j), kept verbatim."""
    a, d, n, scaled = h.algebra, h.dim, h.denom, h.scaled
    basis = [Vec.basis(d, k) for k in range(d)]
    s_cols = [h.antipode.col(j) for j in range(d)]
    for j in range(d):
        acc = {}
        for p0, r, v in scaled.delta_pairs(j):  # (Delta (x) id)Delta(e_j)
            for p, q, w in scaled.delta_pairs(p0):
                term = a.mul(a.mul(s_cols[p], basis[q]), s_cols[r])
                addto(acc, v * w, term.terms())
        rhs = addto({}, n * n, s_cols[j].terms())
        if acc != rhs:
            return core._scaled_witness(h, (j,), acc, rhs, d, 2, "S(h_1) h_2 S(h_3) != S(h)")
    return None


@pytest.mark.parametrize(
    "name, row, col",
    [("pair2", 1, 1), ("pair3_x_z2", 8, 0), ("two_points", 0, 1), ("k_mat2", 10, 0)],
)
@pytest.mark.parametrize("value", [Fraction(1), Fraction(1, 2)])
def test_only_the_sandwich_fails(report_cases, name, row, col, value):
    """One antipode entry added so that S(h_1) h_2 and h_1 S(h_2) still hold
    but S(h_1) h_2 S(h_3) = S(h) does not: the sandwich summed from the
    source convolutions gives the nested-mul witness and report."""
    h = add_antipode_entry(report_cases[name], row, col, value)
    report = check_weak_hopf(h)
    assert [c.name for c in report.failures()] == ["antipode_sandwich"]
    assert report.failures()[0].witness == nested_mul_sandwich(h)
    assert_report_matches_reference(h)


# ---------------------------------------------------------------------------
# Wide sweep (pytest -m slow): group algebras k[Z/n] (rank E = 1), pair
# groupoids (rank N) and connected groupoids N x Z/m up to dim 72, each
# clean and with one seeded eps shift, against both references.


def connected_algebra(k: int, m: int) -> WeakHopfData:
    return groupoid_algebra(connected_groupoid(k, cyclic_group_table(m)))


def sweep_cases():
    cases = [(f"kZ{n}", partial(hopf_group_algebra, cyclic_group_table(n))) for n in range(1, 41)]
    cases += [(f"pair{n}", partial(groupoid_algebra, pair_groupoid(n))) for n in range(1, 8)]
    cases += [
        (f"{k}xZ{m}", partial(connected_algebra, k, m))
        for k in range(2, 7)
        for m in range(2, 72 // (k * k) + 1)
    ]
    return cases


SWEEP = sweep_cases()


@pytest.mark.slow
@pytest.mark.parametrize("name, build", SWEEP, ids=[name for name, _ in SWEEP])
def test_weak_mult_sweep_matches_references(name, build):
    h = build()
    rng = random.Random(name)
    edited = shift_epsilon(h, rng.randrange(h.dim), rng.choice(SHIFTS))
    for g in (h, edited):
        assert_matches_naive(g)
        assert_report_matches_reference(g)
    assert check_weak_hopf(h).passed
