"""AlgebraData.generators and the weak Hopf checks that use it.

The generating set is checked against a test-local closure: every kept e_k
lies outside the span of 1 and the right-nested words in the generators
before it, every other e_k inside it, and 1 with the words in all of them
spans the algebra.  Delta(ab) = Delta(a) Delta(b) is decided on the |S| + 1
rows a in {1} u S when the algebra check passes; otherwise, or when a row
fails, the scan over all basis pairs runs and its witness is the one of the
reference report.  Coassociativity is decided on n Delta, and its witness is
divided back by n^2.
"""

import json
from fractions import Fraction

import pytest

from frobkit.exactlin import LinearSystem, Vec
from frobkit.whopf import (
    QTGInput,
    core,
    cyclic_group_table,
    groupoid_algebra,
    hopf_group_algebra,
    pair_groupoid,
    qtg_build,
    separable_group_algebra,
    separable_matrix_algebra,
    trivial_action,
    trivial_hopf,
)
from test_weak_hopf_check import add_delta_entry, add_mult_entry, reference_report


def _qtg(L, separable):
    B, e, omega = separable
    return qtg_build(QTGInput(L, B, e, omega, trivial_action(B, L)))


@pytest.fixture(scope="session")
def generator_cases(groupoid_algebras, hopf_group_algebras, qtg_built):
    cases = {f"groupoid_{k}": h for k, h in groupoid_algebras.items()}
    cases.update({f"kZ{n}": h for n, h in hopf_group_algebras.items()})
    cases.update(qtg_built)
    z3 = cyclic_group_table(3)
    cases["k_kz3"] = _qtg(trivial_hopf(), separable_group_algebra(z3))
    cases["kz3_kz3"] = _qtg(hopf_group_algebra(z3), separable_group_algebra(z3))
    cases["k_mat3"] = _qtg(trivial_hopf(), separable_matrix_algebra(3))
    return cases


def _rank(vectors) -> int:
    sys_ = LinearSystem(vectors[0].dim)
    for v in vectors:
        sys_.add(dict(v.terms()))
    return sys_.rank


def word_span(a, gens) -> list[Vec]:
    """Independent vectors spanning 1 and the right-nested words in ``gens``:
    every vector that widens the span is multiplied by every generator, until
    nothing new appears."""
    sys_ = LinearSystem(a.dim)
    span: list[Vec] = []
    frontier = [a.unit]
    while frontier:
        new = []
        for v in frontier:
            sys_.add(dict(v.terms()))
            if sys_.rank > len(span):
                span.append(v)
                new += [a.mul(Vec.basis(a.dim, g), v) for g in gens]
        frontier = new
    return span


def test_generators_are_the_greedy_generating_set(generator_cases):
    for name, h in generator_cases.items():
        a = h.algebra
        gens = a.generators()
        assert gens == sorted(set(gens)), name
        for t in range(len(gens) + 1):
            span = word_span(a, gens[:t])
            # the basis elements between generator t-1 and generator t
            lo = gens[t - 1] + 1 if t else 0
            hi = gens[t] if t < len(gens) else a.dim
            for k in range(lo, hi):
                assert _rank(span + [Vec.basis(a.dim, k)]) == len(span), (name, k)
            if t < len(gens):
                assert _rank(span + [Vec.basis(a.dim, gens[t])]) > len(span), name
        assert len(word_span(a, gens)) == a.dim, name
        assert a.generators() is gens


@pytest.mark.parametrize(
    "name, count",
    [
        ("kZ1", 0),
        ("kZ2", 1),
        ("kZ3", 1),
        ("kZ4", 1),
        ("groupoid_pair2", 3),
        ("groupoid_pair3", 5),
        ("kz3_kz3", 3),
        ("k_mat3", 17),
    ],
)
def test_generator_counts(generator_cases, name, count):
    assert len(generator_cases[name].algebra.generators()) == count


@pytest.mark.parametrize("objects", [4, 6])
def test_pair_groupoid_needs_2n_minus_1_generators(objects):
    a = groupoid_algebra(pair_groupoid(objects)).algebra
    assert len(a.generators()) == 2 * objects - 1


@pytest.fixture
def mult_rows(monkeypatch):
    """The x of every row (n Delta)(x) (n Delta)(e_j) = n (n Delta)(x e_j)
    the weak Hopf report evaluates, in order."""
    rows = []
    original = core._mult_row

    def spy(h, x_pairs, x, grouped):
        rows.append(x)
        return original(h, x_pairs, x, grouped)

    monkeypatch.setattr(core, "_mult_row", spy)
    return rows


def _check(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check


def test_valid_data_evaluates_one_row_per_generator_and_the_unit(generator_cases, mult_rows):
    for name, h in generator_cases.items():
        mult_rows.clear()
        report = core._weak_hopf_report(h)
        assert report.passed, name
        gens = h.algebra.generators()
        basis = [Vec.basis(h.dim, g) for g in gens]
        assert mult_rows == [h.unit, *basis], name
        assert len(mult_rows) == len(gens) + 1


def _assert_scan_ran(h, mult_rows, after_rows: bool):
    """The report's multiplicativity check equals the reference's, and the
    rows evaluated end with the scan's e_0, ..., e_i, i the witness's first
    index.  Before them come the decided rows 1, e_g, ... up to the first
    that fails, or none when the algebra check fails."""
    got = _check(core._weak_hopf_report(h), "delta_wk_multiplicative")
    expected = _check(reference_report(h), "delta_wk_multiplicative")
    assert not expected.passed
    assert got == expected
    assert json.dumps(got.witness.to_json()) == json.dumps(expected.witness.to_json())
    scan = [Vec.basis(h.dim, k) for k in range(got.witness.indices[0] + 1)]
    decided = mult_rows[: len(mult_rows) - len(scan)]
    assert mult_rows[len(decided):] == scan
    if after_rows:
        rows = [h.unit] + [Vec.basis(h.dim, g) for g in h.algebra.generators()]
        assert decided and decided == rows[: len(decided)]
    else:
        assert decided == []


@pytest.mark.parametrize(
    "name, row, col, value",
    [
        ("groupoid_pair2", 1, 0, 1),  # Delta(e_0) gains e_0 (x) e_1
        ("groupoid_pair2", 3, 1, 1),
        ("k_kz3", 10, 2, 1),
        ("kz2_kz2", 5, 3, Fraction(1, 2)),
        ("k_mat3", 100, 7, 1),
    ],
)
def test_broken_multiplicativity_falls_back_to_the_scan(
    generator_cases, mult_rows, name, row, col, value
):
    h = add_delta_entry(generator_cases[name], row, col, value)
    _assert_scan_ran(h, mult_rows, after_rows=True)


def test_non_associative_product_skips_the_rows(generator_cases, mult_rows):
    # pair2 with e_1 e_2 gaining e_0: associativity fails at (1, 2, 1)
    h = add_mult_entry(generator_cases["groupoid_pair2"], 1, 2, 0, 1)
    assert not _check(reference_report(h), "associativity").passed
    _assert_scan_ran(h, mult_rows, after_rows=False)


def test_coassociativity_witness_is_divided_by_n_squared(generator_cases):
    # (k, kZ/3) has n = 3; one more entry 1 keeps n and breaks coassociativity
    h = add_delta_entry(generator_cases["k_kz3"], 0, 4, 1)
    assert h.denom == 3 and h.scaled is not h.coalgebra
    got = _check(core._weak_hopf_report(h), "coassociativity_wk")
    expected = _check(reference_report(h), "coassociativity_wk")
    assert not got.passed
    assert got == expected
    assert json.dumps(got.witness.to_json()) == json.dumps(expected.witness.to_json())
    values = [v for _, v in got.witness.lhs.items() + got.witness.rhs.items()]
    assert any(Fraction(v).denominator > 1 for v in values)
