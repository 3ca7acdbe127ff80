"""casimir_comult returns the whole Frobenius structure of a Casimir element:
Delta(x) = X x, the counit, and the Delta(1) decision of solve_counit.

The Casimir identity is decided on the columns X e_x themselves, as
check_casimir decides it.  The recorded decision and counit are compared with
a fresh ComultData on the same Delta, where _delta_one scans the columns
and solve_counit solves again.  Cases: any element of the solved Casimir
space of the NSY, k[Z/3] and M_2 algebras and of a non-associative k x k,
and the integral comultiplications of the groupoid, group and QTG fixtures.
A frobenius command decides the Casimir identity of its X once: the
columns that _casimir_columns yields are counted per element.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from test_delta_one import (
    BIMODULE_CASES,
    SCALARS,
    base_comult,
    casimir_basis,
    casimir_space,
    from_delta_one,
    non_associative_kxk,
)

from frobkit import cli, finalg
from frobkit.errors import PreconditionError
from frobkit.exactlin import Mat, Vec
from frobkit.finalg import (
    CasimirElement,
    ComultData,
    _delta_one,
    casimir_comult,
    check_algebra,
    check_casimir,
    solve_counit,
)
from frobkit.whopf import core as whopf_core
from frobkit.whopf import (
    WeakHopfData,
    find_nondegenerate_integral,
    frobenius_from_integral,
    integral_space,
    qtg_integral,
)


def assert_matches_fresh(c: ComultData) -> None:
    fresh = ComultData(c.algebra, c.delta)
    assert _delta_one(c) == _delta_one(fresh)
    assert from_delta_one(c) is from_delta_one(fresh)
    if from_delta_one(fresh):
        assert c.counit == solve_counit(fresh)
    else:
        assert c.counit is None


def combination(basis: list[Vec], dim: int, data) -> Vec:
    element = Vec(dim * dim)
    for b in basis:
        element = element + b.scale(data.draw(st.sampled_from([Fraction(0), *SCALARS])))
    return element


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BIMODULE_CASES), st.data())
def test_casimir_space_structure_matches_fresh(name, data):
    a = base_comult(name).algebra
    c = casimir_comult(CasimirElement(a, combination(casimir_space(name), a.dim, data)))
    assert from_delta_one(c)
    assert_matches_fresh(c)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BIMODULE_CASES), st.data())
def test_casimir_comult_decides_as_check_casimir(name, data):
    """A Casimir element plus one entry: casimir_comult raises exactly when
    check_casimir fails, with its witness."""
    a = base_comult(name).algebra
    d = a.dim
    flat = data.draw(st.integers(0, d * d - 1))
    extra = Vec(d * d, {flat: data.draw(st.sampled_from(SCALARS))})
    cas = CasimirElement(a, combination(casimir_space(name), d, data) + extra)
    report = check_casimir(cas)
    if report.passed:
        assert_matches_fresh(casimir_comult(cas))
    else:
        with pytest.raises(PreconditionError) as err:
            casimir_comult(cas)
        assert err.value.witness == report.failures()[0].witness


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_non_associative_structure_matches_fresh(data):
    a = non_associative_kxk()
    assert not check_algebra(a).passed
    c = casimir_comult(CasimirElement(a, combination(casimir_basis(a), a.dim, data)))
    assert from_delta_one(c) is False and c.counit is None
    assert_matches_fresh(c)


def test_integral_structures_match_fresh(request):
    for fixture in ("groupoid_algebras", "hopf_group_algebras", "qtg_built"):
        for h in request.getfixturevalue(fixture).values():
            lams = [*integral_space(h, "left"), find_nondegenerate_integral(h)[0]]
            for lam in lams:
                assert_matches_fresh(frobenius_from_integral(h, lam))


def test_qtg_integral_structures_match_fresh(qtg_instances, qtg_built):
    for name, q in qtg_instances.items():
        h = qtg_built[name]
        c = frobenius_from_integral(h, qtg_integral(q, h)[0])
        assert c.counit is not None, name
        assert_matches_fresh(c)


def test_frobenius_from_integral_rejects_a_non_associative_algebra():
    """L = e_0 on the k x k algebra with Delta(e_0) = e_0 (x) e_0 and S = id:
    X = e_0 (x) e_0 is Casimir, but check_algebra fails."""
    a = non_associative_kxk()
    h = WeakHopfData(a, Mat(4, 2, [(0, 0, 1)]), Vec(2), Mat(2, 2, [(0, 0, 1), (1, 1, 1)]))
    with pytest.raises(PreconditionError):
        frobenius_from_integral(h, Vec.basis(2, 0))


@pytest.mark.parametrize(
    "argv, dim",
    [
        (["groupoid", "--pair-objects", "3"], 9),
        (["group", "--cyclic", "5"], 5),
        (["qtg", "--L", "cyclic:3", "--B", "cyclic:3"], 27),
    ],
)
def test_frobenius_decides_the_casimir_identity_once(argv, dim, monkeypatch, capsys):
    """The X of the Frobenius structure is evaluated in one pass over its d
    columns, and no element is evaluated twice (the weak Hopf check and, for
    a QTG, B's separability idempotent evaluate others)."""
    passes = []  # [X, columns read] per call of the evaluator
    frobenius = []
    columns, comult = finalg._casimir_columns, whopf_core.casimir_comult

    def columns_spy(a, element, right):
        read = [element, 0]
        passes.append(read)
        for column in columns(a, element, right):
            read[1] += 1
            yield column

    def comult_spy(cas):
        frobenius.append(cas.element)
        return comult(cas)

    monkeypatch.setattr(finalg, "_casimir_columns", columns_spy)
    monkeypatch.setattr(whopf_core, "casimir_comult", comult_spy)
    assert cli.main(["whopf", *argv, "frobenius"]) == 0
    assert "classification: Frobenius" in capsys.readouterr().out
    (x,) = frobenius
    assert x.dim == dim * dim
    assert [read for element, read in passes if element == x] == [dim]
    elements = [element for element, _ in passes]
    assert len(elements) == len(set(elements))
