"""solve_counit against the per-column elimination it replaced.

solve_counit solves the d rows (eps (x) id)X = 1 of X = Delta(1); they
imply (id (x) eps)X = 1.  The reference below writes both counit identities
at every basis element, 2d^2 rows, for any linear Delta.  Over a unital
associative algebra with a bimodule Delta the two row sets span the same
affine space, so the solutions agree, and a counit is unique when it exists,
so a consistent reference has rank d.  Cases: the NSY sweep n, ell <= 3, m_i <= 2, the
bimodule map of any Casimir element of NSY, M_2 and k[Z/3] algebras, the
integral comultiplications of the weak Hopf fixtures, and the zero Delta.
"""

import pytest
from hypothesis import given, settings, strategies as st

from test_delta_one import (
    BIMODULE_CASES,
    SCALARS,
    base_comult,
    broken_kxk_comult,
    casimir_space,
    non_associative_kxk,
)

from frobkit.errors import PreconditionError
from frobkit.exactlin import ONE, ZERO, LinearSystem, Mat, Vec
from frobkit.finalg import (
    AlgebraData,
    CasimirElement,
    Classification,
    ComultData,
    _counit_rows,
    _delta_one,
    casimir_comult,
    check_algebra,
    classify,
    solve_counit,
)
from frobkit import finalg
from frobkit.nsy import is_frobenius, nsy_delta, sweep_params
from frobkit.whopf import frobenius_from_integral, integral_space


def reference_counit_system(c: ComultData) -> LinearSystem:
    """(eps (x) id)Delta(e_j) = e_j and (id (x) eps)Delta(e_j) = e_j, one row
    per output coordinate and basis element j."""
    d = c.algebra.dim
    sys_ = LinearSystem(d)
    for j in range(d):
        by_q: dict = {}
        by_p: dict = {}
        for p, q, v in c.delta_pairs(j):
            by_q.setdefault(q, {})[p] = v
            by_p.setdefault(p, {})[q] = v
        for rows in (by_q, by_p):
            for k in range(d):
                coeffs = rows.get(k, {})
                rhs = ONE if k == j else ZERO
                if coeffs or rhs:
                    sys_.add(coeffs, rhs)
    return sys_


def assert_matches_reference(c: ComultData) -> None:
    ref = reference_counit_system(c)
    if ref.solution() is not None:
        assert ref.rank == c.algebra.dim
    assert solve_counit(c) == ref.solution()


def zero_comult(a: AlgebraData) -> ComultData:
    return ComultData(a, Mat(a.dim * a.dim, a.dim))


def unital_non_associative() -> AlgebraData:
    """Unit e_0 and e_1 e_1 = e_2, e_2 e_1 = e_1: (e_1 e_1) e_1 = e_1 but
    e_1 (e_1 e_1) = 0."""
    e = [((k, 1),) for k in range(3)]
    mult = {(0, k): e[k] for k in range(3)} | {(k, 0): e[k] for k in range(3)}
    return AlgebraData(3, ["1", "a", "b"], {**mult, (1, 1): e[2], (2, 1): e[1]}, Vec.basis(3, 0))


NON_ASSOCIATIVE = {"kxk": non_associative_kxk, "unital": unital_non_associative}


def test_nsy_sweep_matches_reference():
    for p in sweep_params(3, 3, 2):
        c = nsy_delta(p)
        assert_matches_reference(c)
        assert_matches_reference(zero_comult(c.algebra))


def full_counit_rows(a: AlgebraData, x: Vec) -> Vec | None:
    """All d rows (eps (x) id)X = 1 of _counit_rows, none skipped."""
    d = a.dim
    rows: list[dict] = [{} for _ in range(d)]
    for t, v in x.terms():
        p, k = divmod(t, d)
        rows[k][p] = v
    sys_ = LinearSystem(d)
    for k, coeffs in enumerate(rows):
        rhs = a.unit.get(k)
        if coeffs or rhs:
            sys_.add(coeffs, rhs)
    return sys_.solution()


@pytest.mark.parametrize("p", sweep_params(3, 3, 2), ids=str)
def test_counit_rows_stop_at_the_first_contradiction(p, monkeypatch):
    """_counit_rows equals the solve of all d rows, no row is added after
    the first one that returns False, and a None answer comes from such a
    row.  A counit exists exactly on the Frobenius instances."""
    c = nsy_delta(p)
    x = _delta_one(c).x
    returned = []

    class Spy(LinearSystem):
        def add(self, coeffs, rhs=ZERO):
            assert all(returned), "row added after the system became inconsistent"
            returned.append(super().add(coeffs, rhs))
            return returned[-1]

    monkeypatch.setattr(finalg, "LinearSystem", Spy)
    eps = _counit_rows(c.algebra, x)
    monkeypatch.undo()
    assert eps == full_counit_rows(c.algebra, x)
    assert (eps is not None) == is_frobenius(p)
    assert returned and returned[-1] is (eps is not None)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BIMODULE_CASES), st.data())
def test_any_casimir_element_matches_reference(name, data):
    a = base_comult(name).algebra
    d = a.dim
    element = Vec(d * d)
    for b in casimir_space(name):
        element = element + b.scale(data.draw(st.sampled_from([ZERO, *SCALARS])))
    c = casimir_comult(CasimirElement(a, element))
    assert_matches_reference(ComultData(a, c.delta))  # decided again, not as built


def test_zero_delta_matches_reference():
    for name in BIMODULE_CASES:
        assert_matches_reference(zero_comult(base_comult(name).algebra))


def weak_hopf_fixtures(request):
    for fixture in ("groupoid_algebras", "hopf_group_algebras", "qtg_built"):
        yield from request.getfixturevalue(fixture).values()


def test_integral_comultiplications_match_reference(request):
    for h in weak_hopf_fixtures(request):
        for lam in integral_space(h, "left"):
            c = frobenius_from_integral(h, lam)
            fresh = ComultData(h.algebra, c.delta)
            assert_matches_reference(fresh)
            assert c.counit == solve_counit(fresh)
        assert_matches_reference(zero_comult(h.algebra))


@pytest.mark.parametrize(
    "make",
    [
        lambda: base_comult("z3_grouplike"),
        broken_kxk_comult,
        lambda: zero_comult(unital_non_associative()),
    ],
    ids=["z3_grouplike", "kxk", "unital_zero"],
)
def test_delta_not_from_delta_one_is_rejected(make):
    with pytest.raises(PreconditionError):
        solve_counit(make())


@pytest.mark.parametrize("name", sorted(NON_ASSOCIATIVE))
def test_zero_delta_on_a_non_associative_algebra_is_not_a_frobenius_structure(name):
    """The zero Delta passes coassociativity and both bimodule checks, but the
    algebra fails associativity (the k x k one also fails both unit laws)."""
    a = NON_ASSOCIATIVE[name]()
    assert [c.name for c in check_algebra(a).failures()][:1] == ["associativity"]
    assert classify(zero_comult(a)) is Classification.NOT_FROBENIUS_STRUCTURE
