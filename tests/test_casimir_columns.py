"""finalg._casimir_columns, the one evaluator of the Casimir identity
X e_x = e_x X, against a verbatim copy of the three helpers it replaced
(_tensor_factors, _casimir_times, _times_casimir) and of the four loops that
read them.

Compared: the check_casimir report and witness; the columns, counit and
Delta(1) flag of casimir_comult, or its PreconditionError witness;
the Delta(1) decision of solve_counit; and solve_counit (or the PreconditionError it raises).

Cases: the NSY algebras of sweep_params(3, 3, 2) with their Delta(1), and
the groupoid, group and QTG algebras of conftest.py with the X of a
non-degenerate integral and the Delta(1) of their weak coalgebra (not a
Casimir element in general).  Hypothesis adds, removes or rescales one entry
of X, and of the Delta built from X or given with the algebra.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import conftest
from test_delta_one import from_delta_one
from frobkit.errors import PreconditionError
from frobkit.exactlin import LinearSystem, Mat, Vec, addto
from frobkit.finalg import (
    CasimirElement,
    CheckResult,
    ComultData,
    VerificationReport,
    Witness,
    casimir_comult,
    check_algebra,
    check_casimir,
    solve_counit,
)
from frobkit.nsy import nsy_build, nsy_delta, sweep_params
from frobkit.whopf import (
    cyclic_group_table,
    find_nondegenerate_integral,
    frobenius_from_integral,
    groupoid_algebra,
    hopf_group_algebra,
    qtg_build,
)

SCALARS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)]


# --- the replaced code, kept verbatim (underscores dropped) -----------------


def tensor_factors(cas: CasimirElement) -> tuple[dict, dict]:
    d = cas.algebra.dim
    by_q: dict[int, list[tuple[int, Fraction]]] = {}
    by_p: dict[int, list[tuple[int, Fraction]]] = {}
    for t, v in cas.element.terms():
        p, q = divmod(t, d)
        by_q.setdefault(q, []).append((p, v))
        by_p.setdefault(p, []).append((q, v))
    return by_q, by_p


def casimir_times(a, by_q: dict, x: int) -> dict[int, Fraction]:
    d = a.dim
    acc: dict[int, Fraction] = {}
    for q in a.by_right[x]:
        pv = by_q.get(q)
        if pv:
            prod = a.mult[q, x]
            for p, v in pv:
                addto(acc, v, prod, p * d)
    return acc


def times_casimir(a, by_p: dict, x: int) -> dict[int, Fraction]:
    d = a.dim
    acc: dict[int, Fraction] = {}
    for p in a.by_left[x]:
        qv = by_p.get(p)
        if qv:
            prod = a.mult[x, p]
            for q, v in qv:
                addto(acc, v, prod, q, d)
    return acc


def reference_check_casimir(cas: CasimirElement) -> VerificationReport:
    a = cas.algebra
    d = a.dim
    by_q, by_p = tensor_factors(cas)
    witness = None
    for x in range(d):
        lhs = casimir_times(a, by_q, x)
        rhs = times_casimir(a, by_p, x)
        if lhs != rhs:
            witness = Witness(
                (x,),
                Vec.adopt(d * d, lhs),
                Vec.adopt(d * d, rhs),
                "a_i (x) b_i x != x a_i (x) b_i",
            )
            break
    return VerificationReport((CheckResult("casimir", witness is None, witness),))


def reference_from_delta_one(c: ComultData) -> bool:
    a = c.algebra
    ok = check_algebra(a).passed
    if ok:
        by_q, by_p = tensor_factors(CasimirElement(a, c.delta_of(a.unit)))
        for j in range(a.dim):
            col = dict(c.delta.col_terms(j))
            if casimir_times(a, by_q, j) != col or times_casimir(a, by_p, j) != col:
                ok = False
                break
    return ok


def reference_counit_rows(a, by_q: dict) -> Vec | None:
    sys_ = LinearSystem(a.dim)
    for k in range(a.dim):
        terms, rhs = by_q.get(k), a.unit.get(k)
        if terms or rhs:
            sys_.add(dict(terms or ()), rhs)
    return sys_.solution()


def reference_casimir_comult(cas: CasimirElement):
    """(delta, counit, flag), or the witness PreconditionError carried."""
    a = cas.algebra
    d = a.dim
    by_q, by_p = tensor_factors(cas)
    cols = [casimir_times(a, by_q, x) for x in range(d)]
    if any(col != times_casimir(a, by_p, x) for x, col in enumerate(cols)):
        return reference_check_casimir(cas).failures()[0].witness
    decided = check_algebra(a).passed
    delta = Mat.from_columns(d * d, [Vec.adopt(d * d, col) for col in cols])
    return delta, reference_counit_rows(a, by_q) if decided else None, decided


def reference_solve_counit(c: ComultData):
    if not reference_from_delta_one(c):
        return PreconditionError
    a = c.algebra
    return reference_counit_rows(a, tensor_factors(CasimirElement(a, c.delta_of(a.unit)))[0])


# --- cases -----------------------------------------------------------------


@cache
def cases() -> dict[str, tuple[ComultData, list[Vec]]]:
    """name -> (the given Delta, the elements X tried)."""
    out = {}
    for p in sweep_params(3, 3, 2):
        c = nsy_delta(p, nsy_build(p))
        name = f"nsy_{p.n}_{p.ell}_{'.'.join(map(str, p.mults))}"
        out[name] = (c, [c.delta_of(c.algebra.unit)])
    whopf = {f"groupoid_{k}": groupoid_algebra(g)
             for k, g in conftest.build_groupoid_fixture_set().items()}
    whopf.update({f"group_z{n}": hopf_group_algebra(cyclic_group_table(n)) for n in range(1, 5)})
    whopf.update({f"qtg_{k}": qtg_build(q) for k, q in conftest.build_qtg_instances().items()})
    for name, h in whopf.items():
        frob = frobenius_from_integral(h, find_nondegenerate_integral(h)[0])
        xs = [frob.delta_of(h.unit), h.comult(h.unit)]
        out[name] = (frob, xs)
        out[f"{name}_weak"] = (h.coalgebra, xs)
    return out


def edit(v: Vec, size: int, data) -> Vec:
    """v with one entry added, removed or rescaled, or v itself."""
    kind = data.draw(st.sampled_from(["none", "add", "remove", "rescale"]))
    entries = dict(v.terms())
    if kind == "add" or (kind != "none" and not entries):
        k = data.draw(st.integers(0, size - 1))
        entries[k] = entries.get(k, 0) + data.draw(st.sampled_from(SCALARS))
    elif kind == "remove":
        del entries[data.draw(st.sampled_from(sorted(entries)))]
    elif kind == "rescale":
        k = data.draw(st.sampled_from(sorted(entries)))
        entries[k] *= data.draw(st.sampled_from(SCALARS[1:]))
    return Vec(size, entries)


def edit_delta(delta: Mat, d: int, data) -> Mat:
    j = data.draw(st.integers(0, d - 1))
    col = edit(delta.col(j), d * d, data)
    cols = [col if k == j else delta.col(k) for k in range(d)]
    return Mat.from_columns(d * d, cols)


# --- comparisons -----------------------------------------------------------


def assert_casimir_matches(a, x: Vec) -> None:
    cas = CasimirElement(a, x)
    report, expected = check_casimir(cas), reference_check_casimir(cas)
    assert report == expected
    assert report.to_json() == expected.to_json()
    ref = reference_casimir_comult(cas)
    if isinstance(ref, Witness):
        with pytest.raises(PreconditionError) as err:
            casimir_comult(cas)
        assert err.value.witness == ref
        assert not report.passed
    else:
        c = casimir_comult(cas)
        assert (c.delta, c.counit, from_delta_one(c)) == ref
        assert report.passed


def assert_delta_matches(c: ComultData) -> None:
    fresh = ComultData(c.algebra, c.delta)
    assert from_delta_one(fresh) is reference_from_delta_one(c)
    expected = reference_solve_counit(c)
    if expected is PreconditionError:
        with pytest.raises(PreconditionError):
            solve_counit(fresh)
    else:
        assert solve_counit(fresh) == expected


def test_fixtures_match_reference():
    outcomes = set()
    for c, xs in cases().values():
        assert_delta_matches(c)
        for x in xs:
            assert_casimir_matches(c.algebra, x)
            outcomes.add(check_casimir(CasimirElement(c.algebra, x)).passed)
    assert outcomes == {True, False}  # Casimir and non-Casimir elements both occur


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_edited_elements_match_reference(data):
    c, xs = cases()[data.draw(st.sampled_from(sorted(cases())))]
    a, d = c.algebra, c.algebra.dim
    x = edit(data.draw(st.sampled_from(xs)), d * d, data)
    assert_casimir_matches(a, x)
    # Delta(y) = X y for the edited X (a Frobenius Delta when X is Casimir)
    by_q = tensor_factors(CasimirElement(a, x))[0]
    left = [Vec.adopt(d * d, casimir_times(a, by_q, k)) for k in range(d)]
    assert_delta_matches(ComultData(a, Mat.from_columns(d * d, left)))
    assert_delta_matches(ComultData(a, edit_delta(c.delta, d, data)))
