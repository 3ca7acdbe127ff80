"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(run with -s to see them).  Every comparison is exact rational equality;
there are no tolerances anywhere.
"""

from fractions import Fraction

import pytest

from counit_maps import eps_tensor_id, id_tensor_eps
import golden
from golden import P22_11, P22_21, P43_1122, P43_1212
from nsy_oracle import basis_indices, nsy_build_oracle
from frobkit.exactlin import Mat, Vec, is_invertible
from frobkit.finalg import (
    CasimirElement,
    ComultData,
    check_algebra,
    check_bimodule,
    check_casimir,
    check_coassoc,
    solve_counit,
)
from frobkit.nsy import (
    counit_candidate,
    basis_label,
    nsy_build,
    nsy_delta,
    nsy_dimension,
    sweep_params,
)
from frobkit.whopf import (
    check_weak_hopf,
    find_nondegenerate_integral,
    frobenius_from_integral,
    groupoid_algebra,
    integral_space,
    psi_map,
    qtg_frobenius,
    qtg_integral,
)
from test_nsy import built_cells
from test_whopf import reference_phi_map, reference_phi_prime_map

F = Fraction

NAMED = [P22_11, P22_21, P43_1212, P43_1122]


def _criterion(num: int, desc: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {desc}: {status}")
    assert not failures, f"criterion {num:02d} failed: {failures[:5]}"


@pytest.fixture(scope="module")
def sweep():
    """Every parameter tuple with n <= 4, ell <= 4, m_i <= 2, with the built
    algebra and comultiplication computed once."""
    out = []
    for p in sweep_params(4, 4, 2):
        alg = nsy_build(p)
        comult = nsy_delta(p, alg)
        out.append((p, alg, comult))
    return out


@pytest.fixture(scope="module")
def whopf_fixture_set(groupoid_algebras, hopf_group_algebras, qtg_instances, qtg_built):
    """Every weak Hopf fixture: groupoid algebras, k(Z/n) for n <= 4, and the
    quantum transformation groupoid instances."""
    fixtures = {}
    for name, h in groupoid_algebras.items():
        fixtures[f"groupoid:{name}"] = h
    for n, h in hopf_group_algebras.items():
        fixtures[f"hopf:z{n}"] = h
    for name, h in qtg_built.items():
        fixtures[f"qtg:{name}"] = h
    return fixtures


def test_criterion_01_dimensions():
    failures = []
    for p, expected in [(P22_11, 4), (P22_21, 9), (P43_1212, 28), (P43_1122, 27)]:
        got = nsy_dimension(p)
        if got != expected:
            failures.append((p, got, expected))
    _criterion(1, "dimensions 4, 9, 28, 27", failures)


def test_criterion_02_golden_tables():
    failures = []
    for p, table in [(P22_11, golden.TABLE_22_11), (P22_21, golden.TABLE_22_21)]:
        labels = [basis_label(b) for b in basis_indices(p)]
        expected = [[labels[k] if k >= 0 else "0" for k in row] for row in table]
        got = built_cells(p)
        for i, (grow, erow) in enumerate(zip(got, expected)):
            for j, (g, e) in enumerate(zip(grow, erow)):
                if g != e:
                    failures.append((p, i, j, g, e))
    _criterion(2, "multiplication tables cell-for-cell", failures)


def _delta_vector(p, alg, terms):
    pos = {idx: k for k, idx in enumerate(basis_indices(p))}
    d = alg.dim
    return Vec(d * d, [(pos[l] * d + pos[r], F(1)) for l, r in terms])


def test_criterion_03_golden_deltas():
    failures = []
    cases = [
        (P22_11, golden.DELTA_22_11),
        (P22_21, golden.DELTA_22_21),
        (P43_1212, golden.DELTA_43_1212),
        (P43_1122, golden.DELTA_43_1122),
    ]
    for p, table in cases:
        alg = nsy_build(p)
        comult = nsy_delta(p, alg)
        pos = {idx: k for k, idx in enumerate(basis_indices(p))}
        for idx, terms in table.items():
            expected = _delta_vector(p, alg, terms)
            got = comult.delta.col(pos[idx])
            if got != expected:
                failures.append((p, idx))
    _criterion(3, "golden comultiplication values as tensor vectors", failures)


def test_criterion_04_counit_dichotomy():
    failures = []
    expectations = {P22_11: True, P22_21: False, P43_1212: True, P43_1122: False}
    for p, should_exist in expectations.items():
        comult = nsy_delta(p)
        eps = solve_counit(comult)
        if (eps is not None) != should_exist:
            failures.append(("existence", p))
    # published mismatch displays, computed with the closed-form candidate
    comult = nsy_delta(P22_21)
    cand = counit_candidate(P22_21)
    pos = {idx: k for k, idx in enumerate(basis_indices(P22_21))}
    d = comult.algebra.dim
    X = golden.X
    j = pos[X(0, 0, 0, 0)]
    left = eps_tensor_id(comult, cand).col(j)
    right = id_tensor_eps(comult, cand).col(j)
    if left != Vec(d, {pos[X(0, 0, 0, 0)]: F(1), pos[X(0, 0, 1, 0)]: F(1)}):
        failures.append(("mismatch-left", P22_21))
    if right != Vec(d, {pos[X(0, 0, 0, 0)]: F(1), pos[X(0, 0, 0, 1)]: F(1)}):
        failures.append(("mismatch-right", P22_21))
    comult = nsy_delta(P43_1122)
    cand = counit_candidate(P43_1122)
    pos = {idx: k for k, idx in enumerate(basis_indices(P43_1122))}
    d = comult.algebra.dim
    j = pos[X(2, 1, 0, 1)]
    left = eps_tensor_id(comult, cand).col(j)
    right = id_tensor_eps(comult, cand).col(j)
    if left != Vec(d, {pos[X(2, 1, 0, 1)]: F(1), pos[X(2, 1, 1, 1)]: F(1)}):
        failures.append(("mismatch-left", P43_1122))
    if not right.is_zero():
        failures.append(("mismatch-right", P43_1122))
    _criterion(4, "counit dichotomy and published mismatch pairs", failures)


def test_criterion_05_oracle_equivalence(sweep):
    failures = []
    for p, alg, _ in sweep:
        oracle = nsy_build_oracle(p)
        if alg.mult != oracle.mult or alg.unit != oracle.unit:
            failures.append(p)
    _criterion(5, f"oracle equals formula on {len(sweep)} sweep instances", failures)


def test_criterion_06_comultiplication_property_suite(sweep):
    failures = []
    for p, alg, comult in sweep:
        if not check_algebra(alg).passed:
            failures.append(("algebra", p))
            continue
        if not check_coassoc(comult).passed:
            failures.append(("coassoc", p))
        if not check_bimodule(comult).passed:
            failures.append(("bimodule", p))
        cas = CasimirElement(alg, comult.delta.matvec(alg.unit))
        if not check_casimir(cas).passed:
            failures.append(("casimir", p))
        eps = solve_counit(comult)
        criterion = all(
            p.mults[i] == p.mults[(i + p.ell - 1) % p.n] for i in range(p.n)
        )
        if (eps is not None) != criterion:
            failures.append(("counit-iff-multiplicity", p))
    _criterion(
        6,
        f"comultiplication axioms and counit criterion on {len(sweep)} instances",
        failures,
    )


def test_criterion_07_groupoid_weak_hopf_suite(groupoid_fixtures, groupoid_algebras):
    failures = []
    for name, g in groupoid_fixtures.items():
        h = groupoid_algebras[name]
        if not check_weak_hopf(h).passed:
            failures.append(("axioms", name))
            continue
        space = integral_space(h, "left")
        if len(space.basis) != len(g.objects):
            failures.append(("integral-dimension", name))
        lam = Vec(h.dim, [(k, F(1)) for k in range(h.dim)])
        ids = set(g.identities.values())
        lam_dual = Vec(h.dim, [(k, F(1)) for k in range(h.dim) if k in ids])
        if psi_map(h, lam).matvec(lam_dual) != h.unit:
            failures.append(("psi-unit", name))
    _criterion(7, "groupoid algebras: axioms, integral span, Psi identity", failures)


def test_criterion_08_frobenius_from_integral_suite(whopf_fixture_set):
    failures = []
    tested = 0
    for name, h in whopf_fixture_set.items():
        for k, lam in enumerate(integral_space(h, "left").basis):
            tested += 1
            comult = frobenius_from_integral(h, lam)
            fresh = ComultData(h.algebra, comult.delta)  # decided again, not as built
            if not check_coassoc(fresh).passed:
                failures.append(("coassoc", name, k))
            if not check_bimodule(fresh).passed:
                failures.append(("bimodule", name, k))
            if (comult.counit is not None) != is_invertible(psi_map(h, lam)):
                failures.append(("counit-iff-psi", name, k))
    _criterion(
        8,
        f"integral comultiplications on {tested} integrals across "
        f"{len(whopf_fixture_set)} fixtures",
        failures,
    )


def test_criterion_09_qtg_suite(qtg_instances, qtg_built):
    failures = []
    for name, q in qtg_instances.items():
        h = qtg_built[name]
        if not check_weak_hopf(h).passed:
            failures.append(("axioms", name))
            continue
        ibar, lam_bar = qtg_integral(q, h)
        if psi_map(h, ibar).matvec(lam_bar) != h.unit:
            failures.append(("psi-ibar", name))
        closed = qtg_frobenius(q, h)
        generic = frobenius_from_integral(h, ibar)
        if closed.delta != generic.delta:
            failures.append(("closed-vs-generic-delta", name))
        if closed.counit != generic.counit or closed.counit != lam_bar:
            failures.append(("closed-vs-generic-counit", name))
    # the L = k, B = M_2 instance: counit identities and the bimodule law on
    # all 16 basis elements
    q = qtg_instances["k_mat2"]
    h = qtg_built["k_mat2"]
    closed = qtg_frobenius(q, h)
    ident = Mat(h.dim, h.dim, [(k, k, 1) for k in range(h.dim)])
    if eps_tensor_id(closed, closed.counit) != ident:
        failures.append(("counit-left-identity", "k_mat2"))
    if id_tensor_eps(closed, closed.counit) != ident:
        failures.append(("counit-right-identity", "k_mat2"))
    if not check_bimodule(ComultData(h.algebra, closed.delta)).passed:
        failures.append(("bimodule-identity", "k_mat2"))
    _criterion(9, "quantum transformation groupoids", failures)


def test_criterion_10_psi_phi_equivalence(whopf_fixture_set, qtg_instances, qtg_built):
    failures = []
    tested = 0
    for name, h in whopf_fixture_set.items():
        candidates = list(integral_space(h, "left").basis)
        total = Vec(h.dim)
        for b in candidates:
            total = total + b
        candidates.append(total)
        found = find_nondegenerate_integral(h)
        if found is not None:
            candidates.append(found[0])
        for k, lam in enumerate(candidates):
            tested += 1
            inv_psi = is_invertible(psi_map(h, lam))
            inv_phi = is_invertible(reference_phi_map(h, lam))
            inv_phi_prime = is_invertible(reference_phi_prime_map(h, lam))
            if not (inv_psi == inv_phi == inv_phi_prime):
                failures.append((name, k, inv_psi, inv_phi, inv_phi_prime))
    for name, q in qtg_instances.items():
        h = qtg_built[name]
        ibar, _ = qtg_integral(q, h)
        tested += 1
        inv_psi = is_invertible(psi_map(h, ibar))
        inv_phi = is_invertible(reference_phi_map(h, ibar))
        inv_phi_prime = is_invertible(reference_phi_prime_map(h, ibar))
        if not (inv_psi == inv_phi == inv_phi_prime):
            failures.append((name, "ibar", inv_psi, inv_phi, inv_phi_prime))
    _criterion(
        10, f"Psi/Phi/Phi' invertibility agreement on {tested} integrals", failures
    )
