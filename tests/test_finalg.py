"""Generic algebra/coalgebra layer tests.

The 4-dimensional golden algebra used throughout is hand-coded from its
published multiplication table and comultiplication, independently of the
constructors in the nsy module.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobkit.errors import InputError, PreconditionError
from frobkit.exactlin import Mat, ONE, Vec, addto
from frobkit.finalg import (
    AlgebraData,
    CasimirElement,
    Classification,
    ComultData,
    casimir_comult,
    check_algebra,
    check_bimodule,
    check_casimir,
    check_coassoc,
    classify,
    classify_report,
    comult_from_json,
    comult_to_json,
    comult_to_json_str,
    solve_counit,
)
from counit_maps import eps_tensor_id, id_tensor_eps

F = Fraction


def golden_b22_algebra() -> AlgebraData:
    """Hand-coded 4-dim self-injective algebra: basis b0..b3, products
    b0b0=b0, b0b1=b1, b1b2=b1, b2b2=b2, b2b3=b3, b3b0=b3, unit b0+b2."""
    d = 4
    prods = {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2, (2, 3): 3, (3, 0): 3}
    mult = {k: ((v, 1),) for k, v in prods.items()}
    unit = Vec(d, {0: F(1), 2: F(1)})
    return AlgebraData(d, ["b0", "b1", "b2", "b3"], mult, unit)


def golden_b22_delta(alg: AlgebraData) -> Mat:
    """b0 -> b0(x)b3 + b1(x)b0, b1 -> b1(x)b1, b2 -> b2(x)b1 + b3(x)b2,
    b3 -> b3(x)b3."""
    d = alg.dim
    terms = {
        0: [(0, 3), (1, 0)],
        1: [(1, 1)],
        2: [(2, 1), (3, 2)],
        3: [(3, 3)],
    }
    entries = []
    for col, pairs in terms.items():
        for p, q in pairs:
            entries.append((p * d + q, col, F(1)))
    return Mat(d * d, d, entries)


def group_algebra_z2() -> AlgebraData:
    mult = {
        (0, 0): ((0, 1),),
        (0, 1): ((1, 1),),
        (1, 0): ((1, 1),),
        (1, 1): ((0, 1),),
    }
    return AlgebraData(2, ["1", "g"], mult, Vec.basis(2, 0))


def grouplike_comult(alg: AlgebraData) -> ComultData:
    d = alg.dim
    return ComultData(alg, Mat(d * d, d, [(j * d + j, j, F(1)) for j in range(d)]))


def matrix_units(d: int) -> AlgebraData:
    dim = d * d
    pos = {(i, j): i * d + j for i in range(d) for j in range(d)}
    mult = {}
    for (i, j), p in pos.items():
        for (k, l), q in pos.items():
            if j == k:
                mult[(p, q)] = ((pos[(i, l)], 1),)
    unit = Vec(dim, {pos[(i, i)]: F(1) for i in range(d)})
    labels = [f"E{i}{j}" for i in range(d) for j in range(d)]
    return AlgebraData(dim, labels, mult, unit)


def test_check_algebra_golden_pass():
    assert check_algebra(golden_b22_algebra()).passed


def test_check_algebra_one_dimensional():
    k = AlgebraData(1, ["1"], {(0, 0): ((0, 1),)}, Vec.basis(1, 0))
    assert check_algebra(k).passed


def test_check_algebra_rejects_dim_zero():
    with pytest.raises(InputError):
        AlgebraData(0, [], {}, Vec(0))


def test_check_algebra_corrupted_entry_fails_with_witness():
    alg = golden_b22_algebra()
    # kill the product b1 * b2 (a nonzero entry of the table)
    mult = dict(alg.mult)
    del mult[(1, 2)]
    broken = AlgebraData(alg.dim, alg.labels, mult, alg.unit)
    report = check_algebra(broken)
    assert not report.passed
    assert all(c.witness is not None for c in report.failures())


def test_check_coassoc_zero_map_passes():
    alg = golden_b22_algebra()
    zero = ComultData(alg, Mat(16, 4))
    assert check_coassoc(zero).passed


def test_check_coassoc_golden_and_grouplike():
    alg = golden_b22_algebra()
    assert check_coassoc(ComultData(alg, golden_b22_delta(alg))).passed
    assert check_coassoc(grouplike_comult(group_algebra_z2())).passed


def test_grouplike_fails_bimodule_with_witness():
    c = grouplike_comult(group_algebra_z2())
    report = check_bimodule(c)
    assert not report.passed
    assert all(r.witness is not None for r in report.failures())


def test_golden_passes_bimodule():
    alg = golden_b22_algebra()
    assert check_bimodule(ComultData(alg, golden_b22_delta(alg))).passed


def test_casimir_golden():
    alg = golden_b22_algebra()
    # Delta(1) = b0(x)b3 + b1(x)b0 + b2(x)b1 + b3(x)b2
    cas = CasimirElement(
        alg, Vec(16, {0 * 4 + 3: F(1), 1 * 4 + 0: F(1), 2 * 4 + 1: F(1), 3 * 4 + 2: F(1)})
    )
    assert check_casimir(cas).passed


def test_casimir_trivial_field():
    k = AlgebraData(1, ["1"], {(0, 0): ((0, 1),)}, Vec.basis(1, 0))
    cas = CasimirElement(k, Vec(1, {0: F(1)}))
    assert check_casimir(cas).passed
    c = casimir_comult(cas)
    assert c.delta.col(0) == Vec(1, {0: F(1)})


def test_casimir_matrix_units():
    m2 = matrix_units(2)
    # sum_{i,j} E_ij (x) E_ji
    element = Vec(16, {(i * 2 + j) * 4 + (j * 2 + i): F(1) for i in range(2) for j in range(2)})
    cas = CasimirElement(m2, element)
    assert check_casimir(cas).passed
    comult = ComultData(m2, casimir_comult(cas).delta)  # decided again, not as built
    assert check_coassoc(comult).passed
    assert check_bimodule(comult).passed


def test_casimir_comult_reproduces_golden_delta():
    alg = golden_b22_algebra()
    cas = CasimirElement(
        alg, Vec(16, {3: F(1), 4: F(1), 9: F(1), 14: F(1)})
    )
    assert casimir_comult(cas).delta == golden_b22_delta(alg)


def test_casimir_comult_rejects_non_casimir():
    alg = golden_b22_algebra()
    bad = CasimirElement(alg, Vec(16, {0: F(1)}))
    with pytest.raises(PreconditionError) as err:
        casimir_comult(bad)
    assert err.value.witness is not None


def test_solve_counit_golden():
    alg = golden_b22_algebra()
    c = ComultData(alg, golden_b22_delta(alg))
    eps = solve_counit(c)
    assert eps == Vec(4, {1: F(1), 3: F(1)})
    ident = Mat(4, 4, [(k, k, 1) for k in range(4)])
    assert eps_tensor_id(c, eps) == ident
    assert id_tensor_eps(c, eps) == ident


def test_solve_counit_none_for_zero_delta():
    alg = golden_b22_algebra()
    assert solve_counit(ComultData(alg, Mat(16, 4))) is None


def test_classify_three_ways():
    alg = golden_b22_algebra()
    c = ComultData(alg, golden_b22_delta(alg))
    assert classify(c) is Classification.FROBENIUS
    assert classify(grouplike_comult(group_algebra_z2())) is Classification.NOT_FROBENIUS_STRUCTURE


def test_classify_report_payload():
    alg = golden_b22_algebra()
    outcome = classify_report(ComultData(alg, golden_b22_delta(alg)))
    assert outcome.classification is Classification.FROBENIUS
    assert outcome.report.passed
    assert outcome.counit is not None


def tensor_power_mul(a: AlgebraData, u: Vec, v: Vec, factors: int) -> Vec:
    """Componentwise product in the tensor power algebra A^{(x) factors}."""
    d = a.dim
    size = d**factors
    if u.dim != size or v.dim != size:
        raise InputError("tensor power dimension mismatch")

    def split(flat):
        out = []
        for _ in range(factors):
            flat, r = divmod(flat, d)
            out.append(r)
        return tuple(reversed(out))

    acc: dict[int, Fraction] = {}
    for fu, cu in u.terms():
        iu = split(fu)
        for fv, cv in v.terms():
            iv = split(fv)
            # e_{iu} e_{iv} factor by factor; distinct prefixes never collide
            term = {0: cu * cv}
            for t in range(factors):
                comp = a.basis_product(iu[t], iv[t]).terms()
                nxt: dict[int, Fraction] = {}
                for flat, c in term.items():
                    addto(nxt, c, comp, flat * d)
                term = nxt
            addto(acc, ONE, term.items())
    return Vec.adopt(size, acc)


def permute_basis(c: ComultData, perm: list[int]) -> ComultData:
    """Relabel the basis: new position k holds old basis element perm[k].

    All structure data (products, unit, delta, counit) is conjugated by the
    permutation, so the result is the same algebra with a reordered basis.
    """
    a = c.algebra
    d = a.dim
    if sorted(perm) != list(range(d)):
        raise InputError("perm must be a permutation of the basis indices")
    ipos = [0] * d
    for new, old in enumerate(perm):
        ipos[old] = new

    def relabel(vec: Vec) -> Vec:
        return Vec(d, {ipos[k]: v for k, v in vec.items()})

    new_mult = {}
    for (i, j), terms in a.mult.items():
        new_mult[(ipos[i], ipos[j])] = tuple((ipos[k], v) for k, v in terms)
    new_alg = AlgebraData(
        d, [a.labels[old] for old in perm], new_mult, relabel(a.unit)
    )
    entries = []
    for k in range(d):
        for p, q, v in c.delta_pairs(perm[k]):
            entries.append((ipos[p] * d + ipos[q], k, v))
    new_delta = Mat(d * d, d, entries)
    new_counit = None
    if c.counit is not None:
        new_counit = Vec(d, {ipos[k]: v for k, v in c.counit.items()})
    return ComultData(new_alg, new_delta, new_counit)


def test_tensor_power_mul():
    alg = group_algebra_z2()
    one, g = Vec.basis(2, 0), Vec.basis(2, 1)
    gg = g.tensor(g)
    assert tensor_power_mul(alg, gg, gg, 2) == one.tensor(one)
    ggg = g.tensor(g.tensor(g))
    assert tensor_power_mul(alg, ggg, ggg, 3) == one.tensor(one.tensor(one))


@given(st.permutations(range(4)))
@settings(max_examples=24, deadline=None)
def test_classification_stable_under_basis_permutation(perm):
    alg = golden_b22_algebra()
    c = ComultData(alg, golden_b22_delta(alg))
    permuted = permute_basis(c, list(perm))
    assert check_algebra(permuted.algebra).passed
    assert classify(permuted) is Classification.FROBENIUS


@given(st.permutations(range(2)))
@settings(max_examples=4, deadline=None)
def test_classification_stable_not_frobenius(perm):
    c = grouplike_comult(group_algebra_z2())
    assert classify(permute_basis(c, list(perm))) is Classification.NOT_FROBENIUS_STRUCTURE


def test_json_round_trip_byte_identical():
    alg = golden_b22_algebra()
    c = ComultData(alg, golden_b22_delta(alg), solve_counit(ComultData(alg, golden_b22_delta(alg))))
    text = comult_to_json_str(c)
    back = comult_from_json(json.loads(text))
    assert comult_to_json_str(back) == text
    assert back.algebra.mult == alg.mult
    assert back.delta == c.delta
    assert back.counit == c.counit


def test_json_counit_optional_and_rationals():
    alg = golden_b22_algebra()
    c = ComultData(alg, golden_b22_delta(alg))
    payload = comult_to_json(c)
    assert "counit" not in payload
    assert all(isinstance(entry[3], str) for entry in payload["mult"])
    back = comult_from_json(payload)
    assert back.counit is None


def test_json_malformed_rejected():
    with pytest.raises(InputError):
        comult_from_json({"dim": 2})


def test_json_repeated_entries_add_up_in_every_field():
    alg = golden_b22_algebra()
    payload = comult_to_json(ComultData(alg, golden_b22_delta(alg)))
    i, j, k, _ = payload["mult"][0]
    col, t, _ = payload["delta"][0]
    payload["mult"].append([i, j, k, "2"])
    payload["delta"].append([col, t, "2"])
    payload["unit"].append([payload["unit"][0][0], "2"])
    back = comult_from_json(payload)
    assert back.algebra.basis_product(i, j).get(k) == F(3)
    assert back.delta.col(col).get(t) == F(3)
    assert back.algebra.unit.get(payload["unit"][0][0]) == F(3)


@pytest.mark.parametrize("dim", [4.7, "4", True, None])
def test_json_non_integer_dim_rejected(dim):
    alg = golden_b22_algebra()
    payload = comult_to_json(ComultData(alg, golden_b22_delta(alg)))
    payload["dim"] = dim
    with pytest.raises(InputError):
        comult_from_json(payload)
