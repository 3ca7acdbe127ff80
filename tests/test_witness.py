"""Witness stability: on corrupted NSY data the pairwise checkers report the
same first witness as a naive reference built from AlgebraData.mul and
plain Vec operations.

Corruptions follow the verify-mixed benchmark workload: one delta entry is
added in a column outside the unit's support, or one entry is added to the
Casimir element Delta(1).
"""

import random
from fractions import Fraction

import pytest

from frobkit.exactlin import Mat, Vec
from frobkit.finalg import (
    CasimirElement,
    ComultData,
    check_bimodule,
    check_casimir,
    check_coassoc,
)
from frobkit.nsy import NSYParams, nsy_build, nsy_delta, nsy_dimension


def seeded_params(seed: int) -> NSYParams:
    rng = random.Random(seed)
    while True:
        n = rng.randint(1, 3)
        p = NSYParams(n, rng.randint(1, 3), tuple(rng.randint(1, 2) for _ in range(n)))
        if 4 <= nsy_dimension(p) <= 20:
            return p


def terms(v: Vec, d: int):
    return [(t // d, t % d, c) for t, c in v.items()]


def naive_coassoc(c: ComultData):
    d = c.algebra.dim
    for j in range(d):
        lhs = Vec(d**3)
        rhs = Vec(d**3)
        for p, q, v in terms(c.delta.col(j), d):
            lhs = lhs + c.delta.col(p).tensor(Vec.basis(d, q)).scale(v)
            rhs = rhs + Vec.basis(d, p).tensor(c.delta.col(q)).scale(v)
        if lhs != rhs:
            return (j,), lhs, rhs
    return None


def naive_bimodule(c: ComultData):
    a = c.algebra
    d = a.dim
    e = [Vec.basis(d, k) for k in range(d)]
    right = left = None
    for i in range(d):
        for j in range(d):
            target = c.delta.matvec(a.mul(e[i], e[j]))
            lhs_r = Vec(d * d)
            for p, q, v in terms(c.delta.col(i), d):
                lhs_r = lhs_r + e[p].tensor(a.mul(e[q], e[j])).scale(v)
            lhs_l = Vec(d * d)
            for p, q, v in terms(c.delta.col(j), d):
                lhs_l = lhs_l + a.mul(e[i], e[p]).tensor(e[q]).scale(v)
            if right is None and lhs_r != target:
                right = ((i, j), lhs_r, target)
            if left is None and lhs_l != target:
                left = ((i, j), lhs_l, target)
    return right, left


def naive_casimir(cas: CasimirElement):
    a = cas.algebra
    d = a.dim
    e = [Vec.basis(d, k) for k in range(d)]
    for x in range(d):
        lhs = Vec(d * d)
        rhs = Vec(d * d)
        for p, q, v in terms(cas.element, d):
            lhs = lhs + e[p].tensor(a.mul(e[q], e[x])).scale(v)
            rhs = rhs + a.mul(e[x], e[p]).tensor(e[q]).scale(v)
        if lhs != rhs:
            return (x,), lhs, rhs
    return None


def witness_tuple(result):
    w = result.witness
    return None if w is None else (w.indices, w.lhs, w.rhs)


def corrupted_comult(p: NSYParams, rng: random.Random) -> ComultData:
    c = nsy_delta(p, nsy_build(p))
    d = c.algebra.dim
    unit = set(c.algebra.unit.support())
    col = rng.choice([k for k in range(d) if k not in unit])
    present = set(c.delta.col(col).support())
    t = rng.choice([t for t in range(d * d) if t not in present])
    entries = c.delta.items() + [(t, col, Fraction(1))]
    return ComultData(c.algebra, Mat(d * d, d, entries))


@pytest.mark.parametrize("seed", range(6))
def test_delta_corruption_witnesses_match_reference(seed):
    rng = random.Random(1000 + seed)
    c = corrupted_comult(seeded_params(seed), rng)
    (coassoc,) = check_coassoc(c).checks
    assert witness_tuple(coassoc) == naive_coassoc(c)
    right, left = check_bimodule(c).checks
    assert (witness_tuple(right), witness_tuple(left)) == naive_bimodule(c)
    assert not (right.passed and left.passed)


@pytest.mark.parametrize("seed", range(6))
def test_casimir_corruption_witness_matches_reference(seed):
    rng = random.Random(2000 + seed)
    p = seeded_params(seed)
    c = nsy_delta(p, nsy_build(p))
    d = c.algebra.dim
    element = c.delta.matvec(c.algebra.unit)
    t = rng.randrange(d * d)
    cas = CasimirElement(c.algebra, element + Vec(d * d, {t: Fraction(1)}))
    (result,) = check_casimir(cas).checks
    assert witness_tuple(result) == naive_casimir(cas)
    (clean,) = check_casimir(CasimirElement(c.algebra, element)).checks
    assert clean.passed
