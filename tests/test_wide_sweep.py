"""The wide NSY sweep n <= 4, ell <= 4, m_i <= 3 (480 instances, dim up to
144): classification against the closed-form criterion, the formula algebra
against the path-model oracle, the associativity decision against an integer
table triple loop, the counit against the per-column elimination, and, up to
dim 40, the first witnesses of a corrupted delta column against the naive
references.  Marked slow, so it runs only under ``pytest -m slow``."""

import random

import pytest

from nsy_oracle import nsy_build_oracle
from test_counit import assert_matches_reference
from test_witness import corrupted_comult, naive_bimodule, naive_coassoc, witness_tuple

from frobkit.finalg import Classification, check_algebra, check_bimodule, check_coassoc, classify
from frobkit.nsy import (
    is_frobenius,
    nsy_build,
    nsy_delta,
    nsy_dimension,
    sweep_params,
)

pytestmark = pytest.mark.slow
# instances up to dim 40 with a column outside the unit's support (4 of the
# 298 up to dim 40 have a unit of full support)
CORRUPTED_INSTANCES = 294


@pytest.fixture(scope="module")
def wide_sweep():
    params = list(sweep_params(4, 4, 3))
    assert len(params) == 480
    return params


def test_wide_sweep_classification_matches_criterion(wide_sweep):
    mismatches = []
    for p in wide_sweep:
        expected = (
            Classification.FROBENIUS if is_frobenius(p) else Classification.NON_COUNITAL_ONLY
        )
        if classify(nsy_delta(p)) != expected:
            mismatches.append(p)
    assert mismatches == []


def test_wide_sweep_oracle_equals_formula(wide_sweep):
    mismatches = []
    for p in wide_sweep:
        built, oracle = nsy_build(p), nsy_build_oracle(p)
        if (built.mult, built.unit, built.labels) != (oracle.mult, oracle.unit, oracle.labels):
            mismatches.append(p)
    assert mismatches == []


def test_wide_sweep_counit_matches_reference(wide_sweep):
    for p in wide_sweep:
        assert_matches_reference(nsy_delta(p))


def table_associative(a) -> bool:
    """All d^3 triples of the product table as integers, -1 for a zero
    product; index -1 reaches the all -1 row and column at position d."""
    d = a.dim
    zero = [-1] * (d + 1)
    table = [[-1] * (d + 1) for _ in range(d)] + [zero]
    for (i, j), terms in a.mult.items():
        ((k, v),) = terms
        assert v == 1
        table[i][j] = k
    for i in range(d):
        ti = table[i]
        for j in range(d):
            row_ij = table[ti[j]]
            tj = table[j]
            for k in range(d):
                if row_ij[k] != ti[tj[k]]:
                    return False
    return True


def test_wide_sweep_associativity_matches_triple_loop(wide_sweep):
    mismatches = []
    for p in wide_sweep:
        a = nsy_build(p)
        if check_algebra(a).checks[0].passed != table_associative(a):
            mismatches.append(p)
    assert mismatches == []


def test_wide_sweep_corrupted_column_witnesses(wide_sweep):
    """corrupted_comult needs a column outside the unit's support, so the
    instances whose unit has full support are left out."""
    mismatches = []
    checked = 0
    for index, p in enumerate(wide_sweep):
        if nsy_dimension(p) > 40 or len(nsy_build(p).unit.support()) == nsy_dimension(p):
            continue
        checked += 1
        c = corrupted_comult(p, random.Random(index))
        (coassoc,) = check_coassoc(c).checks
        right, left = check_bimodule(c).checks
        got = witness_tuple(coassoc), (witness_tuple(right), witness_tuple(left))
        if got != (naive_coassoc(c), naive_bimodule(c)):
            mismatches.append(p)
    assert (checked, mismatches) == (CORRUPTED_INSTANCES, [])
