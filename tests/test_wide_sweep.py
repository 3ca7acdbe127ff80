"""The wide NSY sweep n <= 4, ell <= 4, m_i <= 3 (480 instances, dim up to
144): classification against the closed-form criterion, and the formula
algebra against the path-model oracle.  Marked slow, so it runs only under
``pytest -m slow``."""

import pytest

from frobkit.finalg import Classification, classify
from frobkit.nsy import is_frobenius, nsy_build, nsy_build_oracle, nsy_delta, sweep_params

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def wide_sweep():
    params = sweep_params(4, 4, 3)
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
