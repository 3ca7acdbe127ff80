"""The readers of Delta on a weak Hopf algebra against the matrix product.

``psi_map``, ``_l1_s_l2``, ``is_hopf`` and ``frobenius_from_integral`` read
Delta(x) as ``h.coalgebra.delta_of(x)`` and split each flat key t of
e_p (x) e_q into ``divmod(t, d)``.  Each is compared here with a reference
that computes Delta(x) as ``h.delta_wk.matvec(x)`` and takes the paper's
formulas literally:

- Psi_L(phi) = L_1 phi(L_2), column q of the matrix the e_q* coefficient;
- L_1 (x) S(L_2), with S(e_q) column q of the antipode;
- h is Hopf iff Delta(1) = 1 (x) 1;
- Delta_L(e_x) = L_1 (x) S(L_2) e_x, multiplied out with ``AlgebraData.mul``.

Cases: every groupoid, group and QTG algebra of conftest.py, on each basis
vector, the unit, each left integral basis vector and their sum.
"""

from fractions import Fraction

import pytest

import conftest
from frobkit.exactlin import Mat, Vec
from frobkit.whopf import (
    frobenius_from_integral,
    groupoid_algebra,
    hopf_group_algebra,
    cyclic_group_table,
    integral_space,
    is_hopf,
    psi_map,
    qtg_build,
)
from frobkit.whopf.core import _l1_s_l2

GROUPOIDS = conftest.build_groupoid_fixture_set()
QTG_NAMES = sorted(conftest.build_qtg_instances())
ZOO_NAMES = [
    *(f"groupoid_{k}" for k in GROUPOIDS),
    *(f"group_z{n}" for n in range(1, 5)),
    *(f"qtg_{k}" for k in QTG_NAMES),
]


@pytest.fixture(scope="module")
def zoo():
    out = {f"groupoid_{k}": groupoid_algebra(g) for k, g in GROUPOIDS.items()}
    out.update({f"group_z{n}": hopf_group_algebra(cyclic_group_table(n)) for n in range(1, 5)})
    out.update({f"qtg_{k}": qtg_build(q) for k, q in conftest.build_qtg_instances().items()})
    return out


def inputs(h) -> list[Vec]:
    """Each basis vector, the unit, each left integral and their sum."""
    d = h.dim
    integrals = integral_space(h, "left")
    total: dict[int, Fraction] = {}
    for lam in integrals:
        for k, v in lam.terms():
            total[k] = total.get(k, 0) + v
    total = {k: v for k, v in total.items() if v}
    return [*(Vec.basis(d, k) for k in range(d)), h.unit, *integrals, Vec(d, total)]


def reference_pairs(h, x: Vec) -> list[tuple[int, int, Fraction]]:
    """Delta(x) = delta_wk x as (p, q, coeff) terms of e_p (x) e_q."""
    d = h.dim
    return [(t // d, t % d, v) for t, v in h.delta_wk.matvec(x).terms()]


def reference_l1_s_l2(h, lam: Vec) -> dict[int, Fraction]:
    d = h.dim
    acc: dict[int, Fraction] = {}
    for p, q, v in reference_pairs(h, lam):
        for k, w in h.antipode.col(q).terms():
            acc[p * d + k] = acc.get(p * d + k, 0) + v * w
    return {t: v for t, v in acc.items() if v}


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_delta_of_is_delta_wk_times_x(zoo, name):
    h = zoo[name]
    for x in inputs(h):
        assert h.coalgebra.delta_of(x) == h.delta_wk.matvec(x)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_psi_map_matches_reference(zoo, name):
    h = zoo[name]
    for x in inputs(h):
        assert psi_map(h, x) == Mat(h.dim, h.dim, reference_pairs(h, x))


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_l1_s_l2_matches_reference(zoo, name):
    h = zoo[name]
    for x in inputs(h):
        assert _l1_s_l2(h, x) == reference_l1_s_l2(h, x)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_is_hopf_matches_reference(zoo, name):
    h = zoo[name]
    one = h.unit
    expected = reference_pairs(h, one) == [
        (p, q, v * w) for p, v in one.terms() for q, w in one.terms()
    ]
    assert is_hopf(h) == expected
    if name.startswith("groupoid_"):
        # a groupoid algebra is a Hopf algebra iff the groupoid has one object
        assert expected == (len(GROUPOIDS[name.removeprefix("groupoid_")].objects) == 1)
    elif name.startswith("group_"):
        assert expected


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_frobenius_delta_matches_reference(zoo, name):
    """Delta_L(e_x) = L_1 (x) S(L_2) e_x for each left integral L."""
    h = zoo[name]
    a, d = h.algebra, h.dim
    for lam in integral_space(h, "left"):
        x_terms = reference_l1_s_l2(h, lam)
        cols = []
        for x in range(d):
            col: dict[int, Fraction] = {}
            for t, v in x_terms.items():
                p, k = divmod(t, d)
                for r, w in a.mul(Vec.basis(d, k), Vec.basis(d, x)).terms():
                    col[p * d + r] = col.get(p * d + r, 0) + v * w
            cols.append({t: v for t, v in col.items() if v})
        assert frobenius_from_integral(h, lam).delta == conftest.column_mat(d * d, cols)
