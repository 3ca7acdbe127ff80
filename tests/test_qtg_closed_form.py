"""The tabulated closed-form comultiplication of qtg_frobenius against a
verbatim copy of the loop it replaced, which recomputed every factor for
every column and summed Fraction products through Mat's constructor.

Compared on every (L, B) pair of the whopf-qtg benchmark workload, on the
automorphism actions of test_qtg.py, on (trivial, M_3) and on (k[Z/2], k);
entries must agree with their value types (int vs Fraction), not only as
numbers.
"""

from itertools import product

import pytest

from frobkit.exactlin import Mat, Vec
from frobkit.whopf import integral_space, iterated_comult, qtg_build, qtg_frobenius
from frobkit.whopf.qtg import _closed_form_delta

from test_qtg import (
    AUTOMORPHISM_ACTIONS,
    AUTOMORPHISM_IDS,
    QTG_BUILD_DIGESTS,
    _automorphism_input,
    _trivial_action_input,
)


def reference_closed_form(q, lam_r, dim) -> Mat:
    """The closed-form loop of qtg_frobenius before its factor tables."""
    L, B = q.L, q.B
    dB, dL = B.dim, L.dim

    basis_b = [Vec.basis(dB, k) for k in range(dB)]
    s = L.antipode
    s_cols = [s.col(j) for j in range(dL)]
    quad = iterated_comult(L, lam_r, 4)
    e_pairs = q.pairs

    # the factors that depend on fewer indices than the column, each once
    s2_cols = [s.matvec(c) for c in s_cols]
    heads: dict[tuple[int, int, int], Vec] = {}  # (p, i1, u1): e_p <| I_1 S(l_1)
    thirds: dict[tuple[int, int, int], Vec] = {}  # (b, p2, i3): b e'1 <| S(I_3)
    rights: dict[tuple[int, int, int], Vec] = {}  # (qq, i2, q2): e2 (x) S^2(I_2) (x) e'2
    entries = []
    for col, (a, l, b) in enumerate(product(range(dB), range(dL), range(dB))):
        for (i1, i2, i3, i4), ci in quad.items():
            for u1, u2, cl in L.coalgebra.delta_pairs(l):
                # (e1 <| I_1 S(l_1)) a  (x)  l_2 S(I_4)  (x)  (b e'1 <| S(I_3))
                mid = L.algebra.mul(Vec.basis(dL, u2), s_cols[i4])
                if mid.is_zero():
                    continue
                for p, qq, ce in e_pairs:
                    if (p, i1, u1) not in heads:
                        head_l = L.algebra.mul(Vec.basis(dL, i1), s_cols[u1])
                        heads[p, i1, u1] = q.act(basis_b[p], head_l)
                    first = B.mul(heads[p, i1, u1], basis_b[a])
                    if first.is_zero():
                        continue
                    for p2, q2, ce2 in e_pairs:
                        if (b, p2, i3) not in thirds:
                            thirds[b, p2, i3] = q.act(B.basis_product(b, p2), s_cols[i3])
                        third = thirds[b, p2, i3]
                        if third.is_zero():
                            continue
                        if (qq, i2, q2) not in rights:
                            rights[qq, i2, q2] = basis_b[qq].tensor(s2_cols[i2]).tensor(basis_b[q2])
                        left_vec = first.tensor(mid).tensor(third)
                        coeff = ci * cl * ce * ce2
                        for lf, lv in left_vec.items():
                            base = lf * dim
                            for rf, rv in rights[qq, i2, q2].items():
                                entries.append((base + rf, col, coeff * lv * rv))
    return Mat(dim * dim, dim, entries)


def _typed(m: Mat):
    return sorted((r, c, type(v), v) for r, c, v in m.items())


CASES = [
    *(pytest.param(_trivial_action_input, (L_token, B_token), id=f"{L_token}-{B_token}")
      for L_token, B_token, _ in QTG_BUILD_DIGESTS),
    *(pytest.param(_automorphism_input, (order, B_token, perms), id=name)
      for (order, B_token, perms, _), name in zip(AUTOMORPHISM_ACTIONS, AUTOMORPHISM_IDS)),
    pytest.param(_trivial_action_input, ("trivial", "matrix:3"), id="trivial-matrix:3"),
    # B = k: e = 1 (x) 1, so every entry is an int
    pytest.param(_trivial_action_input, ("cyclic:2", "cyclic:1"), id="cyclic:2-cyclic:1"),
]


@pytest.mark.parametrize("make, args", CASES)
def test_closed_form_matches_reference_loop(make, args):
    q = make(*args)
    h = qtg_build(q)
    lam_r = integral_space(q.L, "right").basis[0]
    tabulated = _closed_form_delta(q, lam_r, h.dim)
    reference = reference_closed_form(q, lam_r, h.dim)
    assert tabulated == reference
    assert _typed(tabulated) == _typed(reference)
    assert qtg_frobenius(q, h).delta == tabulated

