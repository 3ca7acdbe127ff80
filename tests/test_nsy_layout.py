"""nsy_build and nsy_delta read positions off block offsets and visit only the
nonzero products; they must give exactly what the all-pairs construction
below gives.  That construction is a verbatim copy of the earlier code, which
tested all d^2 basis pairs and looked every target up in a position dict.

Compared: labels, unit, ``mult`` (with its key order) and ``delta`` (with
the term order of every column), plus the ``delta`` columns read through the
labels (as ``nsy delta`` prints them), ``basis_indices`` and
``counit_candidate``.  The ``nsy build`` JSON is pinned by sha256, recorded
from the all-pairs code, and ``nsy check`` must decide the unit laws without
a single AlgebraData.mul call.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from frobkit import cli, finalg
from frobkit.exactlin import Mat, ONE, Vec
from frobkit.finalg import AlgebraData, ComultData
from frobkit.nsy import (
    NSYParams,
    basis_label,
    counit_candidate,
    nsy_build,
    nsy_delta,
)
from nsy_oracle import NSYBasisIndex, basis_indices
from test_nsy import delta_columns


# ---- the all-pairs construction, copied verbatim -------------------------


def ref_basis_indices(p: NSYParams) -> list[NSYBasisIndex]:
    """All basis labels in the canonical lexicographic (i, j, r, s) order."""
    out = []
    for i in range(p.n):
        for j in range(p.ell):
            for r in range(p.mults[i]):
                for s in range(p.mult_at(i + j)):
                    out.append(NSYBasisIndex(i, j, r, s))
    return out


def _position_map(p: NSYParams) -> tuple[list[NSYBasisIndex], dict[NSYBasisIndex, int]]:
    basis = ref_basis_indices(p)
    return basis, {idx: pos for pos, idx in enumerate(basis)}


def ref_nsy_build(p: NSYParams) -> AlgebraData:
    basis, pos = _position_map(p)
    dim = len(basis)
    mult = {}
    for p1, x in enumerate(basis):
        end = (x.i + x.j) % p.n
        for p2, y in enumerate(basis):
            if y.i != end or y.r != x.s or x.j + y.j >= p.ell:
                continue
            target = NSYBasisIndex(x.i, x.j + y.j, x.r, y.s)
            mult[(p1, p2)] = ((pos[target], 1),)
    unit = Vec(
        dim,
        [
            (pos[NSYBasisIndex(i, 0, r, r)], ONE)
            for i in range(p.n)
            for r in range(p.mults[i])
        ],
    )
    return AlgebraData(dim, [basis_label(b) for b in basis], mult, unit)


def ref_delta_terms(
    p: NSYParams, idx: NSYBasisIndex
) -> list[tuple[NSYBasisIndex, NSYBasisIndex]]:
    terms = []
    for k in range(p.ell - idx.j):
        u = (idx.i + idx.j + k) % p.n
        v = (idx.i + idx.j + k - p.ell + 1) % p.n
        left_len = idx.j + k
        right_len = p.ell - 1 - k
        if p.mults[u] == p.mults[v]:
            pairs = [(t, t) for t in range(p.mults[u])]
        else:
            pairs = [
                (t, t2) for t in range(p.mults[u]) for t2 in range(p.mults[v])
            ]
        for t, t2 in pairs:
            terms.append(
                (
                    NSYBasisIndex(idx.i, left_len, idx.r, t),
                    NSYBasisIndex(v, right_len, t2, idx.s),
                )
            )
    return terms


def ref_nsy_delta(p: NSYParams, algebra: AlgebraData | None = None) -> ComultData:
    if algebra is None:
        algebra = ref_nsy_build(p)
    basis, pos = _position_map(p)
    dim = len(basis)
    entries = []
    for col, idx in enumerate(basis):
        for left, right in ref_delta_terms(p, idx):
            entries.append((pos[left] * dim + pos[right], col, ONE))
    return ComultData(algebra, Mat(dim * dim, dim, entries))


def ref_counit_candidate(p: NSYParams) -> Vec:
    basis, _ = _position_map(p)
    return Vec(
        len(basis),
        [
            (k, ONE)
            for k, idx in enumerate(basis)
            if idx.j == p.ell - 1 and idx.r == idx.s
        ],
    )


# ---- the differential test -----------------------------------------------


def assert_matches_all_pairs(p: NSYParams) -> None:
    built, ref = nsy_build(p), ref_nsy_build(p)
    assert built.labels == ref.labels
    assert built.unit == ref.unit
    assert built.mult == ref.mult
    assert list(built.mult) == list(ref.mult)
    delta, ref_delta = nsy_delta(p, built).delta, ref_nsy_delta(p, ref).delta
    assert delta == ref_delta
    for j in range(built.dim):
        assert list(delta.col_terms(j)) == list(ref_delta.col_terms(j))
    basis = ref_basis_indices(p)
    assert basis_indices(p) == basis
    cols = delta_columns(p)
    assert [cols[idx] for idx in basis] == [ref_delta_terms(p, idx) for idx in basis]
    assert counit_candidate(p) == ref_counit_candidate(p)


@st.composite
def nsy_params(draw, nmax=6, lmax=6, mmax=4):
    n = draw(st.integers(1, nmax))
    ell = draw(st.integers(1, lmax))
    mults = draw(st.lists(st.integers(1, mmax), min_size=n, max_size=n))
    return NSYParams(n, ell, tuple(mults))


@settings(max_examples=60, deadline=None)
@given(nsy_params())
def test_layout_matches_all_pairs_construction(p):
    assert_matches_all_pairs(p)


@pytest.mark.parametrize(
    "p",
    [
        NSYParams(1, 1, (1,)),
        NSYParams(1, 3, (4,)),
        NSYParams(3, 1, (2, 1, 3)),
        NSYParams(2, 6, (4, 1)),
        NSYParams(6, 2, (1, 4, 2, 3, 1, 2)),
        NSYParams(5, 5, (3, 2, 3, 2, 3)),
    ],
    ids=str,
)
def test_layout_matches_all_pairs_edge_cases(p):
    assert_matches_all_pairs(p)


# sha256 of `nsy build` stdout, recorded from the all-pairs construction
NSY_BUILD_DIGESTS = {
    "n=2 ell=2 m=2,1": "fe8b6c1bb095e09c37fb93eb1d56f80b1793e0248022c7823bf71dc46f4545ea",
    "n=4 ell=3 m=1,2,1,2": "eb425ff7f401799073e056a45469738847d738a3a2bf626d2013f094ce063eef",
    "n=5 ell=5 m=3,2,3,2,3": "1f94a5b347020fff5dfd6ef8db38c74444b6e89e4691c242ef18663d28a27812",
}


@pytest.mark.parametrize("params", sorted(NSY_BUILD_DIGESTS))
def test_nsy_build_json_pinned(params, capsys):
    assert cli.main(["nsy", "build", *params.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == NSY_BUILD_DIGESTS[params]


def test_nsy_check_decides_unit_laws_without_mul(monkeypatch, capsys):
    """The dim-169 baseline made 2d = 338 full products for the unit laws;
    they are now read off the product index."""
    calls = []
    mul = AlgebraData.mul

    def spy(self, x, y):
        calls.append((x, y))
        return mul(self, x, y)

    monkeypatch.setattr(finalg.AlgebraData, "mul", spy)
    assert cli.main(["nsy", "check", "n=5", "ell=5", "m=3,2,3,2,3"]) == 0
    assert "classification: NonCounitalOnly" in capsys.readouterr().out
    assert calls == []
