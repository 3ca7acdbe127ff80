"""nsy_build, nsy_delta and counit_candidate walk the blocks (i, j) and their
copies (r, s) straight from the block offsets, with no NSYBasisIndex per
basis element; ``frobkit.nsy`` defines no namedtuple at all, and only the
test oracle ``nsy_oracle`` still builds them.

The reference below is the earlier namedtuple walk, copied verbatim in
substance: ``_layout`` built the basis list next to the offsets, and
``nsy_build`` and ``nsy_delta`` read the basis from it.  Both must give the
same ``mult`` (keys, values and insertion order), labels, unit, Delta
columns and column term order (``nsy_oracle.nsy_build_oracle`` stays the
independent reference of ``nsy_build`` in ``test_term_tuples.py``).  The
pinned bytes of every ``nsy`` action are checked by ``test_cli_snapshots.py``
and the ``nsy build`` digests by ``test_nsy_layout.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from frobkit import nsy
from frobkit.exactlin import Mat, ONE, Vec
from frobkit.finalg import AlgebraData, ComultData
from frobkit.nsy import (
    NSYParams,
    _delta_blocks,
    _layout,
    basis_label,
    counit_candidate,
    nsy_build,
    nsy_delta,
    sweep_params,
)
from nsy_oracle import NSYBasisIndex, basis_indices

# ---- the namedtuple walk, copied verbatim ---------------------------------


def walk_layout(p: NSYParams) -> tuple[list[list[int]], list[NSYBasisIndex]]:
    off, basis = [], []
    for i in range(p.n):
        off.append([])
        for j in range(p.ell):
            off[i].append(len(basis))
            mt = p.mult_at(i + j)
            basis += [NSYBasisIndex(i, j, r, s) for r in range(p.mults[i]) for s in range(mt)]
    return off, basis


def walk_nsy_build(p: NSYParams) -> AlgebraData:
    off, basis = walk_layout(p)
    dim, m, n = len(basis), p.mults, p.n
    e = [((k, ONE),) for k in range(dim)]
    mult = {}
    for p1, (i, j, r, s) in enumerate(basis):
        a = (i + j) % n
        for b in range(p.ell - j):
            mb = m[(a + b) % n]
            y, xy = off[a][b] + s * mb, off[i][j + b] + r * mb
            for t in range(mb):
                mult[(p1, y + t)] = e[xy + t]
    unit = Vec.adopt(dim, {off[i][0] + r * m[i] + r: ONE for i in range(n) for r in range(m[i])})
    return AlgebraData(dim, [basis_label(b) for b in basis], mult, unit)


def walk_nsy_delta(p: NSYParams, algebra: AlgebraData) -> ComultData:
    off, basis = walk_layout(p)
    d, m, n = len(basis), p.mults, p.n
    cols: dict[int, dict] = {}
    for i in range(n):
        for j in range(p.ell):
            blocks = list(_delta_blocks(p, i, j))
            mt = m[(i + j) % n]
            for r in range(m[i]):
                for s in range(mt):
                    col = cols[len(cols)] = {}
                    for jl, v, jr, pairs in blocks:
                        left, right = off[i][jl] + r * m[(i + jl) % n], off[v][jr] + s
                        for t, t2 in pairs:
                            col[(left + t) * d + right + t2 * mt] = ONE
    return ComultData(algebra, Mat.adopt(d * d, d, cols))


def walk_counit_candidate(p: NSYParams) -> Vec:
    basis = walk_layout(p)[1]
    return Vec.adopt(
        len(basis), {k: ONE for k, idx in enumerate(basis) if idx.j == p.ell - 1 and idx.r == idx.s}
    )


# ---- the differential tests -----------------------------------------------


def assert_matches_namedtuple_walk(p: NSYParams) -> None:
    built, ref = nsy_build(p), walk_nsy_build(p)
    off, basis = walk_layout(p)
    assert _layout(p) == (off, len(basis))
    assert basis_indices(p) == basis
    assert (built.dim, built.labels, built.unit) == (ref.dim, ref.labels, ref.unit)
    assert built.mult == ref.mult
    assert list(built.mult) == list(ref.mult)
    assert [t for terms in built.mult.values() for t in terms] == [
        t for terms in ref.mult.values() for t in terms
    ]
    delta, ref_delta = nsy_delta(p, built).delta, walk_nsy_delta(p, ref).delta
    assert delta == ref_delta
    for j in range(built.dim):
        assert list(delta.col_terms(j)) == list(ref_delta.col_terms(j))
    assert nsy_delta(p).delta == ref_delta
    cand, ref_cand = counit_candidate(p), walk_counit_candidate(p)
    assert cand == ref_cand and cand.terms() == ref_cand.terms()


@pytest.mark.parametrize("p", sweep_params(3, 3, 3), ids=str)
def test_offset_walk_matches_namedtuple_walk(p):
    assert_matches_namedtuple_walk(p)


@st.composite
def nsy_params(draw, nmax=5, lmax=6, mmax=3):
    n = draw(st.integers(1, nmax))
    ell = draw(st.integers(1, lmax))
    mults = draw(st.lists(st.integers(1, mmax), min_size=n, max_size=n))
    return NSYParams(n, ell, tuple(mults))


@settings(max_examples=60, deadline=None)
@given(nsy_params())
def test_offset_walk_matches_namedtuple_walk_drawn(p):
    assert_matches_namedtuple_walk(p)


def test_block_label_format():
    assert basis_label((10, 2, 3, 11)) == "X[10,2]^(3,11)"


# ---- no namedtuples ---------------------------------------------------------


def test_nsy_defines_no_namedtuple():
    assert [
        name for name, v in vars(nsy).items()
        if isinstance(v, type) and issubclass(v, tuple) and hasattr(v, "_fields")
    ] == []
