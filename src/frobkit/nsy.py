"""NSY algebras: endomorphism algebras of multiplicity-weighted projective sums
over a cyclic bound quiver algebra.

The underlying quiver is an n-cycle with arrows i -> i+1 (mod n) and all paths
of length >= ell killed.  For multiplicities (m_0, ..., m_{n-1}) the algebra
B_{n,ell}(m_0, ..., m_{n-1}) has basis X[i,j]^(r,s) indexed by a start vertex
i, a path length 0 <= j <= ell-1, and copy indices r < m_i, s < m_{(i+j) % n};
X[i,j]^(r,s) is pre-composition by the length-j path starting at i, mapping
copy s of the projective at vertex i+j into copy r of the projective at i.

The structure constants come from the closed product formula (nsy_build),
and Delta from its closed formula (nsy_delta).  The path-model oracle, which
composes explicit endomorphism matrices on the path basis and re-expands them
in the X basis, is their independent reference and lives with the tests.

The basis is ordered lexicographically in (i, j, r, s), so the X[i,j] form
one m_i x m_{i+j} block each: with off[i][j] the position of X[i,j]^(0,0),
X[i,j]^(r,s) sits at off[i][j] + r*m_{i+j} + s.  nsy_build, nsy_delta and
counit_candidate walk the blocks and copies straight from these offsets,
with no per-element index objects.  nsy_build visits only the nonzero
products, never all d^2 basis pairs.

The comultiplication makes every such algebra non-counital Frobenius; a counit
exists exactly when m_i = m_{(i + ell - 1) % n} for all i, in which case it is
eps(X[i,j]^(r,s)) = [j == ell-1][r == s].

This module holds only constructions and data; ``frobkit.cli`` renders every
table from the labels and products of nsy_build and the columns of nsy_delta.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import InputError
from .exactlin import Mat, ONE, Vec
from .finalg import AlgebraData, ComultData

__all__ = [
    "NSYParams",
    "basis_label",
    "nsy_dimension",
    "is_frobenius",
    "nsy_build",
    "nsy_delta",
    "counit_candidate",
    "nsy_epsilon",
    "sweep_params",
]


@dataclass(frozen=True)
class NSYParams:
    """Vertex count n >= 1, nilpotency bound ell >= 1, multiplicities m_i >= 1."""

    n: int
    ell: int
    mults: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"need n >= 1, got {self.n}")
        if self.ell < 1:
            raise InputError(f"need ell >= 1, got {self.ell}")
        if len(self.mults) != self.n:
            raise InputError(
                f"need {self.n} multiplicities, got {len(self.mults)}"
            )
        if any(m < 1 for m in self.mults):
            raise InputError("multiplicities must be >= 1")

    def mult_at(self, vertex: int) -> int:
        return self.mults[vertex % self.n]


def _layout(p: NSYParams) -> tuple[list[list[int]], int]:
    """The block offsets ``off[i][j]``, the positions of X[i,j]^(0,0), and
    the dimension d: X[i,j]^(r,s) is at off[i][j] + r*m_{i+j} + s."""
    off, dim = [], 0
    for i in range(p.n):
        off.append([])
        for j in range(p.ell):
            off[i].append(dim)
            dim += p.mults[i] * p.mult_at(i + j)
    return off, dim


def basis_label(idx: tuple) -> str:
    """X[i,j]^(r,s) for the tuple (i, j, r, s); nsy_build passes "{}" for r
    and s to get the template of a whole block."""
    i, j, r, s = idx
    return f"X[{i},{j}]^({r},{s})"


def nsy_dimension(p: NSYParams) -> int:
    """sum_i sum_{j < ell} m_i * m_{(i+j) % n}, with no loop over ell: for
    ell = t*n + r the j < t*n run t times round the cycle, t * (sum m)^2, and
    the last r are a window of the doubled cycle, read off its prefix sums."""
    t, r = divmod(p.ell, p.n)
    prefix = [0, *itertools.accumulate(p.mults * 2)]
    window = sum(m * (prefix[i + r] - prefix[i]) for i, m in enumerate(p.mults))
    return t * sum(p.mults) ** 2 + window


def is_frobenius(p: NSYParams) -> bool:
    """True iff m_i = m_{nu(i)} for every vertex i."""
    return all(p.mults[i] == p.mult_at(i + p.ell - 1) for i in range(p.n))


def nsy_build(p: NSYParams) -> AlgebraData:
    """Structure constants from the closed product formula.

    X[i,j]^(r,s) * X[a,b]^(r',s') = X[i,j+b]^(r,s') when a = i+j (mod n),
    r' = s and j+b < ell, and 0 otherwise.  The unit is the sum of all
    X[i,0]^(r,r).

    Only the nonzero products are visited: for x = X[i,j]^(r,s) they are
    y = X[i+j,b]^(s,s') with b < ell-j, read block by block off the offsets
    of ``_layout`` in ascending position of x, then of y, with each block's
    labels formatted from one template.  Every product is a basis element, and
    the d term tuples ``((k, 1),)`` are shared between them.
    """
    off, dim = _layout(p)
    m, n, ell = p.mults, p.n, p.ell
    e = [((k, ONE),) for k in range(dim)]
    mult, labels = {}, []
    for i in range(n):
        for j in range(ell):
            a = (i + j) % n
            copies = list(itertools.product(range(m[i]), range(m[a])))
            labels += itertools.starmap(basis_label((i, j, "{}", "{}")).format, copies)
            # the blocks X[a,b] of y and X[i,j+b] of xy, and the copies s' of both
            rights = [(off[a][b], off[i][j + b], m[(a + b) % n]) for b in range(ell - j)]
            for x, (r, s) in enumerate(copies, off[i][j]):
                for y0, xy0, mb in rights:
                    y, xy = y0 + s * mb, xy0 + r * mb
                    for t in range(mb):
                        mult[(x, y + t)] = e[xy + t]
    unit = Vec.adopt(dim, {off[i][0] + r * m[i] + r: ONE for i in range(n) for r in range(m[i])})
    return AlgebraData(dim, labels, mult, unit)


def _delta_blocks(p: NSYParams, i: int, j: int):
    """The terms of Delta(X[i,j]^(r,s)) by k, as the path lengths j+k and
    ell-1-k, the right start vertex v and the copy pairs (t, t'); these do
    not depend on (r, s)."""
    m, n, ell = p.mults, p.n, p.ell
    for k in range(ell - j):
        u, v = (i + j + k) % n, (i + j + k - ell + 1) % n
        if m[u] == m[v]:
            pairs = [(t, t) for t in range(m[u])]
        else:
            pairs = [(t, t2) for t in range(m[u]) for t2 in range(m[v])]
        yield j + k, v, ell - 1 - k, pairs


def nsy_delta(p: NSYParams, algebra: AlgebraData | None = None) -> ComultData:
    """The non-counital Frobenius comultiplication; counit left empty.

    Delta(X[i,j]^(r,s)) sums X[i,j+k]^(r,t) (x) X[i+j+k-ell+1, ell-1-k]^(t',s)
    over 0 <= k <= ell-1-j, where t runs over the copies at vertex i+j+k and
    t' over the copies at vertex i+j+k-ell+1; when those two multiplicities
    are equal only the diagonal t = t' survives, otherwise all pairs appear.
    Column X[i,j]^(r,s) holds these terms in that order (k, then t, then t'),
    at rows written from the block offsets of ``_layout``, each with
    coefficient 1.
    """
    if algebra is None:
        algebra = nsy_build(p)
    off, d = _layout(p)
    m, n = p.mults, p.n
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


def counit_candidate(p: NSYParams) -> Vec:
    """The closed-form functional eps(X[i,j]^(r,s)) = [j == ell-1][r == s].

    This is a genuine counit exactly in the Frobenius case; applying it
    anyway to a non-Frobenius instance exhibits the counitality failure.
    """
    off, dim = _layout(p)
    top = p.ell - 1
    return Vec.adopt(dim, {off[i][top] + r * p.mult_at(i + top) + r: ONE
                           for i in range(p.n) for r in range(min(p.mults[i], p.mult_at(i + top)))})


def nsy_epsilon(p: NSYParams) -> Vec | None:
    """The counit when the algebra is Frobenius, else None."""
    return counit_candidate(p) if is_frobenius(p) else None


def sweep_params(nmax: int, lmax: int, mmax: int) -> Iterator[NSYParams]:
    """All parameter tuples with n <= nmax, ell <= lmax, 1 <= m_i <= mmax,
    in lexicographic order, made one at a time as they are read."""
    if nmax < 1 or lmax < 1 or mmax < 1:
        raise InputError("sweep bounds must be >= 1")
    return (
        NSYParams(n, ell, mults)
        for n in range(1, nmax + 1)
        for ell in range(1, lmax + 1)
        for mults in itertools.product(range(1, mmax + 1), repeat=n)
    )
