"""The path-model oracle of the NSY algebras, the independent reference of
``frobkit.nsy.nsy_build``.

Each basis element X[i,j]^(r,s) is built as an explicit endomorphism of the
path space of the cyclic quiver (paths of length < ell, one copy per
multiplicity), products are composed as matrices and re-expanded in the X
basis.  Nothing here reads ``nsy._layout`` or the closed product formula:
the basis is the sorted list of (i, j, r, s) namedtuples.

Matrices are plain dicts ``{(row, col): value}`` with no zero values;
``mat_product``, ``mat_sum`` and ``mat_identity`` are their whole algebra,
and ``cells`` reads a ``frobkit.exactlin.Mat`` into one.
"""

from __future__ import annotations

from typing import NamedTuple

from frobkit.exactlin import Mat, Vec
from frobkit.finalg import AlgebraData
from frobkit.nsy import NSYParams, basis_label


class NSYBasisIndex(NamedTuple):
    i: int  # start vertex
    j: int  # path length
    r: int  # copy index at vertex i
    s: int  # copy index at vertex (i + j) % n


class PathBasisIndex(NamedTuple):
    i: int  # start vertex
    k: int  # path length
    r: int  # copy index at vertex i


def basis_indices(p: NSYParams) -> list[NSYBasisIndex]:
    """All basis labels in the canonical lexicographic (i, j, r, s) order."""
    return [NSYBasisIndex(i, j, r, s) for i in range(p.n) for j in range(p.ell)
            for r in range(p.mults[i]) for s in range(p.mult_at(i + j))]


def nakayama_permutation(p: NSYParams) -> list[int]:
    """The permutation i -> (i + ell - 1) mod n matching socles to tops."""
    return [(i + p.ell - 1) % p.n for i in range(p.n)]


def mat_product(a: dict, b: dict) -> dict:
    rows_of_b: dict = {}
    for (k, c), v in b.items():
        rows_of_b.setdefault(k, []).append((c, v))
    out: dict = {}
    for (r, k), u in a.items():
        for c, v in rows_of_b.get(k, ()):
            out[r, c] = out.get((r, c), 0) + u * v
    return {rc: v for rc, v in out.items() if v}


def mat_sum(a: dict, b: dict) -> dict:
    out = dict(a)
    for rc, v in b.items():
        out[rc] = out.get(rc, 0) + v
    return {rc: v for rc, v in out.items() if v}


def mat_identity(n: int) -> dict:
    return {(k, k): 1 for k in range(n)}


def cells(m: Mat) -> dict:
    return {(r, c): v for r, c, v in m.items()}


def path_basis(p: NSYParams) -> list[PathBasisIndex]:
    return [
        PathBasisIndex(i, k, r)
        for i in range(p.n)
        for k in range(p.ell)
        for r in range(p.mults[i])
    ]


def endomorphism_matrix(p: NSYParams, idx: NSYBasisIndex, pos: dict) -> dict:
    """X[i,j]^(r,s) as a linear endomorphism of the total path space.

    It sends the path of length k starting at vertex i+j in copy s to the
    path of length j+k starting at i in copy r (zero once j+k exceeds
    ell-1), and kills every other path basis vector.
    """
    src_vertex = (idx.i + idx.j) % p.n
    return {
        (pos[PathBasisIndex(idx.i, idx.j + k, idx.r)], pos[PathBasisIndex(src_vertex, k, idx.s)]): 1
        for k in range(p.ell - idx.j)
    }


def nsy_build_oracle(p: NSYParams) -> AlgebraData:
    """Independent construction through explicit path-space endomorphisms.

    Products are computed by composing matrices and re-expanding in the X
    basis.  Each X[i,j]^(r,s) is the unique basis endomorphism with a nonzero
    entry at (path(i,j,r), path(i+j,0,s)), which makes the expansion a direct
    coefficient read-off; the re-expansion is then verified entry by entry.
    """
    basis = sorted(basis_indices(p))  # lexicographic, independent of nsy._layout
    dim = len(basis)
    ppos = {idx: k for k, idx in enumerate(path_basis(p))}
    mats = [endomorphism_matrix(p, idx, ppos) for idx in basis]

    witness_cells = [
        (
            ppos[PathBasisIndex(idx.i, idx.j, idx.r)],
            ppos[PathBasisIndex((idx.i + idx.j) % p.n, 0, idx.s)],
        )
        for idx in basis
    ]

    def expand(mat: dict) -> tuple:
        coeffs = {k: v for k, cell in enumerate(witness_cells) if (v := mat.get(cell))}
        recon: dict = {}
        for k, v in coeffs.items():
            recon = mat_sum(recon, {rc: v * w for rc, w in mats[k].items()})
        assert recon == mat, "endomorphism not in the span of the X basis"
        return tuple(coeffs.items())

    mult = {(a, b): expand(mat_product(mats[a], mats[b])) for a in range(dim) for b in range(dim)}
    unit = Vec(dim, expand(mat_identity(len(ppos))))
    return AlgebraData(dim, [basis_label(x) for x in basis], mult, unit)
