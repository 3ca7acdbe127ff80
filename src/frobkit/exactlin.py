"""Exact rational linear algebra kernel.

Sparse vectors and matrices over arbitrary-precision rationals, tensor index
bookkeeping, and exact linear solving.  All values are immutable by
convention: every operation returns a new value, so anything built here can
be shared freely.

Scalars are ``fractions.Fraction``: always reduced, positive denominator,
exact decidable equality.  No floating point is used anywhere.

Every sparse sum in the package goes through one kernel, :func:`addto`:
``acc[base + stride*k] += coeff*v`` over a stream of ``(k, v)`` entries,
dropping entries that cancel to zero.  That one affine key map covers every
tensor flattening used (``p*d + k``, ``k*d + q``, ``(x*d + y)*d + q``, ...).
Dicts the kernel built become vectors through :meth:`Vec.adopt` without a
copy.  Sums iterate stored dicts in storage order, since exact addition does
not depend on it; sorted order (``Vec.items``, ``Mat.items``) is used only
where order can be seen: serialization, printed vectors, and the order of
rows fed to :class:`LinearSystem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import InputError

Scalar = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


def scalar_to_str(x: Fraction) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def scalar_from_str(s: str | int) -> Fraction:
    """Parse a ``"p/q"`` (or decimal) string or an integer exactly.

    Floats and booleans are rejected, since a float is already inexact, and
    so are exponent literals such as ``"1e999999"``, whose size is not
    bounded by their length.
    """
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise InputError(f"bad rational literal {s!r}: expected a string or an integer")
    if isinstance(s, str) and ("e" in s or "E" in s):
        raise InputError(f"bad rational literal {s!r}: exponents are not allowed")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {s!r}: {exc}") from None


def addto(acc: dict, coeff, entries, base: int = 0, stride: int = 1) -> dict:
    """Sparse accumulate: ``acc[base + stride*k] += coeff*v`` for each
    ``(k, v)`` in ``entries``, deleting keys whose sum cancels to zero.

    ``entries`` values must be nonzero (as in every stored vector, matrix
    column, or dict this function built).  Returns ``acc``.
    """
    if not coeff:
        return acc
    for k, v in entries:
        key = base + stride * k
        w = coeff * v
        if key in acc:
            w += acc[key]
            if not w:
                del acc[key]
                continue
        acc[key] = w
    return acc


class Vec:
    """Sparse vector of a fixed dimension; zero entries are never stored."""

    __slots__ = ("dim", "_e")

    def __init__(self, dim: int, entries=None):
        if dim < 0:
            raise InputError(f"vector dimension must be >= 0, got {dim}")
        self.dim = dim
        e: dict[int, Fraction] = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for k, v in items:
                if not 0 <= k < dim:
                    raise InputError(f"index {k} out of range for dimension {dim}")
                v = Fraction(v)
                if v:
                    w = e.get(k, ZERO) + v
                    if w:
                        e[k] = w
                    else:
                        del e[k]
        self._e = e

    @classmethod
    def adopt(cls, dim: int, entries: dict) -> "Vec":
        """Wrap a dict of nonzero in-range entries, such as one built by
        :func:`addto`, without checking or copying it."""
        v = cls.__new__(cls)
        v.dim = dim
        v._e = entries
        return v

    @classmethod
    def zero(cls, dim: int) -> "Vec":
        return cls(dim)

    @classmethod
    def basis(cls, dim: int, k: int) -> "Vec":
        return cls(dim, {k: ONE})

    def get(self, i: int) -> Fraction:
        return self._e.get(i, ZERO)

    def items(self) -> list[tuple[int, Fraction]]:
        """Entries in ascending index order, for output."""
        return sorted(self._e.items())

    def terms(self):
        """Entries in storage order, for sums."""
        return self._e.items()

    def support(self) -> list[int]:
        return sorted(self._e)

    def is_zero(self) -> bool:
        return not self._e

    def scale(self, c) -> "Vec":
        c = Fraction(c)
        if not c:
            return Vec(self.dim)
        return Vec(self.dim, {k: c * v for k, v in self._e.items()})

    def __add__(self, other: "Vec") -> "Vec":
        if self.dim != other.dim:
            raise InputError("vector dimension mismatch in addition")
        return Vec.adopt(self.dim, addto(dict(self._e), ONE, other._e.items()))

    def __sub__(self, other: "Vec") -> "Vec":
        return self + other.scale(-1)

    def __neg__(self) -> "Vec":
        return self.scale(-1)

    def dot(self, other: "Vec") -> Fraction:
        if self.dim != other.dim:
            raise InputError("vector dimension mismatch in dot product")
        small, big = (self._e, other._e) if len(self._e) <= len(other._e) else (other._e, self._e)
        acc = ZERO
        for k, v in small.items():
            w = big.get(k)
            if w is not None:
                acc += v * w
        return acc

    def tensor(self, other: "Vec") -> "Vec":
        """Row-major tensor product: index = i * other.dim + j."""
        n = other.dim
        return Vec.adopt(
            self.dim * n,
            {i * n + j: v * w for i, v in self._e.items() for j, w in other._e.items()},
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vec)
            and self.dim == other.dim
            and self._e == other._e
        )

    def __hash__(self) -> int:
        return hash((self.dim, tuple(sorted(self._e.items()))))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {scalar_to_str(v)}" for k, v in self.items())
        return f"Vec({self.dim}, {{{body}}})"


class Mat:
    """Sparse matrix stored by columns; zero entries are never stored."""

    __slots__ = ("nrows", "ncols", "_c")

    def __init__(self, nrows: int, ncols: int, entries=None):
        if nrows < 0 or ncols < 0:
            raise InputError("matrix dimensions must be >= 0")
        self.nrows = nrows
        self.ncols = ncols
        cols: dict[int, dict[int, Fraction]] = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for key_val in items:
                if isinstance(entries, dict):
                    (r, c), v = key_val
                else:
                    r, c, v = key_val
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise InputError(f"entry ({r}, {c}) out of range for {nrows}x{ncols}")
                v = Fraction(v)
                if not v:
                    continue
                col = cols.setdefault(c, {})
                w = col.get(r, ZERO) + v
                if w:
                    col[r] = w
                else:
                    del col[r]
                    if not col:
                        del cols[c]
        self._c = cols

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Mat":
        return cls(nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        m = cls(n, n)
        m._c = {j: {j: ONE} for j in range(n)}
        return m

    @classmethod
    def from_columns(cls, nrows: int, columns: Iterable[Vec]) -> "Mat":
        cols = list(columns)
        m = cls(nrows, len(cols))
        for j, v in enumerate(cols):
            if v.dim != nrows:
                raise InputError("column dimension mismatch")
            if not v.is_zero():
                m._c[j] = dict(v._e)
        return m

    def entry(self, r: int, c: int) -> Fraction:
        return self._c.get(c, {}).get(r, ZERO)

    def col(self, j: int) -> Vec:
        if not 0 <= j < self.ncols:
            raise InputError(f"column {j} out of range")
        return Vec.adopt(self.nrows, dict(self._c.get(j, {})))

    def col_terms(self, j: int):
        """Entries of column j in storage order, for sums."""
        return self._c.get(j, {}).items()

    def items(self) -> list[tuple[int, int, Fraction]]:
        """Entries as (row, col, value), sorted by (row, col)."""
        out = [(r, c, v) for c, col in self._c.items() for r, v in col.items()]
        out.sort(key=lambda t: (t[0], t[1]))
        return out

    def rows_items(self) -> dict[int, dict[int, Fraction]]:
        rows: dict[int, dict[int, Fraction]] = {}
        for c, col in self._c.items():
            for r, v in col.items():
                rows.setdefault(r, {})[c] = v
        return rows

    def matvec(self, v: Vec) -> Vec:
        if v.dim != self.ncols:
            raise InputError("matvec dimension mismatch")
        acc: dict[int, Fraction] = {}
        for j, coeff in v._e.items():
            addto(acc, coeff, self.col_terms(j))
        return Vec.adopt(self.nrows, acc)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise InputError("matmul dimension mismatch")
        result = Mat(self.nrows, other.ncols)
        for j, col in other._c.items():
            acc: dict[int, Fraction] = {}
            for k, coeff in col.items():
                addto(acc, coeff, self.col_terms(k))
            if acc:
                result._c[j] = acc
        return result

    def transpose(self) -> "Mat":
        m = Mat(self.ncols, self.nrows)
        for c, col in self._c.items():
            for r, v in col.items():
                m._c.setdefault(r, {})[c] = v
        return m

    def __add__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InputError("matrix dimension mismatch in addition")
        m = Mat(self.nrows, self.ncols)
        m._c = {c: dict(col) for c, col in self._c.items()}
        for c, col in other._c.items():
            if not addto(m._c.setdefault(c, {}), ONE, col.items()):
                del m._c[c]
        return m

    def __sub__(self, other: "Mat") -> "Mat":
        return self + other.scale(-1)

    def scale(self, c) -> "Mat":
        c = Fraction(c)
        m = Mat(self.nrows, self.ncols)
        if c:
            m._c = {j: {r: c * v for r, v in col.items()} for j, col in self._c.items()}
        return m

    def is_zero(self) -> bool:
        return not self._c

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._c == other._c
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(self.items())))

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols}, {len(self.items())} entries)"


@dataclass(frozen=True)
class TensorIndex:
    """Row-major flattening of multi-indices; leftmost factor most significant."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims:
            raise InputError("tensor index needs at least one factor")
        if any(d < 1 for d in self.dims):
            raise InputError("tensor factor dimensions must be >= 1")

    @property
    def size(self) -> int:
        return math.prod(self.dims)

    def flatten(self, multi: tuple[int, ...]) -> int:
        if len(multi) != len(self.dims):
            raise InputError("multi-index arity mismatch")
        acc = 0
        for d, i in zip(self.dims, multi):
            if not 0 <= i < d:
                raise InputError(f"multi-index {multi} out of range for {self.dims}")
            acc = acc * d + i
        return acc

    def unflatten(self, flat: int) -> tuple[int, ...]:
        if not 0 <= flat < self.size:
            raise InputError(f"flat index {flat} out of range for {self.dims}")
        out = []
        for d in reversed(self.dims):
            flat, i = divmod(flat, d)
            out.append(i)
        return tuple(reversed(out))

    def all_indices(self) -> Iterator[tuple[int, ...]]:
        def rec(prefix, rest):
            if not rest:
                yield tuple(prefix)
                return
            for i in range(rest[0]):
                yield from rec(prefix + [i], rest[1:])

        yield from rec([], list(self.dims))


class LinearSystem:
    """Incremental exact row reduction (reduced row-echelon form).

    Equations are added one at a time and kept fully reduced with leftmost
    pivot selection, so solutions and kernel bases are deterministic and
    depend only on the row space.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        # pivot column -> (row dict with row[pivot] == 1, rhs)
        self._rows: dict[int, tuple[dict[int, Fraction], Fraction]] = {}
        self._bad_tag = None
        self._inconsistent = False

    def add(self, coeffs: dict[int, Fraction], rhs=ZERO, tag=None) -> None:
        row = {c: Fraction(v) for c, v in coeffs.items() if v}
        for c in row:
            if not 0 <= c < self.ncols:
                raise InputError(f"column {c} out of range")
        rhs = Fraction(rhs)
        # Stored rows contain their pivot plus free columns only, so one pass
        # over the incoming row's pivot columns reduces it completely.
        for p in sorted(c for c in row if c in self._rows):
            f = row.get(p)
            if not f:
                continue
            prow, prhs = self._rows[p]
            addto(row, -f, prow.items())
            rhs -= f * prhs
        if not row:
            if rhs and not self._inconsistent:
                self._inconsistent = True
                self._bad_tag = tag
            return
        p = min(row)
        f = row[p]
        row = {c: v / f for c, v in row.items()}
        rhs = rhs / f
        for q, (qrow, qrhs) in list(self._rows.items()):
            g = qrow.get(p)
            if g is None:
                continue
            self._rows[q] = (addto(dict(qrow), -g, row.items()), qrhs - g * rhs)
        self._rows[p] = (row, rhs)

    def add_matrix(self, a: Mat, b: Vec | None = None) -> None:
        if b is not None and b.dim != a.nrows:
            raise InputError("right-hand side dimension mismatch")
        rows = a.rows_items()
        for r in range(a.nrows):
            coeffs = rows.get(r, {})
            rhs = b.get(r) if b is not None else ZERO
            if coeffs or rhs:
                self.add(coeffs, rhs, tag=r)

    @property
    def consistent(self) -> bool:
        return not self._inconsistent

    @property
    def inconsistent_tag(self):
        return self._bad_tag

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivot_columns(self) -> list[int]:
        return sorted(self._rows)

    def free_columns(self) -> list[int]:
        pivots = self._rows
        return [c for c in range(self.ncols) if c not in pivots]

    def partial_solution(self) -> Vec:
        """Free-variables-zero assignment from the pivot rows, ignoring consistency."""
        return Vec(self.ncols, {p: rhs for p, (_, rhs) in self._rows.items()})

    def solution(self) -> Vec | None:
        if self._inconsistent:
            return None
        return self.partial_solution()

    def kernel(self) -> list[Vec]:
        """Echelon free-variable basis of the homogeneous solution space."""
        out = []
        for f in self.free_columns():
            e = {f: ONE}
            for p, (row, _) in self._rows.items():
                v = row.get(f)
                if v:
                    e[p] = -v
            out.append(Vec(self.ncols, e))
        return out


def solve_linear(a: Mat, b: Vec) -> Vec | None:
    """Exact solution of a x = b, or None when inconsistent.

    Underdetermined consistent systems return the reduced-echelon solution
    with all free variables set to zero (leftmost pivot selection).
    """
    if a.nrows != b.dim:
        raise InputError(f"solve_linear: {a.nrows} rows vs rhs dimension {b.dim}")
    sys_ = LinearSystem(a.ncols)
    sys_.add_matrix(a, b)
    return sys_.solution()


def kernel_basis(a: Mat) -> list[Vec]:
    """Deterministic exact basis of the null space; empty iff a is injective."""
    sys_ = LinearSystem(a.ncols)
    sys_.add_matrix(a)
    return sys_.kernel()


def inverse(a: Mat) -> Mat | None:
    """Exact inverse via elimination, or None when singular."""
    if a.nrows != a.ncols:
        raise InputError("inverse requires a square matrix")
    n = a.nrows
    rows_view = a.rows_items()
    rows = [dict(rows_view.get(r, {})) for r in range(n)]
    aug = [{r: ONE} for r in range(n)]
    used = [False] * n
    pivot_of_col: dict[int, int] = {}
    for c in range(n):
        pr = None
        for r in range(n):
            if not used[r] and rows[r].get(c):
                pr = r
                break
        if pr is None:
            return None
        used[pr] = True
        pivot_of_col[c] = pr
        f = rows[pr][c]
        rows[pr] = {k: v / f for k, v in rows[pr].items()}
        aug[pr] = {k: v / f for k, v in aug[pr].items()}
        for r in range(n):
            if r == pr:
                continue
            g = rows[r].get(c)
            if not g:
                continue
            addto(rows[r], -g, rows[pr].items())
            addto(aug[r], -g, aug[pr].items())
    entries = []
    for c, pr in pivot_of_col.items():
        for k, v in aug[pr].items():
            entries.append((c, k, v))
    return Mat(n, n, entries)


def is_invertible(a: Mat) -> bool:
    """Exact invertibility check (determinant-free elimination)."""
    return inverse(a) is not None
