"""Exact rational linear algebra kernel.

Sparse vectors and matrices over arbitrary-precision rationals, and exact
linear solving.  All values are immutable by convention: every operation
returns a new value, so anything built here can be shared freely.

Scalars are exact rationals: a plain ``int`` when the value is integral and
a reduced ``fractions.Fraction`` (denominator > 1) otherwise, never a
``float``.  The two types compare and hash equal, so dict keys, vector
equality and :func:`scalar_to_str` do not see the difference, while integer
data (every NSY, groupoid and group structure constant) is computed in
``int`` arithmetic.  One normaliser, :func:`_scalar`, admits values where
they enter (the vector, matrix and ``finalg.AlgebraData`` constructors,
``scale``, :func:`scalar_from_str`, the sum of a repeated entry in
:func:`add_entry` and :meth:`LinearSystem.add`) and rejects anything else,
such as floats or numpy integers that overflow silently.  The JSON decoder
in ``finalg`` parses each distinct literal once through
:func:`scalar_from_str`; it wraps a matrix field in the encoders' shape with
:meth:`Mat.adopt` and hands every other field to the :class:`Vec` and
:class:`Mat` constructors.  The closed-form comultiplication in ``whopf.qtg``
sums integer numerators, divides each entry once and wraps the result with
:meth:`Mat.adopt`.  Sums and products of stored values need no division, so
they stay exact; a result that cancels to an integral ``Fraction`` becomes
an ``int`` again when it passes through a constructor.  The one ``/`` in the
package is the pivot division of :meth:`LinearSystem.add`, taken through
``Fraction``.

Sparse sums over a stream of entries go through one kernel, :func:`addto`:
``acc[base + stride*k] += coeff*v`` over a stream of ``(k, v)`` entries,
dropping entries that cancel to zero.  That one affine key map covers every
tensor flattening used (``p*d + k``, ``k*d + q``, ``(x*d + y)*d + q``, ...).
A basis product is stored as its term tuple ``((k, c), ...)``, such a stream;
on a monomial table (``finalg.AlgebraData.monomial_table``) it is one index,
so the hottest evaluators add it at its flat key in place, dropping it in
the same way when it cancels.
Dicts the kernel built become vectors through :meth:`Vec.adopt` without a
copy.  Sums iterate stored dicts in storage order, since exact addition does
not depend on it; sorted order (``Vec.items``, ``Mat.items``) is used only
where order can be seen: serialization, printed vectors, and the order of
rows fed to :class:`LinearSystem`.

Likewise every row reduction goes through one elimination,
:meth:`LinearSystem.add`: solving, kernels, ranks, inverses and
invertibility are all read off its reduced rows, except that
:func:`is_invertible` needs none for a permuted diagonal.  It eliminates and
normalizes only the rows that need it (see :class:`LinearSystem`), and
returns whether the system is still consistent, so the counit solve stops
at the first contradictory row.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import InputError

Scalar = Union[int, Fraction]
ZERO = 0
ONE = 1


def _scalar(x) -> Scalar:
    """Admit an exact scalar: ``int`` when integral, else ``Fraction``.

    Takes an ``int`` (not a ``bool``), a ``Fraction`` over Python ints, or a
    ``"p/q"`` / decimal string without exponent.  Anything else raises
    InputError: a float is already inexact, and a numpy integer (also inside
    a Fraction) overflows without notice.
    """
    t = type(x)
    if t is int:
        return x
    if t is Fraction:
        n, d = x.numerator, x.denominator
        if type(n) is not int or type(d) is not int:
            raise InputError(f"bad scalar {x!r}: numerator and denominator must be Python ints")
        return n if d == 1 else x
    if t is str:
        if "e" in x or "E" in x:
            raise InputError(f"bad rational literal {x!r}: exponents are not allowed")
        try:
            return _scalar(Fraction(x))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {x!r}: {exc}") from None
    raise InputError(f"bad scalar {x!r}: expected an int, a Fraction or a string")


def scalar_to_str(x: Scalar) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def scalar_from_str(s: str | int) -> Scalar:
    """Parse a ``"p/q"`` (or decimal) string or an integer exactly.

    Floats and booleans are rejected, since a float is already inexact, and
    so are exponent literals such as ``"1e999999"``, whose size is not
    bounded by their length.
    """
    if type(s) not in (str, int):
        raise InputError(f"bad rational literal {s!r}: expected a string or an integer")
    return _scalar(s)


def add_entry(acc: dict, k, v: Scalar) -> None:
    """``acc[k] += v`` for one admitted nonzero scalar ``v``, deleting the key
    when the sum cancels.  A repeated entry's sum passes through
    :func:`_scalar` again, so ``1/2 + 1/2`` is stored as the int 1."""
    if k in acc:
        v = _scalar(acc[k] + v)
        if not v:
            del acc[k]
            return
    acc[k] = v


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
        e: dict[int, Scalar] = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for k, v in items:
                if not 0 <= k < dim:
                    raise InputError(f"index {k} out of range for dimension {dim}")
                v = _scalar(v)
                if v:
                    add_entry(e, k, v)
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
    def basis(cls, dim: int, k: int) -> "Vec":
        if not 0 <= k < dim:
            raise InputError(f"index {k} out of range for dimension {dim}")
        return cls.adopt(dim, {k: ONE})

    def get(self, i: int) -> Scalar:
        return self._e.get(i, ZERO)

    def items(self) -> list[tuple[int, Scalar]]:
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
        c = _scalar(c)
        if not c:
            return Vec(self.dim)
        return Vec(self.dim, {k: c * v for k, v in self._e.items()})

    def __add__(self, other: "Vec") -> "Vec":
        if self.dim != other.dim:
            raise InputError("vector dimension mismatch in addition")
        return Vec.adopt(self.dim, addto(dict(self._e), ONE, other._e.items()))

    def __sub__(self, other: "Vec") -> "Vec":
        return self + other.scale(-1)

    def dot(self, other: "Vec") -> Scalar:
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
        cols: dict[int, dict[int, Scalar]] = {}
        if entries:
            for r, c, v in entries:
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise InputError(f"entry ({r}, {c}) out of range for {nrows}x{ncols}")
                v = _scalar(v)
                if not v:
                    continue
                col = cols.setdefault(c, {})
                add_entry(col, r, v)
                if not col:
                    del cols[c]
        self._c = cols

    @classmethod
    def adopt(cls, nrows: int, ncols: int, cols: dict) -> "Mat":
        """Wrap a dict of nonempty columns of nonzero in-range entries, such
        as one the JSON decoder built, without checking or copying it."""
        m = cls(nrows, ncols)
        m._c = cols
        return m

    def col(self, j: int) -> Vec:
        if not 0 <= j < self.ncols:
            raise InputError(f"column {j} out of range")
        return Vec.adopt(self.nrows, dict(self._c.get(j, {})))

    def col_terms(self, j: int):
        """Entries of column j in storage order, for sums."""
        return self._c.get(j, {}).items()

    def items(self) -> list[tuple[int, int, Scalar]]:
        """Entries as (row, col, value), sorted by (row, col)."""
        out = [(r, c, v) for c, col in self._c.items() for r, v in col.items()]
        out.sort(key=lambda t: (t[0], t[1]))
        return out

    def rows_items(self) -> dict[int, dict[int, Scalar]]:
        rows: dict[int, dict[int, Scalar]] = {}
        for c, col in self._c.items():
            for r, v in col.items():
                rows.setdefault(r, {})[c] = v
        return rows

    def matvec(self, v: Vec) -> Vec:
        if v.dim != self.ncols:
            raise InputError("matvec dimension mismatch")
        acc: dict[int, Scalar] = {}
        for j, coeff in v._e.items():
            addto(acc, coeff, self.col_terms(j))
        return Vec.adopt(self.nrows, acc)

    def scale(self, c) -> "Mat":
        c = _scalar(c)
        m = Mat(self.nrows, self.ncols)
        if c:
            m._c = {
                j: {r: _scalar(c * v) for r, v in col.items()} for j, col in self._c.items()
            }
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

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols}, {len(self.items())} entries)"


class LinearSystem:
    """Incremental exact row reduction (reduced row-echelon form).

    Equations are added one at a time and kept fully reduced with leftmost
    pivot selection, so solutions and kernel bases are deterministic and
    depend only on the row space.  A new pivot p is eliminated only from the
    rows that hold column p, found through an index from each free column
    to the pivots whose rows may hold it; the reduced echelon form is
    unique, so the rows are those of a pass over every stored row.

    :meth:`add` costs what its row needs.  An ``int`` entry is admitted
    as it is, any other through :func:`_scalar`, and the stored pivots the
    row meets are collected in the same pass; only a row that meets one is
    sorted and eliminated.  The row is divided by its pivot and every value
    passed through :func:`_scalar` again, except when the pivot is 1 and the
    row met no pivot (its values and rhs are as admitted) or holds only
    ``int`` values and rhs: elimination can leave an integral ``Fraction``
    that this pass turns back into an ``int``.  So the stored rows, their
    order and their scalar types do not depend on which rows skip the pass.
    ``add`` returns whether the system is still consistent; once a row has
    contradicted the others it stays inconsistent, so a caller that only
    needs to know whether a solution exists can stop at the first False.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        # pivot column -> (row dict with row[pivot] == 1, rhs)
        self._rows: dict[int, tuple[dict[int, Scalar], Scalar]] = {}
        # free column -> pivots, among them every pivot whose row holds it
        self._users: dict[int, set[int]] = {}
        self._inconsistent = False

    def add(self, coeffs: dict[int, Scalar], rhs=ZERO) -> bool:
        """Add the equation ``sum coeffs[c] x_c = rhs``; return whether the
        system is still consistent."""
        pivots, ncols = self._rows, self.ncols
        row, hits = {}, []
        for c, v in coeffs.items():
            if type(v) is not int:
                v = _scalar(v)
            if v:
                if not 0 <= c < ncols:
                    raise InputError(f"column {c} out of range")
                row[c] = v
                if c in pivots:
                    hits.append(c)
        if type(rhs) is not int:
            rhs = _scalar(rhs)
        # Stored rows contain their pivot plus free columns only, so one pass
        # over the incoming row's pivot columns reduces it completely, and
        # eliminating one pivot leaves the row's nonzero entry at every other.
        if hits:
            hits.sort()
            for p in hits:
                f = row[p]
                prow, prhs = pivots[p]
                addto(row, -f, prow.items())
                rhs -= f * prhs
        if not row:
            if rhs:
                self._inconsistent = True
            return not self._inconsistent
        p = min(row)
        f = row[p]
        # A row that met no pivot holds admitted scalars, and so does an
        # all-int one; with pivot 1 it is already normalized.
        if f != 1 or hits and (
            type(rhs) is not int or any(type(v) is not int for v in row.values())
        ):
            # The one division: exact through Fraction, skipped for a unit pivot.
            inv = f if f == 1 or f == -1 else 1 / Fraction(f)
            row = {c: _scalar(v * inv) for c, v in row.items()}
            rhs = _scalar(rhs * inv)
        users = self._users
        touched = [p]
        for q in users.pop(p, ()):
            qrow, qrhs = pivots[q]
            g = qrow.get(p)
            if g is not None:  # None: column p cancelled out of row q earlier
                pivots[q] = (addto(dict(qrow), -g, row.items()), qrhs - g * rhs)
                touched.append(q)
        # row p and every changed row now hold at most the columns of row p
        for c in row:
            if c != p:
                users.setdefault(c, set()).update(touched)
        pivots[p] = (row, rhs)
        return not self._inconsistent

    def add_matrix(self, a: Mat, b: Vec | None = None) -> None:
        if b is not None and b.dim != a.nrows:
            raise InputError("right-hand side dimension mismatch")
        rows = a.rows_items()
        for r in range(a.nrows):
            coeffs = rows.get(r, {})
            rhs = b.get(r) if b is not None else ZERO
            if coeffs or rhs:
                self.add(coeffs, rhs)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def free_columns(self) -> list[int]:
        pivots = self._rows
        return [c for c in range(self.ncols) if c not in pivots]

    def solution(self) -> Vec | None:
        """Free-variables-zero assignment from the pivot rows; None when
        the system is inconsistent."""
        if self._inconsistent:
            return None
        return Vec(self.ncols, {p: rhs for p, (_, rhs) in self._rows.items()})

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


def inverse(a: Mat) -> Mat | None:
    """Exact inverse, or None when singular.

    Reduces ``[A | I]`` over ``2n`` columns.  A is invertible iff every pivot
    lies in the A block; the I block of pivot row p is then row p of A^-1.
    """
    n = _square_size(a)
    sys_ = LinearSystem(2 * n)
    rows = a.rows_items()
    for r in range(n):
        coeffs = dict(rows.get(r, {}))
        coeffs[n + r] = ONE
        sys_.add(coeffs)
    if any(p >= n for p in sys_._rows):
        return None
    return Mat(n, n, [
        (p, c - n, v) for p, (row, _) in sys_._rows.items() for c, v in row.items() if c != p
    ])


def rank_raising(dim: int, vectors: Iterable) -> tuple[list[int], list[int]]:
    """Indices of the vectors (dicts or Vecs) that raise the rank of those
    before them, and the ascending pivot columns of their elimination; zero
    vectors and repeats never reach LinearSystem.add.  The pivots are the
    columns of the matrix with these rows that raise its column rank in
    order: row operations keep every linear relation among the columns, and
    in the reduced echelon form with leftmost pivots a column lies outside
    the span of the columns before it exactly when it holds a pivot."""
    sys_, seen, out = LinearSystem(dim), set(), []
    for j, v in enumerate(vectors):
        key = frozenset(v.items())
        if key and key not in seen:
            seen.add(key)
            rank = sys_.rank
            sys_.add(v)
            if sys_.rank > rank:
                out.append(j)
    return out, sorted(sys_._rows)


def is_invertible(a: Mat) -> bool:
    """Exact invertibility check: full rank, without building the inverse.
    A matrix whose columns each hold one entry, in n distinct rows, is a
    permuted diagonal with nonzero diagonal (no zero is stored), so it is
    invertible with no elimination: n distinct rows from one-entry columns
    need n such columns, and there are at most n columns."""
    n = _square_size(a)
    if len({r for col in a._c.values() if len(col) == 1 for r in col}) == n:
        return True
    sys_ = LinearSystem(n)
    sys_.add_matrix(a)
    return sys_.rank == n


def _square_size(a: Mat) -> int:
    if a.nrows != a.ncols:
        raise InputError("inverse requires a square matrix")
    return a.nrows
