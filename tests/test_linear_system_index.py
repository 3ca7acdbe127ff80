"""LinearSystem.add eliminates a new pivot only from the rows that hold its
column, found through the free-column index ``_users``, against a test-local
copy of the earlier class, which visited every stored row.

The reduced echelon form is unique, so both must agree exactly: the pivot
rows (in insertion order, each row dict equal), rank, consistency, solution
and kernel.  Systems are drawn sparse, dense and inconsistent (a combination
of earlier rows with a shifted right-hand side), and one fixed system has a
later pivot cancel a column out of a stored row, which leaves a stale index
entry that the next pivot on that column must skip.  After every row the
index must cover the one read off the stored rows and list only pivots.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import pytest

from frobkit.exactlin import ONE, ZERO, LinearSystem, Scalar, _scalar, addto
from frobkit.errors import InputError


class PassOverEveryRow:
    """LinearSystem before the free-column index, verbatim but for the name."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, tuple[dict[int, Scalar], Scalar]] = {}
        self._inconsistent = False

    def add(self, coeffs: dict[int, Scalar], rhs=ZERO) -> None:
        row = {}
        for c, v in coeffs.items():
            v = _scalar(v)
            if v:
                if not 0 <= c < self.ncols:
                    raise InputError(f"column {c} out of range")
                row[c] = v
        rhs = _scalar(rhs)
        for p in sorted(c for c in row if c in self._rows):
            f = row.get(p)
            if not f:
                continue
            prow, prhs = self._rows[p]
            addto(row, -f, prow.items())
            rhs -= f * prhs
        if not row:
            if rhs:
                self._inconsistent = True
            return
        p = min(row)
        f = row[p]
        inv = f if f == 1 or f == -1 else 1 / Fraction(f)
        row = {c: _scalar(v * inv) for c, v in row.items()}
        rhs = _scalar(rhs * inv)
        for q, (qrow, qrhs) in list(self._rows.items()):
            g = qrow.get(p)
            if g is None:
                continue
            self._rows[q] = (addto(dict(qrow), -g, row.items()), qrhs - g * rhs)
        self._rows[p] = (row, rhs)

    def solution(self):
        if self._inconsistent:
            return None
        return {p: rhs for p, (_, rhs) in self._rows.items()}

    def kernel(self):
        out = []
        for f in range(self.ncols):
            if f in self._rows:
                continue
            e = {f: ONE}
            for p, (row, _) in self._rows.items():
                v = row.get(f)
                if v:
                    e[p] = -v
            out.append(e)
        return out


def index_of(rows) -> dict[int, set[int]]:
    users: dict[int, set[int]] = {}
    for p, (row, _) in rows.items():
        for c in row:
            if c != p:
                users.setdefault(c, set()).add(p)
    return users


def assert_same(sys_: LinearSystem, ref: PassOverEveryRow) -> None:
    assert list(sys_._rows.items()) == list(ref._rows.items())
    held = index_of(sys_._rows)
    assert all(held[c] <= sys_._users.get(c, set()) for c in held)
    assert all(c not in sys_._rows and qs <= sys_._rows.keys() for c, qs in sys_._users.items())
    assert sys_.rank == len(ref._rows)
    assert (sys_.solution() is not None) == (not ref._inconsistent)
    sol, expected = sys_.solution(), ref.solution()
    assert (sol is None) == (expected is None)
    if sol is not None:
        assert dict(sol.terms()) == {p: v for p, v in expected.items() if v}
    assert [dict(v.terms()) for v in sys_.kernel()] == ref.kernel()


def run_both(ncols: int, rows) -> None:
    sys_, ref = LinearSystem(ncols), PassOverEveryRow(ncols)
    for coeffs, rhs in rows:
        sys_.add(coeffs, rhs)
        ref.add(coeffs, rhs)
        assert_same(sys_, ref)


scalars = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
)


@st.composite
def sparse_system(draw):
    ncols = draw(st.integers(1, 14))
    entry = st.dictionaries(st.integers(0, ncols - 1), scalars, max_size=3)
    return ncols, draw(st.lists(st.tuples(entry, scalars), max_size=14))


@st.composite
def dense_system(draw):
    ncols = draw(st.integers(1, 6))
    entry = st.lists(scalars, min_size=ncols, max_size=ncols).map(lambda vs: dict(enumerate(vs)))
    row = st.tuples(entry, scalars)
    return ncols, draw(st.lists(row, max_size=8))


@st.composite
def inconsistent_system(draw):
    ncols, rows = draw(sparse_system())
    picked = draw(st.lists(st.sampled_from(rows), min_size=1)) if rows else [({0: 1}, 0)]
    combined: dict[int, Scalar] = {}
    total = Fraction(0)
    for coeffs, rhs in picked:
        addto(combined, ONE, ((c, _scalar(v)) for c, v in coeffs.items() if v))
        total += rhs
    shift = draw(st.integers(1, 3))
    return ncols, [*rows, *picked, (combined, total + shift)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(sparse_system(), dense_system(), inconsistent_system()))
def test_indexed_elimination_matches_pass_over_every_row(system):
    run_both(*system)


def test_later_pivot_cancels_an_index_entry():
    """Pivot 1 cancels column 2 out of row 0, so the entry of pivot 0 under
    column 2 is stale; pivot 2 then leaves row 0 as it is and is eliminated
    from row 1 only."""
    rows = [({0: 1, 1: 1, 2: 1}, 1), ({1: 1, 2: 1}, 2), ({2: 1, 3: 1}, 3)]
    sys_ = LinearSystem(4)
    for coeffs, rhs in rows[:2]:
        sys_.add(coeffs, rhs)
    assert sys_._rows[0] == ({0: 1}, -1)
    assert sys_._users[2] == {0, 1}
    sys_.add(*rows[2])
    assert sys_._rows == {0: ({0: 1}, -1), 1: ({1: 1, 3: -1}, -1), 2: ({2: 1, 3: 1}, 3)}
    run_both(4, rows)


@pytest.mark.parametrize("ncols", [1, 5])
def test_empty_and_zero_rows(ncols):
    run_both(ncols, [({}, 0), ({0: 0}, 0), ({}, 1), ({0: 2}, 1)])
