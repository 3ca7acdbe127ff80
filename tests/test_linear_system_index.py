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

from frobkit.exactlin import ONE, ZERO, LinearSystem, Scalar, Vec, _scalar, addto
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


# --------------------------------------------- the lean add against the old one


class UniformAdd:
    """LinearSystem before add skipped work per row (every row admitted
    through _scalar, sorted, divided by its pivot and re-admitted), verbatim
    but for the name."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        # pivot column -> (row dict with row[pivot] == 1, rhs)
        self._rows: dict[int, tuple[dict[int, Scalar], Scalar]] = {}
        # free column -> pivots, among them every pivot whose row holds it
        self._users: dict[int, set[int]] = {}
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
            if rhs:
                self._inconsistent = True
            return
        p = min(row)
        f = row[p]
        # The one division: exact through Fraction, skipped for a unit pivot.
        inv = f if f == 1 or f == -1 else 1 / Fraction(f)
        row = {c: _scalar(v * inv) for c, v in row.items()}
        rhs = _scalar(rhs * inv)
        users = self._users
        touched = [p]
        for q in users.pop(p, ()):
            qrow, qrhs = self._rows[q]
            g = qrow.get(p)
            if g is not None:  # None: column p cancelled out of row q earlier
                self._rows[q] = (addto(dict(qrow), -g, row.items()), qrhs - g * rhs)
                touched.append(q)
        # row p and every changed row now hold at most the columns of row p
        for c in row:
            if c != p:
                users.setdefault(c, set()).update(touched)
        self._rows[p] = (row, rhs)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def free_columns(self) -> list[int]:
        pivots = self._rows
        return [c for c in range(self.ncols) if c not in pivots]

    def solution(self) -> Vec | None:
        if self._inconsistent:
            return None
        return Vec(self.ncols, {p: rhs for p, (_, rhs) in self._rows.items()})

    def kernel(self) -> list[Vec]:
        out = []
        for f in self.free_columns():
            e = {f: ONE}
            for p, (row, _) in self._rows.items():
                v = row.get(f)
                if v:
                    e[p] = -v
            out.append(Vec(self.ncols, e))
        return out


def typed(entries) -> list:
    return [(k, type(v), v) for k, v in entries]


def typed_rows(rows: dict) -> list:
    """The stored rows in insertion order, with the type of every scalar."""
    return [(p, typed(row.items()), type(rhs), rhs) for p, (row, rhs) in rows.items()]


def run_lean(ncols: int, rows) -> LinearSystem:
    sys_, ref = LinearSystem(ncols), UniformAdd(ncols)
    for coeffs, rhs in rows:
        ok = sys_.add(coeffs, rhs)
        ref.add(coeffs, rhs)
        assert ok is (not ref._inconsistent)
        assert typed_rows(sys_._rows) == typed_rows(ref._rows)
        assert sys_._users == ref._users
        held = index_of(sys_._rows)
        assert all(held[c] <= sys_._users.get(c, set()) for c in held)
        assert sys_.rank == ref.rank
        sol, expected = sys_.solution(), ref.solution()
        assert (sol is None) == (expected is None)
        if sol is not None:
            assert typed(sol.terms()) == typed(expected.terms())
        assert [typed(v.terms()) for v in sys_.kernel()] == [
            typed(v.terms()) for v in ref.kernel()
        ]
    return sys_


INTS = st.integers(-3, 3)
FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
UNITS = st.sampled_from([1, -1, Fraction(1), Fraction(-1), Fraction(3, 3)])
SCALAR_KINDS = {"int": INTS, "fraction": FRACTIONS, "mixed": st.one_of(INTS, FRACTIONS, UNITS)}


@st.composite
def lean_system(draw):
    """Rows of one scalar kind: fresh rows, and repeats or combinations of
    earlier rows, scaled (pivots of +-1 and others) and with the rhs kept or
    shifted (consistent or contradictory).  Sums of Fractions can cancel to
    an integral Fraction, in the input and during elimination."""
    scalar = SCALAR_KINDS[draw(st.sampled_from(sorted(SCALAR_KINDS)))]
    ncols = draw(st.integers(1, 10))
    fresh = st.tuples(st.dictionaries(st.integers(0, ncols - 1), scalar, max_size=4), scalar)
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        how = draw(st.sampled_from(["fresh", "repeat", "combine"])) if rows else "fresh"
        if how == "fresh":
            rows.append(draw(fresh))
            continue
        size = 1 if how == "repeat" else 3
        picked = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=size))
        scale = draw(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]))
        combined: dict = {}
        total = ZERO
        for coeffs, rhs in picked:
            for c, v in coeffs.items():
                combined[c] = combined.get(c, ZERO) + scale * v
            total += scale * rhs
        shift = draw(st.sampled_from([ZERO, ZERO, 1, Fraction(1, 3)]))
        rows.append((combined, total + shift))
    return ncols, rows


@settings(max_examples=300, deadline=None)
@given(lean_system())
def test_lean_add_matches_uniform_add(system):
    run_lean(*system)


@settings(max_examples=100, deadline=None)
@given(st.one_of(sparse_system(), dense_system(), inconsistent_system()))
def test_lean_add_matches_uniform_add_on_index_systems(system):
    run_lean(*system)


def test_unit_pivot_after_elimination_is_normalized():
    """Row 1 meets pivot 0 and is left as {1: Fraction(1, 1), 2: 1/2}: its
    pivot is 1, and the normalization pass stores it as the int 1.  Skipping
    the pass for every unit pivot would store the Fraction."""
    sys_ = run_lean(3, [({0: 1, 1: Fraction(1, 2)}, 0),
                        ({0: 1, 1: Fraction(3, 2), 2: Fraction(1, 2)}, 1)])
    assert typed_rows(sys_._rows)[1] == (1, [(1, int, 1), (2, Fraction, Fraction(1, 2))], int, 1)
    run_lean(2, [({0: Fraction(1, 2), 1: Fraction(1, 3)}, Fraction(1, 2)),
                 ({0: Fraction(1, 2)}, Fraction(1, 2))])


def test_back_substituted_rhs_solution_is_int():
    """Pivot 1 eliminated from row 0 leaves its rhs 1/2 + 1/2 as
    Fraction(1, 1), stored as in the old add; solution() admits it as 1."""
    sys_ = run_lean(2, [({0: 1, 1: Fraction(1, 2)}, Fraction(1, 2)), ({1: 1}, -1)])
    assert typed_rows(sys_._rows)[0] == (0, [(0, int, 1)], Fraction, 1)
    assert typed(sys_.solution().terms()) == [(0, int, 1), (1, int, -1)]


def test_add_returns_consistency():
    """False from the first contradictory row on, also for a later
    consistent row, as the system stays inconsistent."""
    sys_ = LinearSystem(2)
    assert sys_.add({0: 1, 1: 1}, 2) is True
    assert sys_.add({0: 2, 1: 2}, 4) is True
    assert sys_.add({}, 0) is True
    assert sys_.add({0: 1, 1: 1}, 3) is False
    assert sys_.add({1: 1}, 1) is False
    assert sys_.solution() is None and sys_.rank == 2


@pytest.mark.parametrize("coeffs", [{3: 1}, {0: 1, 3: Fraction(1, 2)}, {0: True}])
def test_rejected_row_changes_nothing(coeffs):
    sys_, ref = LinearSystem(3), UniformAdd(3)
    for s in (sys_, ref):
        s.add({0: 1, 1: 2}, 1)
        with pytest.raises(InputError):
            s.add(coeffs, 1)
    assert typed_rows(sys_._rows) == typed_rows(ref._rows)
    assert sys_._users == ref._users
