"""Exact linear algebra kernel tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobkit.errors import InputError
from frobkit.exactlin import (
    LinearSystem,
    Mat,
    Vec,
    addto,
    inverse,
    is_invertible,
    rank_raising,
    scalar_from_str,
    scalar_to_str,
)
from frobkit.whopf import DEFAULT_INTEGRAL_SEED, find_nondegenerate_integral, integral_space, psi_map
from frobkit.whopf.core import _psi_solve
from nsy_oracle import cells, mat_identity, mat_product

F = Fraction


def identity(n: int) -> Mat:
    return Mat(n, n, [(k, k, 1) for k in range(n)])


def test_scalar_round_trip():
    assert scalar_to_str(F(3, 4)) == "3/4"
    assert scalar_to_str(F(-5)) == "-5"
    assert scalar_from_str("3/4") == F(3, 4)
    assert scalar_from_str("-5") == F(-5)
    with pytest.raises(InputError):
        scalar_from_str("1/0")
    with pytest.raises(InputError):
        scalar_from_str("nope")


def test_vec_basics():
    v = Vec(3, {0: F(1), 2: F(-2)})
    w = Vec(3, {0: F(-1), 1: F(5)})
    assert (v + w).items() == [(1, F(5)), (2, F(-2))]
    assert (v - v).is_zero()
    assert v.scale(F(1, 2)).get(2) == F(-1)
    assert v.dot(w) == F(-1)
    assert v.tensor(w).items() == [
        (0 * 3 + 0, F(-1)),
        (0 * 3 + 1, F(5)),
        (2 * 3 + 0, F(2)),
        (2 * 3 + 1, F(-10)),
    ]
    with pytest.raises(InputError):
        Vec(2, {2: F(1)})


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: Vec.basis(3, 3), "index 3 out of range for dimension 3", id="basis"),
        pytest.param(lambda: Vec(2) + Vec(3), "vector dimension mismatch in addition", id="add"),
        pytest.param(
            lambda: Vec(2).dot(Vec(3)), "vector dimension mismatch in dot product", id="dot"
        ),
        pytest.param(lambda: Mat(-1, 2), "matrix dimensions must be >= 0", id="negative_rows"),
        pytest.param(lambda: Mat(2, 2).col(2), "column 2 out of range", id="col"),
        pytest.param(lambda: Mat(2, 2).matvec(Vec(3)), "matvec dimension mismatch", id="matvec"),
    ],
)
def test_shape_errors_are_pinned(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert (exc.type, str(exc.value)) == (InputError, message)


def test_solve_identity():
    b = Vec(3, {0: F(2), 2: F(-7, 3)})
    sys_ = LinearSystem(3)
    sys_.add_matrix(identity(3), b)
    assert sys_.solution() == b


def test_solve_free_variable_convention():
    # one equation x0 + x1 = 1: free variable x1 is zeroed
    sys_ = LinearSystem(2)
    sys_.add_matrix(Mat(1, 2, [(0, 0, F(1)), (0, 1, F(1))]), Vec(1, {0: F(1)}))
    assert sys_.solution() == Vec(2, {0: F(1)})


def test_solve_inconsistent():
    sys_ = LinearSystem(1)
    sys_.add_matrix(Mat(2, 1, [(0, 0, F(1)), (1, 0, F(1))]), Vec(2, {0: F(1), 1: F(2)}))
    assert sys_.solution() is None


def test_solve_dimension_mismatch():
    with pytest.raises(InputError):
        LinearSystem(2).add_matrix(identity(2), Vec(3))


def test_kernel_zero_and_identity():
    sys_ = LinearSystem(2)
    sys_.add_matrix(Mat(2, 2))
    assert sys_.kernel() == [Vec.basis(2, 0), Vec.basis(2, 1)]
    sys_ = LinearSystem(4)
    sys_.add_matrix(identity(4))
    assert sys_.kernel() == []


def test_kernel_group_algebra_integral_condition():
    # k(Z/2) with basis (1, g): left-integral condition for h = g reads
    # g * L = eps_t(g) * L = L, i.e. (L1 - L0, L0 - L1) = 0
    sys_ = LinearSystem(2)
    sys_.add_matrix(Mat(2, 2, [(0, 0, F(-1)), (0, 1, F(1)), (1, 0, F(1)), (1, 1, F(-1))]))
    assert sys_.kernel() == [Vec(2, {0: F(1), 1: F(1)})]


def test_inverse_and_invertibility():
    a = Mat(2, 2, [(0, 0, F(1)), (0, 1, F(1)), (1, 1, F(1))])
    inv = inverse(a)
    assert inv is not None
    assert mat_product(cells(inv), cells(a)) == mat_identity(2)
    assert mat_product(cells(a), cells(inv)) == mat_identity(2)
    singular = Mat(2, 2, [(0, 0, F(1)), (0, 1, F(1)), (1, 0, F(1)), (1, 1, F(1))])
    assert not is_invertible(singular)
    assert is_invertible(identity(5))
    with pytest.raises(InputError):
        inverse(Mat(2, 3))


small_fraction = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def matrix_and_vector(draw):
    nrows = draw(st.integers(min_value=1, max_value=5))
    ncols = draw(st.integers(min_value=1, max_value=5))
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, nrows - 1),
                st.integers(0, ncols - 1),
                small_fraction,
            ),
            max_size=12,
        )
    )
    x = draw(
        st.lists(st.tuples(st.integers(0, ncols - 1), small_fraction), max_size=5)
    )
    return Mat(nrows, ncols, entries), Vec(ncols, x)


@given(matrix_and_vector())
@settings(max_examples=60, deadline=None)
def test_solve_then_remultiply(mv):
    a, x = mv
    b = a.matvec(x)
    sys_ = LinearSystem(a.ncols)
    sys_.add_matrix(a, b)
    sol = sys_.solution()
    assert sol is not None
    assert a.matvec(sol) == b


@given(matrix_and_vector())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilated_and_independent(mv):
    a, _ = mv
    sys_ = LinearSystem(a.ncols)
    sys_.add_matrix(a)
    basis = sys_.kernel()
    for v in basis:
        assert a.matvec(v).is_zero()
    sys_ = LinearSystem(a.ncols)
    for v in basis:
        sys_.add(dict(v.items()))
    assert sys_.rank == len(basis)


@st.composite
def square_matrix(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    entries = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), small_fraction),
            max_size=10,
        )
    )
    return Mat(n, n, entries)


@given(square_matrix())
@settings(max_examples=60, deadline=None)
def test_inverse_round_trip(a):
    inv = inverse(a)
    if inv is None:
        sys_ = LinearSystem(a.ncols)
        sys_.add_matrix(a)
        assert sys_.kernel() != []
    else:
        ident = mat_identity(a.nrows)
        assert mat_product(cells(inv), cells(a)) == ident
        assert mat_product(cells(a), cells(inv)) == ident


@st.composite
def accumulate_case(draw):
    """A target vector, an entry vector, a coefficient, and an affine key map
    base + stride*k that fits the target."""
    m = draw(st.integers(min_value=1, max_value=6))
    stride = draw(st.integers(min_value=1, max_value=5))
    base = draw(st.integers(min_value=0, max_value=8))
    n = base + stride * (m - 1) + 1 + draw(st.integers(min_value=0, max_value=3))
    entries = Vec(m, draw(st.lists(st.tuples(st.integers(0, m - 1), small_fraction), max_size=6)))
    coeff = draw(small_fraction)
    acc = Vec(n, draw(st.lists(st.tuples(st.integers(0, n - 1), small_fraction), max_size=8)))
    if draw(st.booleans()):
        # subtract the image first, so that every mapped key cancels wherever
        # the original target was zero there
        mapped = Vec(n, [(base + stride * k, v) for k, v in entries.items()])
        acc = acc - mapped.scale(coeff)
    return acc, coeff, entries, base, stride


@given(accumulate_case())
@settings(max_examples=200, deadline=None)
def test_addto_matches_vec_arithmetic(case):
    acc, coeff, entries, base, stride = case
    n = acc.dim
    before = acc.items()
    got = Vec.adopt(n, addto(dict(acc.terms()), coeff, entries.terms(), base, stride))
    mapped = Vec(n, [(base + stride * k, v) for k, v in entries.items()])
    assert got == acc + mapped.scale(coeff)
    # the validating constructor sums duplicates on its own
    assert got == Vec(n, acc.items() + [(base + stride * k, coeff * v) for k, v in entries.items()])
    assert all(v != 0 for _, v in got.items())
    assert acc.items() == before


# --- differential tests: one elimination against a separate Gauss-Jordan ---


def reference_inverse(a: Mat) -> Mat | None:
    """Column-by-column Gauss-Jordan on [A | I] with its own pivot search,
    kept as an independent reference for the LinearSystem-based inverse."""
    if a.nrows != a.ncols:
        raise InputError("inverse requires a square matrix")
    n = a.nrows
    rows_view = a.rows_items()
    rows = [{k: F(v) for k, v in rows_view.get(r, {}).items()} for r in range(n)]
    aug = [{r: F(1)} for r in range(n)]
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


@st.composite
def shaped_square_matrix(draw):
    """Square rational matrices, generic or reshaped to be a permuted
    identity, a scaled permutation, rank-deficient by a repeated row, or
    with a zero row or zero column."""
    n = draw(st.integers(min_value=1, max_value=6))
    shape = draw(st.sampled_from(["generic", "permutation", "scaled", "repeat", "zero_row", "zero_col"]))
    if shape in ("permutation", "scaled"):
        perm = draw(st.permutations(range(n)))
        scale = (lambda: draw(small_fraction.filter(bool))) if shape == "scaled" else (lambda: F(1))
        return Mat(n, n, [(r, perm[r], scale()) for r in range(n)])
    entries = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), small_fraction),
            max_size=3 * n,
        )
    )
    if draw(st.booleans()):
        entries += [(k, k, F(1)) for k in range(n)]
    k = draw(st.integers(0, n - 1))
    if shape == "zero_row":
        entries = [e for e in entries if e[0] != k]
    elif shape == "zero_col":
        entries = [e for e in entries if e[1] != k]
    a = Mat(n, n, entries)
    if shape == "repeat" and n > 1:
        rows = a.rows_items()
        src = draw(st.integers(0, n - 1))
        dst = (src + 1 + draw(st.integers(0, n - 2))) % n
        c = draw(small_fraction)
        kept = [(r, col, v) for r, row in rows.items() if r != dst for col, v in row.items()]
        a = Mat(n, n, kept + [(dst, col, c * v) for col, v in rows.get(src, {}).items()])
    return a


@given(shaped_square_matrix(), st.lists(st.tuples(st.integers(0, 5), small_fraction), max_size=6))
@settings(max_examples=150, deadline=None)
def test_inverse_matches_reference_gauss_jordan(a, b_entries):
    n = a.nrows
    ref = reference_inverse(a)
    assert inverse(a) == ref
    assert is_invertible(a) == (ref is not None)
    # the Psi_L solve: a full-rank LinearSystem on (a, b) gives ref @ b
    b = Vec(n, [(k % n, v) for k, v in b_entries])
    sys_ = LinearSystem(n)
    sys_.add_matrix(a, b)
    if ref is None:
        assert sys_.rank < n
    else:
        assert sys_.rank == n
        assert sys_.solution() == ref.matvec(b)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 0), (0, 1)])
def test_inverse_rejects_non_square(shape):
    a = Mat(*shape)
    for fn in (inverse, is_invertible, reference_inverse):
        with pytest.raises(InputError):
            fn(a)


def test_rank_raising_skips_zeros_and_repeats(monkeypatch):
    rows = [{}, {1: 2}, {1: 2}, {1: F(1, 2)}, {0: 1, 1: 1}, {0: 1, 1: 1}, Vec(2, {0: 3})]
    added = []
    add = LinearSystem.add
    monkeypatch.setattr(LinearSystem, "add", lambda self, v: added.append(v) or add(self, v))
    assert rank_raising(2, rows) == ([1, 4], [0, 1])
    # the zero row and the two exact repeats never reach LinearSystem.add
    assert added == [rows[1], rows[3], rows[4], rows[6]]


@given(st.lists(st.dictionaries(st.integers(0, 3), st.integers(-2, 2).filter(bool), max_size=4),
                max_size=8))
def test_rank_raising_matches_one_row_at_a_time(rows):
    picked, pivots = rank_raising(4, rows)
    span = LinearSystem(4)
    for j, row in enumerate(rows):  # rows[j] is picked iff it raises the rank of rows[:j]
        before = span.rank
        span.add(row)
        assert (j in picked) == (span.rank > before)
    assert picked == sorted(picked)
    # column c is a pivot iff it raises the rank of the columns before it
    col_span = LinearSystem(len(rows))
    for c in range(4):
        before = col_span.rank
        col_span.add({j: row[c] for j, row in enumerate(rows) if c in row})
        assert (c in pivots) == (col_span.rank > before)
    assert pivots == sorted(pivots) and len(pivots) == len(picked)


def reference_full_rank(a: Mat) -> bool:
    sys_ = LinearSystem(a.nrows)
    sys_.add_matrix(a)
    return sys_.rank == a.nrows


nonzero_scalar = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
)


@st.composite
def one_entry_columns(draw):
    """A square matrix with one entry per column in distinct rows, the same
    with one row repeated, or with one column emptied; or, touching every
    row, two proportional columns on the same two rows, entered in opposite
    row order."""
    shape = draw(st.sampled_from(
        ["permuted_diagonal", "repeated_row", "empty_column", "proportional_columns"]
    ))
    n = draw(st.integers(1 if shape in ("permuted_diagonal", "empty_column") else 2, 6))
    rows = draw(st.permutations(range(n)))
    k = draw(st.integers(0, n - 1))
    k2 = (k + 1 + draw(st.integers(0, n - 2))) % n if n > 1 else k
    if shape == "repeated_row":
        rows[k] = rows[k2]
    entries = [(r, c, draw(nonzero_scalar)) for c, r in enumerate(rows)]
    if shape == "empty_column":
        del entries[k]
    if shape == "proportional_columns":
        x, y, t = (draw(nonzero_scalar) for _ in range(3))
        entries = [e for e in entries if e[1] not in (k, k2)] + [
            (rows[k], k, x), (rows[k2], k, y), (rows[k2], k2, t * y), (rows[k], k2, t * x)
        ]
    return shape, Mat(n, n, entries)


@given(one_entry_columns())
@settings(max_examples=150, deadline=None)
def test_is_invertible_matches_rank_on_one_entry_columns(case):
    """Only the permuted diagonal is invertible, and it is decided with no
    elimination; the singular shapes reach LinearSystem."""
    shape, a = case
    built = []
    with pytest.MonkeyPatch.context() as mp:
        init = LinearSystem.__init__
        mp.setattr(LinearSystem, "__init__", lambda self, n: built.append(n) or init(self, n))
        got = is_invertible(a)
    assert got == reference_full_rank(a) == (shape == "permuted_diagonal")
    assert built == ([] if got else [a.nrows])


def test_inverse_of_empty_matrix():
    assert inverse(Mat(0, 0)) == reference_inverse(Mat(0, 0)) == Mat(0, 0)
    assert is_invertible(Mat(0, 0))


def reference_nondegenerate_integral(h, seed):
    """The integral search with every Psi_L decided by reference_inverse:
    the basis integrals, their sum, then seeded draws in [-d, d]."""

    def candidates():
        yield from basis
        yield sum(basis[1:], basis[0])
        rng = random.Random(seed)
        while True:
            combo = Vec(h.dim)
            for b in basis:
                combo = combo + b.scale(rng.randint(-h.dim, h.dim))
            yield combo

    basis = integral_space(h, "left")
    for cand in candidates():
        psi_inv = reference_inverse(psi_map(h, cand))
        if psi_inv is not None:
            return cand, psi_inv.matvec(h.unit)


def _weak_hopf_zoo(groupoid_algebras, hopf_group_algebras, qtg_built):
    return [*groupoid_algebras.values(), *hopf_group_algebras.values(), *qtg_built.values()]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_psi_solve_matches_reference(data, groupoid_algebras, hopf_group_algebras, qtg_built):
    zoo = _weak_hopf_zoo(groupoid_algebras, hopf_group_algebras, qtg_built)
    h = data.draw(st.sampled_from(zoo))
    basis = integral_space(h, "left")
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
    cand = Vec(h.dim)
    for c, b in zip(coeffs, basis):
        cand = cand + b.scale(c)
    if data.draw(st.booleans()):
        # any vector, integral or not, has a Psi matrix
        cand = Vec(h.dim, data.draw(st.lists(st.tuples(st.integers(0, h.dim - 1), small_fraction), max_size=4)))
    ref = reference_inverse(psi_map(h, cand))
    assert _psi_solve(h, cand) == (None if ref is None else ref.matvec(h.unit))


def test_psi_solve_on_basis_vectors(groupoid_algebras, hopf_group_algebras, qtg_built):
    # on a group algebra Psi of the unit is a rank-1 projection whose image
    # holds 1: a consistent singular system, which must still give None
    for h in _weak_hopf_zoo(groupoid_algebras, hopf_group_algebras, qtg_built):
        for cand in [*integral_space(h, "left"), *(Vec.basis(h.dim, k) for k in range(h.dim))]:
            ref = reference_inverse(psi_map(h, cand))
            assert _psi_solve(h, cand) == (None if ref is None else ref.matvec(h.unit))


def test_nondegenerate_integral_matches_reference(groupoid_algebras, hopf_group_algebras, qtg_built):
    for h in _weak_hopf_zoo(groupoid_algebras, hopf_group_algebras, qtg_built):
        for seed in (DEFAULT_INTEGRAL_SEED, 5, 11):
            got = find_nondegenerate_integral(h, seed=seed)
            assert got == reference_nondegenerate_integral(h, seed)
