"""Scalar representation: integral values are stored as ``int``, all other
values as ``Fraction`` with denominator > 1, never as ``float``; unsafe
inputs are rejected; the elimination agrees with an all-Fraction reference;
and true division stays inside ``exactlin``."""

from __future__ import annotations

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import frobkit
from frobkit.errors import InputError
from frobkit.exactlin import LinearSystem, Mat, Vec, addto, scalar_from_str
from frobkit.finalg import comult_from_json, comult_to_json
from frobkit.nsy import NSYParams, nsy_build, nsy_delta
from frobkit.whopf import weak_hopf_from_json, weak_hopf_to_json

F = Fraction


def _is_canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


# ---------------------------------------------------------------- entry points


def test_integral_values_enter_as_int():
    assert type(scalar_from_str("4/2")) is int
    assert type(scalar_from_str("-3")) is int
    assert type(scalar_from_str("1/2")) is Fraction
    v = Vec(3, {0: F(4, 2), 1: "6/3", 2: F(1, 3)})
    assert [type(x) for _, x in v.items()] == [int, int, Fraction]
    assert type(Vec(1, [(0, F(1, 2)), (0, F(1, 2))]).get(0)) is int
    assert type(Vec(1, {0: F(1, 2)}).scale(4).get(0)) is int
    m = Mat(1, 2, [(0, 0, F(1, 2)), (0, 0, F(1, 2)), (0, 1, F(3, 1))])
    assert all(type(x) is int for _, _, x in m.items())
    assert all(type(x) is int for _, _, x in Mat(1, 1, [(0, 0, F(1, 3))]).scale(3).items())


@pytest.mark.parametrize("bad", [0.5, 1.0, True, None, 1j, F(1, 2) + 0.0])
def test_unsafe_scalars_are_rejected(bad):
    with pytest.raises(InputError):
        Vec(1, {0: bad})
    with pytest.raises(InputError):
        Mat(1, 1, [(0, 0, bad)])
    with pytest.raises(InputError):
        Vec(1, {0: 1}).scale(bad)
    with pytest.raises(InputError):
        Mat(1, 1, [(0, 0, 1)]).scale(bad)
    with pytest.raises(InputError):
        LinearSystem(1).add({0: bad})
    with pytest.raises(InputError):
        LinearSystem(1).add({0: 1}, bad)


def test_numpy_integers_are_rejected():
    np = pytest.importorskip("numpy")
    big = np.int64(2**62)
    # Fraction keeps a numpy numerator, and 4 * 2**62 wraps to 0 in int64:
    # this used to give the zero vector
    for bad in (big, F(big), np.int32(1)):
        with pytest.raises(InputError):
            Vec(1, {0: bad})
        with pytest.raises(InputError):
            Mat(1, 1, [(0, 0, bad)])
        with pytest.raises(InputError):
            Vec(1, {0: 1}).scale(bad)
        with pytest.raises(InputError):
            LinearSystem(1).add({0: bad})
    assert Vec(1, {0: int(big)}).scale(4).get(0) == 2**64


# ---------------------------------------------------------------- constructors


def _vec_scalars(v: Vec):
    return [x for _, x in v.terms()]


def _mat_scalars(m: Mat):
    return [x for _, _, x in m.items()]


def _algebra_scalars(a):
    out = list(_vec_scalars(a.unit))
    for terms in a.mult.values():
        out += [x for _, x in terms]
    return out


def _weak_hopf_scalars(h):
    return [
        *_algebra_scalars(h.algebra),
        *_mat_scalars(h.delta_wk),
        *_vec_scalars(h.epsilon_wk),
        *_mat_scalars(h.antipode),
    ]


def test_nsy_constructors_store_canonical_scalars():
    for p in (NSYParams(2, 2, (1, 1)), NSYParams(3, 2, (1, 1, 2)), NSYParams(4, 3, (1, 1, 2, 2))):
        algebra = nsy_build(p)
        comult = nsy_delta(p, algebra)
        for c in (comult, comult_from_json(json.loads(json.dumps(comult_to_json(comult))))):
            scalars = [*_algebra_scalars(c.algebra), *_mat_scalars(c.delta)]
            assert scalars and all(_is_canonical(x) for x in scalars)


def test_weak_hopf_constructors_store_canonical_scalars(
    groupoid_algebras, hopf_group_algebras, qtg_built
):
    zoo = {**groupoid_algebras, **hopf_group_algebras, **qtg_built}
    fractional = 0
    for name, h in zoo.items():
        round_trip = weak_hopf_from_json(json.loads(json.dumps(weak_hopf_to_json(h))))
        for data in (h, round_trip):
            scalars = _weak_hopf_scalars(data)
            assert all(_is_canonical(x) for x in scalars), name
            fractional += sum(type(x) is Fraction for x in scalars)
    # the separable matrix algebra contributes 1/2 to the k (x) M_2 QTG
    assert fractional > 0


def _repeated(first: str, second: str) -> dict:
    """A dim-2 payload in which each field lists one place twice."""
    return {
        "dim": 2,
        "labels": ["a", "b"],
        "mult": [[0, 1, 1, first], [0, 1, 1, second]],
        "unit": [[1, first], [1, second]],
        "delta": [[1, 3, first], [1, 3, second]],
        "delta_wk": [[1, 3, first], [1, 3, second]],
        "epsilon_wk": [[1, first], [1, second]],
        "antipode": [[1, 0, first], [1, 0, second]],
    }


def test_repeated_json_entries_sum_to_canonical_scalars():
    c = comult_from_json(_repeated("1/2", "1/2"))
    h = weak_hopf_from_json(_repeated("1/2", "1/2"))
    for x in (
        dict(c.algebra.mult[(0, 1)])[1],
        c.algebra.unit.get(1),
        c.delta.col(1).get(3),
        h.delta_wk.col(1).get(3),
        h.epsilon_wk.get(1),
        h.antipode.col(1).get(0),
    ):
        assert x == 1 and type(x) is int
    # a sum that cancels leaves no entry, no empty column and no product
    c = comult_from_json(_repeated("1", "-1"))
    h = weak_hopf_from_json(_repeated("1", "-1"))
    assert c.algebra.mult == {} and c.algebra.unit.is_zero() and c.delta.is_zero()
    assert h.delta_wk.is_zero() and h.epsilon_wk.is_zero() and h.antipode.is_zero()


# ---------------------------------------------------------------- elimination


class ReferenceSystem:
    """The all-Fraction elimination that LinearSystem.add used before
    integral scalars were kept as int, kept as an independent reference."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, tuple[dict[int, Fraction], Fraction]] = {}
        self.inconsistent = False

    def add(self, coeffs, rhs=0):
        row = {c: F(v) for c, v in coeffs.items() if v}
        rhs = F(rhs)
        for p in sorted(c for c in row if c in self.rows):
            f = row.get(p)
            if not f:
                continue
            prow, prhs = self.rows[p]
            addto(row, -f, prow.items())
            rhs -= f * prhs
        if not row:
            if rhs:
                self.inconsistent = True
            return
        p = min(row)
        f = row[p]
        row = {c: v / f for c, v in row.items()}
        rhs = rhs / f
        for q, (qrow, qrhs) in list(self.rows.items()):
            g = qrow.get(p)
            if g is None:
                continue
            self.rows[q] = (addto(dict(qrow), -g, row.items()), qrhs - g * rhs)
        self.rows[p] = (row, rhs)

    def solution(self):
        if self.inconsistent:
            return None
        return {p: rhs for p, (_, rhs) in self.rows.items()}

    def kernel(self):
        out = []
        for f in range(self.ncols):
            if f in self.rows:
                continue
            e = {f: F(1)}
            for p, (row, _) in self.rows.items():
                if row.get(f):
                    e[p] = -row[f]
            out.append(e)
        return out


_ints = st.integers(-4, 4)
_fracs = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
_KINDS = {
    "int": _ints,
    "mixed": st.one_of(_ints, _fracs),
    "fraction": _fracs.map(lambda x: x if x.denominator > 1 else F(2 * x.numerator + 1, 2)),
}


@st.composite
def system(draw, kind):
    scalar = _KINDS[kind]
    ncols = draw(st.integers(1, 6))
    rows = draw(
        st.lists(
            st.tuples(st.dictionaries(st.integers(0, ncols - 1), scalar, max_size=ncols), scalar),
            max_size=8,
        )
    )
    return ncols, rows


@pytest.mark.parametrize("kind", sorted(_KINDS))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_linear_system_matches_all_fraction_reference(kind, data):
    ncols, rows = data.draw(system(kind))
    sys_, ref = LinearSystem(ncols), ReferenceSystem(ncols)
    for coeffs, rhs in rows:
        sys_.add(coeffs, rhs)
        ref.add(coeffs, rhs)
    assert (sys_.solution() is not None) == (not ref.inconsistent)
    assert sys_.rank == len(ref.rows)
    sol = sys_.solution()
    expected = ref.solution()
    assert (sol is None) == (expected is None)
    if sol is not None:
        assert sol == Vec(ncols, expected)
        assert all(_is_canonical(x) for x in _vec_scalars(sol))
    kernel = sys_.kernel()
    assert kernel == [Vec(ncols, e) for e in ref.kernel()]
    assert all(_is_canonical(x) for v in kernel for x in _vec_scalars(v))


# ---------------------------------------------------------------- tooling


def test_true_division_only_in_exactlin():
    """int / int gives a float, so the only / in the package is the pivot
    division of LinearSystem.add, which goes through Fraction."""
    root = Path(frobkit.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "exactlin.py" and path.parent == root:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []


def test_random_only_in_integral_search():
    """A seeded draw is allowed only where an exact solve certifies the
    answer: the non-degenerate-integral search of whopf/core.py, whose every
    result satisfies Psi_L(lam) = 1."""
    root = Path(frobkit.__file__).parent
    importers = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "random" for m in modules):
                importers.append(path.relative_to(root).as_posix())
    assert importers == ["whopf/core.py"]
