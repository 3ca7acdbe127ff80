"""AlgebraData copies ``mult`` whole and re-admits term by term only the
products that are not already one term with a nonzero ``int`` coefficient:
those are overwritten in place, or deleted when they cancel to empty.

The reference below is the earlier constructor loop, copied verbatim in
substance, which built its dict one entry at a time.  On drawn tables that
mix admitted one-term tuples, lists, ``Fraction`` and ``str`` scalars,
repeated indices, products that cancel to empty (first, in the middle,
last) and out-of-range keys, both must give the same ``mult`` (contents,
scalar types and order), ``monomial_table``, ``by_right`` and ``by_left``,
or else raise the same InputError with the same message.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobkit.errors import InputError
from frobkit.exactlin import ONE, Vec, _scalar
from frobkit.finalg import AlgebraData

# ---- the entry-by-entry constructor, copied verbatim ---------------------


def entrywise_fields(dim: int, mult: dict) -> tuple:
    clean: dict = {}
    table: dict | None = {}
    by_right, by_left = [[] for _ in range(dim)], [[] for _ in range(dim)]
    for key, terms in mult.items():
        i, j = key
        if not (0 <= i < dim and 0 <= j < dim):
            raise InputError(f"structure constant index ({i}, {j}) out of range")
        k, c = terms[0] if type(terms) is tuple and len(terms) == 1 else (-1, None)
        if type(c) is not int or not c or not 0 <= k < dim:
            kept: dict = {}
            for k, c in terms:
                if not 0 <= k < dim:
                    raise InputError(f"index {k} out of range for dimension {dim}")
                if k in kept:
                    raise InputError(f"product ({i}, {j}) lists index {k} more than once")
                kept[k] = _scalar(c)
            terms = tuple((k, c) for k, c in kept.items() if c)
            if not terms:
                continue
            k, c = terms[0] if len(terms) == 1 else (-1, None)
        clean[key] = terms
        by_right[j].append(i)
        by_left[i].append(j)
        if table is not None and c == ONE:
            table.setdefault(i, {})[j] = k
        else:
            table = None
    return clean, table, by_right, by_left


def typed(mult: dict) -> list:
    return [(key, type(terms), [(k, type(c), c) for k, c in terms]) for key, terms in mult.items()]


def outcome(build):
    try:
        clean, table, by_right, by_left = build()
    except InputError as exc:
        return ("InputError", str(exc))
    return typed(clean), table, by_right, by_left


def assert_admits_alike(dim: int, mult: dict) -> None:
    def new():
        a = AlgebraData(dim, [f"e{k}" for k in range(dim)], mult, Vec.adopt(dim, {}))
        assert type(a.mult) is dict
        return a.mult, a.monomial_table, a.by_right, a.by_left

    before = typed(mult)
    assert outcome(new) == outcome(lambda: entrywise_fields(dim, mult))
    assert typed(mult) == before  # the caller's table is never changed


# ---- drawn tables ---------------------------------------------------------

ZERO_SCALARS = (0, Fraction(0), "0", "0/3", "-0")
SCALARS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.sampled_from(("1", "-1", "1/2", "-3/4", "2", "0", "0/3", "1.5")),
)


@st.composite
def products(draw, dim: int):
    """One product value: mostly valid, sometimes with an out-of-range or
    repeated index or a malformed string scalar."""
    k = st.integers(0, dim - 1)
    kinds = ("one", "one_int", "tuple", "list", "cancel", "repeat", "bad_k", "bad_str")
    kind = draw(st.sampled_from(kinds))
    if kind == "one":
        return ((draw(k), ONE),)
    if kind == "one_int":
        return ((draw(k), draw(st.integers(-3, 3))),)
    if kind in ("tuple", "list"):
        ks = draw(st.lists(k, min_size=0, max_size=dim, unique=True))
        terms = [(x, draw(SCALARS)) for x in ks]
        return tuple(terms) if kind == "tuple" else terms
    if kind == "cancel":
        return draw(cancelling(dim))
    if kind == "repeat":
        x = draw(k)
        return [(x, draw(SCALARS)), (x, draw(SCALARS))]
    if kind == "bad_k":
        return ((draw(st.sampled_from((-1, dim, dim + 2))), ONE),)
    return [(draw(k), draw(st.sampled_from(("x", "1/0", "1e3"))))]


@st.composite
def cancelling(draw, dim: int):
    """A product whose every term is zero, as a tuple or a list."""
    ks = draw(st.lists(st.integers(0, dim - 1), min_size=0, max_size=dim, unique=True))
    terms = [(x, draw(st.sampled_from(ZERO_SCALARS))) for x in ks]
    return tuple(terms) if draw(st.booleans()) else terms


@st.composite
def tables(draw):
    dim = draw(st.integers(1, 4))
    index = st.integers(-1, dim) if draw(st.booleans()) else st.integers(0, dim - 1)
    keys = draw(st.lists(st.tuples(index, index), max_size=12, unique=True))
    entries = [(key, draw(products(dim))) for key in keys]
    # one product that cancels to empty, first, in the middle or last
    free = [(i, j) for i in range(dim) for j in range(dim) if (i, j) not in keys]
    if free:
        at = draw(st.sampled_from((0, len(entries) // 2, len(entries))))
        entries.insert(at, (draw(st.sampled_from(free)), draw(cancelling(dim))))
    return dim, dict(entries)


@settings(max_examples=400, deadline=None)
@given(tables())
def test_bulk_copy_admits_like_the_entrywise_loop(table):
    assert_admits_alike(*table)


@st.composite
def admissible_tables(draw):
    """In-range keys and valid scalars only, so the constructor always
    returns; a third of the tables are all ``((k, 1),)``."""
    dim = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(dim) for j in range(dim)]
    keys = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True))
    k = st.integers(0, dim - 1)
    monomial = draw(st.integers(0, 2)) == 0
    values = st.one_of(
        k.map(lambda x: ((x, ONE),)),
        st.tuples(k, st.integers(-2, 2)).map(lambda t: (t,)),
        st.lists(st.tuples(k, SCALARS), max_size=dim, unique_by=lambda t: t[0]),
        cancelling(dim),
    )
    entries = {key: draw(k.map(lambda x: ((x, ONE),)) if monomial else values) for key in keys}
    return dim, entries


@settings(max_examples=300, deadline=None)
@given(admissible_tables())
def test_bulk_copy_keeps_contents_and_order(table):
    dim, mult = table
    a = AlgebraData(dim, [f"e{k}" for k in range(dim)], mult, Vec.adopt(dim, {}))
    clean, table_ref, by_right, by_left = entrywise_fields(dim, mult)
    assert typed(a.mult) == typed(clean)
    assert (a.monomial_table, a.by_right, a.by_left) == (table_ref, by_right, by_left)


@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_cancelled_product_is_deleted_in_place(at):
    """An empty product leaves no key behind, and the others keep their order."""
    kept = {(0, 0): ((0, ONE),), (0, 1): [(1, "1")], (1, 0): ((1, Fraction(2, 2)),), (1, 1): ((0, 3),)}
    empty = ((1, 0), (0, Fraction(0)))
    items = list(kept.items())
    items.insert({"first": 0, "middle": 2, "last": 4}[at], ((2, 2), empty))
    mult = dict(items)
    a = AlgebraData(3, ["a", "b", "c"], mult, Vec.adopt(3, {}))
    assert list(a.mult) == list(kept)
    assert list(a.mult.values()) == [((0, 1),), ((1, 1),), ((1, 1),), ((0, 3),)]
    assert a.by_right == [[0, 1], [0, 1], []] and a.by_left == [[0, 1], [0, 1], []]
    assert a.monomial_table is None
    assert_admits_alike(3, mult)
