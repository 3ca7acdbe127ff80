"""Groupoid construction and validation over the composable pairs only,
against test-local verbatim copies of the code before it, which tested all
n^2 pairs of morphisms: ``GroupoidData._validate``, ``connected_groupoid``
(an ``index`` dict and a double loop over it) and ``hopf_group_algebra``
(its own one-object groupoid), with the ``groupoid_algebra`` and
``_groupoid_product`` they called.

Cases: connected groupoids on 1-4 objects with a cyclic vertex group of order
1-5, S3 or a non-associative loop, each given at most one corruption: a
compose entry dropped, added or redirected, an endpoint moved or given as a
float such as 0.0, an identity broken, ``inv`` shortened or edited, or a
compose key of the wrong shape.  Either both sides raise the same exception
type with the same message, or they give the same identities, compose table
(in insertion order), inverses and morphism names; then the groupoid
algebras built from them agree field by field.  One difference is intended:
where the reference raised TypeError on an index that is not an int, such
as the compose key (0.0, 0) that passes the domain check as the pair
(0, 0) would, GroupoidData raises ConstructionError.
"""

import dataclasses
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from frobkit.errors import ConstructionError, InputError
from frobkit.exactlin import Mat, ONE, Vec
from frobkit.finalg import AlgebraData
from frobkit.whopf import (
    GroupoidData,
    Morphism,
    WeakHopfData,
    check_weak_hopf,
    connected_groupoid,
    cyclic_group_table,
    groupoid_algebra,
    hopf_group_algebra,
)
from frobkit.whopf.groupoid import _group_of

S3_TABLE = [  # permutations of {0, 1, 2} in lexicographic order, composed
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 4, 0, 5, 1, 3],
    [3, 5, 1, 4, 0, 2],
    [4, 2, 5, 0, 3, 1],
    [5, 3, 4, 1, 2, 0],
]
# identity g0, every element its own inverse, (g1 g1) g2 = g2 but g1 (g1 g2) = g4
NON_ASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]
TABLES = [cyclic_group_table(m) for m in range(1, 6)] + [S3_TABLE, NON_ASSOCIATIVE_LOOP]
BAD_TABLES = [  # not square; no identity; entry 7 out of range
    [[0, 1], [1]],
    [[1, 1], [1, 1]],
    [[0, 1, 2], [1, 2, 0], [2, 0, 7]],
]


# --- the replaced code, kept verbatim but for the names: each copy calls the
# other copies, ReferenceGroupoid in place of GroupoidData -------------------


class ReferenceGroupoid(GroupoidData):
    def _validate(self):
        objs = set(range(len(self.objects)))
        n = len(self.morphisms)
        if not self.objects:
            raise ConstructionError("groupoid must have at least one object")
        for m in self.morphisms:
            if m.src not in objs or m.tgt not in objs:
                raise ConstructionError(
                    f"morphism {m.name} has source or target outside the object set"
                )
        composable = {
            (g, h)
            for g in range(n)
            for h in range(n)
            if self.morphisms[g].tgt == self.morphisms[h].src
        }
        if set(self.compose) != composable:
            raise ConstructionError(
                "composition table domain must be exactly the composable pairs"
            )
        for (g, h), k in self.compose.items():
            if not 0 <= k < n:
                raise ConstructionError("composition table value out of range")
            if (
                self.morphisms[k].src != self.morphisms[g].src
                or self.morphisms[k].tgt != self.morphisms[h].tgt
            ):
                raise ConstructionError(
                    f"composite of {self.morphisms[g].name} and "
                    f"{self.morphisms[h].name} has wrong endpoints"
                )
        # identities: for each object, a loop acting as a two-sided unit
        for x in objs:
            loops = [
                e
                for e in range(n)
                if self.morphisms[e].src == x and self.morphisms[e].tgt == x
            ]
            ident = None
            for e in loops:
                left_ok = all(
                    self.compose[(e, f)] == f
                    for f in range(n)
                    if self.morphisms[f].src == x
                )
                right_ok = all(
                    self.compose[(f, e)] == f
                    for f in range(n)
                    if self.morphisms[f].tgt == x
                )
                if left_ok and right_ok:
                    ident = e
                    break
            if ident is None:
                raise ConstructionError(f"object {self.objects[x]} has no identity")
            self.identities[x] = ident
        # inverses
        if len(self.inv) != n:
            raise ConstructionError("inverse map must be total")
        for g in range(n):
            gi = self.inv[g]
            if not 0 <= gi < n:
                raise ConstructionError("inverse map value out of range")
            m, mi = self.morphisms[g], self.morphisms[gi]
            if (mi.src, mi.tgt) != (m.tgt, m.src):
                raise ConstructionError(
                    f"inverse of {m.name} has wrong endpoints"
                )
            if self.compose[(g, gi)] != self.identities[m.src]:
                raise ConstructionError(
                    f"{m.name} composed with its inverse is not the identity at its source"
                )
            if self.compose[(gi, g)] != self.identities[m.tgt]:
                raise ConstructionError(
                    f"inverse composed with {m.name} is not the identity at its target"
                )


def reference_groupoid_product(g: GroupoidData, labels: list[str] | None = None) -> AlgebraData:
    n = g.num_morphisms
    if labels is None:
        labels = [m.name for m in g.morphisms]
    mult = {(a, b): ((k, 1),) for (a, b), k in g.compose.items()}
    unit = Vec(n, [(e, ONE) for e in g.identities.values()])
    return AlgebraData(n, labels, mult, unit)


def reference_groupoid_algebra(g: GroupoidData) -> WeakHopfData:
    n = g.num_morphisms
    algebra = reference_groupoid_product(g)
    delta = Mat(n * n, n, [(j * n + j, j, ONE) for j in range(n)])
    epsilon = Vec(n, [(j, ONE) for j in range(n)])
    antipode = Mat(n, n, [(g.inv[j], j, ONE) for j in range(n)])
    h = WeakHopfData(algebra, delta, epsilon, antipode)
    report = check_weak_hopf(h)
    if not report.passed:
        raise ConstructionError(
            f"groupoid algebra failed axiom {report.failures()[0].name}"
        )
    return h


def reference_hopf_group_algebra(table: list[list[int]], labels: list[str] | None = None) -> WeakHopfData:
    n = len(table)
    if labels is None:
        labels = [f"g{k}" for k in range(n)]
    if len(labels) != n:
        raise InputError(f"expected {n} labels for the group elements, got {len(labels)}")
    _, inv = _group_of(table)
    morphisms = [Morphism(name, 0, 0) for name in labels]
    compose = {(a, b): table[a][b] for a in range(n) for b in range(n)}
    return reference_groupoid_algebra(ReferenceGroupoid([0], morphisms, compose, inv))


def reference_connected_groupoid(num_objects: int, table: list[list[int]]) -> GroupoidData:
    if num_objects < 1:
        raise InputError("need at least one object")
    order = len(table)
    ident, inv_tab = _group_of(table)
    morphisms = []
    index = {}
    for src in range(num_objects):
        for tgt in range(num_objects):
            for k in range(order):
                idx = len(morphisms)
                if src == tgt and k == ident:
                    name = f"id{src}" if order == 1 else f"id{src}g{k}"
                else:
                    name = f"m{src}_{tgt}" if order == 1 else f"m{src}_{tgt}g{k}"
                morphisms.append(Morphism(name, src, tgt))
                index[(src, tgt, k)] = idx
    compose = {}
    for (s1, t1, k1), g in index.items():
        for (s2, t2, k2), h in index.items():
            if t1 != s2:
                continue
            compose[(g, h)] = index[(s1, t2, table[k1][k2])]
    inv = [0] * len(morphisms)
    for (s, t, k), g in index.items():
        inv[g] = index[(t, s, inv_tab[k])]
    return ReferenceGroupoid(list(range(num_objects)), morphisms, compose, inv)


# --- comparison -------------------------------------------------------------


def outcome(build, *args):
    """("raise", type, message) or ("ok", value) for one call."""
    try:
        return "ok", build(*args)
    except Exception as exc:  # the type and message are compared
        return "raise", type(exc), str(exc)


def groupoid_fields(g: GroupoidData) -> tuple:
    return (
        list(g.identities.items()),
        list(g.compose.items()),
        g.inv,
        [(m.name, m.src, m.tgt) for m in g.morphisms],
        g.objects,
    )


def weak_hopf_fields(h: WeakHopfData) -> tuple:
    a = h.algebra
    return (
        a.dim,
        a.labels,
        list(a.mult.items()),
        a.unit,
        h.delta_wk,
        h.epsilon_wk,
        h.antipode,
        h.denom,
    )


DOMAIN = "composition table domain must be exactly the composable pairs"


def expected_outcome(ref):
    """The reference's outcome, but the TypeError of a compose key that is
    not an int pair (the only non-int index the cases draw) becomes the
    domain ConstructionError."""
    if ref[0] == "raise" and ref[1] is TypeError:
        return "raise", ConstructionError, DOMAIN
    return ref


def assert_same(ref, new, fields):
    assert ref[0] == new[0], (ref, new)
    if ref[0] == "raise":
        assert ref[1:] == new[1:]
    else:
        assert fields(ref[1]) == fields(new[1])


# --- corruptions ------------------------------------------------------------

CORRUPTIONS = [
    "none", "drop", "add", "redirect", "move_endpoint", "float_endpoint",
    "break_identity", "shorten_inv", "edit_inv", "wrong_shape_key",
]


@st.composite
def groupoid_inputs(draw):
    """The four GroupoidData arguments of a connected groupoid, with at most
    one corruption."""
    num_objects = draw(st.integers(1, 4))
    table = draw(st.sampled_from(TABLES))
    g = reference_connected_groupoid(num_objects, table)
    objects, morphisms = list(g.objects), list(g.morphisms)
    compose, inv = dict(g.compose), list(g.inv)
    n = len(morphisms)
    keys = list(compose)
    kind = draw(st.sampled_from(CORRUPTIONS))
    index = st.integers(-1, n)  # one past each end, so out-of-range shows

    def parallel(k):  # the morphisms with the endpoints of morphism k
        ends = (morphisms[k].src, morphisms[k].tgt)
        return [f for f, m in enumerate(morphisms) if (m.src, m.tgt) == ends]

    if kind == "drop":
        del compose[draw(st.sampled_from(keys))]
    elif kind == "add":
        compose[(draw(index), draw(index))] = draw(index)
    elif kind == "redirect":
        key = draw(st.sampled_from(keys))
        compose[key] = draw(st.one_of(index, st.sampled_from(parallel(compose[key]))))
    elif kind in ("move_endpoint", "float_endpoint"):
        i = draw(st.integers(0, n - 1))
        m = morphisms[i]
        side = draw(st.sampled_from(["src", "tgt"]))
        if kind == "move_endpoint":
            value = draw(st.integers(-1, num_objects))
        else:
            value = float(draw(st.sampled_from([0, getattr(m, side)])))
        morphisms[i] = dataclasses.replace(m, **{side: value})
    elif kind == "break_identity":
        x = draw(st.integers(0, num_objects - 1))
        e = g.identities[x]
        side = draw(st.sampled_from(["left", "right"]))
        f = draw(st.sampled_from([
            f for f in range(n)
            if (morphisms[f].src if side == "left" else morphisms[f].tgt) == x
        ]))
        key = (e, f) if side == "left" else (f, e)
        compose[key] = draw(st.sampled_from(parallel(compose[key])))
    elif kind == "shorten_inv":
        del inv[draw(st.integers(0, n - 1)):]
    elif kind == "edit_inv":
        inv[draw(st.integers(0, n - 1))] = draw(index)
    elif kind == "wrong_shape_key":
        bad = draw(st.sampled_from([(0, 0, 0), ("x", "y"), (0,), 0, (0.0, 0)]))
        if draw(st.booleans()):
            del compose[draw(st.sampled_from(keys))]
        compose[bad] = 0
    return objects, morphisms, compose, inv


@settings(max_examples=400, deadline=None)
@given(groupoid_inputs())
def test_validation_matches_reference(args):
    ref = outcome(ReferenceGroupoid, *args)
    new = outcome(GroupoidData, *args)
    assert_same(expected_outcome(ref), new, groupoid_fields)
    if ref[0] == "ok":
        assert_same(
            outcome(reference_groupoid_algebra, ref[1]),
            outcome(groupoid_algebra, new[1]),
            weak_hopf_fields,
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.sampled_from(TABLES + BAD_TABLES))
def test_connected_groupoid_matches_reference(num_objects, table):
    ref = outcome(reference_connected_groupoid, num_objects, table)
    new = outcome(connected_groupoid, num_objects, table)
    assert_same(ref, new, groupoid_fields)
    if ref[0] == "ok":
        assert_same(
            outcome(reference_groupoid_algebra, ref[1]),
            outcome(groupoid_algebra, new[1]),
            weak_hopf_fields,
        )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TABLES + BAD_TABLES), st.sampled_from([None, "named", "short"]))
def test_hopf_group_algebra_matches_reference(table, label_kind):
    labels = {
        None: None,
        "named": [f"h{k}" for k in range(len(table))],
        "short": [f"h{k}" for k in range(len(table) - 1)],
    }[label_kind]
    assert_same(
        outcome(reference_hopf_group_algebra, table, labels),
        outcome(hopf_group_algebra, table, labels),
        weak_hopf_fields,
    )


def _z3_on_two_objects(edit):
    """The arguments of connected_groupoid(2, Z/3) after ``edit``: morphism
    (s, t, k) is (2 s + t) 3 + k, so 0 = id0g0, 3 = m0_1g0, 6 = m1_0g0 and
    9 = id1g0."""
    g = reference_connected_groupoid(2, cyclic_group_table(3))
    args = [list(g.objects), list(g.morphisms), dict(g.compose), list(g.inv)]
    edit(*args)
    return args


FIRST_FAILURES = [  # (edit of the arguments, the message of the first failed check)
    (lambda o, m, c, i: (o.clear(), m.clear(), c.clear(), i.clear()),
     "groupoid must have at least one object"),
    (lambda o, m, c, i: m.__setitem__(3, Morphism("m0_1g0", 0, 2)),
     "morphism m0_1g0 has source or target outside the object set"),
    (lambda o, m, c, i: c.pop((0, 0)),
     "composition table domain must be exactly the composable pairs"),
    (lambda o, m, c, i: c.__setitem__((0, 0, 0), 0),
     "composition table domain must be exactly the composable pairs"),
    (lambda o, m, c, i: c.__setitem__(("x", "y"), 0),
     "composition table domain must be exactly the composable pairs"),
    (lambda o, m, c, i: c.__setitem__((0, 0), 12), "composition table value out of range"),
    (lambda o, m, c, i: c.__setitem__((0, 0), 3),
     "composite of id0g0 and id0g0 has wrong endpoints"),
    (lambda o, m, c, i: c.__setitem__((0, 1), 2), "object 0 has no identity"),
    (lambda o, m, c, i: i.pop(), "inverse map must be total"),
    (lambda o, m, c, i: i.__setitem__(0, 12), "inverse map value out of range"),
    (lambda o, m, c, i: i.__setitem__(3, 3), "inverse of m0_1g0 has wrong endpoints"),
    (lambda o, m, c, i: i.__setitem__(1, 1),
     "m0_0g1 composed with its inverse is not the identity at its source"),
    (lambda o, m, c, i: c.__setitem__((6, 3), 10),
     "inverse composed with m0_1g0 is not the identity at its target"),
]


def test_each_check_fires_first_as_in_reference():
    """One edit per check of GroupoidData, each caught first by that check."""
    for edit, message in FIRST_FAILURES:
        args = _z3_on_two_objects(edit)
        ref = outcome(ReferenceGroupoid, *args)
        assert ref == ("raise", ConstructionError, message)
        assert outcome(GroupoidData, *args) == ref


def test_float_endpoint_builds_the_same_groupoid():
    args = _z3_on_two_objects(lambda o, m, c, i: m.__setitem__(3, Morphism("m0_1g0", 0.0, 1)))
    ref, new = ReferenceGroupoid(*args), GroupoidData(*args)
    assert groupoid_fields(new) == groupoid_fields(ref)
    ref_h, new_h = reference_groupoid_algebra(ref), groupoid_algebra(new)
    assert weak_hopf_fields(new_h) == weak_hopf_fields(ref_h)


@pytest.mark.parametrize("bad", [(0.0, 0), (True, 0)], ids=repr)
@pytest.mark.parametrize("drop", [False, True])
def test_equal_compose_keys_pass_as_in_reference(bad, drop):
    """(0.0, 0) and (True, 0) equal the pairs (0, 0) and (1, 0), so the
    domain check takes them as a set of pairs would: with (0, 0) dropped the
    float key gets past it, and indexing the morphisms with it raises
    TypeError, which GroupoidData reports as the domain error."""

    def edit(o, m, c, i):
        if drop:
            del c[(0, 0)]
        c[bad] = 0

    args = _z3_on_two_objects(edit)
    ref, new = outcome(ReferenceGroupoid, *args), outcome(GroupoidData, *args)
    assert (ref[:2] == ("raise", TypeError)) == (bad == (0.0, 0) and drop)
    assert_same(expected_outcome(ref), new, groupoid_fields)


@pytest.mark.parametrize(
    "compose, inv, message",
    [
        ({(0, 0): 0.0}, [0], "composition table value out of range"),
        ({(0, 0): "0"}, [0], "composition table value out of range"),
        ({(0, 0): None}, [0], "composition table value out of range"),
        ({(0, 0): 0}, [0.0], "inverse map value out of range"),
        ({(0, 0): 0}, ["0"], "inverse map value out of range"),
        ({(0.0, 0): 0}, [0], DOMAIN),
    ],
    ids=repr,
)
def test_non_int_index_raises_construction_error(compose, inv, message):
    """The reference indexed or compared with such a value and raised
    TypeError; GroupoidData catches it around its two loops."""
    args = (["x"], [Morphism("e", 0, 0)], compose, inv)
    assert outcome(ReferenceGroupoid, *args)[:2] == ("raise", TypeError)
    assert outcome(GroupoidData, *args) == ("raise", ConstructionError, message)


def test_domain_check_builds_no_pair_set():
    """The domain check counts the composable pairs and tests each key in
    place: on connected_groupoid(8, Z/20), 204,800 pairs, the set of them
    peaked at 27 MB."""
    g = connected_groupoid(8, cyclic_group_table(20))
    g.identities = {}
    tracemalloc.start()
    try:
        g._validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
