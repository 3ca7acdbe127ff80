"""Finite groupoids and their weak Hopf groupoid algebras.

Composition reads left to right: the product g h is defined exactly when
tgt(g) = src(h), with src(g h) = src(g) and tgt(g h) = tgt(h).  Under this
convention g g^{-1} = id at src(g), the target counital map sends a morphism
to the identity at its source, and the left integral space of the groupoid
algebra is spanned by the target-fibre sums sum_{tgt(h) = X} h, one per
object X.

The groupoid algebra has basis the morphisms, product composition-or-zero,
unit the sum of identities, group-like comultiplication g -> g (x) g,
counit g -> 1, and antipode g -> g^{-1}.

Validation and composition visit only the composable pairs, not all n^2
pairs: ``GroupoidData`` buckets the morphisms by source and by target.
:func:`connected_groupoid` on N objects with vertex group G numbers the
morphism (s, t, k) from s to t with group part k as (s N + t) |G| + k, so
composites and inverses are index arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import ConstructionError, InputError
from ..exactlin import Mat, ONE, Vec
from ..finalg import AlgebraData, _field
from .core import WeakHopfData, check_weak_hopf

__all__ = [
    "Morphism",
    "GroupoidData",
    "groupoid_algebra",
    "hopf_group_algebra",
    "cyclic_group_table",
    "group_groupoid",
    "pair_groupoid",
    "connected_groupoid",
    "groupoid_from_json",
]


@dataclass(frozen=True)
class Morphism:
    name: str
    src: int
    tgt: int


class GroupoidData:
    """A finite groupoid: objects, morphisms, a total composition table on
    composable pairs, and inverses.  Endpoints, identities and inverses are
    checked at construction; associativity is decided once, by
    :func:`groupoid_algebra` through :func:`check_weak_hopf`."""

    def __init__(
        self,
        objects: list,
        morphisms: list[Morphism],
        compose: dict[tuple[int, int], int],
        inv: list[int],
    ):
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.compose = dict(compose)
        self.inv = list(inv)
        self.identities: dict = {}
        self._validate()

    def _validate(self):
        objs = set(range(len(self.objects)))
        mor, comp = self.morphisms, self.compose
        n = len(mor)
        if not self.objects:
            raise ConstructionError("groupoid must have at least one object")
        out_of = {x: [] for x in objs}
        into = {x: [] for x in objs}
        for g, m in enumerate(mor):
            if m.src not in objs or m.tgt not in objs:
                raise ConstructionError(
                    f"morphism {m.name} has source or target outside the object set"
                )
            out_of[m.src].append(g)
            into[m.tgt].append(g)
        # the keys are the composable pairs iff there are as many and each
        # pair is a key: distinct pairs never match one key
        pairs = sum(len(into[x]) * len(out_of[x]) for x in objs)
        composable = (itertools.product(into[x], out_of[x]) for x in objs)
        if len(comp) != pairs or not all(all(map(comp.__contains__, p)) for p in composable):
            raise ConstructionError(
                "composition table domain must be exactly the composable pairs"
            )
        try:  # an index that is not an int raises TypeError: no test per entry
            for (g, h), k in comp.items():
                if not 0 <= k < n:
                    raise ConstructionError("composition table value out of range")
                if mor[k].src != mor[g].src or mor[k].tgt != mor[h].tgt:
                    raise ConstructionError(
                        f"composite of {mor[g].name} and {mor[h].name} has wrong endpoints"
                    )
        except TypeError:
            ints = all(isinstance(i, int) for key in comp for i in key)
            what = "value out of range" if ints else "domain must be exactly the composable pairs"
            raise ConstructionError(f"composition table {what}") from None
        # identities: for each object, the first loop acting as a two-sided unit
        for x in objs:
            for e in out_of[x]:
                if (
                    mor[e].tgt == x
                    and all(comp[(e, f)] == f for f in out_of[x])
                    and all(comp[(f, e)] == f for f in into[x])
                ):
                    self.identities[x] = e
                    break
            else:
                raise ConstructionError(f"object {self.objects[x]} has no identity")
        # inverses
        if len(self.inv) != n:
            raise ConstructionError("inverse map must be total")
        try:
            for g, gi in enumerate(self.inv):
                if not 0 <= gi < n:
                    raise ConstructionError("inverse map value out of range")
                m, mi = mor[g], mor[gi]
                if (mi.src, mi.tgt) != (m.tgt, m.src):
                    raise ConstructionError(f"inverse of {m.name} has wrong endpoints")
                if comp[(g, gi)] != self.identities[m.src]:
                    raise ConstructionError(
                        f"{m.name} composed with its inverse is not the identity at its source"
                    )
                if comp[(gi, g)] != self.identities[m.tgt]:
                    raise ConstructionError(
                        f"inverse composed with {m.name} is not the identity at its target"
                    )
        except TypeError:
            raise ConstructionError("inverse map value out of range") from None

    @property
    def num_morphisms(self) -> int:
        return len(self.morphisms)


def _groupoid_product(g: GroupoidData, labels: list[str] | None = None) -> AlgebraData:
    """The algebra of the groupoid: product composition-or-zero, unit the sum
    of identities, basis the morphisms (labelled by their names by default).
    The n term tuples ``((k, 1),)`` are shared between the products."""
    n = g.num_morphisms
    if labels is None:
        labels = [m.name for m in g.morphisms]
    basis = [((k, ONE),) for k in range(n)]
    mult = {(a, b): basis[k] for (a, b), k in g.compose.items()}
    unit = Vec(n, [(e, ONE) for e in g.identities.values()])
    return AlgebraData(n, labels, mult, unit)


def groupoid_algebra(g: GroupoidData, labels: list[str] | None = None) -> WeakHopfData:
    """The groupoid algebra as verified WeakHopfData, its basis labelled by
    ``labels`` (the morphism names by default)."""
    n = g.num_morphisms
    algebra = _groupoid_product(g, labels)
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


def hopf_group_algebra(table: list[list[int]], labels: list[str] | None = None) -> WeakHopfData:
    """Group algebra of a finite group (given by its multiplication table):
    the groupoid algebra of the group as a one-object groupoid, so
    g -> g (x) g, eps = 1, S(g) = g^{-1}."""
    n = len(table)
    if labels is None:
        labels = [f"g{k}" for k in range(n)]
    if len(labels) != n:
        raise InputError(f"expected {n} labels for the group elements, got {len(labels)}")
    return groupoid_algebra(group_groupoid(table), labels)


def _group_of(table) -> tuple[int, list[int]]:
    """Identity and inverses of a group table; rows are read as ``table[g]``,
    so a list of lists and a dict-of-dicts monomial table both work."""
    n = len(table)
    if any(len(table[g]) != n for g in range(n)):
        raise InputError("group table must be square")
    for g, x in itertools.product(range(n), repeat=2):
        if not isinstance(table[g][x], int) or table[g][x] not in range(n):
            raise InputError(f"group table entry {table[g][x]!r} at ({g}, {x}) is out of range")
    for ident in range(n):
        if all(table[ident][x] == x and table[x][ident] == x for x in range(n)):
            break
    else:
        raise InputError("group table has no identity element")
    inv = [
        next((x for x in range(n) if table[g][x] == ident and table[x][g] == ident), None)
        for g in range(n)
    ]
    if None in inv:
        raise InputError(f"element {inv.index(None)} has no inverse")
    return ident, inv


def cyclic_group_table(n: int) -> list[list[int]]:
    if n < 1:
        raise InputError("cyclic group order must be >= 1")
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def connected_groupoid(num_objects: int, table: list[list[int]]) -> GroupoidData:
    """Connected groupoid with the given vertex group: morphisms are
    (src, tgt, group element), composed by multiplying group parts."""
    if num_objects < 1:
        raise InputError("need at least one object")
    N, order = num_objects, len(table)
    ident, inv_tab = _group_of(table)
    objs, group = range(N), range(order)
    morphisms, inv = [], []
    for s, t, k in itertools.product(objs, objs, group):
        name = f"id{s}" if s == t and k == ident else f"m{s}_{t}"
        morphisms.append(Morphism(name if order == 1 else f"{name}g{k}", s, t))
        inv.append((t * N + s) * order + inv_tab[k])
    compose = {
        ((s * N + t) * order + a, (t * N + u) * order + b): (s * N + u) * order + table[a][b]
        for s, t, a, u, b in itertools.product(objs, objs, group, objs, group)
    }
    return GroupoidData(list(objs), morphisms, compose, inv)


def group_groupoid(table: list[list[int]]) -> GroupoidData:
    """A finite group seen as a one-object groupoid."""
    return connected_groupoid(1, table)


def pair_groupoid(num_objects: int) -> GroupoidData:
    """Exactly one morphism between every ordered pair of objects."""
    return connected_groupoid(num_objects, cyclic_group_table(1))


def _lookup(index: dict, key, what: str) -> int:
    try:
        return index[key]
    except (KeyError, TypeError):
        raise InputError(f"unknown {what} {key!r}") from None


def _names(entry, arity: int, name_index: dict, field: str) -> list[int]:
    """Morphism indices of one compose or inv entry."""
    if not isinstance(entry, list) or len(entry) != arity:
        raise InputError(f"bad {field} entry {entry!r}: expected {arity} morphism names")
    return [_lookup(name_index, x, f"morphism in {field}") for x in entry]


def groupoid_from_json(payload: dict) -> GroupoidData:
    fields = [_field(payload, k) for k in ("objects", "morphisms", "compose", "inv")]
    if not all(isinstance(f, list) for f in fields):
        raise InputError("objects, morphisms, compose and inv must be lists")
    objects, morph_raw, comp_raw, inv_raw = fields
    try:
        obj_index = {x: i for i, x in enumerate(objects)}
    except TypeError:
        raise InputError("object names must be strings or numbers") from None
    if len(obj_index) != len(objects):
        dup = next(x for i, x in enumerate(objects) if obj_index[x] != i)
        raise InputError(f"object {dup!r} listed more than once")
    morphisms = []
    name_index = {}
    label_ids = {}  # str(id), the printed label -> id
    for m in morph_raw:
        try:
            name, src, tgt = m["id"], m["src"], m["tgt"]
            if name_index.setdefault(name, len(morphisms)) != len(morphisms):
                raise InputError(f"morphism id {name!r} listed more than once")
        except (KeyError, TypeError):
            raise InputError(f"bad morphism entry {m!r}") from None
        label = str(name)
        if label_ids.setdefault(label, name) != name:
            raise InputError(
                f"morphism ids {label_ids[label]!r} and {name!r} share the label {label!r}"
            )
        morphisms.append(
            Morphism(
                label,
                _lookup(obj_index, src, "object"),
                _lookup(obj_index, tgt, "object"),
            )
        )
    compose = {}
    for entry in comp_raw:
        a, b, c = _names(entry, 3, name_index, "compose")
        if (a, b) in compose:
            raise InputError(f"compose entry ({entry[0]!r}, {entry[1]!r}) listed more than once")
        compose[(a, b)] = c
    inv: dict[int, int] = {}
    for entry in inv_raw:
        a, b = _names(entry, 2, name_index, "inv")
        if a in inv:
            raise InputError(f"inv entry for {entry[0]!r} listed more than once")
        inv[a] = b
    if len(inv) != len(morphisms):
        raise InputError("inverse table must cover every morphism")
    return GroupoidData(objects, morphisms, compose, [inv[a] for a in range(len(morphisms))])
