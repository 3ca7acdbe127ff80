"""Differential test of the algebra JSON decoder.

``finalg`` decodes each field on one of two paths.  A ``mult`` or matrix
field in the shape the encoders write (lists of the right length, int
indices in range, nonzero str literals, no key listed twice) is tested whole
and built in bulk.  Any other field, and every vector field, is parsed whole
by ``finalg._entries_from_json``, which parses each distinct string literal
once per call, and handed to the Vec and Mat constructors.  The reference
below is the earlier decoder, kept verbatim: it parses every literal of every
entry and hands the lists to the Vec, Mat and AlgebraData constructors.  On
valid payloads and on mutated ones, including the SHAPE_EDITS that keep a
field's shape but move it off the bulk path, both must give equal objects
with the same scalar type at every entry, or raise InputError with the same
message.  A spy on ``_entries_from_json`` pins which path each field takes.
"""

from __future__ import annotations

import copy
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from frobkit import finalg
from frobkit.errors import InputError
from frobkit.exactlin import Mat, Vec, scalar_from_str
from frobkit.finalg import AlgebraData, ComultData, comult_from_json, comult_to_json
from frobkit.nsy import nsy_build, nsy_delta, nsy_epsilon, sweep_params
from frobkit.whopf import WeakHopfData, weak_hopf_from_json, weak_hopf_to_json

# ------------------------------------------------------------ reference decoder


def _field(payload, name: str):
    try:
        return payload[name]
    except (KeyError, TypeError):
        raise InputError(f"missing or malformed field: {name!r}") from None


def _is_index(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _entries_from_json(raw, arity: int, field: str) -> list[tuple]:
    """Entries [i_1, ..., i_{arity-1}, "p/q"] as (int, ..., Fraction) tuples."""
    if not isinstance(raw, list):
        raise InputError(f"field {field!r} must be a list")
    out = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != arity:
            raise InputError(f"bad {field} entry {entry!r}: expected {arity} items")
        *idx, v = entry
        if not all(_is_index(i) for i in idx):
            raise InputError(f"bad {field} entry {entry!r}: indices must be integers")
        out.append((*idx, scalar_from_str(v)))
    return out


def _vec_from_json(raw, dim: int, field: str) -> Vec:
    return Vec(dim, _entries_from_json(raw, 2, field))


def _mat_from_json(raw, nrows: int, ncols: int, field: str) -> Mat:
    entries = _entries_from_json(raw, 3, field)
    return Mat(nrows, ncols, [(r, c, v) for c, r, v in entries])


def _algebra_from_json(payload) -> AlgebraData:
    dim, labels = _field(payload, "dim"), _field(payload, "labels")
    if not _is_index(dim) or not isinstance(labels, list):
        raise InputError("fields 'dim' and 'labels' must be an integer and a list")
    mult: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for i, j, k, v in _entries_from_json(_field(payload, "mult"), 4, "mult"):
        mult.setdefault((i, j), []).append((k, v))
    return AlgebraData(
        dim,
        [str(x) for x in labels],
        {key: tuple(Vec(dim, e).terms()) for key, e in mult.items()},
        _vec_from_json(_field(payload, "unit"), dim, "unit"),
    )


def reference_comult_from_json(payload: dict) -> ComultData:
    algebra = _algebra_from_json(payload)
    d = algebra.dim
    delta = _mat_from_json(_field(payload, "delta"), d * d, d, "delta")
    counit = None
    if payload.get("counit") is not None:
        counit = _vec_from_json(payload["counit"], d, "counit")
    return ComultData(algebra, delta, counit)


def reference_weak_hopf_from_json(payload: dict) -> WeakHopfData:
    algebra = _algebra_from_json(payload)
    d = algebra.dim
    return WeakHopfData(
        algebra,
        _mat_from_json(_field(payload, "delta_wk"), d * d, d, "delta_wk"),
        _vec_from_json(_field(payload, "epsilon_wk"), d, "epsilon_wk"),
        _mat_from_json(_field(payload, "antipode"), d, d, "antipode"),
    )


# ------------------------------------------------------------ comparison


def _vec_key(v: Vec | None):
    return v if v is None else (v.dim, [(k, type(x), x) for k, x in v.terms()], v)


def _mat_key(m: Mat):
    return m.nrows, m.ncols, [(r, c, type(x), x) for r, c, x in m.items()], m


def _algebra_key(a: AlgebraData):
    mult = [(key, [(k, type(x), x) for k, x in terms]) for key, terms in a.mult.items()]
    return a.dim, a.labels, mult, _vec_key(a.unit)


def _comult_key(c: ComultData):
    return _algebra_key(c.algebra), _mat_key(c.delta), _vec_key(c.counit)


def _weak_hopf_key(h: WeakHopfData):
    return (
        _algebra_key(h.algebra),
        _mat_key(h.delta_wk),
        _vec_key(h.epsilon_wk),
        _mat_key(h.antipode),
    )


DECODERS = {
    "comult": (comult_from_json, reference_comult_from_json, _comult_key),
    "weak_hopf": (weak_hopf_from_json, reference_weak_hopf_from_json, _weak_hopf_key),
}


def _outcome(decode, key, payload):
    try:
        return "ok", key(decode(payload))
    except InputError as exc:
        return "error", str(exc)


def assert_decodes_alike(kind: str, payload) -> str:
    decode, reference, key = DECODERS[kind]
    got = _outcome(decode, key, copy.deepcopy(payload))
    assert got == _outcome(reference, key, copy.deepcopy(payload))
    return got[0]


# ------------------------------------------------------------ inputs


def _nsy_payload(p) -> dict:
    """The payload of ``nsy build``."""
    algebra = nsy_build(p)
    return comult_to_json(ComultData(algebra, nsy_delta(p, algebra).delta, nsy_epsilon(p)))


NSY_PAYLOADS = [_nsy_payload(p) for p in sweep_params(3, 3, 2)]


@pytest.fixture(scope="module")
def weak_hopf_payloads(groupoid_algebras, hopf_group_algebras, qtg_built):
    out = {f"groupoid_{k}": weak_hopf_to_json(h) for k, h in groupoid_algebras.items()}
    out.update({f"group_{n}": weak_hopf_to_json(h) for n, h in hopf_group_algebras.items()})
    out.update({f"qtg_{k}": weak_hopf_to_json(h) for k, h in qtg_built.items()})
    return out


REPLACEMENTS = st.one_of(
    st.integers(-2, 9),
    st.sampled_from(
        ["0", "1", "-1", "1/2", "-1/2", "2/4", "3/3", "0/7", " 1", "1_0", "1.5",
         "1e3", "1/0", "x", ""]
    ),
    # copied, since a later edit may change a drawn list or dict in place
    st.sampled_from(
        [0.5, 1.0, True, False, None, [], {}, [0], [0, 0], [0, 0, "1/2"], {"a": 1}]
    ).map(copy.deepcopy),
)


def _containers(node, path=()):
    """Paths of every dict and list in a JSON tree, root first."""
    if isinstance(node, (dict, list)):
        yield path
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _containers(child, (*path, key))


def _repeat(entries, n, bound):
    entries.append(copy.deepcopy(entries[n]))


def _value(v):
    def edit(entries, n, bound):
        entries[n][-1] = v

    return edit


def _at_bound(entries, n, bound):
    entries[n][-2] = bound


def _move_first(entries, n, bound):
    entries.insert(0, entries.pop(n))


# Edits of entry n of a field that keep the field a list of lists of the
# right length: (edit, whether the field stays on the bulk path).  "2/4" is
# a nonzero str literal, so it stays there beside "1/2", with an equal value.
SHAPE_EDITS = {
    "repeated_entry": (_repeat, False),
    "zero_literal": (_value("0"), False),
    "unreduced_literal": (_value("2/4"), True),
    "integer_value": (_value(1), False),
    "true_value": (_value(True), False),
    "last_index_at_bound": (_at_bound, False),
    "moved_out_of_order": (_move_first, True),
}

# the entry fields, and the bound of an entry's last index as a power of dim
LAST_INDEX_POWER = {
    "mult": 1, "unit": 1, "counit": 1, "delta": 2,
    "delta_wk": 2, "epsilon_wk": 1, "antipode": 1,
}


def shape_edit(payload, field: str, edit: str, n: int) -> None:
    SHAPE_EDITS[edit][0](payload[field], n, payload["dim"] ** LAST_INDEX_POWER[field])


@st.composite
def mutated(draw, payload):
    """``payload`` with 1-4 edits: replace a value, drop, duplicate or
    truncate list items and dict keys, or make one of SHAPE_EDITS."""
    payload = copy.deepcopy(payload)
    for _ in range(draw(st.integers(1, 4))):
        fields = [
            f for f in LAST_INDEX_POWER
            if isinstance(payload.get(f), list) and payload[f]
        ]
        if fields and type(payload.get("dim")) is int and draw(st.booleans()):
            field = draw(st.sampled_from(fields))
            n = draw(st.integers(0, len(payload[field]) - 1))
            if isinstance(payload[field][n], list) and len(payload[field][n]) >= 2:
                shape_edit(payload, field, draw(st.sampled_from(sorted(SHAPE_EDITS))), n)
            continue
        path = draw(st.sampled_from(list(_containers(payload))))
        node = payload
        for key in path:
            node = node[key]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["replace", "drop", "duplicate", "truncate"]))
        if not keys:
            if isinstance(node, list):
                node.append(draw(REPLACEMENTS))
            continue
        if op == "replace":
            node[draw(st.sampled_from(keys))] = draw(REPLACEMENTS)
        elif op == "drop":
            del node[draw(st.sampled_from(keys))]
        elif op == "duplicate" and isinstance(node, list):
            node.append(copy.deepcopy(node[draw(st.sampled_from(keys))]))
        elif op == "truncate" and isinstance(node, list):
            del node[draw(st.integers(0, len(node) - 1)):]
    return payload


FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ------------------------------------------------------------ tests


@pytest.mark.parametrize("index", range(len(NSY_PAYLOADS)))
def test_nsy_build_payloads_decode_alike(index):
    assert assert_decodes_alike("comult", NSY_PAYLOADS[index]) == "ok"


def test_weak_hopf_payloads_decode_alike(weak_hopf_payloads):
    for name, payload in weak_hopf_payloads.items():
        assert assert_decodes_alike("weak_hopf", payload) == "ok", name
    # the QTG data carry the non-integral scalar 1/dim B
    assert any("1/2" in str(p["delta_wk"]) for p in weak_hopf_payloads.values())


@given(data=st.data())
@FUZZ
def test_mutated_nsy_payloads_decode_alike(data):
    payload = data.draw(st.sampled_from(NSY_PAYLOADS[:12]))
    assert_decodes_alike("comult", data.draw(mutated(payload)))


@given(data=st.data())
@FUZZ
def test_mutated_weak_hopf_payloads_decode_alike(weak_hopf_payloads, data):
    name = data.draw(st.sampled_from(sorted(weak_hopf_payloads)))
    assert_decodes_alike("weak_hopf", data.draw(mutated(weak_hopf_payloads[name])))


@pytest.fixture
def per_entry_fields(monkeypatch):
    """The fields that finalg decodes entry by entry, in order."""
    fields = []
    loop = finalg._entries_from_json

    def spy(raw, arity, field, literals):
        fields.append(field)
        return loop(raw, arity, field, literals)

    monkeypatch.setattr(finalg, "_entries_from_json", spy)
    return fields


# the entry fields in the order each decoder reads them
DECODE_ORDER = {
    "comult": ("mult", "unit", "delta", "counit"),
    "weak_hopf": ("mult", "unit", "delta_wk", "epsilon_wk", "antipode"),
}
VECTOR_FIELDS = {"unit", "counit", "epsilon_wk"}


def test_written_payloads_take_the_bulk_path(weak_hopf_payloads, per_entry_fields):
    """Every field but the vector fields, which always go to the Vec constructor."""
    expected = []
    for payload in NSY_PAYLOADS:
        comult_from_json(payload)
        expected += [f for f in DECODE_ORDER["comult"] if f in VECTOR_FIELDS and f in payload]
    for payload in weak_hopf_payloads.values():
        weak_hopf_from_json(payload)
        expected += ["unit", "epsilon_wk"]
    assert per_entry_fields == expected


SHAPE_EDIT_FIELDS = [
    ("comult", "mult"), ("comult", "unit"), ("comult", "delta"), ("comult", "counit"),
    ("weak_hopf", "mult"), ("weak_hopf", "delta_wk"),
    ("weak_hopf", "epsilon_wk"), ("weak_hopf", "antipode"),
]


@pytest.mark.parametrize("edit", sorted(SHAPE_EDITS))
@pytest.mark.parametrize("kind, field", SHAPE_EDIT_FIELDS)
def test_shape_edit_takes_its_path(kind, field, edit, weak_hopf_payloads, per_entry_fields):
    # the first NSY payload with a counit; the QTG data carry "1/2"
    payload = copy.deepcopy(
        next(p for p in NSY_PAYLOADS if "counit" in p)
        if kind == "comult"
        else weak_hopf_payloads["qtg_k_mat2"]
    )
    shape_edit(payload, field, edit, len(payload[field]) - 1)
    fields = DECODE_ORDER[kind]
    if assert_decodes_alike(kind, payload) == "error":  # decoding stops at the edited field
        fields = fields[: fields.index(field) + 1]
    off_bulk = {field} if not SHAPE_EDITS[edit][1] else set()
    assert per_entry_fields == [f for f in fields if f in VECTOR_FIELDS | off_bulk]


def _small(**fields) -> dict:
    payload = {
        "dim": 2,
        "labels": ["a", "b"],
        "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
        "unit": [[0, "1"]],
        "delta": [[0, 0, "1"]],
    }
    payload.update(fields)
    return payload


# Faults the decoder must report in the order of the reference: a whole
# field parses before its range checks, product vectors are checked pair by
# pair in order of first listing, and the pair index itself only after the
# unit.
FAULT_ORDER = {
    "later_pair_fault_in_first_pair": (
        _small(mult=[[0, 0, 0, "1"], [1, 1, 9, "1"], [0, 0, 8, "1"]]),
        "index 8 out of range for dimension 2",
    ),
    "range_fault_before_malformed_entry": (
        _small(mult=[[0, 0, 5, "1"], [0, 0, 0, "x"]]),
        "bad rational literal 'x'",
    ),
    "delta_range_fault_before_malformed_entry": (
        _small(delta=[[0, 9, "1"], [0, 0, "x"]]),
        "bad rational literal 'x'",
    ),
    "unit_range_fault_before_malformed_entry": (
        _small(unit=[[7, "1"], [0, [1]]]),
        "bad rational literal [1]",
    ),
    "zero_value_out_of_range": (_small(unit=[[3, "0"]]), "index 3 out of range for dimension 2"),
    "negative_dim_empty_mult": (
        _small(dim=-1, mult=[]),
        "vector dimension must be >= 0, got -1",
    ),
    "negative_dim_empty_fields": (
        _small(dim=-1, mult=[], unit=[]),
        "vector dimension must be >= 0, got -1",
    ),
    "negative_dim_with_mult": (
        _small(dim=-1, unit=[[0, "x"]]),
        "vector dimension must be >= 0, got -1",
    ),
    "zero_dim": (_small(dim=0, labels=[], mult=[], unit=[]), "algebra dimension must be >= 1"),
    "unit_before_pair_index": (
        _small(mult=[[5, 0, 0, "1"]], unit=[[2, "1"]]),
        "index 2 out of range for dimension 2",
    ),
    "pair_index_of_cancelled_product": (
        _small(mult=[[5, 0, 0, "1"], [5, 0, 0, "-1"]]),
        "structure constant index (5, 0) out of range",
    ),
    "first_delta_fault_in_file_order": (
        _small(delta=[[0, 0, "1"], [1, 9, "1"], [2, 0, "1"]]),
        "entry (9, 1) out of range for 4x2",
    ),
    # a well-formed field reports its first bad literal in file order
    "first_bad_literal_of_shaped_field": (
        _small(delta=[[0, 0, "a"], [0, 1, "b"], [0, 2, "c"], [1, 0, "d"], [1, 3, "e"]]),
        "bad rational literal 'a'",
    ),
    "bool_after_int": (_small(unit=[[0, 1], [1, True]]), "bad rational literal True"),
    "float_after_int": (_small(unit=[[0, 1], [1, 1.0]]), "bad rational literal 1.0"),
    "bool_index": (_small(delta=[[True, 0, "1"]]), "indices must be integers"),
}


@pytest.mark.parametrize("case", sorted(FAULT_ORDER))
def test_fault_order_matches_reference(case):
    payload, message = FAULT_ORDER[case]
    assert assert_decodes_alike("comult", payload) == "error"
    with pytest.raises(InputError, match=re.escape(message)):
        comult_from_json(copy.deepcopy(payload))

