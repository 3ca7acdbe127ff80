"""Mutation fuzzing of the three JSON entry points.

Each case edits one spot of a valid payload (replaces a value, drops a key or
a list item, duplicates or truncates a list) and runs the command on it.
Whatever the edit, the command must end with exit 0, exit 1 from a failed
check, or exit 2 with a one-line message, and never with a traceback.  The
byte-level cases edit the file text itself (a byte that is not UTF-8, or the
payload nested in many lists), and must end in exit 2 with a one-line message.

Replacement integers stay small: a mutated ``dim`` or index must not turn a
payload into an expensive request.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from frobkit.cli import main
from frobkit.whopf import groupoid_algebra, pair_groupoid, weak_hopf_to_json
from test_whopf import groupoid_to_json


def _nsy_payload():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["nsy", "build", "n=2", "ell=2", "m=2,1"]) == 0
    return json.loads(out.getvalue())


VALID = {
    "verify": _nsy_payload(),
    "whopf_check": weak_hopf_to_json(groupoid_algebra(pair_groupoid(2))),
    "groupoid_json": groupoid_to_json(pair_groupoid(2)),
}

COMMANDS = {
    "verify": lambda path: ["verify", path],
    "whopf_check": lambda path: ["whopf", "check", path],
    "groupoid_json": lambda path: ["whopf", "groupoid", "--json", path, "check"],
}

REPLACEMENTS = st.one_of(
    st.integers(-2, 9),
    st.sampled_from(["0", "1", "-1", "1/2", "2/3", "1/0", "x", "", "id0", "m0_1", "m1_0"]),
    # copied, since a later edit may change a drawn list or dict in place
    st.sampled_from([0.5, True, False, None, [], {}, [0], [0, 0], {"a": 1}]).map(copy.deepcopy),
)


def _containers(node, path=()):
    """Paths of every dict and list in a JSON tree, root first."""
    if isinstance(node, (dict, list)):
        yield path
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _containers(child, (*path, key))


@st.composite
def mutated(draw, name):
    payload = copy.deepcopy(VALID[name])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_containers(payload))
        path = draw(st.sampled_from(paths))
        node = payload
        for key in path:
            node = node[key]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["replace", "drop", "duplicate", "truncate"]))
        if not keys:
            op = "replace"
        if op == "replace":
            if not keys:
                if path == ():
                    continue
                parent = payload
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = draw(REPLACEMENTS)
            else:
                node[draw(st.sampled_from(keys))] = draw(REPLACEMENTS)
        elif op == "drop":
            del node[draw(st.sampled_from(keys))]
        elif op == "duplicate" and isinstance(node, list):
            node.append(copy.deepcopy(node[draw(st.sampled_from(keys))]))
        elif op == "truncate" and isinstance(node, list):
            del node[draw(st.integers(0, len(node) - 1)):]
    return payload


def run_on(name, payload):
    return run_on_bytes(name, json.dumps(payload).encode())


def run_on_bytes(name, data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(COMMANDS[name](path))
    return code, out.getvalue(), err.getvalue()


def assert_total(code, out, err):
    assert code in (0, 1, 2)
    assert err == "" or (err.endswith("\n") and err.count("\n") == 1)
    if code == 0:
        assert err == ""
    elif code == 1:
        # only a failed check: a [FAIL] line in the report, or a refused construction
        assert ("[FAIL] " in out and err == "") or err.startswith("check failed: ")
    else:
        assert err.startswith("error: ")


FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(mutated("verify"))
@FUZZ
def test_fuzz_verify(payload):
    assert_total(*run_on("verify", payload))


@given(mutated("whopf_check"))
@FUZZ
def test_fuzz_whopf_check(payload):
    assert_total(*run_on("whopf_check", payload))


@given(mutated("groupoid_json"))
@FUZZ
def test_fuzz_groupoid_json(payload):
    assert_total(*run_on("groupoid_json", payload))


def assert_refused(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


@given(name=st.sampled_from(sorted(VALID)), data=st.data())
@FUZZ
def test_fuzz_byte_not_utf8(name, data):
    text = json.dumps(VALID[name]).encode()
    at = data.draw(st.integers(0, len(text)))
    assert_refused(*run_on_bytes(name, text[:at] + b"\xff" + text[at:]))


@given(name=st.sampled_from(sorted(VALID)), depth=st.integers(1, 100_000))
@FUZZ
def test_fuzz_nested_in_lists(name, depth):
    text = json.dumps(VALID[name]).encode()
    assert_refused(*run_on_bytes(name, b"[" * depth + text + b"]" * depth))


def test_valid_payloads_pass():
    for name, payload in VALID.items():
        code, out, err = run_on(name, payload)
        assert (code, err) == (0, ""), name
        assert "[FAIL]" not in out, name
