"""Command-line interface tests: golden output, exit codes, round trips."""

import io
import json
import re
import tracemalloc

import pytest

import golden
from frobkit import cli
from frobkit import nsy as nsy_mod
from frobkit.cli import main
from frobkit.finalg import comult_from_json, comult_to_json, counit_failures, dump_json
from frobkit.nsy import basis_label
from frobkit.whopf import (
    groupoid_algebra,
    integral_space,
    pair_groupoid,
    weak_hopf_from_json,
    weak_hopf_to_json,
)
from nsy_oracle import basis_indices
from test_whopf import groupoid_to_json, non_associative_groupoid


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_args_usage(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "usage" in out


def test_help(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "frobkit" in out


@pytest.mark.parametrize("argv", [["nsy", "--help"], ["whopf", "--help"], ["verify", "--help"]])
def test_help_after_a_subcommand(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == cli._USAGE.format(version=cli.__version__)


def _usage_flags() -> dict[str, set[str]]:
    """The flags each command's entries in the usage text name; an entry
    starts at '  frobkit CMD' and runs over its indented continuation lines."""
    flags: dict[str, set[str]] = {}
    cmd = None
    for line in cli._USAGE.splitlines():
        if line.startswith("  frobkit "):
            cmd = line.split()[1]
        elif not line.startswith("    "):
            cmd = None
        if cmd:
            flags.setdefault(cmd, set()).update(re.findall(r"--[\w-]+", line))
    return flags


def test_usage_names_every_accepted_flag(tmp_path, capsys, monkeypatch):
    """Every flag _reject_foreign lets through for nsy, verify and each
    whopf source appears in that command's usage lines."""
    accepted: dict[str, set[str]] = {}
    reject = cli._reject_foreign

    def recording(flags, own, where):
        accepted.setdefault(where, set()).update(own | {"--format", "--output"})
        return reject(flags, own, where)

    monkeypatch.setattr(cli, "_reject_foreign", recording)
    nsy_file = tmp_path / "nsy.json"
    whopf_file = tmp_path / "whopf.json"
    whopf_file.write_text(dump_json(weak_hopf_to_json(groupoid_algebra(pair_groupoid(2)))))
    commands = [
        ["nsy", "build", "n=2", "ell=2", "m=1,1", "--output", str(nsy_file)],
        ["verify", str(nsy_file)],
        ["whopf", "groupoid", "--pair-objects", "2", "check"],
        ["whopf", "groupoid", "--objects", "2", "--group", "cyclic:2", "check"],
        ["whopf", "group", "--cyclic", "2", "check"],
        ["whopf", "qtg", "--L", "trivial", "--B", "cyclic:2", "check"],
        ["whopf", str(whopf_file), "check"],
        ["whopf", "check", str(whopf_file)],
    ]
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv
    usage = _usage_flags()
    assert set(accepted) == {
        "nsy", "verify", "whopf source groupoid", "whopf source group", "whopf source qtg",
        f"whopf source {whopf_file}",
    }
    for where, own in accepted.items():
        assert own <= usage[where.split()[0]], where


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "bogus")
    assert code == 2
    assert "error" in err


def test_unknown_flag_rejected(capsys):
    code, _, err = run(capsys, "nsy", "table", "n=2", "ell=2", "m=1,1", "--wat", "1")
    assert code == 2
    assert "unknown flag" in err


def test_bad_params_exit_2(capsys):
    code, _, err = run(capsys, "nsy", "check", "n=0", "ell=2", "m=1,1")
    assert code == 2
    code, _, err = run(capsys, "nsy", "check", "n=2", "ell=2")
    assert code == 2


def test_table_markdown_golden_22_21(capsys):
    code, out, _ = run(
        capsys, "nsy", "table", "n=2", "ell=2", "m=2,1", "--format", "markdown"
    )
    assert code == 0
    lines = out.strip().split("\n")
    labels = [basis_label(b) for b in basis_indices(golden.P22_21)]
    assert lines[0] == "| * | " + " | ".join(labels) + " |"
    body = lines[2:]
    assert len(body) == 9
    for row_label, row, expected_row in zip(labels, body, golden.TABLE_22_21):
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert cells[0] == row_label
        expected = [labels[k] if k >= 0 else "0" for k in expected_row]
        assert cells[1:] == expected


def test_table_csv(capsys):
    code, out, _ = run(capsys, "nsy", "table", "n=2", "ell=2", "m=1,1", "--format", "csv")
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 5
    assert rows[0].startswith('*,"X[0,0]^(0,0)"')


def test_delta_markdown_contains_terms(capsys):
    code, out, _ = run(capsys, "nsy", "delta", "n=2", "ell=2", "m=1,1")
    assert code == 0
    assert "| X[0,0]^(0,0) | X[0,0]^(0,0) (x) X[1,1]^(0,0) + X[0,1]^(0,0) (x) X[0,0]^(0,0) |" in out


def test_check_non_counital_exit_zero(capsys):
    code, out, _ = run(capsys, "nsy", "check", "n=4", "ell=3", "m=1,1,2,2")
    assert code == 0
    assert "NonCounitalOnly" in out


def test_check_frobenius(capsys):
    code, out, _ = run(capsys, "nsy", "check", "n=2", "ell=2", "m=1,1")
    assert code == 0
    assert "Frobenius" in out
    assert "[PASS] casimir" in out


def test_counit_output(capsys):
    code, out, _ = run(capsys, "nsy", "counit", "n=2", "ell=2", "m=1,1")
    assert code == 0
    assert "counit: X[0,1]^(0,0) + X[1,1]^(0,0)" in out
    code, out, _ = run(capsys, "nsy", "counit", "n=2", "ell=2", "m=2,1")
    assert code == 0
    assert "counit: none" in out
    assert "candidate fails" in out


def test_sweep_counts_match_direct_criterion(capsys):
    code, out, _ = run(capsys, "nsy", "sweep", "nmax=3", "lmax=3", "mmax=2")
    assert code == 0
    # independent recount: m_i = m_{(i + ell - 1) mod n} for all i
    frob = 0
    total = 0
    for n in range(1, 4):
        for ell in range(1, 4):
            def vectors(k):
                if k == 0:
                    yield ()
                    return
                for rest in vectors(k - 1):
                    for m in (1, 2):
                        yield rest + (m,)

            for mults in vectors(n):
                total += 1
                if all(mults[i] == mults[(i + ell - 1) % n] for i in range(n)):
                    frob += 1
    assert f"Frobenius={frob}" in out
    assert f"NonCounitalOnly={total - frob}" in out


def test_sweep_deterministic(capsys):
    _, out1, _ = run(capsys, "nsy", "sweep", "nmax=2", "lmax=3", "mmax=2", "--format", "json")
    _, out2, _ = run(capsys, "nsy", "sweep", "nmax=2", "lmax=3", "mmax=2", "--format", "json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["tool"] == "frobkit"
    assert "version" in payload


@pytest.mark.parametrize(
    "bounds, allowed",
    [
        (("nmax=3", "lmax=3", "mmax=2"), True),  # the default grid, 42 points
        (("nmax=4", "lmax=4", "mmax=3"), True),  # the wide sweep, 480 points
        (("nmax=1", "lmax=10000", "mmax=1"), True),
        (("nmax=1", "lmax=10001", "mmax=1"), False),
        (("nmax=13", "lmax=1", "mmax=2"), False),
        (("nmax=1000000000", "lmax=1", "mmax=1"), False),
        (("nmax=1000000000",), False),
    ],
)
def test_sweep_grid_is_sized_before_it_is_built(bounds, allowed, capsys, monkeypatch):
    """A grid above 10,000 points exits 2 without a call to sweep_params,
    which would build the whole grid first."""
    calls = []
    monkeypatch.setattr(nsy_mod, "sweep_params", lambda *grid: calls.append(grid) or [])
    code, out, err = run(capsys, "nsy", "sweep", *bounds)
    if allowed:
        assert (code, err, len(calls)) == (0, "", 1)
    else:
        assert (code, out, err) == (2, "", "error: sweep grid has more than 10000 points\n")
        assert calls == []


def test_build_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "b2211.json"
    code, _, _ = run(capsys, "nsy", "build", "n=2", "ell=2", "m=1,1", "--output", str(path))
    assert code == 0
    text = path.read_text()
    # byte-identical re-export after re-import
    assert dump_json(comult_to_json(comult_from_json(json.loads(text)))) == text
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "classification: Frobenius" in out


def test_verify_non_counital(tmp_path, capsys):
    path = tmp_path / "b2221.json"
    run(capsys, "nsy", "build", "n=2", "ell=2", "m=2,1", "--output", str(path))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "classification: NonCounitalOnly" in out


@pytest.mark.parametrize(
    "params, counit, column",
    [
        ("n=2 ell=2 m=1,1", [[0, "5"]], 0),  # Frobenius: not the solved counit
        ("n=2 ell=2 m=2,1", [[1, "1"], [4, "1"]], 0),  # NonCounitalOnly: no counit at all
    ],
)
def test_verify_rejects_a_supplied_counit_that_fails(params, counit, column, tmp_path, capsys):
    path = tmp_path / "b.json"
    run(capsys, "nsy", "build", *params.split(), "--output", str(path))
    payload = json.loads(path.read_text())
    payload["counit"] = counit
    path.write_text(json.dumps(payload))
    first = next(counit_failures(comult_from_json(payload), comult_from_json(payload).counit))
    assert first[0] == column
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (1, "")
    assert err == f"check failed: supplied counit fails the counit identity at column {column}\n"


@pytest.mark.parametrize("params", ["n=2 ell=2 m=1,1", "n=3 ell=3 m=2,2,2", "n=2 ell=2 m=2,1"])
def test_verify_output_is_the_same_with_the_solved_counit_or_none(params, tmp_path, capsys):
    """nsy build writes the solved counit of a Frobenius instance and none
    otherwise; dropping it leaves the verify output unchanged."""
    path = tmp_path / "b.json"
    run(capsys, "nsy", "build", *params.split(), "--output", str(path))
    outputs = [run(capsys, "verify", str(path), "--format", "json")]
    payload = json.loads(path.read_text())
    payload.pop("counit", None)
    path.write_text(json.dumps(payload))
    outputs.append(run(capsys, "verify", str(path), "--format", "json"))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_verify_broken_bimodule_exit_one(tmp_path, capsys):
    path = tmp_path / "b2211.json"
    run(capsys, "nsy", "build", "n=2", "ell=2", "m=1,1", "--output", str(path))
    payload = json.loads(path.read_text())
    # replace delta with the group-like candidate, which is not a bimodule map
    dim = payload["dim"]
    payload["delta"] = [[j, j * dim + j, "1"] for j in range(dim)]
    payload.pop("counit", None)
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "NotFrobeniusStructure" in out
    assert "[FAIL]" in out


def _stdin(monkeypatch, data: bytes) -> None:
    """Bytes on stdin, its text layer decoded as under the C locale."""
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stream)


def test_verify_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "b.json"
    run(capsys, "nsy", "build", "n=2", "ell=2", "m=1,1", "--output", str(path))
    _stdin(monkeypatch, path.read_bytes())
    code, out, _ = run(capsys, "verify", "-")
    assert code == 0
    assert "Frobenius" in out


def test_verify_stdin_not_utf8(capsys, monkeypatch):
    _stdin(monkeypatch, b"\xff{}")
    message = "cannot read -: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert run(capsys, "verify", "-") == (2, "", f"error: {message}\n")


def test_verify_stdin_reads_the_bytes_a_file_would(tmp_path, capsys, monkeypatch):
    """An nsy build file with one 0xff byte in a label: stdin and the file
    both exit 2, with the same message but for the name."""
    path = tmp_path / "b.json"
    run(capsys, "nsy", "build", "n=2", "ell=2", "m=1,1", "--output", str(path))
    data = path.read_bytes().replace(b'"labels": [\n    "', b'"labels": [\n    "\xff', 1)
    assert b"\xff" in data
    path.write_bytes(data)
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "") and err.startswith(f"error: cannot read {path}: ")
    _stdin(monkeypatch, data)
    assert run(capsys, "verify", "-") == (2, "", err.replace(str(path), "-", 1))


def test_verify_malformed_json_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": ')
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "line" in err and "column" in err


def test_whopf_groupoid_frobenius(capsys):
    code, out, _ = run(capsys, "whopf", "groupoid", "--pair-objects", "2", "frobenius")
    assert code == 0
    assert "classification: Frobenius" in out
    assert "counit: id0 + id1" in out


def test_whopf_group_integrals(capsys):
    code, out, _ = run(capsys, "whopf", "group", "--cyclic", "3", "integrals")
    assert code == 0
    assert "I^L dimension 1" in out
    assert "g0 + g1 + g2" in out


def test_whopf_groupoid_check_default_op(capsys):
    code, out, _ = run(capsys, "whopf", "groupoid", "--pair-objects", "3")
    assert code == 0
    assert "[PASS] antipode_sandwich" in out


def test_whopf_qtg_frobenius(capsys):
    code, out, _ = run(
        capsys, "whopf", "qtg", "--L", "trivial", "--B", "matrix:2", "frobenius"
    )
    assert code == 0
    assert "classification: Frobenius" in out
    assert "verified against the integral construction" in out


def test_whopf_qtg_json_report_embeds_seed_and_version(capsys):
    code, out, _ = run(
        capsys,
        "whopf", "qtg", "--L", "trivial", "--B", "cyclic:2", "frobenius",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 271828
    assert payload["version"]
    assert payload["classification"] == "Frobenius"


def test_whopf_check_file_and_corruption(tmp_path, capsys):
    h = groupoid_algebra(pair_groupoid(2))
    payload = weak_hopf_to_json(h)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "whopf", "check", str(good))
    assert code == 0

    bad_payload = dict(payload)
    bad_payload["mult"] = [e for e in payload["mult"] if not (e[0] == 1 and e[1] == 3)]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_payload))
    code, out, _ = run(capsys, "whopf", "check", str(bad))
    assert code == 1
    assert "[FAIL]" in out


def test_whopf_export_round_trip(tmp_path, capsys):
    path = tmp_path / "pair2.json"
    code, _, _ = run(
        capsys, "whopf", "groupoid", "--pair-objects", "2", "check",
        "--output", str(path),
    )
    assert code == 0
    text = path.read_text()
    code, out, _ = run(capsys, "whopf", str(path), "check")
    assert code == 0
    # re-export of the re-import is byte-identical
    assert dump_json(weak_hopf_to_json(weak_hopf_from_json(json.loads(text)))) == text


def test_whopf_seed_flag(capsys):
    code, out, _ = run(
        capsys,
        "whopf", "groupoid", "--pair-objects", "2", "frobenius",
        "--seed", "7", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["seed"] == 7


def _nsy_build_payload(capsys):
    code, out, _ = run(capsys, "nsy", "build", "n=2", "ell=2", "m=1,1")
    assert code == 0
    return json.loads(out)


def _set(field, index, value):
    def corrupt(payload):
        payload[field][0][index] = value

    return corrupt


def _set_last(field, index, value=None):
    """Set item ``index`` of a field's last entry to ``value``, or to the
    algebra dimension when no value is given."""

    def corrupt(payload):
        payload[field][-1][index] = payload["dim"] if value is None else value

    return corrupt


def _set_values(field, *values):
    """Set the values of the first len(values) entries of a field."""

    def corrupt(payload):
        for entry, value in zip(payload[field], values):
            entry[-1] = value

    return corrupt


def _truncate(field):
    def corrupt(payload):
        payload[field][0] = payload[field][0][:2]

    return corrupt


def _groupoid_case(corrupt):
    def make(tmp_path, capsys):
        payload = groupoid_to_json(pair_groupoid(2))
        corrupt(payload)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        return ["whopf", "groupoid", "--json", str(path), "check"]

    return make


def _file_case(command, source, corrupt):
    def make(tmp_path, capsys):
        if source == "nsy":
            payload = _nsy_build_payload(capsys)
        else:
            payload = weak_hopf_to_json(groupoid_algebra(pair_groupoid(2)))
        corrupt(payload)
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        return [*command, str(path)]

    return make


# the three commands that read a JSON file
_FILE_COMMANDS = {
    "verify": lambda path: ["verify", path],
    "whopf": lambda path: ["whopf", "check", path],
    "groupoid": lambda path: ["whopf", "groupoid", "--json", path, "check"],
}


def _bytes_case(command, data: bytes):
    """``command`` on a file holding exactly ``data``."""

    def make(tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_bytes(data)
        return _FILE_COMMANDS[command](str(path))

    return make


def _unknown_compose_name(payload):
    payload["compose"][0][2] = "nope"


def _short_inv(payload):
    payload["inv"][0] = payload["inv"][0][:1]


def _unhashable_objects(payload):
    payload["objects"] = [[x] for x in payload["objects"]]


def _insert(field, entry):
    """Put ``entry`` first in a groupoid field, so a later entry repeats it."""

    def corrupt(payload):
        payload[field].insert(0, entry)

    return corrupt


def _unhashable_morphism_id(payload):
    payload["morphisms"][0]["id"] = ["id0"]


def _z2_integer_and_string_ids(tmp_path, capsys):
    """Z/2 with morphism ids 1 and "1": two morphisms, one printed label."""
    payload = {
        "objects": ["x"],
        "morphisms": [{"id": 1, "src": "x", "tgt": "x"}, {"id": "1", "src": "x", "tgt": "x"}],
        "compose": [[1, 1, 1], [1, "1", "1"], ["1", 1, "1"], ["1", "1", 1]],
        "inv": [[1, 1], ["1", "1"]],
    }
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(payload))
    return ["whopf", "groupoid", "--json", str(path), "integrals"]


def _missing_output_dir(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    return ["nsy", "build", "n=2", "ell=2", "m=1,1", "--output", str(target)]


def _argv(*argv):
    return lambda tmp_path, capsys: list(argv)


def _with_flags(case, *flags):
    return lambda tmp_path, capsys: [*case(tmp_path, capsys), *flags]


def _huge_integer(case):
    """``case`` with the string "HUGE" in its input file turned into a bare
    JSON integer of 4,301 digits, past the interpreter's int-digit limit."""

    def make(tmp_path, capsys):
        argv = case(tmp_path, capsys)
        for path in tmp_path.glob("*.json"):
            path.write_text(path.read_text().replace('"HUGE"', "9" * 4301))
        return argv

    return make


def _huge_object(payload):
    payload["objects"][0] = "HUGE"


def _drop_morphism_delta(payload):
    # Delta(m0_1) = 0: the integrals stay, but no Psi_L is invertible
    payload["delta_wk"] = [e for e in payload["delta_wk"] if e[0] != 1]


MALFORMED_INPUTS = {
    "verify_non_integer_mult_index": _file_case(["verify"], "nsy", _set("mult", 0, "a")),
    "verify_list_delta_index": _file_case(["verify"], "nsy", _set("delta", 1, [1])),
    "verify_float_mult_value": _file_case(["verify"], "nsy", _set("mult", 3, 0.1)),
    "verify_bool_unit_value": _file_case(["verify"], "nsy", _set("unit", 1, True)),
    "verify_exponent_delta_value": _file_case(["verify"], "nsy", _set("delta", 2, "1e999999")),
    # equal dict keys: True == 1 == 1.0, so a parsed-literal memo keyed by
    # any value, not by string, would let the second value through
    "verify_int_then_bool_unit_value": _file_case(
        ["verify"], "nsy", _set_values("unit", 1, True)
    ),
    "verify_int_then_float_mult_value": _file_case(
        ["verify"], "nsy", _set_values("mult", 1, 1.0)
    ),
    # well-formed files whose last entry sends its field off the bulk path
    "verify_zero_denominator_delta_value": _file_case(
        ["verify"], "nsy", _set_last("delta", 2, "1/0")
    ),
    "verify_mult_index_at_dim": _file_case(["verify"], "nsy", _set_last("mult", 2)),
    "verify_unit_index_at_dim": _file_case(["verify"], "nsy", _set_last("unit", 0)),
    "whopf_short_delta_wk_entry": _file_case(["whopf", "check"], "whopf", _truncate("delta_wk")),
    "whopf_non_integer_delta_wk_index": _file_case(
        ["whopf", "check"], "whopf", _set("delta_wk", 0, "x")
    ),
    "groupoid_unknown_compose_name": _groupoid_case(_unknown_compose_name),
    "groupoid_short_inv_entry": _groupoid_case(_short_inv),
    "groupoid_inv_missing_morphism": _groupoid_case(lambda payload: payload["inv"].pop()),
    "groupoid_unhashable_objects": _groupoid_case(_unhashable_objects),
    "groupoid_top_level_list": _bytes_case("groupoid", b'[{"objects": ["x"]}]'),
    "output_missing_directory": _missing_output_dir,
    "qtg_cyclic_zero_L": _argv("whopf", "qtg", "--L", "cyclic:0", "--B", "cyclic:2", "check"),
    "qtg_trivial_with_size": _argv("whopf", "qtg", "--L", "trivial:3", "--B", "cyclic:2", "check"),
    "qtg_cyclic_L_without_size": _argv("whopf", "qtg", "--L", "cyclic", "--B", "cyclic:2", "check"),
    "groupoid_cyclic_group_without_size": _argv(
        "whopf", "groupoid", "--objects", "2", "--group", "cyclic", "check"
    ),
    "groupoid_cyclic_zero_group": _argv(
        "whopf", "groupoid", "--objects", "2", "--group", "cyclic:0", "check"
    ),
    "groupoid_two_sources": _argv(
        "whopf", "groupoid", "--pair-objects", "2", "--objects", "3", "check"
    ),
    "groupoid_json_and_pair_objects": _with_flags(
        _groupoid_case(lambda payload: None), "--pair-objects", "2"
    ),
    "groupoid_cyclic_is_not_a_source": _argv("whopf", "groupoid", "--cyclic", "3", "check"),
    "groupoid_objects_with_cyclic": _argv(
        "whopf", "groupoid", "--objects", "2", "--cyclic", "3", "check"
    ),
    "groupoid_pair_objects_with_group": _argv(
        "whopf", "groupoid", "--pair-objects", "2", "--group", "cyclic:5", "check"
    ),
    "group_with_L": _argv("whopf", "group", "--cyclic", "2", "--L", "cyclic:3", "check"),
    "qtg_with_objects": _argv(
        "whopf", "qtg", "--L", "cyclic:2", "--B", "cyclic:2", "--objects", "4", "check"
    ),
    "whopf_file_with_cyclic": _with_flags(
        _file_case(["whopf", "check"], "whopf", lambda payload: None), "--cyclic", "3"
    ),
    "verify_huge_integer_literal": _huge_integer(
        _file_case(["verify"], "nsy", _set("mult", 3, "HUGE"))
    ),
    "whopf_huge_integer_literal": _huge_integer(
        _file_case(["whopf", "check"], "whopf", _set("delta_wk", 0, "HUGE"))
    ),
    "groupoid_huge_integer_literal": _huge_integer(_groupoid_case(_huge_object)),
    "nsy_repeated_parameter": _argv("nsy", "check", "n=2", "ell=2", "m=1,1", "m=2,2"),
    "repeated_format_flag": _argv(
        "nsy", "check", "n=2", "ell=2", "m=1,1", "--format", "json", "--format", "csv"
    ),
    "repeated_seed_flag": _argv(
        "whopf", "group", "--cyclic", "2", "--seed", "1", "--seed", "2", "integrals"
    ),
    "csv_nsy_counit": _argv("nsy", "counit", "n=2", "ell=2", "m=1,1", "--format", "csv"),
    "csv_whopf_integrals": _argv(
        "whopf", "group", "--cyclic", "2", "integrals", "--format", "csv"
    ),
    "qtg_action_flag_unknown": _argv(
        "whopf", "qtg", "--L", "trivial", "--B", "cyclic:2", "--action", "trivial"
    ),
    "nsy_check_with_cyclic": _argv("nsy", "check", "n=2", "ell=2", "m=1,1", "--cyclic", "3"),
    "nsy_sweep_with_B": _argv("nsy", "sweep", "nmax=1", "lmax=1", "mmax=1", "--B", "cyclic:2"),
    "nsy_sweep_grid_too_large": _argv("nsy", "sweep", "nmax=1000000000"),
    "nsy_table_with_json": _argv("nsy", "table", "n=1", "ell=1", "m=1", "--json", "x"),
    "verify_with_objects_and_seed": _with_flags(
        _file_case(["verify"], "nsy", lambda payload: None), "--objects", "3", "--seed", "4"
    ),
    # each repeat comes before the entry that used to win
    "groupoid_contradictory_compose": _groupoid_case(_insert("compose", ["id0", "id0", "m0_1"])),
    "groupoid_contradictory_inv": _groupoid_case(_insert("inv", ["id0", "id1"])),
    "groupoid_duplicate_object": _groupoid_case(_insert("objects", 1)),
    "groupoid_duplicate_morphism_id": _groupoid_case(
        _insert("morphisms", {"id": "m1_0", "src": 0, "tgt": 0})
    ),
    "groupoid_unhashable_morphism_id": _groupoid_case(_unhashable_morphism_id),
    "groupoid_colliding_morphism_labels": _z2_integer_and_string_ids,
    "format_flag_without_value": _argv("nsy", "check", "n=2", "ell=2", "m=1,1", "--format"),
    "seed_not_an_integer": _argv("whopf", "group", "--cyclic", "2", "--seed", "x"),
    "seed_negative": _argv("whopf", "group", "--cyclic", "2", "--seed", "-1"),
    "nsy_parameter_without_value": _argv("nsy", "check", "n=2", "ell"),
    "nsy_parameter_not_an_integer": _argv("nsy", "check", "n=x", "ell=2", "m=1,1"),
    "nsy_without_action": _argv("nsy"),
    "nsy_unknown_action": _argv("nsy", "bogus", "n=2", "ell=2", "m=1,1"),
    # the action is named before the parameters are parsed
    "nsy_misspelled_action_without_parameters": _argv("nsy", "biuld"),
    "nsy_misspelled_action_with_unknown_parameter": _argv("nsy", "biuld", "foo=1"),
    "nsy_unknown_parameter": _argv("nsy", "check", "n=2", "ell=2", "m=1,1", "k=3"),
    "nsy_sweep_unknown_parameter": _argv("nsy", "sweep", "k=3"),
    "nsy_sweep_bound_not_an_integer": _argv("nsy", "sweep", "nmax=x"),
    "nsy_sweep_bound_zero": _argv("nsy", "sweep", "mmax=0"),
    "nsy_sweep_work_too_large": _argv("nsy", "sweep", "nmax=1", "lmax=10000", "mmax=1"),
    "nsy_dimension_too_large": _argv("nsy", "check", "n=1", "ell=1000000000", "m=1"),
    "nsy_products_too_many": _argv("nsy", "check", "n=1", "ell=894", "m=1"),
    "qtg_B_size_not_an_integer": _argv("whopf", "qtg", "--B", "matrix:x"),
    "qtg_B_unknown_kind": _argv("whopf", "qtg", "--B", "bogus:2"),
    "qtg_without_B": _argv("whopf", "qtg"),
    "qtg_B_without_size": _argv("whopf", "qtg", "--B", "matrix"),
    "qtg_too_large": _argv("whopf", "qtg", "--L", "cyclic:100000", "--B", "matrix:100"),
    "group_without_cyclic": _argv("whopf", "group"),
    "group_cyclic_not_an_integer": _argv("whopf", "group", "--cyclic", "x"),
    "group_too_large": _argv("whopf", "group", "--cyclic", "100000"),
    "groupoid_pair_objects_too_large": _argv("whopf", "groupoid", "--pair-objects", "100000"),
    "whopf_missing_file": lambda tmp_path, capsys: ["whopf", str(tmp_path / "missing.json")],
    "whopf_without_source": _argv("whopf"),
    "whopf_check_without_file": _argv("whopf", "check"),
    "whopf_unknown_operation": _argv("whopf", "group", "bogus", "--cyclic", "2"),
    "verify_without_file": _argv("verify"),
    **{f"{c}_file_not_utf8": _bytes_case(c, b"\xff{}") for c in _FILE_COMMANDS},
    **{
        f"{c}_file_nested_100000_deep": _bytes_case(c, b"[" * 100_000 + b"]" * 100_000)
        for c in _FILE_COMMANDS
    },
}

NOT_UTF8 = (
    "cannot read {tmp}/in.json: "
    "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
)
TOO_DEEP = (
    "JSON parse error in {tmp}/in.json: "
    "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
)


Z2_GROUP = {
    "objects": ["x"],
    "morphisms": [{"id": "e", "src": "x", "tgt": "x"}, {"id": "g", "src": "x", "tgt": "x"}],
    "compose": [["e", "e", "e"], ["e", "g", "e"], ["e", "g", "g"], ["g", "e", "g"], ["g", "g", "e"]],
    "inv": [["e", "e"], ["g", "e"], ["g", "g"]],
}


@pytest.mark.parametrize(
    "case, message",
    [
        ("groupoid_contradictory_compose", "compose entry ('id0', 'id0') listed more than once"),
        ("groupoid_contradictory_inv", "inv entry for 'id0' listed more than once"),
        ("groupoid_duplicate_object", "object 1 listed more than once"),
        ("groupoid_duplicate_morphism_id", "morphism id 'm1_0' listed more than once"),
        ("groupoid_unhashable_morphism_id", "bad morphism entry {'id': ['id0'], 'src': 0, 'tgt': 0}"),
        ("groupoid_colliding_morphism_labels", "morphism ids 1 and '1' share the label '1'"),
    ],
)
def test_groupoid_json_repeat_is_named(case, message, tmp_path, capsys):
    argv = MALFORMED_INPUTS[case](tmp_path, capsys)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "case, message",
    [
        ("format_flag_without_value", "flag --format needs a value"),
        ("seed_not_an_integer", "bad seed 'x'"),
        ("seed_negative", "seed must be non-negative"),
        ("nsy_parameter_without_value", "expected key=value, got 'ell'"),
        (
            "nsy_parameter_not_an_integer",
            "n, ell must be integers and m a comma list of integers",
        ),
        ("nsy_without_action", "nsy needs an action: build, table, delta, counit, check, sweep"),
        ("nsy_unknown_action", "unknown nsy action 'bogus'"),
        ("nsy_misspelled_action_without_parameters", "unknown nsy action 'biuld'"),
        ("nsy_misspelled_action_with_unknown_parameter", "unknown nsy action 'biuld'"),
        ("nsy_unknown_parameter", "unknown parameters: k"),
        ("nsy_sweep_unknown_parameter", "unknown parameters: k"),
        ("nsy_sweep_bound_not_an_integer", "sweep bounds must be integers"),
        ("nsy_sweep_bound_zero", "sweep bounds must be >= 1"),
        ("nsy_sweep_grid_too_large", "sweep grid has more than 10000 points"),
        ("nsy_sweep_work_too_large", "sweep grid sums dim^2 to more than 6250000"),
        ("nsy_dimension_too_large", "NSY algebra of dimension 1000000000 is above the bound 2500"),
        (
            "nsy_products_too_many",
            "NSY algebra of dimension 894 multiplies 400065 basis pairs, more than 400000",
        ),
        ("qtg_B_size_not_an_integer", "bad argument in 'matrix:x'"),
        ("qtg_B_unknown_kind", "expected one of matrix, cyclic, got 'bogus:2'"),
        ("qtg_without_B", "qtg needs --B matrix:D or --B cyclic:N"),
        ("qtg_B_without_size", "--B 'matrix' needs a size, e.g. matrix:2"),
        (
            "qtg_too_large",
            "quantum transformation groupoid (cyclic:100000, matrix:100) multiplies "
            f"{(100000 * 100**4) ** 2} basis pairs, more than 400000",
        ),
        ("group_without_cyclic", "group needs --cyclic N"),
        ("group_cyclic_not_an_integer", "--cyclic must be an integer"),
        (
            "group_too_large",
            "group algebra k(Z/100000) multiplies 10000000000 basis pairs, more than 400000",
        ),
        (
            "groupoid_pair_objects_too_large",
            f"pair groupoid on 100000 objects multiplies {100000**3} basis pairs, more than 400000",
        ),
        ("verify_zero_denominator_delta_value", "bad rational literal '1/0': Fraction(1, 0)"),
        ("verify_mult_index_at_dim", "index 4 out of range for dimension 4"),
        ("verify_unit_index_at_dim", "index 4 out of range for dimension 4"),
        (
            "whopf_missing_file",
            "cannot read {tmp}/missing.json: No such file or directory",
        ),
        ("whopf_without_source", "whopf needs a source (groupoid, group, qtg, or a JSON file)"),
        ("whopf_check_without_file", "whopf check needs an input file"),
        ("whopf_unknown_operation", "unknown whopf operation 'bogus'"),
        ("verify_without_file", "verify needs exactly one input file (or - for stdin)"),
        ("groupoid_top_level_list", "missing or malformed field: 'objects'"),
        ("groupoid_inv_missing_morphism", "inverse table must cover every morphism"),
        *[(f"{c}_file_not_utf8", NOT_UTF8) for c in _FILE_COMMANDS],
        *[(f"{c}_file_nested_100000_deep", TOO_DEEP) for c in _FILE_COMMANDS],
    ],
)
def test_malformed_input_message_is_pinned(case, message, tmp_path, capsys):
    argv = MALFORMED_INPUTS[case](tmp_path, capsys)
    assert run(capsys, *argv) == (2, "", f"error: {message.format(tmp=tmp_path)}\n")


class Reached(Exception):
    """Raised by a spy in place of the work it stands for."""


def _spy(calls: list, name: str):
    def record(*args):
        calls.append(name)
        raise Reached(name)

    return record


@pytest.mark.parametrize(
    "bounds, refused",
    [
        (("nmax=4", "lmax=4", "mmax=3"), False),  # the wide sweep: sum dim^2 = 990,362
        (("nmax=1", "lmax=265", "mmax=1"), False),  # sum dim^2 = 6,238,345
        (("nmax=1", "lmax=266", "mmax=1"), True),  # sum dim^2 = 6,309,261
        (("nmax=1", "lmax=10000", "mmax=1"), True),  # 10,000 points, each with dim ell
    ],
)
def test_sweep_work_is_bounded_before_any_instance_runs(bounds, refused, capsys, monkeypatch):
    """A grid within the point bound whose instances sum to more than
    6,250,000 in dim^2 exits 2 before classify_report runs once."""
    calls = []
    monkeypatch.setattr(cli, "classify_report", _spy(calls, "classify_report"))
    if refused:
        message = "error: sweep grid sums dim^2 to more than 6250000\n"
        assert run(capsys, "nsy", "sweep", *bounds) == (2, "", message)
        assert calls == []
    else:
        with pytest.raises(Reached):
            main(["nsy", "sweep", *bounds])


def test_sweep_work_is_refused_as_the_grid_is_walked(capsys):
    """10,000 points, so within the point bound, whose sum of dim^2 passes
    6,250,000 by n = 155.  Building the whole grid first (n up to 5,000)
    peaked at 202 MB under tracemalloc; walking it stops there."""
    tracemalloc.start()
    try:
        result = run(capsys, "nsy", "sweep", "nmax=5000", "lmax=2", "mmax=1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (2, "", "error: sweep grid sums dim^2 to more than 6250000\n")
    assert peak < 5_000_000


_BUILDERS = (
    "cyclic_group_table",
    "pair_groupoid",
    "connected_groupoid",
    "hopf_group_algebra",
    "trivial_hopf",
    "separable_matrix_algebra",
    "separable_group_algebra",
)


@pytest.mark.parametrize(
    "argv, pairs",
    [
        (["nsy", "check", "n=8", "ell=8", "m=6,6,6,6,6,6,6,6"], None),  # dim 2,304
        (["nsy", "table", "n=1", "ell=893", "m=1"], None),  # 399,171 products
        (["nsy", "build", "n=1", "ell=2501", "m=1"], "NSY algebra of dimension 2501"),
        (["nsy", "delta", "n=2", "ell=1000000000", "m=1,1"], "NSY algebra of dimension 2000000000"),
        (["whopf", "group", "--cyclic", "632"], None),
        (["whopf", "group", "--cyclic", "633"], "group algebra k(Z/633) multiplies 400689"),
        (["whopf", "groupoid", "--pair-objects", "73"], None),
        (
            ["whopf", "groupoid", "--pair-objects", "74"],
            "pair groupoid on 74 objects multiplies 405224",
        ),
        (["whopf", "groupoid", "--objects", "8", "--group", "cyclic:27"], None),
        (
            ["whopf", "groupoid", "--objects", "8", "--group", "cyclic:28"],
            "connected groupoid on 8 objects with Z/28 multiplies 401408",
        ),
        (["whopf", "qtg", "--L", "trivial", "--B", "matrix:5"], None),  # dim 625
        (["whopf", "qtg", "--L", "cyclic:2", "--B", "matrix:4"], None),  # dim 512
        (
            ["whopf", "qtg", "--L", "cyclic:2", "--B", "matrix:5"],
            "quantum transformation groupoid (cyclic:2, matrix:5) multiplies 1562500",
        ),
        (
            ["whopf", "qtg", "--L", "cyclic:7", "--B", "cyclic:10"],
            "quantum transformation groupoid (cyclic:7, cyclic:10) multiplies 490000",
        ),
        (["nsy", "check", "n=1", "ell=894", "m=1"], "NSY algebra of dimension 894 multiplies 400065"),
    ],
)
def test_sources_are_sized_before_they_are_built(argv, pairs, capsys, monkeypatch):
    """Above the bound, exit 2 before the first builder runs; at or below
    it, the first builder is reached.  Every builder is a spy."""
    calls = []
    for name in _BUILDERS:
        monkeypatch.setattr(cli, name, _spy(calls, name))
    monkeypatch.setattr(nsy_mod, "_layout", _spy(calls, "_layout"))
    if pairs is None:
        with pytest.raises(Reached):
            main(argv)
    else:
        code, out, err = run(capsys, *argv)
        assert (code, out, calls) == (2, "", [])
        bound = "basis pairs, more than 400000" if "multiplies" in pairs else "is above the bound 2500"
        assert err == f"error: {pairs} {bound}\n"


@pytest.mark.parametrize(
    "field, message",
    [
        ("compose", "compose entry ('e', 'g') listed more than once"),
        ("inv", "inv entry for 'g' listed more than once"),
    ],
)
def test_contradictory_group_table_is_rejected(field, message, tmp_path, capsys):
    """Z/2 with e g listed as e, then g, or g^-1 as e, then g: the last entry
    made a valid group, and no entry may silently win over another."""
    other = "inv" if field == "compose" else "compose"
    payload = {**Z2_GROUP, other: [e for i, e in enumerate(Z2_GROUP[other]) if i != 1]}
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "whopf", "groupoid", "--json", str(path), "check")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exit_two_one_line(case, tmp_path, capsys):
    argv = MALFORMED_INPUTS[case](tmp_path, capsys)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.endswith("\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["groupoid", "--pair-objects", "2", "check"],
        ["group", "--cyclic", "2", "frobenius"],
        ["qtg", "--L", "trivial", "--B", "cyclic:2", "integrals"],
        ["FILE", "check"],
        ["check", "FILE"],
    ],
    ids=["groupoid", "group", "qtg", "file_op", "op_file"],
)
def test_whopf_one_extra_argument(argv, tmp_path, capsys):
    path = str(tmp_path / "in.json")
    argv = [path if a == "FILE" else a for a in argv]
    code, out, err = run(capsys, "whopf", *argv, "extra")
    assert (code, out, err) == (2, "", "error: unexpected arguments: extra\n")


def test_groupoid_json_non_associative(tmp_path, capsys):
    """Associativity of groupoid JSON is decided by the weak Hopf check of
    its algebra, which names the failed axiom."""
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(groupoid_to_json(non_associative_groupoid())))
    code, out, err = run(capsys, "whopf", "groupoid", "--json", str(path), "check")
    assert (code, out) == (2, "")
    assert err == "error: groupoid algebra failed axiom associativity\n"


def test_whopf_file_frobenius_reaches_the_seeded_draws(tmp_path, capsys, psi_solve_calls):
    """On the exported (trivial, M_2) QTG the basis integrals and their sum
    are degenerate, so the search draws; the seed makes the answer repeat,
    and it is always Frobenius."""
    path = tmp_path / "qtg.json"
    argv = ["whopf", "qtg", "--L", "trivial", "--B", "matrix:2", "check", "--output", str(path)]
    assert run(capsys, *argv)[0] == 0
    h = weak_hopf_from_json(json.loads(path.read_text()))
    undrawn = len(integral_space(h, "left")) + 1
    runs = []
    for _ in range(2):
        psi_solve_calls.clear()
        runs.append(run(capsys, "whopf", str(path), "frobenius", "--seed", "7"))
        assert len(psi_solve_calls) > undrawn
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert (code, err) == (0, "")
    assert "classification: Frobenius\n" in out


@pytest.mark.parametrize("op", ["integrals", "frobenius"])
@pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
def test_whopf_file_is_checked_before_integrals_and_frobenius(op, fmt, tmp_path, capsys):
    """Data that fails a weak Hopf axiom gets no integral answer: exit 1 and
    one line naming the first failed axiom."""
    argv = _file_case(["whopf", op], "whopf", _drop_morphism_delta)(tmp_path, capsys)
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (1, "")
    assert err.startswith(f"check failed: data from {argv[-1]} fails weak Hopf axiom ")
    assert err.count("\n") == 1


def test_whopf_check_output_reports_failed_axiom(tmp_path, capsys):
    """whopf check FILE --output PATH still writes the normalized data on a
    failed check, exits 1 and names the first failed axiom on stderr."""
    argv = _file_case(["whopf", "check"], "whopf", _drop_morphism_delta)(tmp_path, capsys)
    target = tmp_path / "out.json"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert (code, out) == (1, "")
    assert err == f"check failed: data from {argv[-1]} fails weak Hopf axiom counit_wk_left\n"
    data = json.loads((tmp_path / "in.json").read_text())
    assert target.read_text() == dump_json(weak_hopf_to_json(weak_hopf_from_json(data)))


def test_qtg_matrix3_check_passes(capsys):
    # dim 81: the largest QTG the CLI builds from flags in a few seconds
    code, out, _ = run(capsys, "whopf", "qtg", "--L", "trivial", "--B", "matrix:3", "check")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert len(lines) > 1
    assert all(line.startswith("[PASS] ") for line in lines)


def test_verify_large_empty_tables_in_bounded_memory(tmp_path, capsys):
    """A 3000-dimensional algebra with empty tables is judged from its entries
    alone: the monomial table holds only the products in ``mult``, so the
    peak stays far below the 70 MB a d x d table would take."""
    import tracemalloc

    dim = 3000
    path = tmp_path / "big.json"
    labels = [f"e{k}" for k in range(dim)]
    path.write_text(json.dumps({"dim": dim, "labels": labels, "mult": [], "unit": [], "delta": []}))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (1, "")
    assert out == (
        "[PASS] associativity\n"
        "[FAIL] unit_left  at (0,) (1 * e_k != e_k)\n"
        "[FAIL] unit_right  at (0,) (e_k * 1 != e_k)\n"
        "[PASS] coassociativity\n"
        "[PASS] bimodule_right\n"
        "[PASS] bimodule_left\n"
        "classification: NotFrobeniusStructure\n"
    )
    assert peak < 8_000_000


def test_only_cli_imports_csv_or_io():
    """Tables are rendered in one place: no module of the package but cli.py
    imports csv or io."""
    import ast
    from pathlib import Path

    import frobkit

    root = Path(frobkit.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "cli.py" and path.parent == root:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] in ("csv", "io") for name in names):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []
