"""Command-line interface tests: golden output, exit codes, round trips."""

import json

import pytest

import golden
from frobkit.cli import main
from frobkit.finalg import comult_from_json, comult_to_json_str
from frobkit.nsy import basis_indices, basis_label
from frobkit.whopf import (
    groupoid_algebra,
    pair_groupoid,
    weak_hopf_to_json,
)


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


def test_build_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "b2211.json"
    code, _, _ = run(capsys, "nsy", "build", "n=2", "ell=2", "m=1,1", "--output", str(path))
    assert code == 0
    text = path.read_text()
    # byte-identical re-export after re-import
    assert comult_to_json_str(comult_from_json(json.loads(text))) == text
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "classification: Frobenius" in out


def test_verify_non_counital(tmp_path, capsys):
    path = tmp_path / "b2221.json"
    run(capsys, "nsy", "build", "n=2", "ell=2", "m=2,1", "--output", str(path))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "classification: NonCounitalOnly" in out


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


def test_verify_stdin(tmp_path, capsys, monkeypatch):
    import io

    path = tmp_path / "b.json"
    run(capsys, "nsy", "build", "n=2", "ell=2", "m=1,1", "--output", str(path))
    monkeypatch.setattr("sys.stdin", io.StringIO(path.read_text()))
    code, out, _ = run(capsys, "verify", "-")
    assert code == 0
    assert "Frobenius" in out


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
    from frobkit.whopf import weak_hopf_from_json, weak_hopf_to_json_str

    assert weak_hopf_to_json_str(weak_hopf_from_json(json.loads(text))) == text


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


def _truncate(field):
    def corrupt(payload):
        payload[field][0] = payload[field][0][:2]

    return corrupt


def _groupoid_case(corrupt):
    def make(tmp_path, capsys):
        from frobkit.whopf import groupoid_to_json

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


def _unknown_compose_name(payload):
    payload["compose"][0][2] = "nope"


def _short_inv(payload):
    payload["inv"][0] = payload["inv"][0][:1]


def _unhashable_objects(payload):
    payload["objects"] = [[x] for x in payload["objects"]]


def _missing_output_dir(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    return ["nsy", "build", "n=2", "ell=2", "m=1,1", "--output", str(target)]


def _argv(*argv):
    return lambda tmp_path, capsys: list(argv)


MALFORMED_INPUTS = {
    "verify_non_integer_mult_index": _file_case(["verify"], "nsy", _set("mult", 0, "a")),
    "verify_list_delta_index": _file_case(["verify"], "nsy", _set("delta", 1, [1])),
    "verify_float_mult_value": _file_case(["verify"], "nsy", _set("mult", 3, 0.1)),
    "verify_bool_unit_value": _file_case(["verify"], "nsy", _set("unit", 1, True)),
    "verify_exponent_delta_value": _file_case(["verify"], "nsy", _set("delta", 2, "1e999999")),
    "whopf_short_delta_wk_entry": _file_case(["whopf", "check"], "whopf", _truncate("delta_wk")),
    "whopf_non_integer_delta_wk_index": _file_case(
        ["whopf", "check"], "whopf", _set("delta_wk", 0, "x")
    ),
    "groupoid_unknown_compose_name": _groupoid_case(_unknown_compose_name),
    "groupoid_short_inv_entry": _groupoid_case(_short_inv),
    "groupoid_unhashable_objects": _groupoid_case(_unhashable_objects),
    "output_missing_directory": _missing_output_dir,
    "qtg_cyclic_zero_L": _argv("whopf", "qtg", "--L", "cyclic:0", "--B", "cyclic:2", "check"),
    "groupoid_cyclic_zero_group": _argv(
        "whopf", "groupoid", "--objects", "2", "--group", "cyclic:0", "check"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exit_two_one_line(case, tmp_path, capsys):
    argv = MALFORMED_INPUTS[case](tmp_path, capsys)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.endswith("\n") and err.count("\n") == 1


def test_qtg_matrix3_check_passes(capsys):
    # dim 81: the largest QTG the CLI builds from flags in a few seconds
    code, out, _ = run(capsys, "whopf", "qtg", "--L", "trivial", "--B", "matrix:3", "check")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert len(lines) > 1
    assert all(line.startswith("[PASS] ") for line in lines)
