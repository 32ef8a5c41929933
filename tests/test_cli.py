from __future__ import annotations

import json

import pytest

from gwdesc import (
    GwdescError,
    ModelError,
    PolicyMismatchError,
    ReconstructionError,
    TableFormatError,
    TautTableError,
    UnsupportedQueryError,
)
from gwdesc import cli, phase
from gwdesc.cli import main, parse_insertions, CliError
from gwdesc.exact import NovikovSeries
from gwdesc.phase import PhaseTransform


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_insertion_parsing():
    assert parse_insertions("tau(1):one,tau(0):h") == [(1, 0, "one"), (0, 0, "h")]
    assert parse_insertions("tau(0,2):h2") == [(0, 2, "h2")]
    with pytest.raises(CliError, match="insertion 2"):
        parse_insertions("tau(1):one,tau(x):h")


def test_correlator_fixed_class(capsys):
    code, out, _ = run(capsys, "correlator", "--model", "P1", "--beta", "1", "--ins", "tau(1):one,tau(0):h")
    assert code == 0
    assert out.strip() == "-1"


def test_correlator_series(capsys):
    code, out, _ = run(
        capsys, "correlator", "--model", "P2", "--qmax", "1", "--ins", "tau(0):h2,tau(0):h2,tau(0):h"
    )
    assert code == 0
    assert out.strip() == "1·q^[1]"


def test_correlator_zero_class_two_point(capsys):
    code, out, _ = run(capsys, "correlator", "--model", "P1", "--beta", "0", "--ins", "tau(0):h,tau(0):h")
    assert code == 0
    assert out.strip() == "0"


def test_correlator_generalized_insertion(capsys):
    code, out, _ = run(
        capsys, "correlator", "--model", "P1", "--beta", "1", "--ins", "tau(0,1):h,tau(0):h,tau(0):one"
    )
    assert code == 0
    assert out.strip() == "0"


def test_correlator_out_of_scope(capsys):
    code, _, err = run(capsys, "correlator", "--model", "P1", "--beta", "1", "--genus", "1", "--ins", "tau(0):h")
    assert code == 2
    assert "out of scope" in err


def test_correlator_negative_genus_at_nonzero_class(capsys):
    code, out, err = run(
        capsys, "correlator", "--model", "P1", "--beta", "1", "--genus", "-1", "--ins", "tau(1):one,tau(0):h"
    )
    assert code == 2
    assert out == ""
    assert err == "error: genus must be non-negative\n"


@pytest.mark.parametrize(
    "error, builtin",
    [
        (ModelError, ValueError),
        (PolicyMismatchError, ValueError),
        (TableFormatError, ValueError),
        (UnsupportedQueryError, ValueError),
        (ReconstructionError, RuntimeError),
        (TautTableError, KeyError),
        (CliError, ValueError),
    ],
)
def test_library_errors_share_one_base(error, builtin):
    # existing handlers that catch the builtin base still catch the error
    assert issubclass(error, GwdescError)
    assert issubclass(error, builtin)


def test_correlator_non_effective_class_with_pulled_back_power(capsys):
    code, out, err = run(
        capsys, "correlator", "--model", "P1", "--beta", "-1", "--ins", "tau(0,1):h,tau(0):h,tau(0):h"
    )
    assert code == 2
    assert out == ""
    assert err == "error: curve classes must be effective\n"


def test_correlator_missing_tautological_integral(capsys):
    code, out, err = run(
        capsys, "correlator", "--model", "P1", "--genus", "2", "--beta", "0", "--ins", "tau(2):one,tau(1):h"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: table incomplete")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_correlator_deeper_than_the_stack(capsys):
    code, out, err = run(capsys, "correlator", "--model", "P1", "--beta", "300", "--ins", "tau(598):h,tau(0):h")
    assert code == 2
    assert out == ""
    assert err == "error: the reduction is deeper than the interpreter stack allows\n"


def test_correlator_unknown_label(capsys):
    code, _, err = run(capsys, "correlator", "--model", "P1", "--beta", "1", "--ins", "tau(0):nope")
    assert code == 2
    assert "unknown basis label" in err


def test_intersect(capsys):
    assert run(capsys, "intersect", "--n", "5", "--psi", "1,1,0,0,0")[1].strip() == "2"
    assert run(capsys, "intersect", "--n", "3", "--psi", "0,0,0")[1].strip() == "1"
    assert run(capsys, "intersect", "--n", "4", "--psi", "2,0,0,0")[1].strip() == "0"
    code, _, err = run(capsys, "intersect", "--n", "4", "--psi", "2,0,0")
    assert code == 2 and "exactly" in err


def test_transform_dump_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["transform", "--model", "P1", "--qmax", "1", "--dmax", "2", "--out", str(out1)]) == 0
    assert main(["transform", "--model", "P1", "--qmax", "1", "--dmax", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert {"transform", "inverse", "model", "max_beta_degree", "max_descendant"} <= set(payload)
    entries = {
        (tuple(rec["out"]), tuple(rec["in"]), tuple(rec["beta"])): rec["value"]
        for rec in payload["transform"]
    }
    assert entries[((0, "one"), (1, "h"), (1,))] == "1"
    assert entries[((0, "one"), (2, "one"), (1,))] == "-1"


def test_potential_dump(tmp_path):
    out = tmp_path / "phi.json"
    assert main(
        [
            "potential", "--model", "P1", "--which", "primary",
            "--qmax", "1", "--xdeg", "3", "--dmax", "0", "--out", str(out),
        ]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["which"] == "primary"
    values = {
        (tuple(tuple(i) for i in rec["indices"]), tuple(rec["beta"])): rec["value"]
        for rec in payload["coefficients"]
    }
    assert values[(((0, "h"), (0, "h"), (0, "h")), (1,))] == "1/6"


def test_validate_fixture(capsys):
    code, out, _ = run(capsys, "validate", "--model", "P2")
    assert code == 0
    assert "PASS pairing-nondegenerate" in out


def test_validate_broken_model(tmp_path, capsys):
    from gwdesc import load_fixture

    data = load_fixture("P1").model.to_dict()
    data["integral"] = {}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", "--model", str(path))
    assert code == 2
    assert "FAIL pairing-nondegenerate" in out


@pytest.mark.parametrize("zeros", [0, 2])
def test_validate_reports_identity_unique(tmp_path, capsys, zeros):
    # the constructor used to raise first: "malformed geometry file: need exactly one degree-0 basis element"
    from gwdesc import load_fixture

    data = load_fixture("P1").model.to_dict()
    if zeros:
        data["basis"].append({"label": "e", "degree": 0})
    else:
        data["basis"][0]["degree"] = 1
    path = tmp_path / "units.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", "--model", str(path))
    assert code == 2
    assert f"FAIL identity-unique (degree-0 elements: {zeros})" in out.splitlines()
    code, out, err = run(capsys, "correlator", "--model", str(path), "--beta", "0", "--ins", "tau(0):h,tau(0):h,tau(0):h")
    assert code == 2
    assert out == ""
    assert err.startswith("error: geometry 'P1' failed validation: identity-unique, ")


def test_verify_point_oracle(capsys):
    code, out, _ = run(capsys, "verify", "--model", "point", "--suite", "point-oracle", "--nmax", "6")
    assert code == 0
    assert "[PASS] suite point-oracle" in out


def test_verify_failure_exit_code(tmp_path, capsys):
    # a tampered plane table breaks the enumerative oracle comparison
    from gwdesc import load_fixture

    fixture = load_fixture("P2")
    geometry = tmp_path / "plane.json"
    geometry.write_text(json.dumps(fixture.model.to_dict()))
    table = tmp_path / "table.json"
    table.write_text(json.dumps([{"beta": [1], "classes": ["h", "h2", "h2"], "value": "7"}]))
    code, out, _ = run(
        capsys, "verify", "--model", str(geometry), "--primary", str(table),
        "--suite", "enumerative",
    )
    assert code == 1
    assert "[FAIL]" in out


def _doubled_diagonal(build):
    """A ``build_transform`` whose T has 2 on one diagonal entry, so T has no inverse of its shape."""

    def faulty(engine, policy):
        transform = build(engine, policy)
        entries = dict(transform.items())
        entries[((0, 0), (0, 0))] = 2 * NovikovSeries.one(policy)
        return PhaseTransform(policy, transform.basis_rank, entries)

    return faulty


def test_faulty_transform_fails_the_transform_suite(capsys, monkeypatch):
    monkeypatch.setattr(phase, "build_transform", _doubled_diagonal(phase.build_transform))
    code, out, _ = run(capsys, "verify", "--model", "P1", "--suite", "transform", "--qmax", "1", "--dmax", "1")
    assert code == 1
    assert "[FAIL] suite transform" in out
    assert "inverse composition violated" in out


def test_faulty_transform_is_not_dumped(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_transform", _doubled_diagonal(cli.build_transform))
    code, out, err = run(capsys, "transform", "--model", "P1", "--qmax", "1", "--dmax", "1")
    assert code == 1
    assert out == ""
    assert err.strip() == "error: inverse does not compose to the identity"


def test_verify_report_is_deterministic(capsys):
    args = ["verify", "--model", "P1", "--suite", "identities", "--count", "40", "--qmax", "2"]
    code1 = main(list(args))
    first = capsys.readouterr().out
    code2 = main(list(args))
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second


def test_potential_dump_deterministic(tmp_path):
    args = ["potential", "--model", "P2", "--which", "standard", "--qmax", "2", "--xdeg", "3", "--dmax", "1"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_file_model_loading(tmp_path, capsys):
    from gwdesc import load_fixture

    fixture = load_fixture("P1")
    geometry = tmp_path / "m.json"
    geometry.write_text(json.dumps(fixture.model.to_dict()))
    table = tmp_path / "t.json"
    table.write_text(json.dumps(fixture.primary.records()))
    code, out, _ = run(
        capsys,
        "correlator", "--model", str(geometry), "--primary", str(table),
        "--beta", "1", "--ins", "tau(0):h,tau(0):h,tau(0):h",
    )
    assert code == 0
    assert out.strip() == "1"


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "correlator", "--model", "no/such/file.json", "--beta", "1", "--ins", "tau(0):h")
    assert code == 2


def test_primary_with_a_fixture_is_an_input_error(tmp_path, capsys):
    # the flag used to be ignored, even for a file that is not JSON
    table = tmp_path / "t.json"
    table.write_text("not json")
    code, out, err = run(
        capsys, "correlator", "--model", "P2", "--primary", str(table),
        "--beta", "1", "--ins", "tau(0):h2,tau(0):h2,tau(0):h",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --primary") and err.count("\n") == 1


def test_file_model_without_primary_table(tmp_path, capsys):
    from gwdesc import load_fixture

    geometry = tmp_path / "plane.json"
    geometry.write_text(json.dumps(load_fixture("P2").model.to_dict()))
    query = ["--beta", "1", "--ins", "tau(0):h2,tau(0):h2,tau(0):h"]
    code, out, err = run(capsys, "correlator", "--model", str(geometry), *query)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--primary" in err and err.count("\n") == 1
    # an explicit empty table is still accepted
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    code, out, _ = run(capsys, "correlator", "--model", str(geometry), "--primary", str(empty), *query)
    assert code == 0
    assert out.strip() == "0"


def _plane_geometry(tmp_path):
    from gwdesc import load_fixture

    geometry = tmp_path / "plane.json"
    geometry.write_text(json.dumps(load_fixture("P2").model.to_dict()))
    return geometry


@pytest.mark.parametrize(
    "content, named",
    [
        ([{"classes": ["h2", "h2", "h"], "value": "1"}], "record {'classes'"),
        ({"beta": [1], "classes": ["h2", "h2", "h"], "value": "1"}, "not dict"),
    ],
)
def test_malformed_primary_file_is_an_input_error(tmp_path, capsys, content, named):
    # a record without beta ended in a KeyError, a top-level object in a TypeError
    table = tmp_path / "f.json"
    table.write_text(json.dumps(content))
    code, out, err = run(
        capsys, "correlator", "--model", str(_plane_geometry(tmp_path)), "--primary", str(table),
        "--beta", "1", "--ins", "tau(0):h2,tau(0):h2,tau(0):h",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and named in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "content, named",
    [
        ([{"g": 1}], "tautological record {'g': 1}"),
        ({"a": 1}, "list of records, not dict"),
        ([{"g": 1, "n": 1, "psi": [1.9], "lambda": [], "value": "1/24"}], "psi must be a list of integers, got [1.9]"),
        ([{"g": 1, "n": 1, "psi": "11", "lambda": [], "value": "1/24"}], "psi must be a list of integers, got '11'"),
        ([{"g": True, "n": 1, "psi": [1], "lambda": [], "value": "1/24"}], "g must be an integer, got True"),
    ],
)
def test_malformed_taut_file_is_an_input_error(tmp_path, capsys, content, named):
    # the first ended in KeyError: 'n', the second in a TypeError; psi [1.9] was read as [1]
    # and printed 1/12, psi "11" as [1, 1]
    table = tmp_path / "t.json"
    table.write_text(json.dumps(content))
    code, out, err = run(
        capsys, "correlator", "--model", "P1", "--taut", str(table), "--genus", "1", "--beta", "0",
        "--ins", "tau(1):one",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and named in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda d: d.update(dimension=2.6), "dimension must be an integer, got 2.6"),
        (lambda d: d.update(divisor_pairing={"h": [1.8]}), "divisor_pairing row 'h' must be a list of integers, got [1.8]"),
        (lambda d: d.update(lattice_rank="1"), "lattice_rank must be an integer, got '1'"),
        (lambda d: d["basis"][1].update(degree=True), "degree of 'h' must be an integer, got True"),
    ],
)
def test_non_integer_geometry_field_is_an_input_error(tmp_path, capsys, edit, named):
    # dimension 2.6 loaded as 2 and the pairing row [1.8] as [1], and both files validated
    from gwdesc import load_fixture

    data = load_fixture("P2").model.to_dict()
    edit(data)
    geometry = tmp_path / "plane.json"
    geometry.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", "--model", str(geometry))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed geometry file:") and named in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--model"],
        ["correlator", "--beta", "1", "--ins", "tau(0):h", "--model"],
    ],
)
def test_unreadable_model_path_is_an_input_error(tmp_path, capsys, argv):
    # a directory ended in an IsADirectoryError traceback
    code, out, err = run(capsys, *argv, str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "option, suite",
    [
        ("--count", "identities"),
        ("--dmax", "two-point-paths"),
        ("--nmax", "point-oracle"),
        ("--qmax", "transform"),
        ("--xdeg", "transform"),
    ],
)
def test_negative_window_is_rejected_before_any_suite_runs(capsys, option, suite):
    # a negative count or bound ran no check and printed [PASS]
    with pytest.raises(SystemExit) as info:
        main(["verify", "--model", "P1", "--suite", suite, option, "-3"])
    out, err = capsys.readouterr()
    assert info.value.code == 2
    assert out == ""
    assert f"error: argument {option}: expected a non-negative integer, got '-3'" in err


@pytest.mark.parametrize(
    "option, value, suite, bound",
    [("--count", "0", "identities", 1), ("--nmax", "2", "point-oracle", 3), ("--xdeg", "2", "transform", 3)],
)
def test_window_that_runs_no_check_is_rejected(capsys, option, value, suite, bound):
    # each printed [PASS] after 0 checks and exited 0
    with pytest.raises(SystemExit) as info:
        main(["verify", "--model", "P1", "--suite", suite, option, value])
    out, err = capsys.readouterr()
    assert info.value.code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        f"gwdesc verify: error: argument {option}: expected at least {bound}, got '{value}': "
        "a smaller value computes nothing"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--model", "P1", "--suite", "identities", "--count", "0"],
        ["correlator", "--model", "P1", "--beta", "1"],
        ["potential", "--model", "P1", "--xdeg", "2"],
    ],
)
def test_parse_time_error_is_one_line(capsys, argv):
    # argparse used to print its whole usage block before the error line
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    assert info.value.code == 2
    assert out == ""
    assert err.startswith(f"gwdesc {argv[0]}: error: ") and err.count("\n") == 1


def test_intersect_error_names_the_option(capsys):
    # the message used to be int()'s "invalid literal for int() with base 10: 'x'"
    code, out, err = run(capsys, "intersect", "--n", "3", "--psi", "0,0,x")
    assert code == 2
    assert out == ""
    assert err == "error: --psi expects comma-separated integers, got '0,0,x'\n"


def test_conflicting_cup_records_are_an_input_error(tmp_path, capsys):
    # a∪b = ab and b∪a = 2·ab passed every check, and the correlator used the later record
    from test_quadric import quadric_model

    data = quadric_model().to_dict()
    data["cup"].append({"a": "b", "b": "a", "result": {"ab": "2"}})
    geometry = tmp_path / "quadric.json"
    geometry.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", "--model", str(geometry))
    assert code == 2
    assert "FAIL cup-commutative (conflicting records for a∪b)" in out
    code, out, err = run(
        capsys, "correlator", "--model", str(geometry), "--beta", "0,0", "--ins", "tau(0):a,tau(0):b,tau(0):one"
    )
    assert code == 2
    assert out == ""
    assert "cup-commutative" in err and err.count("\n") == 1
