from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gwdesc import (
    CorrelatorEngine,
    GwdescError,
    ModelError,
    PolicyMismatchError,
    RationalFormatError,
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


def test_correlator_series_asks_the_engine_only_at_admissible_classes(capsys, monkeypatch):
    # degrees 2 + 2 + 1 meet dim + c1·beta = 2 + 3·beta on P2 only at beta = 1 of the window's 4 classes
    calls = []
    original = CorrelatorEngine.descendant

    def counting(self, g, beta, pairs):
        calls.append(beta)
        return original(self, g, beta, pairs)

    monkeypatch.setattr(CorrelatorEngine, "descendant", counting)
    code, out, _ = run(capsys, "correlator", "--model", "P2", "--qmax", "3", "--ins", "tau(0):h2,tau(0):h2,tau(0):h")
    assert code == 0 and out.strip() == "1·q^[1]"
    assert calls == [(1,)]


def test_correlator_series_of_two_pulled_back_marks_needs_the_stable_range(capsys):
    code, out, err = run(capsys, "correlator", "--model", "P2", "--qmax", "2", "--ins", "tau(0,1):h2,tau(0):h2")
    assert code == 2
    assert out == ""
    assert err == "error: generalized correlators need the stable range (n >= 3)\n"


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


@pytest.mark.parametrize(
    "where, message",
    [
        (["--beta", "1", "--ins", "tau(0,1):h,tau(0):h,tau(0):one"], "insertions with pulled-back powers are genus-0 only"),
        (["--qmax", "1", "--ins", "tau(1):one"], "summed series are genus-0 only"),
    ],
)
def test_correlator_higher_genus_outside_the_constant_maps(capsys, where, message):
    code, out, err = run(capsys, "correlator", "--model", "P1", "--genus", "1", *where)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


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
        (RationalFormatError, ValueError),
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


def test_correlator_deeper_than_a_set_stack(capsys):
    # the limit sits a fixed 150 frames above the caller, so the clause is reached at a
    # small class whatever depth the runner calls from
    limit = sys.getrecursionlimit()
    depth = len(inspect.stack(0))
    sys.setrecursionlimit(depth + 150)
    try:
        code, out, err = run(capsys, "correlator", "--model", "P1", "--beta", "120", "--ins", "tau(238):h,tau(0):h")
    finally:
        sys.setrecursionlimit(limit)
    assert (code, out) == (2, "")
    assert err == "error: the reduction is deeper than the interpreter stack allows\n"


def test_correlator_malformed_class(capsys):
    code, out, err = run(capsys, "correlator", "--model", "P1", "--beta", "1,x", "--ins", "tau(0):h,tau(0):h,tau(0):h")
    assert (code, out) == (2, "")
    assert err == "error: curve class '1,x' must be a comma-separated integer vector\n"


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


def test_file_model_without_primary_table_runs_at_the_zero_class(tmp_path, capsys):
    # the zero class's three-point values are integrals, so no table value is read there
    geometry = str(_plane_geometry(tmp_path))
    code, out, err = run(capsys, "transform", "--model", geometry, "--qmax", "0", "--dmax", "2")
    assert (code, err) == (0, "") and out
    ins = "tau(0,1):h2,tau(0):one,tau(0):one,tau(0):one"
    assert run(capsys, "correlator", "--model", geometry, "--beta", "0", "--ins", ins) == (0, "1\n", "")
    code, out, err = run(capsys, "transform", "--model", geometry, "--qmax", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--primary" in err and err.count("\n") == 1


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
    "edit, named",
    [
        (lambda d: d.update(integral=[]), "integral must be an object, got []"),
        (lambda d: d.update(ample=["h"]), "ample must be an object, got ['h']"),
        (lambda d: d.update(divisor_pairing=[]), "divisor_pairing must be an object, got []"),
        (lambda d: d["chern"].__setitem__(0, ["one"]), "chern entry 0 must be an object, got ['one']"),
        (lambda d: d["cup"][0].update(result=[]), "cup result of 'h'∪'h' must be an object, got []"),
        (lambda d: d["basis"][0].update(label=0), "basis label 0 must be a string"),
        (lambda d: d.update(integral={"h": "1", "hh": "5"}), "integral: unknown basis label 'hh'"),
        (lambda d: d.update(divisor_pairing={"h": [1], "zz": [3]}), "divisor_pairing: unknown basis label 'zz'"),
        (lambda d: d["cup"][0].update(a="x"), "cup record 'x'∪'h': unknown basis label 'x'"),
        (lambda d: d["cup"][0].update(a=0), "cup record 0∪'h': unknown basis label 0"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "correlator"])
def test_malformed_geometry_object_is_an_input_error(tmp_path, capsys, edit, named, command):
    # a list in place of an object ended in "AttributeError: 'list' object has no attribute
    # 'items'" with exit 1, and the label 0 was reported as "unknown basis label 'one'";
    # an unknown label under integral or divisor_pairing passed validation, and a cup
    # record's bad label was reported as the bare 'x' or as "'<' not supported ..."
    from gwdesc import load_fixture

    data = load_fixture("P1").model.to_dict()
    edit(data)
    geometry = tmp_path / "line.json"
    geometry.write_text(json.dumps(data))
    query = ["--beta", "1", "--ins", "tau(0):h,tau(0):h,tau(0):h"] if command == "correlator" else []
    code, out, err = run(capsys, command, "--model", str(geometry), *query)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed geometry file:") and named in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "where, message",
    [
        (["--beta", "1", "--qmax", "3"], "argument --qmax: not allowed with argument --beta"),
        ([], "one of the arguments --beta --qmax is required"),
    ],
)
def test_correlator_takes_exactly_one_of_beta_and_qmax(capsys, where, message):
    # --beta 1 --qmax 3 printed the value at class 1 and silently ignored --qmax
    with pytest.raises(SystemExit) as info:
        main(["correlator", "--model", "P2", *where, "--ins", "tau(0):h2,tau(0):h2,tau(0):h"])
    out, err = capsys.readouterr()
    assert info.value.code == 2
    assert out == ""
    assert err == f"gwdesc correlator: error: {message}\n"


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


@pytest.mark.parametrize("command", ["validate", "correlator"])
def test_zero_denominator_is_an_input_error(tmp_path, capsys, command):
    # "1/0" raised ZeroDivisionError: a traceback and exit 1, from the geometry file's
    # integral (validate) and from a primary record's value (correlator)
    from gwdesc import load_fixture

    fixture = load_fixture("P1")
    data, records = fixture.model.to_dict(), fixture.primary.records()
    if command == "validate":
        data["integral"] = {"h": "1/0"}
    else:
        records[0]["value"] = "1/0"
    geometry, table = tmp_path / "line.json", tmp_path / "primary.json"
    geometry.write_text(json.dumps(data))
    table.write_text(json.dumps(records))
    query = ["--primary", str(table), "--beta", "1", "--ins", "tau(0):h,tau(0):h,tau(0):h"]
    code, out, err = run(capsys, command, "--model", str(geometry), *(query if command == "correlator" else []))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "rational '1/0' has a zero denominator" in err and err.count("\n") == 1


def test_closed_stdout_exits_141_without_a_message():
    """A reader that closes the pipe early (``| head``, ``| true``) is not an input error:
    the command exits 141 (128 + SIGPIPE) and writes nothing to stderr, not even the
    interpreter's "Exception ignored" note at exit.  It printed ``error: [Errno 32]
    Broken pipe`` and exited 2."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "gwdesc.cli", "potential", "--model", "P1", "--which", "standard"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def _rational_field_error(err, head, what, value):
    return err == f'error: {head}{what} must be a rational string "p/q" or an integer, got {value!r}\n'


@pytest.mark.parametrize(
    "edit, what, value",
    [
        (lambda d: d.update(integral={"h2": 1 / 3}), "integral['h2']", 1 / 3),
        (lambda d: d.update(ample={"h": True}), "ample['h']", True),
        (lambda d: d["chern"][1].update(h=3.0), "chern entry 1['h']", 3.0),
        (lambda d: d["cup"][0].update(result={"h2": 1.0}), "cup result of 'h'∪'h'['h2']", 1.0),
    ],
    ids=["integral", "ample", "chern", "cup"],
)
def test_float_in_a_geometry_rational_field_is_an_input_error(tmp_path, capsys, edit, what, value):
    # the integral 1/3 written as a JSON float was stored as 3333333333333333/10^16 and validated
    from gwdesc import load_fixture

    data = load_fixture("P2").model.to_dict()
    geometry = tmp_path / "plane.json"
    data["integral"] = {"h2": 1}  # a JSON integer still loads
    geometry.write_text(json.dumps(data))
    assert run(capsys, "validate", "--model", str(geometry))[0] == 0
    edit(data)
    geometry.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", "--model", str(geometry))
    assert (code, out) == (2, "")
    assert _rational_field_error(err, "malformed geometry file: ", what, value)


@pytest.mark.parametrize("value, printed", [("1/10", "1/10"), (3, "3"), (0.1, None), (False, None)])
def test_float_in_a_primary_value_is_an_input_error(tmp_path, capsys, value, printed):
    # the value 0.1 was read through its decimal repr, and the correlator printed 1/10
    record = {"beta": [1], "classes": ["h", "h2", "h2"], "value": value}
    table = tmp_path / "t.json"
    table.write_text(json.dumps([record]))
    code, out, err = run(
        capsys, "correlator", "--model", str(_plane_geometry(tmp_path)), "--primary", str(table),
        "--beta", "1", "--ins", "tau(0):h2,tau(0):h2,tau(0):h",
    )
    if printed is not None:
        assert (code, out.strip()) == (0, printed)
    else:
        assert (code, out) == (2, "")
        assert _rational_field_error(err, f"record {record}: ", "value", value)


@pytest.mark.parametrize("value", [0.5, True, "1/0", "abc"])
def test_bad_primary_value_is_a_table_format_error(tmp_path, capsys, value):
    # a float or a bool was a plain ValueError, "1/0" a RationalFormatError, and "abc" a
    # plain ValueError; the last two did not name the record
    from gwdesc import PrimaryTable, load_fixture

    record = {"beta": [1], "classes": ["h", "h2", "h2"], "value": value}
    with pytest.raises(TableFormatError) as info:
        PrimaryTable.from_records(load_fixture("P2").model, [record])
    assert str(info.value).startswith(f"record {record}: ")
    table = tmp_path / "t.json"
    table.write_text(json.dumps([record]))
    code, out, err = run(
        capsys, "correlator", "--model", str(_plane_geometry(tmp_path)), "--primary", str(table),
        "--beta", "1", "--ins", "tau(0):h2,tau(0):h2,tau(0):h",
    )
    assert (code, out) == (2, "")
    assert err == f"error: {info.value}\n"


def test_unknown_label_in_a_primary_record_is_a_table_format_error(tmp_path, capsys):
    # the label lookup raised ModelError, whose message did not name the record
    from gwdesc import PrimaryTable, load_fixture

    record = {"beta": [1], "classes": ["h", "x", "h2"], "value": "1"}
    with pytest.raises(TableFormatError) as info:
        PrimaryTable.from_records(load_fixture("P2").model, [record])
    assert str(info.value) == f"record {record}: unknown basis label 'x' (basis: one, h, h2)"
    table = tmp_path / "t.json"
    table.write_text(json.dumps([record]))
    code, out, err = run(
        capsys, "correlator", "--model", str(_plane_geometry(tmp_path)), "--primary", str(table),
        "--beta", "1", "--ins", "tau(0):h2,tau(0):h2,tau(0):h",
    )
    assert (code, out) == (2, "")
    assert err == f"error: {info.value}\n"


@pytest.mark.parametrize("value, printed", [("1/24", "1/12"), (1, "2"), (1 / 24, None), (True, None)])
def test_float_in_a_taut_value_is_an_input_error(tmp_path, capsys, value, printed):
    # <tau_1(1)>_{1,0} on P1 is chi(P1) = 2 times the table's psi integral
    record = {"g": 1, "n": 1, "psi": [1], "lambda": [], "value": value}
    table = tmp_path / "t.json"
    table.write_text(json.dumps([record]))
    code, out, err = run(
        capsys, "correlator", "--model", "P1", "--taut", str(table), "--genus", "1", "--beta", "0",
        "--ins", "tau(1):one",
    )
    if printed is not None:
        assert (code, out.strip()) == (0, printed)
    else:
        assert (code, out) == (2, "")
        assert _rational_field_error(err, f"tautological record {record!r}: ", "value", value)
