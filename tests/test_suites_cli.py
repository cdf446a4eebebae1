"""Verification suites and the command-line interface."""

import json
import re

import numpy as np
import pytest

from kreinls import (SUITE_NAMES, GeneratorSpec, KreinSpace,
                     NotKreinSelfadjoint, UnknownSuite, WeightedProblem,
                     load_problem, parse_problem, run_suite)
from kreinls.cli import main
from kreinls.problem_io import MalformedInput, decode_matrix, dump_json


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suites_pass(name):
    rep = run_suite(name, count=6, dim=4, seed=2)
    assert rep.ok(), rep.failures
    assert rep.total_checks() > 0


def test_suite_replay_determinism():
    a = run_suite("schur-identities", count=5, dim=3, seed=9).to_dict()
    b = run_suite("schur-identities", count=5, dim=3, seed=9).to_dict()
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


def test_suite_with_explicit_regime_spec():
    spec = GeneratorSpec(dim=3, seed=5, regime="non_complementable")
    rep = run_suite("thm-minimum", spec=spec, count=10)
    assert rep.ok(), rep.failures
    # every instance must land in the named-rejection tally
    assert rep.checks["rejects_non_complementable"].passed == 10


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nonsense")


def test_parse_problem_errors():
    with pytest.raises(MalformedInput):
        parse_problem([1, 2, 3])
    with pytest.raises(MalformedInput):
        parse_problem({"dim": 2})
    with pytest.raises(MalformedInput):
        parse_problem({"dim": 2, "J": [[1, 0], [0, -1]]})   # missing W
    with pytest.raises(MalformedInput):
        parse_problem({"dim": 2, "J": [[[1, 0], [0, 0]]],   # wrong shape
                       "W": [[1, 0], [0, 1]]})
    with pytest.raises(MalformedInput):
        parse_problem({"dim": 2,
                       "J": [[1, 1], [0, -1]],              # not a signature
                       "W": [[1, 0], [0, 1]]})
    for dim in (2.7, "2", True):                           # not an integer
        with pytest.raises(MalformedInput, match="'dim' must be an integer"):
            parse_problem({"dim": dim, "J": [[1, 0], [0, -1]],
                           "W": [[1, 0], [0, 1]]})
    for entry, shown in ((float("nan"), "nan"), ([1.0, float("inf")],
                                                 "[1.0, inf]")):
        msg = f"W[1][0]: entry {shown} is not finite"
        with pytest.raises(MalformedInput, match=re.escape(msg)):
            parse_problem({"dim": 2, "J": [[1, 0], [0, -1]],
                           "W": [[1, 0], [entry, 1]]})
    for tol in ("small", "1e-6", float("nan"), -1e-10, 0):
        with pytest.raises(MalformedInput, match="'tol' must be a positive"):
            parse_problem({"dim": 2, "J": [[1, 0], [0, -1]],
                           "W": [[1, 0], [0, 1]], "tol": tol})


def _write_min_problem(path):
    doc = {
        "dim": 2,
        "J": [[1, 0], [0, -1]],
        "W": [[1, 0], [0, 1]],
        "B": [[1, 0], [0, 0]],
        "C": [[1, 0], [0, 1]],
    }
    dump_json(doc, path)
    return doc


def test_cli_schur_trivial(tmp_path, capsys):
    doc = {
        "dim": 2,
        "J": [[1, 0], [0, -1]],
        "W": [[1, 0], [0, -1]],
        "subspace": [[1], [0]],
    }
    path = tmp_path / "trivial.json"
    dump_json(doc, path)
    assert main(["schur", "-i", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    schur = np.array([[complex(re, im) for re, im in row]
                      for row in out["schur"]])
    np.testing.assert_allclose(schur, np.diag([0.0, -1.0]), atol=1e-12)


def test_cli_ims_and_trace_min(tmp_path, capsys):
    path = tmp_path / "min.json"
    _write_min_problem(path)
    assert main(["ims", "-i", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    x0 = np.array([[complex(re, im) for re, im in row]
                   for row in out["x0"]])
    np.testing.assert_allclose(x0, np.diag([1.0, 0.0]), atol=1e-10)
    # the exact floor: J B^#WB = diag(1, 0) over ||B||^2 ||W|| = 1
    assert out["certificate_floor"] == pytest.approx(0.0, abs=1e-15)

    assert main(["trace-min", "-i", str(path), "--sweep"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(-1.0, abs=1e-10)
    assert out["certificate_floor"] == pytest.approx(0.0, abs=1e-15)

    # the solvers draw no samples, so ims and imms take no seed
    for cmd in ("ims", "imms"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "-i", str(path), "--seed", "1"])
        assert exc.value.code == 2
    capsys.readouterr()
    assert out["sweep_value"] == pytest.approx(-1.0, abs=1e-6)


def test_cli_ims_unsolvable_exit_code(tmp_path, capsys):
    doc = {
        "dim": 2,
        "J": [[1, 0], [0, -1]],
        "W": [[0, 1], [-1, 0]],
        "B": [[1, 0], [0, 0]],
        "C": [[1, 0], [0, 1]],
    }
    path = tmp_path / "noncomp.json"
    dump_json(doc, path)
    assert main(["ims", "-i", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "NormalEquationUnsolvable"

    assert main(["imms", "-i", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "MinMaxUnsolvable"

    assert main(["schur", "-i", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "NotWeaklyComplementable"


def test_cli_malformed_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["schur", "-i", str(path)]) == 2
    assert "MalformedInput" in capsys.readouterr().err

    path2 = tmp_path / "bad2.json"
    dump_json({"dim": 0, "J": [], "W": []}, path2)
    assert main(["ims", "-i", str(path2)]) == 2


def test_cli_non_finite_entry_exit_code(tmp_path, capsys):
    doc = _write_min_problem(tmp_path / "ok.json")
    doc["W"][0][0] = float("nan")
    path = tmp_path / "nan.json"
    dump_json(doc, path)
    assert main(["ims", "-i", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "MalformedInput",
                   "message": "W[0][0]: entry nan is not finite"}

    op_path = tmp_path / "op.json"
    dump_json({"matrix": [[1, float("inf")], [0, 1]]}, op_path)
    assert main(["trace", "-i", str(tmp_path / "ok.json"),
                 "--op", str(op_path)]) == 2
    assert "matrix[0][1]: entry inf is not finite" \
        in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["generate", "--dim", "4", "--regime", "complementable",
      "--cond-bound", "nan"], "--cond-bound"),
    (["generate", "--dim", "4", "--regime", "complementable",
      "--seed", "-5"], "--seed"),
    (["generate", "--dim", "1", "--regime", "complementable"], "--dim"),
    (["verify", "--suite", "minmax", "--instances", "-1"], "--instances"),
    (["verify", "--suite", "minmax", "--instances", "0"], "--instances"),
    (["verify", "--suite", "minmax", "--cond-bound", "0.5"], "--cond-bound"),
    (["verify", "--suite", "minmax", "--seed", "-1"], "--seed"),
])
def test_cli_numeric_flag_out_of_range_exit_code(argv, flag, capsys):
    """A numeric flag outside its range is MalformedInput naming the flag,
    exit 2 and JSON on stderr, before any instance is generated."""
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    err = json.loads(out.err)
    assert err["error"] == "MalformedInput"
    assert err["message"].startswith(f"{flag}: must be")


def test_cli_infinite_cond_bound_is_valid(capsys):
    argv = ["generate", "--dim", "4", "--regime", "complementable",
            "--cond-bound", "inf"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 4 and doc["meta"]["regime"] == "complementable"


def _generated_doc(tmp_path, capsys):
    path = tmp_path / "gen8.json"
    assert main(["generate", "--regime", "range_nonnegative", "--dim", "8",
                 "--seed", "0", "-o", str(path)]) == 0
    capsys.readouterr()
    return json.loads(path.read_text())


def test_cli_non_selfadjoint_weight_exit_code(tmp_path, capsys):
    doc = _generated_doc(tmp_path, capsys)
    doc["W"][0][1][0] += 0.5
    path = tmp_path / "nonsa.json"
    dump_json(doc, path)
    for cmd in ("ims", "imms", "schur"):
        assert main([cmd, "-i", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "MalformedInput",
                       "message": "W: weight is not [.,.]-selfadjoint"}
    # library calls keep their own error
    space = KreinSpace(8, decode_matrix(doc["J"], "J"))
    with pytest.raises(NotKreinSelfadjoint):
        WeightedProblem(w=decode_matrix(doc["W"], "W"),
                        b=decode_matrix(doc["B"], "B"),
                        c=decode_matrix(doc["C"], "C"), space=space)


@pytest.mark.parametrize("field", ["W", "C"])
def test_cli_operand_overflow_exit_code(tmp_path, capsys, field):
    doc = _generated_doc(tmp_path, capsys)
    doc[field] = [[[x * 1e308 for x in z] for z in row]
                  for row in doc[field]]
    path = tmp_path / "huge.json"
    dump_json(doc, path)
    for cmd in ("ims", "imms", "trace-min"):
        assert main([cmd, "-i", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "OperandOverflow"
        assert "B^#WB, B^#WC and C^#WC would overflow" in err["message"]


def test_cli_generate_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "gen.json"
    assert main(["generate", "--regime", "range_nonnegative", "--dim", "3",
                 "--seed", "4", "-o", str(out_file)]) == 0
    capsys.readouterr()
    data = load_problem(out_file)
    assert data.space.dim == 3
    assert data.meta["regime"] == "range_nonnegative"
    assert main(["ims", "-i", str(out_file)]) == 0
    capsys.readouterr()


def test_cli_verify_embedded_regression(tmp_path, capsys):
    report_file = tmp_path / "rep.json"
    code = main(["verify", "--suite", "jtrace-laws", "--dim", "2",
                 "--instances", "1", "--seed", "0",
                 "--report", str(report_file)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True
    saved = json.loads(report_file.read_text())
    assert saved["checks"]["signature_dependence_example"]["failed"] == 0


def test_cli_trace_alt_signature(tmp_path, capsys):
    path = tmp_path / "sp.json"
    dump_json({"dim": 2, "J": [[1, 0], [0, -1]], "W": [[1, 0], [0, 1]]},
              path)
    op_path = tmp_path / "t.json"
    dump_json({"matrix": [[1, 1], [0, 0]]}, op_path)
    assert main(["trace", "-i", str(path), "--op", str(op_path),
                 "--alt-signature", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["trace"][0] == pytest.approx(1.0, abs=1e-12)
    assert out["change_of_signature_residual"] < 1e-10


def test_cli_tol_override(tmp_path, capsys):
    path = tmp_path / "min.json"
    _write_min_problem(path)
    assert main(["ims", "-i", str(path), "--tol", "1e-6"]) == 0
    capsys.readouterr()
