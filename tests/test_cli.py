"""Command-line front end: exit codes, reports, determinism, piping."""

import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import matmoments
from matmoments import (AtomicMatrixMeasure, MatrixPoly, forward_moments,
                        matrixpoly_to_json, measure_to_json,
                        momentsequence_to_json)
from matmoments.cli import render, run


@pytest.fixture
def workspace(tmp_path):
    I2 = np.eye(2)
    mu = AtomicMatrixMeasure(2, [(-1.0, 0.5 * I2), (1.0, 0.5 * I2)])
    files = {}

    def put(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        files[name] = str(path)

    put("moments4.json", momentsequence_to_json(forward_moments(mu, 4)))
    put("moments3.json", momentsequence_to_json(forward_moments(mu, 3)))
    put("poly.json", matrixpoly_to_json(MatrixPoly.from_scalar([1.0, 0.0, 1.0])))
    put("matpoly.json", matrixpoly_to_json(MatrixPoly([I2, 0 * I2, I2], symmetric=True)))
    put("measure.json", measure_to_json(mu))
    put("bad.json", {"n": 2})
    (tmp_path / "broken.json").write_text("{not json")
    files["broken.json"] = str(tmp_path / "broken.json")
    files["dir"] = tmp_path
    return files


def test_check_hamburger_passes(workspace):
    res = run(["check", "--variant", "hamburger", "--moments", workspace["moments4.json"]])
    assert res.exit_code == 0
    assert res.report["report"]["pass"] is True


def test_check_stieltjes_fails_with_report(workspace):
    res = run(["check", "--variant", "stieltjes", "--moments", workspace["moments3.json"]])
    assert res.exit_code == 1
    assert res.report["report"]["pass"] is False
    assert res.report["report"]["min_eigenvalue"] == pytest.approx(-1.0)
    assert res.report["report"]["failing_order"] == 1


def test_certify_then_verify_round_trip(workspace):
    res = run(["certify", "--poly", workspace["poly.json"], "--domain", "line"])
    assert res.exit_code == 0
    cert_path = workspace["dir"] / "cert.json"
    cert_path.write_text(json.dumps(res.report["certificate"]))
    ver = run(["verify", "--poly", workspace["poly.json"], "--cert", str(cert_path)])
    assert ver.exit_code == 0
    assert ver.report["residual"] <= 1e-10


def test_verify_reads_stdin_for_piping(workspace, monkeypatch):
    res = run(["certify", "--poly", workspace["poly.json"], "--domain", "line"])
    monkeypatch.setattr("sys.stdin", io.StringIO(render(res.report)))
    ver = run(["verify", "--poly", workspace["poly.json"], "--cert", "-"])
    assert ver.exit_code == 0 and ver.report["pass"] is True


def test_verify_frozen_certificate(workspace):
    cert = {"variant": "line",
            "sigma": {"1": [{"n": 1, "symmetric": False, "coeffs": [[[0.0]], [[1.0]]]},
                            {"n": 1, "symmetric": False, "coeffs": [[[1.0]]]}]},
            "residual": 0.0}
    path = workspace["dir"] / "hand_cert.json"
    path.write_text(json.dumps(cert))
    res = run(["verify", "--poly", workspace["poly.json"], "--cert", str(path)])
    assert res.exit_code == 0
    assert res.report["residual"] == 0.0


def test_recover_round_trip(workspace):
    res = run(["recover", "--moments", workspace["moments4.json"]])
    assert res.exit_code == 0
    xs = [atom["x"] for atom in res.report["measure"]["atoms"]]
    assert xs == pytest.approx([-1.0, 1.0], abs=1e-8)


def test_integrate_trace_value(workspace):
    res = run(["integrate", "--poly", workspace["matpoly.json"],
               "--measure", workspace["measure.json"]])
    assert res.exit_code == 0
    # sum_j trace((1 + x_j^2) I2 W_j) with W = I2/2 at x = +-1: 2 + 2
    assert res.report["value"] == pytest.approx(4.0)
    assert res.report["kind"] == "trace"


def test_factor_subcommand(tmp_path):
    doc = {"n": 1, "band": 1,
           "coeffs_re": [[[1.0]], [[2.0]], [[1.0]]],
           "coeffs_im": [[[0.0]], [[0.0]], [[0.0]]]}
    path = tmp_path / "laurent.json"
    path.write_text(json.dumps(doc))
    res = run(["factor", "--laurent", str(path)])
    assert res.exit_code == 0
    assert res.report["residual"] <= 1e-10


def test_factor_max_order_flag_is_gone(tmp_path):
    doc = {"n": 1, "band": 1,
           "coeffs_re": [[[1.0]], [[2.0]], [[1.0]]],
           "coeffs_im": [[[0.0]], [[0.0]], [[0.0]]]}
    path = tmp_path / "laurent.json"
    path.write_text(json.dumps(doc))
    res = run(["factor", "--laurent", str(path), "--max-order", "4"])
    assert res.exit_code == 2
    assert res.report["schema_version"] == 2
    ok = run(["factor", "--laurent", str(path)])
    assert ok.exit_code == 0
    assert ok.report["schema_version"] == 2
    assert ok.report["epsilon_used"] == 0.0
    assert ok.report["toeplitz_order"] == 1


def test_shiftgap_subcommand(workspace):
    res = run(["shiftgap", "--dim", "2", "--trials", "50", "--seed", "1"])
    assert res.exit_code == 0
    assert res.report["probe"]["all_psd"] is True
    fn = workspace["dir"] / "functional.json"
    mu = AtomicMatrixMeasure(2, [(0.0, np.eye(2))])
    fn.write_text(json.dumps(measure_to_json(mu)))
    res2 = run(["shiftgap", "--dim", "2", "--trials", "50", "--seed", "1",
                "--functional", str(fn)])
    assert res2.exit_code == 0
    assert res2.report["chain"]["all_hold"] is True
    assert res2.report["support_collapse"] is True
    # an outer atom beyond N: the chain holds, the collapse check does not apply
    beyond = workspace["dir"] / "beyond.json"
    mu = AtomicMatrixMeasure(2, [(0.0, np.eye(2)), (3.5, 0.5 * np.eye(2))])
    beyond.write_text(json.dumps(measure_to_json(mu)))
    res3 = run(["shiftgap", "--dim", "2", "--trials", "50", "--seed", "1",
                "--functional", str(beyond)])
    assert res3.exit_code == 0
    assert res3.report["chain"]["all_hold"] is True
    assert res3.report["support_collapse"] is None
    # an atom where p_2 < 0: the chain's module audit rejects the functional
    interior = workspace["dir"] / "interior.json"
    mu = AtomicMatrixMeasure(2, [(0.0, np.eye(2)), (1.0, np.eye(2))])
    interior.write_text(json.dumps(measure_to_json(mu)))
    res4 = run(["shiftgap", "--dim", "2", "--trials", "50", "--seed", "1",
                "--functional", str(interior)])
    assert res4.exit_code == 1
    assert res4.report["error"]["type"] == "ModulePositivityError"
    assert "shift_compress(fam, 1)" in res4.report["error"]["message"]


@pytest.mark.parametrize("doc", [
    {"h_dim": 1, "k_dim": 1, "atoms": 5},
    {"h_dim": None, "k_dim": 1, "atoms": []},
    {"h_dim": 1, "k_dim": 0, "atoms": []},
    {"h_dim": 1, "k_dim": 1, "atoms": [{"x": None, "kraus": [[[1.0]]]}]},
    {"h_dim": 1, "k_dim": 1, "atoms": [{"x": 1.0, "kraus": 5}]},
    {"h_dim": 1, "k_dim": 1, "atoms": [{"x": 1.0, "kraus": [{"a": 1}]}]},
    {"h_dim": 1, "k_dim": 1, "atoms": [{"x": 1.0, "kraus": [[[None]]]}]},
])
def test_malformed_map_measure_is_input_error(workspace, doc):
    path = workspace["dir"] / "map_measure.json"
    path.write_text(json.dumps(doc))
    res = run(["integrate", "--poly", workspace["poly.json"], "--measure", str(path)])
    assert res.exit_code == 2
    assert res.report["error"]["type"] == "ValueError"


def test_numpy_only_subcommands_leave_scipy_unloaded(workspace):
    laurent = workspace["dir"] / "laurent.json"
    laurent.write_text(json.dumps({"n": 1, "band": 1,
                                   "coeffs_re": [[[1.0]], [[2.0]], [[1.0]]],
                                   "coeffs_im": [[[0.0]], [[0.0]], [[0.0]]]}))
    # a fresh interpreter: this test process may already hold scipy
    script = textwrap.dedent(f"""
        import sys
        from matmoments.cli import run
        assert run(["check", "--variant", "hamburger",
                    "--moments", {workspace["moments4.json"]!r}]).exit_code == 0
        assert run(["shiftgap", "--dim", "3", "--trials", "20"]).exit_code == 0
        assert "scipy" not in sys.modules, "scipy loaded"
        fac = run(["factor", "--laurent", {str(laurent)!r}])
        assert fac.exit_code == 0 and fac.report["residual"] <= 1e-10
        assert "scipy" in sys.modules
    """)
    src = str(Path(matmoments.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_malformed_json_is_input_error(workspace):
    res = run(["check", "--variant", "hamburger", "--moments", workspace["broken.json"]])
    assert res.exit_code == 2
    assert "malformed JSON" in res.report["error"]["message"]


def test_missing_field_names_the_field(workspace):
    res = run(["check", "--variant", "hamburger", "--moments", workspace["bad.json"]])
    assert res.exit_code == 2
    assert "moments" in res.report["error"]["message"]


def test_unknown_flag_is_input_error(workspace):
    res = run(["check", "--variant", "hamburger", "--moments",
               workspace["moments4.json"], "--frobnicate"])
    assert res.exit_code == 2


def test_non_psd_certify_is_failure_not_input_error(tmp_path):
    doc = matrixpoly_to_json(MatrixPoly.from_scalar([-1.0]))
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    res = run(["certify", "--poly", str(path), "--domain", "line"])
    assert res.exit_code == 1
    assert res.report["error"]["type"] == "NotPsdOnLine"


def test_reports_are_byte_identical(workspace):
    a = run(["check", "--variant", "hamburger", "--moments", workspace["moments4.json"]])
    b = run(["check", "--variant", "hamburger", "--moments", workspace["moments4.json"]])
    assert render(a.report) == render(b.report)
    s = run(["shiftgap", "--dim", "3", "--trials", "100", "--seed", "9"])
    t = run(["shiftgap", "--dim", "3", "--trials", "100", "--seed", "9"])
    assert render(s.report) == render(t.report)
