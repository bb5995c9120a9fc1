"""Command-line front end: exit codes, reports, determinism, piping."""

import importlib
import io
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import matmoments
from matmoments import (AtomicMatrixMeasure, MatrixPoly, MomentSequence, SosCertificate,
                        forward_moments, matrixpoly_to_json, measure_to_json,
                        momentsequence_to_json)
from matmoments.cli import SCHEMA_VERSION, _build_parser, main, render, run
from matmoments.polymat import DOMAINS, _Failure

GOLDEN = Path(__file__).resolve().parent / "golden"


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


# x^2 + 1 as x * x + 1 * 1
FROZEN_CERT = {"variant": "line",
               "sigma": {"1": [{"n": 1, "symmetric": False, "coeffs": [[[0.0]], [[1.0]]]},
                               {"n": 1, "symmetric": False, "coeffs": [[[1.0]]]}]},
               "residual": 0.0}


def test_verify_frozen_certificate(workspace):
    path = workspace["dir"] / "hand_cert.json"
    path.write_text(json.dumps(FROZEN_CERT))
    res = run(["verify", "--poly", workspace["poly.json"], "--cert", str(path)])
    assert res.exit_code == 0
    assert res.report["residual"] == 0.0


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
def test_verify_judges_the_residual_at_the_input_scale(tmp_path, monkeypatch, scale):
    # a half-line F = scale * (A A^T + x B B^T), n = 3, degree 8: its
    # certificate's residual grows with the scale, and --tol is relative to
    # max(1, largest |F_k| entry), as certify's own target is
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal((5, 3, 3)), rng.standard_normal((4, 3, 3))
    f = np.zeros((9, 3, 3))
    for i in range(5):
        for j in range(5):
            f[i + j] += a[i] @ a[j].T
            if i < 4 and j < 4:
                f[i + j + 1] += b[i] @ b[j].T
    f = scale * 0.5 * (f + np.swapaxes(f, 1, 2))
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(matrixpoly_to_json(MatrixPoly(f, symmetric=True))))
    res = run(["certify", "--poly", str(poly), "--domain", "halfline"])
    assert res.exit_code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(render(res.report)))
    ver = run(["verify", "--poly", str(poly), "--cert", "-"])
    assert (ver.exit_code, ver.report["pass"], ver.report["tol"]) == (0, True, 1e-6)
    assert ver.report["residual"] == res.report["certificate"]["residual"]
    # a certificate off by a part in 1e5 of one factor entry still fails
    cert = res.report["certificate"]
    cert["sigma"]["x"][0]["coeffs"][0][0][0] *= 1.0 + 1e-5
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(cert)))
    bad = run(["verify", "--poly", str(poly), "--cert", "-"])
    assert (bad.exit_code, bad.report["pass"]) == (1, False)
    assert bad.report["residual"] > 1e-6 * np.abs(f).max()


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
    assert res.report["schema_version"] == SCHEMA_VERSION
    ok = run(["factor", "--laurent", str(path)])
    assert ok.exit_code == 0
    assert ok.report["schema_version"] == SCHEMA_VERSION
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


def test_shiftgap_stdout_is_golden(tmp_path, capsys):
    # byte-exact stdout of the leading-coefficient argument, the chain and
    # the support-collapse check; --trials and --seed are ignored
    weight = [[0.5, 0.25, 0.0, 0.0], [0.25, 0.5, 0.0, 0.0],
              [0.0, 0.0, 0.25, 0.0], [0.0, 0.0, 0.0, 0.125]]
    fn = tmp_path / "outer4.json"
    fn.write_text(json.dumps({"n": 4, "atoms": [{"x": 0.0, "W": np.eye(4).tolist()},
                                                {"x": 5.5, "W": weight}]}))
    code = main(["shiftgap", "--dim", "4", "--trials", "300", "--seed", "5",
                 "--functional", str(fn)])
    assert code == 0
    golden = (GOLDEN / "shiftgap_dim4_trials300_seed5.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


# one document per loader with a JSON boolean where a number belongs
@pytest.mark.parametrize("argv,doc", [
    ("integrate --poly {poly} --measure {doc}",
     {"n": True, "atoms": [{"x": True, "W": [[1]]}]}),
    ("integrate --poly {poly} --measure {doc}",
     {"n": 1, "atoms": [{"x": 0.0, "W": [[False]]}]}),
    ("integrate --poly {poly} --measure {doc}",
     {"h_dim": 1, "k_dim": 1, "atoms": [{"x": 0.0, "kraus": [[[True]]]}]}),
    ("certify --domain line --poly {doc}", {"n": True, "coeffs": [[[True]]]}),
    ("certify --domain line --poly {doc}", {"n": 1, "symmetric": "no", "coeffs": [[[1.0]]]}),
    ("check --variant hamburger --moments {doc}",
     {"n": 1, "moments": [[[1.0]], [[False]], [[1.0]]]}),
    ("factor --laurent {doc}", {"n": 1, "band": True,
                                "coeffs_re": [[[0.25]], [[1.0]], [[0.25]]],
                                "coeffs_im": [[[0.0]], [[0.0]], [[0.0]]]}),
    *(("verify --poly {poly} --cert {doc}", {**FROZEN_CERT, "residual": residual})
      for residual in (None, [1], True, "1e-3")),
], ids=["measure-n-x", "measure-W", "map-kraus", "poly", "poly-symmetric", "moments",
        "laurent", "cert-residual-null", "cert-residual-list", "cert-residual-true",
        "cert-residual-string"])
def test_json_booleans_are_not_numbers(workspace, argv, doc):
    path = workspace["dir"] / "bool.json"
    path.write_text(json.dumps(doc))
    res = run(argv.format(poly=workspace["poly.json"], doc=path).split())
    assert res.exit_code == 2
    assert res.report["error"]["type"] == "ValueError"


# the matmoments modules each subcommand loads besides cli and polymat, which
# every call loads
SUBCOMMAND_MODULES = {
    "check": {"moments"},
    "factor": {"spectral"},
    "certify": {"certificates", "spectral"},
    "verify": {"certificates", "spectral"},
    "recover": {"recovery", "measures", "moments"},
    "integrate": {"measures", "moments"},
    "shiftgap": {"shiftgap", "measures", "moments"},
}


@pytest.mark.parametrize("domain", DOMAINS)
def test_each_domain_is_read_from_the_one_table(domain, tmp_path):
    criterion, gens = DOMAINS[domain]
    # the criterion builds exactly its generators' Hankel families, keyed by coefficients
    seq = MomentSequence([0.5 ** k * np.eye(2) for k in range(5)])      # the point mass at 0.5
    assert getattr(matmoments, f"check_{criterion}")(seq).passed
    assert list(seq._families) == list(gens.values())
    # a certificate takes exactly its domain's generator names
    for name in {name for _, table in DOMAINS.values() for name in table}:
        if name in gens:
            SosCertificate(domain, {name: []})
        else:
            with pytest.raises(ValueError, match=f"generator '{re.escape(name)}' in 'sigma' not"):
                SosCertificate(domain, {name: []})
    # momentctl offers exactly the table's criteria and domains, and runs each
    usage = {name: parser.format_usage() for name, parser in
             next(a for a in _build_parser()._actions if a.dest == "command").choices.items()}
    assert "{" + ",".join(c for c, _ in DOMAINS.values()) + "}" in usage["check"]
    assert "{" + ",".join(DOMAINS) + "}" in usage["certify"]
    (tmp_path / "s.json").write_text(json.dumps(momentsequence_to_json(seq)))
    (tmp_path / "f.json").write_text(json.dumps(matrixpoly_to_json(
        MatrixPoly.from_scalar([1.0, 0.0, 1.0]))))
    res = run(["check", "--variant", criterion, "--moments", str(tmp_path / "s.json")])
    assert res.exit_code == 0 and res.report["variant"] == criterion
    res = run(["certify", "--poly", str(tmp_path / "f.json"), "--domain", domain])
    assert res.exit_code == 0 and set(res.report["certificate"]["sigma"]) <= set(gens)


def test_numpy_only_subcommands_leave_scipy_unloaded(workspace):
    # every subcommand runs on numpy alone, factor, certify and recover included;
    # each loads only its own modules, and numpy.polynomial never loads
    laurent = workspace["dir"] / "laurent.json"
    laurent.write_text(json.dumps({"n": 1, "band": 1,
                                   "coeffs_re": [[[1.0]], [[2.0]], [[1.0]]],
                                   "coeffs_im": [[[0.0]], [[0.0]], [[0.0]]]}))
    neg_laurent = workspace["dir"] / "neg_laurent.json"      # 1 + 2 cos t
    neg_laurent.write_text(json.dumps({"n": 1, "band": 1,
                                       "coeffs_re": [[[1.0]], [[1.0]], [[1.0]]],
                                       "coeffs_im": [[[0.0]], [[0.0]], [[0.0]]]}))
    neg_poly = workspace["dir"] / "neg_poly.json"            # x^2 - 1
    neg_poly.write_text(json.dumps(matrixpoly_to_json(MatrixPoly.from_scalar([-1.0, 0.0, 1.0]))))
    cert = workspace["dir"] / "cert.json"
    expected = {cmd: sorted(f"matmoments.{m}" for m in mods | {"cli", "polymat"})
                for cmd, mods in SUBCOMMAND_MODULES.items()}
    # a fresh interpreter: this test process may already hold scipy
    script = textwrap.dedent(f"""
        import json, sys
        expected = {expected!r}

        def submodules():
            return sorted(m for m in sys.modules if m.startswith("matmoments."))

        def fresh_run(argv):
            # a clean import of the package for every call, so each call
            # shows the modules it loads by itself
            for name in [m for m in sys.modules if m.split(".")[0] == "matmoments"]:
                del sys.modules[name]
            import matmoments
            assert submodules() == [], "import matmoments loaded " + repr(submodules())
            from matmoments.cli import run
            res = run(argv)
            assert submodules() == expected[argv[0]], (argv, submodules())
            assert "scipy" not in sys.modules, argv
            assert "numpy.polynomial" not in sys.modules, argv
            return res

        calls = [
            ["check", "--variant", "hamburger", "--moments", {workspace["moments4.json"]!r}],
            ["factor", "--laurent", {str(laurent)!r}],
            ["certify", "--poly", {workspace["matpoly.json"]!r}, "--domain", "line"],
            ["certify", "--poly", {workspace["poly.json"]!r}, "--domain", "halfline"],
            ["certify", "--poly", {workspace["poly.json"]!r}, "--domain", "interval"],
            ["recover", "--moments", {workspace["moments4.json"]!r}],
            ["integrate", "--poly", {workspace["matpoly.json"]!r},
             "--measure", {workspace["measure.json"]!r}],
            ["shiftgap", "--dim", "3", "--trials", "20"],
        ]
        for argv in calls:
            res = fresh_run(argv)
            assert res.exit_code == 0, argv
            if argv[0] == "certify":
                with open({str(cert)!r}, "w") as fh:
                    json.dump(res.report["certificate"], fh)
                ver = fresh_run(["verify", "--poly", argv[2], "--cert", {str(cert)!r}])
                assert ver.exit_code == 0 and ver.report["pass"] is True, argv
        # the failure paths, where the PSD locator runs on the circle and the line
        for argv in (["factor", "--laurent", {str(neg_laurent)!r}],
                     ["certify", "--poly", {str(neg_poly)!r}, "--domain", "line"]):
            assert fresh_run(argv).exit_code == 1, argv

        import matmoments
        for name in matmoments.__all__:
            assert getattr(matmoments, name).__name__ == name, name
        assert set(matmoments.__all__) <= set(dir(matmoments))
        assert "scipy" not in sys.modules and "numpy.polynomial" not in sys.modules
    """)
    src = str(Path(matmoments.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_package_names_follow_their_module(monkeypatch):
    # the package resolves an exported name on every access and caches
    # nothing, so a wrapper swapped into a submodule and back out never
    # lingers in the package namespace
    original = matmoments.recovery.recover
    monkeypatch.setattr(matmoments.recovery, "recover", "wrapper")
    assert matmoments.recover == "wrapper"
    monkeypatch.undo()
    assert matmoments.recover is original
    assert "recover" not in vars(matmoments)
    with pytest.raises(AttributeError, match="no attribute 'recovr'"):
        matmoments.recovr


def test_package_dir_lists_every_export_and_submodule():
    names = dir(matmoments)
    assert names == sorted(names)
    assert set(matmoments.__all__) | {"measures", "recovery", "shiftgap"} <= set(names)


def test_malformed_json_is_input_error(workspace):
    res = run(["check", "--variant", "hamburger", "--moments", workspace["broken.json"]])
    assert res.exit_code == 2
    assert "malformed JSON" in res.report["error"]["message"]


@pytest.mark.parametrize("argv,what", [
    (["check", "--variant", "hamburger", "--moments", "{list}"], "moment sequence"),
    (["recover", "--moments", "{list}"], "moment sequence"),
    (["factor", "--laurent", "{list}"], "Laurent polynomial"),
    (["certify", "--poly", "{list}", "--domain", "line"], "matrix polynomial"),
    (["integrate", "--poly", "{list}", "--measure", "{measure}"], "matrix polynomial"),
    (["integrate", "--poly", "{poly}", "--measure", "{list}"], "measure"),
    (["shiftgap", "--dim", "2", "--functional", "{list}"], "measure"),
    (["verify", "--poly", "{poly}", "--cert", "{list}"], "certificate"),
], ids=["check", "recover", "factor", "certify", "integrate-poly", "integrate-measure",
        "shiftgap", "verify-cert"])
def test_a_document_that_is_no_json_object_is_named(workspace, argv, what):
    path = workspace["dir"] / "list.json"
    path.write_text("[1, 2]")
    files = {"list": str(path), "poly": workspace["poly.json"],
             "measure": workspace["measure.json"]}
    res = run([arg.format(**files) for arg in argv])
    assert res.exit_code == 2
    assert res.report["error"] == {"type": "ValueError",
                                   "message": f"{what} document must be a JSON object"}


def test_missing_file_is_input_error(workspace):
    missing = str(workspace["dir"] / "absent.json")
    res = run(["check", "--variant", "hamburger", "--moments", missing])
    assert res.exit_code == 2
    assert res.report["error"] == {"type": "ValueError", "message": f"{missing}: file not found"}


@pytest.mark.parametrize("case", ["directory", "too-deep", "not-utf8"])
def test_unreadable_input_file_is_an_input_error_naming_it(tmp_path, case):
    # a directory raised IsADirectoryError and 100,000 nested "[" raised
    # RecursionError out of run, a traceback with exit 1; bytes that are not
    # UTF-8 gave a UnicodeDecodeError that did not name the file.  A
    # permission error takes the OSError branch too, but is not tested:
    # root reads any file
    path = tmp_path
    if case == "too-deep":
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
    if case == "not-utf8":
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe")
    res = run(["check", "--variant", "hamburger", "--moments", str(path)])
    assert res.exit_code == 2 and res.report["error"]["type"] == "ValueError"
    assert res.report["error"]["message"] == {
        "directory": f"{path}: cannot read: Is a directory",
        "too-deep": f"{path}: JSON nested too deeply to read",
        "not-utf8": f"{path}: malformed JSON: 'utf-8' codec can't decode byte 0xff "
                    "in position 0: invalid start byte"}[case]


def test_help_exits_zero_with_only_the_usage_text(capsys):
    assert run(["--help"]) == (0, {})
    capsys.readouterr()
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: momentctl")


def test_main_without_arguments_reads_sys_argv(workspace, monkeypatch, capsys):
    argv = ["check", "--variant", "hamburger", "--moments", workspace["moments4.json"]]
    monkeypatch.setattr("sys.argv", ["momentctl", *argv])
    assert main() == 0
    assert capsys.readouterr().out == render(run(argv).report)


def test_missing_field_names_the_field(workspace):
    res = run(["check", "--variant", "hamburger", "--moments", workspace["bad.json"]])
    assert res.exit_code == 2
    assert "moments" in res.report["error"]["message"]


@pytest.mark.parametrize("functional", [False, True])
def test_negative_trial_count_is_input_error(workspace, functional):
    # a negative count used to exit 0 with all_psd true
    argv = ["shiftgap", "--dim", "2", "--trials", "-5"]
    if functional:
        argv += ["--functional", workspace["measure.json"]]
    res = run(argv)
    assert res.exit_code == 2
    assert res.report["error"]["type"] == "ValueError"
    assert "trials must be a nonnegative integer" in res.report["error"]["message"]
    zero = run(["shiftgap", "--dim", "2", "--trials", "0"])
    assert zero.exit_code == 0 and zero.report["probe"]["all_psd"] is True


def test_shiftgap_dimension_has_no_upper_cap():
    # the randomized probe rescaled G by lcm(1..N), which overflows float64
    # from N = 709; the leading-coefficient argument needs no rescale
    res = run(["shiftgap", "--dim", "709"])
    assert res.exit_code == 0
    probe = res.report["probe"]
    assert probe["min_leading_eigenvalue"] == pytest.approx(1.0 / 709)
    assert probe["all_psd"] is True and probe["negative_candidate_excluded"] is True
    low = run(["shiftgap", "--dim", "0"])
    assert low.exit_code == 2 and low.report["error"]["type"] == "ValueError"


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_shiftgap_argument_holds_at_every_small_dimension(dim):
    res = run(["shiftgap", "--dim", str(dim)])
    assert res.exit_code == 0
    probe = res.report["probe"]
    assert probe["all_psd"] is True and probe["negative_candidate_excluded"] is True
    assert probe["min_leading_eigenvalue"] == pytest.approx(1.0 / dim)


def test_shiftgap_stdout_ignores_trials_and_seed(capsys):
    outs = []
    for trials, seed in (("300", "5"), ("0", "9")):
        assert main(["shiftgap", "--dim", "4", "--trials", trials, "--seed", seed]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_shiftgap_atom_beyond_the_float_range_is_input_error(tmp_path):
    # |x|^3 overflows float64 at x = 1e103: the module audit used to end in
    # an OverflowError traceback and no report
    fn = tmp_path / "huge_atom.json"
    fn.write_text(json.dumps({"n": 2, "atoms": [{"x": 0.0, "W": np.eye(2).tolist()},
                                                {"x": 1e103, "W": np.eye(2).tolist()}]}))
    res = run(["shiftgap", "--dim", "2", "--functional", str(fn)])
    assert res.exit_code == 2
    assert res.report["error"]["type"] == "ValueError"
    assert "atom 1 at x=1e+103" in res.report["error"]["message"]


def test_library_entry_errors_report_their_public_class(tmp_path):
    # the moment S_6 = 1e360 I overflows inside the library, whose private
    # _EntryError reached the report as its type
    fn = tmp_path / "far_pair.json"
    fn.write_text(json.dumps({"n": 2, "atoms": [{"x": 1e60, "W": np.eye(2).tolist()}]}))
    res = run(["shiftgap", "--dim", "2", "--functional", str(fn)])
    assert res.exit_code == 2
    assert res.report["error"] == {"type": "ValueError",
                                   "message": "moments[6] has a non-finite entry"}


def test_no_private_exception_class_can_reach_a_report():
    # a report's type is type(exc).__name__, so only the two abstract bases,
    # which nothing raises itself, may have a private name; _EntryError, a
    # ValueError the constructors raised, once did
    modules = [importlib.import_module(f"matmoments.{name}") for name in matmoments._EXPORTS]
    defined = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == module.__name__}
    exported = {getattr(matmoments, name) for name in matmoments.__all__}
    assert {c.__name__ for c in defined - exported} == {"_Failure", "_NotPsdOnDomain"}


def test_recover_atom_beyond_the_float_range_is_input_error(tmp_path, capsys):
    # the pencil point is 1e160, whose square Python's float ** could not
    # take: an OverflowError traceback, exit 1 and no report
    path = tmp_path / "moments.json"
    path.write_text(json.dumps({"n": 1, "moments": [[[1.0]], [[1e160]], [[1e300]]]}))
    code = main(["recover", "--moments", str(path)])
    report = _strict_json(capsys.readouterr().out)
    assert code == 2
    assert report["error"] == {"type": "ValueError",
                               "message": "atom at x=1e+160: power x^2 overflows float64"}


def test_overflow_input_errors_leave_stderr_empty(tmp_path):
    # numpy's overflow RuntimeWarning reached stderr ahead of each report.
    # factor and certify on 1e308 (1 + x^2) also printed LAPACK's DLASCL
    # lines to stdout and ended in NoConvergence or SosConsistencyError:
    # each now ends in a result within its target or in an overflow's ValueError
    docs = {"quadratic.json": {"n": 1, "coeffs": [[[1.0]], [[1.0]], [[1.0]]]},
            "huge_constant.json": {"n": 1, "band": 0, "coeffs_re": [[[1e308]]],
                                   "coeffs_im": [[[0.0]]]},
            "huge_quadratic.json": {"n": 1, "coeffs": [[[1e308]], [[0.0]], [[1e308]]]},
            "far_atom.json": {"n": 1, "atoms": [{"x": 1e200, "W": [[1.0]]}]},
            "merged_overflow.json": {"n": 1, "atoms": [{"x": 0.5, "W": [[1e308]]}] * 2},
            "huge.json": {"n": 1, "coeffs": [[[1e300]]]},
            "line_cert.json": {"variant": "line",
                               "sigma": {"1": [{"n": 1, "coeffs": [[[1e200]]]}]}},
            "far_pair.json": {"n": 2, "atoms": [{"x": 1e60, "W": np.eye(2).tolist()}]},
            "moments.json": {"n": 1, "moments": [[[1.0]], [[1e160]], [[1e300]]]},
            "eig_overflow.json": {"n": 1, "moments": [[[1.0]], [[0.5]], [[1e308]], [[-1e308]],
                                                      [[1e308]]]},
            "sum_overflow.json": {"n": 1, "moments": [[[0.0]], [[0.0]], [[1e308]], [[-1e308]]]}}
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argvs = [["integrate", "--poly", "quadratic.json", "--measure", "far_atom.json"],
             ["integrate", "--poly", "quadratic.json", "--measure", "merged_overflow.json"],
             ["verify", "--poly", "huge.json", "--cert", "line_cert.json"],
             ["shiftgap", "--dim", "2", "--functional", "far_pair.json"],
             ["recover", "--moments", "moments.json"],
             ["check", "--variant", "hamburger", "--moments", "eig_overflow.json"],
             ["recover", "--moments", "eig_overflow.json"],
             ["check", "--variant", "hausdorff", "--moments", "sum_overflow.json"],
             ["factor", "--laurent", "huge_constant.json"]]
    argvs += [["certify", "--poly", "huge_quadratic.json", "--domain", domain]
              for domain in ("line", "halfline", "interval")]
    script = ("import json; from matmoments.cli import run; "
              f"print(json.dumps([run(a) for a in {argvs!r}]))")
    src = str(Path(matmoments.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr == ""
    results = json.loads(proc.stdout)       # stdout holds the reports and nothing else
    assert [code for code, _ in results] == [2] * (len(argvs) - 4) + [0, 0, 2, 2]
    factor, line, halfline, interval = (report for _, report in results[-4:])
    assert factor["residual"] <= 1e-9 * 1e308
    assert line["certificate"]["residual"] <= 1e-8 * 1e308
    assert halfline["error"] == {"type": "ValueError", "message":
                                 "certificate reassembly overflows float64: residual nan"}
    assert interval["error"] == {"type": "ValueError",
                                 "message": "the input's expansion on the circle overflows float64"}


@pytest.mark.parametrize("variant", [["line"], {"line": "line"}])
def test_verify_names_a_variant_that_is_not_a_string(tmp_path, capsys, variant):
    # an array or object variant raised TypeError (unhashable) out of
    # momentctl: a traceback and exit 1, the domain-failure code
    (tmp_path / "f.json").write_text(json.dumps({"n": 1, "coeffs": [[[1.0]]]}))
    (tmp_path / "cert.json").write_text(json.dumps({"variant": variant, "sigma": {}}))
    code = main(["verify", "--poly", str(tmp_path / "f.json"),
                 "--cert", str(tmp_path / "cert.json")])
    out = capsys.readouterr()
    assert (code, out.err) == (2, "")
    assert _strict_json(out.out)["error"] == {
        "type": "ValueError",
        "message": "field 'variant' must be one of ['halfline', 'interval', 'line']"}


def _strict_json(text):
    """``text`` parsed as JSON, refusing the non-standard Infinity, -Infinity and NaN."""
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv,poly,doc,match", [
    ("integrate", [[[1.0]], [[1.0]], [[1.0]]],
     {"n": 1, "atoms": [{"x": 1e200, "W": [[1.0]]}]}, "atom 0 at x=1e+200"),
    ("integrate", [[[1.0]], [[1.0]], [[1.0]]],
     {"h_dim": 1, "k_dim": 1, "atoms": [{"x": 1e200, "kraus": [[[1.0]]]}]},
     "atom 0 at x=1e+200"),
    ("verify", [[[1e300]]], {"variant": "line", "sigma": {"1": [{"n": 1, "coeffs": [[[1e200]]]}]}},
     "certificate reassembly overflows float64: residual inf"),
], ids=["integrate-trace", "integrate-map", "verify"])
def test_overflow_is_input_error_with_strict_json_stdout(tmp_path, capsys, argv, poly, doc, match):
    # these printed Infinity, which is not JSON; integrate exited 0 and verify 1
    poly_path, doc_path = tmp_path / "poly.json", tmp_path / "doc.json"
    poly_path.write_text(json.dumps({"n": 1, "coeffs": poly}))
    doc_path.write_text(json.dumps(doc))
    flag = "--measure" if argv == "integrate" else "--cert"
    with np.errstate(over="ignore"):
        code = main([argv, "--poly", str(poly_path), flag, str(doc_path)])
    report = _strict_json(capsys.readouterr().out)
    assert code == 2 and report["error"]["type"] == "ValueError"
    assert match in report["error"]["message"]


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


def _raiser(exc):
    def raise_it(*args, **kwargs):
        raise exc
    return raise_it


_BEST = matmoments.SpectralFactor(np.zeros((1, 1, 1), dtype=complex), 1.0, 0.0, 1)
# (class name, argv, (module, function) patched to raise it, or None where the
# input itself reaches it)
EXIT_ONE_CASES = [
    ("NotPsdOnCircle", ["factor", "--laurent", "neg_laurent.json"], None),
    ("NoConvergence", ["factor", "--laurent", "neg_laurent.json"],
     ("spectral", "fejer_riesz", matmoments.NoConvergence(_BEST))),
    ("OddDegree", ["certify", "--poly", "odd.json", "--domain", "line"], None),
    ("_NotPsdOnDomain", ["certify", "--poly", "odd.json", "--domain", "interval"],
     ("certificates", "decompose_interval", matmoments.certificates._NotPsdOnDomain(-1.0, 0.5))),
    ("SosConsistencyError", ["certify", "--poly", "odd.json", "--domain", "halfline"],
     ("certificates", "decompose_halfline",
      matmoments.certificates.SosConsistencyError("residual"))),
    ("HankelNotPsd", ["recover", "--moments", "not_psd.json"], None),
    ("ModulePositivityError", ["shiftgap", "--dim", "1", "--trials", "10",
                               "--functional", "negative_atom.json"], None),
    ("SupportViolation", ["shiftgap", "--dim", "1", "--trials", "10",
                          "--functional", "negative_atom.json"],
     ("shiftgap", "cauchy_schwarz_chain", matmoments.SupportViolation(0, -2.0, 0, -2.0))),
]


@pytest.fixture
def failing_inputs(tmp_path, monkeypatch):
    docs = {
        "neg_laurent.json": {"n": 1, "band": 1, "coeffs_re": [[[1.0]], [[1.0]], [[1.0]]],
                             "coeffs_im": [[[0.0]], [[0.0]], [[0.0]]]},
        "odd.json": _poly_doc([[[1.0]], [[1.0]]]),
        "not_psd.json": {"n": 1, "moments": [[[1.0]], [[0.0]], [[-1.0]]]},
        "negative_atom.json": {"n": 1, "atoms": [{"x": -2.0, "W": [[1.0]]}]},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("name, argv, patch", EXIT_ONE_CASES, ids=[c[0] for c in EXIT_ONE_CASES])
def test_every_domain_failure_exits_one(failing_inputs, monkeypatch, name, argv, patch):
    # each class derives from polymat._Failure, which alone decides exit 1;
    # a ValueError subclass without it would exit 2
    if patch is not None:
        module, function, exc = patch
        monkeypatch.setattr(getattr(matmoments, module), function, _raiser(exc))
    res = run(argv)
    assert res.exit_code == 1
    assert res.report["error"]["type"] == name
    assert res.report["command"] == argv[0] and res.report["schema_version"] == SCHEMA_VERSION


def test_exactly_the_exit_one_classes_are_failures():
    # the exported exceptions, and any base that EXIT_ONE_CASES names
    named = {name for name, _, _ in EXIT_ONE_CASES}
    exported = [getattr(matmoments, name) for name in matmoments.__all__]
    classes = [c for c in exported if isinstance(c, type) and issubclass(c, BaseException)]
    assert len(classes) == 10
    for cls in classes:
        assert issubclass(cls, _Failure) == any(c.__name__ in named for c in cls.__mro__), cls


@pytest.mark.parametrize("exc", [ValueError("plain"), KeyError("key")])
def test_plain_value_and_key_errors_exit_two(failing_inputs, monkeypatch, exc):
    monkeypatch.setattr(matmoments.spectral, "fejer_riesz", _raiser(exc))
    res = run(["factor", "--laurent", "neg_laurent.json"])
    assert res.exit_code == 2
    assert res.report["error"]["type"] == type(exc).__name__


def test_unreported_errors_propagate(failing_inputs, monkeypatch):
    monkeypatch.setattr(matmoments.spectral, "fejer_riesz", _raiser(RuntimeError("bug")))
    with pytest.raises(RuntimeError, match="bug"):
        run(["factor", "--laurent", "neg_laurent.json"])


def test_reports_are_byte_identical(workspace):
    a = run(["check", "--variant", "hamburger", "--moments", workspace["moments4.json"]])
    b = run(["check", "--variant", "hamburger", "--moments", workspace["moments4.json"]])
    assert render(a.report) == render(b.report)
    s = run(["shiftgap", "--dim", "3", "--trials", "100", "--seed", "9"])
    t = run(["shiftgap", "--dim", "3", "--trials", "100", "--seed", "9"])
    assert render(s.report) == render(t.report)


def _poly_doc(coeffs):
    return {"n": len(coeffs[0]), "symmetric": True, "coeffs": coeffs}


# byte-exact stdout of certify, factor, recover and integrate on a map measure.
# A change in the Riccati solve's rounding moves the last digits of every
# certify and factor file but certify_not_psd_line.  The interval input is
# singular at x = 1, which fixes its factor only to ~1e-5: there the digits
# move from the sixth on.  {poly} is the certify_line polynomial
GOLDEN_CALLS = {
    "certify_line": ("certify --domain line --poly {doc}", _poly_doc(
        [[[6, 2], [2, 6]], [[4, 0], [0, -4]], [[6, 4], [4, 6]], [[0, 0], [0, 0]],
         [[2, 0], [0, 2]]])),
    "certify_halfline": ("certify --domain halfline --poly {doc}", _poly_doc(
        [[[1, 1], [1, 5]], [[1, 1], [1, -1]], [[5, 2], [2, 3]], [[2, -1], [-1, 1]],
         [[1, 0], [0, 1]]])),
    "certify_interval": ("certify --domain interval --poly {doc}", _poly_doc(
        [[[2, 0], [0, 2]], [[3, 4], [4, 1]], [[1, -4], [-4, -3]], [[-1, 0], [0, 0]]])),
    # diag(x^2 - 1, 1) is least at x = 0, the midpoint of the located roots
    # +-(1 - 5e-9) of det(F + 1e-8 I); rounding puts it at -5.6e-17, so -0.000000
    "certify_not_psd_line": ("certify --domain line --poly {doc}", _poly_doc(
        [[[-1, 0], [0, 1]], [[0, 0], [0, 0]], [[1, 0], [0, 0]]])),
    "factor": ("factor --laurent {doc}", {
        "n": 2, "band": 2,
        "coeffs_re": [[[0, 2], [1, 1]], [[1, 1], [1, 1]], [[7, 1], [1, 4]],
                      [[1, 1], [1, 1]], [[0, 1], [2, 1]]],
        "coeffs_im": [[[0, 0], [0, 0]]] * 5}),
    # moments of atoms W = [[2, 1], [1, 1]], [[1, 0], [0, 3]], [[1, -1], [-1, 2]]
    # at x = -1, 0, 2
    "recover": ("recover --moments {doc}", {"n": 2, "moments": [
        [[4, 0], [0, 6]], [[0, -3], [-3, 3]], [[6, -3], [-3, 9]], [[6, -9], [-9, 15]],
        [[18, -15], [-15, 33]], [[30, -33], [-33, 63]], [[66, -63], [-63, 129]]]}),
    "integrate_map": ("integrate --poly {poly} --measure {doc}", {
        "h_dim": 2, "k_dim": 2, "atoms": [
            {"x": -0.3, "kraus": [[[1, 0.25], [0, 1]], [[0.5, 0], [-1, 2]]]},
            {"x": 1.5, "kraus": [[[0.75, -1], [2, 0.5]]]}]}),
}


def golden_argv(name, tmp_path):
    """The argv of GOLDEN_CALLS[name], its documents written into ``tmp_path``."""
    argv, doc = GOLDEN_CALLS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(GOLDEN_CALLS["certify_line"][1]))
    return argv.format(doc=path, poly=poly).split()


@pytest.mark.parametrize("name", list(GOLDEN_CALLS))
def test_certify_and_factor_stdout_is_golden(tmp_path, capsys, name):
    code = main(golden_argv(name, tmp_path))
    assert code == (1 if "not_psd" in name else 0)
    golden = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def _tol_argvs(workspace):
    """Each subcommand that takes --tol, and its exit code at the default tol.

    The stieltjes check fails on atoms at -1 and 1: a NaN tol used to pass it.
    """
    factor = workspace["dir"] / "laurent.json"
    factor.write_text(json.dumps({"n": 1, "band": 1, "coeffs_re": [[[1.0]], [[2.0]], [[1.0]]],
                                  "coeffs_im": [[[0.0]], [[0.0]], [[0.0]]]}))
    cert = workspace["dir"] / "frozen.json"
    cert.write_text(json.dumps(FROZEN_CERT))
    return {"check": (["check", "--variant", "stieltjes", "--moments",
                       workspace["moments4.json"]], 1),
            "factor": (["factor", "--laurent", str(factor)], 0),
            "certify": (["certify", "--poly", workspace["poly.json"], "--domain", "line"], 0),
            "verify": (["verify", "--poly", workspace["poly.json"], "--cert", str(cert)], 0)}


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("command", ["check", "factor", "certify", "verify"])
def test_tol_must_be_finite_and_nonnegative(workspace, command, tol):
    argv, code = _tol_argvs(workspace)[command]
    assert run(argv).exit_code == code
    res = run(argv + [f"--tol={tol}"])
    assert res.exit_code == 2
    assert res.report["error"] == {"type": "ValueError", "message":
                                   f"tol must be a finite nonnegative number, got {float(tol)!r}"}


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "0", "1e-8"])
def test_recover_takes_no_tol(workspace, tol):
    # recover reads its rank cut and merge radius off the Hankel spectrum
    argv = ["recover", "--moments", workspace["moments4.json"]]
    assert run(argv).exit_code == 0
    res = run(argv + [f"--tol={tol}"])
    assert res.exit_code == 2
    assert res.report["error"] == {"type": "usage", "message": "invalid arguments"}


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, True, False])
def test_library_entry_points_reject_bad_tol(tol):
    from matmoments import (LaurentPoly, check_hamburger, check_hausdorff, check_stieltjes,
                            decompose_halfline, decompose_interval, decompose_line,
                            fejer_riesz, operator_check)
    seq = forward_moments(AtomicMatrixMeasure(2, [(0.25, np.eye(2)), (0.75, np.eye(2))]), 4)
    f = MatrixPoly([np.eye(2), 0 * np.eye(2), np.eye(2)], symmetric=True)
    calls = {"fejer_riesz": lambda t: fejer_riesz(LaurentPoly(np.eye(2)[np.newaxis]), tol=t),
             "decompose_line": lambda t: decompose_line(f, tol=t),
             "decompose_halfline": lambda t: decompose_halfline(f, tol=t),
             "decompose_interval": lambda t: decompose_interval(f, tol=t),
             "check_hamburger": lambda t: check_hamburger(seq, tol=t),
             "check_stieltjes": lambda t: check_stieltjes(seq, tol=t),
             "check_hausdorff": lambda t: check_hausdorff(seq, tol=t),
             "operator_check": lambda t: operator_check(seq, [np.eye(2)] * 2, "hausdorff", tol=t)}
    for call in calls.values():
        call(1e-6)
        with pytest.raises(ValueError, match=f"got {tol!r}"):
            call(tol)
    assert operator_check(seq, [np.eye(2)], "hamburger", tol=0.0).passed   # zero is valid


def test_residual_targets_reject_zero_tol(workspace):
    # float64 rounding keeps every residual above 0, so fejer_riesz and the
    # decomposers refuse a zero target at once rather than polish to
    # NoConvergence; the moment checks and verify still accept 0
    from matmoments import (LaurentPoly, decompose_halfline, decompose_interval,
                            decompose_line, fejer_riesz)
    f = MatrixPoly([np.eye(2), 0 * np.eye(2), np.eye(2)], symmetric=True)
    calls = [lambda t: fejer_riesz(LaurentPoly(np.eye(2)[np.newaxis]), tol=t),
             lambda t: decompose_line(f, tol=t), lambda t: decompose_halfline(f, tol=t),
             lambda t: decompose_interval(f, tol=t)]
    for call in calls:
        call(1e-12)
        for zero in (0, 0.0, -0.0):
            with pytest.raises(ValueError, match=f"tol must be positive .*, got {zero!r}$"):
                call(zero)
    argvs = _tol_argvs(workspace)
    for command in ("factor", "certify"):
        res = run(argvs[command][0] + ["--tol=0"])
        assert res.exit_code == 2
        assert res.report["error"] == {"type": "ValueError", "message":
                                       "tol must be positive for a residual target, got 0.0"}
    for command in ("check", "verify"):
        argv, code = argvs[command]
        assert run(argv + ["--tol=0"]).exit_code == code


def test_stdout_does_not_depend_on_the_blas_thread_count(tmp_path):
    # two OpenBLAS threads summed this half-line certificate in another order
    from test_bit_identity import _wide_corpus
    domain, f = _wide_corpus()[44]
    (tmp_path / "f.json").write_text(json.dumps(matrixpoly_to_json(MatrixPoly(f))))
    src = str(Path(matmoments.__file__).resolve().parent.parent)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        env.update((var, threads) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                              "VECLIB_MAXIMUM_THREADS"))
        proc = subprocess.run([sys.executable, "-m", "matmoments.cli", "certify", "--poly",
                               "f.json", "--domain", domain], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
