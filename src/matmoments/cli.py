"""Batch command-line front end: JSON files in, JSON reports out.

Exit codes: 0 pass; 1 a domain failure (an error deriving from
``polymat._Failure``, such as ``NotPsdOnLine``), reported; 2 an input
error (any other ``ValueError`` or ``KeyError``), reported.  Any other
exception propagates.  Reports are emitted with sorted keys so identical
inputs produce byte-identical output, and BLAS is pinned to one thread
before numpy loads, whatever the caller set: a threaded BLAS may sum in
another order and move output bits.  File arguments accept "-" for
standard input, which lets ``certify`` pipe into ``verify``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import sys
from collections import namedtuple

from .polymat import _check_tol, _Failure, _json_floats, matrixpoly_from_json

SCHEMA_VERSION = 3
CommandResult = namedtuple("CommandResult", "exit_code report")


def _load_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON: {exc}")


# Each command imports the modules it runs, so a call loads only those, and
# returns its exit code and report body; an absent --tol (None) means the
# library default.
def _cmd_check(args):
    from . import moments
    seq = moments.momentsequence_from_json(_load_json(args.moments))
    checker = {"hamburger": moments.check_hamburger,
               "stieltjes": moments.check_stieltjes,
               "hausdorff": moments.check_hausdorff}[args.variant]
    report = checker(seq, tol=moments.DEFAULT_PSD_TOL if args.tol is None else args.tol)
    return 0 if report.passed else 1, {"variant": args.variant, "report": report.to_json()}


def _cmd_factor(args):
    from . import spectral
    u = spectral.laurent_from_json(_load_json(args.laurent))
    fac = spectral.fejer_riesz(u, tol=spectral.DEFAULT_TOL if args.tol is None else args.tol)
    return 0, {"factor": {"n": fac.n, "degree": fac.deg,
                          "coeffs_re": _json_floats(fac.coeffs.real),
                          "coeffs_im": _json_floats(fac.coeffs.imag)},
               "residual": float(fac.residual), "epsilon_used": float(fac.epsilon_used),
               "toeplitz_order": int(fac.toeplitz_order)}


def _cmd_certify(args):
    from . import certificates
    poly = matrixpoly_from_json(_load_json(args.poly))
    decomposer = {"line": certificates.decompose_line,
                  "halfline": certificates.decompose_halfline,
                  "interval": certificates.decompose_interval}[args.domain]
    cert = decomposer(poly, tol=certificates.DEFAULT_TOL if args.tol is None else args.tol)
    return 0, {"domain": args.domain, "certificate": certificates.certificate_to_json(cert)}


def _cmd_verify(args):
    from . import certificates
    _check_tol(args.tol)
    poly = matrixpoly_from_json(_load_json(args.poly))
    cert_doc = _load_json(args.cert)
    if isinstance(cert_doc, dict) and "certificate" in cert_doc:
        cert_doc = cert_doc["certificate"]     # accept a certify report directly
    cert = certificates.certificate_from_json(cert_doc)
    residual = certificates.verify_certificate(poly, cert)
    if not math.isfinite(residual):
        raise ValueError(f"certificate reassembly overflows float64: residual {residual}")
    ok = residual <= args.tol * max(1.0, poly.max_coeff_abs())     # certify's scale
    return 0 if ok else 1, {"residual": float(residual), "tol": float(args.tol), "pass": bool(ok)}


def _cmd_recover(args):
    from . import measures, moments, recovery
    seq = moments.momentsequence_from_json(_load_json(args.moments))
    result = recovery.recover(seq)
    return 0, {"measure": measures.measure_to_json(result.measure),
               "moment_residual": float(result.moment_residual),
               "rank_used": int(result.rank_used),
               "rank_gap_ambiguous": bool(result.rank_gap_ambiguous)}


def _cmd_integrate(args):
    from . import measures
    poly = matrixpoly_from_json(_load_json(args.poly))
    measure_doc = _load_json(args.measure)
    if isinstance(measure_doc, dict) and "h_dim" in measure_doc:
        m = measures.map_measure_from_json(measure_doc)
        return 0, {"kind": "map", "value": _json_floats(measures.integrate_map(poly, m))}
    mu = measures.measure_from_json(measure_doc)
    return 0, {"kind": "trace", "value": float(measures.integrate_trace(poly, mu))}


def _cmd_shiftgap(args):
    from . import measures, shiftgap
    fam = shiftgap.build_family(args.dim)
    probe = shiftgap.leading_coeff_probe(fam, args.trials, seed=args.seed)
    chain_doc = collapse = None
    ok = probe.all_psd and probe.negative_candidate_excluded
    if args.functional is not None:
        mu = measures.measure_from_json(_load_json(args.functional))
        chain = shiftgap.cauchy_schwarz_chain(mu, fam)
        chain_doc = chain.to_json()
        try:
            collapse = shiftgap.support_collapse_check(mu, fam)
        except ValueError:
            collapse = None     # atoms beyond the truncation: check not applicable
        ok = ok and chain.all_hold and chain.final_bound_holds
    return 0 if ok else 1, {"dim": int(args.dim), "probe": probe.to_json(),
                            "chain": chain_doc, "support_collapse": collapse}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="momentctl",
        description="Matrix moment problem toolkit: criteria, factorization, "
                    "certificates, recovery, integration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="block-Hankel PSD criteria on a moment sequence")
    p.add_argument("--variant", required=True, choices=["hamburger", "stieltjes", "hausdorff"])
    p.add_argument("--moments", required=True)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("factor", help="spectral factorization of a Laurent polynomial")
    p.add_argument("--laurent", required=True)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("certify", help="sum-of-squares certificate for a PSD polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--domain", required=True, choices=["line", "halfline", "interval"])
    p.add_argument("--tol", type=float)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="re-check a certificate against a polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("recover", help="atomic measure recovery from moments")
    p.add_argument("--moments", required=True)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("integrate", help="integrate a matrix polynomial against a measure")
    p.add_argument("--poly", required=True)
    p.add_argument("--measure", required=True)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("shiftgap", help="truncated shift-family diagnostics")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, default=0, help="ignored; must be >= 0")
    p.add_argument("--seed", type=int, default=0, help="ignored")
    p.add_argument("--functional", default=None)
    p.set_defaults(func=_cmd_shiftgap)
    return parser


def run(argv):
    """Parse and execute one invocation; never raises on bad input."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        if code == 0:            # --help already wrote to stdout
            return CommandResult(0, {})
        return CommandResult(2, {"schema_version": SCHEMA_VERSION,
                                 "error": {"type": "usage", "message": "invalid arguments"}})
    try:
        code, body = args.func(args)
    except (_Failure, ValueError, KeyError) as exc:
        code = 1 if isinstance(exc, _Failure) else 2
        body = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    return CommandResult(code, {"schema_version": SCHEMA_VERSION, "command": args.command, **body})


def render(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    result = run(list(argv))
    if result.report:
        sys.stdout.write(render(result.report))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
