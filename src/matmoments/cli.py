"""Batch command-line front end: JSON files in, JSON reports out.

Exit codes: 0 pass, 1 fail with report, 2 input error.  Reports are
emitted with sorted keys so identical inputs produce byte-identical
output.  File arguments accept "-" for standard input, which lets
``certify`` pipe into ``verify``.
"""

import argparse
import json
import sys
from dataclasses import dataclass

from . import certificates, measures, moments, recovery, shiftgap, spectral
from .polymat import matrixpoly_from_json

SCHEMA_VERSION = 2


@dataclass
class CommandResult:
    exit_code: int
    report: dict


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


def _cmd_check(args):
    seq = moments.momentsequence_from_json(_load_json(args.moments))
    checker = {"hamburger": moments.check_hamburger,
               "stieltjes": moments.check_stieltjes,
               "hausdorff": moments.check_hausdorff}[args.variant]
    report = checker(seq, tol=args.tol)
    doc = {"schema_version": SCHEMA_VERSION, "command": "check",
           "variant": args.variant, "report": report.to_json()}
    return CommandResult(0 if report.passed else 1, doc)


def _cmd_factor(args):
    u = spectral.laurent_from_json(_load_json(args.laurent))
    fac = spectral.fejer_riesz(u, tol=args.tol)
    doc = {
        "schema_version": SCHEMA_VERSION, "command": "factor",
        "factor": {
            "n": fac.n, "degree": fac.deg,
            "coeffs_re": [[[float(v) for v in row] for row in c] for c in fac.coeffs.real],
            "coeffs_im": [[[float(v) for v in row] for row in c] for c in fac.coeffs.imag],
        },
        "residual": float(fac.residual),
        "epsilon_used": float(fac.epsilon_used),
        "toeplitz_order": int(fac.toeplitz_order),
    }
    return CommandResult(0, doc)


def _cmd_certify(args):
    poly = matrixpoly_from_json(_load_json(args.poly))
    decomposer = {"line": certificates.decompose_line,
                  "halfline": certificates.decompose_halfline,
                  "interval": certificates.decompose_interval}[args.domain]
    cert = decomposer(poly, tol=args.tol)
    doc = {"schema_version": SCHEMA_VERSION, "command": "certify",
           "domain": args.domain,
           "certificate": certificates.certificate_to_json(cert)}
    return CommandResult(0, doc)


def _cmd_verify(args):
    poly = matrixpoly_from_json(_load_json(args.poly))
    cert_doc = _load_json(args.cert)
    if isinstance(cert_doc, dict) and "certificate" in cert_doc:
        cert_doc = cert_doc["certificate"]     # accept a certify report directly
    cert = certificates.certificate_from_json(cert_doc)
    residual = certificates.verify_certificate(poly, cert)
    ok = residual <= args.tol
    doc = {"schema_version": SCHEMA_VERSION, "command": "verify",
           "residual": float(residual), "tol": float(args.tol), "pass": bool(ok)}
    return CommandResult(0 if ok else 1, doc)


def _cmd_recover(args):
    seq = moments.momentsequence_from_json(_load_json(args.moments))
    result = recovery.recover(seq, tol=args.tol)
    doc = {"schema_version": SCHEMA_VERSION, "command": "recover",
           "measure": measures.measure_to_json(result.measure),
           "moment_residual": float(result.moment_residual),
           "rank_used": int(result.rank_used),
           "rank_gap_ambiguous": bool(result.rank_gap_ambiguous)}
    return CommandResult(0, doc)


def _cmd_integrate(args):
    poly = matrixpoly_from_json(_load_json(args.poly))
    measure_doc = _load_json(args.measure)
    if isinstance(measure_doc, dict) and "h_dim" in measure_doc:
        m = measures.map_measure_from_json(measure_doc)
        value = measures.integrate_map(poly, m)
        payload = {"kind": "map", "value": [[float(v) for v in row] for row in value]}
    else:
        mu = measures.measure_from_json(measure_doc)
        payload = {"kind": "trace", "value": float(measures.integrate_trace(poly, mu))}
    doc = {"schema_version": SCHEMA_VERSION, "command": "integrate", **payload}
    return CommandResult(0, doc)


def _cmd_shiftgap(args):
    fam = shiftgap.build_family(args.dim)
    probe = shiftgap.leading_coeff_probe(fam, args.trials, seed=args.seed)
    chain_doc = None
    collapse = None
    ok = probe.all_psd and probe.negative_candidate_excluded
    if args.functional is not None:
        mu = measures.measure_from_json(_load_json(args.functional))
        chain = shiftgap.cauchy_schwarz_chain(mu, fam, trials=args.trials, seed=args.seed)
        chain_doc = chain.to_json()
        try:
            # the chain has audited this functional with the same trials and seed
            collapse = shiftgap._support_collapses(mu, fam)
        except ValueError:
            collapse = None     # atoms beyond the truncation: check not applicable
        ok = ok and chain.all_hold and chain.final_bound_holds
    doc = {"schema_version": SCHEMA_VERSION, "command": "shiftgap",
           "dim": int(args.dim), "probe": probe.to_json(),
           "chain": chain_doc, "support_collapse": collapse}
    return CommandResult(0 if ok else 1, doc)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="momentctl",
        description="Matrix moment problem toolkit: criteria, factorization, "
                    "certificates, recovery, integration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="block-Hankel PSD criteria on a moment sequence")
    p.add_argument("--variant", required=True, choices=["hamburger", "stieltjes", "hausdorff"])
    p.add_argument("--moments", required=True)
    p.add_argument("--tol", type=float, default=moments.DEFAULT_PSD_TOL)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("factor", help="spectral factorization of a Laurent polynomial")
    p.add_argument("--laurent", required=True)
    p.add_argument("--tol", type=float, default=spectral.DEFAULT_TOL)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("certify", help="sum-of-squares certificate for a PSD polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--domain", required=True, choices=["line", "halfline", "interval"])
    p.add_argument("--tol", type=float, default=certificates.DEFAULT_TOL)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="re-check a certificate against a polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("recover", help="atomic measure recovery from moments")
    p.add_argument("--moments", required=True)
    p.add_argument("--tol", type=float, default=recovery.DEFAULT_RANK_TOL)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("integrate", help="integrate a matrix polynomial against a measure")
    p.add_argument("--poly", required=True)
    p.add_argument("--measure", required=True)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("shiftgap", help="truncated shift-family diagnostics")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--functional", default=None)
    p.set_defaults(func=_cmd_shiftgap)
    return parser


# Exception type -> exit code, first match wins: domain failures (several
# derive from ValueError) exit 1, other value and key errors are input
# errors and exit 2.
_EXIT_CODES = (
    ((spectral.NotPsdOnCircle,
      spectral.NoConvergence,
      certificates.OddDegree,
      certificates._NotPsdOnDomain,
      certificates.SosConsistencyError,
      recovery.HankelNotPsd,
      recovery.ComplexAtoms,
      shiftgap.ModulePositivityError,
      measures.SupportViolation), 1),
    ((ValueError, KeyError), 2),
)
_REPORTED_ERRORS = tuple(t for types, _ in _EXIT_CODES for t in types)


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
        return args.func(args)
    except _REPORTED_ERRORS as exc:
        code = next(code for types, code in _EXIT_CODES if isinstance(exc, types))
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command,
               "error": {"type": type(exc).__name__, "message": str(exc)}}
        return CommandResult(code, doc)


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
