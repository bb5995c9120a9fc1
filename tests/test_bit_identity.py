"""Digests over the certificates and the moment path of fixed, seeded corpora.

A change that moves any bit of a factor, a certificate or its residual,
or of a measure, its moments, a Hankel criterion's report or a recovered
measure, changes its digest.  A change meant to be bit-identical (a
faster kernel, fewer wrappers) must leave it as it is; a change that
moves bits on purpose says so and records the new digest.  A digest is of float64
arithmetic on one numpy/BLAS build: another build may round a matrix
product differently and need its own.
"""

import hashlib
import json

import numpy as np

from conftest import rand_psd, separated_points
from matmoments import (AtomicMatrixMeasure, MatrixPoly, certificate_to_json, certificates,
                        check_hamburger, check_hausdorff, check_stieltjes, forward_moments,
                        operator_check, recover)

DIGEST = "c17fd9588dded1e350ba3e5a2dd0908c4b61ac742fa4d5a42b6a2eab850ce058"
MOMENT_DIGEST = "a85238bbbeb0ac7270e88fff57de2b646ab17bd7b32dc0c1cff57f50ee81f810"


def _square(rng, n, deg):
    """Coefficients of A(x) A(x)^T for a random A of degree ``deg``."""
    a = rng.standard_normal((deg + 1, n, n))
    out = np.zeros((2 * deg + 1, n, n))
    for i in range(deg + 1):
        for j in range(deg + 1):
            out[i + j] += a[i] @ a[j].T
    return out


def _times(gen, coeffs):
    out = np.zeros((len(coeffs) + len(gen) - 1,) + coeffs.shape[1:])
    for j, w in enumerate(gen):
        out[j:j + len(coeffs)] += w * coeffs
    return out


def _corpus():
    """(domain, F) pairs: n 1-6, even degree 2-16, every domain, singular squares."""
    rng = np.random.default_rng(20261018)
    gens = {"line": [[1.0], [1.0]], "halfline": [[1.0], [0.0, 1.0]],
            "interval": [[1.0], [0.0, 1.0], [1.0, -1.0], [0.0, 1.0, -1.0]]}
    cases = []
    for n in range(1, 7):
        for i, domain in enumerate(("line", "halfline", "interval")):
            for deg in (2 + 2 * ((n + i) % 4), 10 + 2 * ((n + i) % 4)):
                h = deg // 2
                f = np.zeros((deg + 1, n, n))
                for gen in gens[domain]:
                    part = _times(gen, _square(rng, n, h - (len(gen) > 1)))
                    f[:len(part)] += part
                cases.append((domain, f))
        # one square H H^T, singular where det H has real roots, on every
        # domain; on the interval with its top coefficients padded by zeros
        f = _square(rng, n, 1 + n % 3)
        cases += [("line", f), ("halfline", f),
                  ("interval", np.concatenate([f, np.zeros((2, n, n))]))]
    return cases


def test_certificate_digest_is_unchanged():
    decompose = {"line": certificates.decompose_line,
                 "halfline": certificates.decompose_halfline,
                 "interval": certificates.decompose_interval}
    sha = hashlib.sha256()
    for domain, f in _corpus():
        try:
            cert = decompose[domain](MatrixPoly(0.5 * (f + np.swapaxes(f, 1, 2)),
                                                symmetric=True))
            out = json.dumps(certificate_to_json(cert), sort_keys=True)
        except (ValueError, RuntimeError) as exc:
            out = type(exc).__name__
        sha.update(f"{domain}\n{out}\n".encode())
    assert sha.hexdigest() == DIGEST


def _moment_corpus():
    """(n, atoms) lists: n 1-6, 1-6 atoms in [-2, 2] or [0, 1], displaced atoms, merging pairs."""
    rng = np.random.default_rng(20261019)
    cases = []
    for n in range(1, 7):
        for count in range(1, 7):
            for lo, hi in ((-2.0, 2.0), (0.0, 1.0)):
                pts = separated_points(rng, count, lo, hi, 0.05)
                cases.append((n, [(float(x), rand_psd(rng, n)) for x in pts]))
        for bad in (-0.5, 1.5):
            pts = separated_points(rng, 1 + (n + (bad > 0)) % 3, 0.0, 1.0, 0.05)
            atoms = [(float(x), rand_psd(rng, n, 0.5, 3.0)) for x in pts]
            cases.append((n, atoms + [(bad, rand_psd(rng, n, 0.5, 3.0))]))
        # two atoms closer than MERGE_TOL, which the measure merges into one
        x = float(rng.uniform(0.0, 1.0))
        cases.append((n, [(x, rand_psd(rng, n)), (x + 1e-13, rand_psd(rng, n)),
                          (x + 0.5, rand_psd(rng, n))]))
    return cases


def test_moment_path_digest_is_unchanged():
    """Measure, moments, the three criteria, one operator tuple and ``recover`` at degree 2r + 2."""
    sha = hashlib.sha256()
    rng = np.random.default_rng(7)
    for n, atoms in _moment_corpus():
        mu = AtomicMatrixMeasure(n, atoms)
        seq = forward_moments(mu, 2 * len(atoms) + 2)
        ops = rng.standard_normal((2, n, n))
        reports = [check(seq).to_json() for check in
                   (check_hamburger, check_stieltjes, check_hausdorff)]
        reports.append(operator_check(seq, ops, "hausdorff").to_json())
        for x, w in mu.atoms:
            sha.update(np.float64(x).tobytes() + w.tobytes())
        sha.update(seq.S.tobytes() + json.dumps(reports, sort_keys=True).encode())
        try:
            res = recover(seq)
        except (ValueError, RuntimeError) as exc:
            sha.update(type(exc).__name__.encode())
            continue
        for x, w in res.measure.atoms:
            sha.update(np.float64(x).tobytes() + w.tobytes())
        flags = f"{res.moment_residual!r} {res.rank_used} {res.rank_gap_ambiguous}\n"
        sha.update(flags.encode())
    assert sha.hexdigest() == MOMENT_DIGEST
