"""One digest over the certificates of a fixed, seeded corpus.

A change that moves any bit of a factor, a certificate or its residual
changes the digest.  A change meant to be bit-identical (a faster kernel,
fewer wrappers) must leave it as it is; a change that moves bits on
purpose says so and records the new digest.  The digest is of float64
arithmetic on one numpy/BLAS build: another build may round a matrix
product differently and need its own.
"""

import hashlib
import json

import numpy as np

from matmoments import MatrixPoly, certificate_to_json, certificates

DIGEST = "c17fd9588dded1e350ba3e5a2dd0908c4b61ac742fa4d5a42b6a2eab850ce058"


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
