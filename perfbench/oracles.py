"""Independent oracles for library outputs.

Every judgement here uses plain numpy (``numpy.polynomial`` for certificate
reassembly, the same method as the test suite's ``entrywise_reassembly``)
on plain arrays and never calls ``matmoments`` arithmetic.  Tolerances are
the ones the acceptance suite pins.
"""

import json

import numpy as np
from numpy.polynomial import polynomial as npoly

CERT_TOL = 1e-6       # relative reassembly residual (acceptance criteria 2, 3, 9)
FACTOR_TOL = 1e-6     # relative spectral-factor residual (acceptance criterion 1)
ATOM_TOL = 1e-6       # absolute atom position and weight error (acceptance criterion 6)
VALUE_TOL = 1e-9      # relative error of integrals and chain values

GENERATORS = {"1": [1.0], "x": [0.0, 1.0], "1-x": [1.0, -1.0], "x(1-x)": [0.0, 1.0, -1.0]}
DOMAIN_KEYS = {"line": {"1"}, "halfline": {"1", "x"}, "interval": set(GENERATORS)}


def certificate_residual(f, sigma):
    """Relative max-coefficient residual of F - sum_g g * sum_i G_i G_i^T.

    ``f`` is a (deg+1, n, n) array; ``sigma`` maps generator keys to lists
    of (deg+1, n, n) factor arrays.  Each entry is rebuilt with
    ``numpy.polynomial`` products of entry polynomials.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[1]
    width = f.shape[0]
    for key, factors in sigma.items():
        for g in factors:
            width = max(width, 2 * (len(g) - 1) + len(GENERATORS[key]))
    total = np.zeros((width, n, n))
    for key, factors in sigma.items():
        gen = GENERATORS[key]
        for g in factors:
            g = np.asarray(g, dtype=float)
            if g.ndim != 3 or g.shape[1:] != (n, n):
                return float("inf")
            for r in range(n):
                for c in range(r, n):
                    acc = np.zeros(1)
                    for s in range(n):
                        acc = npoly.polyadd(acc, npoly.polymul(g[:, r, s], g[:, c, s]))
                    acc = npoly.polymul(acc, gen)
                    total[:len(acc), r, c] += acc
                    if c != r:
                        total[:len(acc), c, r] += acc
    want = np.zeros((width, n, n))
    want[:f.shape[0]] = f
    return float(np.max(np.abs(total - want))) / max(1.0, float(np.max(np.abs(f))))


def judge_certificate(domain, f, variant, sigma):
    """(accepted, relative residual) for a certificate of F on ``domain``."""
    if variant != domain or not set(sigma) <= DOMAIN_KEYS[domain]:
        return False, float("inf")
    if not any(len(factors) for factors in sigma.values()):
        return False, float("inf")
    res = certificate_residual(f, sigma)
    return res <= CERT_TOL, res


def laurent_residual(a, b):
    """Relative residual of A_k - sum_j B_{j+k} B_j^H, k = 0..band.

    ``a`` lists A_{-band}..A_{band}; ``b`` lists B_0..B_deg.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    band = (a.shape[0] - 1) // 2
    deg = b.shape[0] - 1
    res = 0.0
    for k in range(max(band, deg) + 1):
        got = np.zeros(a.shape[1:], dtype=complex)
        for j in range(deg + 1 - k):
            got += b[j + k] @ b[j].conj().T
        want = a[band + k] if k <= band else np.zeros_like(got)
        res = max(res, float(np.max(np.abs(want - got))))
    return res / max(1.0, float(np.max(np.abs(a[band]))))


def atom_error(truth, got):
    """Worst absolute atom position and Frobenius weight error; inf on a count mismatch.

    Both arguments are lists of (x, W) pairs; they are matched in sorted order.
    """
    if len(truth) != len(got):
        return float("inf")
    worst = 0.0
    for (x1, w1), (x2, w2) in zip(sorted(truth, key=lambda a: a[0]),
                                  sorted(got, key=lambda a: a[0])):
        worst = max(worst, abs(x1 - x2),
                    float(np.linalg.norm(np.asarray(w1) - np.asarray(w2))))
    return worst


def moments_of(atoms, degree, n):
    """Moment stack S_p = sum_j x_j^p W_j for p = 0..degree."""
    out = np.zeros((degree + 1, n, n))
    for x, w in atoms:
        out += np.array([x ** p for p in range(degree + 1)])[:, None, None] * np.asarray(w)
    return out


def moment_residual(moments, atoms):
    """Relative max mismatch between a moment stack and sum_j x_j^p W_j."""
    moments = np.asarray(moments, dtype=float)
    got = moments_of(atoms, len(moments) - 1, moments.shape[1])
    return float(np.max(np.abs(moments - got))) / max(1.0, float(np.max(np.abs(moments))))


def poly_at(f, x):
    """Value of sum_k C_k x^k, by explicit powers."""
    f = np.asarray(f, dtype=float)
    return sum(c * x ** k for k, c in enumerate(f))


def trace_integral(f, atoms):
    return float(sum(np.trace(poly_at(f, x) @ np.asarray(w)) for x, w in atoms))


def map_integral(f, atoms):
    """sum over atoms of sum_K K^T F(x) K for Kraus lists."""
    out = 0.0
    for x, kraus in atoms:
        value = poly_at(f, x)
        for k in kraus:
            k = np.asarray(k, dtype=float)
            out = out + k.T @ value @ k
    return np.asarray(out)


def chain_values(atoms, dim):
    """Reference values of the shift-family chain for a measure of size ``dim``.

    L(M x^p) = sum_j x_j^p trace(M W_j); A_n = diag(1/(n+1), .., 1/N, 0, ..)
    and J_n projects onto the first N - n coordinates.
    """
    def pair(diag, p):
        return float(sum(x ** p * float(np.sum(np.diag(np.asarray(w)) * diag))
                         for x, w in atoms))

    ones = np.ones(dim)
    base = np.sqrt(max(pair(ones, 0), 0.0)) * np.sqrt(max(pair(ones, 6), 0.0))
    lhs_shifted, mid, rhs = [], [], []
    for n in range(dim):
        keep = np.arange(dim) < dim - n
        a_n = np.where(keep, 1.0 / (n + 1 + np.arange(dim)), 0.0)
        lhs_shifted.append(pair(keep.astype(float), 2))
        mid.append(pair(a_n, 3))
        rhs.append(base / (n + 1))
    return {"lhs": pair(ones, 2), "lhs_shifted": lhs_shifted, "mid": mid, "rhs": rhs}


def chain_error(report, atoms, dim):
    """Relative deviation of a chain report (JSON form) from the reference values."""
    ref = chain_values(atoms, dim)
    scale = max(1.0, abs(ref["lhs"]), abs(ref["rhs"][0]))
    worst = abs(report["lhs"] - ref["lhs"])
    for key in ("lhs_shifted", "mid", "rhs"):
        if len(report[key]) != dim:
            return float("inf")
        worst = max(worst, max(abs(a - b) for a, b in zip(report[key], ref[key])))
    return worst / scale


def parse_report(raw):
    """Decoded JSON report, or None when the bytes are not a JSON object."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def self_check(samples, rng):
    """Feed each oracle a deliberately broken output and require rejection.

    ``samples`` may hold real outputs from the run ("certificate": (domain,
    f, variant, sigma), "recovery": (truth, got), "cli": (reference bytes,
    checker)); synthetic cases are always checked as well.  Returns
    {case: passed}.
    """
    out = {}
    n = 3
    g = rng.standard_normal((3, n, n))
    f = np.zeros((5, n, n))
    for i in range(3):
        for j in range(3):
            f[i + j] += g[i] @ g[j].T
    cases = [("synthetic", ("line", f, "line", {"1": [g]}))]
    if "certificate" in samples:
        cases.append(("run", samples["certificate"]))
    for tag, (domain, ff, variant, sigma) in cases:
        good = judge_certificate(domain, ff, variant, sigma)[0]
        key = next(k for k, v in sigma.items() if v)
        bad = {k: [np.array(p, dtype=float) for p in v] for k, v in sigma.items()}
        bad[key][0][0, 0, 0] += 1e-3 * max(1.0, float(np.max(np.abs(ff))))
        out[f"certificate_factor_corrupted.{tag}"] = good and not judge_certificate(
            domain, ff, variant, bad)[0]

    truth = [(0.25, np.eye(2)), (0.75, np.diag([1.0, 2.0]))]
    cases = [("synthetic", (truth, [(x, np.array(w)) for x, w in truth]))]
    if "recovery" in samples:
        cases.append(("run", samples["recovery"]))
    for tag, (tr, got) in cases:
        good = atom_error(tr, got) <= ATOM_TOL
        moved = [(x + (1e-4 if i == 0 else 0.0), w) for i, (x, w) in enumerate(got)]
        out[f"recovered_atom_perturbed.{tag}"] = good and atom_error(tr, moved) > ATOM_TOL

    ref = b'{\n  "pass": true\n}\n'
    cases = [("synthetic", (ref, lambda raw: raw == ref and parse_report(raw) == {"pass": True}))]
    if "cli" in samples:
        cases.append(("run", samples["cli"]))
    for tag, (ref, checker) in cases:
        good = checker(ref)
        for pos in (0, len(ref) // 2, len(ref) - 2):
            flipped = bytearray(ref)
            flipped[pos] ^= 0x01
            good = good and not checker(bytes(flipped))
        out[f"cli_byte_flipped.{tag}"] = good
    return out
