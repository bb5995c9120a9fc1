"""Shared helpers: random inputs with controlled conditioning and
independent reassembly oracles that avoid the library's own arithmetic.

BLAS is pinned to one thread before numpy loads, as in ``perfbench/run.py``:
a threaded matrix product can round differently, and the digests in
``test_bit_identity`` are of one-thread arithmetic.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
from numpy.polynomial import polynomial as npoly

from matmoments import AtomicMatrixMeasure, LaurentPoly, MatrixPoly, matmul, transpose_poly


def assert_frequencies(sample, law):
    """Each value's frequency in ``sample`` lies within 5 sigma of its probability.

    ``law`` maps every value the sample may hold to its probability; sigma
    is the binomial standard deviation at the sample size.
    """
    sample = np.asarray(sample).ravel()
    assert sample.size and set(np.unique(sample).tolist()) <= set(law)
    for value, p in law.items():
        freq = float(np.mean(sample == value))
        assert abs(freq - p) <= 5.0 * np.sqrt(p * (1.0 - p) / sample.size), (value, freq, p)


def rand_psd(rng, n, lo=0.3, hi=3.0):
    """Random symmetric PSD matrix with eigenvalues in [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def rand_symmetric_poly(rng, n, deg):
    c = rng.standard_normal((deg + 1, n, n))
    return 0.5 * (c + np.transpose(c, (0, 2, 1)))


def separated_points(rng, count, lo, hi, sep):
    while True:
        pts = np.sort(rng.uniform(lo, hi, count))
        if count == 1 or np.min(np.diff(pts)) >= sep:
            return pts


def rand_measure(rng, n, count, lo, hi, sep=0.05, wlo=0.3, whi=3.0):
    pts = separated_points(rng, count, lo, hi, sep)
    return AtomicMatrixMeasure(n, [(float(x), rand_psd(rng, n, wlo, whi)) for x in pts])


def factorable_laurent(rng, n, band, real=False):
    """A Laurent polynomial P P* built from a random factor; returns (u, B)."""
    b = rng.standard_normal((band + 1, n, n))
    if not real:
        b = b + 1j * rng.standard_normal((band + 1, n, n))
    return laurent_from_factor(b), b


def laurent_from_factor(b):
    """P P* for the factor stack b, with coefficients indexed -band..band."""
    band = b.shape[0] - 1
    coeffs = np.zeros((2 * band + 1,) + b.shape[1:], dtype=complex)
    for k in range(band + 1):
        ck = sum(b[j + k] @ b[j].conj().T for j in range(band + 1 - k))
        coeffs[band + k] = ck
        coeffs[band - k] = ck.conj().T
    return LaurentPoly(coeffs)


def scalar_laurent(*vals):
    """Coefficients A_{-band}..A_{band} as 1x1 matrices."""
    return LaurentPoly(np.array([[[v]] for v in vals], dtype=complex))


def _rank_one_factor():
    # P(z) = p(z) e_1^T with p a random 3x1 column of degree 3: u is rank one
    # on the whole circle
    b = np.zeros((4, 3, 3))
    b[:, :, 0] = np.random.default_rng(37).standard_normal((4, 3))
    return b


# Laurent polynomials singular on the circle, four of them on the whole circle:
# ``fejer_riesz`` needs its shifted retry or its Newton polish on all but one
SINGULAR_INPUTS = {
    "constant diag(1, 0)": LaurentPoly(np.diag([1.0, 0.0])[np.newaxis]),
    "diag((1+z)(1+1/z), 0)": LaurentPoly(np.array(
        [np.diag([1.0, 0.0]), np.diag([2.0, 0.0]), np.diag([1.0, 0.0])], dtype=complex)),
    "double zero (1+z)^2 (1+1/z)^2": scalar_laurent(1, 4, 6, 4, 1),
    "(I - z^2 I) n=2": laurent_from_factor(np.array([np.eye(2), np.zeros((2, 2)), -np.eye(2)])),
    "rank one n=3 band=3": laurent_from_factor(_rank_one_factor()),
}


def interval_squares():
    """(n, seed, F) for F = A A^T, A = default_rng(seed).standard_normal((9, n, n)), by ``matmul``.

    n 2, 4 and 6, seeds 0-9: degree 16 and PSD everywhere, and singular at a
    point inside [0, 1], where det A has a root, for 24 of the 30 (ROADMAP
    item 1's draws).  F is symmetric only up to rounding.
    """
    draws = []
    for n in (2, 4, 6):
        for seed in range(10):
            a = MatrixPoly(np.random.default_rng(seed).standard_normal((9, n, n)))
            draws.append((n, seed, matmul(a, transpose_poly(a))))
    return draws


def entrywise_reassembly(f, cert):
    """Residual of F - sum_g g * sum G G^T via numpy.polynomial arithmetic.

    Independent of the library's matmul/scalar_poly_mult code paths.
    """
    gen_coeffs = {"1": [1.0], "x": [0.0, 1.0], "1-x": [1.0, -1.0], "x(1-x)": [0.0, 1.0, -1.0]}
    n = f.n
    width = f.deg + 1
    for key, factors in cert.sigma.items():
        for g in factors:
            width = max(width, 2 * g.deg + len(gen_coeffs[key]))
    total = np.zeros((width, n, n))
    for key, factors in cert.sigma.items():
        gen = np.array(gen_coeffs[key])
        for g in factors:
            arr = np.array(g.coeffs)
            for r in range(n):
                for c in range(n):
                    acc = np.zeros(1)
                    for s in range(n):
                        acc = npoly.polyadd(acc, npoly.polymul(arr[:, r, s], arr[:, c, s]))
                    acc = npoly.polymul(acc, gen)
                    total[:len(acc), r, c] += acc
    ff = np.zeros((width, n, n))
    ff[:f.deg + 1] = np.array(f.coeffs)
    return float(np.max(np.abs(total - ff)))
