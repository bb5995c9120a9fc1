"""The polish and retry censuses and the coefficient census by domain; not tests, not gates.

Run as ``PYTHONPATH=src python tests/census.py``.  Importing ``conftest``
first pins BLAS to one thread before numpy loads, as tier-1 does.  No
benchmark workload reaches the retry.  The certify workload reaches the
polish and the locators only on rare items (ROADMAP item 6): its line
item boundary:n6:d8 locates and polishes at seed 783 pass 2 and seed 784
pass 3, and its interval misses (seed 780 pass 3, 9005 passes 0 and 3,
9008 passes 1 and 4) run the domain's locator.  So these lines are the
running record of those paths.

- Polish census: the natural half-line set, F = A A^T with
  A = default_rng(seed).standard_normal((9, n, n)), n in {2, 4, 6},
  seeds 0-9, through ``decompose_halfline``.
- Retry census: the factor corpus of ``test_bit_identity``,
  ``SINGULAR_INPUTS`` and its 40 rank-deficient draws, through
  ``fejer_riesz``.  A shifted retry is an input that takes two Riccati
  solves.
- Coefficient census, one line per domain: the half-line and interval
  rows of ``test_bit_identity``'s ``_corpus`` and ``_wide_corpus``,
  symmetrized as their digests take them, with the polish census's
  natural half-line set and ``conftest.interval_squares``' 30 degree-16
  squares, through ``decompose_halfline`` and ``decompose_interval``.  An
  input certified without reaching ``_line_split`` is certified from its
  coefficients; one that reaches it fell through to the factorization.
  A failure whose locator (``polymat._least_on``) found no dip gives the
  margin by which it was ruled out: the worst such lambda_min / scale,
  at least -tol, is printed.
- Tolerance edge: the input of ``test_certificates``'
  ``test_a_factored_interval_certificate_near_the_tolerance_reassembles``,
  factored with the coefficient candidate refused.  Its residual over
  tol * scale, and in ulps of the largest entry of sum_g |g| |G||G|^T
  (entrywise absolute values over the certificate's factors G), the size
  whose rounding the monomial reassembly check carries.  Near 1 on both,
  that check cannot tell the certificate from one just past the tolerance.
"""

from conftest import SINGULAR_INPUTS, interval_squares
from test_bit_identity import _corpus, _factor_corpus, _wide_corpus
from test_certificates import _GENS, sos_of_degree

import time

import numpy as np

from matmoments import MatrixPoly, certificates, matmul, scalar_poly_mult, spectral, transpose_poly
from matmoments.polymat import DOMAINS

# per input, its Riccati solves; per polish, its seconds; one entry per Newton step
solves, polish_s, steps = [], [], []
solve, refine, step = spectral._riccati_factor, spectral._newton_refine, spectral._newton_step


def counted_solve(*args):
    solves[-1] += 1
    return solve(*args)


def timed_refine(*args, **kwargs):
    start = time.perf_counter()
    out = refine(*args, **kwargs)
    polish_s.append(time.perf_counter() - start)
    return out


def counted_step(*args):
    steps.append(1)
    return step(*args)


def natural_halfline_set():
    """F = A A^T, A = default_rng(seed).standard_normal((9, n, n)), n in {2, 4, 6}, seeds 0-9."""
    for n in (2, 4, 6):
        for seed in range(10):
            a = np.random.default_rng(seed).standard_normal((9, n, n))
            f = np.zeros((17, n, n))
            for i in range(9):
                for j in range(9):
                    f[i + j] += a[i] @ a[j].T
            yield MatrixPoly(0.5 * (f + np.swapaxes(f, 1, 2)), symmetric=True)


def polish_census():
    failures, worst, draw_s = 0, 0.0, []
    for f in natural_halfline_set():
        start = time.perf_counter()
        try:
            cert = certificates.decompose_halfline(f)
            worst = max(worst, cert.residual / max(1.0, f.max_coeff_abs()))
        except (ValueError, RuntimeError):
            failures += 1
        draw_s.append(time.perf_counter() - start)
    return (f"polish census, 30 half-line inputs: {len(polish_s)} polishes, {len(steps)} "
            f"Newton steps, {sum(polish_s):.2f} s polishing, draws {np.median(draw_s):.3f} s "
            f"median and {max(draw_s):.2f} s slowest, {failures} failures, worst relative "
            f"residual {worst:.2g}")


def retry_census():
    corpus = _factor_corpus()
    assert len(corpus) == len(SINGULAR_INPUTS) + 40
    failures, worst, seconds = 0, 0.0, 0.0
    for _, u in corpus:
        solves.append(0)
        start = time.perf_counter()
        try:
            fac = spectral.fejer_riesz(u)
            worst = max(worst, fac.residual / max(1.0, np.max(np.abs(u.coeffs))))
        except spectral.NoConvergence:
            failures += 1
        seconds += time.perf_counter() - start
    return (f"retry census, {len(corpus)} factor-corpus inputs: {solves.count(1)} direct "
            f"solves, {solves.count(2)} shifted retries, {len(polish_s)} polishes, "
            f"{len(steps)} Newton steps, {seconds:.2f} s, {failures} NoConvergence, worst "
            f"relative residual {worst:.2g}")


def coefficient_census(domain, inputs):
    rows = [MatrixPoly(0.5 * (f + np.swapaxes(f, 1, 2)), symmetric=True)
            for row_domain, f in _corpus() + _wide_corpus() if row_domain == domain]
    inputs = rows + list(inputs)
    decompose = getattr(certificates, f"decompose_{domain}")
    split, factored = certificates._line_split, []
    least_on, located = certificates._least_on, []

    def counted_split(*args):
        factored[-1] = True
        return split(*args)

    def recorded_least_on(c, *args):
        worst, x = least_on(c, *args)
        located.append(worst / max(1.0, np.abs(c).max()))
        return worst, x
    certificates._line_split, certificates._least_on = counted_split, recorded_least_on
    failures, worst, margins = 0, 0.0, []
    for f in inputs:
        factored.append(False)
        located.clear()
        try:
            cert = decompose(f)
            worst = max(worst, cert.residual / max(1.0, f.max_coeff_abs()))
        except (ValueError, RuntimeError):
            failures += 1
            margins += located
    certificates._line_split, certificates._least_on = split, least_on
    through = sum(factored)
    margin = f"{min(margins):.2g}" if margins else "none"
    return (f"coefficient census, {len(inputs)} {domain} inputs: {len(inputs) - through} "
            f"certified from their coefficients, {through} fell through to the factorization, "
            f"{failures} failures, worst relative residual {worst:.2g}, worst located "
            f"lambda_min/scale of the failures {margin}")


def tolerance_edge():
    f = sos_of_degree(np.random.default_rng([3, 12, 1]), 3, 12, _GENS["interval"])
    parts, certificates._coefficient_parts = certificates._coefficient_parts, lambda c: None
    try:
        cert = certificates.decompose_interval(f)
    finally:
        certificates._coefficient_parts = parts
    weights, size = DOMAINS["interval"][1], MatrixPoly.zero(f.n)
    for key, factors in cert.sigma.items():
        for g in factors:
            a = MatrixPoly(np.abs(g.coeffs))
            size = size + scalar_poly_mult(np.abs(weights[key]), matmul(a, transpose_poly(a)))
    top = size.max_coeff_abs()
    ratio = cert.residual / (certificates.DEFAULT_TOL * max(1.0, f.max_coeff_abs()))
    ulps = cert.residual / np.spacing(top)
    return (f"tolerance edge, the interval n3:d12 input [3, 12, 1] factored: residual "
            f"{cert.residual:.3g} is {ratio:.3f} of tol*scale and {ulps:.2g} ulps of the "
            f"largest entry of sum |w| |G||G|^T ({top:.3g})")


if __name__ == "__main__":
    spectral._newton_refine, spectral._newton_step = timed_refine, counted_step
    print(polish_census())
    polish_s.clear()
    steps.clear()
    spectral._riccati_factor = counted_solve
    print(retry_census())
    print(coefficient_census("halfline", natural_halfline_set()))
    print(coefficient_census("interval", (f for _, _, f in interval_squares())))
    print(tolerance_edge())
