"""The polish, retry and Bernstein censuses, one line each; not a test and not a gate.

Run as ``PYTHONPATH=src python tests/census.py``.  Importing ``conftest``
first pins BLAS to one thread before numpy loads, as tier-1 does.  No
benchmark workload reaches the polish or the retry (ROADMAP item 6), so
these lines are their running record.

- Polish census: the natural half-line set, F = A A^T with
  A = default_rng(seed).standard_normal((9, n, n)), n in {2, 4, 6},
  seeds 0-9, through ``decompose_halfline``.
- Retry census: the factor corpus of ``test_bit_identity``,
  ``SINGULAR_INPUTS`` and its 40 rank-deficient draws, through
  ``fejer_riesz``.  A shifted retry is an input that takes two Riccati
  solves.
- Bernstein census: the interval rows of ``test_bit_identity``'s
  ``_corpus`` and ``_wide_corpus``, symmetrized as their digests take
  them, and ``conftest.interval_squares``' 30 degree-16 squares, through
  ``decompose_interval``.  An input that reaches ``_line_split`` fell
  through to the factorization.
"""

from conftest import SINGULAR_INPUTS, interval_squares
from test_bit_identity import _corpus, _factor_corpus, _wide_corpus

import time

import numpy as np

from matmoments import MatrixPoly, certificates, spectral

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


def polish_census():
    failures, worst, draw_s = 0, 0.0, []
    for n in (2, 4, 6):
        for seed in range(10):
            a = np.random.default_rng(seed).standard_normal((9, n, n))
            f = np.zeros((17, n, n))
            for i in range(9):
                for j in range(9):
                    f[i + j] += a[i] @ a[j].T
            f = 0.5 * (f + np.swapaxes(f, 1, 2))
            start = time.perf_counter()
            try:
                cert = certificates.decompose_halfline(MatrixPoly(f, symmetric=True))
                worst = max(worst, cert.residual / max(1.0, np.max(np.abs(f))))
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


def bernstein_census():
    inputs = [MatrixPoly(0.5 * (f + np.swapaxes(f, 1, 2)), symmetric=True)
              for domain, f in _corpus() + _wide_corpus() if domain == "interval"]
    inputs += [f for _, _, f in interval_squares()]
    split, factored = certificates._line_split, []

    def counted_split(*args):
        factored[-1] = True
        return split(*args)
    certificates._line_split = counted_split
    failures, worst = 0, 0.0
    for f in inputs:
        factored.append(False)
        try:
            cert = certificates.decompose_interval(f)
            worst = max(worst, cert.residual / max(1.0, f.max_coeff_abs()))
        except (ValueError, RuntimeError):
            failures += 1
    certificates._line_split = split
    through = sum(factored)
    return (f"Bernstein census, {len(inputs)} interval inputs: {len(inputs) - through} certified "
            f"from their Bernstein coefficients, {through} fell through to the factorization, "
            f"{failures} failures, worst relative residual {worst:.2g}")


if __name__ == "__main__":
    spectral._newton_refine, spectral._newton_step = timed_refine, counted_step
    print(polish_census())
    polish_s.clear()
    steps.clear()
    spectral._riccati_factor = counted_solve
    print(retry_census())
    print(bernstein_census())
