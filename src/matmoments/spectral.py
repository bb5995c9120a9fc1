"""Fejer-Riesz spectral factorization of matrix Laurent polynomials.

Writes u(z) = P(z) P*(z), with P an ordinary matrix polynomial and
P*(z) = sum_k B_k^H z^{-k}, for Laurent polynomials that are Hermitian
positive semidefinite on the unit circle.

The factor comes from one discrete algebraic Riccati equation (Sayed and
Kailath, "A survey of spectral factorization methods", Numer. Linear
Algebra Appl. 8, 2001).  The causal part of u is realised on a state of
size n*band: F is the nilpotent block up-shift, H = [I 0 ... 0] and
G = [A_1; ...; A_band], so that A_k = H F^{k-1} G.  The stabilizing
solution P of

    P = F P F^H + (G - F P H^H) R_e^{-1} (G - F P H^H)^H,
    R_e = A_0 - H P H^H,

gives the minimum-phase factor B_0 = chol(R_e), B_k = H F^{k-1} K B_0 with
gain K = (G - F P H^H) R_e^{-1}; B_0 comes out lower triangular with a
positive diagonal.

The Riccati equation is solved by structure-preserving doubling (Bini,
Iannazzo and Meini, "Numerical Solution of Algebraic Riccati Equations",
SIAM 2012): quadratic convergence on definite inputs, linear at spectral
zeros on the circle (Chiang et al., SIAM J. Matrix Anal. Appl. 31, 2009).
Each doubling step inverts W = I + G H once and applies W^{-1} by matrix
products.
The order is solve, locate, retry, polish: only when the solve breaks
down or misses its target is u's least eigenvalue located exactly on the
circle (``polymat._least_on`` on its Cayley image); then the solve is
retried once on u + delta*I if it broke down (A_0 or R_e singular on
inputs rank-deficient on the whole circle, or a singular or non-finite
doubling iterate or its step cap), and a coefficient-space Newton
iteration on A_k = sum_j B_{j+k} B_j^H polishes a factor that misses.
Every step runs in the field ``LaurentPoly`` stores u in: float64 for a
real u, whose factor is real, complex128 otherwise.
All of it runs on u / 4^j, the power of four that puts max(1, ||A_0||)
in [1, 4), exactly; the factor is scaled back by 2^j, and its residual,
its shift and a located eigenvalue by 4^j.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polymat import (INPUT_RTOL, LaurentPoly, _check_tol, _EPS, _Failure, _hermitian_part, _horner,
                      _json_fields, _json_floats, _json_matrices, _least_eigenvalue, _least_on,
                      _line_weights, _maxabs, _read_only, _size, _square_stack, _weighted_sum)

DEFAULT_TOL = 1e-9
# Shift delta of the retry on u + delta*I, relative to max(1, ||A_0||).  On
# rank-deficient inputs the shifted Riccati pencil lies only about delta^2
# from a singular one, so delta is the square root of double precision,
# whatever the residual target; the Newton polish removes it.
RETRY_SHIFT = 1.5e-8
# Doubling steps of the Riccati solve: definite inputs take 5-12, spectral
# zeros on the circle 16-35 before their updates reach rounding noise.
_MAX_DOUBLINGS = 64
# A doubling update that grows after two at or below _STALL * ||H|| ends the
# solve.  Updates bottom out at 1e-8-1e-5 of ||H|| (rounding noise) at
# spectral zeros on the circle and wander at ~1e-3 on an input that dips to
# -1e-6 on a short arc.  A definite input can grow once far below _STALL
# (6.1e-4 then 9.5e-4, or 2.4e-3 then 3.7e-3) and then converge quadratically.
_STALL = 3e-3


class NotPsdOnCircle(_Failure, ValueError):
    """Input fails the PSD-on-circle precondition."""

    def __init__(self, min_eigenvalue, at_angle):
        self.min_eigenvalue = min_eigenvalue
        self.at_angle = at_angle
        super().__init__(
            f"eigenvalue {min_eigenvalue:.3e} below tolerance at angle t={at_angle:.6f}")


class NoConvergence(_Failure, RuntimeError):
    """Factorization did not reach the residual target."""

    def __init__(self, best):
        self.best = best
        super().__init__(f"no convergence; best residual {best.residual:.3e} "
                         f"with shift {best.epsilon_used:.3e}")


@dataclass
class SpectralFactor:
    """Polynomial factor B_0, ..., B_n, in u's field, with bookkeeping from the solve.

    ``epsilon_used`` is the shift delta of the Riccati retry on
    u + delta*I (0.0 when the direct solve succeeded); ``toeplitz_order``
    is the state dimension n*band of the Riccati equation.
    """

    coeffs: np.ndarray          # (deg+1, n, n) in u's field
    residual: float
    epsilon_used: float
    toeplitz_order: int

    @property
    def n(self):
        return self.coeffs.shape[1]

    @property
    def deg(self):
        return self.coeffs.shape[0] - 1


@lru_cache(maxsize=None)
def _pairs(length):
    """Read-only index arrays (j, k) of every pair with j + k < length."""
    return tuple(map(_read_only, np.nonzero(np.tri(length, dtype=bool)[::-1])))


def _residual_coeffs(a_stack, b):
    """A_k - sum_j B_{j+k} B_j^H for k = 0..max(band, deg), subtracted in increasing j."""
    band = (a_stack.shape[0] - 1) // 2
    j, k = _pairs(len(b))
    terms = np.zeros((len(b) + 1, max(band + 1, len(b))) + b.shape[1:], np.result_type(a_stack, b))
    terms[0, :band + 1] = a_stack[band:]
    terms[1 + j, k] = b[j + k] @ np.swapaxes(b.conj()[j], 1, 2)     # the loop's operand layouts
    return np.subtract.reduce(terms, axis=0)       # the loop's bits: see polymat._weighted_sum


def _residual(a_stack, b):
    return _maxabs(_residual_coeffs(a_stack, b))


def verify_factor(u, factor):
    """Residual max_k ||A_k - sum_j B_{j+k} B_j^H|| of a candidate factor.

    ``factor`` is a SpectralFactor, a non-empty (deg+1, n, n) coefficient
    stack or one n x n matrix.  Pure check; no tolerance judgment.
    """
    b = factor.coeffs if isinstance(factor, SpectralFactor) else np.asarray(factor, dtype=np.complex128)
    b = _square_stack(b[np.newaxis] if b.ndim == 2 else b, "factor")
    if b.shape[1:] != (u.n, u.n):
        raise ValueError(f"size mismatch: factor is {b.shape[1:]}, input is {(u.n, u.n)}")
    return _residual(u.coeffs, b)


def _doubling(a, g, h):
    """Stabilizing solution X of X = A^H X (I + G X)^{-1} A + H.

    With W = I + G H, iterates A <- A W^{-1} A, G <- G + A W^{-1} G A^H,
    H <- H + A^H H W^{-1} A, until the update to H reaches rounding level
    or grows after two at or below _STALL * ||H||; the last step forms only H.
    W^{-1} is formed once per step and applied by matrix products: with
    one BLAS thread and states of 24-96 that costs less than one LU solve
    against [A G].
    Raises LinAlgError on a singular W, a non-finite update or H (a
    non-finite A or G shows a step later), or after _MAX_DOUBLINGS steps.
    """
    eye = np.eye(a.shape[0])
    prev = before = np.inf
    for _ in range(_MAX_DOUBLINGS):
        w_inv = np.linalg.inv(eye + g @ h)
        wa = w_inv @ a
        a_h = a.conj().T        # for real iterates a view: conj() returns a real array itself
        update = a_h @ h @ wa
        h = _hermitian_part(h + update)
        step, size = _maxabs(update), _maxabs(h)
        if not (step < np.inf and size < np.inf):
            raise np.linalg.LinAlgError("non-finite doubling iterate")
        if step <= _EPS * size or (step >= prev and max(prev, before) <= _STALL * size):
            return h
        prev, before = step, prev
        g = _hermitian_part(g + a @ (w_inv @ g) @ a_h)
        a = a @ wa
    raise np.linalg.LinAlgError(f"no convergence in {_MAX_DOUBLINGS} doubling steps")


def _riccati_factor(a, band, n):
    """Minimum-phase factor from the stabilizing Riccati solution.

    Raises LinAlgError when A_0 is not positive definite, when the
    doubling breaks down, or when R_e is not positive definite.
    """
    m = n * band
    r = _hermitian_part(a[band])
    g = a[band + 1:].reshape(m, n)
    if m:
        # X = -P solves X = F X F^H - (F X H^H + G)(R + H X H^H)^{-1}(.)^H
        # with R = A_0 = L L^H.  Eliminating the cross term G gives
        # _doubling's equation with its (A, G, H) set to
        # (F^H - H^H R^{-1} G^H, H^H R^{-1} H, -G R^{-1} G^H).
        l_inv = np.linalg.inv(np.linalg.cholesky(r))
        y = l_inv @ g.conj().T                      # L^{-1} G^H
        a0 = np.eye(m, k=-n, dtype=y.dtype)
        a0[:n] -= l_inv.conj().T @ y
        g0 = np.zeros((m, m), dtype=y.dtype)
        g0[:n, :n] = l_inv.conj().T @ l_inv
        p = -_doubling(a0, g0, -(y.conj().T @ y))
        r = r - p[:n, :n]
        g = g.copy()
        g[:-n] -= p[n:, :n]                         # G - F P H^H
    b0 = np.linalg.cholesky(_hermitian_part(r))
    # K B_0 = (G - F P H^H) R_e^{-1} B_0 = (G - F P H^H) B_0^{-H}
    kb0 = np.linalg.solve(b0, g.conj().T).conj().T
    return np.concatenate([b0[np.newaxis], kb0.reshape(band, n, n)])


def _newton_step(a_stack, band, b):
    """Least-norm solution D of  D P* + P D* = (A - B B*)  in coefficient space.

    Block row k of the Jacobian holds D_a -> D_a B_{a-k}^H (J_1, block Toeplitz)
    and D_c -> B_{k+c} D_c^H (J_2, block Hankel, acting on conj D).  A real u has
    a real factor, and a real u and B solve (J_1 + J_2) D = E for a real D, the
    top-left quarter of the real embedding that a complex u or B solves.
    """
    n = b.shape[1]
    dim = (band + 1) * n * n
    e = _residual_coeffs(a_stack, b).reshape(-1)
    k, c = np.ogrid[:band + 1, :band + 1]
    # kron(I, conj B_j) and kron(B_j, I) per j, with B_{band+1} = 0 for the pairs no
    # coefficient reaches; J_2 reads column (s, t) of its block at (t, s)
    b = np.concatenate([b, np.zeros((1, n, n))])
    t1 = np.kron(np.eye(n), b.conj())
    t2 = np.kron(b, np.eye(n)).reshape(band + 2, n * n, n, n)
    j1 = np.einsum("kapq->kpaq", t1[np.where(c >= k, c - k, -1)]).reshape(dim, dim)
    j2 = np.einsum("kcpts->kpcst", t2[np.where(k + c <= band, k + c, -1)]).reshape(dim, dim)
    if not (np.any(a_stack.imag) or np.any(b.imag)):
        return np.linalg.lstsq(j1.real + j2.real, e.real, rcond=None)[0].reshape(band + 1, n, n)
    big = np.block([[j1.real + j2.real, j2.imag - j1.imag], [j1.imag + j2.imag, j1.real - j2.real]])
    sol = np.linalg.lstsq(big, np.concatenate([e.real, e.imag]), rcond=None)[0]
    return (sol[:dim] + 1j * sol[dim:]).reshape(band + 1, n, n)


def _newton_refine(a_stack, band, b, target):
    """Undamped Newton steps from b; returns the best iterate and its residual.

    At a spectral zero the Jacobian is singular: Newton then converges only
    linearly, often after a first step that raises the residual, so the
    steps are not damped.  Stops at the target, after 60 steps, or when an
    iterate stops being finite.
    """
    best_b, best_res = b, _residual(a_stack, b)
    for _ in range(60):
        if best_res <= target:
            break
        try:
            b = b + _newton_step(a_stack, band, b)
        except np.linalg.LinAlgError:
            break
        res = _residual(a_stack, b)
        if not np.isfinite(res):
            break
        if res < best_res:
            best_b, best_res = b, res
    return best_b, best_res


@np.errstate(over="ignore", invalid="ignore")     # each step judges a non-finite value
def fejer_riesz(u, tol=DEFAULT_TOL):
    """Spectral factor of a Laurent polynomial PSD on the unit circle.

    Parameters
    ----------
    u : LaurentPoly
        Hermitian-valued input with finite coefficients, A_{-k} = A_k^H,
        PSD on the circle: u(e^{it}) >= -tol (relative to the scale of
        A_0) at every angle, located exactly when the solve fails or
        misses (solve, locate, retry, polish).
    tol : float
        Residual target, relative to max(1, ||A_0||).

    Returns
    -------
    SpectralFactor
        Factor with deg = band(u), residual below tol * max(1, ||A_0||),
        canonical up to a constant unitary on the right.  It proves
        lambda_min(u(e^{it})) >= -(2*band+1) * n * residual everywhere, up
        to the rounding of u and of the residual;
        ``certificates._interval_bound`` makes this exact, and decides an
        interval certificate that misses from it.

    Raises
    ------
    NotPsdOnCircle
        Located when the solve fails or misses: u's least eigenvalue below
        the tolerance at angle t in (-pi, pi]; the input violates the
        precondition.  An eigenvalue below -1.8e308 is reported as -inf.
    NoConvergence
        Residual target not reached by the doubling Riccati solve, its
        retry on u + delta*I (run when the direct solve breaks down) and
        the Newton polish (run when the residual misses the target);
        carries the best factor found.
    """
    _check_tol(tol, positive=True)
    band, n = u.band, u.n
    if not np.all(np.isfinite(u.coeffs)):
        raise ValueError("input has a non-finite coefficient")
    scale = max(1.0, _maxabs(u.coeff(0)))
    if scale == np.inf:
        raise ValueError("input has an entry of A_0 whose modulus overflows float64")
    if u.hermitian_defect() > INPUT_RTOL * scale:
        raise ValueError("input is not hermitian-valued on the circle (A_{-k} != A_k^H)")

    zero = np.zeros((band + 1, n, n), dtype=u.coeffs.dtype)
    if _maxabs(u.coeffs) == 0.0:
        return SpectralFactor(zero, 0.0, 0.0, n * band)

    # u / 4^j is exact, and every step is homogeneous at scales of 1 and up, so
    # bits change only where a step overflowed at u's own scale
    j = (math.frexp(scale)[1] - 1) // 2
    a_stack, scale = u.coeffs * math.ldexp(1.0, -2 * j), math.ldexp(scale, -2 * j)
    tol_abs = tol * scale
    shift = 0.0

    def unscaled(b, res):       # a factor of u / 4^j as one of u, its residual and shift too
        return SpectralFactor(b * math.ldexp(1.0, j), float(np.ldexp(res, 2 * j)),
                              float(np.ldexp(shift, 2 * j)), n * band)

    try:
        b = _riccati_factor(a_stack, band, n)
        res = _residual(a_stack, b)
    except np.linalg.LinAlgError:
        b, res = None, np.inf
    if not res <= tol_abs:      # a factor on target proves the precondition
        # (1 + x^2)^band (u + tol_abs*I)((1 + ix) / (1 - ix)), Hermitian on the line, has
        # the sign of u + tol_abs*I at t = 2 arctan x; t = pi is x = inf
        shifted = a_stack.copy()
        shifted[band] += tol_abs * np.eye(n)
        _, x = _least_on(_weighted_sum(_line_weights(2 * band), shifted), -np.inf, np.inf, 0.0)
        ts = np.array([2.0 * np.arctan(x), np.pi])
        z = np.exp(1j * ts)[:, np.newaxis, np.newaxis]
        worst, i = _least_eigenvalue(_horner(a_stack, z) / z ** band)
        if worst < -tol_abs:
            raise NotPsdOnCircle(np.ldexp(worst, 2 * j), ts[i])     # -inf below -float max
    if b is None:
        # A_0 or R_e singular, or the doubling broke down: move the zeros off
        shift = RETRY_SHIFT * scale
        shifted = a_stack.copy()
        shifted[band] += shift * np.eye(n)
        try:
            b = _riccati_factor(shifted, band, n)
        except np.linalg.LinAlgError:
            raise NoConvergence(unscaled(zero, _maxabs(a_stack))) from None
        res = _residual(a_stack, b)
    if not res <= tol_abs:
        b, res = _newton_refine(a_stack, band, b, target=0.01 * tol_abs)
    best = unscaled(b, res)
    if not res <= tol_abs:
        raise NoConvergence(best)
    return best


def laurent_to_json(u):
    """JSON document {"n", "band", "coeffs_re", "coeffs_im"}, indexed -band..band."""
    return {"n": u.n, "band": u.band,
            "coeffs_re": _json_floats(u.coeffs.real), "coeffs_im": _json_floats(u.coeffs.imag)}


def laurent_from_json(doc):
    _json_fields(doc, "Laurent polynomial", "n", "band", "coeffs_re", "coeffs_im")
    n, band = _size(doc["n"], "field 'n'"), _size(doc["band"], "field 'band'", least=0)
    parts = []
    for key in ("coeffs_re", "coeffs_im"):
        parts.append(_json_matrices(doc[key], key, n))
        if len(parts[-1]) != 2 * band + 1:
            raise ValueError(f"field '{key}' must list {2 * band + 1} matrices")
    return LaurentPoly(parts[0] + 1j * parts[1])
