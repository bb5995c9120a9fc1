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
positive diagonal.  Spectral zeros and rank-deficient inputs can put
eigenvalues of the Riccati pencil on the unit circle; the solve then
fails and is retried once on u + delta*I.  A coefficient-space Newton
iteration on A_k = sum_j B_{j+k} B_j^H polishes the factor only when its
residual misses the target.
"""

from dataclasses import dataclass

import numpy as np

from .polymat import LaurentPoly, _maxabs

DEFAULT_TOL = 1e-9
# Shift delta of the retry on u + delta*I, relative to max(1, ||A_0||).  On
# rank-deficient inputs the shifted Riccati pencil lies only about delta^2
# from a singular one, so delta is the square root of double precision,
# whatever the residual target; the Newton polish removes it.
RETRY_SHIFT = 1.5e-8


class NotPsdOnCircle(ValueError):
    """Input fails the PSD-on-circle precondition on the validation grid."""

    def __init__(self, min_eigenvalue, at_angle):
        self.min_eigenvalue = min_eigenvalue
        self.at_angle = at_angle
        super().__init__(
            f"eigenvalue {min_eigenvalue:.3e} below tolerance at angle t={at_angle:.6f}")


class NoConvergence(RuntimeError):
    """Factorization did not reach the residual target."""

    def __init__(self, best):
        self.best = best
        super().__init__(f"no convergence; best residual {best.residual:.3e} "
                         f"with shift {best.epsilon_used:.3e}")


@dataclass
class SpectralFactor:
    """Polynomial factor B_0, ..., B_n with bookkeeping from the solve.

    ``epsilon_used`` is the shift delta of the Riccati retry on
    u + delta*I (0.0 when the direct solve succeeded); ``toeplitz_order``
    is the state dimension n*band of the Riccati equation.
    """

    coeffs: np.ndarray          # (deg+1, n, n) complex
    residual: float
    epsilon_used: float
    toeplitz_order: int

    @property
    def n(self):
        return self.coeffs.shape[1]

    @property
    def deg(self):
        return self.coeffs.shape[0] - 1


def _residual_coeffs(a_stack, b):
    """A_k - sum_j B_{j+k} B_j^H for k = 0..max(band, deg)."""
    band = (a_stack.shape[0] - 1) // 2
    out = np.zeros((max(band + 1, b.shape[0]),) + b.shape[1:], dtype=np.complex128)
    out[:band + 1] = a_stack[band:]
    for k in range(b.shape[0]):
        for j in range(b.shape[0] - k):
            out[k] -= b[j + k] @ b[j].conj().T
    return out


def _residual(a_stack, b):
    return _maxabs(_residual_coeffs(a_stack, b))


def verify_factor(u, factor):
    """Residual max_k ||A_k - sum_j B_{j+k} B_j^H|| of a candidate factor.

    ``factor`` is a SpectralFactor or a (deg+1, n, n) coefficient stack.
    Pure check; no tolerance judgment.
    """
    b = factor.coeffs if isinstance(factor, SpectralFactor) else np.asarray(factor, dtype=np.complex128)
    if b.ndim == 2:
        b = b[np.newaxis]
    if b.shape[1:] != (u.n, u.n):
        raise ValueError(f"size mismatch: factor is {b.shape[1:]}, input is {(u.n, u.n)}")
    return _residual(u.coeffs, b)


def _riccati_factor(a_stack, band, n):
    """Minimum-phase factor from the stabilizing Riccati solution.

    Raises LinAlgError or ValueError when the Riccati solve or the final
    Cholesky factorization breaks down.
    """
    import scipy.linalg     # here, not at module level: `import matmoments` loads only numpy
    a = a_stack.real if not np.any(a_stack.imag) else a_stack
    m = n * band
    r = 0.5 * (a[band] + a[band].conj().T)
    g = a[band + 1:].reshape(m, n)
    if m:
        f = np.eye(m, k=n)
        # scipy's form with X = -P, A = F^H, B = H^H, Q = 0, R = A_0, S = G
        p = -scipy.linalg.solve_discrete_are(f.T, np.eye(m, n), np.zeros((m, m)), r, s=g)
        r = r - p[:n, :n]
        g = g - f @ p[:, :n]
    b0 = np.linalg.cholesky(0.5 * (r + r.conj().T))
    # K B_0 = (G - F P H^H) R_e^{-1} B_0 = (G - F P H^H) B_0^{-H}
    kb0 = scipy.linalg.solve_triangular(b0, g.conj().T, lower=True).conj().T
    return np.concatenate([b0[np.newaxis], kb0.reshape(band, n, n)]).astype(np.complex128)


def _transpose_perm(n):
    p = np.zeros((n * n, n * n))
    for r in range(n):
        for c in range(n):
            p[r * n + c, c * n + r] = 1.0
    return p


def _newton_step(a_stack, band, b, perm):
    """Least-norm solution D of  D P* + P D* = (A - B B*)  in coefficient space."""
    n = b.shape[1]
    nb = n * n
    dim = (band + 1) * nb
    eye = np.eye(n)
    j1 = np.zeros((dim, dim), dtype=np.complex128)
    j2 = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(band + 1):
        for a in range(k, band + 1):
            # D_a -> D_a B_{a-k}^H contributes kron(I, conj(B_{a-k})) (row-major vec)
            j1[k * nb:(k + 1) * nb, a * nb:(a + 1) * nb] += np.kron(eye, b[a - k].conj())
        for bb in range(band + 1 - k):
            # D_b -> B_{k+b} D_b^H acts on conj(vec D_b) through the transposition
            j2[k * nb:(k + 1) * nb, bb * nb:(bb + 1) * nb] += np.kron(b[k + bb], eye) @ perm
    e = _residual_coeffs(a_stack, b).reshape(-1)
    top = np.hstack([j1.real + j2.real, -j1.imag + j2.imag])
    bot = np.hstack([j1.imag + j2.imag, j1.real - j2.real])
    big = np.vstack([top, bot])
    rhs = np.concatenate([e.real, e.imag])
    sol, *_ = np.linalg.lstsq(big, rhs, rcond=None)
    d = sol[:dim] + 1j * sol[dim:]
    return d.reshape(band + 1, n, n)


def _newton_refine(a_stack, band, b, target, max_iter=60):
    """Undamped Newton steps from b; returns the best iterate and its residual.

    At a spectral zero the Jacobian is singular: Newton then converges only
    linearly, often after a first step that raises the residual, so the
    steps are not damped.  Stops at the target, after max_iter steps, or
    when an iterate stops being finite.
    """
    perm = _transpose_perm(b.shape[1])
    best_b, best_res = b, _residual(a_stack, b)
    for _ in range(max_iter):
        if best_res <= target:
            break
        try:
            b = b + _newton_step(a_stack, band, b, perm)
        except np.linalg.LinAlgError:
            break
        res = _residual(a_stack, b)
        if not np.isfinite(res):
            break
        if res < best_res:
            best_b, best_res = b, res
    return best_b, best_res


def fejer_riesz(u, tol=DEFAULT_TOL):
    """Spectral factor of a Laurent polynomial PSD on the unit circle.

    Parameters
    ----------
    u : LaurentPoly
        Hermitian-valued input, A_{-k} = A_k^H, with u(e^{it}) >= -tol
        (relative to the scale of A_0) on a grid of 4*(band+1) angles.
    tol : float
        Residual target, relative to max(1, ||A_0||).

    Returns
    -------
    SpectralFactor
        Factor with deg = band(u), residual below tol * max(1, ||A_0||),
        canonical up to right multiplication by a constant unitary.

    Raises
    ------
    NotPsdOnCircle
        Grid eigenvalue below the tolerance; the input violates the
        precondition.
    NoConvergence
        Residual target not reached by the Riccati solve, its shifted
        retry and the Newton polish; carries the best factor found.
    """
    band, n = u.band, u.n
    scale = max(1.0, _maxabs(u.coeff(0)))
    if u.hermitian_defect() > 1e-10 * scale:
        raise ValueError("input is not hermitian-valued on the circle (A_{-k} != A_k^H)")

    npts = 4 * (band + 1)
    worst, worst_t = np.inf, 0.0
    for t in 2.0 * np.pi * np.arange(npts) / npts:
        v = u.eval_circle(t)
        w = np.linalg.eigvalsh(0.5 * (v + v.conj().T))
        if w[0] < worst:
            worst, worst_t = w[0], t
    if worst < -tol * scale:
        raise NotPsdOnCircle(worst, worst_t)

    a_stack = np.array(u.coeffs)
    zero = np.zeros((band + 1, n, n), dtype=np.complex128)
    if _maxabs(a_stack) == 0.0:
        return SpectralFactor(zero, 0.0, 0.0, n * band)

    tol_abs = tol * scale
    shift = 0.0
    try:
        b = _riccati_factor(a_stack, band, n)
    except (np.linalg.LinAlgError, ValueError):
        # eigenvalues of the Riccati pencil on the unit circle: move them off
        shift = RETRY_SHIFT * scale
        shifted = a_stack.copy()
        shifted[band] += shift * np.eye(n)
        try:
            b = _riccati_factor(shifted, band, n)
        except (np.linalg.LinAlgError, ValueError):
            raise NoConvergence(SpectralFactor(zero, _maxabs(a_stack), shift, n * band)) from None
    res = _residual(a_stack, b)
    if not res <= tol_abs:
        b, res = _newton_refine(a_stack, band, b, target=0.01 * tol_abs)
    best = SpectralFactor(b, res, shift, n * band)
    if not res <= tol_abs:
        raise NoConvergence(best)
    return best


def laurent_to_json(u):
    """JSON document {"n", "band", "coeffs_re", "coeffs_im"}, indexed -band..band."""
    return {
        "n": u.n,
        "band": u.band,
        "coeffs_re": [[[float(v) for v in row] for row in c] for c in u.coeffs.real],
        "coeffs_im": [[[float(v) for v in row] for row in c] for c in u.coeffs.imag],
    }


def laurent_from_json(doc):
    if not isinstance(doc, dict):
        raise ValueError("Laurent polynomial document must be a JSON object")
    for key in ("n", "band", "coeffs_re", "coeffs_im"):
        if key not in doc:
            raise ValueError(f"missing field '{key}'")
    n, band = doc["n"], doc["band"]
    if not isinstance(n, int) or n < 1:
        raise ValueError("field 'n' must be a positive integer")
    if not isinstance(band, int) or band < 0:
        raise ValueError("field 'band' must be a nonnegative integer")
    expect = 2 * band + 1
    for key in ("coeffs_re", "coeffs_im"):
        part = doc[key]
        if not isinstance(part, list) or len(part) != expect:
            raise ValueError(f"field '{key}' must list {expect} matrices")
        for k, c in enumerate(part):
            if not isinstance(c, list) or len(c) != n or any(
                    not isinstance(row, list) or len(row) != n for row in c):
                raise ValueError(f"{key}[{k}] must be an {n}x{n} matrix")
            for row in c:
                for v in row:
                    if not isinstance(v, (int, float)) or not np.isfinite(v):
                        raise ValueError(f"{key}[{k}] has a non-finite or non-numeric entry")
    re = np.array(doc["coeffs_re"], dtype=float)
    im = np.array(doc["coeffs_im"], dtype=float)
    return LaurentPoly(re + 1j * im)
