"""Atomic measure recovery from a truncated moment sequence.

The rank is read off the spectrum of the block Hankel H0 at its largest
gap; support points are the eigenvalues of the shifted pencil compressed
onto H0's leading eigenvectors, and points within their first-order
rounding bounds merge.  Weights come from a least-squares fit projected
onto the PSD cone, which keeps the output a valid measure; any clipped
mass shows up in the reported moment residual.
"""

from dataclasses import dataclass

import numpy as np

from .measures import MERGE_TOL, AtomicMatrixMeasure
from .moments import block_hankel, check_hamburger

ATOM_TOL = 1e-6
EPS = np.finfo(float).eps


class HankelNotPsd(RuntimeError):
    """The input fails the block-Hankel PSD precondition."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"block Hankel matrices not PSD "
                         f"(min eigenvalue {report.min_eigenvalue:.3e} "
                         f"at order {report.failing_order})")


@dataclass
class RecoveryResult:
    measure: AtomicMatrixMeasure
    moment_residual: float
    rank_used: int
    rank_gap_ambiguous: bool = False


def pencil_eigenvalues(h0c, h1c):
    """Eigenpairs of the pencil (H1c, diag(h0c)): sorted x, columns y^T diag(h0c) y = 1.

    ``h0c`` holds kept eigenvalues of H0, which is diagonal on its own
    eigenvectors; y = D z for z an eigenvector of D H1c D, D = diag(h0c)^(-1/2).
    """
    s = 1.0 / np.sqrt(h0c)
    c = s[:, np.newaxis] * h1c * s
    vals, z = np.linalg.eigh(0.5 * (c + c.T))
    return vals, s[:, np.newaxis] * z


def _powers(points, degree):
    """Vandermonde rows x ** p, p = 0..degree, by Python's float ``**``.

    numpy's ``power`` rounds some of them differently.
    """
    return np.array([[x ** p for x in points] for p in range(degree + 1)])


def _rescaled(norm, a):
    """``norm(a)``, or max|a| * norm(a / max|a|) where the plain one overflows on finite ``a``."""
    with np.errstate(over="ignore"):
        out = norm(a)
    if np.all(np.isfinite(out)):
        return out
    top = np.max(np.abs(a))
    return top * norm(a / top) if np.isfinite(top) else out


def _fit_errors(vand, sol, sv, spread, rhs):
    """First-order errors of the fitted atoms, max(point, weight error).

    W = ``sol`` fits V W = S, V = ``vand`` with singular values ``sv``.  A
    priori, point errors up to ``spread`` and rounding of S (eps
    sum_j |x_j|^k ||W_j|| in degree k) reach W through ||V^+|| = 1 / sv[-1].
    Where that exceeds ATOM_TOL, one Gauss-Newton step on V(x) W = S with W
    projected out (Jacobian -(I - P) V'_j W_j in x_j, P the projector onto
    range V) measures how far the points sit from the least-squares optimum
    and what that does to W, and the rounding's reach is added entry by
    entry.  More atoms than degrees 0..D, or a V or Jacobian singular to
    working precision: inf.
    """
    rows, count = vand.shape
    n2 = rhs.shape[1]
    dvand = np.zeros(vand.shape)
    dvand[1:] = np.arange(1, rows)[:, np.newaxis] * vand[:-1]
    size = _rescaled(lambda s: np.sqrt(np.einsum("ij,ij->i", s, s)), sol)
    noise = EPS * (np.abs(vand) @ size)
    reach = spread * size
    with np.errstate(over="ignore"):
        prior = (np.sqrt(np.einsum("ij,ij->", dvand, dvand) * (reach @ reach))
                 + np.sqrt(n2 * (noise @ noise))) / sv[-1]
    if not np.isfinite(prior):
        prior = (_rescaled(np.linalg.norm, dvand) * _rescaled(np.linalg.norm, reach)
                 + np.sqrt(n2) * _rescaled(np.linalg.norm, noise)) / sv[-1]
    if count <= rows and prior <= ATOM_TOL:
        return np.maximum(spread, prior)
    u, s, wt = np.linalg.svd(vand, full_matrices=False)
    proj = dvand - u @ (u.T @ dvand)
    jac = (proj[:, :, np.newaxis] * sol).transpose(0, 2, 1).reshape(-1, count)
    ju, js, jwt = np.linalg.svd(jac, full_matrices=False)
    if s[-1] <= EPS * s[0] or js[-1] <= EPS * js[0]:
        return np.full(count, np.inf)
    vinv, jinv = (wt.T / s) @ u.T, (jwt.T / js) @ ju.T
    step = jinv @ (rhs - vand @ sol).ravel()
    xnoise = np.abs(jinv) @ np.repeat(noise, n2)
    wstep = _rescaled(lambda a: np.linalg.norm(a, axis=1),
                      vinv @ (dvand @ (step[:, np.newaxis] * sol)))
    wnoise = np.abs(vinv) @ (np.sqrt(n2) * noise + np.abs(dvand) @ (xnoise * size))
    return np.maximum(np.abs(step) + xnoise, wstep + wnoise)


def recover(seq):
    """Recover an atomic measure whose moments match ``seq``.

    ``seq`` needs an even top degree D = 2m >= 2 and must pass the
    block-Hankel PSD test, else ``HankelNotPsd``.  The rank is the position
    of the largest ratio of consecutive eigenvalues of H0 above the noise
    floor 100 eps size lambda_max (the last against the next eigenvalue or
    eps lambda_max).  A pencil eigenvalue x_i with y_i^T H0c y_i = 1 moves
    under rounding by at most about b_i = 3 eps (||H1||_F + |x_i| lambda_max)
    ||y_i||^2; consecutive points within b_i + b_j merge into their mean; a
    point whose power x^D overflows float64 is a ValueError naming its atom.
    The result holds the measure with PSD-projected weights, the max moment
    mismatch, the rank and ``rank_gap_ambiguous``, set when an eigenvalue
    above the floor was dropped, when an atom's bound plus the width of its
    merged points exceeds ``ATOM_TOL``, when the mismatch exceeds
    ``ATOM_TOL`` max|S|, or when the first-order error of a fitted atom
    (``_fit_errors``) exceeds ``ATOM_TOL``; the last catches point errors
    inside their bounds that the weight fit magnifies.  Unflagged atoms lie
    within ``ATOM_TOL``.
    """
    d = seq.D
    if d < 2 or d % 2 != 0:
        raise ValueError(f"need even top degree D = 2m >= 2, got D={d}")
    report = check_hamburger(seq)
    if not report.passed:
        raise HankelNotPsd(report)

    n = seq.n
    h0, h1 = (block_hankel(seq, d // 2 - 1, shift) for shift in (0, 1))
    lam, vec = np.linalg.eigh(h0)
    lam_max = lam[-1]
    if lam_max <= 0.0:
        return RecoveryResult(AtomicMatrixMeasure(n, []), float(np.max(np.abs(seq.S))), 0)

    # eigenvalues above the floor, largest first, each against the next one
    above = lam[lam > 100.0 * EPS * lam.size * lam_max][::-1]
    below = lam[lam.size - above.size - 1] if above.size < lam.size else 0.0
    ratios = above / np.append(above[1:], max(below, EPS * lam_max))
    rank = int(np.argmax(ratios)) + 1

    basis = vec[:, lam.size - rank:]
    points, y = pencil_eigenvalues(lam[lam.size - rank:], basis.T @ h1 @ basis)
    far = float(points[np.argmax(np.abs(points))])
    try:
        far ** d        # _powers' largest power, checked before the bounds below overflow
    except OverflowError:
        raise ValueError(f"atom at x={far:.6g}: power x^{d} overflows float64") from None
    bound = (3.0 * EPS * (_rescaled(np.linalg.norm, h1) + np.abs(points) * lam_max)
             * np.sum(y * y, axis=0))
    # clusters of consecutive points within their bounds; clusters at least
    # MERGE_TOL apart, so the measure need not merge them again
    apart = np.diff(points) > np.maximum(bound[1:] + bound[:-1], MERGE_TOL)
    starts = np.flatnonzero(np.concatenate(([True], apart)))
    ends = np.concatenate((starts[1:], [points.size])) - 1
    merged = [float(x) for x in np.add.reduceat(points, starts) / (ends - starts + 1)]
    spread = np.maximum.reduceat(bound, starts) + points[ends] - points[starts]

    vand = _powers(merged, d)
    rhs = seq.S.reshape(d + 1, n * n)
    fit, _, _, sv = np.linalg.lstsq(vand, rhs, rcond=None)
    sol = fit.reshape(len(merged), n, n)
    ew, ev = np.linalg.eigh(0.5 * (sol + np.swapaxes(sol, 1, 2)))
    weights = (ev * np.maximum(ew, 0.0)[:, np.newaxis]) @ np.swapaxes(ev, 1, 2)
    weights = 0.5 * (weights + np.swapaxes(weights, 1, 2))

    mu = AtomicMatrixMeasure._from_psd(n, merged, weights)
    # the atoms are ``merged`` in order, whose powers ``vand`` holds
    approx = np.zeros(seq.S.shape)
    for j, (_, w) in enumerate(mu.atoms):
        approx += vand[:, j, np.newaxis, np.newaxis] * w
    residual = float(np.max(np.abs(seq.S - approx)))
    # a mismatch beyond ATOM_TOL max|S| means a rank taken too low; the PSD
    # projection moves no weight further from a PSD truth, so the fit's
    # error bounds the projected weights' too
    ambiguous = bool(rank < above.size or np.any(spread > ATOM_TOL)
                     or residual > ATOM_TOL * np.max(np.abs(seq.S))
                     or np.any(_fit_errors(vand, fit, sv, spread, rhs) > ATOM_TOL))
    return RecoveryResult(mu, residual, rank, ambiguous)
