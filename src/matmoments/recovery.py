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
from .polymat import _Failure, _hermitian_part, _weighted_sum

ATOM_TOL = 1e-6
EPS = np.finfo(float).eps


class HankelNotPsd(_Failure, RuntimeError):
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
    vals, z = np.linalg.eigh(_hermitian_part(c))
    return vals, s[:, np.newaxis] * z


def _powers(points, degree):
    """Vandermonde rows x ** p, p = 0..degree, by Python's float ``**``.

    numpy's ``power`` rounds some of them differently.
    """
    return np.array([[x ** p for x in points] for p in range(degree + 1)])


def _lstsq(vand, rhs):
    """W = V^+ S and the thin SVD (U, s, Wt) of V = ``vand``, cut at eps max(shape) s_0 as lstsq."""
    u, s, wt = np.linalg.svd(vand, full_matrices=False)
    keep = s > EPS * max(vand.shape) * s[0]
    u, s, wt = u[:, keep], s[keep], wt[keep]
    return wt.T @ ((u.T @ rhs) / s[:, np.newaxis]), (u, s, wt)     # V^+ formed first loses digits


def _fit_errors(vand, sol, rhs, svd):
    """First-order errors of the fitted atoms, max(point, weight error).

    W = ``sol`` fits V W = S, V = ``vand`` with the thin SVD ``svd`` = (U, s,
    Wt) of ``_lstsq``.  One Gauss-Newton step on V(x) W = S with W projected
    out (Jacobian -(I - P) V'_j W_j in x_j, P = U U^T) measures how far the
    points sit from the least-squares optimum and what that does to W, and
    rounding of S (eps sum_j |x_j|^k ||W_j|| in degree k) reaches x and W
    entry by entry.  It runs on W and S scaled by the power of two that puts
    max|W| in [0.5, 1), exactly, so no norm overflows; the weight errors
    are scaled back.  More atoms than V's rank (more than degrees 0..D, or
    a singular value cut), or a Jacobian singular to working precision: inf.
    """
    (u, s, wt), (rows, count), n2 = svd, vand.shape, rhs.shape[1]
    e = np.frexp(np.max(np.abs(sol)))[1]
    sol, rhs = np.ldexp(sol, -e), np.ldexp(rhs, -e)
    dvand = np.zeros(vand.shape)
    dvand[1:] = np.arange(1, rows)[:, np.newaxis] * vand[:-1]
    size = np.sqrt(np.einsum("ij,ij->i", sol, sol))
    noise = EPS * (np.abs(vand) @ size)
    proj = dvand - u @ (u.T @ dvand)
    jac = (proj[:, :, np.newaxis] * sol).transpose(0, 2, 1).reshape(-1, count)
    ju, js, jwt = np.linalg.svd(jac, full_matrices=False)
    if s.size < count or js[-1] <= EPS * js[0]:
        return np.full(count, np.inf)
    vinv, jinv = (wt.T / s) @ u.T, (jwt.T / js) @ ju.T
    step = jinv @ (rhs - vand @ sol).ravel()
    xnoise = np.abs(jinv) @ np.repeat(noise, n2)
    wstep = np.linalg.norm(vinv @ (dvand @ (step[:, np.newaxis] * sol)), axis=1)
    wnoise = np.abs(vinv) @ (np.sqrt(n2) * noise + np.abs(dvand) @ (xnoise * size))
    return np.maximum(np.abs(step) + xnoise, np.ldexp(wstep + wnoise, e))


def recover(seq):
    """Recover an atomic measure whose moments match ``seq``.

    ``seq`` needs an even top degree D = 2m >= 2 and must pass the
    block-Hankel PSD test, else ``HankelNotPsd``.  The rank is the position
    of the largest ratio of consecutive eigenvalues of H0 above the noise
    floor 100 eps size lambda_max (the last against the next eigenvalue or
    eps lambda_max).  A pencil eigenvalue x_i with y_i^T H0c y_i = 1 moves
    under rounding by at most about b_i = 3 eps (||H1||_F + |x_i| lambda_max)
    ||y_i||^2, with ||H1||_F taken at an exact power-of-two scale;
    consecutive points within b_i + b_j merge into their mean; a
    point whose power x^D overflows float64 is a ValueError naming its atom.
    The result holds the measure with PSD-projected weights, the max moment
    mismatch, the rank and ``rank_gap_ambiguous``, set when an eigenvalue
    above the floor was dropped, when an atom merged from several points has
    a bound plus width beyond ``ATOM_TOL`` (it may hide distinct atoms, which
    the fit's error cannot see), when the mismatch exceeds ``ATOM_TOL``
    max|S|, or when the measured first-order error of a fitted atom
    (``_fit_errors``), which sees point errors the weight fit magnifies,
    exceeds ``ATOM_TOL``; a loose bound on a lone point raises no flag by
    itself.  Unflagged atoms lie within ``ATOM_TOL``.
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
    with np.errstate(divide="ignore"):      # a floor that underflowed to 0: an infinite gap
        ratios = above / np.append(above[1:], max(below, EPS * lam_max))
    rank = int(np.argmax(ratios)) + 1

    basis = vec[:, lam.size - rank:]
    points, y = pencil_eigenvalues(lam[lam.size - rank:], basis.T @ h1 @ basis)
    far = float(points[np.argmax(np.abs(points))])
    try:
        far ** d        # _powers' largest power, checked before the bounds below overflow
    except OverflowError:
        raise ValueError(f"atom at x={far:.6g}: power x^{d} overflows float64") from None
    e = np.frexp(np.max(np.abs(h1)))[1]    # ||H1||_F taken at max|H1| in [0.5, 1), exactly
    h1_norm = np.ldexp(np.linalg.norm(np.ldexp(h1, -e)), e)
    with np.errstate(over="ignore", invalid="ignore"):     # y too large to square: inf or NaN
        bound = 3.0 * EPS * (h1_norm + np.abs(points) * lam_max) * np.sum(y * y, axis=0)
    # clusters of consecutive points within their bounds; clusters at least
    # MERGE_TOL apart, so the measure need not merge them again
    apart = np.diff(points) > np.maximum(bound[1:] + bound[:-1], MERGE_TOL)
    starts = np.flatnonzero(np.concatenate(([True], apart)))
    ends = np.concatenate((starts[1:], [points.size])) - 1
    merged = [float(x) for x in np.add.reduceat(points, starts) / (ends - starts + 1)]
    spread = np.maximum.reduceat(bound, starts) + points[ends] - points[starts]

    vand = _powers(merged, d)
    rhs = seq.S.reshape(d + 1, n * n)
    fit, svd = _lstsq(vand, rhs)
    sol = fit.reshape(len(merged), n, n)
    ew, ev = np.linalg.eigh(_hermitian_part(sol))
    weights = _hermitian_part((ev * np.maximum(ew, 0.0)[:, np.newaxis]) @ np.swapaxes(ev, 1, 2))

    mu = AtomicMatrixMeasure._from_psd(n, merged, weights)
    # the atoms are ``merged`` in order, whose powers ``vand`` holds
    residual = float(np.max(np.abs(seq.S - _weighted_sum(vand.T, weights))))
    # a merged atom with a loose bound may stand for distinct atoms, whose
    # merged fit matches S to second order; a mismatch beyond ATOM_TOL max|S|
    # means a rank taken too low; the PSD projection moves no weight further
    # from a PSD truth, so the fit's error bounds the projected weights' too
    ambiguous = bool(rank < above.size or np.any((ends > starts) & (spread > ATOM_TOL))
                     or residual > ATOM_TOL * np.max(np.abs(seq.S))
                     or np.any(_fit_errors(vand, fit, rhs, svd) > ATOM_TOL))
    return RecoveryResult(mu, residual, rank, ambiguous)
