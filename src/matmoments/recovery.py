"""Atomic measure recovery from a truncated moment sequence.

Support points come from the generalized eigenvalues of the shifted
block-Hankel pencil compressed onto the numerical range of the unshifted
one; weights from a linear least-squares fit followed by projection onto
the PSD cone.  The projection keeps the output a valid measure and any
clipped mass shows up in the reported moment residual.
"""

from dataclasses import dataclass

import numpy as np

from .measures import AtomicMatrixMeasure
from .moments import block_hankel, check_hamburger
from .polymat import _check_tol

DEFAULT_RANK_TOL = 1e-8
MERGE_EIG_TOL = 1e-8


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
    """Eigenvalues of the symmetric-definite pencil (H1c, H0c), sorted.

    H0c is positive definite, so with H0c = L L^T they are the eigenvalues
    of the symmetric L^{-1} H1c L^{-T}.
    """
    l = np.linalg.cholesky(h0c)
    c = np.linalg.solve(l, np.linalg.solve(l, h1c).T)
    return np.linalg.eigvalsh(0.5 * (c + c.T))


def _powers(points, degree):
    """Vandermonde rows x ** p, p = 0..degree, as a (degree + 1, len(points)) array.

    The powers are Python's float ``**``: numpy's ``power`` rounds some
    of them differently.
    """
    return np.array([[x ** p for x in points] for p in range(degree + 1)])


def recover(seq, tol=DEFAULT_RANK_TOL):
    """Recover an atomic measure whose moments match the input sequence.

    Parameters
    ----------
    seq : MomentSequence
        Truncated sequence with even top degree D = 2m >= 2 passing the
        block-Hankel PSD test.
    tol : float
        Relative eigenvalue cut for the numerical rank of the Hankel
        matrix; an eigenvalue gap below 10*tol at the cut flags the result
        as unreliable instead of failing.

    Returns
    -------
    RecoveryResult
        Measure with PSD-projected weights, the max moment mismatch, the
        rank used, and the gap-ambiguity flag.

    Raises
    ------
    HankelNotPsd
        Precondition failure.
    """
    _check_tol(tol)
    d = seq.D
    if d < 2 or d % 2 != 0:
        raise ValueError(f"need even top degree D = 2m >= 2, got D={d}")
    report = check_hamburger(seq)
    if not report.passed:
        raise HankelNotPsd(report)

    n = seq.n
    m = d // 2
    h0 = block_hankel(seq, m - 1, 0)
    h1 = block_hankel(seq, m - 1, 1)
    lam, vec = np.linalg.eigh(h0)
    lam_max = lam[-1]
    if lam_max <= 0.0:
        return RecoveryResult(AtomicMatrixMeasure(n, []), float(np.max(np.abs(seq.S))), 0)

    keep = lam > tol * lam_max
    rank = int(np.count_nonzero(keep))
    dropped = lam[~keep]
    lam_out = float(dropped.max()) if dropped.size else 0.0
    lam_in = float(lam[keep].min())
    # unreliable when the cut falls inside a narrow gap, or when the largest
    # dropped eigenvalue sits well above the eigensolver noise floor (a real
    # direction was truncated, e.g. tightly clustered atoms)
    noise_floor = 1000.0 * np.finfo(float).eps * lam_max
    ambiguous = ((lam_in - lam_out) / lam_max < 10.0 * tol) or (lam_out > noise_floor)

    basis = vec[:, keep]
    h0c = basis.T @ h0 @ basis
    h1c = basis.T @ h1 @ basis
    points = pencil_eigenvalues(h0c, h1c)

    merged = []
    for x in points:
        if merged and abs(x - merged[-1]) < MERGE_EIG_TOL:
            continue
        merged.append(float(x))

    vand = _powers(merged, d)
    rhs = seq.S.reshape(d + 1, n * n)
    sol = np.linalg.lstsq(vand, rhs, rcond=None)[0].reshape(len(merged), n, n)
    ew, ev = np.linalg.eigh(0.5 * (sol + np.swapaxes(sol, 1, 2)))
    weights = (ev * np.maximum(ew, 0.0)[:, np.newaxis]) @ np.swapaxes(ev, 1, 2)

    mu = AtomicMatrixMeasure._from_psd(n, list(zip(merged, weights)))
    # the atoms are ``merged`` in order (sorted, and MERGE_EIG_TOL apart, so none
    # merge again), whose powers ``vand`` holds
    approx = np.zeros(seq.S.shape)
    for j, (_, w) in enumerate(mu.atoms):
        approx += vand[:, j, np.newaxis, np.newaxis] * w
    residual = float(np.max(np.abs(seq.S - approx)))
    return RecoveryResult(mu, residual, rank, bool(ambiguous))
