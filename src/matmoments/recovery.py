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

DEFAULT_RANK_TOL = 1e-8
MERGE_EIG_TOL = 1e-8


class HankelNotPsd(RuntimeError):
    """The input fails the block-Hankel PSD precondition."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"block Hankel matrices not PSD "
                         f"(min eigenvalue {report.min_eigenvalue:.3e} "
                         f"at order {report.failing_order})")


class ComplexAtoms(RuntimeError):
    """The Hankel pencil has genuinely complex eigenvalues."""

    def __init__(self, max_imag):
        self.max_imag = max_imag
        super().__init__(f"pencil eigenvalues have imaginary part {max_imag:.3e}; "
                         f"no real atomic representation found")


@dataclass
class RecoveryResult:
    measure: AtomicMatrixMeasure
    moment_residual: float
    rank_used: int
    rank_gap_ambiguous: bool = False


def pencil_eigenvalues(h0c, h1c, tol):
    """Real eigenvalues of the compressed pencil (H1c, H0c), sorted.

    Raises ComplexAtoms if any eigenvalue strays from the real axis by
    more than tol relative to its magnitude.
    """
    import scipy.linalg     # here, not at module level: `import matmoments` loads only numpy
    vals = scipy.linalg.eig(h1c, h0c)[0]
    if vals.size == 0:
        return np.array([])
    max_imag = float(np.max(np.abs(vals.imag)))
    if max_imag > tol * max(1.0, float(np.max(np.abs(vals.real)))):
        raise ComplexAtoms(max_imag)
    return np.sort(vals.real)


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
    ComplexAtoms
        Pencil eigenvalues far from the real axis.
    """
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
        mu = AtomicMatrixMeasure(n, [])
        residual = float(max(np.max(np.abs(seq[p])) for p in range(d + 1)))
        return RecoveryResult(mu, residual, 0)

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
    points = pencil_eigenvalues(h0c, h1c, tol)

    merged = []
    for x in points:
        if merged and abs(x - merged[-1]) < MERGE_EIG_TOL:
            continue
        merged.append(float(x))

    vand = np.array([[x ** p for x in merged] for p in range(d + 1)])
    rhs = seq.S.reshape(d + 1, n * n)
    sol = np.linalg.lstsq(vand, rhs, rcond=None)[0]
    weights = []
    for j in range(len(merged)):
        w = sol[j].reshape(n, n)
        w = 0.5 * (w + w.T)
        ew, ev = np.linalg.eigh(w)
        weights.append((ev * np.maximum(ew, 0.0)) @ ev.T)

    mu = AtomicMatrixMeasure(n, list(zip(merged, weights)))
    residual = 0.0
    for p in range(d + 1):
        approx = np.zeros((n, n))
        for x, w in mu.atoms:
            approx += x ** p * w
        residual = max(residual, float(np.max(np.abs(seq[p] - approx))))
    return RecoveryResult(mu, residual, rank, bool(ambiguous))
