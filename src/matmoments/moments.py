"""Moment sequences of symmetric matrices and block-Hankel PSD criteria.

A truncated sequence S_0, ..., S_D stands for the values L(x^p E_kl) of a
linear functional on matrix polynomials.  Positivity of L on (shifted)
hermitian squares is equivalent to positive semidefiniteness of the
block-Hankel matrices [S_{i+j+shift}]; with finite data only orders
2m + shift <= D are machine-checkable, so every report lists the orders it
actually tested.  Passing every testable order is necessary for a
representing measure with the matching support but, at finite truncation,
not sufficient.
"""

from dataclasses import dataclass, field

import numpy as np

from .polymat import _json_fields, _json_floats, _json_matrices, _json_size

DEFAULT_PSD_TOL = 1e-9

_SYM_RTOL = 1e-12


class MomentSequence:
    """Finite sequence S_0, ..., S_D of symmetric real n-by-n matrices."""

    def __init__(self, matrices):
        arr = np.asarray(matrices, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[np.newaxis]
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[0] == 0:
            raise ValueError("moments must form a (D+1, n, n) stack of square matrices")
        for p, s in enumerate(arr):
            scale = max(np.max(np.abs(s)), 0.0)
            if np.max(np.abs(s - s.T)) > _SYM_RTOL * max(scale, 1.0):
                raise ValueError(f"moment S_{p} is not symmetric")
        # store the exact symmetrization so block Hankels come out bit-symmetric
        arr = 0.5 * (arr + np.transpose(arr, (0, 2, 1)))
        arr.setflags(write=False)
        self._S = arr

    @property
    def S(self):
        return self._S

    @property
    def n(self):
        return self._S.shape[1]

    @property
    def D(self):
        return self._S.shape[0] - 1

    def __len__(self):
        return self._S.shape[0]

    def __getitem__(self, p):
        return self._S[p]

    def __repr__(self):
        return f"MomentSequence(n={self.n}, D={self.D})"


@dataclass
class PsdReport:
    """Outcome of a family of PSD tests over block-Hankel orders."""

    passed: bool
    min_eigenvalue: float
    tested_orders: list = field(default_factory=list)
    failing_order: int | None = None

    def to_json(self):
        return {
            "pass": bool(self.passed),
            "min_eigenvalue": float(self.min_eigenvalue),
            "tested_orders": [int(m) for m in self.tested_orders],
            "failing_order": None if self.failing_order is None else int(self.failing_order),
        }


def block_hankel(seq, m, shift):
    """Block matrix with (i, j) block S_{i+j+shift}, i, j = 0..m.

    Requires 2m + shift <= D; the output is exactly symmetric.
    """
    if shift not in (0, 1, 2):
        raise ValueError("shift must be 0, 1 or 2")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if 2 * m + shift > seq.D:
        raise ValueError(f"degree overflow: 2*{m}+{shift} exceeds D={seq.D}")
    n = seq.n
    out = np.zeros(((m + 1) * n, (m + 1) * n))
    for i in range(m + 1):
        for j in range(m + 1):
            out[i * n:(i + 1) * n, j * n:(j + 1) * n] = seq[i + j + shift]
    return out


def _judge(tagged_matrices, tol):
    """Run the scale-aware PSD test on a list of (order, matrix) pairs."""
    min_eig = np.inf
    failing = None
    orders = set()
    passed = True
    for m, mat in tagged_matrices:
        orders.add(m)
        w = np.linalg.eigvalsh(mat)
        spectral = max(abs(w[0]), abs(w[-1]))
        min_eig = min(min_eig, w[0])
        if w[0] < -tol * max(1.0, spectral):
            passed = False
            if failing is None or m < failing:
                failing = m
    if not tagged_matrices:
        min_eig = 0.0
    return PsdReport(passed, float(min_eig), sorted(orders), failing)


def check_hamburger(seq, tol=DEFAULT_PSD_TOL):
    """Necessary PSD tests for a representing measure supported in R."""
    mats = [(m, block_hankel(seq, m, 0)) for m in range(seq.D // 2 + 1)]
    return _judge(mats, tol)


def check_stieltjes(seq, tol=DEFAULT_PSD_TOL):
    """Necessary PSD tests for support in [0, inf): shift-0 and shift-1 Hankels."""
    mats = [(m, block_hankel(seq, m, 0)) for m in range(seq.D // 2 + 1)]
    mats += [(m, block_hankel(seq, m, 1)) for m in range((seq.D - 1) // 2 + 1)]
    return _judge(mats, tol)


def check_hausdorff(seq, tol=DEFAULT_PSD_TOL):
    """Necessary PSD tests for support in [0, 1].

    Tests the four families [S_{i+j}], [S_{i+j+1}], [S_{i+j} - S_{i+j+1}]
    and [S_{i+j+1} - S_{i+j+2}] at every admissible order.
    """
    if seq.D < 2:
        raise ValueError(f"degree too small: need D >= 2, got {seq.D}")
    mats = [(m, block_hankel(seq, m, 0)) for m in range(seq.D // 2 + 1)]
    mats += [(m, block_hankel(seq, m, 1)) for m in range((seq.D - 1) // 2 + 1)]
    mats += [(m, block_hankel(seq, m, 0) - block_hankel(seq, m, 1))
             for m in range((seq.D - 1) // 2 + 1)]
    mats += [(m, block_hankel(seq, m, 1) - block_hankel(seq, m, 2))
             for m in range((seq.D - 2) // 2 + 1)]
    return _judge(mats, tol)


_VARIANT_EXTRA = {"hamburger": 0, "stieltjes": 1, "hausdorff": 2}


def operator_check(seq, operators, variant, tol=DEFAULT_PSD_TOL):
    """PSD test of the scalar matrix [L(x^{i+j} A_i^T A_j)] for one tuple.

    The entry (i, j) is the Frobenius pairing <S_{i+j}, A_i^T A_j>; shifted
    and differenced analogues are added per variant.
    """
    variant = variant.lower()
    if variant not in _VARIANT_EXTRA:
        raise ValueError(f"unknown variant '{variant}'")
    ops = [np.asarray(a, dtype=float) for a in operators]
    if not ops:
        raise ValueError("operator tuple must be non-empty")
    for a in ops:
        if a.shape != (seq.n, seq.n):
            raise ValueError(f"operator shape {a.shape} does not match n={seq.n}")
    m = len(ops) - 1
    if 2 * m + _VARIANT_EXTRA[variant] > seq.D:
        raise ValueError(f"degree overflow: need 2*{m}+{_VARIANT_EXTRA[variant]} <= D={seq.D}")

    def pairing_matrix(shift):
        t = np.zeros((m + 1, m + 1))
        for i in range(m + 1):
            for j in range(m + 1):
                t[i, j] = float(np.sum(seq[i + j + shift] * (ops[i].T @ ops[j])))
        return 0.5 * (t + t.T)

    t0 = pairing_matrix(0)
    mats = [(m, t0)]
    if variant in ("stieltjes", "hausdorff"):
        t1 = pairing_matrix(1)
        mats.append((m, t1))
    if variant == "hausdorff":
        t2 = pairing_matrix(2)
        mats.append((m, t0 - t1))
        mats.append((m, t1 - t2))
    return _judge(mats, tol)


def momentsequence_to_json(seq):
    return {"n": seq.n, "moments": _json_floats(seq.S)}


def momentsequence_from_json(doc):
    _json_fields(doc, "moment sequence", "n", "moments")
    return MomentSequence(_json_matrices(doc["moments"], "moments", _json_size(doc, "n")))
