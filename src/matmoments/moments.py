"""Moment sequences of symmetric matrices and block-Hankel PSD criteria.

A truncated sequence S_0, ..., S_D stands for the values L(x^p E_kl) of a
linear functional on matrix polynomials.  Positivity of L on g times the
hermitian squares, for a cone generator g, is equivalent to positive
semidefiniteness of the localizing block Hankels [(g S)_{i+j}] with
(g S)_m = sum_i g_i S_{m+i}; with finite data only orders 2m + deg g <= D
are machine-checkable, so every report lists the orders it actually tested.  Passing every testable order is necessary for a
representing measure with the matching support but, at finite truncation,
not sufficient.
"""

from dataclasses import dataclass, field

import numpy as np

from .polymat import (_EntryError, _check_tol, _json_fields, _json_floats, _json_matrices,
                      _json_size)

DEFAULT_PSD_TOL = 1e-9

_SYM_RTOL = 1e-12

# Cone generators g of the preorderings, as coefficients with the constant
# term first.  A certificate writes F = sum_g g * sigma_g over its variant's
# generators; a moment criterion tests every localizing Hankel [(g*S)_{i+j}].
GENERATORS = {
    "1": (1.0,),
    "x": (0.0, 1.0),
    "1-x": (1.0, -1.0),
    "x(1-x)": (0.0, 1.0, -1.0),
}

VARIANT_GENERATORS = {
    "line": ("1",),
    "halfline": ("1", "x"),
    "interval": ("1", "x", "1-x", "x(1-x)"),
}

# the certificate variant whose generators each moment criterion tests
CRITERION_VARIANTS = {"hamburger": "line", "stieltjes": "halfline", "hausdorff": "interval"}


class MomentSequence:
    """Finite sequence S_0, ..., S_D of symmetric real n-by-n matrices.

    The sequence is immutable, so it keeps the least eigenvalue and the
    scale of each Hankel family at each order once computed; every
    criterion and ``recover``'s precondition judge those at their own tol.
    """

    def __init__(self, matrices):
        arr = np.asarray(matrices, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[np.newaxis]
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[0] == 0:
            raise ValueError("moments must form a (D+1, n, n) stack of square matrices")
        if arr.shape[1] == 0:
            raise ValueError("moment matrices must be n x n with n >= 1")
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=(1, 2)))
        if bad.size:
            p = int(bad[0])
            raise _EntryError(p, f"moment S_{p}", "has a non-finite entry")
        scale = np.maximum(np.max(np.abs(arr), axis=(1, 2)), 1.0)
        skew = np.max(np.abs(arr - np.transpose(arr, (0, 2, 1))), axis=(1, 2))
        bad = np.flatnonzero(skew > _SYM_RTOL * scale)
        if bad.size:
            p = int(bad[0])
            raise _EntryError(p, f"moment S_{p}", "is not symmetric")
        # store the exact symmetrization so block Hankels come out bit-symmetric;
        # halving first keeps the sum finite for entries near the float maximum
        half = 0.5 * arr
        arr = half + np.transpose(half, (0, 2, 1))
        arr.setflags(write=False)
        self._S = arr
        self._extremes = {}

    def _hankel_extremes(self, g):
        """(orders, least eigenvalues, scales) of the localizing block Hankels of g.

        ``g`` is a coefficient tuple of ``GENERATORS``.  The Hankel is
        gathered once, at its top order; order m's Hankel is its leading
        (m + 1) n square, the same entries a gather at order m gives.  The
        arrays are computed once per sequence and generator.
        """
        extremes = self._extremes.get(g)
        if extremes is None:
            stack = _localize(self._S, g)
            top = (len(stack) - 1) // 2
            h = _hankel(stack, top)
            n = self.n
            w = [np.linalg.eigvalsh(h[:k, :k]) for k in range(n, (top + 2) * n, n)]
            least = np.array([v[0] for v in w])
            extremes = self._extremes[g] = (np.arange(top + 1), least,
                                            _scale(least, np.array([v[-1] for v in w])))
        return extremes

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


def _localize(stack, g):
    """Localizing stack T_m = sum_i g_i stack[m + i], as long as stack allows.

    Summed from the lowest nonzero term, so 1*S and S_m - S_{m+1} are exact.
    The localizing block Hankel of g has (i, j) block T_{i+j}; order m is
    testable while 2m < len(T).
    """
    size = max(len(stack) - (len(g) - 1), 0)
    terms = [c * stack[i:i + size] for i, c in enumerate(g) if c]
    return sum(terms[1:], terms[0])


def _hankel(stack, m):
    """Block matrix with (i, j) block stack[i + j], i, j = 0..m, as one gather."""
    k = np.arange(m + 1)
    n = stack.shape[1]
    blocks = stack[k[:, np.newaxis] + k]
    return blocks.transpose(0, 2, 1, 3).reshape((m + 1) * n, (m + 1) * n)


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
    return _hankel(seq.S[shift:], m)


def _scale(least, largest):
    """max(1, |least|, |largest|), the scale a least eigenvalue is judged against.

    ``fmax`` drops a NaN largest eigenvalue, as ``max(abs(least), abs(largest))`` does.
    """
    return np.fmax(1.0, np.fmax(np.abs(least), np.abs(largest)))


def _judge(orders, least, scale, tol):
    """Scale-aware PSD test: order orders[i] fails where least[i] < -tol scale[i].

    The least eigenvalue reported is the first smallest non-NaN one, as a
    running ``min`` from inf finds it, with the sign of a zero kept.
    """
    _check_tol(tol)
    failing = orders[least < -tol * scale]
    return PsdReport(not failing.size, min([np.inf, *least.tolist()]) if least.size else 0.0,
                     sorted(set(orders.tolist())), min(failing.tolist(), default=None))


def _generators(criterion):
    return [GENERATORS[key] for key in VARIANT_GENERATORS[CRITERION_VARIANTS[criterion]]]


def _check(seq, criterion, tol):
    families = zip(*map(seq._hankel_extremes, _generators(criterion)))
    return _judge(*map(np.concatenate, families), tol)


def check_hamburger(seq, tol=DEFAULT_PSD_TOL):
    """Necessary PSD tests for a representing measure supported in R: [S_{i+j}]."""
    return _check(seq, "hamburger", tol)


def check_stieltjes(seq, tol=DEFAULT_PSD_TOL):
    """Necessary PSD tests for support in [0, inf): [S_{i+j}] and [S_{i+j+1}]."""
    return _check(seq, "stieltjes", tol)


def check_hausdorff(seq, tol=DEFAULT_PSD_TOL):
    """Necessary PSD tests for support in [0, 1].

    Tests the four families [S_{i+j}], [S_{i+j+1}], [S_{i+j} - S_{i+j+1}]
    and [S_{i+j+1} - S_{i+j+2}] at every admissible order.
    """
    if seq.D < 2:
        raise ValueError(f"degree too small: need D >= 2, got {seq.D}")
    return _check(seq, "hausdorff", tol)


def operator_check(seq, operators, variant, tol=DEFAULT_PSD_TOL):
    """PSD test of the scalar matrix [L(g x^{i+j} A_i^T A_j)] for one tuple.

    ``variant`` names the moment criterion, ``hamburger``, ``stieltjes`` or
    ``hausdorff`` (any case), whose generators g are tested.  With T_k the
    Frobenius pairing [<S_{i+j+k}, A_i^T A_j>], the matrix of generator g
    is sum_k g_k T_k.
    """
    variant = variant.lower()
    if variant not in CRITERION_VARIANTS:
        raise ValueError(f"unknown criterion '{variant}': expected one of "
                         f"{', '.join(CRITERION_VARIANTS)}")
    gens = _generators(variant)
    ops = [np.asarray(a, dtype=float) for a in operators]
    if not ops:
        raise ValueError("operator tuple must be non-empty")
    for a in ops:
        if a.shape != (seq.n, seq.n):
            raise ValueError(f"operator shape {a.shape} does not match n={seq.n}")
    m = len(ops) - 1
    extra = max(len(g) for g in gens) - 1
    if 2 * m + extra > seq.D:
        raise ValueError(f"degree overflow: need 2*{m}+{extra} <= D={seq.D}")

    # T_k[i, j] = <S_{i+j+k}, A_i^T A_j> from one gather of the blocks
    k = np.arange(m + 1)
    blocks = seq.S[np.arange(extra + 1)[:, np.newaxis, np.newaxis] + k[:, np.newaxis] + k]
    stack = np.array(ops)
    t = np.sum(blocks * (np.swapaxes(stack, 1, 2)[:, np.newaxis] @ stack), axis=(-2, -1))
    pairings = 0.5 * (t + np.swapaxes(t, 1, 2))
    w = np.linalg.eigvalsh(np.array([_localize(pairings, g)[0] for g in gens]))
    return _judge(np.full(len(gens), m), w[:, 0], _scale(w[:, 0], w[:, -1]), tol)


def momentsequence_to_json(seq):
    return {"n": seq.n, "moments": _json_floats(seq.S)}


def momentsequence_from_json(doc):
    _json_fields(doc, "moment sequence", "n", "moments")
    mats = _json_matrices(doc["moments"], "moments", _json_size(doc, "n"))
    try:
        return MomentSequence(mats)
    except _EntryError as exc:
        raise ValueError(f"moments[{exc.index}] {exc.problem}") from None
