"""Univariate matrix polynomials and matrix Laurent polynomials.

Coefficients are dense real square matrices, stored as float64 stacks.
Complex matrices appear only in a non-real :class:`LaurentPoly`, which
feeds the spectral factorization routines, and in its Hermitian Cayley
image on the line, which ``_least_on`` searches as it does a real stack.
"""

import math
import numbers
import sys
from dataclasses import asdict
from functools import lru_cache

import numpy as np

STRIP_TOL = 1e-14
INPUT_RTOL = 1e-10      # an input's allowed asymmetry or negativity: README, "Error model"
_EPS = np.finfo(float).eps

# Each domain: its moment criterion, which tests each [(g*S)_{i+j}] in this order, and the
# generators g, {name: coefficients, constant first}, of certificates F = sum_g g * sigma_g.
_ONE, _X = {"1": (1.0,)}, {"x": (0.0, 1.0)}
DOMAINS = {"line": ("hamburger", _ONE), "halfline": ("stieltjes", _ONE | _X),
           "interval": ("hausdorff", _ONE | _X | {"1-x": (1.0, -1.0), "x(1-x)": (0.0, 1.0, -1.0)})}


def _maxabs(mat):
    """Largest absolute entry, as a float; NaN if any entry is NaN."""
    arr = np.asarray(mat)
    if arr.size == 0:
        return 0.0
    return float(np.abs(arr).max())


def _strip(arr):
    """``arr`` without trailing coefficients below STRIP_TOL, keeping one; a NaN one stays."""
    m, last = np.abs(arr).max(axis=(1, 2)), len(arr)
    while last > 1 and m[last - 1] < STRIP_TOL:
        last -= 1
    return arr[:last]


def _read_only(arr):
    arr.setflags(write=False)
    return arr


def _square_stack(arr, what):
    """``arr`` if a non-empty (len, n, n) stack with n >= 1, else a ValueError naming ``what``."""
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or 0 in arr.shape:
        raise ValueError(f"{what} must form a non-empty (len, n, n) stack of square matrices "
                         "with n >= 1")
    return arr


def _padded_sum(stacks):
    """Sum of coefficient stacks of one matrix size: zeros of the longest, each added in order."""
    out = np.zeros((max(map(len, stacks)),) + stacks[0].shape[1:])
    for stack in stacks:
        out[:len(stack)] += stack
    return out


def _weighted_sum(weights, stack):
    """Rows sum_k weights[k, r] * stack[k], bit for bit the loop over increasing k.

    One batched product fills a term stack behind a +0 row; a zero weight
    leaves its term +0 (masked: 0 * inf is no NaN).  ``np.add.reduce`` adds
    the rows of a C-contiguous stack's leading axis in order (pinned by
    ``test_polymat``), a sum from +0 never becomes -0 and x + 0 = x, so each
    entry sums what a loop from ``np.zeros`` that skips zero weights sums,
    in its order.  ``spectral._residual_coeffs`` subtracts likewise.
    """
    terms = np.zeros((len(stack) + 1,) + weights.shape[1:] + stack.shape[1:],
                     dtype=np.result_type(weights, stack))
    w = weights[:, :, np.newaxis, np.newaxis]
    np.multiply(w, stack[:, np.newaxis], out=terms[1:], where=w != 0)
    return np.add.reduce(terms, axis=0)


def _scale(least, largest):
    """max(1, |least|, |largest|), the scale ``_not_psd`` and the audit's margins judge against."""
    return np.maximum(1.0, np.maximum(np.abs(least), np.abs(largest)))


def _not_psd(least, largest, tol):
    """Where a least eigenvalue fails a PSD test: -inf or NaN, or below -tol * _scale."""
    return ~np.isfinite(least) | (least < -tol * _scale(least, largest))


def _report_json(report):
    """A report's fields in order, ``passed`` written ``pass``; reports hold plain Python values."""
    return {("pass" if key == "passed" else key): value for key, value in asdict(report).items()}


def _check_tol(tol, positive=False):
    """Raise ValueError unless ``tol`` is a finite number >= 0 (not a bool), > 0 if ``positive``."""
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0.0 <= tol < math.inf):
        raise ValueError(f"tol must be a finite nonnegative number, got {tol!r}")
    if positive and tol == 0:       # rounding keeps every residual above a zero target
        raise ValueError(f"tol must be positive for a residual target, got {tol!r}")


class _Failure(Exception):
    """First base of every domain failure, which ``momentctl`` reports with exit code 1."""


def _integer(value):
    """Whether ``value`` is a Python or numpy int; bools and floats are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _size(value, what, least=1):
    """``value`` as an int of at least ``least`` (1 or 0); bools and non-integers are rejected."""
    if not _integer(value) or value < least:
        raise ValueError(f"{what} must be a {'positive' if least else 'nonnegative'} integer")
    return int(value)


def _finite_entries(stack, label, wording="has a non-finite entry"):
    """``stack`` if each row ``stack[k]``, of any rank, is finite, else a ValueError.

    The error names the first bad row k as ``label(k)``, then ``wording``.
    ``label`` maps an index to the entry's one name, such as
    ``"moments[{}]".format``; it is called only on the failing path.  A row
    of eigenvalues that overflowed float64 leaves no scale to judge it by.
    """
    finite = np.isfinite(stack).all(axis=tuple(range(1, stack.ndim)))
    if not finite.all():
        raise ValueError(f"{label(int(np.argmin(finite)))} {wording}")
    return stack


def _hermitian_part(s):
    """S/2 + (S/2)^H over the last two axes: finite wherever S is.

    Halving is exact on normal-range entries, so there it is bit for bit
    (S + S^H)/2, whose sum overflows beyond ~9e307.
    """
    half = 0.5 * s
    return half + np.swapaxes(half, -1, -2).conj()


def _check_symmetric(stack, label):
    """S/2 per finite S of ``stack``; max|S - S^T| > INPUT_RTOL max(1, max|S|) raises.

    The ValueError names S as ``_finite_entries`` does.  Halved first, the
    difference stays finite near the float maximum, and on normal-range
    entries is bit for bit (S - S^T)/2.
    """
    half = 0.5 * stack
    scale = np.maximum(np.max(np.abs(stack), axis=(1, 2)), 1.0)
    asymmetry = np.max(np.abs(half - np.swapaxes(half, 1, 2)), axis=(1, 2))
    bad = np.flatnonzero(asymmetry > 0.5 * INPUT_RTOL * scale)
    if bad.size:
        raise ValueError(f"{label(int(bad[0]))} is not symmetric")
    return half


def _symmetrized(stack, label):
    """S/2 + (S/2)^T per S ``_check_symmetric`` admits: (S + S^T)/2 on normal-range entries."""
    half = _check_symmetric(stack, label)
    return half + np.swapaxes(half, 1, 2)


def _json_real(v):
    """A JSON number that is finite as a float (booleans are not numbers)."""
    if _integer(v):
        return abs(v) <= sys.float_info.max
    return isinstance(v, float) and math.isfinite(v)


def _json_fields(doc, what, *keys):
    """Check that ``doc`` is a JSON object holding every one of ``keys``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} document must be a JSON object")
    for key in keys:
        if key not in doc:
            raise ValueError(f"missing field '{key}'")


def _json_matrix(value, where, rows, cols):
    """A JSON rows x cols matrix of finite numbers as a float array."""
    if not isinstance(value, list) or len(value) != rows or any(
            not isinstance(row, list) or len(row) != cols for row in value):
        raise ValueError(f"{where} must be a {rows}x{cols} matrix")
    if not all(_json_real(v) for row in value for v in row):
        raise ValueError(f"{where} has a non-finite or non-numeric entry")
    return np.array(value, dtype=float)


def _json_matrices(value, where, rows, cols=None, empty=False):
    """A JSON list of rows x cols matrices as a float (len, rows, cols) array.

    ``cols`` defaults to ``rows``, and the list must be non-empty unless
    ``empty``.  Every error names the field path ``where`` or ``where[k]``.
    """
    cols = rows if cols is None else cols
    if not isinstance(value, list) or not (value or empty):
        kind = "list" if empty else "non-empty list"
        raise ValueError(f"field '{where}' must be a {kind} of {rows}x{cols} matrices")
    mats = [_json_matrix(m, f"{where}[{k}]", rows, cols) for k, m in enumerate(value)]
    return np.array(mats).reshape(len(mats), rows, cols)


def _json_floats(array):
    """Nested lists of floats: the JSON encoding of a matrix or a matrix stack."""
    return np.asarray(array, dtype=float).tolist()


def _as_coeff_array(coeffs):
    arr = np.asarray(coeffs)
    arr = _square_stack(arr[np.newaxis] if arr.ndim == 2 else arr, "coefficients")
    if np.iscomplexobj(arr):
        raise ValueError("matrix polynomial coefficients must be real")
    return arr.astype(np.float64)


class MatrixPoly:
    """Polynomial sum_k C_k x^k with real n-by-n coefficient matrices.

    Trailing (near-)zero coefficients are stripped on construction, so
    ``deg`` is the true degree; the zero polynomial has deg 0 and a single
    zero coefficient.  Instances are immutable.
    """

    def __init__(self, coeffs, symmetric=False):
        arr = _strip(_as_coeff_array(coeffs))
        if symmetric:
            bad = (arr != np.swapaxes(arr, 1, 2)).any(axis=(1, 2))     # NaN != NaN
            if bad.any():
                raise ValueError(f"coefficient {bad.argmax()} is not exactly symmetric")
        self._coeffs = _read_only(arr)
        self.symmetric = bool(symmetric)

    @property
    def coeffs(self):
        return self._coeffs

    @property
    def n(self):
        return self._coeffs.shape[1]

    @property
    def deg(self):
        return self._coeffs.shape[0] - 1

    @classmethod
    def zero(cls, n):
        return cls(np.zeros((1, n, n)))

    @classmethod
    def constant(cls, mat, symmetric=False):
        return cls(np.asarray(mat)[np.newaxis], symmetric=symmetric)

    @classmethod
    def from_scalar(cls, coeffs):
        """Scalar polynomial as a 1x1 matrix polynomial."""
        return cls(np.array([[[c]] for c in coeffs], dtype=float))

    def coeff(self, k):
        if 0 <= k <= self.deg:
            return self._coeffs[k]
        return np.zeros((self.n, self.n))

    def max_coeff_abs(self):
        return _maxabs(self._coeffs)

    def __call__(self, x):
        return np.array(_horner(self._coeffs, x))

    def __add__(self, other):
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        return MatrixPoly(_padded_sum([self._coeffs, other._coeffs]))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MatrixPoly(-np.array(self._coeffs))

    def __rmul__(self, scalar):
        if not isinstance(scalar, numbers.Real):
            return NotImplemented
        return MatrixPoly(self._coeffs * float(scalar))

    __mul__ = __rmul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"MatrixPoly(n={self.n}, deg={self.deg})"


def matmul(p, q):
    """Noncommutative coefficient convolution (P*Q)(x) = P(x) Q(x)."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    return MatrixPoly(_conv_stack(p.coeffs, q.coeffs))


def transpose_poly(p):
    """Coefficient-wise transpose; the adjoint for real coefficients."""
    return MatrixPoly(np.transpose(np.array(p.coeffs), (0, 2, 1)), symmetric=p.symmetric)


def _conv_stack(a, b):
    """Coefficient stack of A(x) B(x) for stacks (..., deg+1, rows, cols).

    The coefficient axis is third from last and leading axes broadcast, so
    one call multiplies a whole batch of matrix polynomials.  Products are
    accumulated in increasing order of A's coefficient index.
    """
    da, q = a.shape[-3], b.shape[-3]
    lead = np.broadcast_shapes(a.shape[:-3], b.shape[:-3])
    out = np.zeros(lead + (da + q - 1, a.shape[-2], b.shape[-1]))
    for i in range(da):
        out[..., i:i + q, :, :] += a[..., i:i + 1, :, :] @ b
    return out


def _horner(stack, x):
    """Values at x of coefficient stacks (..., deg+1, n, n) by Horner's rule.

    ``x`` broadcasts against the values, so ``_horner(p.coeffs,
    xs[:, None, None])`` evaluates one polynomial on a whole grid with the
    same elementwise operations as ``p(x)`` at each point.  The result may
    be a read-only view of ``stack``.
    """
    res = stack[..., -1, :, :]
    for k in range(stack.shape[-3] - 2, -1, -1):
        res = res * x + stack[..., k, :, :]
    if stack.shape[-3] == 1:    # a constant: no product has broadcast it against x
        res = np.broadcast_to(res, np.broadcast_shapes(res.shape, np.shape(x)))
    return res


def _spectra(h):
    """``eigvalsh`` of each matrix of the Hermitian stack h; a NaN row where h is not finite."""
    finite = np.isfinite(h).all(axis=(-2, -1))
    if finite.all():
        return np.linalg.eigvalsh(h)
    w = np.full(h.shape[:-1], np.nan)
    w[finite] = np.linalg.eigvalsh(h[finite])       # it may not converge on a non-finite entry
    return w


def _least_eigenvalue(values):
    """Least eigenvalue over a stack of matrices' hermitian parts, and its index.

    The first index wins a tie, and a NaN eigenvalue (from a value that
    overflowed) never counts as the least.
    """
    w = _spectra(_hermitian_part(values))[:, 0]
    w = np.where(np.isnan(w), np.inf, w)
    i = int(np.argmin(w))
    return w[i], i


def _least_on(f, a, b, shift):
    """Least eigenvalue of the stack F at the points deciding its sign on [a, b], and the point.

    F's values on the line are real symmetric or complex Hermitian.
    lambda_min(F(x)) + shift changes sign only at real roots of det G,
    G = F + shift*I: eigenvalues of the block companion of y^d G(x0 + 1/y)
    (Gohberg, Lancaster & Rodman, Matrix Polynomials, 1982), built in F's
    dtype, whose leading block G(x0) is invertible for x0 the
    best-conditioned of d + 2 Chebyshev points in [a, b] & [-1, 1].  F is
    evaluated at the real part of every root in [a, b], the finite ends,
    the midpoints and one point beyond each outer point: it dips below
    -shift on [a, b] exactly when the returned eigenvalue does, up to the
    eigensolvers' accuracy.  A zero leading block of F only adds roots at
    infinity.
    """
    n, d = f.shape[1], max(len(f) - 1, 1)       # a constant gets a zero x-coefficient
    g = np.concatenate([f, np.zeros((d + 1 - len(f), n, n), dtype=f.dtype)])
    g[0] += shift * np.eye(n)
    lo, hi = max(a, -1.0), min(b, 1.0)
    xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * (np.arange(d + 2) + 0.5) / (d + 2))
    with np.errstate(all="ignore"):
        w = np.abs(_spectra(_horner(g, xs[:, np.newaxis, np.newaxis])))
        x0 = xs[np.argmax(np.nan_to_num(w.min(axis=1) / w.max(axis=1)))]
        t = np.tensordot([[math.comb(j, k) * x0 ** (j - k) if j >= k else 0.0 for j in range(d + 1)]
                          for k in range(d + 1)], g, axes=1)       # G(x0 + y) = sum T_k y^k
        comp = np.eye(n * d, k=-n, dtype=g.dtype)
        try:
            comp[:n] = -np.linalg.solve(t[0], np.hstack(t[1:]))
            pts = np.append(x0 + (1 / np.linalg.eigvals(comp)).real, [a, b])
        except np.linalg.LinAlgError:       # G(x0) singular or overflowed
            pts = np.array([x0, a, b])
        pts = np.unique(pts[np.isfinite(pts) & (a <= pts) & (pts <= b)])
        pts = pts if pts.size else np.array([x0])
        xs = np.concatenate([pts, 0.5 * pts[1:] + 0.5 * pts[:-1],
                             np.clip([pts[0] - 1 - abs(pts[0]), pts[-1] + 1 + abs(pts[-1])], a, b)])
        worst, i = _least_eigenvalue(_horner(f, xs[:, np.newaxis, np.newaxis]))
    return worst, float(xs[i])


@lru_cache(maxsize=None)
def _binomial_rows(e, a, b):
    """Python-int rows k = 0..e: coefficients on y^0..y^e of (a0 + a1 y)^k (b0 + b1 y)^(e-k).

    The one binomial table, read by ``_line_weights`` and ``certificates``'
    trig and clearing weights; e = -1 gives no rows.
    """
    rows = [(1,)] if e >= 0 else []
    for _ in range(e):      # every row times b0 + b1 y, then the last one times a0 + a1 y
        rows = [tuple(f[0] * x + f[1] * y for x, y in zip(row + (0,), (0,) + row))
                for row, f in zip(rows + rows[-1:], [b] * len(rows) + [a])]
    return tuple(rows)


@lru_cache(maxsize=None)
def _line_weights(nh):
    """Read-only weights of row k on x^m in (1 + ix)^k (1 - ix)^(nh-k), k, m = 0..nh.

    Row k of ``_binomial_rows(nh, (1, 1), (1, -1))``, the Krawtchouk table
    ``certificates._trig_weights`` reads on the circle, with column m times
    i^m = (-1)^(m // 2) i^(m % 2), each rounded once.  They dehomogenize
    ``certificates``' line factors and, at nh = 2 band, give ``spectral``'s
    Cayley image (1 + x^2)^band u((1 + ix) / (1 - ix)).
    """
    signed = np.array([[(-1) ** (m // 2) * v for m, v in enumerate(row)]
                       for row in _binomial_rows(nh, (1, 1), (1, -1))], dtype=float)
    w = np.zeros(signed.shape, dtype=complex)
    w.real[:, 0::2] = signed[:, 0::2]
    w.imag[:, 1::2] = signed[:, 1::2]
    return _read_only(w)


def scalar_poly_mult(q, p):
    """Multiply a matrix polynomial by the scalar polynomial q."""
    q, c = list(q), p.coeffs
    out = np.zeros((max(1, len(q) + len(c) - 1),) + c.shape[1:])     # q = []: zero
    for j, w in enumerate(q):
        if w != 0:
            out[j:j + len(c)] += float(w) * c
    return MatrixPoly(out)


def matrixpoly_to_json(p):
    """JSON document {"n", "symmetric", "coeffs"} with coeffs[k] = C_k."""
    return {"n": p.n, "symmetric": bool(p.symmetric), "coeffs": _json_floats(p.coeffs)}


def matrixpoly_from_json(doc):
    _json_fields(doc, "matrix polynomial", "n", "coeffs")
    coeffs = _json_matrices(doc["coeffs"], "coeffs", _size(doc["n"], "field 'n'"))
    symmetric = doc.get("symmetric", False)
    if not isinstance(symmetric, bool):
        raise ValueError("field 'symmetric' must be a boolean")
    return MatrixPoly(coeffs, symmetric=symmetric)


class LaurentPoly:
    """Matrix Laurent polynomial sum_{|k|<=band} A_k z^k, float64 unless an A_k is not real."""

    def __init__(self, coeffs):
        arr = np.asarray(coeffs)        # copied: a real input is never made complex
        cplx = arr.dtype.kind == "c"
        arr = _square_stack(arr.astype(np.complex128 if cplx else np.float64), "coefficients")
        arr = arr.real.copy() if cplx and not arr.imag.any() else arr
        if arr.shape[0] % 2 == 0:
            raise ValueError("coefficient stack must have odd length 2*band+1")
        self._coeffs = _read_only(arr)

    @property
    def coeffs(self):
        return self._coeffs

    @property
    def n(self):
        return self._coeffs.shape[1]

    @property
    def band(self):
        return (self._coeffs.shape[0] - 1) // 2

    def coeff(self, k):
        """Coefficient A_k, for -band <= k <= band."""
        if abs(k) > self.band:
            return np.zeros((self.n, self.n), dtype=self._coeffs.dtype)
        return self._coeffs[k + self.band]

    def hermitian_defect(self):
        """max_k ||A_{-k} - A_k^H||, zero iff hermitian-valued on the circle."""
        # A_{-k} - A_k^H at every k: the entries at -k mirror those at k
        return _maxabs(self._coeffs[::-1] - np.swapaxes(self._coeffs, 1, 2).conj())

    def __repr__(self):
        return f"LaurentPoly(n={self.n}, band={self.band})"
