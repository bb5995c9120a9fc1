"""Moment sequences of symmetric matrices and block-Hankel PSD criteria.

A truncated sequence S_0, ..., S_D stands for the values L(x^p E_kl) of a
linear functional on matrix polynomials.  Positivity of L on g times the
hermitian squares, for a cone generator g, is equivalent to positive
semidefiniteness of the localizing block Hankels [(g S)_{i+j}] =
sum_k g_k [S_{i+j+k}], each [S_{i+j+k}] a view of the one block Hankel
[S_{i+j}] the sequence gathers on first use; with finite data only orders
2m + deg g <= D are machine-checkable, so every report lists the orders it
actually tested.
Each criterion tests its domain's generators in ``polymat.DOMAINS``, one
Hankel family each, keyed by coefficients.  Passing every testable order is
necessary for a representing measure with the matching support but, at
finite truncation, not sufficient.

Each order's Hankel of one generator is a leading principal submatrix of
its top-order Hankel, so by Cauchy interlacing the top order's least
eigenvalue bounds every order's from below.  A criterion passes at once
when every generator keeps least_top - margin >= -tol floor: the floor
max(1, max diag (gS)_0) is at most every order's scale, and the margin
(2 + tol) N eps max|H_top| (N the top Hankel's size) covers the rounding
of least_top and of each order's extreme eigenvalues.  Near or past the
threshold, or with no testable order, the report is built from every
order's eigenvalues instead; a Hankel that overflows float64 is a ValueError.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .polymat import (DOMAINS, _check_tol, _EPS, _finite_entries, _hermitian_part, _integer,
                      _json_fields, _json_floats, _json_matrices, _not_psd, _read_only,
                      _report_json, _size, _spectra, _square_stack, _symmetrized)

DEFAULT_PSD_TOL = 1e-9

_MOMENT = "moments[{}]".format      # a moment's one name, its JSON field path


class MomentSequence:
    """Finite sequence S_0, ..., S_D of symmetric real n-by-n matrices.

    The sequence is immutable, so it keeps the eigenvalues of each Hankel
    family once computed: the top order's on first use, each lower order's
    only when a criterion falls back to them.  Every criterion and
    ``recover``'s precondition judge those at their own tol.
    """

    def __init__(self, matrices):
        arr = np.asarray(matrices, dtype=np.float64)
        arr = _square_stack(arr[np.newaxis] if arr.ndim == 2 else arr, "moments")
        # stored exactly symmetric, so block Hankels come out bit-symmetric
        arr = _symmetrized(_finite_entries(arr, _MOMENT), _MOMENT)
        self._S = _read_only(arr)
        self._families, self._gather = {}, None

    def _family(self, key, g):
        """The ``_HankelFamily`` of generator coefficients ``g``, named ``key`` in its errors."""
        family = self._families.get(g)
        if family is None:
            family = self._families[g] = _HankelFamily(self, key, g)
        return family

    def _hankel(self, m, shift):
        """[S_{i+j+shift}]_{i,j<=m}, 2m + shift <= D, as a read-only view of one gather.

        The gather [S_{i+j}], block rows 0..ceil(D/2) and columns 0..floor(D/2), holds every S_p.
        """
        n = self.n
        if self._gather is None:
            rows, cols = np.arange((self.D + 1) // 2 + 1), np.arange(self.D // 2 + 1)
            blocks = self._S[rows[:, np.newaxis] + cols].transpose(0, 2, 1, 3)
            self._gather = _read_only(blocks.reshape(rows.size * n, cols.size * n))
        r, c = (shift + 1) // 2 * n, shift // 2 * n
        return self._gather[r:r + (m + 1) * n, c:c + (m + 1) * n]

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


class _HankelFamily:
    """Generator g's localizing block Hankel sum_i g_i [S_{j+k+i}]_{j,k} at its top order.

    Its eigenvalues are computed at once; order m's Hankel is its leading
    (m + 1) n square, whose eigenvalues ``extremes`` computes on first use.
    """

    def __init__(self, seq, key, g):
        self.top, self._n = (seq.D + 1 - len(g)) // 2, seq.n
        with np.errstate(over="ignore", invalid="ignore"):     # _spectrum reports an overflow
            self._h = _combine(g, lambda i: seq._hankel(self.top, i))
        self._w = self._extremes = None
        self.least, self.floor, self.unit = math.nan, 1.0, 0.0
        if self.top >= 0:
            self._w, top = _spectrum(self._h, key, "localizing Hankel")
            self.least = float(self._w[0])
            # (0, 0) is every order's block, and a largest eigenvalue >= any diagonal entry
            self.floor = max(1.0, float(np.max(np.diagonal(self._h[:self._n, :self._n]))))
            self.unit = len(self._h) * _EPS * top

    def passes_at_top(self, tol):
        """least_top - (2 + tol) unit >= -tol floor; never on a NaN, an inf or no testable order."""
        slack = self.least - (2.0 + tol) * self.unit
        return math.isfinite(slack) and slack >= -tol * self.floor

    def extremes(self):
        """(orders, least eigenvalues, largest eigenvalues) of every order 0..top."""
        if self._extremes is None:
            n, h = self._n, self._h
            w = [np.linalg.eigvalsh(h[:k, :k]) for k in range(n, len(h), n)]
            if self._w is not None:
                w.append(self._w)
            least = np.array([v[0] for v in w])
            self._extremes = (np.arange(self.top + 1), least, np.array([v[-1] for v in w]))
        return self._extremes


@dataclass
class PsdReport:
    """Outcome of a family of PSD tests over block-Hankel orders.

    ``min_eigenvalue`` is the least computed at any order, or, on a pass
    from the top orders alone, the least top-order eigenvalue: by
    interlacing the same minimum in exact arithmetic.
    """

    passed: bool
    min_eigenvalue: float
    tested_orders: list = field(default_factory=list)
    failing_order: int | None = None

    to_json = _report_json


def _combine(g, term):
    """sum_i g_i term(i) from the lowest nonzero g_i, so 1*S and S_m - S_{m+1} are exact."""
    terms = [c * term(i) for i, c in enumerate(g) if c]
    return sum(terms[1:], terms[0])


def _spectrum(h, key, what):
    """``eigvalsh`` of generator ``key``'s matrix ``h``, and max|h|.

    An entry or eigenvalue that overflowed float64 (no scale can judge it)
    is a ValueError naming the generator.
    """
    w = _finite_entries(_spectra(h[np.newaxis]), lambda _: f"generator {key}: its {what}",
                        "overflows float64")[0]
    return w, float(np.max(np.abs(h)))


def block_hankel(seq, m, shift):
    """Block matrix with (i, j) block S_{i+j+shift}, i, j = 0..m.

    Requires 2m + shift <= D; the output is exactly symmetric.
    """
    if not _integer(shift) or shift not in (0, 1, 2):
        raise ValueError("shift must be 0, 1 or 2")
    m = _size(m, "m", least=0)
    if 2 * m + shift > seq.D:
        raise ValueError(f"degree overflow: 2*{m}+{shift} exceeds D={seq.D}")
    return seq._hankel(m, shift).copy()


def _judge(orders, least, largest, tol):
    """Scale-aware PSD test: order orders[i] fails where ``_not_psd`` says so.

    The least eigenvalue reported is the first smallest one, as a running
    ``min`` from inf finds it, with the sign of a zero kept.
    """
    failing = orders[_not_psd(least, largest, tol)]
    return PsdReport(not failing.size, min([np.inf, *least.tolist()]) if least.size else 0.0,
                     sorted(set(orders.tolist())), min(failing.tolist(), default=None))


def _check(seq, domain, tol):
    _check_tol(tol)
    families = [seq._family(key, g) for key, g in DOMAINS[domain][1].items()]
    if all(f.passes_at_top(tol) for f in families):
        return PsdReport(True, min([np.inf, *(f.least for f in families)]),
                         list(range(max(f.top for f in families) + 1)))
    return _judge(*map(np.concatenate, zip(*(f.extremes() for f in families))), tol)


def check_hamburger(seq, tol=DEFAULT_PSD_TOL):
    """Necessary PSD tests for a representing measure supported in R: [S_{i+j}]."""
    return _check(seq, "line", tol)


def check_stieltjes(seq, tol=DEFAULT_PSD_TOL):
    """Necessary PSD tests for support in [0, inf): [S_{i+j}] and [S_{i+j+1}]."""
    return _check(seq, "halfline", tol)


def check_hausdorff(seq, tol=DEFAULT_PSD_TOL):
    """Necessary PSD tests for support in [0, 1].

    Tests the four families [S_{i+j}], [S_{i+j+1}], [S_{i+j} - S_{i+j+1}]
    and [S_{i+j+1} - S_{i+j+2}] at every admissible order.
    """
    if seq.D < 2:
        raise ValueError(f"degree too small: need D >= 2, got {seq.D}")
    return _check(seq, "interval", tol)


def operator_check(seq, operators, variant, tol=DEFAULT_PSD_TOL):
    """PSD test of the scalar matrix [L(g x^{i+j} A_i^T A_j)] for one tuple.

    ``variant``, a string, names the moment criterion, ``hamburger``,
    ``stieltjes`` or ``hausdorff`` (any case), whose generators g are tested
    on real n x n operators.  With T_k the Frobenius pairing
    [<S_{i+j+k}, A_i^T A_j>], the matrix of generator g is sum_k g_k T_k.
    """
    _check_tol(tol)
    if not isinstance(variant, str):
        raise ValueError(f"variant must be a string naming the criterion, got {variant!r}")
    variant = variant.lower()
    criteria = dict(DOMAINS.values())       # criterion -> its domain's generators
    if variant not in criteria:
        raise ValueError(f"unknown criterion '{variant}': expected one of {', '.join(criteria)}")
    gens = criteria[variant]
    ops = [np.asarray(a) for a in operators]
    if not ops:
        raise ValueError("operator tuple must be non-empty")
    for a in ops:
        if a.shape != (seq.n, seq.n):
            raise ValueError(f"operator shape {a.shape} does not match n={seq.n}")
        if np.iscomplexobj(a):
            raise ValueError("operators must be real")
    m = len(ops) - 1
    extra = max(map(len, gens.values())) - 1
    if 2 * m + extra > seq.D:
        raise ValueError(f"degree overflow: need 2*{m}+{extra} <= D={seq.D}")
    stack = _finite_entries(np.array(ops, dtype=float), "operator A_{}".format)

    # T_k[i, j] = <S_{i+j+k}, A_i^T A_j>, the blocks copied out of the sequence's Hankels
    blocks = np.array([seq._hankel(m, k).reshape(m + 1, seq.n, m + 1, seq.n).swapaxes(1, 2)
                       for k in range(extra + 1)])
    with np.errstate(over="ignore", invalid="ignore"):     # _spectrum reports an overflow
        t = _hermitian_part(np.sum(blocks * (np.swapaxes(stack, 1, 2)[:, np.newaxis] @ stack),
                                   axis=(-2, -1)))
        w = np.array([_spectrum(_combine(g, lambda k: t[k]), key, "pairing matrix")[0][[0, -1]]
                      for key, g in gens.items()])
    return _judge(np.full(len(gens), m), w[:, 0], w[:, 1], tol)


def momentsequence_to_json(seq):
    return {"n": seq.n, "moments": _json_floats(seq.S)}


def momentsequence_from_json(doc):
    _json_fields(doc, "moment sequence", "n", "moments")
    return MomentSequence(_json_matrices(doc["moments"], "moments", _size(doc["n"], "field 'n'")))
