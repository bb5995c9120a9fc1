"""Atomic operator-valued measures and the trace pairing.

Only finitely atomic measures are represented: a measure is a list of
(point, weight) atoms with symmetric PSD weight matrices, and the induced
functional is the trace pairing L(F) = sum_j trace(F(x_j) W_j).  A second
flavour stores, per atom, a completely positive map on matrices as Kraus
operators and integrates F through it.  A map given as a superoperator is
admitted only when its Choi matrix is PSD (Choi's theorem), which proves
complete positivity and yields the Kraus operators; a positive map that is
not completely positive, such as the transpose, is rejected.
"""

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .moments import MomentSequence
from .polymat import (_Failure, _finite_entries, _hermitian_part, _horner, _json_fields,
                      _json_floats, _json_matrices, _json_matrix, _json_real, _not_psd, _read_only,
                      _report_json, _scale, _size, _symmetrized, _weighted_sum)

MERGE_TOL = 1e-12
WEIGHT_PSD_TOL = 1e-10
AUDIT_TOL = 1e-9
_WEIGHT = "atoms[{}].W".format      # a weight's one name, its JSON field path
_OVERFLOW = "has an eigenvalue that overflows float64"


class SupportViolation(_Failure, ValueError):
    """A generator is negative at an atom: the measure leaves the constraint set."""

    def __init__(self, atom_index, point, generator_index, value):
        self.atom_index = atom_index
        self.point = point
        self.generator_index = generator_index
        self.value = value
        super().__init__(
            f"generator {generator_index} takes value {value:.6g} < 0 "
            f"at atom {atom_index} (x={point:.6g})")


class AtomicMatrixMeasure:
    """Finitely many (point, symmetric PSD weight) atoms of a common size."""

    def __init__(self, n, atoms):
        self._n = n = _size(n, "weight size n")
        points, weights = [], []
        for idx, (x, w) in enumerate(atoms):
            x = _finite_point(idx, x)
            w = np.asarray(w, dtype=float)
            if w.shape != (n, n):
                raise ValueError(f"{_WEIGHT(idx)} has shape {w.shape}, expected {(n, n)}")
            points.append(x)
            weights.append(w)
        w = np.array(weights).reshape(len(weights), n, n)
        sym = _symmetrized(_finite_entries(w, _WEIGHT), _WEIGHT, 1e-10)
        # atoms closer than MERGE_TOL merge into one; first[k] is the least
        # input index of merged atom k
        merged, first = [], []
        for idx in sorted(range(len(points)), key=points.__getitem__):
            if merged and abs(points[idx] - merged[-1][0]) < MERGE_TOL:
                with np.errstate(over="ignore"):    # a sum that overflows is rejected below
                    merged[-1] = (merged[-1][0], merged[-1][1] + sym[idx])
                first[-1] = min(first[-1], idx)
            else:
                merged.append((points[idx], sym[idx]))
                first.append(idx)

        # every input weight and every merged weight must be finite, with a finite
        # spectrum, and PSD; a merged weight is named by its least input index
        def name(j):    # weight j of the tested stack: the inputs, then any merged weights
            if j < len(points):
                return _WEIGHT(j)
            return f"{_WEIGHT(first[j - len(points)])} merged with nearby atoms"

        tested = sym
        if len(merged) < len(points):
            tested = _finite_entries(np.concatenate([sym, [w for _, w in merged]]), name)
        lam = _finite_entries(np.linalg.eigvalsh(tested), name, _OVERFLOW)
        bad = np.flatnonzero(_not_psd(lam[:, 0], lam[:, -1], WEIGHT_PSD_TOL))
        if bad.size:
            j = int(bad[0])
            raise ValueError(f"{name(j)} has eigenvalue {lam[j, 0]:.3e} < 0")
        self._atoms = tuple((x, _read_only(np.array(w))) for x, w in merged)

    @classmethod
    def _from_psd(cls, n, points, weights):
        """A measure on sorted points at least MERGE_TOL apart with symmetric PSD weights.

        ``weights`` is an (atoms, n, n) array.  Only finiteness is checked,
        with the constructor's messages; nothing is sorted or merged.
        """
        mu = cls.__new__(cls)
        mu._n = n
        points = [_finite_point(idx, x) for idx, x in enumerate(points)]
        mu._atoms = tuple((x, _read_only(np.array(w)))
                          for x, w in zip(points, _finite_entries(weights, _WEIGHT)))
        return mu

    @property
    def n(self):
        return self._n

    @property
    def atoms(self):
        return self._atoms

    def total_mass(self):
        return sum((w for _, w in self._atoms), np.zeros((self._n, self._n)))

    def __len__(self):
        return len(self._atoms)

    def __repr__(self):
        return f"AtomicMatrixMeasure(n={self._n}, atoms={len(self._atoms)})"


def _finite_point(idx, x):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"atom {idx}: point {x} is not finite")
    return x


def integrate_trace(f, mu):
    """Trace pairing sum_j trace(F(x_j) W_j); a sum that overflows is a ValueError."""
    if f.n != mu.n:
        raise ValueError(f"size mismatch: polynomial is {f.n}x{f.n}, measure is {mu.n}x{mu.n}")
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):     # _finite reports an overflow
        for idx, (x, w) in enumerate(mu.atoms):
            total = _finite(idx, x, total + np.trace(f(x) @ w))
    return float(total)


def _finite(idx, x, total):
    """``total``, an integral's partial sum through atom ``idx``, if it did not overflow."""
    if not np.isfinite(total).all():
        raise ValueError(f"atom {idx} at x={x:.6g}: the integral overflows float64 there")
    return total


class PositiveMapMeasure:
    """Atoms (point, map A -> sum_t V_t^T A V_t given by h_dim x k_dim Kraus operators V_t)."""

    def __init__(self, h_dim, k_dim, atoms):
        self.h_dim = _size(h_dim, "h_dim")
        self.k_dim = _size(k_dim, "k_dim")
        self._atoms = []
        for idx, (x, kraus) in enumerate(atoms):
            x = _finite_point(idx, x)
            mats = [np.asarray(v, dtype=float) for v in kraus]
            for v in mats:
                if v.shape != (self.h_dim, self.k_dim) or not np.isfinite(v).all():
                    raise ValueError(f"atom {idx}: Kraus operator of shape {v.shape} must be "
                                     f"a finite {self.h_dim}x{self.k_dim} matrix")
            self._atoms.append((x, tuple(_read_only(np.array(v)) for v in mats)))

    @classmethod
    def from_linear(cls, h_dim, k_dim, atoms):
        """Maps given as superoperators, admitted only where complete positivity is proven.

        A map is a finite real (k_dim^2, h_dim^2) matrix S on row-major vec(A).
        By Choi's theorem it is completely positive exactly when its Choi matrix
        C[(a, p), (b, q)] = Phi(E_ab)[p, q] is PSD.  The Choi matrices are the
        weights ``atoms[j].W`` of one ``AtomicMatrixMeasure`` of size h_dim k_dim,
        whose weight check admits them, sorts the atoms by x and merges them
        within ``MERGE_TOL``; each C = sum_t l_t v_t v_t^T gives Kraus operators
        sqrt(l_t) v_t.reshape(h_dim, k_dim), l_t > 0.  The transpose, positive but
        not completely positive, is rejected; on symmetric F it is Kraus V = I.
        """
        h, k = _size(h_dim, "h_dim"), _size(k_dim, "k_dim")
        choi = []
        for idx, (x, sup) in enumerate(atoms):
            sup = np.asarray(sup)
            if (sup.shape != (k * k, h * h) or sup.dtype.kind not in "biuf"
                    or not np.isfinite(sup).all()):
                raise ValueError(f"atom {idx}: superoperator of shape {sup.shape} must be "
                                 f"a finite real {k * k}x{h * h} matrix")
            choi.append((x, sup.astype(float).reshape(k, k, h, h).transpose(2, 0, 3, 1)))
        mu = AtomicMatrixMeasure(h * k, [(x, c.reshape(h * k, -1)) for x, c in choi])
        lam, vec = np.linalg.eigh(np.array([w for _, w in mu.atoms]).reshape(-1, h * k, h * k))
        return cls(h, k, [(x, (v[:, l > 0.0] * np.sqrt(l[l > 0.0])).T.reshape(-1, h, k))
                          for (x, _), l, v in zip(mu.atoms, lam, vec)])

    @property
    def atoms(self):
        return tuple(self._atoms)

    def apply(self, index, a):
        out = np.zeros((self.k_dim, self.k_dim))
        for v in self._atoms[index][1]:
            out += v.T @ a @ v
        return out


def integrate_map(f, m):
    """sum over atoms of Phi_x(F(x)), k_dim x k_dim; a sum that overflows is a ValueError."""
    if f.n != m.h_dim:
        raise ValueError(f"size mismatch: polynomial is {f.n}x{f.n}, maps act on "
                         f"{m.h_dim}x{m.h_dim}")
    out = np.zeros((m.k_dim, m.k_dim))
    with np.errstate(over="ignore", invalid="ignore"):     # _finite reports an overflow
        for idx, (x, _) in enumerate(m.atoms):
            out = _finite(idx, x, out + m.apply(idx, f(x)))
    return out


def forward_moments(mu, degree):
    """Moment sequence S_p = sum_j x_j^p W_j, p = 0..degree; an overflow is a ValueError."""
    degree = _size(degree, "degree", least=0)
    # column j of the chain holds x_j^p, p = 0..degree; cumprod multiplies in
    # sequence, as the running product x^p = x^(p-1) * x
    chain = np.ones((degree + 1, len(mu.atoms)))
    chain[1:] = [x for x, _ in mu.atoms]
    weights = np.array([w for _, w in mu.atoms]).reshape(-1, mu.n, mu.n)
    with np.errstate(over="ignore", invalid="ignore"):     # MomentSequence reports an overflow
        mats = _weighted_sum(np.cumprod(chain, axis=0).T, weights)
    return MomentSequence(mats)


@dataclass
class AuditReport:
    """Outcome of the exact module-positivity audit of an atomic measure.

    ``violations`` holds ``{"atom", "generator", "value"}`` for each pair whose
    least eigenvalue of g(x_j) W_j (generator -1: the constant 1) is below its
    tolerance; ``min_margin`` is the least eigenvalue plus tolerance (0.0 if no atoms).
    """

    passed: bool
    min_margin: float
    violations: list = field(default_factory=list)

    to_json = _report_json


def positivity_audit(mu, generators, trials, seed=0):
    """Exact check that L(g * A^T A) >= 0 for every A and g in {1} u generators.

    Generators are scalar polynomials given as finite real coefficient
    sequences (constant term first); anything else, such as a string or a
    NaN coefficient, is a ValueError naming the generator.  The support
    precondition g(x_j) >= 0 at every atom is checked first and a violation
    raises SupportViolation naming the most negative (atom, generator) pair.
    At distinct atoms, module positivity is then exactly g(x_j) W_j PSD for
    every pair (take A a Lagrange interpolant vanishing at the other atoms):
    the least eigenvalue of g(x_j) sym(W_j) is judged against ``AUDIT_TOL``
    times len(g) * max(1, max|g_i|) * max(1, |x_j|)^deg g * max(1, ||W_j||_2);
    an atom where the product of the first three overflows float64 is a
    ValueError naming it, and so is a weight ``atoms[j].W`` with a non-finite
    entry or an eigenvalue that overflows float64.  ``trials`` and ``seed``
    are ignored, as nothing is drawn; ``trials`` must be a nonnegative integer.
    """
    _size(trials, "trials", least=0)
    gens = [_generator(gi, g) for gi, g in enumerate(generators)]
    # value and size of the constant 1 (row 0) and each generator at each atom
    g_at = np.ones((len(gens) + 1, len(mu.atoms)))
    size = np.ones(g_at.shape)
    worst = None
    for gi, g in enumerate(gens):
        g_scale = max(1.0, float(np.max(np.abs(g))))
        for ai, (x, _) in enumerate(mu.atoms):
            try:
                power = max(1.0, abs(x)) ** max(len(g) - 1, 0)
            except OverflowError:
                power = math.inf
            g_size = len(g) * g_scale * power       # bounds |g(x)| and Horner's steps
            if not math.isfinite(g_size):
                raise ValueError(f"atom {ai} at x={x:.6g}: generator {gi} of degree "
                                 f"{len(g) - 1} overflows float64 there")
            val = float(_horner(g[:, np.newaxis, np.newaxis], x)[0, 0])
            bound = 1e-12 * g_scale * power
            g_at[gi + 1, ai], size[gi + 1, ai] = val, g_size
            if val < -bound and (worst is None or val < worst[3]):
                worst = (ai, x, gi, val)
    if worst is not None:
        raise SupportViolation(*worst)

    w = np.array([w for _, w in mu.atoms], dtype=float).reshape(-1, mu.n, mu.n)
    lam = _finite_entries(np.linalg.eigvalsh(_hermitian_part(_finite_entries(w, _WEIGHT))),
                          _WEIGHT, _OVERFLOW)
    least, largest = lam[:, 0], lam[:, -1]
    # least eigenvalue of g(x_j) W_j, and its tolerance; a product that overflows
    # to inf is PSD by a wide margin
    with np.errstate(over="ignore"):
        value = g_at * np.where(g_at >= 0.0, least, largest)
        margin = value + AUDIT_TOL * size * _scale(least, largest)
    violations = [{"atom": int(ai), "generator": int(gi) - 1, "value": float(value[gi, ai])}
                  for ai, gi in zip(*np.nonzero(margin.T < 0.0))]
    min_margin = float(np.min(margin)) if margin.size else 0.0
    return AuditReport(not violations, min_margin, violations)


def _generator(gi, g):
    """Coefficients of generator ``gi`` as a 1-D float array, [0.0] for an empty one."""
    with contextlib.suppress(TypeError, ValueError):
        arr = np.asarray(list(g) or [0.0], dtype=float)
        if arr.ndim == 1 and np.isfinite(arr).all() and not isinstance(g, (str, bytes)):
            return arr
    raise ValueError(f"generator {gi} must be a sequence of finite real coefficients")


def measure_to_json(mu):
    return {"n": mu.n, "atoms": [{"x": float(x), "W": _json_floats(w)} for x, w in mu.atoms]}


def _measure_doc(doc, what, dims, matrix_field):
    """Dimensions and atoms of a measure document, atoms as (x, field value) pairs.

    The document must be an object whose ``dims`` fields are positive
    integers and whose ``atoms`` are objects with a finite ``x`` and a
    ``matrix_field``; the caller decodes the field's matrices.
    """
    _json_fields(doc, what, *dims, "atoms")
    sizes = [_size(doc[key], f"field '{key}'") for key in dims]
    atoms = doc["atoms"]
    if not isinstance(atoms, list):
        raise ValueError("field 'atoms' must be a list")
    for idx, atom in enumerate(atoms):
        if not isinstance(atom, dict) or "x" not in atom or matrix_field not in atom:
            raise ValueError(f"atoms[{idx}] must carry fields 'x' and '{matrix_field}'")
        if not _json_real(atom["x"]):
            raise ValueError(f"atoms[{idx}].x must be a finite number")
    return sizes, [(float(atom["x"]), atom[matrix_field]) for atom in atoms]


def measure_from_json(doc):
    (n,), atoms = _measure_doc(doc, "measure", ("n",), "W")
    return AtomicMatrixMeasure(n, [(x, _json_matrix(w, _WEIGHT(idx), n, n))
                                   for idx, (x, w) in enumerate(atoms)])


def map_measure_to_json(m):
    return {"h_dim": m.h_dim, "k_dim": m.k_dim,
            "atoms": [{"x": float(x), "kraus": _json_floats(kraus)} for x, kraus in m.atoms]}


def map_measure_from_json(doc):
    (h_dim, k_dim), atoms = _measure_doc(doc, "map measure", ("h_dim", "k_dim"), "kraus")
    return PositiveMapMeasure(h_dim, k_dim, [
        (x, _json_matrices(kraus, f"atoms[{idx}].kraus", h_dim, k_dim, empty=True))
        for idx, (x, kraus) in enumerate(atoms)])
