"""Atomic operator-valued measures and the trace pairing.

Only finitely atomic measures are represented: a measure is a list of
(point, weight) atoms with symmetric PSD weight matrices, and the induced
functional is the trace pairing L(F) = sum_j trace(F(x_j) W_j).  A second
flavour stores, per atom, a positive linear map on matrices (Kraus form,
or a sampled-validated raw action) and integrates F through it.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .moments import MomentSequence
from .polymat import MatrixPoly, matmul, scalar_poly_mult, transpose_poly

MERGE_TOL = 1e-12
WEIGHT_PSD_TOL = 1e-10
AUDIT_TOL = 1e-9


class SupportViolation(ValueError):
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
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError("weight size n must be a positive integer")
        self._n = int(n)
        cleaned = []
        for idx, (x, w) in enumerate(atoms):
            w = np.asarray(w, dtype=float)
            if w.shape != (self._n, self._n):
                raise ValueError(f"atom {idx}: weight shape {w.shape}, expected {(n, n)}")
            scale = max(1.0, float(np.max(np.abs(w))))
            if np.max(np.abs(w - w.T)) > 1e-10 * scale:
                raise ValueError(f"atom {idx}: weight is not symmetric")
            w = 0.5 * (w + w.T)
            lam = np.linalg.eigvalsh(w)
            if lam[0] < -WEIGHT_PSD_TOL * max(1.0, lam[-1]):
                raise ValueError(f"atom {idx}: weight has eigenvalue {lam[0]:.3e} < 0")
            cleaned.append((float(x), w))
        cleaned.sort(key=lambda a: a[0])
        merged = []
        for x, w in cleaned:
            if merged and abs(x - merged[-1][0]) < MERGE_TOL:
                merged[-1] = (merged[-1][0], merged[-1][1] + w)
            else:
                merged.append((x, w))
        self._atoms = tuple((x, _frozen(w)) for x, w in merged)

    @property
    def n(self):
        return self._n

    @property
    def atoms(self):
        return self._atoms

    def total_mass(self):
        out = np.zeros((self._n, self._n))
        for _, w in self._atoms:
            out += w
        return out

    def __len__(self):
        return len(self._atoms)

    def __repr__(self):
        return f"AtomicMatrixMeasure(n={self._n}, atoms={len(self._atoms)})"


def _frozen(arr):
    arr = np.array(arr)
    arr.setflags(write=False)
    return arr


def integrate_trace(f, mu):
    """Trace pairing sum_j trace(F(x_j) W_j)."""
    if f.n != mu.n:
        raise ValueError(f"size mismatch: polynomial is {f.n}x{f.n}, measure is {mu.n}x{mu.n}")
    ff = f.as_float()
    return float(sum(np.trace(ff(x) @ w) for x, w in mu.atoms))


class PositiveMapMeasure:
    """Atoms (point, positive map on matrices), maps in Kraus or raw form."""

    def __init__(self, h_dim, k_dim, atoms):
        self.h_dim = int(h_dim)
        self.k_dim = int(k_dim)
        self._atoms = []
        for idx, (x, kraus) in enumerate(atoms):
            mats = [np.asarray(v, dtype=float) for v in kraus]
            for v in mats:
                if v.shape != (self.h_dim, self.k_dim):
                    raise ValueError(
                        f"atom {idx}: Kraus operator shape {v.shape}, "
                        f"expected {(self.h_dim, self.k_dim)}")
            self._atoms.append((float(x), tuple(_frozen(v) for v in mats)))
        self._raw = {}

    @classmethod
    def from_linear(cls, h_dim, k_dim, atoms, validation_samples=10, seed=0):
        """Raw positive maps, validated on random PSD samples.

        Weaker validation than the Kraus form: positivity is only checked
        by sampling, so non-completely-positive maps are admitted.
        """
        out = cls(h_dim, k_dim, [])
        rng = np.random.default_rng(seed)
        for idx, (x, action) in enumerate(atoms):
            fn = _as_action(action, h_dim, k_dim)
            for _ in range(validation_samples):
                g = rng.standard_normal((h_dim, h_dim))
                a = g @ g.T
                img = fn(a)
                lam = np.linalg.eigvalsh(0.5 * (img + img.T))
                if lam[0] < -AUDIT_TOL * max(1.0, abs(lam[-1])):
                    raise ValueError(f"atom {idx}: map sends a PSD sample to "
                                     f"eigenvalue {lam[0]:.3e} < 0")
            out._atoms.append((float(x), None))
            out._raw[len(out._atoms) - 1] = fn
        return out

    @property
    def atoms(self):
        return tuple(self._atoms)

    def apply(self, index, a):
        x, kraus = self._atoms[index]
        if kraus is None:
            return self._raw[index](a)
        out = np.zeros((self.k_dim, self.k_dim))
        for v in kraus:
            out += v.T @ a @ v
        return out


def _as_action(action, h_dim, k_dim):
    if callable(action):
        return action
    sup = np.asarray(action, dtype=float)
    if sup.shape != (k_dim * k_dim, h_dim * h_dim):
        raise ValueError(f"superoperator shape {sup.shape}, "
                         f"expected {(k_dim * k_dim, h_dim * h_dim)}")
    return lambda a: (sup @ a.reshape(-1)).reshape(k_dim, k_dim)


def integrate_map(f, m):
    """sum over atoms of Phi_x(F(x)); linear in F, k_dim x k_dim valued."""
    if f.n != m.h_dim:
        raise ValueError(f"size mismatch: polynomial is {f.n}x{f.n}, maps act on "
                         f"{m.h_dim}x{m.h_dim}")
    ff = f.as_float()
    out = np.zeros((m.k_dim, m.k_dim))
    for idx, (x, _) in enumerate(m.atoms):
        out += m.apply(idx, ff(x))
    return out


def forward_moments(mu, degree):
    """Moment sequence S_p = sum_j x_j^p W_j for p = 0..degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n = mu.n
    mats = np.zeros((degree + 1, n, n))
    for x, w in mu.atoms:
        xp = 1.0
        for p in range(degree + 1):
            mats[p] += xp * w
            xp *= x
    return MomentSequence(mats)


@dataclass
class AuditReport:
    """Outcome of randomized positivity trials against a generator set."""

    passed: bool
    n_trials: int
    min_margin: float
    violations: list = field(default_factory=list)

    def to_json(self):
        return {
            "pass": bool(self.passed),
            "n_trials": int(self.n_trials),
            "min_margin": float(self.min_margin),
            "violations": list(self.violations),
        }


def positivity_audit(mu, generators, trials, seed=0):
    """Randomized check that L(g * A^T A) >= 0 for g in the generator set.

    Generators are scalar polynomials given as coefficient sequences
    (constant term first).  The support precondition g(x_j) >= 0 at every
    atom is checked first and a violation raises SupportViolation naming
    the most negative (atom, generator) pair.  Each trial then draws a
    generator (or the constant 1) and a random matrix polynomial A of
    degree <= 3 and checks the trace pairing against -1e-9 * scale, where
    scale sums |coefficients of g*A^T A| at |x_j| against |W_j|.
    """
    gens = [np.asarray(list(g) or [0.0], dtype=float) for g in generators]
    worst = None
    for gi, g in enumerate(gens):
        g_scale = max(1.0, float(np.max(np.abs(g))))
        for ai, (x, _) in enumerate(mu.atoms):
            val = float(npoly.polyval(x, g))
            bound = 1e-12 * g_scale * max(1.0, abs(x)) ** max(len(g) - 1, 0)
            if val < -bound and (worst is None or val < worst[3]):
                worst = (ai, x, gi, val)
    if worst is not None:
        raise SupportViolation(*worst)

    one = np.array([1.0])
    children = np.random.SeedSequence(seed).spawn(max(int(trials), 0))
    violations = []
    min_margin = np.inf
    for t, child in enumerate(children):
        rng = np.random.default_rng(child)
        pick = int(rng.integers(-1, len(gens))) if gens else -1
        g = one if pick < 0 else gens[pick]
        deg = int(rng.integers(0, 4))
        a = MatrixPoly(rng.standard_normal((deg + 1, mu.n, mu.n)))
        q = matmul(transpose_poly(a), a)
        fg = scalar_poly_mult(g, q)
        val = integrate_trace(fg, mu)
        # rounding scale: the magnitude of the terms that evaluating g*q at
        # each atom and pairing it with W actually sums
        abs_fg = np.abs(fg.as_float().coeffs)
        scale = sum(float(np.sum(npoly.polyval(abs(x), abs_fg) * np.abs(w).T))
                    for x, w in mu.atoms)
        margin = val + AUDIT_TOL * max(1.0, scale)
        min_margin = min(min_margin, margin)
        if val < -AUDIT_TOL * max(1.0, scale):
            violations.append({"trial": t, "generator": pick, "value": val})
    if not children:
        min_margin = 0.0
    return AuditReport(not violations, len(children), float(min_margin), violations)


def measure_to_json(mu):
    return {
        "n": mu.n,
        "atoms": [{"x": float(x), "W": [[float(v) for v in row] for row in w]}
                  for x, w in mu.atoms],
    }


def _measure_doc(doc, what, dims, matrix_field):
    """Shared checks of a measure document; returns its dimensions and atoms.

    The document must be an object whose ``dims`` fields are positive
    integers and whose ``atoms`` are objects with a finite ``x`` and a
    ``matrix_field``; the caller checks the matrices themselves.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} document must be a JSON object")
    for key in (*dims, "atoms"):
        if key not in doc:
            raise ValueError(f"missing field '{key}'")
    for key in dims:
        if not isinstance(doc[key], int) or doc[key] < 1:
            raise ValueError(f"field '{key}' must be a positive integer")
    atoms = doc["atoms"]
    if not isinstance(atoms, list):
        raise ValueError("field 'atoms' must be a list")
    for idx, atom in enumerate(atoms):
        if not isinstance(atom, dict) or "x" not in atom or matrix_field not in atom:
            raise ValueError(f"atoms[{idx}] must carry fields 'x' and '{matrix_field}'")
        if not isinstance(atom["x"], (int, float)) or not np.isfinite(atom["x"]):
            raise ValueError(f"atoms[{idx}].x must be a finite number")
    return [doc[key] for key in dims], atoms


def measure_from_json(doc):
    (n,), atoms = _measure_doc(doc, "measure", ("n",), "W")
    parsed = []
    for idx, atom in enumerate(atoms):
        w = atom["W"]
        if not isinstance(w, list) or len(w) != n or any(
                not isinstance(row, list) or len(row) != n for row in w):
            raise ValueError(f"atoms[{idx}].W must be an {n}x{n} matrix")
        for row in w:
            for v in row:
                if not isinstance(v, (int, float)) or not np.isfinite(v):
                    raise ValueError(f"atoms[{idx}].W has a non-finite or non-numeric entry")
        parsed.append((float(atom["x"]), np.array(w, dtype=float)))
    return AtomicMatrixMeasure(n, parsed)


def map_measure_to_json(m):
    atoms = []
    for idx, (x, kraus) in enumerate(m.atoms):
        if kraus is None:
            raise ValueError(f"atom {idx} holds a raw map and cannot be serialized")
        atoms.append({"x": float(x),
                      "kraus": [[[float(v) for v in row] for row in k] for k in kraus]})
    return {"h_dim": m.h_dim, "k_dim": m.k_dim, "atoms": atoms}


def map_measure_from_json(doc):
    (h_dim, k_dim), atoms = _measure_doc(doc, "map measure", ("h_dim", "k_dim"), "kraus")
    parsed = []
    for idx, atom in enumerate(atoms):
        kraus = atom["kraus"]
        if not isinstance(kraus, list):
            raise ValueError(f"atoms[{idx}].kraus must be a list of matrices")
        try:
            mats = [np.array(k, dtype=float) for k in kraus]
            numeric = all(np.all(np.isfinite(k)) for k in mats)
        except (TypeError, ValueError):
            numeric = False
        if not numeric:
            raise ValueError(f"atoms[{idx}].kraus has a non-finite or non-numeric entry")
        parsed.append((float(atom["x"]), mats))
    return PositiveMapMeasure(h_dim, k_dim, parsed)
