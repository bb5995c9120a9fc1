"""Atomic operator-valued measures and the trace pairing.

Only finitely atomic measures are represented: a measure is a list of
(point, weight) atoms with symmetric PSD weight matrices, and the induced
functional is the trace pairing L(F) = sum_j trace(F(x_j) W_j).  A second
flavour stores, per atom, a positive linear map on matrices (Kraus form,
or a sampled-validated raw action) and integrates F through it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .moments import MomentSequence
from .polymat import (_EntryError, _conv_stack, _horner, _json_fields, _json_floats,
                      _json_matrices, _json_matrix, _json_real, _json_size)

MERGE_TOL = 1e-12
WEIGHT_PSD_TOL = 1e-10
AUDIT_TOL = 1e-9
# Randomized trials are drawn and reduced this many at once, from one
# generator per block, which bounds the padded coefficient stacks whatever
# the trial count.
TRIAL_BLOCK = 256


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
        self._build(n, atoms, checked=True)

    @classmethod
    def _from_psd(cls, n, atoms):
        """A measure on weights symmetric PSD by construction: no symmetry or eigenvalue check."""
        mu = cls.__new__(cls)
        mu._build(n, atoms, checked=False)
        return mu

    def _build(self, n, atoms, checked):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError("weight size n must be a positive integer")
        self._n = int(n)
        points, weights = [], []
        for idx, (x, w) in enumerate(atoms):
            x = float(x)
            if not math.isfinite(x):
                raise ValueError(f"atom {idx}: point {x} is not finite")
            w = np.asarray(w, dtype=float)
            if w.shape != (self._n, self._n):
                raise _EntryError(idx, f"atom {idx}: weight",
                                  f"shape {w.shape}, expected {(n, n)}")
            points.append(x)
            weights.append(w)
        w = np.array(weights).reshape(len(weights), self._n, self._n)
        wt = np.transpose(w, (0, 2, 1))
        bad = np.flatnonzero(~np.isfinite(w).all(axis=(1, 2)))
        if bad.size:
            idx = int(bad[0])
            raise _EntryError(idx, f"atom {idx}: weight", "has a non-finite entry")
        sym = 0.5 * (w + wt)
        if checked:
            scale = np.maximum(1.0, np.max(np.abs(w), axis=(1, 2)))
            bad = np.flatnonzero(np.max(np.abs(w - wt), axis=(1, 2)) > 1e-10 * scale)
            if bad.size:
                idx = int(bad[0])
                raise _EntryError(idx, f"atom {idx}: weight", "is not symmetric")
            lam = np.linalg.eigvalsh(sym)
            bad = np.flatnonzero(lam[:, 0] < -WEIGHT_PSD_TOL * np.maximum(1.0, lam[:, -1]))
            if bad.size:
                idx = int(bad[0])
                raise _EntryError(idx, f"atom {idx}: weight",
                                  f"has eigenvalue {lam[idx, 0]:.3e} < 0")
        merged = []
        for x, w in sorted(zip(points, sym), key=lambda a: a[0]):
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
        return sum((w for _, w in self._atoms), np.zeros((self._n, self._n)))

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
    return float(sum(np.trace(f(x) @ w) for x, w in mu.atoms))


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
    out = np.zeros((m.k_dim, m.k_dim))
    for idx, (x, _) in enumerate(m.atoms):
        out += m.apply(idx, f(x))
    return out


def forward_moments(mu, degree):
    """Moment sequence S_p = sum_j x_j^p W_j for p = 0..degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n = mu.n
    mats = np.zeros((degree + 1, n, n))
    for x, w in mu.atoms:
        # cumprod multiplies in sequence, as the running product x^p = x^(p-1) * x
        powers = np.cumprod(np.concatenate(([1.0], np.full(degree, x))))
        mats += powers[:, np.newaxis, np.newaxis] * w
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


def _audit_block(rng, size, n, n_gens):
    """The random draws of ``size`` audit trials, as (picks, deg, a).

    Drawn in this order: ``picks`` uniform on -1..n_gens-1 (-1 picks the
    constant 1), ``deg`` uniform on 0..3, then four standard normal n x n
    coefficients of A per trial, those above its ``deg`` zeroed.
    """
    picks = rng.integers(-1, n_gens, size)
    deg = rng.integers(0, 4, size)
    a = rng.standard_normal((size, 4, n, n))
    a[np.arange(4) > deg[:, np.newaxis]] = 0.0
    return picks, deg, a


def positivity_audit(mu, generators, trials, seed=0):
    """Randomized check that L(g * A^T A) >= 0 for g in the generator set.

    Generators are scalar polynomials given as coefficient sequences
    (constant term first).  The support precondition g(x_j) >= 0 at every
    atom is checked first and a violation raises SupportViolation naming
    the most negative (atom, generator) pair.  Each trial then draws a
    generator (or the constant 1) and a random matrix polynomial A of
    degree <= 3 and checks the trace pairing against -1e-9 * scale, where
    scale sums |coefficients of g*A^T A| at |x_j| against |W_j|.

    Trials run in blocks of ``TRIAL_BLOCK``: block b draws all its trials
    at once (``_audit_block``) from one generator seeded by the b-th child
    of ``SeedSequence(seed)``, so a complete block's trials do not depend
    on the trial count.  The arithmetic runs on the block's zero-padded
    coefficient stacks, in the same order of operations as the per-trial
    ``MatrixPoly`` products.  ``trials`` must be nonnegative.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    gens = [np.asarray(list(g) or [0.0], dtype=float) for g in generators]
    worst = None
    for gi, g in enumerate(gens):
        g_scale = max(1.0, float(np.max(np.abs(g))))
        for ai, (x, _) in enumerate(mu.atoms):
            val = float(_horner(g[:, np.newaxis, np.newaxis], x)[0, 0])
            bound = 1e-12 * g_scale * max(1.0, abs(x)) ** max(len(g) - 1, 0)
            if val < -bound and (worst is None or val < worst[3]):
                worst = (ai, x, gi, val)
    if worst is not None:
        raise SupportViolation(*worst)

    # row pick + 1 holds the multiplier of a trial that drew generator pick
    g_table = np.zeros((len(gens) + 1, max([1] + [len(g) for g in gens])))
    g_table[0, 0] = 1.0
    for gi, g in enumerate(gens):
        g_table[gi + 1, :len(g)] = g
    n = mu.n
    total = int(trials)
    parent = np.random.SeedSequence(seed)
    violations = []
    min_margin = np.inf
    for start in range(0, total, TRIAL_BLOCK):
        size = min(TRIAL_BLOCK, total - start)
        rng = np.random.default_rng(parent.spawn(1)[0])
        picks, _, a = _audit_block(rng, size, n, len(gens))
        q = _conv_stack(np.swapaxes(a, -1, -2), a)
        g = g_table[picks + 1]
        fg = np.zeros((size, g.shape[1] + q.shape[1] - 1, n, n))
        for j in range(g.shape[1]):
            fg[:, j:j + q.shape[1]] += g[:, j, np.newaxis, np.newaxis, np.newaxis] * q
        abs_fg = np.abs(fg)
        # the trace pairing, and as rounding scale the magnitude of the terms
        # that evaluating g*q at each atom and pairing it with W actually sums
        val = np.zeros(size)
        scale = np.zeros(size)
        for x, w in mu.atoms:
            val += np.trace(_horner(fg, x) @ w, axis1=-2, axis2=-1)
            scale += np.sum(_horner(abs_fg, abs(x)) * np.abs(w).T, axis=(-2, -1))
        tol = AUDIT_TOL * np.maximum(1.0, scale)
        min_margin = min(min_margin, float(np.min(val + tol)))
        for b in np.flatnonzero(val < -tol):
            violations.append({"trial": start + int(b), "generator": int(picks[b]),
                               "value": float(val[b])})
    if total == 0:
        min_margin = 0.0
    return AuditReport(not violations, total, float(min_margin), violations)


def measure_to_json(mu):
    return {"n": mu.n, "atoms": [{"x": float(x), "W": _json_floats(w)} for x, w in mu.atoms]}


def _measure_doc(doc, what, dims, matrix_field):
    """Dimensions and atoms of a measure document, atoms as (x, field value) pairs.

    The document must be an object whose ``dims`` fields are positive
    integers and whose ``atoms`` are objects with a finite ``x`` and a
    ``matrix_field``; the caller decodes the field's matrices.
    """
    _json_fields(doc, what, *dims, "atoms")
    sizes = [_json_size(doc, key) for key in dims]
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
    atoms = [(x, _json_matrix(w, f"atoms[{idx}].W", n, n)) for idx, (x, w) in enumerate(atoms)]
    try:
        return AtomicMatrixMeasure(n, atoms)
    except _EntryError as exc:
        raise ValueError(f"atoms[{exc.index}].W {exc.problem}") from None


def map_measure_to_json(m):
    atoms = []
    for idx, (x, kraus) in enumerate(m.atoms):
        if kraus is None:
            raise ValueError(f"atom {idx} holds a raw map and cannot be serialized")
        atoms.append({"x": float(x), "kraus": _json_floats(kraus)})
    return {"h_dim": m.h_dim, "k_dim": m.k_dim, "atoms": atoms}


def map_measure_from_json(doc):
    (h_dim, k_dim), atoms = _measure_doc(doc, "map measure", ("h_dim", "k_dim"), "kraus")
    return PositiveMapMeasure(h_dim, k_dim, [
        (x, _json_matrices(kraus, f"atoms[{idx}].kraus", h_dim, k_dim, empty=True))
        for idx, (x, kraus) in enumerate(atoms)])
