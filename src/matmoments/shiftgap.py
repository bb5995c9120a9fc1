"""Truncated replica of a diagonal cubic family with a non-archimedean cone.

The family is G(x) = diag(p_1, ..., p_N) with p_i(x) = x^3/i - x^2, whose
joint nonnegativity set at truncation N is {0} u [N, inf).  Compressing by
powers of the (nilpotent) truncated shift gives the exact identity

    S^n G (S^T)^n = A_n x^3 - J_n x^2,

with A_n = diag(1/(n+1), ..., 1/N, 0, ..) and J_n the projector onto the
first N-n coordinates.  Every element of the quadratic module generated by
G and its rank-one compressions has a PSD leading coefficient, which is
what excludes (K^2 - x^2)*Id from the module for every K; the decay
A_n <= Id/(n+1) combined with Cauchy-Schwarz forces the inequality chain

    0 <= L(J_n x^2) <= L(A_n x^3) <= L(Id)^1/2 L(Id x^6)^1/2 / (n+1)

for every module-positive functional L.  At the truncation the left-hand
side carries J_n rather than the full identity (the finite shift is
nilpotent); the best analogue of the vanishing conclusion is the bound
L(Id x^2) <= (1/N) L(Id)^1/2 L(Id x^6)^1/2, which holds because the
constraint set pins the support to {0} u [N, inf).
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .measures import SupportViolation, integrate_trace, positivity_audit
from .polymat import MatrixPoly, _maxabs

CHAIN_TOL = 1e-9
PROBE_TOL = 1e-9


class ModulePositivityError(ValueError):
    """The functional is not positive on the module generated by the family."""

    def __init__(self, atom_index, point, generator_index, value):
        self.atom_index = atom_index
        self.point = point
        self.generator_index = generator_index
        self.value = value
        self.witness = f"shift_compress(fam, {generator_index})"
        super().__init__(
            f"diagonal entry p_{generator_index + 1} takes value {value:.6g} < 0 at "
            f"atom {atom_index} (x={point:.6g}); violating module element "
            f"{self.witness}")


@dataclass
class ShiftFamily:
    """G = diag(x^3/i - x^2) at truncation N with the nilpotent shift matrix."""

    N: int
    G: MatrixPoly
    shift_matrix: np.ndarray


@dataclass
class ChainReport:
    """Per-order values of the compression/Cauchy-Schwarz inequality chain."""

    n_values: list
    lhs: float                      # L(Id x^2), full identity
    lhs_shifted: list = field(default_factory=list)   # L(J_n x^2) per n
    mid: list = field(default_factory=list)           # L(A_n x^3) per n
    rhs: list = field(default_factory=list)           # L(Id)^1/2 L(Id x^6)^1/2/(n+1)
    all_hold: bool = False
    final_bound_holds: bool = False
    scale: float = 1.0

    def to_json(self):
        return {
            "n_values": [int(v) for v in self.n_values],
            "lhs": float(self.lhs),
            "lhs_shifted": [float(v) for v in self.lhs_shifted],
            "mid": [float(v) for v in self.mid],
            "rhs": [float(v) for v in self.rhs],
            "all_hold": bool(self.all_hold),
            "final_bound_holds": bool(self.final_bound_holds),
            "scale": float(self.scale),
        }


@dataclass
class ProbeReport:
    """Minimum normalized leading-coefficient eigenvalue over random module elements."""

    n_elements: int
    min_leading_eigenvalue: float
    all_psd: bool
    negative_candidate_min_eigenvalue: float
    negative_candidate_excluded: bool

    def to_json(self):
        return {
            "n_elements": int(self.n_elements),
            "min_leading_eigenvalue": float(self.min_leading_eigenvalue),
            "all_psd": bool(self.all_psd),
            "negative_candidate_min_eigenvalue": float(self.negative_candidate_min_eigenvalue),
            "negative_candidate_excluded": bool(self.negative_candidate_excluded),
        }


def diagonal_entry(i):
    """Exact coefficients of p_i(x) = x^3/i - x^2."""
    return [Fraction(0), Fraction(0), Fraction(-1), Fraction(1, i)]


def build_family(n_trunc):
    """Family of size N: G(x) = x^3 diag(1/i) - x^2 Id, shift on the superdiagonal."""
    if n_trunc < 1:
        raise ValueError("truncation dimension must be >= 1")
    coeffs = np.zeros((4, n_trunc, n_trunc), dtype=object)
    coeffs[:] = Fraction(0)
    for i in range(n_trunc):
        coeffs[2][i, i] = Fraction(-1)
        coeffs[3][i, i] = Fraction(1, i + 1)
    g = MatrixPoly(coeffs, symmetric=True)
    shift = np.zeros((n_trunc, n_trunc), dtype=object)
    shift[:] = 0
    for i in range(n_trunc - 1):
        shift[i, i + 1] = 1
    return ShiftFamily(n_trunc, g, shift)


def shift_compress(fam, n):
    """S^n G (S^T)^n, exactly: x^3 diag(1/(n+1)..1/N, 0..) - x^2 diag(1,..,1,0..).

    S is the superdiagonal shift of ``build_family``, so the compression
    moves the trailing (N-n)x(N-n) block of every coefficient to the top
    left and zeroes the rest.
    """
    if not 0 <= n < fam.N:
        raise ValueError(f"compression order {n} out of range [0, {fam.N})")
    g = fam.G.coeffs
    coeffs = np.full(g.shape, Fraction(0), dtype=object)
    coeffs[:, :fam.N - n, :fam.N - n] = g[:, n:, n:]
    return MatrixPoly(coeffs, symmetric=True)


def _conv(a, b):
    """Coefficient stack of A(x) B(x) for (deg+1, rows, cols) stacks of any shapes."""
    q = b.shape[0]
    out = np.zeros((a.shape[0] + q - 1, a.shape[1], b.shape[2]))
    for i, c in enumerate(a):
        out[i:i + q] += c @ b
    return out


def _congruence(r, base):
    """Coefficient stack of R(x)^T B(x) R(x)."""
    return _conv(_conv(r.transpose(0, 2, 1), base), r)


def leading_coeff_probe(fam, trials, seed=0):
    """Sample random module elements and check their leading coefficients are PSD.

    Elements are sums of up to three congruences R^T B R with B in
    {G, Id} plus an optional rank-one compression term h(x) g(x) g(x)^T,
    where h is a product of at most two scalars f^T B f.  All random
    coefficients are small integers and the family is rescaled to integer
    entries, so every element is computed exactly; eigenvalues are taken
    of the leading coefficient normalized by its largest entry.  The
    candidate (1 - x^2) Id is evaluated alongside: its leading coefficient
    -Id is negative definite, so it can never be of module form.
    """
    n = fam.N
    lcm = math.lcm(*range(1, n + 1))
    g_int = np.zeros((4, n, n))
    for i in range(n):
        g_int[2][i, i] = -lcm
        g_int[3][i, i] = lcm // (i + 1)
    ident = np.eye(n)[np.newaxis]

    count = 0
    min_eig = np.inf
    for child in np.random.SeedSequence(seed).spawn(max(int(trials), 0)):
        rng = np.random.default_rng(child)
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            base = g_int if rng.random() < 0.7 else ident
            deg_r = int(rng.integers(0, 3))
            r = rng.integers(-2, 3, (deg_r + 1, n, n)).astype(float)
            terms.append(_congruence(r, base))
        if rng.random() < 0.5:
            length = int(rng.integers(1, 3))
            h = np.ones((1, 1, 1))
            for _ in range(length):
                base = g_int if rng.random() < 0.8 else ident
                deg_f = int(rng.integers(0, 2)) if length == 1 else 0
                f = rng.integers(-2, 3, (deg_f + 1, n, 1)).astype(float)
                h = _conv(h, _congruence(f, base))
            deg_v = int(rng.integers(0, 2))
            v = rng.integers(-2, 3, (deg_v + 1, n, 1)).astype(float)
            terms.append(_conv(_conv(v, h), v.transpose(0, 2, 1)))
        total = np.zeros((max(len(t) for t in terms), n, n))
        for t in terms:
            total[:len(t)] += t
        nonzero = np.flatnonzero(np.any(total != 0.0, axis=(1, 2)))
        if nonzero.size == 0:
            continue
        count += 1
        lead = total[nonzero[-1]]
        lead = lead / np.max(np.abs(lead))
        w = np.linalg.eigvalsh(0.5 * (lead + lead.T))
        min_eig = min(min_eig, float(w[0]))

    candidate = np.linalg.eigvalsh(-np.eye(n))[0]   # leading coefficient of (1-x^2) Id
    if count == 0:
        min_eig = 0.0
    return ProbeReport(
        n_elements=count,
        min_leading_eigenvalue=float(min_eig),
        all_psd=min_eig >= -PROBE_TOL,
        negative_candidate_min_eigenvalue=float(candidate),
        negative_candidate_excluded=candidate < -PROBE_TOL,
    )


def _audit_module(mu, fam, trials, seed):
    gens = [[float(c) for c in diagonal_entry(i)] for i in range(1, fam.N + 1)]
    try:
        report = positivity_audit(mu, gens, trials, seed)
    except SupportViolation as exc:
        raise ModulePositivityError(exc.atom_index, exc.point,
                                    exc.generator_index, exc.value) from exc
    if not report.passed:
        worst = min(report.violations, key=lambda v: v["value"])
        raise ModulePositivityError(-1, float("nan"), max(worst["generator"], 0),
                                    worst["value"])
    return report


def cauchy_schwarz_chain(mu, fam, trials=200, seed=0, tol=CHAIN_TOL):
    """Evaluate the compression/Cauchy-Schwarz chain for a module-positive functional.

    For n = 0..N-1 the report compares L(J_n x^2) <= L(A_n x^3) <= rhs(n)
    with rhs(n) = L(Id)^1/2 L(Id x^6)^1/2 / (n+1), reading A_n and J_n off
    the exact shift compression; the truncation bound
    L(Id x^2) <= rhs(N-1) is checked separately.
    """
    if mu.n != fam.N:
        raise ValueError(f"functional size {mu.n} does not match family size {fam.N}")
    _audit_module(mu, fam, trials, seed)

    eye = np.eye(fam.N)
    mass = integrate_trace(MatrixPoly.constant(eye), mu)
    m6 = integrate_trace(MatrixPoly(np.concatenate([np.zeros((6, fam.N, fam.N)),
                                                    eye[np.newaxis]])), mu)
    lhs_full = integrate_trace(MatrixPoly(np.concatenate([np.zeros((2, fam.N, fam.N)),
                                                          eye[np.newaxis]])), mu)
    base = float(np.sqrt(max(mass, 0.0)) * np.sqrt(max(m6, 0.0)))

    n_values, lhs_shifted, mid, rhs = [], [], [], []
    for n in range(fam.N):
        comp = shift_compress(fam, n).as_float()
        a_n = comp.coeff(3)
        j_n = -comp.coeff(2)
        zeros = np.zeros((3, fam.N, fam.N))
        mid_val = integrate_trace(MatrixPoly(np.concatenate([zeros, a_n[np.newaxis]])), mu)
        lhs_val = integrate_trace(MatrixPoly(np.concatenate([zeros[:2], j_n[np.newaxis]])), mu)
        n_values.append(n)
        lhs_shifted.append(lhs_val)
        mid.append(mid_val)
        rhs.append(base / (n + 1))

    scale = max(1.0, lhs_full, base, abs(mass))
    slack = tol * scale
    all_hold = all(lhs_shifted[i] <= mid[i] + slack and mid[i] <= rhs[i] + slack
                   for i in range(fam.N))
    final_bound = lhs_full <= base / fam.N + slack
    return ChainReport(n_values, lhs_full, lhs_shifted, mid, rhs,
                       all_hold, final_bound, scale)


def support_collapse_check(mu, fam, tol=CHAIN_TOL, k_max=6, trials=200, seed=0):
    """True iff L(x^k B) vanishes for all k >= 1, i.e. L sees only the origin.

    Preconditions: L is module-positive (audited) and every atom lies in
    [0, N], the region the truncation controls.
    """
    _audit_module(mu, fam, trials, seed)
    return _support_collapses(mu, fam, tol, k_max)


def _support_collapses(mu, fam, tol=CHAIN_TOL, k_max=6):
    """support_collapse_check for a functional whose module audit already passed."""
    for idx, (x, _) in enumerate(mu.atoms):
        if x < -1e-9 or x > fam.N + 1e-9:
            raise ValueError(f"atom {idx} at x={x:.6g} lies outside [0, {fam.N}]")
    mass = float(np.trace(mu.total_mass()))
    bound = tol * max(1.0, mass)
    for k in range(1, k_max + 1):
        s_k = np.zeros((mu.n, mu.n))
        for x, w in mu.atoms:
            s_k += x ** k * w
        if _maxabs(s_k) > bound:
            return False
    return True
