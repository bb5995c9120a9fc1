"""Truncated replica of a diagonal cubic family with a non-archimedean cone.

The family is G(x) = diag(p_1, ..., p_N) with p_i(x) = x^3/i - x^2, whose
joint nonnegativity set at truncation N is {0} u [N, inf).  Compressing by
powers of the (nilpotent) truncated shift gives the identity

    S^n G (S^T)^n = A_n x^3 - J_n x^2,

with A_n = diag(1/(n+1), ..., 1/N, 0, ..) and J_n the projector onto the
first N-n coordinates.  The compression only moves entries, so the
identity holds bit for bit on the float64 coefficients, whose entries 1/i
are correctly rounded.  Every element of the quadratic module generated by
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

import numpy as np

from .measures import SupportViolation, forward_moments, positivity_audit
from .polymat import MatrixPoly, _conv_stack

CHAIN_TOL = 1e-9
PROBE_TOL = 1e-9
# Probe trials are drawn and reduced this many at once, from one generator
# per block, which bounds the padded coefficient stacks whatever the trial
# count.
TRIAL_BLOCK = 256


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
    """Coefficients of p_i(x) = x^3/i - x^2, constant term first; 1/i correctly rounded."""
    return [0.0, 0.0, -1.0, 1.0 / i]


def build_family(n_trunc):
    """Family of size N: G(x) = x^3 diag(1/i) - x^2 Id, shift on the superdiagonal.

    N is at most 708: ``leading_coeff_probe`` rescales G to integer entries
    by lcm(1, ..., N), which exceeds the float64 range from N = 709.
    """
    if n_trunc < 1:
        raise ValueError("truncation dimension must be >= 1")
    if n_trunc > 708:
        raise ValueError(f"truncation dimension {n_trunc} above 708: lcm(1..N) overflows float64")
    coeffs = np.zeros((4, n_trunc, n_trunc))
    np.fill_diagonal(coeffs[2], -1.0)      # not -eye, whose zeros are -0.0
    np.fill_diagonal(coeffs[3], 1.0 / np.arange(1, n_trunc + 1))
    return ShiftFamily(n_trunc, MatrixPoly(coeffs, symmetric=True), np.eye(n_trunc, k=1))


def shift_compress(fam, n):
    """S^n G (S^T)^n: x^3 diag(1/(n+1)..1/N, 0..) - x^2 diag(1,..,1,0..).

    S is the superdiagonal shift of ``build_family``, so the compression
    moves the trailing (N-n)x(N-n) block of every coefficient to the top
    left and zeroes the rest; no entry is rounded.
    """
    if not 0 <= n < fam.N:
        raise ValueError(f"compression order {n} out of range [0, {fam.N})")
    g = fam.G.coeffs
    coeffs = np.zeros(g.shape)
    coeffs[:, :fam.N - n, :fam.N - n] = g[:, n:, n:]
    return MatrixPoly(coeffs, symmetric=True)


def _congruence(r, use_g, g_int):
    """Coefficient stacks of R(x)^T B R(x) for a batch of R (..., deg+1, n, m).

    B is the integer family G where ``use_g`` is set and the identity
    elsewhere; R^T Id is R^T exactly, so no product is formed for it.
    """
    rt = np.swapaxes(r, -1, -2)
    left = np.zeros(r.shape[:-3] + (r.shape[-3] + g_int.shape[0] - 1,) + rt.shape[-2:])
    left[use_g] = _conv_stack(rt[use_g], g_int)
    left[~use_g, :r.shape[-3]] = rt[~use_g]
    return _conv_stack(left, r)


def _probe_block(rng, size, n):
    """Draws of ``size`` probe trials: up to three R, then f_0, f_1 and v of v h v^T.

    In this order: the number of congruences (1..3), per slot B = G (p 0.7),
    deg R (0..2) and R (integers -2..2); whether a rank-one term is drawn
    (p 0.5), its number of factors of h (1..2), per factor B = G (p 0.8),
    deg f_0 (0..1 with one factor, else 0), f_0, f_1, deg v (0..1) and v.
    Whatever a trial does not use is zeroed.
    """
    used = np.arange(3) < rng.integers(1, 4, size)[:, np.newaxis]
    r_g = (rng.random((size, 3)) < 0.7) & used
    deg_r = rng.integers(0, 3, (size, 3))
    r = rng.integers(-2, 3, (size, 3, 3, n, n)).astype(float)
    r[~used[:, :, np.newaxis] | (np.arange(3) > deg_r[:, :, np.newaxis])] = 0.0
    term = rng.random(size) < 0.5
    length = rng.integers(1, 3, size)
    single = term & (length == 1)
    f_g = (rng.random((size, 2)) < 0.8) & term[:, np.newaxis] & (
        np.arange(2) < length[:, np.newaxis])
    deg_f = np.where(single, rng.integers(0, 2, size), 0)
    f0 = rng.integers(-2, 3, (size, 2, n, 1)).astype(float)
    f0[~term[:, np.newaxis] | (np.arange(2) > deg_f[:, np.newaxis])] = 0.0
    f1 = rng.integers(-2, 3, (size, 1, n, 1)).astype(float)
    f1[~term | (length == 1)] = 0.0
    deg_v = rng.integers(0, 2, size)
    v = rng.integers(-2, 3, (size, 2, n, 1)).astype(float)
    v[~term[:, np.newaxis] | (np.arange(2) > deg_v[:, np.newaxis])] = 0.0
    return r, r_g, f0, f1, f_g, single, v


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

    Trials run in blocks of ``TRIAL_BLOCK``: block b draws all its trials
    at once (``_probe_block``) from one generator seeded by the b-th child
    of ``SeedSequence(seed)``, so a complete block's trials do not depend
    on the trial count.  The block's elements are formed and their leading
    coefficients' eigenvalues taken as zero-padded coefficient stacks.
    ``trials`` must be nonnegative.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    n = fam.N
    lcm = math.lcm(*range(1, n + 1))
    g_int = np.zeros((4, n, n))
    for i in range(n):
        g_int[2][i, i] = -lcm
        g_int[3][i, i] = lcm // (i + 1)

    total = int(trials)
    parent = np.random.SeedSequence(seed)
    count = 0
    min_eig = np.inf
    for start in range(0, total, TRIAL_BLOCK):
        rng = np.random.default_rng(parent.spawn(1)[0])
        r, r_g, f0, f1, f_g, single, v = _probe_block(rng, min(TRIAL_BLOCK, total - start), n)
        h1 = _congruence(f1, f_g[:, 1], g_int)
        h1[single] = 0.0
        h1[single, 0] = 1.0         # h = f_0^T B f_0 where only one factor was drawn
        h = _conv_stack(_congruence(f0, f_g[:, 0], g_int), h1)
        rank_one = _conv_stack(_conv_stack(v, h), np.swapaxes(v, -1, -2))
        elem = np.zeros(rank_one.shape)
        for t in range(3):
            cong = _congruence(r[:, t], r_g[:, t], g_int)
            elem[:, :cong.shape[1]] += cong
        elem += rank_one

        nonzero = np.any(elem != 0.0, axis=(2, 3))
        found = np.flatnonzero(np.any(nonzero, axis=1))
        if found.size == 0:
            continue
        top = nonzero.shape[1] - 1 - np.argmax(nonzero[found, ::-1], axis=1)
        lead = elem[found, top]
        lead = lead / np.max(np.abs(lead), axis=(1, 2), keepdims=True)
        w = np.linalg.eigvalsh(0.5 * (lead + np.swapaxes(lead, 1, 2)))
        count += found.size
        min_eig = min(min_eig, float(np.min(w[:, 0])))

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


def _audit_module(mu, fam, trials):
    """Raise ModulePositivityError unless L is module-positive; an indefinite weight names p_1."""
    gens = [diagonal_entry(i) for i in range(1, fam.N + 1)]
    try:
        report = positivity_audit(mu, gens, trials)
    except SupportViolation as exc:
        raise ModulePositivityError(exc.atom_index, exc.point,
                                    exc.generator_index, exc.value) from exc
    if not report.passed:
        worst = min(report.violations, key=lambda v: v["value"])
        raise ModulePositivityError(worst["atom"], mu.atoms[worst["atom"]][0],
                                    max(worst["generator"], 0), worst["value"])


def cauchy_schwarz_chain(mu, fam, trials=200, seed=0):
    """Evaluate the compression/Cauchy-Schwarz chain for a module-positive functional.

    For n = 0..N-1 the report compares L(J_n x^2) <= L(A_n x^3) <= rhs(n)
    with rhs(n) = L(Id)^1/2 L(Id x^6)^1/2 / (n+1), reading A_n and J_n off
    the shift compression; the truncation bound
    L(Id x^2) <= rhs(N-1) is checked separately.  Every value is linear in
    the moments S_0..S_6 of L, and A_n and J_n are diagonal, so each is a
    sum over the diagonals of S_2, S_3 or S_6.  Module positivity is audited
    exactly first; ``trials`` and ``seed`` are ignored, but ``trials`` must be >= 0.
    """
    if mu.n != fam.N:
        raise ValueError(f"functional size {mu.n} does not match family size {fam.N}")
    _audit_module(mu, fam, trials)

    diag = np.diagonal(forward_moments(mu, 6).S, axis1=1, axis2=2)
    mass = float(np.sum(diag[0]))
    lhs_full = float(np.sum(diag[2]))
    base = float(np.sqrt(max(mass, 0.0)) * np.sqrt(max(float(np.sum(diag[6])), 0.0)))

    # A_n and -J_n are the x^3 and x^2 coefficients of shift_compress(fam, n):
    # the trailing (N-n)x(N-n) block of G's, moved to the top left
    a = np.diagonal(fam.G.coeffs[3])
    n_values = list(range(fam.N))
    lhs_shifted = [float(np.sum(diag[2, :fam.N - n])) for n in n_values]
    mid = [float(np.sum(diag[3, :fam.N - n] * a[n:])) for n in n_values]
    rhs = [base / (n + 1) for n in n_values]

    scale = max(1.0, lhs_full, base, abs(mass))
    slack = CHAIN_TOL * scale
    all_hold = all(lhs_shifted[i] <= mid[i] + slack and mid[i] <= rhs[i] + slack
                   for i in range(fam.N))
    final_bound = lhs_full <= base / fam.N + slack
    return ChainReport(n_values, lhs_full, lhs_shifted, mid, rhs,
                       all_hold, final_bound, scale)


def support_collapse_check(mu, fam, trials=200, seed=0):
    """True iff L(x^k B) vanishes for k = 1..6, i.e. L sees only the origin.

    Preconditions, checked in this order: L is module-positive (audited as
    in ``cauchy_schwarz_chain``) and every atom lies in [0, N], the region
    the truncation controls (a ValueError otherwise).
    """
    _audit_module(mu, fam, trials)
    for idx, (x, _) in enumerate(mu.atoms):
        if x < -1e-9 or x > fam.N + 1e-9:
            raise ValueError(f"atom {idx} at x={x:.6g} lies outside [0, {fam.N}]")
    s = forward_moments(mu, 6).S
    bound = CHAIN_TOL * max(1.0, float(np.trace(s[0])))
    return not np.max(np.abs(s[1:])) > bound
