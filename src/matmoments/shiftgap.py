"""Truncated replica of a diagonal cubic family with a non-archimedean cone.

The family is G(x) = diag(p_1, ..., p_N) with p_i(x) = x^3/i - x^2, whose
joint nonnegativity set at truncation N is {0} u [N, inf).  Compressing by
powers of the (nilpotent) truncated shift gives the identity

    S^n G (S^T)^n = A_n x^3 - J_n x^2,

with A_n = diag(1/(n+1), ..., 1/N, 0, ..) and J_n the projector onto the
first N-n coordinates.  The compression only moves entries, so the
identity holds bit for bit on the float64 coefficients, whose entries 1/i
are correctly rounded.  Every element of the quadratic module generated by
G and its rank-one compressions has a nonzero PSD leading coefficient,
because lead(G) = diag(1/i) and lead(Id) = Id are positive definite; this
is what excludes (K^2 - x^2)*Id from the module for every K, and
``leading_coeff_probe`` states the argument and reports its numbers.  The
decay A_n <= Id/(n+1) combined with Cauchy-Schwarz forces the inequality chain

    0 <= L(J_n x^2) <= L(A_n x^3) <= L(Id)^1/2 L(Id x^6)^1/2 / (n+1)

for every module-positive functional L.  At the truncation the left-hand
side carries J_n rather than the full identity (the finite shift is
nilpotent); the best analogue of the vanishing conclusion is the bound
L(Id x^2) <= (1/N) L(Id)^1/2 L(Id x^6)^1/2, which holds because the
constraint set pins the support to {0} u [N, inf).
"""

from dataclasses import dataclass, field

import numpy as np

from .measures import SupportViolation, forward_moments, positivity_audit
from .polymat import INPUT_RTOL, MatrixPoly, _EPS, _Failure, _finite_entries, _report_json, _size


class ModulePositivityError(_Failure, ValueError):
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
    """G = diag(x^3/i - x^2) at truncation N; ``shift_compress`` applies the shift."""

    N: int
    G: MatrixPoly


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

    to_json = _report_json


@dataclass
class ProbeReport:
    """Least normalized eigenvalues of the generators' and the candidate's leading coefficients."""

    min_leading_eigenvalue: float
    all_psd: bool
    negative_candidate_min_eigenvalue: float
    negative_candidate_excluded: bool

    to_json = _report_json


def build_family(n_trunc):
    """Family of size N: G(x) = x^3 diag(1/i) - x^2 Id."""
    n_trunc = _size(n_trunc, "truncation dimension")
    coeffs = np.zeros((4, n_trunc, n_trunc))
    np.fill_diagonal(coeffs[2], -1.0)      # not -eye, whose zeros are -0.0
    np.fill_diagonal(coeffs[3], 1.0 / np.arange(1, n_trunc + 1))
    return ShiftFamily(n_trunc, MatrixPoly(coeffs, symmetric=True))


def shift_compress(fam, n):
    """S^n G (S^T)^n: x^3 diag(1/(n+1)..1/N, 0..) - x^2 diag(1,..,1,0..).

    S is the shift S e_1 = 0, S e_{i+1} = e_i (ones on the superdiagonal),
    so the compression moves the trailing (N-n)x(N-n) block of every
    coefficient to the top left and zeroes the rest; no entry is rounded.
    """
    if not _size(n, "compression order", least=0) < fam.N:
        raise ValueError(f"compression order {n} out of range [0, {fam.N})")
    g = fam.G.coeffs
    coeffs = np.zeros(g.shape)
    coeffs[:, :fam.N - n, :fam.N - n] = g[:, n:, n:]
    return MatrixPoly(coeffs, symmetric=True)


def leading_coeff_probe(fam):
    """The leading-coefficient argument that keeps (K^2 - x^2) Id out of the module.

    Theorem: lead(G) = diag(1/i) and lead(Id) = Id are positive definite.
    So a congruence R^T B R with B in {G, Id} has the nonzero PSD top
    coefficient R_top^T lead(B) R_top, and a rank-one term h v v^T, with h
    a product of scalars f^T B f, has lead(h) v_top v_top^T, where each
    factor of lead(h) is f_top^T lead(B) f_top > 0.  The top coefficient of
    any sum of such terms is the sum of those of its terms of highest
    degree: a nonzero PSD matrix.  That of (K^2 - x^2) Id is -Id, so no K
    puts it in the module.

    The report gives the least eigenvalue of lead(G) and lead(Id), each
    divided by its largest entry (1/N), and that of the candidate
    (1 - x^2) Id (-1): exact for these diagonal matrices, so judged against
    0 with no ``INPUT_RTOL``.
    """
    eye = np.eye(fam.N)
    lead_g, lead_id, lead_candidate = (float(np.linalg.eigvalsh(c / np.max(np.abs(c)))[0])
                                       for c in (fam.G.coeffs[-1], eye, -eye))
    min_eig = min(lead_g, lead_id)
    return ProbeReport(min_eig, min_eig >= 0.0, lead_candidate, lead_candidate < 0.0)


def _audit_module(mu, fam, trials=0):
    """Raise unless L has the family's size and is module-positive; an indefinite W names p_1."""
    if mu.n != fam.N:
        raise ValueError(f"functional size {mu.n} does not match family size {fam.N}")
    # p_i, constant term first, from the diagonals of G's coefficients
    gens = np.diagonal(fam.G.coeffs, axis1=1, axis2=2).T
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
    sum over the diagonals of S_2, S_3 or S_6.  Each inequality has the slack
    that the weights' admission at ``INPUT_RTOL`` allows it, summed over the
    atoms; ``scale`` reports the size of the values.  Module positivity is audited
    exactly first; ``trials`` (a nonnegative integer) and ``seed`` are ignored.
    """
    _audit_module(mu, fam, trials)

    diag = np.diagonal(forward_moments(mu, 6).S, axis1=1, axis2=2)
    # A_n and -J_n are the x^3 and x^2 coefficients of shift_compress(fam, n):
    # the trailing (N-n)x(N-n) block of G's, moved to the top left
    a = np.diagonal(fam.G.coeffs[3])
    n_values = list(range(fam.N))
    # A weight is admitted down to -INPUT_RTOL max(1, ||W_j||_2), which ||W_j||_inf bounds, so
    # an inequality may miss by that times the absolute coefficients it puts on atom j's
    # diagonal (|x_j|^3 / (n+1) each in rhs(n)), plus its sums' rounding
    rtol = INPUT_RTOL + (fam.N + len(mu.atoms) + 8) * _EPS
    size = np.array([max(rtol, np.max(np.sum(rtol * np.abs(w), axis=1))) for _, w in mu.atoms])
    x = np.abs([point for point, _ in mu.atoms])
    with np.errstate(over="ignore"):       # _finite_entries reports a sum that overflows
        mass, lhs_full, top = (float(np.sum(diag[p])) for p in (0, 2, 6))
        lhs_shifted = [float(np.sum(diag[2, :fam.N - n])) for n in n_values]
        mid = [float(np.sum(diag[3, :fam.N - n] * a[n:])) for n in n_values]
        x2, x3 = float(size @ x**2), float(size @ x**3)
    names = ["L(Id)", "L(Id x^2)", "L(Id x^6)", *(f"L(J_{n} x^2)" for n in n_values),
             *(f"L(A_{n} x^3)" for n in n_values), "the slack", "the slack"]
    _finite_entries(np.array([mass, lhs_full, top, *lhs_shifted, *mid, x2, x3]),
                    names.__getitem__, "overflows float64")
    base = float(np.sqrt(max(mass, 0.0)) * np.sqrt(max(top, 0.0)))
    rhs = [base / (n + 1) for n in n_values]
    tail = np.cumsum(a[::-1])[::-1]         # trace(A_n)
    all_hold = all(lhs_shifted[n] <= mid[n] + (fam.N - n) * x2 + tail[n] * x3
                   and mid[n] <= rhs[n] + (tail[n] + fam.N / (n + 1)) * x3 for n in n_values)
    final_bound = lhs_full <= base / fam.N + fam.N * x2 + x3
    scale = max(1.0, lhs_full, base, abs(mass))
    return ChainReport(n_values, lhs_full, lhs_shifted, mid, rhs,
                       all_hold, final_bound, scale)


def support_collapse_check(mu, fam):
    """True iff L(x^k B) vanishes for k = 1..6, i.e. L sees only the origin.

    Preconditions, checked in this order: L has the family's size and is
    module-positive (both as in ``cauchy_schwarz_chain``), and every atom
    lies in [0, N] up to 1e-9, the region the truncation controls (a
    ValueError otherwise).  Vanishing means |S_k| <= ``INPUT_RTOL`` max(1, L(Id)).
    """
    _audit_module(mu, fam)
    for idx, (x, _) in enumerate(mu.atoms):
        if x < -1e-9 or x > fam.N + 1e-9:
            raise ValueError(f"atom {idx} at x={x:.6g} lies outside [0, {fam.N}]")
    s = forward_moments(mu, 6).S
    with np.errstate(over="ignore"):       # _finite_entries reports a sum that overflows
        mass = float(np.trace(s[0]))
    bound = INPUT_RTOL * max(1.0, _finite_entries(np.array([mass]), ["L(Id)"].__getitem__,
                                                  "overflows float64")[0])
    return not np.max(np.abs(s[1:])) > bound
