"""Sum-of-hermitian-squares certificates for matrix polynomials.

A symmetric matrix polynomial F that is PSD on the line, the half-line or
the unit interval is decomposed as F = sum_g g * sigma_g, where g ranges
over the domain's cone generators in ``polymat.DOMAINS`` ({1}, {1, x} or
{1, x, 1-x, x(1-x)}), each sigma_g an explicit sum of squares G_i G_i^T.

The interval is the half-line of its cleared polynomial: G(s) = (1 +
s)^d F(s / (1 + s)) = sum_k C_k s^k, with exact integer weights, is PSD on
[0, inf) exactly when F is on [0, 1], and C_k = C(d, k) B_k, B_k F's
Bernstein coefficients.  The half-line split of G is cleared back to x.
The half-line's first candidate runs no factorization: if every C_k =
L_k L_k^T is PD, term k is one square (the matrix Polya form, Scherer &
Hol, Math. Program. 107, 2006).  On [0, 1], where F is singular inside,
not every B_k is PD.

Every other certificate comes from one factorization on the line.  A line
problem G(a) routes through the unit circle: homogenize, expand
G~(cos t, sin t) into a Laurent polynomial in e^{2it} with exact rational
binomial weights, spectrally factor, and split the rotated factor into its
real and imaginary homogeneous parts H and K, giving G = H H^T + K K^T at
(1, a).  Each direction is one complex table (``_trig_weights``,
``polymat._line_weights``), real on its even and imaginary on its odd
rows or columns, read off one exact Krawtchouk table, rows of
``polymat._binomial_rows`` as are the interval's clearing weights.  The
line takes G = F and the half-line G(a) = F(a^2), even in a: u (the
table's even rows) and its factor are real, and H(a) = R(a^2), K(a) =
a Q(a^2) give R to 1 and Q to x.

Each decomposer is one ``_certified`` call, which splits F / 4^j and
checks the split's candidates in turn.  A certificate is a proof only
through its reassembly check, ``verify_certificate``, which squares every
factor in one batch and sums the weighted squares once.  A failure is
decided on every domain by F's least eigenvalue there
(``polymat._least_on``).
"""

from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import ldexp

import numpy as np

from . import spectral
from .polymat import (DOMAINS, LaurentPoly, MatrixPoly, _binomial_rows,
                      _check_symmetric, _check_tol, _conv_stack, _EPS, _Failure, _finite_entries,
                      _json_fields, _json_real, _least_on, _line_weights, _maxabs, _padded_sum,
                      _strip, _read_only, _weighted_sum, matrixpoly_from_json,
                      matrixpoly_to_json)

DEFAULT_TOL = 1e-8


class OddDegree(_Failure, ValueError):
    pass


class _NotPsdOnDomain(_Failure, ValueError):
    def __init__(self, min_eigenvalue, at_x):
        self.min_eigenvalue = min_eigenvalue
        self.at_x = at_x
        super().__init__(f"eigenvalue {min_eigenvalue:.3e} at x={at_x:.6f}")


class NotPsdOnLine(_NotPsdOnDomain):
    domain = (-np.inf, np.inf)


class NotPsdOnHalfLine(_NotPsdOnDomain):
    domain = (0.0, np.inf)


class NotPsdOnInterval(_NotPsdOnDomain):
    domain = (0.0, 1.0)


class SosConsistencyError(_Failure, RuntimeError):
    """The certificate does not reassemble F within tolerance (bad input conditioning)."""


@dataclass
class SosCertificate:
    """Decomposition F = sum_g g * sum_i G_i G_i^T over cone generators."""

    variant: str
    sigma: dict
    residual: float = 0.0

    def __post_init__(self):
        if not isinstance(self.variant, str) or self.variant not in DOMAINS:
            raise ValueError(f"field 'variant' must be one of {sorted(DOMAINS)}")
        for key in self.sigma:
            if key not in DOMAINS[self.variant][1]:
                raise ValueError(f"generator '{key}' in 'sigma' not allowed for variant "
                                 f"'{self.variant}'")
        if self.variant == "line" and len(self.sigma.get("1", [])) > 2:
            raise ValueError("line certificates carry at most two factors")

    def factors(self, key):
        return self.sigma.get(key, [])


@dataclass
class ScalarizedSet:
    """Scalar polynomials whose joint nonnegativity set equals {x : G(x) PSD}."""

    polys: list = field(default_factory=list)
    source: MatrixPoly = None


def _require_symmetric(f):
    """F's scale max(1, max entry) once F is finite and each F_k symmetric up to ``INPUT_RTOL``."""
    top = f.max_coeff_abs()
    if not top < np.inf:
        raise ValueError("input has a non-finite coefficient")
    if not f.symmetric:     # each F_k at its own scale; F is certified as given
        _check_symmetric(f.coeffs, "input coefficient {}".format)
    return max(1.0, top)


@lru_cache(maxsize=None)
def _trig_weights(d):
    """Read-only weights i^k K_{d-k} / 2^d of C_k on w^j in _trig_laurent, row k, column j + d/2.

    K is the Krawtchouk table ``_binomial_rows(d, (1, 1), (1, -1))`` that
    ``_line_weights`` reads: i^k K_{d-k} = i^{-k} (w - 1)^k (w + 1)^(d-k).
    i^k = (-1)^(k // 2) i^(k % 2): even rows are real, odd rows imaginary.
    """
    signed = np.array([[ldexp((-1) ** (k // 2) * s, -d) for s in row[:d // 2 * 2 + 1]]
                       for k, row in enumerate(_binomial_rows(d, (1, 1), (1, -1))[::-1])])
    w = np.zeros(signed.shape, dtype=complex)
    w.real[0::2] = signed[0::2]
    w.imag[1::2] = signed[1::2]
    return _read_only(w)


def _trig_laurent(c, step=1):
    """Laurent polynomial u with u(e^{2it}) = G~(cos t, sin t), G(a) = C(a^step).

    G~(u, v) = G(v/u) u^deg is the homogenization; the expansion uses
    cos t = (w + 1/w)/2 and sin t = (w - 1/w)/(2i): C_i takes row k = step
    * i of ``_trig_weights``, summed in increasing k (``_weighted_sum``).
    At step 2 every row is even and real, so the sum reads the rows' real
    view and u is real, with no complex product.
    """
    w = _trig_weights(step * (len(c) - 1))[::step]
    return LaurentPoly(_weighted_sum(w.real if step == 2 else w, c))


def _line_factors(b_stack):
    """Split G(cos t, sin t) = P(e^{2it}) e^{-i n t} into real parts H, K.

    G(u, v) = sum_k B_k (u + iv)^k (u - iv)^{n-k} is homogeneous of degree
    n with complex coefficients; H and K are its real and imaginary parts,
    returned dehomogenized at (1, x) as stripped stacks, each coefficient
    summed in increasing k (``_weighted_sum``).  The weight on x^m is real
    for even m and imaginary for odd m, so for a real P, H's odd and K's
    even coefficients are exactly zero.
    """
    gamma = _weighted_sum(_line_weights(b_stack.shape[0] - 1), b_stack)
    return _strip(gamma.real), _strip(gamma.imag)


def _line_split(u, tol, j):
    """Stacks H, K with G = H H^T + K K^T, and the factorization's failure or None.

    u is ``_trig_laurent`` of G / 4^j, of even degree.  The target
    min(1e-10, tol / 100) is relative to max(1, ||A_0||) of G's expansion,
    4^j max(4^-j, a) with a = max|A_0| of u, so ``fejer_riesz`` gets it
    times max(4^-j, a) / max(1, a).  A factorization that does not converge
    leaves its best attempt for the reassembly check to judge; on a
    ``NotPsdOnCircle``, or an overflow (a ``ValueError``), H = K = 0.
    """
    pending = None
    try:
        if not np.isfinite(u.coeffs).all():
            raise ValueError("the input's expansion on the circle overflows float64")
        a = _maxabs(u.coeff(0))
        b = spectral.fejer_riesz(
            u, tol=min(1e-10, tol / 100) * (max(ldexp(1.0, -2 * j), a) / max(1.0, a))).coeffs
    except spectral.NoConvergence as exc:
        b, pending = exc.best.coeffs, exc
    except ValueError as exc:       # NotPsdOnCircle, or an overflow
        b, pending = np.zeros((u.band + 1, u.n, u.n)), exc
    h, k = _line_factors(b)
    return h, k, pending


# the generator g' and the extra power x^j with x g = x^j g', per generator g
_TIMES_X = {"1": ("x", 0), "x": ("1", 1), "1-x": ("x(1-x)", 0), "x(1-x)": ("1-x", 1)}


@np.errstate(over="ignore", invalid="ignore")     # overflows are ValueErrors
def _certified(variant, f, tol, split, not_psd):
    """Certificate of F = x^k F~ from ``split(F~'s stack, tol, j)``'s (parts, failure) pairs.

    k counts F's leading coefficients F_0, F_1, ... that are exactly zero,
    its even part on the line, where an odd-degree F is an ``OddDegree``.
    The split runs on F~ / 4^j, exactly, j as ``fejer_riesz`` takes it out
    of F's scale, so an F near the float maximum splits; its factors and a
    ``NoConvergence``'s best factor are scaled back.  Every factor of F~ is
    padded by x^(k // 2); for odd k each generator g moves to g' with x g =
    x^i g' (``_TIMES_X``), its factors taking i more x.  A factor whose
    square (inf, never an OverflowError) contributes at most 1e-3 * tol *
    scale is gauge noise and is dropped, and so is a generator left with no
    factor.

    The first candidate whose certificate passes the reassembly check is
    returned: it proves F PSD up to its residual.  If every one misses,
    ``not_psd`` is raised at F's least eigenvalue on the domain if that is
    below -tol * scale, else the factorization's failure or a
    ``SosConsistencyError``; a reassembly that overflows float64 is a
    ValueError at once, as in ``momentctl verify``.  This is the one
    overflow guard of the decomposers.
    """
    _check_tol(tol, positive=True)
    scale = _require_symmetric(f)
    drop, thresh, j = 1e-3 * tol * scale, tol * scale, spectral._quarter_power(scale)
    k = next(i for i, c in enumerate(f.coeffs) if c.any() or i == f.deg)
    if variant == "line":
        if f.deg % 2:
            raise OddDegree(f"degree {f.deg} is odd")
        k -= k % 2
    for parts, pending in split(np.ldexp(f.coeffs[k:], -2 * j), tol, j):
        sigma = {}
        for key, factors in parts:
            key, i = _TIMES_X[key] if k % 2 else (key, 0)
            padded = (np.ldexp(np.concatenate((np.zeros((k // 2 + i,) + c.shape[1:]), c)), j)
                      for c in factors)
            sigma[key] = [MatrixPoly(c) for c in padded if len(c) * ((m := _maxabs(c)) * m) > drop]
        cert = SosCertificate(variant, {key: sigma[key] for key in DOMAINS[variant][1]
                                        if sigma.get(key)})
        cert.residual = verify_certificate(f, cert)
        if cert.residual <= thresh:
            return cert
    _finite_residual(cert.residual)
    worst, x = _least_on(f.coeffs, *not_psd.domain, thresh)
    if worst < -thresh:
        raise not_psd(worst, x) from pending
    if isinstance(pending, spectral.NoConvergence):     # its best factor of u / 4^j as one of u
        b = pending.best
        pending = spectral.NoConvergence(replace(
            b, coeffs=b.coeffs * ldexp(1.0, j), residual=float(np.ldexp(b.residual, 2 * j)),
            epsilon_used=float(np.ldexp(b.epsilon_used, 2 * j))))
    if pending is not None and not isinstance(pending, spectral.NotPsdOnCircle):
        raise pending
    raise SosConsistencyError(
        f"reassembly residual {cert.residual:.3e} above tolerance") from pending


def _split_line(c, tol, j):
    h, k, pending = _line_split(_trig_laurent(c), tol, j)
    yield [("1", [h, k])], pending


def decompose_line(f, tol=DEFAULT_TOL):
    """Certificate F = H H^T + K K^T for F PSD on the whole line.

    Requires even degree with PSD leading coefficient; at most two factors
    are emitted.
    """
    return _certified("line", f, tol, _split_line, NotPsdOnLine)


def _coefficient_parts(c):
    """Squares s^(k // 2) L_k on s^(k % 2) of G = sum_k C_k s^k, C_k = L_k L_k^T; None unless PD."""
    try:        # an overflowed C_k gives an inf or NaN factor, which the reassembly refuses
        chol = np.linalg.cholesky(c)
    except np.linalg.LinAlgError:       # a C_k that is not PD
        return None
    k = np.arange(len(c))
    factors = np.zeros((len(c), len(c) // 2 + 1) + c.shape[1:])
    factors[k, k // 2] = chol
    return [(key, factors[i::2, :(len(c) - 1 - i) // 2 + 1]) for i, key in enumerate(("1", "x"))]


def _split_halfline(c, tol, j):
    """The coefficient candidate of G = sum_k C_k s^k, then a factorization of G(a^2).

    Its real factor's parts H(a) = R(a^2) and K(a) = a Q(a^2) go to 1 and s.
    """
    if (parts := _coefficient_parts(c)) is not None:
        yield parts, None
    h, k, pending = _line_split(_trig_laurent(_strip(c), 2), tol, j)
    yield [("1", _strip(h[0::2])[np.newaxis]), ("x", _strip(k[1::2])[np.newaxis])], pending


def decompose_halfline(f, tol=DEFAULT_TOL):
    """Certificate F = sigma_0 + x sigma_1 for F PSD on [0, inf).

    If every F_k = L_k L_k^T is PD, term k is the square x^(k // 2) L_k on
    x^(k % 2).  Otherwise, or if that misses, G(a) = F(a^2) is factored on
    the line; its parts H(a) = R(a^2) and K(a) = a Q(a^2) give R to sigma_0
    and Q to sigma_1.
    """
    return _certified("halfline", f, tol, _split_halfline, NotPsdOnHalfLine)


@lru_cache(maxsize=None)
def _clearing_weights(e, sign):
    """Read-only weights of C_k on x^r in sum_k C_k x^k (1 + sign*x)^(e-k), row k."""
    w = np.array(_binomial_rows(e, (0, 1), (1, sign)), dtype=float)
    return _read_only(w.reshape(e + 1, e + 1))     # e = -1: empty


def _cleared_back(stack, p):
    """(1 - x)^p R(x / (1 - x)) = sum_m R_m x^m (1 - x)^(p-m) of each factor R, deg R <= p.

    One ``_weighted_sum`` of exact rows clears the stack's factors side by side.
    """
    count, m, n = stack.shape[:3]
    side = np.swapaxes(stack, 0, 1).reshape(m, count * n, n)
    side = _weighted_sum(_clearing_weights(p, -1)[:m], side)
    return np.swapaxes(side.reshape(p + 1, count, n, n), 0, 1)


# the generator x^(k % 2) (1 - x)^((d - k) % 2) of a term s^k of G, by the two parities
_PARITY_KEYS = {(0, 0): "1", (1, 0): "x", (0, 1): "1-x", (1, 1): "x(1-x)"}


def _split_interval(f, tol, j):
    """The half-line split of the cleared C, its factors on s^i cleared back at (d - i) // 2."""
    d = len(f) - 1
    c = _weighted_sum(_clearing_weights(d, +1), f)
    for parts, pending in _split_halfline(c, tol, j):
        yield ([(_PARITY_KEYS[i, (d - i) % 2], _cleared_back(stack, (d - i) // 2))
                for i, (_, stack) in enumerate(parts)], pending)


def decompose_interval(f, tol=DEFAULT_TOL):
    """Four-generator certificate for F PSD on [0, 1]: the half-line one of G, in x.

    G(s) = (1 + s)^d F(s / (1 + s)) = sum_k C_k s^k, C_k = C(d, k) B_k with
    B_k F's Bernstein coefficients, is split as on the half-line, G =
    sum_i R_i R_i^T + s sum_i Q_i Q_i^T.  (1 - x)^d G(x / (1 - x)) = F, so
    R cleared at floor(d/2) and Q at floor((d-1)/2) are squares on 1 and x
    times (1 - x)^((d - i) % 2).
    """
    return _certified("interval", f, tol, _split_interval, NotPsdOnInterval)


def verify_certificate(f, cert):
    """Max coefficient mismatch of F - sum_g g * sum_i G_i G_i^T.

    Pure check; returns the residual without judging it, inf or NaN (and
    no warning) if the reassembly overflows.  F / 4^j is reassembled from
    the factors / 2^j, exactly, j as ``fejer_riesz`` takes it out, and the
    residual scaled back.  All factors, padded by zeros to one length (a
    zero adds only +-0 to a finite sum), are squared by one ``_conv_stack``;
    each square times its generator's coefficients, a zero one masked as in
    ``_weighted_sum`` (0 * inf is no NaN), is summed once, in sigma order.
    """
    gens, j = DOMAINS[cert.variant][1], spectral._quarter_power(f.max_coeff_abs())
    factors = [(gens[key], g.coeffs) for key, gs in cert.sigma.items() for g in gs]
    if (m := next((c.shape[1] for _, c in factors if c.shape[1] != f.n), f.n)) != f.n:
        raise ValueError(f"size mismatch: factor is {m}x{m}, input is {f.n}x{f.n}")
    length, width = max((len(c) for _, c in factors), default=1), max(map(len, gens.values()))
    stack, weights = np.zeros((len(factors), length, f.n, f.n)), np.zeros((width, len(factors)))
    for i, (gen, c) in enumerate(factors):
        stack[i, :len(c)], weights[:len(gen), i] = c, gen
    with np.errstate(over="ignore", invalid="ignore"):
        np.ldexp(stack, -j, out=stack)
        squares = _conv_stack(stack, np.swapaxes(stack, 2, 3))
        terms = np.zeros((len(factors), 2 * length + width - 2, f.n, f.n))
        for i, w in enumerate(weights[:, :, np.newaxis, np.newaxis, np.newaxis]):   # on x^i
            out = terms[:, i:i + 2 * length - 1]
            np.add(out, w * squares, out=out, where=w != 0)
        residual = _maxabs(_padded_sum([np.ldexp(f.coeffs, -2 * j), -np.add.reduce(terms)]))
        return float(np.ldexp(residual, 2 * j))


def _finite_residual(residual):
    """``verify_certificate``'s residual, or a ValueError if the reassembly overflowed float64."""
    if not np.isfinite(residual):
        raise ValueError(f"certificate reassembly overflows float64: residual {residual}")
    return residual


def _power_sum_identities(coeffs, sign):
    """Stacks e_1..e_n, each (len, 1, 1), of k e_k = sum_{i<=k} sign^(i-1) e_{k-i} tr(G^i)."""
    powers = [coeffs]
    for _ in range(coeffs.shape[1] - 1):
        powers.append(_conv_stack(powers[-1], coeffs))
    traces = [np.trace(p, axis1=1, axis2=2)[:, np.newaxis, np.newaxis] for p in powers]
    elem = [np.ones((1, 1, 1))]
    for k in range(1, len(traces) + 1):
        elem.append(_padded_sum([sign ** (i - 1) * _conv_stack(elem[k - i], traces[i - 1])
                                 for i in range(1, k + 1)]) / k)
    return elem[1:]


@np.errstate(over="ignore", invalid="ignore")     # overflows are ValueErrors
def scalarize(g):
    """Scalar constraints with the same solution set as G(x) PSD.

    Returns the signed characteristic-polynomial coefficients
    det(tI - G(x)) = sum_j (-1)^j c_j(x) t^{n-j}: for a symmetric matrix
    all eigenvalues are real, and they are all nonnegative exactly when
    every elementary symmetric function c_j of them is nonnegative.  Newton's
    identities (sign -1) form them from tr(G^k): where that overflows
    float64, c_j is a ValueError naming it, even if c_j itself is finite.
    The same sums at sign +1 on |G|'s entries give each coefficient a
    companion, and c_j's rounding is within gamma_m of it, m = 2 j (2 n
    len(G) + n + 1) (README, "Error model"): trailing coefficients within
    that are stripped, keeping one, but none whose companion overflowed.
    """
    _require_symmetric(g)
    polys, size = [], 2 * (2 * g.n * len(g.coeffs) + g.n + 1)
    for j, (c, comp) in enumerate(zip(_power_sum_identities(g.coeffs, -1.0),
                                      _power_sum_identities(np.abs(g.coeffs), 1.0)), 1):
        _finite_entries(c[np.newaxis], lambda _: f"c_{j}", "overflows float64")
        noise = (np.abs(c) <= j * size * _EPS / (2 - j * size * _EPS) * comp) & (comp < np.inf)
        polys.append(c[:max(np.flatnonzero(~noise), default=0) + 1].ravel())
    return ScalarizedSet(polys=polys, source=g)


def certificate_to_json(cert):
    return {
        "variant": cert.variant,
        "sigma": {key: [matrixpoly_to_json(p) for p in factors]
                  for key, factors in cert.sigma.items()},
        "residual": float(cert.residual),
    }


def certificate_from_json(doc):
    _json_fields(doc, "certificate", "variant", "sigma")
    sigma_doc = doc["sigma"]
    if not isinstance(sigma_doc, dict):
        raise ValueError("field 'sigma' must be an object")
    sigma = {}
    for key, entries in sigma_doc.items():
        if not isinstance(entries, list):
            raise ValueError(f"sigma['{key}'] must be a list of matrix polynomials")
        sigma[key] = []
        for i, entry in enumerate(entries):
            try:
                sigma[key].append(matrixpoly_from_json(entry))
            except ValueError as exc:
                raise ValueError(f"sigma['{key}'][{i}]: {exc}") from None
    residual = doc.get("residual", 0.0)
    if not _json_real(residual):
        raise ValueError("field 'residual' must be a finite number")
    return SosCertificate(doc["variant"], sigma, float(residual))
