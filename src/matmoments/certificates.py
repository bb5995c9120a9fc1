"""Sum-of-hermitian-squares certificates for matrix polynomials.

A symmetric matrix polynomial F that is PSD on the line, the half-line or
the unit interval is decomposed as F = sum_g g * sigma_g, where g ranges
over the domain's cone generators in ``polymat.DOMAINS`` ({1}, {1, x} or
{1, x, 1-x, x(1-x)}), each sigma_g an explicit sum of squares G_i G_i^T.

Every certificate comes from one factorization on the line.  A line
problem G(a) routes through the unit circle: homogenize, expand
G~(cos t, sin t) into a Laurent polynomial in e^{2it} with exact rational
binomial weights, spectrally factor, and split the rotated factor into its
real and imaginary homogeneous parts H and K, giving G = H H^T + K K^T at
(1, a).  Both directions (``_trig_weights``, ``polymat._line_weights``)
read one exact Krawtchouk table up to row order and a phase: rows of
``polymat._binomial_rows``, as are the interval's clearing weights.  The
line takes G = F; the half-line takes G(a) = F(a^2) and the interval
G(a) = (1 + a^2)^d F(a^2 / (1 + a^2)), both even in a: u and its factor
are real, H(a) = R(a^2), K(a) = a Q(a^2), and R and Q go straight onto
their generators.  Each decomposer verifies the finished certificate once
against F.  Only a failure looks further.  On the interval, a factor that
met its target bounds F's least eigenvalue on all of [0, 1] from below by
-B (``_interval_bound``); B <= tol * scale decides the failure without
looking at F.  Otherwise, and always on the line and the half-line, where
the (1 + a^2)^d weight keeps the factor's bound from being uniform, F's
least eigenvalue on the domain, located at the real roots of a
determinant by ``polymat._least_on`` (the locator ``fejer_riesz`` runs
on the circle), decides between the domain's ``NotPsdOn*`` error and the
failure.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import ldexp

import numpy as np

from . import spectral
from .polymat import (DOMAINS, STRIP_TOL, LaurentPoly, MatrixPoly, _binomial_rows,
                      _check_symmetric, _check_tol, _conv_stack, _EPS, _Failure, _finite_entries,
                      _json_fields, _json_real, _least_on, _line_weights, _maxabs, _padded_sum,
                      _strip, _read_only, _times_scalar, _weighted_sum, matrixpoly_from_json,
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
    """Read-only weights i^{-k} s / 2^d of C_k on w^j in _trig_laurent, in column j + d/2.

    s is row k of ``_binomial_rows(d, (-1, 1), (1, 1))``, the coefficients
    of (w - 1)^k (w + 1)^(d-k): the Krawtchouk table of ``_line_weights``
    read on the circle.  Row k // 2 of the first (second) table holds even
    (odd) k, each rounded once: real for even k, imaginary (without the i)
    for odd k, where i^{-k} = (-1)^((k + 1) // 2) i^(k % 2).
    """
    w = np.array([[ldexp((-1) ** ((k + 1) // 2) * s, -d) for s in row[:d // 2 * 2 + 1]]
                  for k, row in enumerate(_binomial_rows(d, (-1, 1), (1, 1)))])
    return _read_only(w[0::2].copy()), _read_only(w[1::2].copy())


def _trig_laurent(c, step=1):
    """Laurent polynomial u with u(e^{2it}) = G~(cos t, sin t), G(a) = C(a^step).

    G~(u, v) = G(v/u) u^deg is the homogenization; the expansion uses
    cos t = (w + 1/w)/2 and sin t = (w - 1/w)/(2i) with the weights of
    ``_trig_weights``, summed in increasing k (``_weighted_sum``).  At step
    2 every k = 2i is even, so u is real.
    """
    even, odd = _trig_weights(step * (len(c) - 1))
    if step == 2:
        return LaurentPoly(_weighted_sum(even, c))
    return LaurentPoly(_weighted_sum(even, c[0::2]) + 1j * _weighted_sum(odd, c[1::2]))


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


def _line_split(u, tol):
    """Stacks H, K with G = H H^T + K K^T, the factorization's failure or None, and the factor.

    u is ``_trig_laurent`` of G, of even degree; G is neither validated nor
    verified here.  A factorization that does not converge leaves its best
    attempt for the reassembly check to judge; on a ``NotPsdOnCircle``, or
    a u or factorization that overflows float64 (a ``ValueError``), H = K = 0.
    The SpectralFactor is returned only when there is no failure.
    """
    factor = pending = None
    try:
        if not np.isfinite(u.coeffs).all():
            raise ValueError("the input's expansion on the circle overflows float64")
        factor = spectral.fejer_riesz(u, tol=min(1e-10, tol / 100))
        b = factor.coeffs
    except spectral.NoConvergence as exc:
        b, pending = exc.best.coeffs, exc
    except ValueError as exc:       # NotPsdOnCircle, or an overflow
        b, pending = np.zeros((u.band + 1, u.n, u.n)), exc
    h, k = _line_factors(b)
    return h, k, pending, factor


def _finish(variant, f, parts, tol, scale, pending, not_psd, bound=None):
    """Certificate of the significant (generator, stripped stacks) parts, verified once.

    A factor whose square (a float product: inf, never an OverflowError)
    contributes at most 1e-3 * tol * scale is gauge noise of the
    factorization and is dropped; each kept one becomes one MatrixPoly.  A
    certificate that passes the reassembly check proves F PSD up to its
    residual.  One that misses raises a ``SosConsistencyError`` at once if
    ``bound`` (a callable, run only here) gives B <= tol * scale, which
    proves F >= -B on the domain.  Otherwise it raises ``not_psd`` at F's
    least eigenvalue on the domain if that is below -tol * scale, else the
    factorization's failure or a ``SosConsistencyError``; a reassembly that
    overflows float64 is a ValueError at once, as in ``momentctl verify``.
    """
    drop, thresh = 1e-3 * tol * scale, tol * scale
    cert = SosCertificate(variant, {key: [MatrixPoly(c) for c in factors
                                          if len(c) * ((m := _maxabs(c)) * m) > drop]
                                    for key, factors in parts})
    cert.residual = _finite_residual(f, cert)
    if not cert.residual <= thresh:
        if bound is None or not bound() <= thresh:      # NaN if the bound overflowed
            worst, x = _least_on(f.coeffs, *not_psd.domain, thresh)
            if worst < -thresh:
                raise not_psd(worst, x) from pending
        if pending is not None and not isinstance(pending, spectral.NotPsdOnCircle):
            raise pending
        raise SosConsistencyError(
            f"reassembly residual {cert.residual:.3e} above tolerance") from pending
    return cert


# the generator g' and the extra power x^j with x g = x^j g', per generator g
_TIMES_X = {"1": ("x", 0), "x": ("1", 1), "1-x": ("x(1-x)", 0), "x(1-x)": ("1-x", 1)}


def _certified(variant, f, tol, split, not_psd):
    """Certificate of F = x^k F~ from ``split(F~, tol)`` = (parts, failure, bound), verified once.

    k counts F's leading coefficients F_0, F_1, ... that are exactly zero,
    its even part on the line, where an odd-degree F is an ``OddDegree``.
    Every factor of F~ is padded by x^(k // 2); for odd k each generator g
    moves to g' with x g = x^j g' (``_TIMES_X``), its factors taking j more x.
    """
    _check_tol(tol, positive=True)
    scale = _require_symmetric(f)
    k = next(i for i, c in enumerate(f.coeffs) if c.any() or i == f.deg)
    if variant == "line":
        if f.deg % 2:
            raise OddDegree(f"degree {f.deg} is odd")
        k -= k % 2
    parts, pending, bound = split(MatrixPoly(f.coeffs[k:]) if k else f, tol)
    if k:
        moved = {}
        for key, factors in parts:
            key, j = _TIMES_X[key] if k % 2 else (key, 0)
            moved[key] = [np.concatenate((np.zeros((k // 2 + j,) + c.shape[1:]), c))
                          for c in factors]
        parts = [(key, moved[key]) for key in DOMAINS[variant][1] if key in moved]
    return _finish(variant, f, parts, tol, scale, pending, not_psd, bound)


def _split_line(f, tol):
    h, k, pending, _ = _line_split(_trig_laurent(f.coeffs), tol)
    return [("1", [h, k])], pending, None


@np.errstate(over="ignore", invalid="ignore")     # overflows are ValueErrors
def decompose_line(f, tol=DEFAULT_TOL):
    """Certificate F = H H^T + K K^T for F PSD on the whole line.

    Requires even degree with PSD leading coefficient; at most two factors
    are emitted.
    """
    return _certified("line", f, tol, _split_line, NotPsdOnLine)


def _split_halfline(f, tol):
    h, k, pending, _ = _line_split(_trig_laurent(f.coeffs, 2), tol)
    return [("1", [_strip(h[0::2])]), ("x", [_strip(k[1::2])])], pending, None


@np.errstate(over="ignore", invalid="ignore")     # overflows are ValueErrors
def decompose_halfline(f, tol=DEFAULT_TOL):
    """Certificate F = sigma_0 + x sigma_1 for F PSD on [0, inf).

    Factors G(a) = F(a^2) on the line; its factor is real, and its parts
    H(a) = R(a^2) and K(a) = a Q(a^2) give R to sigma_0 and Q to sigma_1.
    """
    return _certified("halfline", f, tol, _split_halfline, NotPsdOnHalfLine)


@lru_cache(maxsize=None)
def _clearing_weights(e, sign):
    """Read-only weights of C_k on x^r in sum_k C_k x^k (1 + sign*x)^(e-k), row k."""
    w = np.array(_binomial_rows(e, (0, 1), (1, sign)), dtype=float)
    return _read_only(w.reshape(e + 1, e + 1))     # e = -1: empty


def _clear_substitution(c, d, sign):
    """Stripped stack of sum_k C_k x^k (1 + sign*x)^(d-k), d >= deg C, exact binomials.

    C is cleared at its own degree e, each coefficient summed in increasing
    k (``_weighted_sum``), then multiplied by (1 + sign*x)^(d-e), row 0 of
    ``_clearing_weights(d - e, sign)``.
    """
    e = len(c) - 1
    out = _weighted_sum(_clearing_weights(e, sign), c)
    return _strip(_times_scalar(_clearing_weights(d - e, sign)[0], _strip(out)))


def _interval_bound(f, c, u, factor):
    """B with lambda_min(F(x)) >= -B on all of [0, 1], proven by the factor P of u.

    C = ``_clear_substitution(F, d, +1)`` keeps degree e = u.band, and
    F(sin^2 t) = cos^{2(d-e)} t * u(e^{2it}) exactly, so u on the circle
    bounds F on the whole interval, with no weight.  B has three terms:

    - u - P P* has coefficients below the residual plus rho: u's Hermitian
      defect and gamma * (max|u_k| + ||P||_F^2), the rounding of
      ``_residual``'s sums (Cauchy-Schwarz bounds sum_j |P_{j+k}| |P_j|^T by
      ||P||_F^2).  Over 2e + 1 coefficients: (2e + 1) * n * (residual + rho).
    - The rounding of C and of u's expansion, mapped back to x by the
      weights sin^{2i} cos^{2(d-i)} t, which sum to at most 1:
      n * gamma * (sum_k |F_k| + sum_i s_i |C_i|), |.| the largest entry and
      s_i the absolute sum of C_i's weights in u.
    - n * STRIP_TOL if ``_strip`` dropped a coefficient of C.

    gamma = K eps / (2 - K eps) with K = 2(d + n + 4) covers the d + 1 terms
    of a cleared or expanded coefficient, the residual's complex products
    and band + 1 subtractions, and the rounding of these magnitudes.
    """
    n, d, e = f.n, f.deg, u.band
    k = 2 * (d + n + 4)
    gamma = k * _EPS / (2 - k * _EPS)
    b = factor.coeffs
    weight_sums = np.abs(_trig_weights(2 * e)[0]).sum(axis=1)     # exact: dyadic, <= 1
    rho = u.hermitian_defect() + gamma * (_maxabs(u.coeffs) + np.vdot(b, b).real)
    rounding = gamma * (np.abs(f.coeffs).max(axis=(1, 2)).sum()
                        + weight_sums @ np.abs(c).max(axis=(1, 2)))
    return n * ((2 * e + 1) * (factor.residual + rho) + rounding + (STRIP_TOL if e < d else 0.0))


def _split_interval(f, tol):
    d, half = f.deg, f.deg // 2
    c = _clear_substitution(f.coeffs, d, +1)
    u = _trig_laurent(c, 2)
    h, k, pending, factor = _line_split(u, tol)
    r, q = _strip(h[0::2]), _strip(k[1::2])
    if d % 2 == 0:      # at d = 0, Q is empty, clears empty and is dropped as insignificant
        parts = [("1", [_clear_substitution(r, half, -1)]),
                 ("x(1-x)", [_clear_substitution(q, half - 1, -1)])]
    else:
        parts = [("x", [_clear_substitution(q, half, -1)]),
                 ("1-x", [_clear_substitution(r, half, -1)])]
    # F~ >= -B on [0, 1] bounds F = x^k F~ too
    return parts, pending, None if factor is None else lambda: _interval_bound(f, c, u, factor)


@np.errstate(over="ignore", invalid="ignore")     # overflows are ValueErrors
def decompose_interval(f, tol=DEFAULT_TOL):
    """Four-generator certificate for F PSD on [0, 1].

    Factors G(a) = (1 + a^2)^d F(a^2 / (1 + a^2)) on the line; its factor
    is real, with parts H(a) = R(a^2) and K(a) = a Q(a^2).  R has degree at
    most floor(d/2) and Q at most floor((d-1)/2), so clearing s = x/(1-x)
    sends them straight onto their generators: R to 1 and Q to x(1-x) for
    even d, R to 1-x and Q to x for odd d.
    """
    cert = _certified("interval", f, tol, _split_interval, NotPsdOnInterval)
    cert.sigma = {key: factors for key, factors in cert.sigma.items() if factors}
    return cert


def verify_certificate(f, cert):
    """Max coefficient mismatch of F - sum_g g * sum_i G_i G_i^T.

    Pure check; returns the residual without judging it, inf or NaN (and
    no warning) if the reassembly overflows.  The sum takes MatrixPoly
    arithmetic's steps on stacks, stripped where it builds a MatrixPoly.
    """
    total, gens = np.zeros((1, f.n, f.n)), DOMAINS[cert.variant][1]
    with np.errstate(over="ignore", invalid="ignore"):
        for key, factors in cert.sigma.items():
            for g in factors:
                if g.n != f.n:
                    raise ValueError(f"size mismatch: factor is {g.n}x{g.n}, input is {f.n}x{f.n}")
                square = _strip(_conv_stack(g.coeffs, np.swapaxes(g.coeffs, 1, 2)))
                term = _strip(_times_scalar(gens[key], square))
                total = _strip(_padded_sum([total, term]))
        return _maxabs(_padded_sum([f.coeffs, -total]))


def _finite_residual(f, cert):
    """``verify_certificate``'s residual, or a ValueError if the reassembly overflows float64."""
    residual = verify_certificate(f, cert)
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
