"""Sum-of-hermitian-squares certificates for matrix polynomials.

A symmetric matrix polynomial F that is PSD on the line, the half-line or
the unit interval is decomposed as F = sum_g g * sigma_g, where g ranges
over the domain's cone generators in ``polymat.DOMAINS`` ({1}, {1, x} or
{1, x, 1-x, x(1-x)}), each sigma_g an explicit sum of squares G_i G_i^T.

On the interval, F is cleared once, G(s) = (1 + s)^d F(s / (1 + s)) =
sum_k C_k s^k with exact integer weights: C_k = C(d, k) B_k, B_k F's
Bernstein coefficients at its degree d.  If every C_k is PD, one batched
Cholesky C_k = L_k L_k^T is the certificate, with no factorization
(``_bernstein_parts``; the matrix Polya form, Scherer & Hol, Math.
Program. 107, 2006).  A C_k that is not PD (where F is singular inside
[0, 1], not every B_k is PD: if all are PSD, all are singular), or a
Bernstein certificate that misses the reassembly check, sends the same G
on to the factorization; both put a term s^k of G on x^(k % 2)
(1-x)^((d-k) % 2) (``_PARITY_KEYS``).

Every other certificate comes from one factorization on the line.  A line
problem G(a) routes through the unit circle: homogenize, expand
G~(cos t, sin t) into a Laurent polynomial in e^{2it} with exact rational
binomial weights, spectrally factor, and split the rotated factor into its
real and imaginary homogeneous parts H and K, giving G = H H^T + K K^T at
(1, a).  Each direction is one complex table (``_trig_weights``,
``polymat._line_weights``), real on its even and imaginary on its odd
rows or columns: one exact Krawtchouk table up to row order and a phase,
rows of ``polymat._binomial_rows``, as are the interval's clearing
weights.  The line takes G = F; the half-line takes G(a) = F(a^2) and
the interval its cleared G(a^2), both even in a: u (the table's even
rows) and its factor are real, H(a) = R(a^2), K(a) = a Q(a^2), and R and
Q go straight onto their generators.  Each decomposer is one
``_certified`` call, which finishes once: it drops negligible factors and
empty generators and verifies the split's candidate certificates against
F in turn (on the interval, the Bernstein one first).  Only a failure of
the last looks further.  On the
interval, a factor that met its target bounds F's least eigenvalue on
all of [0, 1] from below by -B (``_interval_bound``); B <= tol * scale
decides the failure without looking at F.  Otherwise, and always on the
line and the half-line, where the (1 + a^2)^d weight keeps the factor's
bound from being uniform, F's least eigenvalue on the domain, located at
the real roots of a determinant by ``polymat._least_on`` (the locator
``fejer_riesz`` runs on the circle), decides between the domain's
``NotPsdOn*`` error and the failure.
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
    """Read-only weights i^{-k} s / 2^d of C_k on w^j in _trig_laurent, row k, column j + d/2.

    s is row k of ``_binomial_rows(d, (-1, 1), (1, 1))``, the coefficients
    of (w - 1)^k (w + 1)^(d-k): the Krawtchouk table of ``_line_weights``,
    read on the circle and built as it is.  i^{-k} = (-1)^((k + 1) // 2)
    i^(k % 2), so even rows are real and odd rows imaginary, each entry
    rounded once.
    """
    signed = np.array([[ldexp((-1) ** ((k + 1) // 2) * s, -d) for s in row[:d // 2 * 2 + 1]]
                       for k, row in enumerate(_binomial_rows(d, (-1, 1), (1, 1)))])
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


# the generator g' and the extra power x^j with x g = x^j g', per generator g
_TIMES_X = {"1": ("x", 0), "x": ("1", 1), "1-x": ("x(1-x)", 0), "x(1-x)": ("1-x", 1)}


@np.errstate(over="ignore", invalid="ignore")     # overflows are ValueErrors
def _certified(variant, f, tol, split, not_psd):
    """Certificate of F = x^k F~ from ``split(F~'s stack, tol)``'s (parts, failure, bound)s.

    k counts F's leading coefficients F_0, F_1, ... that are exactly zero,
    its even part on the line, where an odd-degree F is an ``OddDegree``.
    Every factor of F~ is padded by x^(k // 2); for odd k each generator g
    moves to g' with x g = x^j g' (``_TIMES_X``), its factors taking j more x.
    At k = 0 the padding is empty and no generator moves.  A factor whose
    square (a float product: inf, never an OverflowError) contributes at
    most 1e-3 * tol * scale is gauge noise of the factorization and is
    dropped, and a generator left with no factor is left out of sigma.

    The split yields its candidates in order, and the first whose
    certificate passes the reassembly check is returned: it proves F PSD
    up to its residual.  A candidate that misses or overflows gives way to
    the next; the last one is the one finish.  If it misses, a
    ``SosConsistencyError`` is raised at once if its ``bound`` (a callable,
    run only here) gives B <= tol * scale, which proves F >= -B on the
    domain.  Otherwise ``not_psd`` is raised at F's least eigenvalue on the
    domain if that is below -tol * scale, else the factorization's failure
    or a ``SosConsistencyError``; a reassembly that overflows float64 is a
    ValueError at once, as in ``momentctl verify``.  This is the one
    overflow guard of the decomposers, which do no arithmetic outside it.
    """
    _check_tol(tol, positive=True)
    scale = _require_symmetric(f)
    drop, thresh = 1e-3 * tol * scale, tol * scale
    k = next(i for i, c in enumerate(f.coeffs) if c.any() or i == f.deg)
    if variant == "line":
        if f.deg % 2:
            raise OddDegree(f"degree {f.deg} is odd")
        k -= k % 2
    for parts, pending, bound in split(f.coeffs[k:], tol):
        sigma = {}
        for key, factors in parts:
            key, j = _TIMES_X[key] if k % 2 else (key, 0)
            padded = (np.concatenate((np.zeros((k // 2 + j,) + c.shape[1:]), c)) for c in factors)
            sigma[key] = [MatrixPoly(c) for c in padded if len(c) * ((m := _maxabs(c)) * m) > drop]
        cert = SosCertificate(variant, {key: sigma[key] for key in DOMAINS[variant][1]
                                        if sigma.get(key)})
        cert.residual = verify_certificate(f, cert)
        if cert.residual <= thresh:
            return cert
    _finite_residual(cert.residual)
    if bound is None or not bound() <= thresh:      # NaN if the bound overflowed
        worst, x = _least_on(f.coeffs, *not_psd.domain, thresh)
        if worst < -thresh:
            raise not_psd(worst, x) from pending
    if pending is not None and not isinstance(pending, spectral.NotPsdOnCircle):
        raise pending
    raise SosConsistencyError(
        f"reassembly residual {cert.residual:.3e} above tolerance") from pending


def _split_line(c, tol):
    h, k, pending, _ = _line_split(_trig_laurent(c), tol)
    yield [("1", [h, k])], pending, None


def decompose_line(f, tol=DEFAULT_TOL):
    """Certificate F = H H^T + K K^T for F PSD on the whole line.

    Requires even degree with PSD leading coefficient; at most two factors
    are emitted.
    """
    return _certified("line", f, tol, _split_line, NotPsdOnLine)


def _split_halfline(c, tol):
    h, k, pending, _ = _line_split(_trig_laurent(c, 2), tol)
    yield [("1", [_strip(h[0::2])]), ("x", [_strip(k[1::2])])], pending, None


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


def _clear_substitution(c, d):
    """Stripped stack of sum_k C_k x^k (1 - x)^(d-k), d >= deg C, exact binomials.

    C is cleared at its own degree e, each coefficient summed in increasing
    k (``_weighted_sum``), then multiplied by (1 - x)^(d-e), row 0 of
    ``_clearing_weights(d - e, -1)``.
    """
    e = len(c) - 1
    out = _weighted_sum(_clearing_weights(e, -1), c)
    return _strip(_times_scalar(_clearing_weights(d - e, -1)[0], _strip(out)))


def _interval_bound(f, c, u, factor):
    """B with lambda_min(F(x)) >= -B on all of [0, 1], proven by the factor P of u.

    f is F's coefficient stack, of degree d, and c the cleared stack C of
    ``_split_interval``, G(s) = (1 + s)^d F(s / (1 + s)) = sum_k C_k s^k,
    stripped to degree e = u.band.  F(sin^2 t) = cos^{2(d-e)} t * u(e^{2it})
    exactly, so u on the circle bounds F on the whole interval, with no
    weight.  B has three terms:

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
    d, n, e = len(f) - 1, f.shape[1], u.band
    k = 2 * (d + n + 4)
    gamma = k * _EPS / (2 - k * _EPS)
    b = factor.coeffs
    weight_sums = np.abs(_trig_weights(2 * e)[::2]).sum(axis=1)     # exact: dyadic, <= 1
    rho = u.hermitian_defect() + gamma * (_maxabs(u.coeffs) + np.vdot(b, b).real)
    rounding = gamma * (np.abs(f).max(axis=(1, 2)).sum()
                        + weight_sums @ np.abs(c).max(axis=(1, 2)))
    return n * ((2 * e + 1) * (factor.residual + rho) + rounding + (STRIP_TOL if e < d else 0.0))


# the generator x^(k % 2) (1 - x)^((d - k) % 2) of a term s^k of G, by the two parities
_PARITY_KEYS = {(0, 0): "1", (1, 0): "x", (0, 1): "1-x", (1, 1): "x(1-x)"}


@lru_cache(maxsize=None)
def _bernstein_rows(d):
    """Read-only rows k: x^(k // 2) (1 - x)^((d-k) // 2) on x^0..x^(d // 2), exact integers.

    Row k is a row of ``_clearing_weights(., -1)``, the scalar part of the
    factor of Bernstein term k.
    """
    s = np.zeros((d + 1, d // 2 + 1))
    for k in range(d + 1):
        row = _clearing_weights(k // 2 + (d - k) // 2, -1)[k // 2]
        s[k, :len(row)] = row
    return _read_only(s)


def _bernstein_parts(c):
    """Parts of F = sum_k x^k (1 - x)^(d-k) C_k, C_k = L_k L_k^T; None unless every C_k is PD.

    c is F's cleared stack, of degree d: C_k = C(d, k) B_k, B_k F's
    Bernstein coefficients.  One batched Cholesky factors them all, and
    term k goes to x^(k % 2) (1 - x)^((d-k) % 2) (``_PARITY_KEYS``) with
    the factor x^(k // 2) (1 - x)^((d-k) // 2) L_k (``_bernstein_rows``),
    all of them one broadcast product.
    """
    d = len(c) - 1
    try:        # an overflowed C_k gives an inf or NaN factor, which the reassembly refuses
        chol = np.linalg.cholesky(c)
    except np.linalg.LinAlgError:       # a C_k that is not PD
        return None
    parts = {}
    for k, factor in enumerate(_bernstein_rows(d)[:, :, np.newaxis, np.newaxis]
                               * chol[:, np.newaxis]):
        parts.setdefault(_PARITY_KEYS[k % 2, (d - k) % 2], []).append(factor)
    return parts.items()


def _split_interval(f, tol):
    d = len(f) - 1
    c = _weighted_sum(_clearing_weights(d, +1), f)      # G(s) = sum_k C_k s^k
    parts = _bernstein_parts(c)
    if parts is not None:
        yield parts, None, None
    c = _strip(c)
    u = _trig_laurent(c, 2)
    h, k, pending, factor = _line_split(u, tol)
    # G = R R^T + s Q Q^T, R and Q the terms s^0 and s^1.  At d = 0, Q is empty,
    # clears empty and is dropped as insignificant
    r, q = _strip(h[0::2]), _strip(k[1::2])
    parts = [(_PARITY_KEYS[0, d % 2], [_clear_substitution(r, d // 2)]),
             (_PARITY_KEYS[1, (d - 1) % 2], [_clear_substitution(q, (d - 1) // 2)])]
    # F~ >= -B on [0, 1] bounds F = x^k F~ too
    yield parts, pending, None if factor is None else lambda: _interval_bound(f, c, u, factor)


def decompose_interval(f, tol=DEFAULT_TOL):
    """Four-generator certificate for F PSD on [0, 1].

    F is cleared once, G(s) = (1 + s)^d F(s / (1 + s)) = sum_k C_k s^k,
    C_k = C(d, k) B_k with B_k F's Bernstein coefficients.  If every C_k =
    L_k L_k^T is PD, term k of F = sum_k x^k (1-x)^(d-k) C_k is one square
    on x^(k % 2) (1-x)^((d-k) % 2), up to d + 1 factors in all.  Otherwise,
    or if that certificate misses, G(a^2) is factored on the line: its real
    factor gives G = R R^T + s Q Q^T, and R and Q, the terms s^0 and s^1,
    go by the same rule, cleared at degrees floor(d/2) and floor((d-1)/2).
    """
    return _certified("interval", f, tol, _split_interval, NotPsdOnInterval)


def verify_certificate(f, cert):
    """Max coefficient mismatch of F - sum_g g * sum_i G_i G_i^T.

    Pure check; returns the residual without judging it, inf or NaN (and
    no warning) if the reassembly overflows.  Each generator's factors,
    padded by zeros to one length, are squared by one batched
    ``_conv_stack``; a zero coefficient adds only +-0 to each finite
    product's sum, so every square is bit for bit its own factor's.  The
    sum takes MatrixPoly arithmetic's steps on stacks, factor by factor,
    stripped where it builds a MatrixPoly.
    """
    total, gens = np.zeros((1, f.n, f.n)), DOMAINS[cert.variant][1]
    with np.errstate(over="ignore", invalid="ignore"):
        for key, factors in cert.sigma.items():
            for g in factors:
                if g.n != f.n:
                    raise ValueError(f"size mismatch: factor is {g.n}x{g.n}, input is {f.n}x{f.n}")
            stack = np.zeros((len(factors), max((len(g.coeffs) for g in factors), default=1),
                              f.n, f.n))
            for row, g in zip(stack, factors):
                row[:len(g.coeffs)] = g.coeffs
            for square in _conv_stack(stack, np.swapaxes(stack, 2, 3)):
                term = _strip(_times_scalar(gens[key], _strip(square)))
                total = _strip(_padded_sum([total, term]))
        return _maxabs(_padded_sum([f.coeffs, -total]))


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
