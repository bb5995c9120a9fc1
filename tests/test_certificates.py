"""Certificate construction, verification and scalarization."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import entrywise_reassembly, rand_psd, rand_symmetric_poly
from matmoments import certificates, polymat, spectral
from matmoments import (LaurentPoly, MatrixPoly, NotPsdOnHalfLine, NotPsdOnInterval,
                        NotPsdOnLine, OddDegree, SosCertificate,
                        certificate_from_json, certificate_to_json,
                        decompose_halfline, decompose_interval, decompose_line,
                        matmul, scalar_poly_mult, scalarize, transpose_poly,
                        verify_certificate)
from matmoments.polymat import DOMAINS
from matmoments.shiftgap import build_family
from test_bit_identity import _corpus, _square, _times


def scalar_poly(*coeffs):
    return MatrixPoly.from_scalar(list(map(float, coeffs)))


def sos_input(rng, n, deg_h, generators):
    """Random F = sum_g g * A_g A_g^T over the given generator coefficient lists."""
    from matmoments import scalar_poly_mult
    total = MatrixPoly.zero(n)
    for gen in generators:
        a = MatrixPoly(rng.standard_normal((deg_h + 1, n, n)))
        total = total + scalar_poly_mult(gen, matmul(a, transpose_poly(a)))
    return total


def test_line_two_square_identity():
    cert = decompose_line(scalar_poly(1, 0, 1))    # 1 + x^2
    assert len(cert.factors("1")) <= 2
    assert cert.residual <= 1e-10
    degs = sorted(p.deg for p in cert.factors("1"))
    assert degs == [0, 1]


def test_line_matrix_example():
    f = MatrixPoly([[[1.0, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 0]]],
                   symmetric=True)
    cert = decompose_line(f)
    assert cert.residual <= 1e-8
    assert entrywise_reassembly(f, cert) <= 1e-8


def test_line_rejects_negative_constant():
    # reported at a finite point, no longer at x = inf for the leading coefficient
    report = _not_psd_report(decompose_line, MatrixPoly.constant(-np.eye(2), symmetric=True))
    assert report.min_eigenvalue == -1.0


def test_line_rejects_odd_degree():
    with pytest.raises(OddDegree):
        decompose_line(scalar_poly(0, 1))


def test_halfline_linear():
    cert = decompose_halfline(scalar_poly(0, 1))   # F(t) = t
    assert not cert.factors("1")
    (q,) = cert.factors("x")
    assert q.deg == 0 and abs(q.coeffs[0][0, 0]) == pytest.approx(1.0, abs=1e-6)
    assert cert.residual <= 1e-10


def test_halfline_square():
    cert = decompose_halfline(scalar_poly(1, -2, 1))   # (t-1)^2
    assert cert.residual <= 1e-8


def test_halfline_block_diagonal():
    f = MatrixPoly([[[0.0, 0], [0, 1]], [[1, 0], [0, 0]]], symmetric=True)
    cert = decompose_halfline(f)
    assert cert.residual <= 1e-8

    def reassemble(factors):
        total = MatrixPoly.zero(2)
        for p in factors:
            total = total + matmul(p, transpose_poly(p))
        return total

    # sigma_0 covers the constant diag(0,1) block, sigma_1 the diag(1,0) one
    assert np.allclose(reassemble(cert.factors("1"))(0.0), np.diag([0.0, 1.0]), atol=1e-7)
    assert np.allclose(reassemble(cert.factors("x"))(0.0), np.diag([1.0, 0.0]), atol=1e-7)


def test_halfline_rejects_negative():
    with pytest.raises(NotPsdOnHalfLine):
        decompose_halfline(scalar_poly(-1))


def test_interval_generator_sorting():
    cert = decompose_interval(scalar_poly(0, 1, -1))    # x(1-x)
    assert set(cert.sigma) == {"x(1-x)"}
    (p,) = cert.factors("x(1-x)")
    assert abs(p.coeffs[0][0, 0]) == pytest.approx(1.0, abs=1e-6)

    cert2 = decompose_interval(scalar_poly(0, 1))       # x
    assert set(cert2.sigma) == {"x"}


def test_interval_block_diagonal():
    f = MatrixPoly([[[0.0, 0], [0, 1]], [[1, 0], [0, -1]]], symmetric=True)
    cert = decompose_interval(f)
    assert cert.residual <= 1e-8
    assert entrywise_reassembly(f, cert) <= 1e-8


def test_interval_rejects_negative():
    with pytest.raises(NotPsdOnInterval):
        decompose_interval(scalar_poly(0.5, -1))   # 1/2 - x < 0 at x = 1


def test_verify_certificate_frozen_values():
    f = scalar_poly(1, 0, 1)
    cert = SosCertificate("line", {"1": [scalar_poly(0, 1), scalar_poly(1)]})
    assert verify_certificate(f, cert) == 0.0

    fm = MatrixPoly([[[1.0, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 0]]])
    h = MatrixPoly([[[0.0, 1], [1, 0]], [[1, 0], [0, 0]]])
    assert verify_certificate(fm, SosCertificate("line", {"1": [h]})) == 0.0

    # dropping the constant factor leaves the constant term missing
    assert verify_certificate(f, SosCertificate("line", {"1": [scalar_poly(0, 1)]})) == 1.0


@pytest.mark.parametrize("at", [1, 2])
def test_verify_certificate_propagates_nan(at):
    # the per-degree max used to drop a NaN coefficient and report 0.0
    coeffs = [[[1.0]], [[2.0]], [[1.0]]]
    coeffs[at] = [[np.nan]]
    cert = SosCertificate("line", {"1": [scalar_poly(1, 1)]})
    assert np.isnan(verify_certificate(MatrixPoly(coeffs), cert))


def test_verify_certificate_size_mismatch():
    f = scalar_poly(1)
    cert = SosCertificate("line", {"1": [MatrixPoly.constant(np.eye(2))]})
    with pytest.raises(ValueError, match="size mismatch"):
        verify_certificate(f, cert)


def test_line_certificate_cap():
    with pytest.raises(ValueError, match="at most two"):
        SosCertificate("line", {"1": [scalar_poly(1)] * 3})


@pytest.mark.parametrize("domain,decomposer,gens", [
    ("line", decompose_line, [[1.0]]),
    ("halfline", decompose_halfline, [[1.0], [0.0, 1.0]]),
    ("interval", decompose_interval, [[1.0], [0.0, 1.0], [1.0, -1.0], [0.0, 1.0, -1.0]]),
])
def test_soundness_on_random_inputs(domain, decomposer, gens):
    rng = np.random.default_rng(hash(domain) % 2**32)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        f = sos_input(rng, n, int(rng.integers(0, 3)), gens)
        scale = max(1.0, f.max_coeff_abs())
        cert = decomposer(f)
        assert cert.variant == domain
        assert cert.residual <= 1e-8 * scale
        assert entrywise_reassembly(f, cert) <= 2e-8 * scale
        if domain in ("line", "halfline"):
            assert all(len(factors) <= 2 for factors in cert.sigma.values())


def test_halfline_deep_degree_pipeline():
    # degree-8 input doubles to a degree-16 line problem (band 8 upstream)
    rng = np.random.default_rng(505)
    a = MatrixPoly(rng.standard_normal((5, 2, 2)))
    f = matmul(a, transpose_poly(a))      # PSD on all of R, in particular [0, inf)
    cert = decompose_halfline(f)
    scale = max(1.0, f.max_coeff_abs())
    assert cert.residual <= 1e-7 * scale
    assert all(len(factors) <= 2 for factors in cert.sigma.values())


def test_reassembled_cones_are_psd_on_grid():
    rng = np.random.default_rng(101)
    f = sos_input(rng, 2, 2, [[1.0], [0.0, 1.0]])
    cert = decompose_halfline(f)
    for key, factors in cert.sigma.items():
        if not factors:
            continue
        sigma = MatrixPoly.zero(2)
        for p in factors:
            sigma = sigma + matmul(p, transpose_poly(p))
        for x in np.linspace(0.0, 3.0, 50):
            assert np.linalg.eigvalsh(sigma(x))[0] >= -1e-8


def test_scalarize_diagonal_example():
    g = MatrixPoly([[[0.0, 0], [0, 1]], [[1, 0], [0, 0]]], symmetric=True)
    sc = scalarize(g)
    assert np.allclose(sc.polys[0], [1.0, 1.0])   # trace: x + 1
    assert np.allclose(sc.polys[1], [0.0, 1.0])   # determinant: x
    for x in np.linspace(-5, 5, 101):
        member_g = np.linalg.eigvalsh(g(x))[0] >= -1e-9
        member_s = all(np.polyval(p[::-1], x) >= -1e-9 for p in sc.polys)
        assert member_g == member_s


def test_scalarize_scalar_case():
    g = scalar_poly(2, 0, -1)
    sc = scalarize(g)
    assert len(sc.polys) == 1
    assert np.allclose(sc.polys[0], [2.0, 0.0, -1.0])


def test_scalarize_shift_family_truncation():
    # diag(x^3 - x^2, x^3/2 - x^2): constraint set on [-5, 5] is {0} u [2, 5]
    g = build_family(2).G
    sc = scalarize(g)
    xs = np.linspace(-5, 5, 1001)
    members = []
    for x in xs:
        v = g(x)
        s = max(1.0, np.max(np.abs(np.linalg.eigvalsh(v))))
        ok = all(np.polyval(p[::-1], x) >= -1e-9 * max(1.0, s ** (j + 1))
                 for j, p in enumerate(sc.polys))
        members.append(ok)
    expected = [(abs(x) < 1e-12) or (x >= 2.0) for x in xs]
    assert members == expected


def test_scalarize_set_equality_random():
    rng = np.random.default_rng(303)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        g = MatrixPoly(rand_symmetric_poly(rng, n, int(rng.integers(0, 5))))
        sc = scalarize(g)
        for x in np.linspace(-5, 5, 200):
            w = np.linalg.eigvalsh(0.5 * (g(x) + g(x).T))
            s = max(1.0, np.max(np.abs(w)))
            member_g = w[0] >= -1e-9 * s
            member_s = all(np.polyval(p[::-1], x) >= -1e-9 * max(1.0, s ** (j + 1))
                           for j, p in enumerate(sc.polys))
            assert member_g == member_s


def test_scalarize_strips_the_rounding_noise_of_every_c_j():
    # G = A A^T with A = A_0 + x A_1 and A_1 of rank one: each c_j, a sum of squared
    # j x j minors of A (Cauchy-Binet), has degree 2, yet 197 of these 300 draws
    # kept a c_j of 4 to 9 coefficients, rounding noise on top
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 5))
        s = 10.0 ** rng.uniform(-1.0, 2.0)
        a0 = s * rng.standard_normal((n, n))
        a1 = s * np.outer(rng.standard_normal(n), rng.standard_normal(n))
        g = np.stack([a0 @ a0.T, a0 @ a1.T + a1 @ a0.T, a1 @ a1.T])
        polys = scalarize(MatrixPoly(0.5 * (g + np.swapaxes(g, 1, 2)))).polys
        assert [len(p) for p in polys] == [3] * n


def test_scalarize_strips_no_coefficient_whose_companion_overflows():
    # G = diag(a (1 + x - x^2), a / 16), a^2 = 5e307: c_2 = a^2 (1 + x - x^2) / 16 is
    # finite, but the companions of its x to x^3 coefficients overflow, so the strip
    # stops at x^3, an exact zero, and leaves -a^2 / 16 on x^2 in place
    a = np.sqrt(5e307)
    g = np.zeros((3, 2, 2))
    g[:, 0, 0], g[0, 1, 1] = a * np.array([1.0, 1.0, -1.0]), a / 16
    c2 = scalarize(MatrixPoly(g)).polys[1]
    assert len(c2) == 4
    assert np.allclose(c2, a * a / 16 * np.array([1.0, 1.0, -1.0, 0.0]), rtol=1e-12, atol=0.0)


def test_scalarize_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        scalarize(MatrixPoly([[[0.0, 1], [0, 0]]]))


def test_certificate_json_round_trip():
    cert = decompose_halfline(scalar_poly(1, 1))
    doc = certificate_to_json(cert)
    back = certificate_from_json(doc)
    assert back.variant == cert.variant
    f = scalar_poly(1, 1)
    assert verify_certificate(f, back) == pytest.approx(cert.residual, abs=1e-12)
    with pytest.raises(ValueError, match="variant"):
        certificate_from_json({"variant": "circle", "sigma": {}})


# Loop versions of the expansion weights, the substitution and the
# verification, as they were before the weights were tabulated and the
# stages moved onto stacks, and copies of the two polynomial helpers the
# cascade took, a -> a^2 and the parity split.  The rewritten code must
# reproduce them bit for bit; the cascade reference below uses them.

_I_POW = {0: (1, 0), 1: (0, 1), 2: (-1, 0), 3: (0, -1)}


def _square_argument_loop(p):
    """P(a^2), each coefficient added onto a zero, so a -0.0 entry becomes +0.0."""
    out = np.zeros((2 * p.deg + 1, p.n, p.n))
    for k in range(p.deg + 1):
        out[2 * k] += 1.0 * p.coeffs[k]
    return MatrixPoly(out)


def _even_odd_split_loop(p):
    """(R, Q) with P(a) = R(a^2) + a Q(a^2)."""
    return MatrixPoly(p.coeffs[0::2]), MatrixPoly(p.coeffs[1::2]) if p.deg else MatrixPoly.zero(p.n)


def _trig_laurent_loop(f):
    d = f.deg
    nh = d // 2
    n = f.n
    coeffs = np.zeros((2 * nh + 1, n, n), dtype=np.complex128)
    denom = Fraction(1, 2**d)
    for j in range(-nh, nh + 1):
        acc_re = np.zeros((n, n))
        acc_im = np.zeros((n, n))
        for k in range(d + 1):
            s = 0
            for a in range(max(0, nh + j - (d - k)), min(k, nh + j) + 1):
                s += (-1) ** (k - a) * comb(k, a) * comb(d - k, nh + j - a)
            if s == 0:
                continue
            pre, pim = _I_POW[(-k) % 4]
            w = s * denom
            if pre:
                acc_re += float(pre * w) * f.coeffs[k]
            if pim:
                acc_im += float(pim * w) * f.coeffs[k]
        coeffs[j + nh] = acc_re + 1j * acc_im
    return coeffs


def _line_factors_loop(b_stack):
    nh = b_stack.shape[0] - 1
    n = b_stack.shape[1]
    h = np.zeros((nh + 1, n, n))
    k_mat = np.zeros((nh + 1, n, n))
    for e in range(nh + 1):
        gamma = np.zeros((n, n), dtype=np.complex128)
        for k in range(nh + 1):
            w = 0j
            for a in range(max(0, e - (nh - k)), min(k, e) + 1):
                b = e - a
                pre, pim = _I_POW[((k - a) - (nh - k - b)) % 4]
                w += comb(k, a) * comb(nh - k, b) * (pre + 1j * pim)
            if w != 0:
                gamma += w * b_stack[k]
        h[nh - e] = gamma.real
        k_mat[nh - e] = gamma.imag
    return MatrixPoly(h), MatrixPoly(k_mat)


def _clear_substitution_loop(p, d, sign):
    e = p.deg
    out = np.zeros((e + 1, p.n, p.n))
    for k in range(e + 1):
        for j in range(e - k + 1):
            out[k + j] += comb(e - k, j) * (sign ** j) * p.coeffs[k]
    return scalar_poly_mult([comb(d - e, j) * float(sign) ** j for j in range(d - e + 1)],
                            MatrixPoly(out))


def _significant_poly(factors, tol, scale):
    drop = 1e-3 * tol * scale
    return [p for p in factors if (p.deg + 1) * p.max_coeff_abs() ** 2 > drop]


def _certificate_sum_poly(n, cert):
    total, gens = MatrixPoly.zero(n), DOMAINS[cert.variant][1]
    for key, factors in cert.sigma.items():
        for g in factors:
            total = total + scalar_poly_mult(gens[key], matmul(g, transpose_poly(g)))
    return total


def _verify_certificate_poly(f, cert):
    total = _certificate_sum_poly(f.n, cert)
    diff = np.zeros((max(f.deg, total.deg) + 1, f.n, f.n))
    diff[:f.deg + 1] = f.coeffs
    diff[:total.deg + 1] -= total.coeffs
    return float(np.max(np.abs(diff)))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", range(1, 7))
def test_trig_laurent_matches_loop_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    for d in range(0, 35, 2):
        coeffs = rng.standard_normal((d + 1, n, n)) * rng.uniform(0.1, 10.0, (d + 1, 1, 1))
        # signed zeros must come out with the same signs
        coeffs[rng.random(coeffs.shape) < 0.2] = 0.0
        coeffs[rng.random(coeffs.shape) < 0.1] = -0.0
        # and whole coefficients zero, which the expansion skips
        coeffs[rng.random(d + 1) < 0.3] = rng.choice([0.0, -0.0])
        coeffs[-1] += 3.0 * np.eye(n)      # keep the degree d
        f = MatrixPoly(coeffs)
        # compared in u's field: float64 where no coefficient has an imaginary part (d = 0)
        ref = _trig_laurent_loop(f)
        ref = ref if ref.imag.any() else ref.real
        assert _same_bits(certificates._trig_laurent(f.coeffs).coeffs, ref), d


def test_line_factors_match_loop_bit_for_bit():
    rng = np.random.default_rng(7)
    for nh in range(18):
        for n in (1, 3, 6):
            b = rng.standard_normal((nh + 1, n, n)) + 1j * rng.standard_normal((nh + 1, n, n))
            h, k = certificates._line_factors(b)
            h_ref, k_ref = _line_factors_loop(b)
            assert _same_bits(h, h_ref.coeffs), (nh, n)
            assert _same_bits(k, k_ref.coeffs), (nh, n)


def test_clear_substitution_matches_loop_bit_for_bit():
    rng = np.random.default_rng(31)
    stripped = 0
    for trial in range(300):
        n, e = int(rng.integers(1, 5)), int(rng.integers(0, 11))
        d, sign = e + int(rng.integers(0, 4)), int(rng.choice([-1, 1]))
        c = rng.standard_normal((e + 1, n, n)) * rng.uniform(0.1, 10.0, (e + 1, 1, 1))
        c[rng.random(c.shape) < 0.2] = rng.choice([0.0, -0.0])
        c[-1] += 3.0 * np.eye(n)
        if trial % 2 and e:
            # the cleared top coefficient sum_k sign^(e-k) C_k cancels to
            # rounding, so the cleared polynomial is stripped before the
            # (1 + sign*x)^(d-e) factor
            c[0] = -np.tensordot(float(sign) ** np.arange(1, e + 1), c[1:], axes=1)
        p = MatrixPoly(c)
        want = _clear_substitution_loop(p, d, sign).coeffs
        assert _same_bits(certificates._clear_substitution(p.coeffs, d, sign), want), trial
        stripped += want.shape[0] < d + 1
    assert stripped > 50


def _even_degree_input(n, deg, psd, seed):
    """Symmetric F of degree deg: A A^T + x B B^T, PSD on [0, inf), or random and indefinite."""
    rng = np.random.default_rng(seed)
    if not psd:
        f = rng.standard_normal((deg + 1, n, n))
        return 0.5 * (f + np.swapaxes(f, 1, 2))
    f = _square(rng, n, deg // 2)
    f[1:deg] += _square(rng, n, deg // 2 - 1)
    return f


def _natural_halfline_draw():
    # F = A A^T, A = default_rng(6).standard_normal((9, 2, 2)): its half-line G polishes
    f = _square(np.random.default_rng(6), 2, 8)
    return 0.5 * (f + np.swapaxes(f, 1, 2))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(f=st.builds(_even_degree_input, n=st.integers(1, 4),
                   deg=st.integers(1, 6).map(lambda h: 2 * h), psd=st.booleans(),
                   seed=st.integers(0, 2**32 - 1)))
@example(f=_natural_halfline_draw())
def test_the_half_line_and_the_interval_factor_in_real_arithmetic(f):
    # G(a) = F(a^2) and its cleared interval form expand to a real u, whose factor,
    # best attempt or zeros stay float64, so H has no odd and K no even coefficient
    d = len(f) - 1
    for c in (f, certificates._clear_substitution(f, d, +1)):
        u = certificates._trig_laurent(c, 2)
        assert u.coeffs.dtype == np.float64
        h, k, pending, factor = certificates._line_split(u, certificates.DEFAULT_TOL)
        if factor is not None:
            assert factor.coeffs.dtype == np.float64
        if isinstance(pending, spectral.NoConvergence):
            assert pending.best.coeffs.dtype == np.float64
        assert h.dtype == k.dtype == np.float64
        assert not h[1::2].any() and not k[0::2].any()


def _verify_cases(rng):
    """Certificates whose sums strip at every point MatrixPoly arithmetic strips."""
    for trial in range(240):
        n, variant = int(rng.integers(1, 4)), ("line", "halfline", "interval")[trial % 3]
        sigma = {}
        for key in DOMAINS[variant][1]:
            sigma[key] = []
            for _ in range(int(rng.integers(0, 3 if variant != "line" else 2))):
                c = rng.standard_normal((int(rng.integers(1, 6)), n, n))
                kind = int(rng.integers(0, 3))
                if kind == 1:       # G G^T has a top coefficient below STRIP_TOL
                    c[-1] *= 1e-8
                elif kind == 2:     # a tiny constant: g * G G^T strips to degree 0
                    c = 1e-8 * c[:1]
                sigma[key].append(MatrixPoly(c))
        if variant == "interval" and trial % 2:
            # A A^T and x(1-x) B B^T with B's top next to A's cancel at the
            # top degree, so the running sum strips
            a = rng.standard_normal((int(rng.integers(2, 6)), n, n))
            b = a[1:] * (1.0 + rng.choice([0.0, 1e-16, 3e-16]))
            sigma["1"].append(MatrixPoly(a))
            sigma["x(1-x)"].append(MatrixPoly(b))
        cert = SosCertificate(variant, sigma)
        # against its own sum every bit of the stack sum shows in the residual
        f = (_certificate_sum_poly(n, cert) if rng.random() < 0.5
             else MatrixPoly(rng.standard_normal((int(rng.integers(1, 12)), n, n))))
        yield f, cert


def test_verify_certificate_matches_polynomial_arithmetic():
    rng = np.random.default_rng(37)
    for f, cert in _verify_cases(rng):
        assert _same_bits(verify_certificate(f, cert), _verify_certificate_poly(f, cert))


_NOT_PSD = {decompose_line: NotPsdOnLine, decompose_halfline: NotPsdOnHalfLine,
            decompose_interval: NotPsdOnInterval}


def _assert_located(report, f, exc):
    """``report`` is ``exc`` at a finite point of its domain, with F's least eigenvalue there."""
    assert type(report) is exc
    a, b = exc.domain
    assert np.isfinite(report.at_x) and a <= report.at_x <= b
    with np.errstate(all="ignore"):
        v = f(report.at_x)
    assert _same_bits(report.min_eigenvalue, np.linalg.eigvalsh(0.5 * v + 0.5 * v.T)[0])
    assert report.min_eigenvalue < -certificates.DEFAULT_TOL * max(1.0, f.max_coeff_abs())


def _not_psd_report(decomposer, f):
    with np.errstate(all="ignore"), pytest.raises(certificates._NotPsdOnDomain) as info:
        decomposer(f)
    _assert_located(info.value, f, _NOT_PSD[decomposer])
    return info.value


def _not_psd_sweep():
    rng = np.random.default_rng(2024)
    cases = []
    for decomposer in (decompose_line, decompose_halfline, decompose_interval):
        for n in (1, 2, 4, 6):
            for deg in (2, 4, 8, 16):
                coeffs = rand_symmetric_poly(rng, n, deg)
                a = rng.standard_normal((n, n))
                coeffs[-1] = a @ a.T + 0.1 * np.eye(n)     # PSD leading coefficient
                # negative near x = 0, which every domain contains
                coeffs[0] -= (np.linalg.norm(coeffs[0], 2) + rng.uniform(0.1, 2.0)) * np.eye(n)
                cases.append((decomposer, MatrixPoly(coeffs, symmetric=True)))
        cases.append((decomposer, MatrixPoly.constant(-np.eye(3), symmetric=True)))
        cases.append((decomposer, _overflowing(decomposer)))
    return cases


def _overflowing(decomposer):
    """F negative somewhere whose value overflows at other points the check evaluates.

    The overflowed values give NaN eigenvalues, which must never be taken
    for the least one.  On the interval the substitution of the line
    problem overflows as well.
    """
    if decomposer is decompose_interval:
        # -0.1 + x + x^2, scaled to the top of the float range
        coeffs = np.zeros((3, 2, 2))
        coeffs[:, 0, 0] = [-1e307, 1e308, 1e308]
        coeffs[0, 1, 1] = 1.0
    else:
        # x^15 (x - 1e20), which overflows between its roots 0 and 1e20
        coeffs = np.zeros((17, 2, 2))
        coeffs[16] = np.eye(2)
        coeffs[15, 0, 0] = -1e20
    return MatrixPoly(coeffs, symmetric=True)


def test_not_psd_reports_match_the_loop():
    # each report re-evaluated on its own, point by point: the domain's
    # class, a finite point of the domain and F's least eigenvalue there
    for decomposer, f in _not_psd_sweep():
        _not_psd_report(decomposer, f)


@pytest.mark.parametrize("decomposer,a,b", [(decompose_halfline, 0.0, 2.0),
                                            (decompose_interval, 0.0, 1.0)])
def test_grid_tie_reports_first_point(decomposer, a, b):
    # constant -I: every located point attains -1, and the first one, the
    # start a of the domain, is reported
    report = _not_psd_report(decomposer, MatrixPoly.constant(-np.eye(2), symmetric=True))
    assert report.min_eigenvalue == -1.0
    assert report.at_x == a < b


@pytest.mark.parametrize("decomposer,exc,negative", [
    (decompose_line, NotPsdOnLine, lambda x: 0 < x < 1e20),
    (decompose_halfline, NotPsdOnHalfLine, lambda x: 0 < x < 1e20),
    (decompose_interval, NotPsdOnInterval, lambda x: x < (np.sqrt(1.4) - 1) / 2)])
def test_grid_overflow_is_never_the_worst_point(decomposer, exc, negative, monkeypatch):
    # the domain's locator, polymat._least_on, looks _least_eigenvalue up in polymat
    seen, least = [], polymat._least_eigenvalue

    def least_eigenvalue(values):
        seen.append(np.linalg.eigvalsh(0.5 * (values + np.swapaxes(values, 1, 2)))[:, 0])
        return least(values)
    monkeypatch.setattr(polymat, "_least_eigenvalue", least_eigenvalue)
    f = _overflowing(decomposer)
    report = _not_psd_report(decomposer, f)
    assert np.isnan(np.concatenate(seen)).any()
    assert type(report) is exc and np.isfinite(report.min_eigenvalue) and negative(report.at_x)


def test_grid_values_that_overflow_never_reach_eigvalsh():
    # F(x) near the float maximum overflows to +-inf at the outer grid
    # points, where eigvalsh may not converge: 9 of these 40 inputs ended in
    # LinAlgError ("Eigenvalues did not converge") in place of a located point
    for seed in range(40):
        a = MatrixPoly(np.random.default_rng(seed).standard_normal((2, 3, 3)))
        c = matmul(a, transpose_poly(a)).coeffs.copy()
        c[0] -= 0.5 * np.abs(c).max() * np.eye(3)
        _not_psd_report(decompose_line, MatrixPoly(1e305 / np.abs(c).max() * c))


def test_a_dip_to_minus_the_float_maximum_on_the_line_is_located():
    # diag(-1e308, 1e308) + x^2 I: formed as (v + v^T)/2, the Hermitian part
    # of F(0) overflowed to a NaN eigenvalue, and the decomposition ended in
    # SosConsistencyError ("reassembly residual 1.000e+308 above tolerance")
    f = MatrixPoly([np.diag([-1e308, 1e308]), np.zeros((2, 2)), np.eye(2)])
    with pytest.raises(NotPsdOnLine) as info:
        decompose_line(f)
    _assert_located(info.value, f, NotPsdOnLine)
    assert info.value.min_eigenvalue == -1e308
    assert info.value.at_x == pytest.approx(0.0, abs=1e-12)


def test_halfline_dip_between_grid_points_is_located():
    # (x - 0.89)^2 - 0.002 is negative only on (0.845, 0.935), between the
    # points of the grid check this replaced: it ended in NoConvergence
    # with best residual 0.449
    report = _not_psd_report(decompose_halfline, scalar_poly(0.7901, -1.78, 1))
    assert report.min_eigenvalue == pytest.approx(-0.002, rel=1e-9)
    assert report.at_x == pytest.approx(0.89, rel=1e-9)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("fn", [decompose_line, decompose_halfline, decompose_interval, scalarize])
def test_non_finite_coefficients_are_rejected(fn, bad):
    f = MatrixPoly([[[1.0]], [[0.0]], [[bad]]])
    with pytest.raises(ValueError, match="non-finite"):
        fn(f)


@pytest.mark.parametrize("decomposer,size", [(decompose_halfline, 1e307),
                                             (decompose_interval, 1e306)])
def test_huge_inputs_never_overflow_the_drop_test(decomposer, size):
    # the drop test squared factor entries beyond ~1.3e154 with float **,
    # which raised OverflowError in place of an outcome; a reassembly that
    # overflowed then ended in SosConsistencyError ("residual nan") on these
    # PSD inputs.  Each ends in a certificate that verifies, or in the
    # ValueError naming the overflow, without a warning.
    rng = np.random.default_rng(5)
    for _ in range(3):
        a = MatrixPoly(rng.standard_normal((3, 2, 2)))
        c = size * matmul(a, transpose_poly(a)).coeffs
        f = MatrixPoly(0.5 * (c + np.swapaxes(c, 1, 2)), symmetric=True)
        try:
            cert = decomposer(f)
        except ValueError as exc:
            assert type(exc) is ValueError and "overflows float64" in str(exc), exc
        else:
            scale = max(1.0, f.max_coeff_abs())
            assert verify_certificate(f, cert) <= certificates.DEFAULT_TOL * scale


# Inputs negative only near x = 0, negative only beyond x = 1000 on the
# half-line, and negative only below x = 1e-7 on the interval: their
# decomposition fails, and the located error names the domain.
@pytest.mark.parametrize("decomposer,exc,coeffs", [
    (decompose_line, NotPsdOnLine, (-1, 0, 1, 0, 0, 0, 100)),
    (decompose_halfline, NotPsdOnHalfLine, (-0.01, 0, 0, 100)),
    (decompose_halfline, NotPsdOnHalfLine, (1, 1, -1e-3)),
    (decompose_interval, NotPsdOnInterval, (-1e-4, 1e3)),   # negative only below 1e-7
])
def test_circle_failures_name_the_domain(decomposer, exc, coeffs):
    f = scalar_poly(*coeffs)
    assert type(_not_psd_report(decomposer, f)) is exc


@pytest.mark.parametrize("decomposer,exc,x", [
    (decompose_line, NotPsdOnLine, np.tan(np.pi / 3)),
    (decompose_halfline, NotPsdOnHalfLine, np.tan(np.pi / 3) ** 2),
    (decompose_interval, NotPsdOnInterval, np.sin(np.pi / 3) ** 2),
])
def test_circle_angle_maps_to_the_domain(decomposer, exc, x, monkeypatch):
    # a = tan(angle/2), and x = a, a^2 or a^2/(1+a^2) on the three domains.
    # A NotPsdOnCircle never escapes a decomposer: F is PSD on the domain,
    # at x too, so the faked one at that angle is a SosConsistencyError;
    # F - 3 is negative on [0, 0.76], so there it is the domain's error
    def fail_at(u, tol):
        raise spectral.NotPsdOnCircle(-1.0, 2 * np.pi / 3)
    monkeypatch.setattr(spectral, "fejer_riesz", fail_at)
    f = scalar_poly(2, -1, 3)
    assert f(x)[0, 0] > 0
    with pytest.raises(certificates.SosConsistencyError) as info:
        decomposer(f)
    assert isinstance(info.value.__cause__, spectral.NotPsdOnCircle)
    assert type(_not_psd_report(decomposer, scalar_poly(-1, -1, 3))) is exc


@pytest.mark.parametrize("decomposer", [decompose_line, decompose_halfline, decompose_interval])
def test_a_factorization_that_does_not_converge_leaves_its_best_to_the_check(decomposer,
                                                                          monkeypatch):
    # the reassembly check judges the best attempt of a factorization that
    # missed its target: the true factor certifies F = 1 + x^2, and a zero
    # one re-raises the NoConvergence, as F is PSD on every domain
    factor, zero = spectral.fejer_riesz, []

    def no_convergence(u, tol):
        best = factor(u, tol)
        if zero:
            best = spectral.SpectralFactor(0 * best.coeffs, 1.0, 0.0, best.toeplitz_order)
        raise spectral.NoConvergence(best)
    monkeypatch.setattr(spectral, "fejer_riesz", no_convergence)
    f = scalar_poly(1, 0, 1)
    assert verify_certificate(f, decomposer(f)) <= 1e-10
    zero.append(True)
    with pytest.raises(spectral.NoConvergence) as info:
        decomposer(f)
    assert info.value.best.residual == 1.0


class _Located(Exception):
    pass


def _refuse(*args):
    raise _Located


def test_certificates_that_verify_never_locate(monkeypatch):
    # a verified certificate proves F PSD, and the digest's four misses are
    # interval inputs whose factor bounds F on [0, 1], so nothing locates
    monkeypatch.setattr(certificates, "_least_on", _refuse)
    decompose = {"line": decompose_line, "halfline": decompose_halfline,
                 "interval": decompose_interval}
    outcomes = []
    for domain, f in _corpus():
        try:
            decompose[domain](MatrixPoly(0.5 * (f + np.swapaxes(f, 1, 2)), symmetric=True))
            outcomes.append("certificate")
        except _Located:
            outcomes.append("located")
        except certificates.SosConsistencyError:
            outcomes.append("inconsistent")
    assert outcomes.count("certificate") == 50 and outcomes.count("located") == 0
    assert outcomes.count("inconsistent") == 4


def _interval_input(rng, n, deg):
    """The benchmark's interval F: A A^T + x(1-x) B B^T + x C C^T + (1-x) D D^T, symmetrized."""
    h = deg // 2
    f = _square(rng, n, h)
    for gen in ([0.0, 1.0, -1.0], [0.0, 1.0], [1.0, -1.0]):
        part = _times(gen, _square(rng, n, h - 1))
        f[:len(part)] += part
    return MatrixPoly(0.5 * (f + np.swapaxes(f, 1, 2)), symmetric=True)


@pytest.mark.parametrize("make, n, d, seed", [
    ("sos", 1, 16, 0), ("sos", 3, 12, 1), ("sos", 4, 14, 0), ("sos", 5, 16, 0),
    *[("bench", n, d, 0) for n, d in ((2, 12), (3, 16), (4, 12), (6, 12), (6, 16))]])
def test_interval_misses_are_decided_by_their_factor(make, n, d, seed, monkeypatch):
    # inputs PSD on [0, 1] whose monomial reassembly misses: the factor's
    # bound B <= tol * scale decides the SosConsistencyError unlocated.
    # ("sos", 3, 12, 1) missed by a hair and now certifies (residual 9.5e-9
    # of 1e-8 * scale): the independent reassembly must accept it at the
    # certificate's own tolerance
    monkeypatch.setattr(certificates, "_least_on", _refuse)
    rng = np.random.default_rng([n, d, seed])
    f = (sos_of_degree(rng, n, d, _GENS["interval"]) if make == "sos"
         else _interval_input(rng, n, d))
    if (make, n, d, seed) == ("sos", 3, 12, 1):
        cert = decompose_interval(f)
        assert entrywise_reassembly(f, cert) <= certificates.DEFAULT_TOL * max(1.0, f.max_coeff_abs())
        return
    with pytest.raises(certificates.SosConsistencyError, match="reassembly residual") as info:
        decompose_interval(f)
    assert info.value.__cause__ is None


# The three-level cascade the certificates used to take: decompose_interval
# cleared x = s/(1+s) and called decompose_halfline, which substituted
# s = a^2 and called decompose_line, each level validating, gating and
# verifying on its own.  The flat pipeline must return its certificates bit
# for bit.  It is compared on PSD inputs only, so it runs no PSD check.

def _ref_raise(pending, what):
    if pending is not None:
        raise pending
    raise certificates.SosConsistencyError(what)


def _ref_line(ff, tol=certificates.DEFAULT_TOL):
    scale = max(1.0, ff.max_coeff_abs())
    try:
        fac, pending = spectral.fejer_riesz(LaurentPoly(_trig_laurent_loop(ff)),
                                            tol=min(1e-10, tol / 100.0)), None
    except spectral.NoConvergence as exc:
        fac, pending = exc.best, exc
    h, k = _line_factors_loop(fac.coeffs)
    cross = matmul(k, transpose_poly(h)) - matmul(h, transpose_poly(k))
    if cross.max_coeff_abs() > 1e-8 * scale:
        _ref_raise(pending, "cross term")
    cert = SosCertificate("line", {"1": _significant_poly((h, k), tol, scale)})
    cert.residual = _verify_certificate_poly(ff, cert)
    if cert.residual > tol * scale:
        _ref_raise(pending, "line reassembly")
    return cert


def _ref_halfline(ff, tol=certificates.DEFAULT_TOL):
    scale = max(1.0, ff.max_coeff_abs())
    inner = _ref_line(_square_argument_loop(ff), tol)
    sig0, sig1 = [], []
    for p in inner.factors("1"):
        r, q = _even_odd_split_loop(p)
        sig0.append(r)
        sig1.append(q)
    cert = SosCertificate("halfline", {"1": _significant_poly(sig0, tol, scale),
                                       "x": _significant_poly(sig1, tol, scale)})
    cert.residual = _verify_certificate_poly(ff, cert)
    if cert.residual > tol * scale:
        _ref_raise(None, "half-line reassembly")
    return cert


def _ref_interval(ff, tol=certificates.DEFAULT_TOL):
    scale = max(1.0, ff.max_coeff_abs())
    d = ff.deg
    inner = _ref_halfline(_clear_substitution_loop(ff, d, +1), tol)
    sigma = {key: [] for key in ("1", "x", "1-x", "x(1-x)")}
    for key, odd in (("1", 0), ("x", 1)):
        for p in inner.factors(key):
            extra = d - odd - 2 * p.deg
            pulled = _clear_substitution_loop(p, p.deg, -1)
            one_minus_x = [comb(extra // 2, j) * (-1.0) ** j for j in range(extra // 2 + 1)]
            pulled = scalar_poly_mult(one_minus_x, pulled)
            sigma[(key, "1-x" if key == "1" else "x(1-x)")[extra % 2]].append(pulled)
    sigma = {key: _significant_poly(val, tol, scale) for key, val in sigma.items()}
    cert = SosCertificate("interval", {key: val for key, val in sigma.items() if val})
    cert.residual = _verify_certificate_poly(ff, cert)
    if cert.residual > tol * scale:
        _ref_raise(None, "interval reassembly")
    return cert


_GENS = {"line": [[1.0]], "halfline": [[1.0], [0.0, 1.0]],
         "interval": [[1.0], [0.0, 1.0], [1.0, -1.0], [0.0, 1.0, -1.0]]}
_DECOMPOSE = {"line": (decompose_line, _ref_line), "halfline": (decompose_halfline, _ref_halfline),
              "interval": (decompose_interval, _ref_interval)}


def sos_of_degree(rng, n, d, generators):
    """Random F = sum_g g * A_g A_g^T of degree at most d, each A_g as long as fits."""
    total = MatrixPoly.zero(n)
    for gen in generators:
        if len(gen) - 1 <= d:
            a = MatrixPoly(rng.standard_normal(((d - len(gen) + 1) // 2 + 1, n, n)))
            total = total + scalar_poly_mult(gen, matmul(a, transpose_poly(a)))
    return total


def _outcome(decompose, f):
    try:
        return decompose(f)
    except (certificates.SosConsistencyError, spectral.NoConvergence) as exc:
        return exc


def _assert_same_certificate(got, want):
    if isinstance(want, Exception):
        # one gate now decides, and re-raises the factorization's NoConvergence
        assert isinstance(got, (certificates.SosConsistencyError, spectral.NoConvergence)), got
        return
    assert isinstance(got, SosCertificate), got
    assert list(got.sigma) == list(want.sigma)
    for key in want.sigma:
        assert len(got.sigma[key]) == len(want.sigma[key])
        for p, q in zip(got.sigma[key], want.sigma[key]):
            assert _same_bits(p.coeffs, q.coeffs), key
    assert _same_bits(got.residual, want.residual)


@pytest.mark.parametrize("domain", ["line", "halfline", "interval"])
@pytest.mark.parametrize("n", range(1, 7))
def test_flat_pipeline_matches_the_cascade_bit_for_bit(domain, n):
    rng = np.random.default_rng([n, len(domain)])
    decompose, reference = _DECOMPOSE[domain]
    for d in range(2 if domain == "line" else 1, 17, 2 if domain == "line" else 1):
        f = sos_of_degree(rng, n, d, _GENS[domain])
        assert f.deg == d
        want = _outcome(reference, f)
        _assert_same_certificate(_outcome(decompose, f), want)
        # the same input with its top coefficients dropped to zero
        padded = np.concatenate([f.coeffs, np.zeros((2, n, n))])
        _assert_same_certificate(_outcome(decompose, MatrixPoly(padded)), want)
        if domain == "interval":
            # F(1) = 0 drops the top degree of G, so factors fall short of
            # their generator's degree
            f = sos_of_degree(rng, n, d, [[1.0, -1.0], [0.0, 1.0, -1.0]])
            _assert_same_certificate(_outcome(decompose, f), _outcome(reference, f))


_PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)
_DRAWS = dict(domain=st.sampled_from(sorted(_GENS)), n=st.integers(1, 6), d=st.integers(1, 16),
              seed=st.integers(0, 2**32 - 1))


def _draw(domain, n, d, seed):
    """A PSD-by-construction input of degree at most d on the domain."""
    if domain == "line":
        d -= d % 2
    return sos_of_degree(np.random.default_rng(seed), n, d, _GENS[domain])


@_PROPERTY
@given(**_DRAWS)
def test_returned_certificates_reassemble(domain, n, d, seed):
    f = _draw(domain, n, d, seed)
    cert = _outcome(_DECOMPOSE[domain][0], f)
    if isinstance(cert, SosCertificate):
        assert entrywise_reassembly(f, cert) <= 1e-6 * max(1.0, f.max_coeff_abs())


@_PROPERTY
@given(**_DRAWS)
def test_non_psd_inputs_raise_their_own_domain_error(domain, n, d, seed):
    # shifting C_0 below its least eigenvalue makes F(0) indefinite, and
    # x = 0 lies in every domain
    f = _draw(domain, n, d, seed)
    c0 = f.coeffs[0]
    shift = np.linalg.eigvalsh(c0)[0] + 0.01 * max(1.0, f.max_coeff_abs())
    coeffs = np.array(f.coeffs)
    coeffs[0] -= shift * np.eye(n)
    exc = {"line": NotPsdOnLine, "halfline": NotPsdOnHalfLine, "interval": NotPsdOnInterval}
    with pytest.raises(certificates._NotPsdOnDomain) as info:
        _DECOMPOSE[domain][0](MatrixPoly(coeffs))
    assert type(info.value) is exc[domain]


def _grid_minimum(c, domain, points=4001):
    """Least eigenvalue of the stack C's polynomial on ``points`` points spanning the domain."""
    ts = np.linspace(0.0, 1.0, points)
    xs = {"line": np.tan(np.pi * (ts[1:-1] - 0.5)), "halfline": np.tan(0.5 * np.pi * ts[:-1]) ** 2,
          "interval": ts}[domain]
    values = np.zeros((len(xs),) + c.shape[1:])
    for ck in c[::-1]:
        values = values * xs[:, np.newaxis, np.newaxis] + ck
    return np.linalg.eigvalsh(values)[:, 0].min()


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(domain=st.sampled_from(sorted(_GENS)), n=st.integers(1, 4), half=st.integers(1, 6),
       depth=st.floats(-5.0, -2.0), seed=st.integers(0, 2**32 - 1))
def test_inputs_that_dip_below_zero_are_located(domain, n, half, depth, seed):
    # G(x) G(x)^T, shifted so that its least eigenvalue on the domain (on a
    # grid, so at least as deep in truth) is -10^depth * max|coeff|
    g = np.random.default_rng(seed).standard_normal((half + 1, n, n))
    c = np.zeros((2 * half + 1, n, n))
    for i in range(half + 1):
        for j in range(half + 1):
            c[i + j] += g[i] @ g[j].T
    c = 0.5 * (c + np.swapaxes(c, 1, 2))
    c[0] -= (_grid_minimum(c, domain) + 10.0 ** depth * np.abs(c).max()) * np.eye(n)
    f = MatrixPoly(c, symmetric=True)
    decomposer = _DECOMPOSE[domain][0]
    try:
        cert = decomposer(f)
    except certificates._NotPsdOnDomain as report:
        _assert_located(report, f, _NOT_PSD[decomposer])
    else:
        assert entrywise_reassembly(f, cert) <= 1e-6 * max(1.0, f.max_coeff_abs())


# The bound's soundness on the interval.  The dips are built as in
# test_inputs_that_dip_below_zero_are_located, whose source stays as it is:
# a derandomized property draws its examples from a digest of its source.

def _interval_dip(n, half, depth, seed):
    g = np.random.default_rng(seed).standard_normal((half + 1, n, n))
    c = np.zeros((2 * half + 1, n, n))
    for i in range(half + 1):
        for j in range(half + 1):
            c[i + j] += g[i] @ g[j].T
    c = 0.5 * (c + np.swapaxes(c, 1, 2))
    c[0] -= (_grid_minimum(c, "interval") + 10.0 ** depth * np.abs(c).max()) * np.eye(n)
    return MatrixPoly(c, symmetric=True)


def _checked_bound(f, tol=certificates.DEFAULT_TOL):
    """decompose_interval's bound B on F, held against F on 2001 points of [0, 1].

    None where the factorization fails, so no bound exists.
    """
    c = certificates._clear_substitution(f.coeffs, f.deg, +1)
    u = certificates._trig_laurent(c, 2)
    *_, factor = certificates._line_split(u, tol)
    if factor is None:
        return None
    bound = certificates._interval_bound(f, c, u, factor)
    assert _grid_minimum(f.coeffs, "interval", points=2001) >= -bound
    return bound


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n=st.integers(1, 6), d=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_interval_bound_holds_on_psd_inputs(n, d, seed):
    _checked_bound(_draw("interval", n, d, seed))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n=st.integers(1, 4), half=st.integers(1, 6), depth=st.floats(-5.0, -2.0),
       seed=st.integers(0, 2**32 - 1))
def test_interval_bound_never_proves_a_dip_psd(n, half, depth, seed):
    f = _interval_dip(n, half, depth, seed)
    bound = _checked_bound(f)
    assert bound is None or bound > certificates.DEFAULT_TOL * max(1.0, f.max_coeff_abs())
    with pytest.raises(NotPsdOnInterval):
        decompose_interval(f)


@pytest.mark.parametrize("eps", [1e-13, 1e-12, 1e-11])
def test_interval_bound_covers_a_shallow_dip(eps):
    # (x - 1/2)^2 - eps dips below zero by less than the factorization's
    # target, so the factor exists and its bound must reach the dip
    f = scalar_poly(0.25 - eps, -1, 1)
    assert _checked_bound(f) is not None
    assert _grid_minimum(f.coeffs, "interval", points=2001) < 0


def test_scalarize_names_a_coefficient_whose_power_sums_overflow():
    # det G = 1e200 - x^2 is finite, but Newton's identities form tr(G^2) =
    # 1e400 on the way: c_2 came back [nan, 0, -1] with a warning
    g = MatrixPoly([[[1e200, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
    with pytest.raises(ValueError, match=r"^c_2 overflows float64$"):
        scalarize(g)


# F = x^k G: the decomposers certify G = F / x^k and pad its factors by
# x^(k // 2).  On the half-line G(a) = F(a^2) had a zero of order 2k at
# a = 0, which the doubling met only through the Newton polish, if at all.

def _polish_refused(*args, **kwargs):
    raise AssertionError("the Newton polish ran")


def _times_x(k, c):
    """x^k C(x), symmetrized, with exactly zero coefficients below x^k."""
    f = np.concatenate([np.zeros((k,) + c.shape[1:]), c])
    return MatrixPoly(0.5 * (f + np.swapaxes(f, 1, 2)), symmetric=True)


@pytest.mark.parametrize("n, deg", [(4, 1), (5, 6)])
def test_x_squared_times_a_square_certifies_on_the_half_line(n, deg, monkeypatch):
    # x^2 A A^T ended in NoConvergence at n = 4 (best residual 1.0e-8) and
    # certified at n = 5 only after seconds of the Newton polish
    monkeypatch.setattr(spectral, "_newton_refine", _polish_refused)
    f = _times_x(2, _square(np.random.default_rng(1), n, deg))
    cert = decompose_halfline(f)
    assert entrywise_reassembly(f, cert) <= certificates.DEFAULT_TOL * max(1.0, f.max_coeff_abs())


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(domain=st.sampled_from(sorted(_GENS)), k=st.integers(1, 4), n=st.integers(1, 4),
       d=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_a_power_of_x_adds_no_newton_polish(domain, k, n, d, seed):
    # G is a sum over the domain's generators (two squares on the line), so
    # PSD there by construction, and x^k G (x^(k + k % 2) on the line)
    # certifies without the polish, as G does
    gens = [[1.0], [1.0]] if domain == "line" else _GENS[domain]
    g = _times_x(0, sos_of_degree(np.random.default_rng(seed), n, d, gens).coeffs)
    f = _times_x(k + k % 2 if domain == "line" else k, g.coeffs)
    decompose = _DECOMPOSE[domain][0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_newton_refine", _polish_refused)
        decompose(g)
        cert = decompose(f)
    assert list(cert.sigma) == [key for key in DOMAINS[domain][1] if key in cert.sigma]
    assert entrywise_reassembly(f, cert) <= certificates.DEFAULT_TOL * max(1.0, f.max_coeff_abs())


@pytest.mark.parametrize("domain, seed, d", [("halfline", 68278, 4), ("interval", 1, 3)])
def test_definite_inputs_certify_without_the_polish(domain, seed, d, monkeypatch):
    # the doubling's updates grew once below _STALL (2.4e-3 then 3.7e-3 of
    # ||H||, and 6.1e-4 then 9.5e-4), which ended the solve near a residual
    # of 1e-6; left to run, the next steps converge quadratically
    monkeypatch.setattr(spectral, "_newton_refine", _polish_refused)
    f = sos_of_degree(np.random.default_rng(seed), 1, d, _GENS[domain])
    cert = _DECOMPOSE[domain][0](f)
    assert entrywise_reassembly(f, cert) <= certificates.DEFAULT_TOL * max(1.0, f.max_coeff_abs())


def test_an_odd_power_of_x_is_not_psd_on_the_line():
    # x^3 (P + x Q) with P, Q positive definite: the line takes out x^2 only,
    # and locates F's own dip, left of 0
    rng = np.random.default_rng(3)
    f = _times_x(3, np.array([rand_psd(rng, 2), rand_psd(rng, 2)]))
    assert _not_psd_report(decompose_line, f).at_x < 0
