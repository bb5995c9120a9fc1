"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and match the module contracts; nothing is
deferred to later calibration.
"""

import time
from fractions import Fraction

import numpy as np

from conftest import (factorable_laurent, rand_measure, rand_psd,
                      rand_symmetric_poly, separated_points)
from matmoments import (AtomicMatrixMeasure, MatrixPoly, build_family,
                        cauchy_schwarz_chain, check_hamburger, check_hausdorff,
                        check_stieltjes, decompose_halfline, decompose_interval,
                        decompose_line, fejer_riesz, forward_moments,
                        integrate_trace, leading_coeff_probe, matmul,
                        operator_check, recover, scalar_poly_mult, scalarize,
                        shift_compress, transpose_poly, verify_certificate)
from matmoments.polymat import _horner


def _report(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}")


def test_criterion_1_spectral_round_trip():
    rng = np.random.default_rng(1001)
    start = time.time()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        band = int(rng.integers(0, 7))
        u, _ = factorable_laurent(rng, n, band, real=bool(rng.integers(0, 2)))
        fac = fejer_riesz(u)
        scale = float(np.max(np.abs(u.coeff(0))))
        assert fac.residual <= 1e-6 * scale
        worst = max(worst, fac.residual / scale)
    elapsed = time.time() - start
    assert elapsed <= 60.0
    _report("1 spectral round trip",
            f"(200 inputs, worst rel residual {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_line_certificates():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        deg_h = int(rng.integers(0, 5))
        h = MatrixPoly(rng.standard_normal((deg_h + 1, n, n)))
        k = MatrixPoly(rng.standard_normal((deg_h + 1, n, n)))
        f = matmul(h, transpose_poly(h)) + matmul(k, transpose_poly(k))
        cert = decompose_line(f)
        assert len(cert.factors("1")) <= 2
        res = verify_certificate(f, cert)
        assert res <= 1e-6
        worst = max(worst, res)
    _report("2 line certificates", f"(100 inputs, worst residual {worst:.2e})")


def test_criterion_3_halfline_and_interval_certificates():
    rng = np.random.default_rng(1003)

    def check_cones(cert, lo, hi):
        for key, factors in cert.sigma.items():
            if not factors:
                continue
            sigma = factors[0].__class__.zero(factors[0].n)
            for p in factors:
                sigma = sigma + matmul(p, transpose_poly(p))
            for x in np.linspace(lo, hi, 50):
                assert np.linalg.eigvalsh(sigma(x))[0] >= -1e-8

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        a = MatrixPoly(rng.standard_normal((int(rng.integers(1, 3)), n, n)))
        b = MatrixPoly(rng.standard_normal((int(rng.integers(1, 3)), n, n)))
        f = matmul(a, transpose_poly(a)) + scalar_poly_mult(
            [0.0, 1.0], matmul(b, transpose_poly(b)))
        cert = decompose_halfline(f)
        res = verify_certificate(f, cert)
        assert res <= 1e-6
        worst = max(worst, res)
        check_cones(cert, 0.0, 1.0 + f.max_coeff_abs())
    for _ in range(50):
        n = int(rng.integers(1, 4))
        parts = []
        for gen in ([1.0], [0.0, 1.0], [1.0, -1.0], [0.0, 1.0, -1.0]):
            c = MatrixPoly(rng.standard_normal((int(rng.integers(1, 3)), n, n)))
            parts.append(scalar_poly_mult(gen, matmul(c, transpose_poly(c))))
        f = parts[0]
        for p in parts[1:]:
            f = f + p
        cert = decompose_interval(f)
        res = verify_certificate(f, cert)
        assert res <= 1e-6
        worst = max(worst, res)
        check_cones(cert, 0.0, 1.0)
    _report("3 halfline/interval certificates", f"(100 inputs, worst residual {worst:.2e})")


def test_criterion_4_moment_criteria_soundness():
    rng = np.random.default_rng(1004)
    classes = [
        ("hamburger", check_hamburger, -2.0, 2.0, None),
        ("stieltjes", check_stieltjes, 0.0, 1.0, -0.5),
        ("hausdorff", check_hausdorff, 0.0, 1.0, 1.5),
    ]
    for name, checker, lo, hi, bad_point in classes:
        for _ in range(100):
            n = int(rng.integers(1, 4))
            mu = rand_measure(rng, n, int(rng.integers(1, 4)), lo, hi)
            assert checker(forward_moments(mu, 10)).passed
        if bad_point is None:
            continue   # the whole line has no exterior point to displace into
        for _ in range(100):
            n = int(rng.integers(1, 4))
            atoms = [(float(x), rand_psd(rng, n, 0.5, 3.0))
                     for x in separated_points(rng, int(rng.integers(1, 4)), lo, hi, 0.05)]
            atoms.append((bad_point, rand_psd(rng, n, 0.5, 3.0)))
            rep = checker(forward_moments(AtomicMatrixMeasure(n, atoms), 10))
            assert not rep.passed
            assert rep.min_eigenvalue <= -1e-4
    _report("4 moment criteria soundness", "(3 classes x 100 pass + 200 displaced fail)")


def test_criterion_5_operator_version_congruence():
    rng = np.random.default_rng(1005)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        mu = rand_measure(rng, n, int(rng.integers(1, 4)), -2.0, 2.0)
        seq = forward_moments(mu, 8)
        assert check_hamburger(seq).passed
        for _ in range(50):
            m = int(rng.integers(0, 5))
            ops = [rng.standard_normal((n, n)) for _ in range(m + 1)]
            rep = operator_check(seq, ops, "hamburger", tol=1e-9)
            assert rep.passed
    _report("5 operator-version check", "(10 measures x 50 tuples)")


def test_criterion_6_recovery_round_trip():
    rng = np.random.default_rng(1006)
    start = time.time()
    worst_x, worst_w = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(1, 6))
        pts = separated_points(rng, r, -2.0, 2.0, 0.1)
        mu = AtomicMatrixMeasure(n, [(float(x), rand_psd(rng, n, 0.5, 3.0)) for x in pts])
        res = recover(forward_moments(mu, 10))
        assert len(res.measure.atoms) == r
        for (x1, w1), (x2, w2) in zip(mu.atoms, res.measure.atoms):
            worst_x = max(worst_x, abs(x1 - x2))
            worst_w = max(worst_w, float(np.linalg.norm(w1 - w2)))
        assert worst_x <= 1e-6 and worst_w <= 1e-6
    elapsed = time.time() - start
    assert elapsed <= 30.0
    _report("6 recovery round trip",
            f"(100 measures, worst position {worst_x:.2e}, worst weight {worst_w:.2e}, "
            f"{elapsed:.1f}s)")


def test_criterion_7_shift_family_replica():
    rng = np.random.default_rng(1007)
    probe_mins = []
    for n_dim in (2, 4, 6):
        fam = build_family(n_dim)
        # compression identity, bit for bit: the rational values correctly
        # rounded, and the explicit product with the superdiagonal shift
        sn = np.eye(n_dim)
        for n in range(n_dim):
            comp = shift_compress(fam, n)
            for i in range(n_dim):
                want3 = Fraction(1, n + i + 1) if i < n_dim - n else Fraction(0)
                want2 = Fraction(-1) if i < n_dim - n else Fraction(0)
                assert comp.coeffs[3][i, i] == float(want3)
                assert comp.coeffs[2][i, i] == float(want2)
            explicit = np.array([sn @ c @ sn.T for c in fam.G.coeffs])
            assert comp.coeffs.tobytes() == explicit.tobytes()
            sn = sn @ np.eye(n_dim, k=1)

        probe = leading_coeff_probe(fam)
        assert abs(probe.min_leading_eigenvalue * n_dim - 1.0) <= 1e-12
        assert probe.all_psd and probe.negative_candidate_excluded
        probe_mins.append(probe.min_leading_eigenvalue)

        for _ in range(20):
            atoms = [(0.0, rand_psd(rng, n_dim))]
            if rng.random() < 0.75:
                atoms.append((float(rng.uniform(n_dim, n_dim + 2)), rand_psd(rng, n_dim)))
            mu = AtomicMatrixMeasure(n_dim, atoms)
            rep = cauchy_schwarz_chain(mu, fam, trials=40, seed=11)
            assert rep.all_hold
            for n in rep.n_values:
                assert rep.rhs[n] == rep.rhs[0] / (n + 1)
            # truncation bound L(Id x^2) <= (1/N) L(Id)^1/2 L(Id x^6)^1/2
            assert rep.final_bound_holds
    _report("7 shift-family replica",
            f"(N in 2,4,6; leading-coefficient minima {['%.3g' % v for v in probe_mins]})")


def test_criterion_8_scalarization_set_equality():
    rng = np.random.default_rng(1008)
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        g = MatrixPoly(rand_symmetric_poly(rng, n, int(rng.integers(0, 5))))
        sc = scalarize(g)
        # the whole grid at once: G by Horner's rule, one batched eigvalsh
        xs = np.linspace(-5.0, 5.0, 1000)
        values = _horner(g.coeffs, xs[:, np.newaxis, np.newaxis])
        w = np.linalg.eigvalsh(0.5 * (values + np.swapaxes(values, 1, 2)))
        s = np.maximum(1.0, np.max(np.abs(w), axis=1))
        in_g = w[:, 0] >= -1e-9 * s
        in_s = np.all([np.polyval(p[::-1], xs) >= -1e-9 * np.maximum(1.0, s ** (j + 1))
                       for j, p in enumerate(sc.polys)], axis=0)
        mismatches += int(np.count_nonzero(in_g != in_s))
    assert mismatches == 0
    _report("8 scalarization set equality", "(50 inputs x 1000 grid points, 0 mismatches)")


def test_criterion_9_duality_smoke_test():
    rng = np.random.default_rng(1009)
    cases = [("halfline", decompose_halfline, 0.0, 4.0, [[1.0], [0.0, 1.0]]),
             ("interval", decompose_interval, 0.0, 1.0,
              [[1.0], [0.0, 1.0], [1.0, -1.0], [0.0, 1.0, -1.0]]),
             ("line", decompose_line, -3.0, 3.0, [[1.0]])]
    count = 0
    while count < 50:
        name, decomposer, lo, hi, gens = cases[count % 3]
        n = int(rng.integers(1, 4))
        f = MatrixPoly.zero(n)
        for gen in gens:
            c = MatrixPoly(rng.standard_normal((int(rng.integers(1, 3)), n, n)))
            f = f + scalar_poly_mult(gen, matmul(c, transpose_poly(c)))
        cert = decomposer(f)
        assert verify_certificate(f, cert) <= 1e-6
        mu = rand_measure(rng, n, int(rng.integers(1, 4)), lo, hi)
        mass = float(np.trace(mu.total_mass()))
        bound = max(float(np.max(np.abs(f(x)))) for x, _ in mu.atoms)
        scale = max(1.0, mass * bound)
        assert integrate_trace(f, mu) >= -1e-8 * scale
        count += 1
    _report("9 duality smoke test", "(50 certificate/measure pairs)")
