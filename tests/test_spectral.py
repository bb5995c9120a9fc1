"""Spectral factorization: worked scalar cases, residual oracle, round trips."""

import numpy as np
import pytest

import test_bit_identity
from hypothesis import given, settings, strategies as st

from conftest import SINGULAR_INPUTS, factorable_laurent, laurent_from_factor, scalar_laurent
from matmoments import (LaurentPoly, MatrixPoly, NoConvergence, NotPsdOnCircle,
                        decompose_halfline, fejer_riesz, laurent_from_json, laurent_to_json,
                        polymat, spectral, verify_factor)
from matmoments.spectral import DEFAULT_TOL


def test_scalar_singular_example():
    # 2 + z + 1/z = (1+z)(1+1/z): spectral zero at z = -1
    u = scalar_laurent(1, 2, 1)
    fac = fejer_riesz(u)
    assert fac.residual <= 1e-10
    assert fac.deg == 1
    # factor coefficients approach (1, 1) up to phase
    mags = np.abs(fac.coeffs).ravel()
    assert np.allclose(mags, [1.0, 1.0], atol=1e-3)


def test_constant_identity():
    u = LaurentPoly(np.eye(2, dtype=complex)[np.newaxis])
    fac = fejer_riesz(u)
    assert fac.residual <= 1e-12
    assert np.allclose(fac.coeffs[0], np.eye(2), atol=1e-10)


def test_block_diagonal_singular():
    coeffs = np.zeros((3, 2, 2), dtype=complex)
    coeffs[0] = np.diag([1.0, 0.0])
    coeffs[1] = np.diag([2.0, 1.0])
    coeffs[2] = np.diag([1.0, 0.0])
    fac = fejer_riesz(LaurentPoly(coeffs))
    assert fac.residual <= 1e-10


# Spectral zeros on the circle with A_0 and R_e definite: the doubling
# converges linearly, without the retry.  The other inputs are singular on
# the whole circle (A_0 or R_e singular) and need the u + delta*I retry.
DIRECT_SOLVES = {"double zero (1+z)^2 (1+1/z)^2", "(I - z^2 I) n=2"}


@pytest.mark.parametrize("name", list(SINGULAR_INPUTS))
def test_singular_inputs_take_the_shifted_retry(name):
    # each input takes its pinned path, direct or shifted retry, and with the
    # Newton polish must still meet the default target
    u = SINGULAR_INPUTS[name]
    fac = fejer_riesz(u)
    scale = max(1.0, np.max(np.abs(u.coeff(0))))
    assert fac.residual <= DEFAULT_TOL * scale
    assert (fac.epsilon_used > 0.0) == (name not in DIRECT_SOLVES)
    assert fac.toeplitz_order == u.n * u.band
    assert verify_factor(u, fac) == fac.residual


def companion_radius(b):
    """Largest |lambda| of the block companion of B_0^{-1} B_1, ..., B_0^{-1} B_deg.

    Its eigenvalues are the inverses of the zeros of det P(z); a
    minimum-phase factor has them all in the closed unit disk.
    """
    deg, n = b.shape[0] - 1, b.shape[1]
    if deg == 0:
        return 0.0
    comp = np.eye(n * deg, k=-n, dtype=complex)
    comp[:n] = -np.linalg.solve(b[0], np.concatenate(list(b[1:]), axis=1))
    return np.max(np.abs(np.linalg.eigvals(comp)))


def test_doubling_factor_is_minimum_phase_and_canonical():
    rng = np.random.default_rng(47)
    for n in range(1, 7):
        for band in range(17):
            for real in (True, False):
                u, _ = factorable_laurent(rng, n, band, real=real)
                fac = fejer_riesz(u)
                scale = max(1.0, np.max(np.abs(u.coeff(0))))
                assert fac.residual <= 1e-12 * scale, (n, band, real)
                assert fac.epsilon_used == 0.0
                b0 = fac.coeffs[0]
                assert np.all(np.triu(b0, 1) == 0)
                assert np.all(np.diag(b0).imag == 0) and np.all(np.diag(b0).real > 0)
                assert companion_radius(fac.coeffs) <= 1 + 1e-8, (n, band, real)
    # the Newton polish does not keep B_0 triangular; the zeros stay outside
    for name, u in SINGULAR_INPUTS.items():
        assert companion_radius(fejer_riesz(u).coeffs) <= 1 + 1e-8, name


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(n=st.integers(1, 6), band=st.integers(0, 16), real=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_factorable_inputs_factor_on_target_by_doubling(n, band, real, seed):
    # the doubling alone meets the target on P P* for a random P, and its
    # factor is minimum phase
    u, _ = factorable_laurent(np.random.default_rng(seed), n, band, real=real)
    fac = fejer_riesz(u)
    assert fac.residual <= DEFAULT_TOL * max(1.0, np.max(np.abs(u.coeff(0))))
    assert fac.epsilon_used == 0.0
    assert companion_radius(fac.coeffs) <= 1 + 1e-8


class _GridChecked(Exception):
    pass


def test_factors_on_target_skip_the_circle_grid(monkeypatch):
    # a factor that meets its target proves the precondition, so inputs that
    # factor never run the circle locator: neither here nor in the digest corpus
    def refuse(*args):
        raise _GridChecked
    monkeypatch.setattr(spectral, "_least_on", refuse)
    monkeypatch.setattr(spectral, "_least_eigenvalue", refuse)
    rng = np.random.default_rng(67)
    for n in range(1, 7):
        for band in range(17):
            u, _ = factorable_laurent(rng, n, band, real=(n + band) % 2 == 0)
            fac = fejer_riesz(u)
            assert fac.residual <= DEFAULT_TOL * max(1.0, np.max(np.abs(u.coeff(0))))
    test_bit_identity.test_certificate_digest_is_unchanged()


@pytest.mark.parametrize("u,solve", [
    (scalar_laurent(1.01, 2, 1.01), "raises"),              # the doubling hits its step cap
    (scalar_laurent(1.1, 1j, 2, -1j, 1.1), "misses"),       # residual 2.6e3
], ids=["raises", "misses"])
def test_not_psd_inputs_skip_the_retry_and_the_polish(u, solve, monkeypatch):
    # the locator runs once the direct solve fails, before the shifted retry
    # and the Newton polish, and reports an angle of the dip
    outcomes, factor = [], spectral._riccati_factor

    def direct(*args):
        try:
            b = factor(*args)
        except np.linalg.LinAlgError:
            outcomes.append("raises")
            raise
        outcomes.append("misses" if spectral._residual(args[0], b) > DEFAULT_TOL else "meets")
        return b

    def polish(*args, **kwargs):
        raise AssertionError("Newton polish reached")
    monkeypatch.setattr(spectral, "_riccati_factor", direct)
    monkeypatch.setattr(spectral, "_newton_refine", polish)
    with pytest.raises(NotPsdOnCircle) as info:
        fejer_riesz(u)
    assert outcomes == [solve]
    _assert_located(info.value, u, DEFAULT_TOL)


def test_doubling_failure_reaches_the_shifted_retry(monkeypatch):
    rng = np.random.default_rng(53)
    u, _ = factorable_laurent(rng, 3, 4)
    scale = max(1.0, np.max(np.abs(u.coeff(0))))
    calls = []
    solve = spectral._doubling

    def fail_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("singular W")
        return solve(*args)

    monkeypatch.setattr(spectral, "_doubling", fail_once)
    fac = fejer_riesz(u)
    assert len(calls) == 2
    assert fac.epsilon_used == spectral.RETRY_SHIFT * scale
    assert fac.residual <= DEFAULT_TOL * scale

    # hitting the step cap is a breakdown too: both solves raise here
    monkeypatch.setattr(spectral, "_doubling", solve)
    monkeypatch.setattr(spectral, "_MAX_DOUBLINGS", 1)
    with pytest.raises(NoConvergence) as info:
        fejer_riesz(u)
    assert info.value.best.epsilon_used == spectral.RETRY_SHIFT * scale


def test_non_finite_doubling_iterate_reaches_the_shifted_retry(monkeypatch):
    rng = np.random.default_rng(59)
    u, _ = factorable_laurent(rng, 3, 4, real=True)
    scale = max(1.0, np.max(np.abs(u.coeff(0))))
    solve, calls = spectral._doubling, []

    def poison_once(a, g, h):
        calls.append(which)
        if len(calls) == 1:
            bad = [np.array(v) for v in (a, g, h)]
            bad[which][0, -1] = value
            # a non-finite A or G shows one step later, in the update or W,
            # not after the step cap
            with pytest.raises(np.linalg.LinAlgError, match="non-finite|[Ss]ingular") as info, \
                    np.errstate(all="ignore"):
                solve(*bad)
            raise info.value
        return solve(a, g, h)

    monkeypatch.setattr(spectral, "_doubling", poison_once)
    for which in range(3):
        for value in (np.nan, np.inf):
            calls.clear()
            with np.errstate(all="ignore"):
                fac = fejer_riesz(u)
            assert len(calls) == 2, (which, value)
            assert fac.epsilon_used == spectral.RETRY_SHIFT * scale
            assert fac.residual <= DEFAULT_TOL * scale


def _residual_coeffs_loop(a_stack, b):
    band = (a_stack.shape[0] - 1) // 2
    out = np.zeros((max(band + 1, b.shape[0]),) + b.shape[1:], dtype=np.complex128)
    out[:band + 1] = a_stack[band:]
    for k in range(b.shape[0]):
        for j in range(b.shape[0] - k):
            out[k] -= b[j + k] @ b[j].conj().T
    return out


def test_residual_coeffs_match_loop_bit_for_bit():
    rng = np.random.default_rng(61)
    for n in range(1, 7):
        for band in range(9):
            for deg in sorted({band, max(0, band - 2), band + 2}):
                for real in (True, False):
                    u, _ = factorable_laurent(rng, n, band, real=real)
                    b = rng.standard_normal((deg + 1, n, n))
                    if not real:
                        b = b + 1j * rng.standard_normal((deg + 1, n, n))
                    b = b.astype(np.complex128)
                    got = spectral._residual_coeffs(u.coeffs, b)
                    want = _residual_coeffs_loop(u.coeffs, b)
                    assert got.tobytes() == want.tobytes(), (n, band, deg, real)
                    assert got.shape == want.shape


def test_not_psd_on_circle():
    # z + 1/z = 2 cos t is negative at t = pi
    with pytest.raises(NotPsdOnCircle):
        fejer_riesz(scalar_laurent(1, 0, 1))


def test_verify_factor_exact_cases():
    u = scalar_laurent(1, 2, 1)
    assert verify_factor(u, np.array([[[1.0]], [[1.0]]], dtype=complex)) == 0.0
    uid = LaurentPoly(np.eye(2, dtype=complex)[np.newaxis])
    assert verify_factor(uid, np.eye(2, dtype=complex)[np.newaxis]) == 0.0
    # dropping the z coefficient leaves mismatch 1 in both slots
    assert verify_factor(u, np.array([[[1.0]]], dtype=complex)) == 1.0


def test_verify_factor_size_mismatch():
    u = scalar_laurent(1, 2, 1)
    with pytest.raises(ValueError, match="size mismatch"):
        verify_factor(u, np.eye(2, dtype=complex)[np.newaxis])


def test_verify_factor_takes_one_matrix_as_a_constant_factor():
    uid = LaurentPoly(np.eye(2, dtype=complex)[np.newaxis])
    assert verify_factor(uid, np.eye(2)) == 0.0
    assert verify_factor(uid, 2.0 * np.eye(2)) == 3.0


@pytest.mark.parametrize("factor", [np.zeros((0, 2, 2)), np.ones(2), np.ones((1, 2, 3)),
                                    np.ones((1, 1, 2, 2)), 1.0])
def test_verify_factor_names_a_malformed_factor(factor):
    # an empty stack passed as the zero factor, and the rest were size mismatches
    uid = LaurentPoly(np.eye(2, dtype=complex)[np.newaxis])
    with pytest.raises(ValueError, match=r"^factor must form a non-empty \(len, n, n\) stack"):
        verify_factor(uid, factor)


def test_round_trip_random_factors():
    rng = np.random.default_rng(17)

    def check(n, band):
        u, _ = factorable_laurent(rng, n, band)
        fac = fejer_riesz(u)
        scale = np.max(np.abs(u.coeff(0)))
        assert fac.residual <= 1e-6 * scale
        assert fac.deg == band
        assert verify_factor(u, fac) == fac.residual
        assert fac.epsilon_used == 0.0          # definite: the direct solve suffices

    for _ in range(20):
        check(int(rng.integers(1, 5)), int(rng.integers(0, 7)))
    check(8, 16)


def test_real_input_gives_real_factor():
    rng = np.random.default_rng(19)
    u, _ = factorable_laurent(rng, 2, 3, real=True)
    fac = fejer_riesz(u)
    assert np.max(np.abs(fac.coeffs.imag)) <= 1e-8 * np.max(np.abs(fac.coeffs.real))


def test_factor_products_unique():
    # P P* is determined by u even though P is only unique up to unitary
    rng = np.random.default_rng(23)
    u, _ = factorable_laurent(rng, 3, 4)
    f1 = fejer_riesz(u)
    f2 = fejer_riesz(u)
    def product(fac):
        b = fac.coeffs
        return np.stack([sum(b[j + k] @ b[j].conj().T for j in range(b.shape[0] - k))
                         for k in range(b.shape[0])])
    scale = np.max(np.abs(u.coeff(0)))
    assert np.max(np.abs(product(f1) - product(f2))) <= 1e-6 * scale


def test_positivity_of_factor_product_on_circle():
    rng = np.random.default_rng(29)
    u, _ = factorable_laurent(rng, 2, 4)
    fac = fejer_riesz(u)
    for t in np.linspace(0, 2 * np.pi, 32, endpoint=False):
        p = sum(fac.coeffs[k] * np.exp(1j * k * t) for k in range(fac.deg + 1))
        w = np.linalg.eigvalsh(p @ p.conj().T)
        assert w[0] >= -1e-8


def test_no_convergence_reports_best_residual(monkeypatch):
    # u = P P* with P = (I + zI)^2 Q is PSD, with a matrix double zero at
    # z = -1: the locator finds no dip.  At tol 1e-10 the doubling alone
    # factors seed 0 (residual 1.5e-10 against 1e-10 * 28.1); on seeds 1-5
    # it and the Newton polish stall, so the solver gives up with its best
    polished, refine = [], spectral._newton_refine

    def counted(*args, **kwargs):
        polished.append(seed)
        return refine(*args, **kwargs)
    monkeypatch.setattr(spectral, "_newton_refine", counted)
    for seed in range(6):
        q = np.random.default_rng(seed).standard_normal((3, 3, 3))
        p = np.zeros((5, 3, 3))
        for i, w in enumerate((1.0, 2.0, 1.0)):
            p[i:i + 3] += w * q
        u = laurent_from_factor(p)
        if seed == 0:
            fac = fejer_riesz(u, tol=1e-10)
            assert not polished and fac.epsilon_used == 0.0
            assert fac.residual <= 1e-10 * max(1.0, np.max(np.abs(u.coeff(0))))
            assert verify_factor(u, fac) == fac.residual
            continue
        with pytest.raises(NoConvergence) as info:
            fejer_riesz(u, tol=1e-10)
        assert 0.0 < info.value.best.residual < 1e-5, seed


def test_dip_between_grid_points_is_located():
    # dips to -1e-6 between the points of the circle grid the locator
    # replaced: it passed that grid and ended in NoConvergence
    a1 = np.exp(-1j * 0.9 * np.pi / 16)
    u = LaurentPoly(np.array([[[np.conj(a1)]], [[2.0 - 1e-6]], [[a1]]]))
    with pytest.raises(NotPsdOnCircle) as info:
        fejer_riesz(u)
    _assert_located(info.value, u, DEFAULT_TOL)
    assert info.value.min_eigenvalue == pytest.approx(-1e-6, rel=1e-3)


def _cos_dip(c, k, phase):
    """Scalar c - cos(k t - phase) as a Laurent polynomial of band k."""
    coeffs = np.zeros((2 * k + 1, 1, 1), dtype=complex)
    coeffs[k] = c
    coeffs[2 * k] = -0.5 * np.exp(-1j * phase)
    coeffs[0] = np.conj(coeffs[2 * k])
    return coeffs


@pytest.mark.parametrize("coeffs", [
    _cos_dip(0.999, 1, np.pi / 8), _cos_dip(0.99, 1, np.pi / 8), _cos_dip(0.95, 1, np.pi / 8),
    np.stack([np.diag([c[0, 0], 1.0 if j == 3 else 0.0])
              for j, c in enumerate(_cos_dip(0.99, 3, np.pi / 16))])],
    ids=["c=0.999", "c=0.99", "c=0.95", "diag n=2"])
def test_dips_off_the_old_grid_are_located(coeffs):
    # c - cos(t - pi/8) dips to c - 1 midway between multiples of pi/4, where
    # the old grid of band 1 sat; each of these ended in NoConvergence
    u = LaurentPoly(coeffs)
    with pytest.raises(NotPsdOnCircle) as info:
        fejer_riesz(u)
    _assert_located(info.value, u, DEFAULT_TOL)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n=st.integers(1, 6), band=st.integers(1, 16), depth=st.floats(-5.0, -2.0),
       real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_inputs_that_dip_below_zero_never_end_in_no_convergence(n, band, depth, real, seed):
    # P P* shifted so that its least eigenvalue on 2048 angles (so at least
    # as deep in truth) is -10^depth * max(1, max|A_0|)
    u, _ = factorable_laurent(np.random.default_rng(seed), n, band, real=real)
    coeffs = np.array(u.coeffs)
    z = np.exp(2j * np.pi * np.arange(2048) / 2048)[:, np.newaxis, np.newaxis]
    v = sum(u.coeff(k) * z**k for k in range(-band, band + 1))
    least = np.linalg.eigvalsh(0.5 * (v + np.swapaxes(v, 1, 2).conj()))[:, 0].min()
    coeffs[band] -= (least + 10.0 ** depth * max(1.0, np.max(np.abs(coeffs[band])))) * np.eye(n)
    u = LaurentPoly(coeffs)
    with pytest.raises(NotPsdOnCircle) as info:
        fejer_riesz(u)
    _assert_located(info.value, u, DEFAULT_TOL)


def test_hermitian_precondition_enforced():
    bad = LaurentPoly(np.array([[[1.0]], [[1.0]], [[2.0]]], dtype=complex))
    with pytest.raises(ValueError, match="hermitian"):
        fejer_riesz(bad)


def test_zero_input():
    fac = fejer_riesz(LaurentPoly(np.zeros((3, 2, 2), dtype=complex)))
    assert fac.residual == 0.0
    assert np.all(fac.coeffs == 0)


def test_laurent_json_round_trip():
    rng = np.random.default_rng(31)
    u, _ = factorable_laurent(rng, 2, 2)
    back = laurent_from_json(laurent_to_json(u))
    assert np.allclose(back.coeffs, u.coeffs)
    with pytest.raises(ValueError, match="coeffs_im"):
        laurent_from_json({"n": 1, "band": 1, "coeffs_re": [[[1.0]]] * 3})


def _circle_least(u, t):
    """lambda_min(u(e^{it})), summed one coefficient at a time."""
    z = np.exp(1j * t)
    v = np.zeros((u.n, u.n), dtype=np.complex128)
    for k in range(-u.band, u.band + 1):
        v += u.coeff(k) * z**k
    return np.linalg.eigvalsh(0.5 * (v + v.conj().T))[0]


def _assert_located(report, u, tol):
    """``report`` names an angle in (-pi, pi] where u's least eigenvalue is its value, below -tol."""
    assert -np.pi < report.at_angle <= np.pi
    assert report.min_eigenvalue < -tol * max(1.0, np.max(np.abs(u.coeff(0))))
    assert report.min_eigenvalue == pytest.approx(_circle_least(u, report.at_angle), rel=1e-9)


def test_not_psd_on_circle_matches_the_loop():
    # the locator reports a point of the dip, not the grid's angle: the value
    # is u's least eigenvalue there, evaluated on its own, below the tolerance
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 6):
        for band in (0, 1, 2, 5, 8, 16):
            for real in (True, False):
                u, _ = factorable_laurent(rng, n, band, real=real)
                coeffs = np.array(u.coeffs)
                coeffs[band] -= rng.uniform(0.2, 1.5) * np.max(np.abs(coeffs)) * np.eye(n)
                u = LaurentPoly(coeffs)
                with pytest.raises(NotPsdOnCircle) as info:
                    fejer_riesz(u)
                _assert_located(info.value, u, DEFAULT_TOL)


def test_cayley_weights_give_the_circle_on_the_line():
    # row k + band of polymat._line_weights(2 band) expands (1 + x^2)^band z^k,
    # z = (1 + ix) / (1 - ix) = e^{it} at t = 2 arctan x
    rng = np.random.default_rng(43)
    for band in (0, 1, 4, 16):
        u, _ = factorable_laurent(rng, 2, band)
        c = np.tensordot(polymat._line_weights(2 * band).T, u.coeffs, axes=1)
        for x in (-3.0, -0.5, 0.0, 0.25, 2.0):
            v = sum(ck * x**m for m, ck in enumerate(c)) / (1 + x * x) ** band
            z = np.exp(2j * np.arctan(x))
            want = sum(u.coeff(k) * z**k for k in range(-band, band + 1))
            np.testing.assert_allclose(v, want, rtol=0, atol=1e-12 * np.max(np.abs(u.coeffs)))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_coefficients_are_rejected(bad):
    u = scalar_laurent(1, bad, 1)
    with pytest.raises(ValueError, match="non-finite"):
        fejer_riesz(u)


@pytest.mark.parametrize("step", ["singular", "non-finite"])
def test_newton_polish_stops_at_a_step_it_cannot_take(step, monkeypatch):
    # a singular least-squares step, or an iterate whose residual is not
    # finite, ends the polish with the best iterate so far: the starting one
    def bad_step(a_stack, band, b):
        calls.append(1)
        if step == "singular":
            raise np.linalg.LinAlgError("singular")
        return np.zeros(b.shape)
    u = scalar_laurent(1, 2, 1)
    b = np.array([[[1.0]], [[0.5]]], dtype=complex)
    start = verify_factor(u, b)
    calls, residual = [], spectral._residual
    monkeypatch.setattr(spectral, "_newton_step", bad_step)
    monkeypatch.setattr(spectral, "_residual",
                        lambda a_stack, b: np.nan if calls else residual(a_stack, b))
    best, res = spectral._newton_refine(u.coeffs, u.band, b, target=0.0)
    assert best is b and res == start > 0 and len(calls) == 1


def _embedding_loop(band, b):
    """The Newton step's real embedding [[J1 + J2, J2i - J1i], [J1i + J2i, J1 - J2]], per block.

    J1 = kron(I, conj B_{a-k}) in block (k, a >= k); J2 = kron(B_{k+c}, I) P in block
    (k, c <= band - k), with P the permutation vec(X) -> vec(X^T).
    """
    n = b.shape[1]
    nb, eye = n * n, np.eye(n)
    dim = (band + 1) * nb
    perm = np.eye(nb)[np.arange(nb).reshape(n, n).T.ravel()]
    j1, j2 = np.zeros((2, dim, dim), dtype=np.complex128)
    for k in range(band + 1):
        for a in range(k, band + 1):
            j1[k * nb:(k + 1) * nb, a * nb:(a + 1) * nb] += np.kron(eye, b[a - k].conj())
        for c in range(band + 1 - k):
            j2[k * nb:(k + 1) * nb, c * nb:(c + 1) * nb] += np.kron(b[k + c], eye) @ perm
    return np.vstack([np.hstack([j1.real + j2.real, -j1.imag + j2.imag]),
                      np.hstack([j1.imag + j2.imag, j1.real - j2.real])])


def test_newton_step_matrix_matches_the_loop(monkeypatch):
    # the gathered Jacobian holds the per-block loop's values, the sign of a zero
    # aside; where u and B are real, the step solves its top-left quarter, (J1 + J2) D = E
    solved, lstsq = [], np.linalg.lstsq

    def recorded(m, rhs, rcond=None):
        solved.append(m.copy())
        return lstsq(m, rhs, rcond=rcond)
    monkeypatch.setattr(np.linalg, "lstsq", recorded)
    rng = np.random.default_rng(71)
    for n in range(1, 5):
        for band in range(5):
            for real in (True, False):
                b = rng.standard_normal((band + 1, n, n))
                if not real:
                    b = b + 1j * rng.standard_normal(b.shape)
                b[rng.random(b.shape) < 0.3] = -0.0     # zeros of both signs
                u, _ = factorable_laurent(rng, n, band, real=real)
                solved.clear()
                spectral._newton_step(u.coeffs, band, b.astype(np.complex128))
                want = _embedding_loop(band, b.astype(np.complex128))
                complex_field = np.any(u.coeffs.imag) or np.any(b.imag)
                m = len(want) if complex_field else len(want) // 2
                assert np.array_equal(solved[0], want[:m, :m]), (n, band, real)


def _products(p, q):
    """Coefficients k = 0..deg of P Q*: sum_j P_{j+k} Q_j^H."""
    return np.stack([sum(p[j + k] @ q[j].conj().T for j in range(len(p) - k))
                     for k in range(len(p))])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(n=st.integers(1, 4), band=st.integers(0, 5), real=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_a_newton_step_is_the_least_norm_solution_of_its_equations(n, band, real, seed):
    # u = B B* + D_0 B* + B D_0* makes E = A - B B* the Jacobian's image of D_0 up to
    # rounding: the step D reproduces E, stays real for a real u and B, and, as the
    # least-norm solution, is no longer than D_0
    rng = np.random.default_rng(seed)
    b, d0 = rng.standard_normal((2, band + 1, n, n))
    if not real:
        b, d0 = b + 1j * rng.standard_normal(b.shape), d0 + 1j * rng.standard_normal(b.shape)
    a = _products(b, b) + _products(d0, b) + _products(b, d0)
    coeffs = np.concatenate([np.swapaxes(a[:0:-1], 1, 2).conj(), a]).astype(np.complex128)
    b = b.astype(np.complex128)
    d = spectral._newton_step(coeffs, band, b)
    assert not real or np.all(d.imag == 0)
    # the rounding of A, of E and of the solve, each a few eps * unknowns * ||B|| (||B|| + ||D_0||)
    unknowns = (band + 1) * n * n * (1 if real else 2)
    size = np.linalg.norm(b) * (np.linalg.norm(b) + np.linalg.norm(d0))
    miss = _products(d, b) + _products(b, d) - spectral._residual_coeffs(coeffs, b)
    assert np.max(np.abs(miss)) <= 8 * unknowns * np.finfo(float).eps * size
    assert np.linalg.norm(d) <= np.linalg.norm(d0) * (1 + 1e-8)


def test_a_real_input_polishes_in_real_arithmetic(monkeypatch):
    # the natural half-line draw F = A A^T, A = default_rng(6).standard_normal((9, 2, 2)),
    # polishes G(a) = F(a^2) of band 16 in steps of (16 + 1) * 2^2 = 68 real unknowns.
    # It is split as F / 4 (max|F| = 10.3), whose expansion has max|A_0| = 0.28 < 1; the
    # target stays tol * 1.1 on F's expansion, tol * 0.28 on the split's, and three steps
    # meet it
    f = test_bit_identity._square(np.random.default_rng(6), 2, 8)
    calls, lstsq = [], np.linalg.lstsq

    def recorded(m, *args, **kwargs):
        calls.append((m.dtype, m.shape))
        return lstsq(m, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "lstsq", recorded)
    decompose_halfline(MatrixPoly(0.5 * (f + np.swapaxes(f, 1, 2)), symmetric=True))
    assert calls == [(np.float64, (68, 68))] * 3


def test_a_real_input_factors_in_float64_on_every_path(monkeypatch):
    # LaurentPoly stores a real u as float64, and the factor stays in that field on
    # the direct solve, the retry, the polish, NoConvergence's best and a zero u
    polished, refine = [], spectral._newton_refine

    def counted(*args, **kwargs):
        polished.append(True)
        return refine(*args, **kwargs)
    monkeypatch.setattr(spectral, "_newton_refine", counted)
    q = np.random.default_rng(1).standard_normal((3, 3, 3))
    p = np.zeros((5, 3, 3))
    for i, w in enumerate((1.0, 2.0, 1.0)):
        p[i:i + 3] += w * q         # (I + zI)^2 Q: fejer_riesz's best misses 1e-10
    cases = [(factorable_laurent(np.random.default_rng(3), 2, 2, real=True)[0], DEFAULT_TOL),
             (laurent_from_factor(p), 1e-10), (LaurentPoly(np.zeros((3, 2, 2))), DEFAULT_TOL)]
    paths = set()
    for u, tol in cases + [(u, DEFAULT_TOL) for u in SINGULAR_INPUTS.values()]:
        assert u.coeffs.dtype == np.float64
        polished.clear()
        try:
            fac = fejer_riesz(u, tol=tol)
        except NoConvergence as exc:
            fac = exc.best
            paths.add("no convergence")
        assert fac.coeffs.dtype == np.float64
        paths.add("retry" if fac.epsilon_used else "polish" if polished else
                  "zero" if not fac.coeffs.any() else "direct")
    assert paths == {"direct", "retry", "polish", "no convergence", "zero"}


@pytest.mark.parametrize("seed,n,band", [(4, 2, 2), (17, 4, 4), (0, 3, 3)])
def test_a_factor_scales_exactly_with_its_input(seed, n, band):
    # the solve runs at one exact scale, so 4^k u factors as 2^k times u's
    # factor bit for bit up to the float maximum; seeds 4 and 17 ended in
    # NoConvergence there
    u, _ = factorable_laurent(np.random.default_rng(seed), n, band)
    k = int(np.log(1.7e308 / np.max(np.abs(u.coeffs))) / np.log(4.0))
    f, big = fejer_riesz(u), fejer_riesz(LaurentPoly(u.coeffs * 4.0 ** k))
    assert np.array_equal(big.coeffs, f.coeffs * 2.0 ** k)
    assert (big.residual, big.epsilon_used) == (f.residual * 4.0 ** k, 0.0)


@pytest.mark.parametrize("seed", [1, 4])
def test_a_dip_near_the_float_maximum_is_located(seed):
    # Hermitian n = 2, band 2 inputs scaled to a largest entry of 1e308 ended
    # in NoConvergence: the dip was not located
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    a[0] = a[0] + a[0].conj().T
    c = np.concatenate([np.swapaxes(a[:0:-1], 1, 2).conj(), a])
    c = c / np.max(np.abs(c)) * 1e308
    with pytest.raises(NotPsdOnCircle) as info:
        fejer_riesz(LaurentPoly(c))
    # lambda_min(u(e^{it})) at the reported angle, summed at 2^-4 of its scale
    z = np.exp(1j * info.value.at_angle * np.arange(-2, 3))
    least = np.linalg.eigvalsh(np.tensordot(z, c / 16.0, axes=1))[0]
    assert info.value.min_eigenvalue / 16.0 == pytest.approx(least, rel=1e-9)
    assert least < -DEFAULT_TOL * np.max(np.abs(c[2])) / 16.0


def test_a_dip_below_the_float_range_is_reported_as_minus_infinity():
    # u(1) = 1e308 - 3.4e308 lies below -1.8e308
    with pytest.raises(NotPsdOnCircle) as info:
        fejer_riesz(scalar_laurent(-1.7e308, 1e308, -1.7e308))
    assert info.value.min_eigenvalue == -np.inf and abs(info.value.at_angle) < 1e-12


def test_an_entry_of_a0_whose_modulus_overflows_is_an_input_error():
    # max(1, ||A_0||) was inf, so every residual met its target
    with pytest.raises(ValueError, match="^input has an entry of A_0 whose modulus overflows"):
        fejer_riesz(scalar_laurent(0.0, 1.5e308 + 1.5e308j, 0.0))
