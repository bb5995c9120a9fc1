"""Atomic measures, integration, forward moments and the positivity audit."""

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from conftest import rand_measure, rand_psd, rand_symmetric_poly, separated_points
from matmoments import (AtomicMatrixMeasure, MatrixPoly, MomentSequence, PositiveMapMeasure,
                        SupportViolation, check_hamburger, check_hausdorff,
                        check_stieltjes, decompose_halfline, forward_moments,
                        integrate_map, integrate_trace, map_measure_from_json,
                        map_measure_to_json, measure_from_json, measure_to_json,
                        momentsequence_from_json, positivity_audit, scalar_poly_mult,
                        transpose_poly)
from matmoments import matmul as poly_matmul
from matmoments.measures import AUDIT_TOL, WEIGHT_PSD_TOL
from matmoments.polymat import _horner

I2 = np.eye(2)


def x_times_identity(n):
    return MatrixPoly([np.zeros((n, n)), np.eye(n)])


def test_integrate_trace_example():
    mu = AtomicMatrixMeasure(2, [(0.0, np.diag([1.0, 0.0])), (2.0, I2)])
    assert integrate_trace(x_times_identity(2), mu) == pytest.approx(4.0)


def test_integrate_trace_zero_polynomial():
    mu = AtomicMatrixMeasure(2, [(1.0, I2)])
    assert integrate_trace(MatrixPoly.zero(2), mu) == 0.0


def test_integrate_trace_mass_count():
    mu = AtomicMatrixMeasure(2, [(5.0, I2)])
    assert integrate_trace(MatrixPoly.constant(I2), mu) == pytest.approx(2.0)


def test_integrate_trace_size_mismatch():
    mu = AtomicMatrixMeasure(2, [(0.0, I2)])
    with pytest.raises(ValueError, match="size mismatch"):
        integrate_trace(MatrixPoly.zero(3), mu)


def test_integrate_map_size_mismatch():
    m = PositiveMapMeasure(2, 1, [(0.0, [np.ones((2, 1))])])
    with pytest.raises(ValueError, match="^size mismatch: polynomial is 3x3, maps act on 2x2$"):
        integrate_map(MatrixPoly.zero(3), m)


def test_weight_of_the_wrong_shape_is_named():
    with pytest.raises(ValueError, match=r"^atoms\[1\]\.W has shape \(3, 3\), expected \(2, 2\)$"):
        AtomicMatrixMeasure(2, [(0.0, I2), (1.0, np.eye(3))])


@pytest.mark.parametrize("integrate,measure", [
    (integrate_trace, lambda atoms: AtomicMatrixMeasure(1, [(x, [[1.0]]) for x in atoms])),
    (integrate_map, lambda atoms: PositiveMapMeasure(1, 1, [(x, [[[1.0]]]) for x in atoms])),
], ids=["trace", "map"])
def test_integral_that_overflows_names_the_atom(integrate, measure):
    # F = 1 + x + x^2 is inf at x = 1e200: the integral used to return inf
    f = MatrixPoly.from_scalar([1.0, 1.0, 1.0])
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=r"^atom 0 at x=1e\+200: the integral overflows"):
            integrate(f, measure([1e200]))
        # each term is finite; their sum is not
        with pytest.raises(ValueError, match=r"^atom 2 at x=1e\+154: the integral overflows"):
            integrate(f, measure([0.0, -1e154, 1e154]))
    assert np.isfinite(integrate(f, measure([0.0, 1e150])))


def test_integrate_map_identity_map():
    m = PositiveMapMeasure(2, 2, [(0.0, [np.eye(2)])])
    c0 = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.allclose(integrate_map(MatrixPoly.constant(c0), m), c0)


def test_integrate_map_cancellation():
    m = PositiveMapMeasure(2, 2, [(1.0, [np.eye(2)]), (-1.0, [np.eye(2)])])
    assert np.allclose(integrate_map(x_times_identity(2), m), np.zeros((2, 2)))


def test_integrate_map_trace_functional():
    # h=2, k=1, Phi(A) = trace(A diag(1,0)) via the Kraus vector e_1
    m = PositiveMapMeasure(2, 1, [(3.0, [np.array([[1.0], [0.0]])])])
    f = MatrixPoly([[[0.0, 0], [0, 7]], [[0, 0], [0, 0]], [[1, 0], [0, 0]]])
    assert np.allclose(integrate_map(f, m), [[9.0]])


def test_integrate_map_matches_trace_for_rank_one_maps():
    rng = np.random.default_rng(4)
    w = rand_psd(rng, 2)
    lam, vec = np.linalg.eigh(w)
    kraus = [np.sqrt(l) * v.reshape(2, 1) for l, v in zip(lam, vec.T)]
    m = PositiveMapMeasure(2, 1, [(1.5, kraus)])
    mu = AtomicMatrixMeasure(2, [(1.5, w)])
    f = MatrixPoly(rng.standard_normal((3, 2, 2)))
    assert integrate_map(f, m)[0, 0] == pytest.approx(integrate_trace(f, mu))


def superoperator(kraus):
    """(k^2, h^2) matrix of A -> sum_t V_t^T A V_t on row-major vec(A): sum_t V_t^T (x) V_t^T."""
    return sum(np.kron(v.T, v.T) for v in kraus)


def test_superoperator_constructor_proves_positivity_by_choi():
    good = PositiveMapMeasure.from_linear(2, 2, [(0.0, 2.0 * np.eye(4))])
    assert len(good.atoms[0][1]) == 1
    assert np.allclose(integrate_map(MatrixPoly.constant(I2), good), 2 * I2)
    with pytest.raises(ValueError, match=r"^atoms\[0\]\.W has eigenvalue -2\.000e\+00 < 0$"):
        PositiveMapMeasure.from_linear(2, 2, [(0.0, -np.eye(4))])


def test_sampled_positive_map_that_is_not_positive_is_rejected():
    # A -> <C, A>, C_ii = 1, C_ij = -0.6, is PSD on every sample v v^T with
    # v = e_i, e_i +- e_j, yet integrating F = 1 1^T against it gave -0.6
    c = np.full((3, 3), -0.6)
    np.fill_diagonal(c, 1.0)
    ones = np.ones(3)
    for v in [*np.eye(3), *(np.eye(3)[i] + s * np.eye(3)[j]
                            for i in range(3) for j in range(i + 1, 3) for s in (1, -1))]:
        assert v @ c @ v >= 0.0
    assert ones @ c @ ones == pytest.approx(-0.6)
    with pytest.raises(ValueError, match=r"^atoms\[0\]\.W has eigenvalue -2\.000e-01 < 0$"):
        PositiveMapMeasure.from_linear(3, 1, [(0.0, c.reshape(1, 9))])
    with pytest.raises(ValueError, match=r"^atoms\[1\]\.W has eigenvalue"):
        PositiveMapMeasure.from_linear(3, 1, [(0.0, np.eye(9)[[0]]), (1.0, c.reshape(1, 9))])


def test_superoperator_must_have_a_symmetric_choi_matrix():
    # A -> A E_12 sends symmetric A to a non-symmetric image
    sup = np.kron(np.eye(2), np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match=r"^atoms\[0\]\.W is not symmetric$"):
        PositiveMapMeasure.from_linear(2, 2, [(0.0, sup)])


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(h=st.integers(1, 4), k=st.integers(1, 4), count=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_kraus_maps_survive_the_choi_round_trip(h, k, count, seed):
    rng = np.random.default_rng(seed)
    kraus = rng.standard_normal((count, h, k))
    m = PositiveMapMeasure(h, k, [(0.5, kraus), (-1.5, kraus[:1])])
    back = PositiveMapMeasure.from_linear(h, k, [(0.5, superoperator(kraus)),
                                                 (-1.5, superoperator(kraus[:1]))])
    f = MatrixPoly(rand_symmetric_poly(rng, h, 2))
    want = integrate_map(f, m)
    scale = sum(np.sum(v * v) * np.abs(f(x)).sum() for x, vs in m.atoms for v in vs)
    assert np.max(np.abs(integrate_map(f, back) - want)) <= 1e-12 * scale


def test_superoperator_choi_matrix_passes_the_weight_check():
    # the Choi check was its own, at AUDIT_TOL: this map was admitted, its
    # -5e-10 dropped, and integrate_map gave 0 on diag(0, 1) where the map gives -5e-10
    sup = np.diag([1.0, -5e-10]).reshape(1, 4)
    assert sup @ np.diag([0.0, 1.0]).reshape(4) == -5e-10
    with pytest.raises(ValueError, match=r"^atoms\[0\]\.W has eigenvalue -5\.000e-10 < 0$"):
        PositiveMapMeasure.from_linear(2, 1, [(0.0, sup)])


def test_superoperator_atoms_come_back_sorted_and_merged():
    rng = np.random.default_rng(38)
    kraus = rng.standard_normal((3, 2, 3))
    m = PositiveMapMeasure(2, 3, [(1.0, kraus[:1]), (-0.5, kraus[1:2]), (1.0 + 1e-13, kraus[2:])])
    back = PositiveMapMeasure.from_linear(2, 3, [(x, superoperator(vs)) for x, vs in m.atoms])
    assert [x for x, _ in back.atoms] == [-0.5, 1.0]
    f = MatrixPoly(rand_symmetric_poly(rng, 2, 3))
    want = integrate_map(f, m)
    assert np.max(np.abs(integrate_map(f, back) - want)) <= 1e-12 * np.max(np.abs(want))


K23 = np.ones((2, 3))


@pytest.mark.parametrize("atom,match", [
    ((np.nan, [K23]), "atom 1: point nan"), ((np.inf, [K23]), "atom 1: point inf"),
    ((0.0, [np.where(np.eye(2, 3) > 0, np.inf, 1.0)]), "atom 1: Kraus .* a finite 2x3"),
    ((0.0, [K23, np.full((2, 3), np.nan)]), "atom 1: Kraus .* a finite 2x3"),
])
def test_map_measure_rejects_non_finite_atoms(atom, match):
    # integrate_map used to return NaN for these
    with pytest.raises(ValueError, match=match):
        PositiveMapMeasure(2, 3, [(0.5, [K23]), atom])


@pytest.mark.parametrize("h_dim,k_dim,match", [
    (0, 3, "h_dim"), (-1, 3, "h_dim"), (2, 0, "k_dim"), (2, -2, "k_dim")])
def test_map_measure_rejects_nonpositive_dimensions(h_dim, k_dim, match):
    with pytest.raises(ValueError, match=f"{match} must be a positive integer"):
        PositiveMapMeasure(h_dim, k_dim, [])
    with pytest.raises(ValueError, match=f"{match} must be a positive integer"):
        PositiveMapMeasure.from_linear(h_dim, k_dim, [(0.0, np.eye(4))])


def test_raw_map_images_must_be_finite_and_k_dim_square():
    # the superoperator is (k_dim^2, h_dim^2): the 2x2 identity map is not a
    # 2x2 -> 3x3 map; a NaN map, or a function in place of one, is refused
    with pytest.raises(ValueError, match=r"atom 0: superoperator of shape \(4, 4\) .* 9x4"):
        PositiveMapMeasure.from_linear(2, 3, [(0.0, np.eye(4))])
    with pytest.raises(ValueError, match=r"atom 0: superoperator .* must be a finite real 4x4"):
        PositiveMapMeasure.from_linear(2, 2, [(0.0, np.full((4, 4), np.nan))])
    with pytest.raises(ValueError, match=r"atom 1: superoperator of shape \(\) .* real 4x4"):
        PositiveMapMeasure.from_linear(2, 2, [(0.0, np.eye(4)), (1.0, lambda a: a)])
    with pytest.raises(ValueError, match="atom 0: point nan"):
        PositiveMapMeasure.from_linear(2, 2, [(np.nan, np.eye(4))])


def test_superoperator_rejects_positive_but_not_completely_positive():
    # the transpose preserves PSD but has no Kraus representation: its Choi
    # matrix is the swap, eigenvalue -1.  On symmetric F it is the identity
    transpose = np.eye(4)[[0, 2, 1, 3]]     # vec(A^T) from row-major vec(A), 2x2 A
    a = np.arange(4.0).reshape(2, 2)
    assert np.array_equal((transpose @ a.reshape(-1)).reshape(2, 2), a.T)
    with pytest.raises(ValueError, match=r"^atoms\[0\]\.W has eigenvalue -1\.000e\+00 < 0$"):
        PositiveMapMeasure.from_linear(2, 2, [(1.0, transpose)])
    m = PositiveMapMeasure(2, 2, [(1.0, [I2])])
    f = MatrixPoly([np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[0.0, -1.0], [-1.0, 3.0]])])
    assert np.array_equal(integrate_map(f, m), f(1.0))


def test_forward_moments_plus_minus_one():
    mu = AtomicMatrixMeasure(2, [(-1.0, 0.5 * I2), (1.0, 0.5 * I2)])
    seq = forward_moments(mu, 4)
    for p in range(5):
        expect = I2 if p % 2 == 0 else 0 * I2
        assert np.allclose(seq[p], expect)


def test_forward_moments_empty_measure():
    seq = forward_moments(AtomicMatrixMeasure(2, []), 3)
    assert np.all(seq.S == 0.0)


def test_forward_moments_unit_point():
    w = rand_psd(np.random.default_rng(8), 2)
    seq = forward_moments(AtomicMatrixMeasure(2, [(1.0, w)]), 5)
    for p in range(6):
        assert np.allclose(seq[p], w)


def test_forward_moments_match_the_running_product_loop():
    # reference: the per-power loop that the cumprod replaced, atom by atom
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        degree = int(rng.integers(0, 15))
        mu = rand_measure(rng, n, int(rng.integers(1, 7)), -2.0, 2.0)
        mats = np.zeros((degree + 1, n, n))
        for x, w in mu.atoms:
            xp = 1.0
            for p in range(degree + 1):
                mats[p] += xp * w
                xp *= x
        want = 0.5 * (mats + np.transpose(mats, (0, 2, 1)))
        assert forward_moments(mu, degree).S.tobytes() == want.tobytes()


@pytest.mark.parametrize("points,weights,match", [
    ([0.0, np.nan], [I2, I2], "atom 1: point nan is not finite"),
    ([0.0, np.inf], [I2, I2], "atom 1: point inf is not finite"),
    ([0.0, 1.0], [I2, np.where(I2 > 0, np.inf, 0.0)], r"atoms\[1\]\.W has a non-finite entry"),
    ([0.0, 1.0], [np.full((2, 2), np.nan), I2], r"atoms\[0\]\.W has a non-finite entry"),
])
def test_direct_measure_checks_finiteness_with_the_constructors_messages(points, weights, match):
    # recover builds its measure without the constructor's other checks
    with pytest.raises(ValueError, match=f"^{match}$"):
        AtomicMatrixMeasure._from_psd(2, points, np.array(weights))
    with pytest.raises(ValueError, match=f"^{match}$"):
        AtomicMatrixMeasure(2, list(zip(points, weights)))


@pytest.mark.parametrize("build,match", [
    (lambda v: AtomicMatrixMeasure(v, []), "weight size n must be a positive integer"),
    (lambda v: PositiveMapMeasure(v, 2, []), "h_dim must be a positive integer"),
    (lambda v: PositiveMapMeasure(2, v, []), "k_dim must be a positive integer"),
    (lambda v: PositiveMapMeasure.from_linear(v, 2, []), "h_dim must be a positive integer"),
    (lambda v: forward_moments(AtomicMatrixMeasure(1, [(0.5, [[1.0]])]), v),
     "degree must be a nonnegative integer"),
], ids=["n", "h_dim", "k_dim", "from_linear-h_dim", "degree"])
@pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.0, 2.5, np.float64(2.0), "2"],
                         ids=["True", "False", "np.True_", "2.0", "2.5", "np.float64", "str"])
def test_sizes_and_degrees_reject_bools_and_non_integers(build, match, value):
    # True used to pass as size 1; a float degree ended in a bare numpy TypeError
    with pytest.raises(ValueError, match=match):
        build(value)


def test_numpy_integer_sizes_and_degrees_stay_valid():
    w = rand_psd(np.random.default_rng(5), 2)
    mu = AtomicMatrixMeasure(np.int64(2), [(0.5, w)])
    assert mu.n == 2 and type(mu.n) is int
    assert forward_moments(mu, np.int32(3)).S.tobytes() == forward_moments(mu, 3).S.tobytes()
    m = PositiveMapMeasure(np.int64(2), np.int16(1), [(0.0, [np.ones((2, 1))])])
    assert (m.h_dim, m.k_dim) == (2, 1)


@pytest.mark.parametrize("bad,match", [
    (np.array([[1.0, 2.0], [0.0, 1.0]]), "atoms[2].W is not symmetric"),
    (np.diag([1.0, -1.0]), "atoms[2].W has eigenvalue -1.000e+00 < 0"),
    (np.diag([1.0, np.nan]), "atoms[2].W has a non-finite entry"),
])
def test_batched_weight_checks_name_the_first_bad_atom(bad, match):
    atoms = [(0.0, I2), (1.0, I2), (2.0, bad), (3.0, bad)]
    with pytest.raises(ValueError, match=re.escape(match)):
        AtomicMatrixMeasure(2, atoms)


def test_weights_near_the_float_maximum_stay_finite():
    # (W + W^T)/2 overflowed: the weight was stored as inf with numpy's
    # warning, and a Choi matrix [[1.7e308]] was rejected as not finite
    mu = AtomicMatrixMeasure(1, [(0.5, [[1.5e308]])])
    assert mu.atoms[0][1][0, 0] == 1.5e308
    assert positivity_audit(mu, [[0.0, 1.0]], 0).passed
    with pytest.raises(ValueError, match=r"^atoms\[0\]\.W is not symmetric$"):
        AtomicMatrixMeasure(2, [(0.5, [[1e308, 1e308], [-1e308, 1e308]])])
    (_, (v,)), = PositiveMapMeasure.from_linear(1, 1, [(0.0, [[1.7e308]])]).atoms
    assert v[0, 0] == np.sqrt(1.7e308)


def test_a_measure_states_its_size_and_atom_count():
    mu = AtomicMatrixMeasure(2, [(0.0, I2), (1.0, I2), (1.0 + 1e-14, I2)])
    assert len(mu) == 2 and repr(mu) == "AtomicMatrixMeasure(n=2, atoms=2)"


def test_atoms_merge_and_weights_validate():
    mu = AtomicMatrixMeasure(2, [(1.0, I2), (1.0 + 1e-14, I2)])
    assert len(mu.atoms) == 1
    assert np.allclose(mu.atoms[0][1], 2 * I2)
    with pytest.raises(ValueError, match="eigenvalue"):
        AtomicMatrixMeasure(2, [(0.0, -I2)])


def test_merged_weights_are_checked():
    # each weight sits just inside the PSD tolerance, their sum does not: the
    # measure used to be accepted and then fail positivity_audit(mu, [], 0)
    edge = np.diag([-0.99 * WEIGHT_PSD_TOL, 0.05])
    atoms = [(2.0, I2)] + [(0.5, edge)] * 12
    match = "atoms[1].W merged with nearby atoms has eigenvalue -1.188e-09 < 0"
    with pytest.raises(ValueError, match=re.escape(match)):
        AtomicMatrixMeasure(2, atoms)
    doc = {"n": 2, "atoms": [{"x": x, "W": w.tolist()} for x, w in atoms]}
    with pytest.raises(ValueError, match=re.escape("atoms[1].W merged with nearby atoms")):
        measure_from_json(doc)
    assert positivity_audit(AtomicMatrixMeasure(2, atoms[:2]), [], 0).passed


def test_merged_weights_that_overflow_are_rejected():
    # the sum was stored as [[inf]], whose NaN eigenvalue passed the PSD test
    atoms = [(0.7, [[1.0]]), (0.5, [[1e308]]), (0.5 + 1e-13, [[1e308]])]
    match = "atoms[1].W merged with nearby atoms has a non-finite entry"
    with pytest.raises(ValueError, match=re.escape(match)):
        AtomicMatrixMeasure(1, atoms)
    doc = {"n": 1, "atoms": [{"x": x, "W": w} for x, w in atoms]}
    with pytest.raises(ValueError, match=re.escape("atoms[1].W merged with nearby atoms")):
        measure_from_json(doc)
    assert AtomicMatrixMeasure(1, atoms[:1] + [(0.5, [[1e307]])] * 2).atoms[0][1][0, 0] == 2e307


@pytest.mark.parametrize("atom,match", [
    ((np.inf, I2), "point"), ((-np.inf, I2), "point"), ((np.nan, I2), "point"),
    ((0.0, np.diag([np.inf, 1.0])), "non-finite"), ((0.0, np.diag([1.0, np.nan])), "non-finite"),
])
def test_non_finite_atoms_are_rejected(atom, match):
    with pytest.raises(ValueError, match=match):
        AtomicMatrixMeasure(2, [(1.0, I2), atom])


def test_positivity_audit_halfline_passes():
    rng = np.random.default_rng(15)
    mu = rand_measure(rng, 2, 3, 0.0, 4.0)
    rep = positivity_audit(mu, [[0.0, 1.0]], 100, seed=10)
    assert rep.passed and rep.min_margin > 0.0 and not rep.violations


def test_positivity_audit_support_violation_names_atom():
    mu = AtomicMatrixMeasure(2, [(-1.0, I2)])
    with pytest.raises(SupportViolation) as info:
        positivity_audit(mu, [[0.0, 1.0]], 10)
    assert info.value.atom_index == 0
    assert info.value.point == -1.0
    assert info.value.value == pytest.approx(-1.0)


def _polyval_support_violation(mu, generators):
    """The support check as numpy.polynomial's polyval evaluates it."""
    worst = None
    for gi, g in enumerate(generators):
        g_scale = max(1.0, float(np.max(np.abs(g))))
        for ai, (x, _) in enumerate(mu.atoms):
            val = float(npoly.polyval(x, g))
            bound = 1e-12 * g_scale * max(1.0, abs(x)) ** max(len(g) - 1, 0)
            if val < -bound and (worst is None or val < worst[3]):
                worst = (ai, x, gi, val)
    return worst


def test_support_check_matches_polyval():
    # the audit evaluates each generator at the atoms by Horner's rule on a
    # (len(g), 1, 1) stack: polyval's values and verdicts, bit for bit
    rng = np.random.default_rng(41)
    verdicts = set()
    for _ in range(300):
        xs = rng.standard_normal(4) * 10.0 ** rng.integers(-2, 3)
        gens = [rng.standard_normal(rng.integers(1, 7)) * 10.0 ** rng.integers(-3, 4)
                for _ in range(rng.integers(1, 4))]
        gens.append(np.array([-xs[0], 1.0]))       # a root at an atom
        for g in gens:
            for x in xs:
                assert _horner(g[:, np.newaxis, np.newaxis], x)[0, 0] == npoly.polyval(x, g)
        mu = AtomicMatrixMeasure(1, [(x, [[1.0]]) for x in xs])
        want = _polyval_support_violation(mu, gens)
        try:
            positivity_audit(mu, gens, 0)
            got = None
        except SupportViolation as exc:
            got = (exc.atom_index, exc.point, exc.generator_index, exc.value)
        assert got == want
        verdicts.add(got is None)
    assert verdicts == {True, False}


def test_positivity_audit_plain_squares():
    rng = np.random.default_rng(21)
    mu = rand_measure(rng, 3, 2, -3.0, 3.0)
    rep = positivity_audit(mu, [], 50, seed=3)
    assert rep.passed


def test_positivity_audit_deterministic_given_seed():
    rng = np.random.default_rng(33)
    mu = rand_measure(rng, 2, 2, 0.0, 2.0)
    a = positivity_audit(mu, [[0.0, 1.0]], 40, seed=7)
    b = positivity_audit(mu, [[0.0, 1.0]], 40, seed=7)
    assert a.min_margin == b.min_margin


def test_positivity_audit_violation_path_pinned():
    # the audit reads only mu.n and mu.atoms, so an indefinite weight can
    # reach the violation path: least eigenvalues of 1*W and x*W at x = 1/2
    mu = SimpleNamespace(n=2, atoms=((0.5, np.diag([1.0, -1.0])),))
    rep = positivity_audit(mu, [[0, 1]], 8, seed=4)
    assert not rep.passed
    assert rep.violations == [{"atom": 0, "generator": -1, "value": -1.0},
                              {"atom": 0, "generator": 0, "value": -0.5}]
    assert rep.min_margin == -1.0 + AUDIT_TOL


def test_positivity_audit_reads_the_symmetric_part_of_a_weight():
    # trace(F W) with F symmetric sees only (W + W^T)/2, here the identity
    mu = SimpleNamespace(n=2, atoms=((0.5, np.array([[1.0, 2.0], [-2.0, 1.0]])),))
    assert positivity_audit(mu, [[0, 1]], 0).passed


def test_positivity_audit_rejects_negative_trial_counts():
    mu = AtomicMatrixMeasure(2, [(0.5, I2)])
    with pytest.raises(ValueError, match="trials must be a nonnegative integer"):
        positivity_audit(mu, [[0.0, 1.0]], -5)
    rep = positivity_audit(mu, [[0.0, 1.0]], 0)
    assert rep.passed and rep.min_margin > 0.0
    assert positivity_audit(AtomicMatrixMeasure(2, []), [[0.0, 1.0]], 0).min_margin == 0.0


@pytest.mark.parametrize("generators,index", [
    ([[-1.0, np.nan]], 0), ([[0.0, 1.0], [np.nan]], 1), ([[0.0, 1.0], None], 1),
    ([1.0], 0), ([[0.0, 1.0], 2.0], 1), ([[[0.0, 1.0]]], 0), ([[1j]], 0), ([["one"]], 0),
    (["12"], 0), ([[0.0], b"12"], 1), ([[np.inf]], 0), ([[1.0, -np.inf]], 0)])
@pytest.mark.parametrize("atoms", [[(0.5, I2)], []])
def test_positivity_audit_names_a_generator_that_is_no_real_sequence(generators, index, atoms):
    # a NaN coefficient passed: max(1, nan) is 1 and nan < -bound is false,
    # so [[-1, nan]] gave passed=True with min_margin nan; a bare number
    # raised TypeError; "12" was audited as 1 + 2x; an infinite coefficient
    # passed on a measure without atoms and overflowed on one with atoms
    with pytest.raises(ValueError, match=f"^generator {index} must be a sequence of finite "
                                         "real coefficients$"):
        positivity_audit(AtomicMatrixMeasure(2, atoms), generators, 0)


def test_a_least_eigenvalue_that_overflows_fails_the_psd_test():
    # eigenvalues 0 and -2e308, which eigvalsh returns as -inf; against the
    # scale max(1, |least|, |largest|) = inf alone, -inf < -1e-10 * inf is
    # false, so a least eigenvalue that is not finite must fail outright
    w = np.array([[-1e308, 1e308], [1e308, -1e308]])
    assert np.linalg.eigvalsh(w)[0] == -np.inf
    with pytest.raises(ValueError, match=r"^atoms\[0\]\.W has an eigenvalue that overflows "
                                         r"float64$"):
        AtomicMatrixMeasure(2, [(0.0, w)])
    with pytest.raises(ValueError, match=r"^atoms\[0\]\.W has an eigenvalue that overflows "
                                         r"float64$"):
        PositiveMapMeasure.from_linear(1, 2, [(0.0, w.reshape(4, 1))])


# eigenvalues -5, 0 and 2e308, which eigvalsh returns as inf
SPECTRUM_OVERFLOW = np.array([[1e308, 1e308, 0.0], [1e308, 1e308, 0.0], [0.0, 0.0, -5.0]])
HALF_OVERFLOW = np.full((2, 2), 6e307)      # eigenvalues 0 and 1.2e308; two of them sum past


@pytest.mark.parametrize("build,match", [
    (lambda: AtomicMatrixMeasure(3, [(0.0, SPECTRUM_OVERFLOW)]), "atoms[0].W"),
    (lambda: AtomicMatrixMeasure(2, [(0.0, np.full((2, 2), 1e308))]), "atoms[0].W"),
    (lambda: AtomicMatrixMeasure(2, [(0.0, I2), (0.5, HALF_OVERFLOW),
                                     (0.5 + 1e-13, HALF_OVERFLOW)]),
     "atoms[1].W merged with nearby atoms"),
    (lambda: positivity_audit(SimpleNamespace(n=3, atoms=((0.0, SPECTRUM_OVERFLOW),)), [], 0),
     "atoms[0].W"),
    (lambda: positivity_audit(SimpleNamespace(n=2, atoms=((0.0, I2), (1.0, 1e308 * np.ones((2, 2))))),
                              [[0.0, 1.0]], 0), "atoms[1].W"),
    (lambda: PositiveMapMeasure.from_linear(1, 3, [(0.0, SPECTRUM_OVERFLOW.reshape(9, 1))]),
     "atoms[0].W"),
], ids=["weight", "psd-weight", "merged-weight", "audit", "audit-psd-weight", "choi"])
def test_a_spectrum_that_overflows_is_rejected_on_the_measure_side(build, match):
    # the weight was judged -5 >= -1e-10 * inf and admitted, and the audit then
    # passed with min_margin inf; the Choi matrix reached numpy's "invalid
    # value" warning and a Kraus operator of shape (1, 3) the caller never gave
    with pytest.raises(ValueError, match=f"^{re.escape(match)} has an eigenvalue that overflows "
                                         "float64$"):
        build()


def test_the_audit_names_a_non_finite_weight():
    # a NaN weight's NaN eigenvalues passed the audit with min_margin NaN
    mu = SimpleNamespace(n=2, atoms=((0.0, I2), (1.0, np.diag([1.0, np.nan]))))
    with pytest.raises(ValueError, match=r"^atoms\[1\]\.W has a non-finite entry$"):
        positivity_audit(mu, [], 0)


def _atoms_doc(n, atoms):
    return {"n": n, "atoms": [{"x": x, "W": np.asarray(w).tolist()} for x, w in atoms]}


@pytest.mark.parametrize("build,load,doc,message", [
    (MomentSequence, momentsequence_from_json, [I2, I2, [[1.0, 1.0], [0.0, 1.0]]],
     "moments[2] is not symmetric"),
    (AtomicMatrixMeasure, measure_from_json, [(0.0, I2), (1.0, [[1.0, 2.0], [0.0, 1.0]])],
     "atoms[1].W is not symmetric"),
    (AtomicMatrixMeasure, measure_from_json, [(0.0, I2), (1.0, np.diag([1.0, -1.0]))],
     "atoms[1].W has eigenvalue -1.000e+00 < 0"),
    (AtomicMatrixMeasure, measure_from_json,
     [(2.0, I2)] + [(0.5, np.diag([-0.99 * WEIGHT_PSD_TOL, 0.05]))] * 12,
     "atoms[1].W merged with nearby atoms has eigenvalue -1.188e-09 < 0"),
    (AtomicMatrixMeasure, measure_from_json,
     [(0.7, I2), (0.5, 1e308 * I2), (0.5 + 1e-13, 1e308 * I2)],
     "atoms[1].W merged with nearby atoms has a non-finite entry"),
    (AtomicMatrixMeasure, measure_from_json,
     [(0.7, I2), (0.5, HALF_OVERFLOW), (0.5 + 1e-13, HALF_OVERFLOW)],
     "atoms[1].W merged with nearby atoms has an eigenvalue that overflows float64"),
], ids=["moment", "weight-symmetry", "weight-psd", "merged-psd", "merged-sum", "merged-spectrum"])
def test_the_library_and_the_loader_give_one_message(build, load, doc, message):
    # the constructors said "moment S_2" and "atom 1: weight", which the
    # loaders re-raised as "moments[2]" and "atoms[1].W"
    if build is MomentSequence:
        args, json_doc = (doc,), {"n": 2, "moments": np.asarray(doc).tolist()}
    else:
        args, json_doc = (np.int64(2), doc), _atoms_doc(2, doc)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(*args)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load(json_doc)


def test_a_weight_of_the_wrong_shape_is_named_with_the_validated_size():
    # the message printed the caller's n: "expected (np.int64(2), np.int64(2))".
    # The loader reads each weight as an n x n JSON matrix first, so it names
    # the same field with its own shape message
    atoms = [(0.0, I2), (1.0, np.eye(3))]
    with pytest.raises(ValueError, match=r"^atoms\[1\]\.W has shape \(3, 3\), expected \(2, 2\)$"):
        AtomicMatrixMeasure(np.int64(2), atoms)
    with pytest.raises(ValueError, match=r"^atoms\[1\]\.W must be a 2x2 matrix$"):
        measure_from_json(_atoms_doc(2, atoms))


def test_positivity_audit_ignores_trials_and_seed():
    # the test is exact: no trial count or seed changes a report
    mu = SimpleNamespace(n=2, atoms=((0.5, np.diag([1.0, -1.0])), (0.8, I2)))
    want = positivity_audit(mu, [[0, 1]], 0)
    for trials, seed in ((1, 0), (300, 6), (20_000, 3)):
        assert positivity_audit(mu, [[0, 1]], trials, seed=seed) == want


def _lagrange_witness(points, j, v):
    """A(x) = l_j(x) e_0 v^T, with l_j the Lagrange basis polynomial of the points at x_j."""
    others = [x for k, x in enumerate(points) if k != j]
    ell = npoly.polyfromroots(others) / np.prod([points[j] - x for x in others])
    lead = np.zeros((len(v), len(v)))
    lead[0] = v
    return MatrixPoly(ell[:, np.newaxis, np.newaxis] * lead)


def _reference_audit(mu, generators):
    """Each pair's L(g A^T A) at its witness, one trial at a time with MatrixPoly arithmetic.

    A is the Lagrange witness of atom j, with v the eigenvector of the least
    eigenvalue of g(x_j) W_j, so L(g A^T A) = v^T g(x_j) W_j v; the support
    check is left out.  Returns (violations, min_margin).
    """
    points = [x for x, _ in mu.atoms]
    violations, margins = [], []
    for j, (x, w) in enumerate(mu.atoms):
        sym = 0.5 * (w + w.T)
        for gi, g in enumerate([[1.0]] + [list(g) for g in generators]):
            v = np.linalg.eigh(npoly.polyval(x, g) * sym)[1][:, 0]
            a = _lagrange_witness(points, j, v)
            val = integrate_trace(scalar_poly_mult(g, poly_matmul(transpose_poly(a), a)), mu)
            size = len(g) * max(1.0, np.max(np.abs(g))) * max(1.0, abs(x)) ** (len(g) - 1)
            tol = AUDIT_TOL * size * max(1.0, np.linalg.norm(sym, 2))
            margins.append(val + tol)
            if val < -tol:
                violations.append({"atom": j, "generator": gi - 1, "value": val})
    return violations, min(margins, default=0.0)


def _audit_case(kind, n, rng):
    """(measure, generators) with the atoms inside the generators' support."""
    count = 1 + (n - 1) % 4
    if kind == "plain":
        return rand_measure(rng, n, count, -2.0, 2.0), []
    if kind == "line":
        return rand_measure(rng, n, count, -2.0, 2.0), [[4.0, 0.0, -1.0]]
    if kind == "unit":
        return rand_measure(rng, n, count, 0.0, 1.0), [[0.0, 1.0], [1.0, -1.0]]
    if kind == "shift":
        atoms = [(0.0, rand_psd(rng, n))] + [(float(x), rand_psd(rng, n))
                                            for x in rng.uniform(n, n + 2, count - 1)]
        return AtomicMatrixMeasure(n, atoms), [[0.0, 0.0, -1.0, 1.0 / i]
                                               for i in range(1, n + 1)]
    if kind == "edge":
        # one atom at 0, a root of x and 5e-13 below the root of the last
        # generator (inside the support check's bound): its witness A = e_0 v^T
        # is exact, and its margin is the least
        return AtomicMatrixMeasure(n, [(0.0, rand_psd(rng, n))]), [[0.0, 1.0], [1.0, -1.0],
                                                                  [-5e-13, 1.0]]
    # an indefinite weight: every pair at an atom where the generator is
    # positive is a violation
    w = np.diag(np.where(np.arange(n) % 2 == 0, 1.0, -1.5))
    return SimpleNamespace(n=n, atoms=tuple((float(x), w) for x in
                                            separated_points(rng, count, 0.0, 1.0, 0.05))), [[0.0, 1.0]]


@pytest.mark.parametrize("kind", ["plain", "line", "unit", "shift", "edge", "indefinite"])
@pytest.mark.parametrize("n", range(1, 7))
def test_positivity_audit_matches_per_trial_reference(kind, n):
    # each violation is L(g A^T A) at the Lagrange witness of its pair
    mu, gens = _audit_case(kind, n, np.random.default_rng(100 * n + len(kind)))
    violations, min_margin = _reference_audit(mu, gens)
    rep = positivity_audit(mu, gens, 40)
    assert rep.passed == (not violations) == (kind != "indefinite" or n == 1)
    assert ([(v["atom"], v["generator"]) for v in rep.violations]
            == [(v["atom"], v["generator"]) for v in violations])
    for got, want in zip(rep.violations, violations):
        assert got["value"] == pytest.approx(want["value"], rel=1e-12)
    assert rep.min_margin == pytest.approx(min_margin, rel=1e-12)


def _edge_weight(rng, n, scale):
    """A weight whose least eigenvalue sits at -0.99 WEIGHT_PSD_TOL max(1, lambda_max)."""
    lam = rng.uniform(0.3, 3.0, n) * scale
    lam[0] = -0.99 * WEIGHT_PSD_TOL * np.max(lam[1:], initial=1.0)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(lam) @ q.T


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(n=st.integers(1, 6), count=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       exponent=st.integers(-6, 6), edge_weight=st.booleans(), on_root=st.booleans(),
       near_root=st.booleans())
def test_positivity_audit_passes_every_valid_measure(n, count, seed, exponent, edge_weight,
                                                     on_root, near_root):
    rng = np.random.default_rng(seed)
    lo, hi = ((-2.0, 2.0), (0.0, 1.0), (1.0, 5.0), (-30.0, 30.0))[seed % 4]
    scale = 10.0 ** exponent
    atoms = list(rand_measure(rng, n, count, lo, hi, wlo=0.3 * scale, whi=3.0 * scale).atoms)
    if on_root:      # every generator below vanishes at lo, exactly
        atoms.insert(0, (lo, rand_psd(rng, n, 0.3 * scale, 3.0 * scale)))
    if edge_weight:
        k = int(rng.integers(len(atoms)))
        atoms[k] = (atoms[k][0], _edge_weight(rng, n, scale))
    mu = AtomicMatrixMeasure(n, atoms)
    gens = [[-lo, 1.0], [hi, -1.0], [-lo * hi, lo + hi, -1.0]]
    if near_root:    # g(x_0) at half the support check's bound below zero
        x = mu.atoms[0][0]
        g = [-x - 0.5e-12 * max(1.0, abs(x)) ** 2, 1.0]
        bound = 1e-12 * max(1.0, abs(g[0])) * max(1.0, abs(x))
        assert -bound < npoly.polyval(x, g) < 0.0
        gens.append(g)
    rep = positivity_audit(mu, gens, 40)
    assert rep.passed and not rep.violations and rep.min_margin > 0.0


def test_integration_linearity():
    rng = np.random.default_rng(41)
    mu = rand_measure(rng, 2, 3, -2.0, 2.0)
    f = MatrixPoly(rng.standard_normal((3, 2, 2)))
    g = MatrixPoly(rng.standard_normal((2, 2, 2)))
    lhs = integrate_trace(2.5 * f + g, mu)
    rhs = 2.5 * integrate_trace(f, mu) + integrate_trace(g, mu)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_moment_integral_consistency():
    rng = np.random.default_rng(43)
    mu = rand_measure(rng, 3, 3, -2.0, 2.0)
    seq = forward_moments(mu, 5)
    for p in (0, 2, 5):
        for k in range(3):
            for l in range(3):
                e = np.zeros((3, 3))
                e[k, l] += 0.5
                e[l, k] += 0.5
                f = MatrixPoly(np.concatenate([np.zeros((p, 3, 3)), e[np.newaxis]]))
                assert integrate_trace(f, mu) == pytest.approx(seq[p][k, l], abs=1e-10)


@pytest.mark.parametrize("checker,lo,hi,deg", [
    (check_hamburger, -2.0, 2.0, 6),
    (check_stieltjes, 0.0, 2.0, 7),
    (check_hausdorff, 0.0, 1.0, 6),
])
def test_forward_moments_pass_matching_checker(checker, lo, hi, deg):
    rng = np.random.default_rng(51)
    for _ in range(10):
        mu = rand_measure(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), lo, hi)
        assert checker(forward_moments(mu, deg)).passed


def test_certificate_measure_duality():
    # a half-line certificate forces a nonnegative pairing against any
    # measure supported in [0, inf)
    rng = np.random.default_rng(61)
    from matmoments import matmul, scalar_poly_mult, transpose_poly
    for _ in range(5):
        a = MatrixPoly(rng.standard_normal((2, 2, 2)))
        b = MatrixPoly(rng.standard_normal((2, 2, 2)))
        f = matmul(a, transpose_poly(a)) + scalar_poly_mult([0.0, 1.0],
                                                            matmul(b, transpose_poly(b)))
        cert = decompose_halfline(f)
        assert cert.residual <= 1e-8 * max(1.0, f.max_coeff_abs())
        mu = rand_measure(rng, 2, 3, 0.0, 5.0)
        mass = float(np.trace(mu.total_mass()))
        bound = max(f(x).max() for x, _ in mu.atoms)
        assert integrate_trace(f, mu) >= -1e-8 * max(1.0, mass * bound)


def test_measure_json_round_trip():
    rng = np.random.default_rng(71)
    mu = rand_measure(rng, 2, 2, -1.0, 1.0)
    back = measure_from_json(measure_to_json(mu))
    assert len(back.atoms) == len(mu.atoms)
    for (x1, w1), (x2, w2) in zip(mu.atoms, back.atoms):
        assert x1 == x2 and np.allclose(w1, w2)
    with pytest.raises(ValueError, match="atoms"):
        measure_from_json({"n": 2, "atoms": [{"x": 0.0}]})


def test_map_measure_json_round_trip():
    m = PositiveMapMeasure(2, 1, [(3.0, [np.array([[1.0], [0.0]])])])
    back = map_measure_from_json(map_measure_to_json(m))
    f = MatrixPoly([[[1.0, 0], [0, 1]]])
    assert np.allclose(integrate_map(f, back), integrate_map(f, m))
    # a superoperator measure is Kraus operators too: it serializes and integrates alike
    v = np.array([[1.0, -2.0], [0.5, 3.0]])
    sup = PositiveMapMeasure.from_linear(2, 2, [(0.0, np.eye(4)), (2.0, superoperator([v]))])
    back = map_measure_from_json(json.loads(json.dumps(map_measure_to_json(sup))))
    g = MatrixPoly([[[2.0, 1.0], [1.0, 3.0]], [[0.0, -1.0], [-1.0, 1.0]]])
    assert np.array_equal(integrate_map(g, back), integrate_map(g, sup))
    assert np.allclose(integrate_map(g, sup), g(0.0) + v.T @ g(2.0) @ v)
