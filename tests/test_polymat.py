"""Matrix polynomial arithmetic: frozen examples and exactness properties."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from matmoments.certificates import _clearing_weights, _trig_weights
from matmoments.polymat import (INPUT_RTOL, STRIP_TOL, _hermitian_part, _least_on, _line_weights,
                                _weighted_sum)
from matmoments import (AtomicMatrixMeasure, LaurentPoly, MatrixPoly, MomentSequence,
                        certificate_from_json, decompose_line, fejer_riesz, laurent_from_json,
                        map_measure_from_json, matmul, matrixpoly_from_json, matrixpoly_to_json,
                        measure_from_json, momentsequence_from_json, scalar_poly_mult, scalarize,
                        transpose_poly)

I2 = np.eye(2)


def test_eval_zero_polynomial():
    z = MatrixPoly.zero(3)
    assert np.array_equal(z(3.7), np.zeros((3, 3)))


def test_eval_matrix_example():
    # F = [[x^2+1, x], [x, 1]] at x = 2
    f = MatrixPoly([[[1.0, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 0]]])
    assert np.array_equal(f(2.0), np.array([[5.0, 2.0], [2.0, 1.0]]))


def test_eval_constant():
    c = MatrixPoly.constant(I2)
    for x in (-3.0, 0.0, 11.5):
        assert np.array_equal(c(x), I2)


def test_matmul_monomials():
    xi = MatrixPoly([0 * I2, I2])
    sq = matmul(xi, xi)
    assert sq.deg == 2
    assert np.array_equal(sq.coeffs[2], I2)
    assert np.array_equal(sq.coeffs[1], 0 * I2)


def test_matmul_hand_expansion():
    # P = [[x, 1], [1, 0]]; P P^T = [[x^2+1, x], [x, 1]]
    p = MatrixPoly([[[0.0, 1], [1, 0]], [[1, 0], [0, 0]]])
    prod = matmul(p, transpose_poly(p))
    expect = MatrixPoly([[[1.0, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 0]]])
    assert prod.deg == 2
    for k in range(3):
        assert np.array_equal(prod.coeffs[k], expect.coeffs[k])


def test_matmul_zero_annihilates():
    p = MatrixPoly(np.arange(8.0).reshape(2, 2, 2))
    z = MatrixPoly.zero(2)
    assert matmul(p, z).max_coeff_abs() == 0.0


def test_matmul_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        matmul(MatrixPoly.zero(2), MatrixPoly.zero(3))


def test_transpose_symmetric_fixed_point():
    f = MatrixPoly([I2, [[0.0, 1], [1, 0]]], symmetric=True)
    g = transpose_poly(f)
    assert np.array_equal(np.array(g.coeffs), np.array(f.coeffs))


def test_transpose_single_entry():
    f = MatrixPoly([[[0.0, 0], [0, 0]], [[0, 1], [0, 0]]])
    g = transpose_poly(f)
    assert np.array_equal(g.coeffs[1], np.array([[0.0, 0], [1, 0]]))


def test_transpose_involution_and_antihomomorphism():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = MatrixPoly(rng.integers(-4, 5, (3, 3, 3)).astype(float))
        q = MatrixPoly(rng.integers(-4, 5, (4, 3, 3)).astype(float))
        assert np.array_equal(np.array(transpose_poly(transpose_poly(p)).coeffs),
                              np.array(p.coeffs))
        lhs = transpose_poly(matmul(p, q))
        rhs = matmul(transpose_poly(q), transpose_poly(p))
        assert np.array_equal(np.array(lhs.coeffs), np.array(rhs.coeffs))


def test_matmul_associative_distributive_exact():
    rng = np.random.default_rng(31)
    for _ in range(5):
        p = MatrixPoly(rng.integers(-3, 4, (3, 2, 2)).astype(float))
        q = MatrixPoly(rng.integers(-3, 4, (2, 2, 2)).astype(float))
        r = MatrixPoly(rng.integers(-3, 4, (4, 2, 2)).astype(float))
        a = matmul(matmul(p, q), r)
        b = matmul(p, matmul(q, r))
        assert np.array_equal(np.array(a.coeffs), np.array(b.coeffs))
        c = matmul(p, q + r)
        d = matmul(p, q) + matmul(p, r)
        assert np.array_equal(np.array(c.coeffs), np.array(d.coeffs))


# Loop versions of the products, as they were before matmul went through
# _conv_stack and scalar_poly_mult through one slice add per weight.  The
# array code must reproduce them bit for bit.

def _matmul_loop(p, q):
    out = np.zeros((p.deg + q.deg + 1, p.n, p.n))
    for i in range(p.deg + 1):
        for j in range(q.deg + 1):
            out[i + j] += p.coeffs[i].dot(q.coeffs[j])
    return out


def _scalar_poly_mult_loop(qc, p):
    out = np.zeros((len(qc) + p.deg, p.n, p.n))
    for j, w in enumerate(qc):
        if w != 0:
            for k in range(p.deg + 1):
                out[j + k] += w * p.coeffs[k]
    return out


def _same_values(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["float"])
def test_products_match_the_loops(kind):
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((int(rng.integers(1, 10)), n, n)) * 10.0 ** rng.integers(-5, 6)
        b = rng.standard_normal((int(rng.integers(1, 10)), n, n))
        w = rng.standard_normal(int(rng.integers(1, 5)))
        w = list(np.where(rng.random(w.size) < 0.3, 0.0, w))     # zero weights are skipped
        p, q = MatrixPoly(a), MatrixPoly(b)
        assert _same_values(np.array(matmul(p, q).coeffs), MatrixPoly(_matmul_loop(p, q)).coeffs)
        assert _same_values(np.array(scalar_poly_mult(w, p).coeffs),
                            MatrixPoly(_scalar_poly_mult_loop(w, p)).coeffs)


def test_eval_commutes_with_arithmetic():
    rng = np.random.default_rng(37)
    p = MatrixPoly(rng.standard_normal((4, 2, 2)))
    q = MatrixPoly(rng.standard_normal((3, 2, 2)))
    for x in np.linspace(-1.5, 1.5, 7):
        scale = max(1.0, np.max(np.abs(p(x) @ q(x))))
        assert np.max(np.abs(matmul(p, q)(x) - p(x) @ q(x))) < 1e-12 * scale
        assert np.max(np.abs((p + q)(x) - (p(x) + q(x)))) < 1e-12 * scale


def test_trailing_coefficients_stripped():
    p = MatrixPoly([I2, I2, 1e-16 * I2])
    assert p.deg == 1
    z = MatrixPoly([0 * I2, 0 * I2])
    assert z.deg == 0 and z.max_coeff_abs() == 0.0


def test_coefficients_past_the_degree_or_band_are_zero():
    p = MatrixPoly([I2, 2.0 * I2])
    assert np.array_equal(p.coeff(1), 2.0 * I2)
    for k in (-1, 2, 7):
        assert p.coeff(k).shape == (2, 2) and not p.coeff(k).any()
    # in u's field: float64 when every imaginary part is zero, complex128 otherwise
    for top, field in ((I2, np.float64), (1j * I2, np.complex128)):
        u = LaurentPoly(np.array([np.conj(top), 3.0 * I2, top], dtype=complex))
        assert u.coeffs.dtype == field and np.array_equal(u.coeff(0), 3.0 * I2)
        for k in (-2, 2, 5):
            assert u.coeff(k).shape == (2, 2) and u.coeff(k).dtype == field and not u.coeff(k).any()


def test_containers_state_their_sizes():
    assert repr(MatrixPoly([I2, I2])) == "MatrixPoly(n=2, deg=1)"
    assert repr(LaurentPoly(np.array([I2, I2, I2], dtype=complex))) == "LaurentPoly(n=2, band=1)"
    seq = MomentSequence(np.array([I2, 0.0 * I2, I2]))
    assert len(seq) == 3 and repr(seq) == "MomentSequence(n=2, D=2)"


def _strip_loop(arr):
    # the constructor's strip as a per-coefficient loop, as it was before
    # one stack-wide max replaced it
    last = arr.shape[0]
    while last > 1 and float(np.max(np.abs(arr[last - 1]))) < STRIP_TOL:
        last -= 1
    return arr[:last]


def test_strip_matches_the_loop():
    rng = np.random.default_rng(23)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, 1e-15, -1e-15])
    stripped = kept_special = 0
    for _ in range(400):
        n, length = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        arr = rng.standard_normal((length, n, n))
        for k in range(length):
            kind = int(rng.integers(0, 4))
            if kind == 0:
                arr[k] = 0.0
            elif kind == 1:
                arr[k] = 1e-15 * np.sign(arr[k])
            elif kind == 2:
                mask = rng.random((n, n)) < 0.5
                arr[k][mask] = specials[rng.integers(0, specials.size, int(mask.sum()))]
        want = _strip_loop(arr)
        got = MatrixPoly(arr).coeffs
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        stripped += want.shape[0] < length
        kept_special += not np.all(np.isfinite(want[-1]))
    assert stripped > 100 and kept_special > 20


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint8)


@pytest.mark.parametrize("count, rows, n", [(2, 1, 1), (5, 7, 3), (9, 130, 2), (17, 33, 6),
                                            (12, 300, 6)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_axis0_reduce_is_the_left_to_right_loop(count, rows, n, dtype):
    """``_weighted_sum`` and ``spectral._residual_coeffs`` rest on this numpy behaviour."""
    rng = np.random.default_rng([count, rows, n])
    shape = (count, rows, n, n)
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2e-309, np.inf, -np.inf, np.nan])
    pick = rng.random(shape) < 0.25
    vals[pick] = rng.choice(special, pick.sum())
    vals[0, :rows // 2] = 0.0           # an accumulator that starts from +0
    stack = vals.astype(dtype)
    if dtype is np.complex128:
        stack.imag = vals[::-1]
    assert stack.flags.c_contiguous
    for ufunc in (np.add, np.subtract):
        loop = stack[0].copy()
        with np.errstate(all="ignore"):
            for term in stack[1:]:
                loop = ufunc(loop, term)
            got = ufunc.reduce(stack, axis=0)
        assert np.array_equal(_bits(got), _bits(loop)), (
            f"{ufunc.__name__}.reduce over axis 0 no longer adds the rows left to right "
            f"with numpy {np.__version__}; polymat._weighted_sum and "
            f"spectral._residual_coeffs would move bits")


def test_a_sum_from_plus_zero_never_becomes_minus_zero():
    out = _weighted_sum(np.ones((4, 3)), np.full((4, 2, 2), -0.0))
    assert not np.signbit(out).any() and not out.any()


def test_weighted_sum_matches_the_loop_that_skips_zero_weights():
    rng = np.random.default_rng(5)
    for dtype in (np.float64, np.complex128):
        weights = rng.integers(-3, 4, (9, 11)).astype(dtype)
        stack = rng.standard_normal((9, 4, 4)).astype(dtype)
        stack[[2, 5], 1, 3] = [np.inf, -np.inf]     # 0 * inf would be NaN
        stack[rng.random(stack.shape) < 0.2] = -0.0
        want = np.zeros((11, 4, 4), dtype=dtype)
        with np.errstate(invalid="ignore"):
            for k in range(9):
                for r in range(11):
                    if weights[k, r] != 0:
                        want[r] += weights[k, r] * stack[k]
            got = _weighted_sum(weights, stack)
        assert np.array_equal(_bits(got), _bits(want))
        assert np.isfinite(got[weights[[2, 5]].any(axis=0) == 0]).all()


def test_fraction_inputs_become_float64():
    third = 1.0 / 3.0
    p = MatrixPoly(np.array([[[Fraction(1, 3)]], [[Fraction(2)]]], dtype=object))
    want = np.array([[[third]], [[2.0]]])
    assert p.coeffs.dtype == np.float64 and p.coeffs.tobytes() == want.tobytes()
    q = MatrixPoly.from_scalar([Fraction(1, 3), 2])
    assert q.coeffs.dtype == np.float64 and q.coeffs.tobytes() == want.tobytes()
    for r in (Fraction(1, 3) * MatrixPoly.constant(I2), MatrixPoly.constant(I2) * Fraction(1, 3),
              scalar_poly_mult([Fraction(1, 3)], MatrixPoly.constant(I2))):
        assert r.coeffs.dtype == np.float64
        assert r.coeffs.tobytes() == (third * I2)[np.newaxis].tobytes()


def test_complex_scalars_are_rejected():
    p = MatrixPoly.constant(I2)
    with pytest.raises(TypeError):
        1j * p
    with pytest.raises(TypeError):
        p * (1 + 0j)
    with pytest.raises(ValueError, match="real"):
        MatrixPoly(1j * I2)


def test_hermitian_defect_matches_the_per_k_loop():
    rng = np.random.default_rng(29)
    for trial in range(60):
        band, n = int(rng.integers(0, 5)), int(rng.integers(1, 5))
        c = rng.standard_normal((2 * band + 1, n, n)) + 1j * rng.standard_normal(
            (2 * band + 1, n, n))
        if trial % 2:       # hermitian-valued: the defect is 0 both ways
            c[:band] = np.swapaxes(c[:band:-1], 1, 2).conj()
            c[band] = 0.5 * (c[band] + c[band].conj().T)
        u = LaurentPoly(c)
        loop = max(float(np.max(np.abs(u.coeff(-k) - u.coeff(k).conj().T)))
                   for k in range(band + 1))
        assert u.hermitian_defect() == loop
        assert (loop == 0.0) == bool(trial % 2)
    # the per-k max dropped a NaN that appeared after k = 0
    assert np.isnan(LaurentPoly(np.array([[[1.0]], [[1.0]], [[np.nan]]])).hermitian_defect())


def test_symmetric_flag_enforced():
    with pytest.raises(ValueError, match="symmetric"):
        MatrixPoly([[[0.0, 1], [0, 0]]], symmetric=True)


def test_symmetric_flag_names_the_first_asymmetric_coefficient():
    c = np.zeros((5, 2, 2))
    c[:, 0, 0] = 1.0
    c[2, 0, 1] = c[4, 1, 0] = 1.0
    with pytest.raises(ValueError, match="coefficient 2 is not exactly symmetric"):
        MatrixPoly(c, symmetric=True)
    # NaN != NaN: a NaN entry, even on the diagonal, is not exactly symmetric
    c = np.ones((3, 2, 2))
    c[1, 1, 1] = np.nan
    with pytest.raises(ValueError, match="coefficient 1 is not exactly symmetric"):
        MatrixPoly(c, symmetric=True)
    assert MatrixPoly(np.ones((3, 2, 2)), symmetric=True).symmetric


def test_laurent_poly_rejects_an_even_length_stack():
    with pytest.raises(ValueError, match="^coefficient stack must have odd length 2\\*band\\+1$"):
        LaurentPoly(np.zeros((2, 1, 1)))


def test_sums_and_products_want_matrix_polys_of_one_size():
    p, q = MatrixPoly.constant(I2), MatrixPoly.constant(np.eye(3))
    with pytest.raises(ValueError, match=r"^size mismatch: 2 vs 3$"):
        p + q
    with pytest.raises(ValueError, match=r"^size mismatch: 2 vs 3$"):
        p @ q
    with pytest.raises(TypeError):
        p + I2


def test_laurent_poly_rejects_zero_size_matrices():
    with pytest.raises(ValueError, match="n >= 1"):
        LaurentPoly(np.zeros((3, 0, 0)))


@pytest.mark.parametrize("shape", [(0, 2, 2), (3, 0, 0), (3, 2, 3), (2, 2, 2, 2)])
@pytest.mark.parametrize("make", [MatrixPoly, MomentSequence, LaurentPoly])
def test_every_stack_is_checked_for_square_matrices(make, shape):
    with pytest.raises(ValueError, match=r"non-empty \(len, n, n\) stack of square matrices "
                                         r"with n >= 1"):
        make(np.zeros(shape))


def test_only_laurent_poly_rejects_a_single_matrix():
    # a 2-D matrix is a constant MatrixPoly or a one-moment sequence, but no
    # Laurent stack: its length would be read as the band
    assert MatrixPoly(np.eye(2)).deg == 0 and MomentSequence(np.eye(2)).D == 0
    with pytest.raises(ValueError, match="non-empty"):
        LaurentPoly(np.eye(3))


def test_json_round_trip():
    f = MatrixPoly([[[1.0, 0], [0, 1]], [[0, 1], [1, 0]]], symmetric=True)
    doc = matrixpoly_to_json(f)
    g = matrixpoly_from_json(doc)
    assert g.symmetric and np.array_equal(np.array(g.coeffs), np.array(f.coeffs))


def test_the_loader_judges_the_symmetric_flag_as_matrix_poly_does():
    # the loader's own copy of the check said "field 'symmetric' set but
    # coefficients are not symmetric" and judged coefficients MatrixPoly strips
    doc = {"n": 2, "symmetric": True, "coeffs": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [2.0, 0.0]]]}
    with pytest.raises(ValueError, match="^coefficient 1 is not exactly symmetric$"):
        matrixpoly_from_json(doc)
    doc["coeffs"][1] = [[0.0, STRIP_TOL / 2], [0.0, 0.0]]
    assert matrixpoly_from_json(doc).deg == 0


# the five admission checks of an input matrix M, each judging its asymmetry
# against INPUT_RTOL times M's own scale max(1, max|M|)
_ADMIT = {
    "moment": lambda m: MomentSequence([m]),
    "weight": lambda m: AtomicMatrixMeasure(2, [(0.0, m)]),
    "decompose_line": lambda m: decompose_line(MatrixPoly([m, 0 * m, m])),
    "scalarize": lambda m: scalarize(MatrixPoly([m, 0 * m, m])),
    "fejer_riesz": lambda m: fejer_riesz(LaurentPoly(m[np.newaxis])),
}


@pytest.mark.parametrize("scale", [1.0, 1e3])
@pytest.mark.parametrize("check", sorted(_ADMIT))
def test_every_input_check_admits_an_asymmetry_within_input_rtol(check, scale):
    # the moment and the polynomial checks rejected 0.5 INPUT_RTOL: they
    # judged at 1e-12, the weight and Laurent checks at 1e-10
    def skewed(rel):
        m = scale * np.eye(2)
        m[0, 1] += rel * INPUT_RTOL * scale
        return m
    _ADMIT[check](skewed(0.5))
    with pytest.raises(ValueError, match="not symmetric|not hermitian"):
        _ADMIT[check](skewed(2.0))


def test_empty_coefficient_stack_is_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        MatrixPoly(np.zeros((0, 2, 2)))


@pytest.mark.parametrize("doc,field", [
    ({"n": 2, "coeffs": [[[1.0, 0.0]]]}, "coeffs[0]"),
    ({"n": 2, "coeffs": [[[1.0, 0.0], [0.0]]]}, "coeffs[0]"),
    ({"n": 0, "coeffs": [[[1.0]]]}, "'n'"),
    ({"coeffs": [[[1.0]]]}, "'n'"),
    ({"n": 1}, "'coeffs'"),
    ({"n": 1, "symmetric": "no", "coeffs": [[[1.0]]]}, "'symmetric'"),
    ({"n": 1, "symmetric": 0.5, "coeffs": [[[1.0]]]}, "'symmetric'"),
    ({"n": 1, "symmetric": None, "coeffs": [[[1.0]]]}, "'symmetric'"),
    ({"n": 1, "coeffs": []}, "'coeffs'"),
    ({"n": 1, "coeffs": [[[1.0]], [[None]]]}, "coeffs[1]"),
])
def test_json_rejects_bad_documents(doc, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        matrixpoly_from_json(doc)


_LAURENT = {"n": 1, "band": 1, "coeffs_re": [[[1.0]], [[2.0]], [[1.0]]],
            "coeffs_im": [[[0.0]], [[0.0]], [[0.0]]]}


# every loader reads its matrices through the one codec, and its message
# names the field path of the first bad entry
@pytest.mark.parametrize("load,doc,field", [
    (momentsequence_from_json, {"n": 1, "moments": []}, "'moments'"),
    (momentsequence_from_json, {"n": 2, "moments": [[[1.0, 0.0], [0.0, 1.0]], [[1.0]]]},
     "moments[1]"),
    (laurent_from_json, {**_LAURENT, "coeffs_im": [[[0.0]], [[0.0]]]}, "'coeffs_im'"),
    (laurent_from_json, {**_LAURENT, "band": -1}, "'band'"),
    (laurent_from_json, {**_LAURENT, "coeffs_re": [[[1.0]], [[2.0]], [[1.0, 0.0]]]},
     "coeffs_re[2]"),
    (measure_from_json, {"n": 2, "atoms": [{"x": 0.0, "W": [[1.0, 0.0], [0.0, 1.0]]},
                                           {"x": 1.0, "W": [[1.0, 0.0]]}]}, "atoms[1].W"),
    (measure_from_json, {"n": 1, "atoms": [{"x": True, "W": [[1.0]]}]}, "atoms[0].x"),
    (map_measure_from_json, {"h_dim": 2, "k_dim": 1, "atoms": [
        {"x": 0.0, "kraus": [[[1.0], [0.0]], [[1.0, 0.0], [0.0, 1.0]]]}]}, "atoms[0].kraus[1]"),
    (map_measure_from_json, {"h_dim": 1, "k_dim": 1, "atoms": [
        {"x": 0.0, "kraus": [[[1.0]]]}, {"x": 1.0, "kraus": [None]}]}, "atoms[1].kraus[0]"),
    (map_measure_from_json, {"h_dim": 1, "k_dim": 1, "atoms": [{"x": 0.0, "kraus": 5}]},
     "'atoms[0].kraus'"),
    (certificate_from_json, {"variant": "line", "sigma": {}, "residual": None}, "'residual'"),
    (certificate_from_json, {"variant": "line"}, "'sigma'"),
    (certificate_from_json, {"variant": "line", "sigma": {"1": [{"n": 1, "coeffs": []}]}},
     "sigma['1'][0]"),
    (momentsequence_from_json, {"n": 2, "moments": [[[1.0, 0.0], [0.0, 1.0]]] * 3
                                + [[[1.0, 1.0], [0.0, 1.0]]]}, "moments[3] is not symmetric"),
    (measure_from_json, {"n": 1, "atoms": [{"x": 0.0, "W": [[1.0]]}, {"x": 1.0, "W": [[-1.0]]}]},
     "atoms[1].W has eigenvalue"),
    (measure_from_json, {"n": 2, "atoms": [{"x": 0.0, "W": [[1.0, 0.0], [0.0, 1.0]]},
                                           {"x": 1.0, "W": [[1.0, 1.0], [0.0, 1.0]]}]},
     "atoms[1].W is not symmetric"),
    (certificate_from_json, {"variant": ["line"], "sigma": {}}, "'variant'"),
    (certificate_from_json, {"variant": {"line": 1}, "sigma": {}}, "'variant'"),
    (certificate_from_json, {"variant": "line", "sigma": {"x": []}}, "'sigma'"),
    (certificate_from_json, {"variant": "line", "sigma": [[]]}, "field 'sigma' must be an object"),
    (certificate_from_json, {"variant": "line", "sigma": {"1": {}}},
     "sigma['1'] must be a list of matrix polynomials"),
])
def test_every_loader_names_the_bad_field(load, doc, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        load(doc)


def test_map_measure_loader_keeps_empty_kraus_lists():
    m = map_measure_from_json({"h_dim": 2, "k_dim": 1, "atoms": [{"x": 0.5, "kraus": []}]})
    assert m.atoms[0][1] == ()


def _rows(e, a, b):
    """Rows k = 0..e of (a0 + a1 y)^k (b0 + b1 y)^(e-k) by numpy, in floats: exact below 2^53."""
    return np.array([npoly.polymul(npoly.polypow(a, k), npoly.polypow(b, e - k))
                     for k in range(e + 1)])


@pytest.mark.parametrize("e", range(41))
def test_weight_tables_are_one_binomial_expansion(e):
    assert np.array_equal(_line_weights(e), _rows(e, [1, 1j], [1, -1j]))
    phased = _rows(e, [-1, 1], [1, 1]) * np.array([1, -1j, -1, 1j])[np.arange(e + 1) % 4, None]
    even, odd = _trig_weights(e)
    assert np.array_equal(even, phased.real[0::2, :e // 2 * 2 + 1] / 2.0 ** e)
    assert np.array_equal(odd, phased.imag[1::2, :e // 2 * 2 + 1] / 2.0 ** e)
    for sign in (1, -1):
        assert np.array_equal(_clearing_weights(e, sign), _rows(e, [0, 1], [1, sign]))


def _gaussian_expansion(k, nh):
    """Python-int (re, im) coefficients of (1 + ix)^k (1 - ix)^(nh-k)."""
    coeffs = [(1, 0)]
    for s in [1] * k + [-1] * (nh - k):
        coeffs = [(re - s * pim, im + s * pre)
                  for (re, im), (pre, pim) in zip(coeffs + [(0, 0)], [(0, 0)] + coeffs)]
    return coeffs


@pytest.mark.parametrize("nh", [58, 64])
def test_line_weights_round_the_exact_expansion_once(nh):
    # past 2^53 a float sum of binomial products rounds at each step: off by 1 at nh = 58
    exact = [[complex(float(re), float(im)) for re, im in _gaussian_expansion(k, nh)]
             for k in range(nh + 1)]
    assert np.array_equal(_line_weights(nh), np.array(exact))


def test_hermitian_stacks_locate_like_their_real_embedding():
    # [[R, -J], [J, R]] has the eigenvalues of R + iJ, each twice: the locator
    # on the complex stack itself finds the same least eigenvalue
    rng = np.random.default_rng(0)
    for trial in range(100):
        n, d = int(rng.integers(1, 5)), int(rng.integers(0, 9))
        c = rng.standard_normal((d + 1, n, n)) + 1j * rng.standard_normal((d + 1, n, n))
        c = 0.5 * (c + np.swapaxes(c, 1, 2).conj())
        a, b = [(-np.inf, np.inf), (0.0, np.inf), (0.0, 1.0), (-1.0, 2.0)][trial % 4]
        shift = [0.0, 1e-9, 0.5][trial % 3]
        worst, _ = _least_on(c, a, b, shift)
        embedded, _ = _least_on(np.block([[c.real, -c.imag], [c.imag, c.real]]), a, b, shift)
        assert abs(worst - embedded) <= 1e-12 * abs(embedded), trial


def test_a_stack_singular_everywhere_is_judged_at_the_ends():
    # det F = 0 at every x, so the companion cannot be built: the locator
    # evaluates its best Chebyshev point and the interval's ends, and finds
    # diag(x - 0.3, 0)'s least eigenvalue -0.3 at x = 0
    f = np.zeros((2, 2, 2))
    f[0, 0, 0], f[1, 0, 0] = -0.3, 1.0
    worst, x = _least_on(f, 0.0, 1.0, 0.0)
    assert (worst, x) == (-0.3, 0.0)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@st.composite
def _stacks(draw):
    """A real or complex stack of rank 2 or 3 with entries up to +-float max."""
    shape = draw(st.sampled_from([(), (1,), (3,)])) + (draw(st.integers(1, 4)),) * 2
    parts = 1 + draw(st.booleans())
    size = parts * math.prod(shape)
    big = np.finfo(float).max
    entries = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([big, -big, 1e308])
    flat = np.array(draw(st.lists(entries, min_size=size, max_size=size)))
    s = flat.reshape((parts,) + shape)
    return s[0] + 1j * s[1] if parts == 2 else s[0]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(s=_stacks())
def test_the_hermitian_part_is_finite_hermitian_and_the_halved_sum(s):
    h = _hermitian_part(s)
    assert h.dtype == s.dtype and np.isfinite(h).all()
    assert np.array_equal(h, np.swapaxes(h, -1, -2).conj())      # as numbers: conj(0) is -0j
    with np.errstate(over="ignore", invalid="ignore"):   # a complex inf times 0.5 is NaN too
        ref = 0.5 * (s + np.swapaxes(s, -1, -2).conj())
    # halves of entries from 2 * tiny up are exact, and then so is their sum
    parts = [s.real, s.imag] if np.iscomplexobj(s) else [s]
    normal = np.logical_and.reduce([(p == 0) | (np.abs(p) >= 2 * np.finfo(float).tiny)
                                    for p in parts])
    keep = np.isfinite(ref) & normal & np.swapaxes(normal, -1, -2)
    if np.iscomplexobj(s):      # 0.5 * z is a complex product: a zero's sign may differ
        assert np.array_equal(h[keep], ref[keep])
    else:
        assert np.array_equal(_bits(h[keep]), _bits(ref[keep]))
