"""Truncated shift-family diagnostics: bit-exact identities, leading coefficients, chain."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_psd
from matmoments import (AtomicMatrixMeasure, MatrixPoly, ModulePositivityError, ShiftFamily,
                        build_family, cauchy_schwarz_chain, integrate_trace,
                        leading_coeff_probe, matmul, positivity_audit, scalar_poly_mult,
                        shift_compress, support_collapse_check, transpose_poly)
from matmoments.polymat import INPUT_RTOL

_PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def test_family_smallest_case_constraint_set():
    fam = build_family(1)
    p1 = fam.G
    xs = np.linspace(-5.0, 5.0, 1001)
    nonneg = [p1(x)[0, 0] >= -1e-12 for x in xs]
    expected = [(abs(x) < 1e-12) or (x >= 1.0) for x in xs]
    assert nonneg == expected


def test_family_entry_values_exact():
    fam = build_family(2)
    v = fam.G(1.0)
    assert v[1, 1] == float(Fraction(-1, 2))      # p_2(1) = 1/2 - 1
    assert np.all(fam.G(0) == 0.0)
    assert fam.G.coeffs.dtype == np.float64


def test_compress_is_the_shift_product_for_any_g():
    # S e_1 = 0, S e_{i+1} = e_i: S S^T = diag(1, .., 1, 0), and the slice
    # equals S^n G (S^T)^n bit for bit for a full G, not only a diagonal one
    shift = np.eye(4, k=1)
    assert np.array_equal(shift @ shift.T, np.diag([1.0, 1.0, 1.0, 0.0]))
    g = np.random.default_rng(0).standard_normal((4, 4, 4))
    fam = ShiftFamily(4, MatrixPoly(g + np.swapaxes(g, 1, 2), symmetric=True))
    sn = np.eye(4)
    for n in range(4):
        explicit = np.array([sn @ c @ sn.T for c in fam.G.coeffs])
        assert shift_compress(fam, n).coeffs.tobytes() == explicit.tobytes()
        sn = sn @ shift


def test_compress_order_zero_is_family():
    fam = build_family(3)
    comp = shift_compress(fam, 0)
    assert np.array_equal(np.array(comp.coeffs), np.array(fam.G.coeffs))


def test_compress_exact_coefficients():
    fam = build_family(3)
    comp = shift_compress(fam, 1)
    cube = comp.coeffs[3]
    assert cube[0, 0] == float(Fraction(1, 2))
    assert cube[1, 1] == float(Fraction(1, 3))
    assert cube[2, 2] == 0
    square = comp.coeffs[2]
    assert square[0, 0] == float(Fraction(-1)) and square[1, 1] == float(Fraction(-1))
    assert square[2, 2] == 0


def test_compress_identity_all_orders():
    for n_dim in (1, 2, 4, 6):
        fam = build_family(n_dim)
        sn = np.eye(n_dim)
        for n in range(n_dim):
            comp = shift_compress(fam, n)
            for i in range(n_dim):
                want = Fraction(1, n + i + 1) if i < n_dim - n else Fraction(0)
                assert comp.coeffs[3][i, i] == float(want)
                assert comp.coeffs[2][i, i] == float(-1 if i < n_dim - n else 0)
            # the explicit product S^n G (S^T)^n with the superdiagonal
            # shift: its 0/1 entries move coefficients without rounding
            explicit = np.array([sn @ c @ sn.T for c in fam.G.coeffs])
            assert comp.coeffs.shape == explicit.shape
            assert comp.coeffs.tobytes() == explicit.tobytes()
            sn = sn @ np.eye(n_dim, k=1)


def test_compress_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        shift_compress(build_family(2), 2)


@pytest.mark.parametrize("size", [True, False, 2.0, "2"])
def test_sizes_must_be_integers_not_bools(size):
    # True passed as order 1 and build_family(True) raised a TypeError
    with pytest.raises(ValueError, match="^truncation dimension must be a positive integer$"):
        build_family(size)
    with pytest.raises(ValueError, match="^compression order must be a nonnegative integer$"):
        shift_compress(build_family(2), size)


def test_probe_family_leading_coefficient():
    fam = build_family(4)
    lead = np.array(fam.G.coeffs[3], dtype=float)
    assert np.linalg.eigvalsh(lead)[0] >= 0.0


def test_probe_minimum_and_candidate_exclusion():
    fam = build_family(3)
    rep = leading_coeff_probe(fam)
    assert rep.min_leading_eigenvalue == pytest.approx(1.0 / 3.0)
    assert rep.all_psd
    assert rep.negative_candidate_min_eigenvalue == pytest.approx(-1.0)
    assert rep.negative_candidate_excluded


# the argument reports lead(G)'s least normalized eigenvalue 1/N at each N,
# and the candidate's -1
@pytest.mark.parametrize("n_dim", [*range(1, 11), 16, 100, 709])
def test_probe_matches_pinned_reports(n_dim):
    rep = leading_coeff_probe(build_family(n_dim))
    assert rep.min_leading_eigenvalue == pytest.approx(1.0 / n_dim, rel=1e-15)
    assert rep.all_psd and rep.negative_candidate_excluded
    assert rep.negative_candidate_min_eigenvalue == -1.0


@pytest.mark.parametrize("trials", [-1, True, 2.5, "3", None])
def test_every_trials_check_wants_a_nonnegative_integer(trials):
    # the checks were trials < 0 alone, which True and 2.5 passed
    fam, mu = build_family(2), AtomicMatrixMeasure(2, [(0.5, np.eye(2))])
    for call in (lambda: positivity_audit(mu, [[0.0, 1.0]], trials),
                 lambda: cauchy_schwarz_chain(mu, fam, trials)):
        with pytest.raises(ValueError, match="trials must be a nonnegative integer"):
            call()


def test_probe_and_collapse_check_take_no_trials_or_seed():
    # nothing is drawn, so neither takes the trial count or seed it used to
    # ignore; momentctl shiftgap checks its --trials itself
    fam, mu = build_family(3), AtomicMatrixMeasure(3, [(0.0, np.eye(3))])
    with pytest.raises(TypeError):
        leading_coeff_probe(fam, 5)
    with pytest.raises(TypeError):
        support_collapse_check(mu, fam, trials=5)
    assert leading_coeff_probe(fam).all_psd and support_collapse_check(mu, fam)


def _vector_quadratic(base, f):
    """f(x)^T B(x) f(x) as scalar coefficients, f a vector polynomial (deg+1, n)."""
    embed = np.zeros(f.shape + (base.n,))
    embed[:, :, 0] = f                  # f as the first column of a square polynomial
    fp = MatrixPoly(embed)
    return matmul(matmul(transpose_poly(fp), base), fp).coeffs[:, 0, 0]


@_PROPERTY
@given(n_dim=st.integers(1, 6), congruences=st.integers(1, 3), factors=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
def test_module_elements_have_psd_leading_coefficients(n_dim, congruences, factors, seed):
    # the theorem behind leading_coeff_probe: sums of R^T B R with B in
    # {G, Id}, plus a rank-one term h v v^T (h a product of f^T B f, the
    # empty product 1 where factors = 0), have a nonzero PSD top coefficient
    rng = np.random.default_rng(seed)
    bases = (MatrixPoly.constant(np.eye(n_dim), symmetric=True), build_family(n_dim).G)
    elem = MatrixPoly.zero(n_dim)
    for _ in range(congruences):
        r = MatrixPoly(rng.standard_normal((int(rng.integers(1, 4)), n_dim, n_dim)))
        elem = elem + matmul(matmul(transpose_poly(r), bases[rng.integers(2)]), r)
    h = [1.0]
    for _ in range(factors):
        f = rng.standard_normal((int(rng.integers(1, 3)), n_dim))
        h = np.convolve(h, _vector_quadratic(bases[rng.integers(2)], f))
    v = np.zeros((int(rng.integers(1, 3)), n_dim, n_dim))
    v[:, :, 0] = rng.standard_normal(v.shape[:2])    # v as the first column
    vp = MatrixPoly(v)
    elem = elem + scalar_poly_mult(h, matmul(vp, transpose_poly(vp)))
    top = elem.coeffs[-1]
    scale = np.max(np.abs(top))
    assert scale > 0.0
    assert np.linalg.eigvalsh(0.5 * (top + top.T))[0] >= -1e-9 * scale


def test_module_checks_draw_no_random_numbers(monkeypatch):
    # the leading-coefficient argument and the audit behind the chain and
    # the collapse check are exact: they must run with numpy's generators
    # out of reach
    def refuse(*args, **kwargs):
        raise AssertionError("a module check drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    n_dim = 3
    fam = build_family(n_dim)
    mu = AtomicMatrixMeasure(n_dim, [(0.0, np.eye(n_dim)), (3.0, 0.5 * np.eye(n_dim))])
    gens = [[0.0, 0.0, -1.0, 1.0 / i] for i in range(1, n_dim + 1)]
    assert leading_coeff_probe(fam).all_psd
    assert positivity_audit(mu, gens, 20_000, seed=3).passed
    assert cauchy_schwarz_chain(mu, fam, trials=500, seed=7).all_hold
    assert not support_collapse_check(mu, fam)


def test_chain_point_mass_at_origin():
    fam = build_family(3)
    mu = AtomicMatrixMeasure(3, [(0.0, rand_psd(np.random.default_rng(2), 3))])
    rep = cauchy_schwarz_chain(mu, fam, trials=30, seed=1)
    assert rep.lhs == 0.0
    assert rep.all_hold and rep.final_bound_holds


def test_chain_wants_a_functional_of_the_family_size():
    mu = AtomicMatrixMeasure(2, [(0.0, np.eye(2))])
    with pytest.raises(ValueError, match="^functional size 2 does not match family size 3$"):
        cauchy_schwarz_chain(mu, build_family(3))


@pytest.mark.parametrize("check", [cauchy_schwarz_chain, support_collapse_check])
@pytest.mark.parametrize("n,big_n", [(2, 4), (6, 2)])
def test_both_shift_checks_want_a_functional_of_the_family_size(check, n, big_n):
    # support_collapse_check returned True for a point mass at the origin of
    # either size, where the chain raised
    mu = AtomicMatrixMeasure(n, [(0.0, np.eye(n))])
    with pytest.raises(ValueError, match=f"^functional size {n} does not match family size "
                                         f"{big_n}$"):
        check(mu, build_family(big_n))


def test_chain_precondition_failure_names_compression():
    fam = build_family(3)
    mu = AtomicMatrixMeasure(3, [(1.0, np.eye(3))])
    with pytest.raises(ModulePositivityError) as info:
        cauchy_schwarz_chain(mu, fam, trials=10)
    # most negative diagonal entry at x=1 is p_3(1) = 1/3 - 1
    assert info.value.generator_index == 2
    assert info.value.witness == "shift_compress(fam, 2)"
    assert info.value.value == pytest.approx(-2.0 / 3.0)


def test_chain_names_the_atom_of_an_indefinite_functional():
    # a duck-typed functional with an indefinite weight passes the support
    # check; the worst pair is p_1(3) = 18 times the eigenvalue -1 at atom 1
    fam = build_family(2)
    mu = SimpleNamespace(n=2, atoms=((0.0, np.eye(2)), (3.0, np.diag([1.0, -1.0]))))
    with pytest.raises(ModulePositivityError) as info:
        cauchy_schwarz_chain(mu, fam)
    assert (info.value.atom_index, info.value.point) == (1, 3.0)
    assert (info.value.generator_index, info.value.value) == (0, -18.0)
    assert "atom 1 (x=3)" in str(info.value)


def test_chain_decay_and_mixed_support():
    n_dim = 4
    fam = build_family(n_dim)
    rng = np.random.default_rng(9)
    mu = AtomicMatrixMeasure(n_dim, [(0.0, rand_psd(rng, n_dim)),
                                     (float(n_dim + 1), 0.01 * np.eye(n_dim))])
    rep = cauchy_schwarz_chain(mu, fam, trials=30, seed=4)
    assert rep.all_hold and rep.final_bound_holds
    assert rep.lhs > 0.0
    assert rep.lhs <= rep.rhs[0]
    for n in rep.n_values:
        assert rep.rhs[n] == rep.rhs[0] / (n + 1)
    assert all(rep.rhs[i + 1] <= rep.rhs[i] for i in range(n_dim - 1))


def test_chain_holds_for_compliant_functionals():
    n_dim = 3
    fam = build_family(n_dim)
    rng = np.random.default_rng(14)
    for _ in range(10):
        atoms = [(0.0, rand_psd(rng, n_dim))]
        if rng.random() < 0.7:
            atoms.append((float(rng.uniform(n_dim, n_dim + 2)), rand_psd(rng, n_dim)))
        mu = AtomicMatrixMeasure(n_dim, atoms)
        rep = cauchy_schwarz_chain(mu, fam, trials=20, seed=6)
        assert rep.all_hold and rep.final_bound_holds


@pytest.mark.parametrize("x", [4.0, 4.5, 24.0])
def test_the_chain_holds_for_a_weight_admitted_at_the_edge(x):
    # the constructor and the audit admit W = diag(-0.99 INPUT_RTOL, 0, 0, 0); with
    # a slack of INPUT_RTOL max(1, L(Id x^2), rhs(0), |L(Id)|) = 4e-10 the first
    # inequality at n = 0 missed by 4.8e-9, 7.0e-9 and 1.3e-6
    edge = np.diag([-0.99 * INPUT_RTOL, 0.0, 0.0, 0.0])
    rep = cauchy_schwarz_chain(AtomicMatrixMeasure(4, [(0.0, np.eye(4)), (x, edge)]),
                               build_family(4))
    assert rep.all_hold and rep.final_bound_holds


def _edge_weight(rng, n):
    """A symmetric weight whose least eigenvalue is -0.99 INPUT_RTOL max(1, its largest)."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = 10.0 ** rng.uniform(-3.0, 3.0, n)
    lam[0] = -0.99 * INPUT_RTOL * max([1.0, *lam[1:]])
    w = q @ np.diag(lam) @ q.T
    return 0.5 * (w + w.T)


@_PROPERTY
@given(n_dim=st.integers(1, 6), offset=st.sampled_from([0.0, 0.5, 3.0, 20.0]),
       third=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_the_chain_holds_for_every_measure_admitted_at_the_edge(n_dim, offset, third, seed):
    # every weight sits at the constructor's limit, atoms at 0 and at or beyond N
    rng = np.random.default_rng(seed)
    atoms = [(0.0, _edge_weight(rng, n_dim)), (n_dim + offset, _edge_weight(rng, n_dim))]
    if third:
        atoms.append((n_dim + offset + float(rng.uniform(0.0, 5.0)), _edge_weight(rng, n_dim)))
    rep = cauchy_schwarz_chain(AtomicMatrixMeasure(n_dim, atoms), build_family(n_dim))
    assert rep.all_hold and rep.final_bound_holds


@pytest.mark.parametrize("n_dim", [1, 3, 6])
def test_chain_matches_the_exact_compressions(n_dim):
    # reference: A_n and J_n read off shift_compress(fam, n)
    fam = build_family(n_dim)
    rng = np.random.default_rng(n_dim)
    mu = AtomicMatrixMeasure(n_dim, [(0.0, rand_psd(rng, n_dim)),
                                     (float(n_dim + 1), rand_psd(rng, n_dim))])
    rep = cauchy_schwarz_chain(mu, fam, trials=10, seed=2)
    zeros = np.zeros((3, n_dim, n_dim))
    for n in range(n_dim):
        comp = shift_compress(fam, n)
        a_n, j_n = comp.coeff(3), -comp.coeff(2)
        mid = integrate_trace(MatrixPoly(np.concatenate([zeros, a_n[np.newaxis]])), mu)
        lhs = integrate_trace(MatrixPoly(np.concatenate([zeros[:2], j_n[np.newaxis]])), mu)
        assert repr((rep.mid[n], rep.lhs_shifted[n])) == repr((mid, lhs))


@pytest.mark.parametrize("count", [1, 2, 3])
def test_chain_matches_the_compressions_at_dimension_40(count):
    # the chain reads S_0..S_6 once; the reference pairs each compression with
    # every atom, so the two differ only in the order of summation
    n_dim = 40
    fam = build_family(n_dim)
    rng = np.random.default_rng(40 + count)
    points = [0.0] + [float(x) for x in rng.uniform(n_dim, n_dim + 5, count - 1)]
    mu = AtomicMatrixMeasure(n_dim, [(x, rand_psd(rng, n_dim)) for x in points])
    rep = cauchy_schwarz_chain(mu, fam, trials=4, seed=3)

    def close(got, want):
        return abs(got - want) <= 1e-14 * abs(want)

    def moment(k, coeff):
        return integrate_trace(MatrixPoly(np.concatenate(
            [np.zeros((k, n_dim, n_dim)), coeff[np.newaxis]])), mu)

    eye = np.eye(n_dim)
    mass, m6 = moment(0, eye), moment(6, eye)
    assert close(rep.lhs, moment(2, eye))
    for n in range(n_dim):
        comp = shift_compress(fam, n)
        assert close(rep.mid[n], moment(3, comp.coeff(3)))
        assert close(rep.lhs_shifted[n], moment(2, -comp.coeff(2)))
        assert close(rep.rhs[n], np.sqrt(mass) * np.sqrt(m6) / (n + 1))
    assert rep.all_hold and rep.final_bound_holds


def test_chain_rejects_moments_beyond_the_float_range():
    # L(Id x^6) overflows at x = 1e60: the chain has no finite bound to state
    fam = build_family(2)
    mu = AtomicMatrixMeasure(2, [(0.0, np.eye(2)), (1e60, np.eye(2))])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=r"moments\[6\] has a non-finite entry"):
        cauchy_schwarz_chain(mu, fam, trials=0)


@pytest.mark.parametrize("n_dim", [2, 4, 6])
def test_chain_accepts_outer_atom_at_truncation_edge(n_dim):
    # p_N(N) = 0: the audit must not count the rounding of g*q at x = N
    # against a tolerance scaled by |g(N)| = 0
    fam = build_family(n_dim)
    mu = AtomicMatrixMeasure(n_dim, [(0.0, np.eye(n_dim)),
                                     (float(n_dim), 2.0 * np.eye(n_dim))])
    rep = cauchy_schwarz_chain(mu, fam, trials=200, seed=1)
    assert rep.all_hold and rep.final_bound_holds


def test_support_collapse_at_origin():
    fam = build_family(3)
    mu = AtomicMatrixMeasure(3, [(0.0, np.eye(3))])
    assert support_collapse_check(mu, fam)


def test_support_collapse_detects_mass_at_truncation_edge():
    fam = build_family(3)
    mu = AtomicMatrixMeasure(3, [(0.0, np.eye(3)), (3.0, 0.5 * np.eye(3))])
    assert not support_collapse_check(mu, fam)


def test_support_collapse_interior_atom_fails_precondition():
    fam = build_family(2)
    w = np.zeros((2, 2))
    w[0, 0] = 1.0
    mu = AtomicMatrixMeasure(2, [(0.5, w)])
    with pytest.raises(ModulePositivityError) as info:
        support_collapse_check(mu, fam)
    # p_2(1/2) = -3/16 is the most negative diagonal entry
    assert info.value.generator_index == 1
    assert info.value.value == pytest.approx(-0.1875)


def test_support_collapse_rejects_atoms_beyond_truncation():
    fam = build_family(4)
    mu = AtomicMatrixMeasure(4, [(0.0, np.eye(4)), (6.0, np.eye(4))])
    with pytest.raises(ValueError, match="outside"):
        support_collapse_check(mu, fam)


def _huge_mass(*atoms):
    # L(Id) = 2e308 overflows float64, though every moment entry is finite
    return AtomicMatrixMeasure(2, [(0.0, np.diag([1e308, 1e308])), *atoms])


def test_the_chain_names_a_mass_that_overflows():
    # the chain reported rhs [nan, nan], scale inf and all_hold False for this
    # module-positive functional, with numpy's warnings
    with pytest.raises(ValueError, match=r"^L\(Id\) overflows float64$"):
        cauchy_schwarz_chain(_huge_mass(), build_family(2))


def test_the_collapse_check_names_a_mass_that_overflows():
    # its bound, a tolerance times trace(S_0), was inf, so the atom at 2 passed as a
    # collapse, which the same measure with W = I at 0 does not
    fam, atom = build_family(2), (2.0, np.eye(2))
    assert not support_collapse_check(AtomicMatrixMeasure(2, [(0.0, np.eye(2)), atom]), fam)
    with pytest.raises(ValueError, match=r"^L\(Id\) overflows float64$"):
        support_collapse_check(_huge_mass(atom), fam)
