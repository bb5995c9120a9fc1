"""Truncated shift-family diagnostics: exact identities, probe, chain."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_psd
from matmoments import (AtomicMatrixMeasure, ModulePositivityError,
                        build_family, cauchy_schwarz_chain, leading_coeff_probe,
                        shift_compress, support_collapse_check)


def test_family_smallest_case_constraint_set():
    fam = build_family(1)
    p1 = fam.G.as_float()
    xs = np.linspace(-5.0, 5.0, 1001)
    nonneg = [p1(x)[0, 0] >= -1e-12 for x in xs]
    expected = [(abs(x) < 1e-12) or (x >= 1.0) for x in xs]
    assert nonneg == expected


def test_family_entry_values_exact():
    fam = build_family(2)
    v = fam.G(Fraction(1))
    assert v[1, 1] == Fraction(-1, 2)      # p_2(1) = 1/2 - 1
    assert np.all(fam.G(0) == Fraction(0))


def test_shift_matrix_contraction_identity():
    fam = build_family(4)
    prod = fam.shift_matrix.dot(fam.shift_matrix.T)
    assert np.array_equal(prod.astype(float), np.diag([1.0, 1.0, 1.0, 0.0]))


def test_compress_order_zero_is_family():
    fam = build_family(3)
    comp = shift_compress(fam, 0)
    assert np.array_equal(np.array(comp.coeffs), np.array(fam.G.coeffs))


def test_compress_exact_coefficients():
    fam = build_family(3)
    comp = shift_compress(fam, 1)
    cube = comp.coeffs[3]
    assert cube[0, 0] == Fraction(1, 2)
    assert cube[1, 1] == Fraction(1, 3)
    assert cube[2, 2] == 0
    square = comp.coeffs[2]
    assert square[0, 0] == Fraction(-1) and square[1, 1] == Fraction(-1)
    assert square[2, 2] == 0


def test_compress_identity_all_orders():
    for n_dim in (1, 2, 4, 6):
        fam = build_family(n_dim)
        sn = np.array(np.eye(n_dim, dtype=int), dtype=object)
        for n in range(n_dim):
            comp = shift_compress(fam, n)
            for i in range(n_dim):
                want = Fraction(1, n + i + 1) if i < n_dim - n else Fraction(0)
                assert comp.coeffs[3][i, i] == want
                assert comp.coeffs[2][i, i] == (Fraction(-1) if i < n_dim - n else Fraction(0))
            # the explicit product S^n G (S^T)^n with the family's shift matrix
            explicit = [sn.dot(c).dot(sn.T) for c in fam.G.coeffs]
            assert comp.coeffs.shape == (len(explicit), n_dim, n_dim)
            for got, want in zip(comp.coeffs, explicit):
                assert all(isinstance(v, Fraction) for v in got.flat)
                assert all(a == b for a, b in zip(got.flat, want.flat))
            sn = sn.dot(fam.shift_matrix)


def test_compress_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        shift_compress(build_family(2), 2)


def test_probe_family_leading_coefficient():
    fam = build_family(4)
    lead = np.array(fam.G.coeffs[3], dtype=float)
    assert np.linalg.eigvalsh(lead)[0] >= 0.0


def test_probe_minimum_and_candidate_exclusion():
    fam = build_family(3)
    rep = leading_coeff_probe(fam, 300, seed=5)
    assert rep.n_elements > 0
    assert rep.min_leading_eigenvalue >= -1e-9
    assert rep.all_psd
    assert rep.negative_candidate_min_eigenvalue == pytest.approx(-1.0)
    assert rep.negative_candidate_excluded


# (N, seed, trials) -> (n_elements, min_leading_eigenvalue), as computed by
# the MatrixPoly-based probe this array version replaced; the one- and
# two-trial cases draw a rank-one term h g g^T that reaches the leading
# coefficient
PINNED_PROBES = {
    (1, 2, 100): (98, 1.0),
    (2, 9, 1): (1, 0.17942613254061063),
    (3, 28, 1): (1, 0.005345288933596079),
    (4, 13, 1): (1, 0.04836680793156387),
    (4, 5, 200): (200, -5.848544054508939e-16),
    (6, 2, 2): (2, 0.010553586830017938),
    (6, 9, 200): (200, -1.1210390280094727e-15),
    (8, 3, 100): (100, -8.688089935099662e-16),
}


@pytest.mark.parametrize("key", sorted(PINNED_PROBES))
def test_probe_matches_pinned_reports(key):
    n_dim, seed, trials = key
    n_elements, min_eig = PINNED_PROBES[key]
    rep = leading_coeff_probe(build_family(n_dim), trials, seed=seed)
    assert rep.n_elements == n_elements
    assert rep.min_leading_eigenvalue == pytest.approx(min_eig, abs=1e-12)
    assert rep.all_psd and rep.negative_candidate_excluded


def test_chain_point_mass_at_origin():
    fam = build_family(3)
    mu = AtomicMatrixMeasure(3, [(0.0, rand_psd(np.random.default_rng(2), 3))])
    rep = cauchy_schwarz_chain(mu, fam, trials=30, seed=1)
    assert rep.lhs == 0.0
    assert rep.all_hold and rep.final_bound_holds


def test_chain_precondition_failure_names_compression():
    fam = build_family(3)
    mu = AtomicMatrixMeasure(3, [(1.0, np.eye(3))])
    with pytest.raises(ModulePositivityError) as info:
        cauchy_schwarz_chain(mu, fam, trials=10)
    # most negative diagonal entry at x=1 is p_3(1) = 1/3 - 1
    assert info.value.generator_index == 2
    assert info.value.witness == "shift_compress(fam, 2)"
    assert info.value.value == pytest.approx(-2.0 / 3.0)


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
    assert support_collapse_check(mu, fam, trials=20)


def test_support_collapse_detects_mass_at_truncation_edge():
    fam = build_family(3)
    mu = AtomicMatrixMeasure(3, [(0.0, np.eye(3)), (3.0, 0.5 * np.eye(3))])
    assert not support_collapse_check(mu, fam, trials=20)


def test_support_collapse_interior_atom_fails_precondition():
    fam = build_family(2)
    w = np.zeros((2, 2))
    w[0, 0] = 1.0
    mu = AtomicMatrixMeasure(2, [(0.5, w)])
    with pytest.raises(ModulePositivityError) as info:
        support_collapse_check(mu, fam, trials=10)
    # p_2(1/2) = -3/16 is the most negative diagonal entry
    assert info.value.generator_index == 1
    assert info.value.value == pytest.approx(-0.1875)


def test_support_collapse_rejects_atoms_beyond_truncation():
    fam = build_family(4)
    mu = AtomicMatrixMeasure(4, [(0.0, np.eye(4)), (6.0, np.eye(4))])
    with pytest.raises(ValueError, match="outside"):
        support_collapse_check(mu, fam, trials=10)
