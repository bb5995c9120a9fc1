"""Hankel-pencil measure recovery round trips."""

import numpy as np
import pytest

from conftest import rand_psd, separated_points
from matmoments import (AtomicMatrixMeasure, HankelNotPsd, MomentSequence,
                        check_hamburger, check_stieltjes, forward_moments, recover)
from matmoments.recovery import _powers, pencil_eigenvalues

I2 = np.eye(2)


def measure_of(n, atoms):
    return AtomicMatrixMeasure(n, atoms)


def test_point_mass_at_origin():
    w = np.array([[2.0, 1.0], [1.0, 1.0]])
    seq = MomentSequence([w, 0 * w, 0 * w, 0 * w, 0 * w])
    res = recover(seq)
    assert len(res.measure.atoms) == 1
    x, got = res.measure.atoms[0]
    assert x == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(got, w, atol=1e-10)
    assert res.moment_residual <= 1e-10


def test_two_diagonal_atoms():
    mu = measure_of(2, [(1.0, np.diag([1.0, 0.0])), (3.0, np.diag([0.0, 2.0]))])
    res = recover(forward_moments(mu, 4))
    assert [x for x, _ in res.measure.atoms] == pytest.approx([1.0, 3.0], abs=1e-8)
    for (_, w1), (_, w2) in zip(mu.atoms, res.measure.atoms):
        assert np.linalg.norm(w1 - w2) <= 1e-8


def test_symmetric_two_atom_measure():
    mu = measure_of(2, [(-1.0, 0.5 * I2), (1.0, 0.5 * I2)])
    res = recover(forward_moments(mu, 4))
    assert [x for x, _ in res.measure.atoms] == pytest.approx([-1.0, 1.0], abs=1e-8)
    for _, w in res.measure.atoms:
        assert np.allclose(w, 0.5 * I2, atol=1e-8)
    assert res.rank_used == 4


def test_rejects_non_psd_hankel():
    with pytest.raises(HankelNotPsd):
        recover(MomentSequence([I2, I2, 0 * I2]))


def test_rejects_odd_or_tiny_degree():
    with pytest.raises(ValueError, match="even top degree"):
        recover(MomentSequence([I2, 0 * I2]))


def test_pencil_eigenvalues_are_real_and_sorted():
    vals = pencil_eigenvalues(np.eye(2), np.diag([2.0, -1.0]))
    assert vals == pytest.approx([-1.0, 2.0])
    # a non-identity H0c: the eigenvalues of H0c^{-1} H1c
    h0c = np.array([[2.0, 1.0], [1.0, 3.0]])
    h1c = np.array([[1.0, 4.0], [4.0, -2.0]])
    want = np.sort(np.linalg.eigvals(np.linalg.solve(h0c, h1c)).real)
    assert pencil_eigenvalues(h0c, h1c) == pytest.approx(want, rel=1e-12)


def test_round_trip_random_measures():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(1, 6))
        pts = separated_points(rng, r, -2.0, 2.0, 0.1)
        mu = measure_of(n, [(float(x), rand_psd(rng, n, 0.5, 3.0)) for x in pts])
        res = recover(forward_moments(mu, 10))
        assert len(res.measure.atoms) == r
        for (x1, w1), (x2, w2) in zip(mu.atoms, res.measure.atoms):
            assert abs(x1 - x2) <= 1e-6
            assert np.linalg.norm(w1 - w2) <= 1e-6


def test_idempotence():
    rng = np.random.default_rng(13)
    mu = measure_of(2, [(-0.7, rand_psd(rng, 2, 0.5, 2.0)),
                        (0.9, rand_psd(rng, 2, 0.5, 2.0))])
    seq = forward_moments(mu, 6)
    first = recover(seq)
    second = recover(forward_moments(first.measure, 6))
    assert len(first.measure.atoms) == len(second.measure.atoms)
    for (x1, w1), (x2, w2) in zip(first.measure.atoms, second.measure.atoms):
        assert abs(x1 - x2) <= 1e-6
        assert np.linalg.norm(w1 - w2) <= 1e-6


def test_support_discipline_under_stieltjes():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        pts = separated_points(rng, 3, 0.0, 3.0, 0.2)
        mu = measure_of(n, [(float(x), rand_psd(rng, n, 0.5, 2.0)) for x in pts])
        seq = forward_moments(mu, 8)
        assert check_stieltjes(seq).passed
        res = recover(seq)
        assert all(x >= -1e-6 for x, _ in res.measure.atoms)


def test_rank_gap_flag_on_clean_input():
    mu = measure_of(2, [(1.0, I2)])
    res = recover(forward_moments(mu, 4))
    assert not res.rank_gap_ambiguous
    assert res.rank_used == 2


def test_rank_gap_flag_on_packed_cluster():
    # five atoms packed into a 0.45-wide window push a true Hankel
    # eigenvalue below the rank cut; the result must carry the flag
    rng = np.random.default_rng(31337)
    pts = -0.2 + 0.1 * np.arange(5) + rng.uniform(0, 0.01, 5)
    mu = measure_of(2, [(float(x), rand_psd(rng, 2, 0.5, 2.0)) for x in pts])
    res = recover(forward_moments(mu, 10))
    recovered_all = len(res.measure.atoms) == 5 and all(
        abs(x1 - x2) <= 1e-6 for (x1, _), (x2, _) in zip(mu.atoms, res.measure.atoms))
    assert recovered_all or res.rank_gap_ambiguous


def test_zero_sequence_recovers_empty_measure():
    seq = MomentSequence([0 * I2] * 5)
    res = recover(seq)
    assert len(res.measure.atoms) == 0
    assert res.moment_residual == 0.0


def test_residual_matches_the_per_degree_loop():
    # reference: the loop over degrees and atoms that the array residual replaced
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(1, 5))
        pts = separated_points(rng, r, -2.0, 2.0, 0.1)
        mu = measure_of(n, [(float(x), rand_psd(rng, n)) for x in pts])
        seq = forward_moments(mu, 2 * r + 2)
        res = recover(seq)
        residual = 0.0
        for p in range(seq.D + 1):
            approx = np.zeros((n, n))
            for x, w in res.measure.atoms:
                approx += x ** p * w
            residual = max(residual, float(np.max(np.abs(seq[p] - approx))))
        assert res.moment_residual == residual


def test_recover_does_not_depend_on_a_prior_check():
    # recover's precondition reuses the eigenvalues of an earlier check_hamburger
    mu = measure_of(2, [(0.5, I2), (1.5, np.diag([1.0, 2.0]))])
    first, second = forward_moments(mu, 6), forward_moments(mu, 6)
    check_hamburger(first)
    a, b = recover(first), recover(second)
    assert check_hamburger(second).to_json() == check_hamburger(first).to_json()
    assert a.moment_residual == b.moment_residual
    assert [(x, w.tobytes()) for x, w in a.measure.atoms] == \
        [(x, w.tobytes()) for x, w in b.measure.atoms]


def test_weight_projection_matches_the_per_weight_loop():
    # reference: each least-squares weight projected onto the PSD cone with
    # its own eigh, as before the batched projection; bit for bit
    rng = np.random.default_rng(43)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        r = int(rng.integers(1, 6))
        lo, hi = (-2.0, 2.0) if rng.random() < 0.5 else (0.0, 1.0)
        pts = separated_points(rng, r, lo, hi, 0.05)
        seq = forward_moments(measure_of(n, [(float(x), rand_psd(rng, n)) for x in pts]),
                              2 * r + 2)
        atoms = recover(seq).measure.atoms
        vand = _powers([x for x, _ in atoms], seq.D)
        sol = np.linalg.lstsq(vand, seq.S.reshape(seq.D + 1, n * n), rcond=None)[0]
        for (_, got), row in zip(atoms, sol):
            w = row.reshape(n, n)
            ew, ev = np.linalg.eigh(0.5 * (w + w.T))
            want = (ev * np.maximum(ew, 0.0)) @ ev.T
            assert np.array_equal(got, 0.5 * (want + want.T))
