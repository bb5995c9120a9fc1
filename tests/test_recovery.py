"""Hankel-pencil measure recovery round trips."""

import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_measure, rand_psd, separated_points
from matmoments import (AtomicMatrixMeasure, HankelNotPsd, MomentSequence,
                        check_hamburger, check_stieltjes, forward_moments, recover, recovery)
from matmoments.recovery import ATOM_TOL, _fit_errors, _lstsq, _powers, pencil_eigenvalues

I2 = np.eye(2)
_PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def measure_of(n, atoms):
    return AtomicMatrixMeasure(n, atoms)


def atom_error(truth, got):
    """Worst point and Frobenius weight error of atoms matched in order; inf on a count mismatch."""
    if len(truth) != len(got):
        return np.inf
    return max((max(abs(x1 - x2), float(np.linalg.norm(w1 - w2)))
                for (x1, w1), (x2, w2) in zip(truth, got)), default=0.0)


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
    vals, _ = pencil_eigenvalues(np.ones(2), np.diag([2.0, -1.0]))
    assert vals == pytest.approx([-1.0, 2.0])
    # a non-identity H0c: the eigenvalues of H0c^{-1} H1c, eigenvectors
    # normalized to y^T H0c y = 1
    h0c = np.array([2.0, 3.0])
    h1c = np.array([[1.0, 4.0], [4.0, -2.0]])
    want = np.sort(np.linalg.eigvals(np.linalg.solve(np.diag(h0c), h1c)).real)
    vals, y = pencil_eigenvalues(h0c, h1c)
    assert vals == pytest.approx(want, rel=1e-12)
    assert np.allclose(h1c @ y, h0c[:, np.newaxis] * y * vals, atol=1e-12)
    assert np.allclose(y.T @ (h0c[:, np.newaxis] * y), np.eye(2), atol=1e-12)


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
    # reference: each least-squares weight V^+ S projected onto the PSD cone
    # with its own eigh, as before the batched projection; bit for bit
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
        sol = _lstsq(vand, seq.S.reshape(seq.D + 1, n * n))[0]
        for (_, got), row in zip(atoms, sol):
            w = row.reshape(n, n)
            ew, ev = np.linalg.eigh(0.5 * (w + w.T))
            want = (ev * np.maximum(ew, 0.0)) @ ev.T
            assert np.array_equal(got, 0.5 * (want + want.T))


def test_recovered_measure_is_what_the_checked_constructor_builds():
    # recover builds its measure directly, with no sort, merge, symmetry or
    # eigenvalue check; the constructor, which runs them all, must agree bit
    # for bit, also where recover merged a cluster of close pencil points
    rng = np.random.default_rng(47)
    for trial in range(60):
        n = int(rng.integers(1, 5))
        r = int(rng.integers(1, 5))
        lo, hi = (-2.0, 2.0) if trial % 2 else (0.0, 1.0)
        pts = list(separated_points(rng, r, lo, hi, 0.05))
        if trial % 3 == 0:
            pts.append(pts[0] + 1e-9)
        mu = measure_of(n, [(float(x), rand_psd(rng, n)) for x in pts])
        got = recover(forward_moments(mu, 2 * len(pts) + 2)).measure
        again = AtomicMatrixMeasure(n, got.atoms)
        assert [(x, w.tobytes()) for x, w in again.atoms] == \
            [(x, w.tobytes()) for x, w in got.atoms]


def test_recover_has_no_tol_parameter():
    # the rank and the merge radius come from the Hankel spectrum
    assert list(inspect.signature(recover).parameters) == ["seq"]
    with pytest.raises(TypeError):
        recover(forward_moments(measure_of(2, [(1.0, I2)]), 4), tol=1e-8)


@_PROPERTY
@given(n=st.integers(1, 6), count=st.integers(1, 6), unit=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_recovered_atoms_are_accurate_or_flagged(n, count, unit, seed):
    lo, hi = (0.0, 1.0) if unit else (-2.0, 2.0)
    mu = rand_measure(np.random.default_rng(seed), n, count, lo, hi, sep=0.05)
    res = recover(forward_moments(mu, 2 * count + 2))
    assert res.rank_gap_ambiguous or atom_error(mu.atoms, res.measure.atoms) <= ATOM_TOL


def test_tiny_weight_is_recovered_or_flagged():
    # weights 1 and w at 0.25 and 0.75: w = 1e-6 is a real Hankel direction,
    # w = 1e-9 sinks below the gap and its atom is dropped with the flag set
    def run(w):
        mu = measure_of(1, [(0.25, [[1.0]]), (0.75, [[w]])])
        return mu, recover(forward_moments(mu, 6))

    mu, res = run(1e-6)
    assert not res.rank_gap_ambiguous
    assert atom_error(mu.atoms, res.measure.atoms) <= ATOM_TOL
    mu, res = run(1e-9)
    assert len(res.measure.atoms) == 1
    assert res.rank_gap_ambiguous


def test_sequence_whose_zero_cut_broke_the_cholesky_recovers():
    # a relative rank cut of 0 kept a rounding-level eigenvalue of H0 and the
    # Cholesky of the compressed H0 raised LinAlgError on this sequence
    mu = rand_measure(np.random.default_rng(0), 2, 2, -2.0, 2.0)
    res = recover(forward_moments(mu, 6))
    assert res.rank_used == 4
    assert not res.rank_gap_ambiguous
    assert atom_error(mu.atoms, res.measure.atoms) <= ATOM_TOL


def test_rank_below_the_noise_floor_is_flagged():
    # three true Hankel eigenvalues lie under the noise floor, so the gap
    # rule keeps 15 of 18; the points pass their bounds, but the measure
    # misses the moments by 0.44 max|S|, which must set the flag
    mu = rand_measure(np.random.default_rng(11413), 3, 6, -2.0, 2.0)
    res = recover(forward_moments(mu, 14))
    assert res.rank_gap_ambiguous or atom_error(mu.atoms, res.measure.atoms) <= ATOM_TOL


def sweep_draw(seed, index):
    """Draw ``index`` of a sweep: n and atom count 1-6, [-2, 2] or [0, 1], sep 0.05."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        n, count = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        lo, hi = (-2.0, 2.0) if rng.random() < 0.5 else (0.0, 1.0)
        mu = rand_measure(rng, n, count, lo, hi, 0.05)
    return mu, count


def cluster_draw(seed, index):
    """Draw ``index`` of a clustered sweep: n 1-3, two atoms 1e-7 to 1e-2 apart, up to 3 more."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        n, more = int(rng.integers(1, 4)), int(rng.integers(0, 4))
        x, gap = rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-7.0, -2.0)
        weights = []
        for _ in range(2 + more):
            a = rng.standard_normal((n, int(rng.integers(1, n + 1))))
            weights.append(a @ a.T * 10.0 ** rng.uniform(-3.0, 0.0))
        points = [x, x + gap] + [x + 0.2 * (k + 1) for k in range(more)]
        degree = 2 * len(points) + 2 * int(rng.integers(1, 3))
    return measure_of(n, list(zip(points, weights))), degree


def test_a_merged_cluster_with_a_loose_bound_is_flagged():
    # n = 3, five atoms in [1.34, 1.94], two of them 1.39e-6 apart: their
    # pencil points merge within their bounds into one atom of the summed
    # weight, which matches the moments to second order.  The fit's error
    # assumes the atom count is right and stays below ATOM_TOL; only the
    # cluster's bound can flag the result
    mu, degree = cluster_draw(0, 1710)
    res = recover(forward_moments(mu, degree))
    assert mu.n == 3 and mu.atoms[1][0] - mu.atoms[0][0] == pytest.approx(1.39e-6, rel=1e-2)
    assert len(res.measure.atoms) == len(mu.atoms) - 1
    assert res.rank_gap_ambiguous


@pytest.mark.parametrize("seed, index", [(1, 361), (20, 341)])
def test_weight_errors_the_fit_magnifies_are_flagged(seed, index):
    # the points lie inside their rounding bounds, but the weight fit
    # magnifies their errors past ATOM_TOL: n = 1 with 5 atoms in
    # [0.62, 0.97] (a weight off by 1.04e-6) and n = 6 with 6 atoms in
    # [-0.27, 1.77] (1.24e-6); the fit's first-order error covers both
    mu, count = sweep_draw(seed, index)
    seq = forward_moments(mu, 2 * count + 2)
    res = recover(seq)
    err = atom_error(mu.atoms, res.measure.atoms)
    assert res.rank_gap_ambiguous or err <= ATOM_TOL
    vand = _powers([x for x, _ in res.measure.atoms], seq.D)
    rhs = seq.S.reshape(seq.D + 1, -1)
    sol, svd = _lstsq(vand, rhs)
    assert np.max(_fit_errors(vand, sol, rhs, svd)) >= err


def test_atom_beyond_the_float_range_is_a_value_error():
    # H0's least eigenvalue is -1e20 against a scale of 1e300, so the Hankel
    # test passes; the pencil point 1e160 then has no float square
    seq = MomentSequence(np.array([[[1.0]], [[1e160]], [[1e300]]]))
    assert check_hamburger(seq).passed
    with pytest.raises(ValueError, match=r"^atom at x=1e\+160: power x\^2 overflows float64$"):
        recover(seq)


def test_huge_weight_is_judged_by_its_fit_error(monkeypatch):
    # moments [[w]] x 3: ||H1||_F overflowed numpy's norm from w ~ 1e160,
    # and the fit error's products and norms from w ~ 1e170, which warned
    # and gave the atom an infinite bound.  They are now taken at a scale of
    # max|entry| in [0.5, 1), so the finite first-order fit error decides
    # the flag; an absolute weight error of ~1e-15 w flags it, as
    # it flags every weight above ~1e10
    errors = []

    def recorded(*args):
        errors.append(_fit_errors(*args))
        return errors[-1]
    monkeypatch.setattr(recovery, "_fit_errors", recorded)
    for w in (1e160, 1e170, 1e180, 1e250, 1e300):
        del errors[:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = recover(MomentSequence(np.full((3, 1, 1), w)))
        (x, weight), = res.measure.atoms
        # at 1e250 the pencil's point rounds one ulp below 1
        assert x == pytest.approx(1.0, rel=1e-15) and (x == 1.0 or w == 1e250)
        assert weight[0, 0] == pytest.approx(w, rel=1e-15)
        assert res.moment_residual <= 1e-15 * w
        assert len(errors) == 1 and 1e-6 < errors[0][0] < 1e-14 * w
        assert res.rank_gap_ambiguous


@pytest.mark.parametrize("points,weights", [
    ([-1.604255365971293, -0.01762073042337109, 0.23127492859661203],
     [[[1.0223552826895232, 1.1347836264025586], [1.1347836264025586, 1.2812976588580691]],
      [[0.13732355705965463, 0.05513133910880962], [0.05513133910880962, 0.03271274646511728]],
      [[1.7820550712142587, -1.7974053668450436], [-1.7974053668450436, 1.9408364884396487]]]),
    ([0.6793149149784949, 1.1023689004218231, 1.2294064400870464, 1.4006492459356714],
     [[[0.9809812069971732, -2.4710309588114554], [-2.4710309588114554, 6.949544478997932]],
      [[0.7996268702809665, -0.056706756053642254], [-0.056706756053642254, 0.7287701419297655]],
      [[0.5052522095657537, -0.891418225997025], [-0.891418225997025, 2.928950931297739]],
      [[2.89792547794567, -2.4070808963347265], [-2.4070808963347265, 2.000119438647928]]]),
], ids=["merge-bound", "fit-error"])
@pytest.mark.parametrize("k", [-600, -1000])
def test_tiny_weights_recover_as_their_unscaled_measure(points, weights, k):
    # at weights ~2^-600 the squares in ||H1||_F and in the fit error's norms
    # underflowed to 0: the first measure's merge bound vanished, so two
    # points 2e-12 apart came back as two atoms, flagged; the second's fit
    # error vanished, so it went unflagged where the unscaled one is flagged
    def recovered(scale):
        mu = AtomicMatrixMeasure(2, [(x, np.ldexp(w, scale)) for x, w in zip(points, weights)])
        res = recover(forward_moments(mu, 2 * len(points) + 2))
        return len(res.measure.atoms), res.rank_used, res.rank_gap_ambiguous

    assert recovered(k) == recovered(0)


@pytest.mark.parametrize("points,sol", [([0.5, 0.5], [[1.0], [1.0]]), ([0.0, 1.0], [[1.0], [0.0]])],
                         ids=["repeated-point", "zero-weight"])
def test_a_fit_singular_to_working_precision_has_infinite_error(points, sol):
    # a repeated point makes V singular; a zero weight, the Jacobian's column
    # in its point
    vand, sol = _powers(points, 4), np.array(sol)
    errors = _fit_errors(vand, sol, vand @ sol, _lstsq(vand, vand @ sol)[1])
    assert np.array_equal(errors, [np.inf, np.inf])


@pytest.mark.parametrize("index", [560, 3192])
def test_close_atoms_kept_apart_are_accurate_or_flagged(index):
    # n = 2 with atoms 1.06e-5 apart, whose heavy weight comes back on the
    # wrong point of the pair (off by 0.74), and n = 3 with atoms 2.9e-6
    # apart (a weight off by 0.097): the pencil keeps both points, so the
    # count is right, and only the fit's measured error sees the weights
    mu, degree = cluster_draw(0, index)
    res = recover(forward_moments(mu, degree))
    assert len(res.measure.atoms) == len(mu.atoms)
    assert res.rank_gap_ambiguous or atom_error(mu.atoms, res.measure.atoms) <= ATOM_TOL


@_PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_clustered_atoms_of_the_right_count_are_accurate_or_flagged(seed):
    # the first draw of each seed follows cluster_draw's law; a result with
    # fewer atoms is the rank floor's collapse, which the flag need not see
    mu, degree = cluster_draw(seed, 0)
    res = recover(forward_moments(mu, degree))
    if len(res.measure.atoms) == len(mu.atoms):
        assert res.rank_gap_ambiguous or atom_error(mu.atoms, res.measure.atoms) <= ATOM_TOL
