"""Block-Hankel constructors and the three moment criteria."""

import numpy as np
import pytest

from conftest import rand_measure
from matmoments import (MomentSequence, PsdReport, block_hankel, check_hamburger,
                        check_hausdorff, check_stieltjes, forward_moments,
                        momentsequence_from_json, momentsequence_to_json,
                        operator_check)
from matmoments.moments import DEFAULT_PSD_TOL

I2 = np.eye(2)


def plus_minus_one_moments(degree):
    # forward moments of (1/2) I delta_{-1} + (1/2) I delta_{+1}, by hand
    return MomentSequence([I2 if p % 2 == 0 else 0 * I2 for p in range(degree + 1)])


def test_block_hankel_identity_example():
    seq = MomentSequence([I2, 0 * I2, I2])
    h = block_hankel(seq, 1, 0)
    assert np.array_equal(h, np.eye(4))


def test_block_hankel_shift_one_zero_block():
    seq = MomentSequence([I2, 0 * I2, I2])
    assert np.array_equal(block_hankel(seq, 0, 1), 0 * I2)


def test_block_hankel_single_block():
    s0 = np.array([[2.0, 1.0], [1.0, 3.0]])
    seq = MomentSequence([s0, 0 * I2])
    assert np.array_equal(block_hankel(seq, 0, 0), s0)


def test_block_hankel_degree_overflow():
    seq = MomentSequence([I2, 0 * I2, I2])
    with pytest.raises(ValueError, match="degree overflow"):
        block_hankel(seq, 1, 1)


def test_block_hankel_exactly_symmetric():
    rng = np.random.default_rng(3)
    mats = rng.standard_normal((7, 3, 3))
    seq = MomentSequence(0.5 * (mats + np.transpose(mats, (0, 2, 1))))
    h = block_hankel(seq, 3, 0)
    assert np.array_equal(h, h.T)


def test_hamburger_passes_on_measure_moments():
    rep = check_hamburger(plus_minus_one_moments(4))
    assert rep.passed
    assert rep.tested_orders == [0, 1, 2]
    assert rep.failing_order is None


def test_hamburger_fails_with_golden_ratio_eigenvalue():
    rep = check_hamburger(MomentSequence([I2, I2, 0 * I2]))
    assert not rep.passed
    assert rep.failing_order == 1
    assert rep.min_eigenvalue == pytest.approx((1 - np.sqrt(5)) / 2)


def test_hamburger_all_zero_passes():
    rep = check_hamburger(MomentSequence([0 * I2] * 5))
    assert rep.passed and rep.min_eigenvalue == 0.0


def test_stieltjes_passes_point_mass_at_one():
    seq = MomentSequence([I2] * 5)   # I * delta_1: S_p = I
    assert check_stieltjes(seq).passed


def test_stieltjes_fails_on_signed_support():
    rep = check_stieltjes(plus_minus_one_moments(3))
    assert not rep.passed
    assert rep.min_eigenvalue == pytest.approx(-1.0)


def test_stieltjes_all_zero_passes():
    assert check_stieltjes(MomentSequence([0 * I2] * 4)).passed


def test_hausdorff_passes_point_mass_at_half():
    seq = MomentSequence([2.0 ** (-p) * I2 for p in range(5)])
    assert check_hausdorff(seq).passed


def test_hausdorff_fails_outside_unit_interval():
    seq = MomentSequence([I2, 2.0 * I2, 4.0 * I2])   # I * delta_2
    rep = check_hausdorff(seq)
    assert not rep.passed
    assert rep.min_eigenvalue <= -1.0


def test_hausdorff_boundary_atom_at_zero():
    seq = MomentSequence([I2, 0 * I2, 0 * I2])
    assert check_hausdorff(seq).passed


def test_hausdorff_needs_degree_two():
    with pytest.raises(ValueError, match="degree too small"):
        check_hausdorff(MomentSequence([I2, I2]))


def test_operator_check_rank_one_reduction():
    # n = 1 with A_i = [[1]] reduces to the scalar Hankel of the entries
    seq = MomentSequence([[[1.0]], [[0.5]], [[2.0]]])
    rep = operator_check(seq, [np.eye(1), np.eye(1)], "hamburger")
    scalar = np.array([[1.0, 0.5], [0.5, 2.0]])
    assert rep.passed == (np.linalg.eigvalsh(scalar)[0] >= 0)
    assert rep.min_eigenvalue == pytest.approx(np.linalg.eigvalsh(scalar)[0])


def test_operator_check_identity_tuple_passes_hamburger():
    rep = operator_check(plus_minus_one_moments(2), [I2, I2], "hamburger")
    assert rep.passed
    assert rep.min_eigenvalue == pytest.approx(2.0)


def test_operator_check_identity_tuple_fails_stieltjes():
    rep = operator_check(plus_minus_one_moments(3), [I2, I2], "stieltjes")
    assert not rep.passed
    assert rep.min_eigenvalue == pytest.approx(-2.0)


def test_operator_check_degree_overflow():
    with pytest.raises(ValueError, match="degree overflow"):
        operator_check(plus_minus_one_moments(2), [I2, I2], "stieltjes")


@pytest.mark.parametrize("name", ["line", "interval", "hamburgerx", ""])
def test_operator_check_names_the_accepted_criteria(name):
    # the certificate variant "line" used to get "unknown variant 'line'"
    with pytest.raises(ValueError, match=f"unknown criterion '{name}': expected one of "
                                         "hamburger, stieltjes, hausdorff$"):
        operator_check(plus_minus_one_moments(2), [I2], name)


@pytest.mark.parametrize("checker,lo,hi", [
    (check_hamburger, -2.0, 2.0),
    (check_stieltjes, 0.0, 2.0),
    (check_hausdorff, 0.0, 1.0),
])
def test_criteria_soundness_on_random_measures(checker, lo, hi):
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        mu = rand_measure(rng, n, int(rng.integers(1, 4)), lo, hi)
        assert checker(forward_moments(mu, 8)).passed


def test_operator_check_congruence_property():
    # whenever the block-Hankel test passes, every tuple passes the
    # operator version: the scalar matrix is a congruence of a PSD matrix
    rng = np.random.default_rng(99)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        mu = rand_measure(rng, n, int(rng.integers(1, 4)), -2.0, 2.0)
        seq = forward_moments(mu, 6)
        assert check_hamburger(seq).passed
        for _ in range(10):
            m = int(rng.integers(0, 4))
            ops = [rng.standard_normal((n, n)) for _ in range(m + 1)]
            assert operator_check(seq, ops, "hamburger").passed


def test_moment_sequence_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        MomentSequence([[[0.0, 1.0], [0.0, 0.0]]])


def test_json_round_trip_and_report_fields():
    seq = plus_minus_one_moments(3)
    back = momentsequence_from_json(momentsequence_to_json(seq))
    assert np.array_equal(back.S, seq.S)
    rep = check_stieltjes(seq).to_json()
    assert set(rep) == {"pass", "min_eigenvalue", "tested_orders", "failing_order"}
    with pytest.raises(ValueError, match="moments"):
        momentsequence_from_json({"n": 2, "moments": [[[1.0]]]})


def test_moment_sequence_rejects_asymmetric_later_moment():
    with pytest.raises(ValueError, match=r"S_2 is not symmetric"):
        MomentSequence([I2, I2, [[1.0, 1.0], [0.0, 1.0]]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_moment_sequence_rejects_non_finite_entries(bad):
    # a NaN used to pass check_hamburger with min_eigenvalue 0.0 and recover
    # to a one-atom measure; an inf failed only inside recover
    mats = [I2, 0 * I2, I2.copy(), 0 * I2, I2]
    mats[2][1, 1] = bad
    with pytest.raises(ValueError, match=r"S_2 has a non-finite entry"):
        MomentSequence(mats)


def test_moment_sequence_rejects_empty_matrices():
    with pytest.raises(ValueError, match="n >= 1"):
        MomentSequence(np.zeros((3, 0, 0)))


def test_symmetrization_does_not_overflow_near_the_float_maximum():
    # (S + S^T)/2 overflowed to inf here, and check_hamburger then passed
    # with min_eigenvalue 1.0
    with np.errstate(over="raise"):
        seq = MomentSequence([[[1.0]], [[1e308]], [[1e308]]])
    assert np.array_equal(seq.S.ravel(), [1.0, 1e308, 1e308])
    rep = check_hamburger(seq)
    want = np.linalg.eigvalsh(np.array([[1.0, 1e308], [1e308, 1e308]]))[0]
    assert not rep.passed and rep.failing_order == 1
    assert rep.min_eigenvalue == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_symmetrization_matches_the_halved_sum(seed):
    # S/2 + (S/2)^T equals (S + S^T)/2 bit for bit on normal-range entries
    rng = np.random.default_rng(seed)
    for _ in range(40):
        d, n = int(rng.integers(1, 8)), int(rng.integers(1, 7))
        base = rng.standard_normal((d, n, n)) * 10.0 ** int(rng.integers(-300, 301))
        sym = base + np.transpose(base, (0, 2, 1))
        mats = sym * (1.0 + 1e-14 * rng.standard_normal((d, n, n)))
        want = 0.5 * (mats + np.transpose(mats, (0, 2, 1)))
        assert np.array_equal(MomentSequence(mats).S, want)


# ----------------------------------------------------------------------------
# Reference copies of the per-matrix pipeline that the eigenvalue memo and the
# gather replaced: a double-loop block Hankel and a judge that takes each
# matrix's eigenvalues itself.  Reports must match them bit for bit.

def _ref_block_hankel(seq, m, shift):
    n = seq.n
    out = np.zeros(((m + 1) * n, (m + 1) * n))
    for i in range(m + 1):
        for j in range(m + 1):
            out[i * n:(i + 1) * n, j * n:(j + 1) * n] = seq[i + j + shift]
    return out


def _ref_judge(tagged_matrices, tol):
    min_eig = np.inf
    failing = None
    orders = set()
    passed = True
    for m, mat in tagged_matrices:
        orders.add(m)
        w = np.linalg.eigvalsh(mat)
        spectral = max(abs(w[0]), abs(w[-1]))
        min_eig = min(min_eig, w[0])
        if w[0] < -tol * max(1.0, spectral):
            passed = False
            if failing is None or m < failing:
                failing = m
    if not tagged_matrices:
        min_eig = 0.0
    return PsdReport(passed, float(min_eig), sorted(orders), failing)


def _ref_check(seq, variant, tol):
    d = seq.D
    mats = [(m, _ref_block_hankel(seq, m, 0)) for m in range(d // 2 + 1)]
    if variant in ("stieltjes", "hausdorff"):
        mats += [(m, _ref_block_hankel(seq, m, 1)) for m in range((d - 1) // 2 + 1)]
    if variant == "hausdorff":
        mats += [(m, _ref_block_hankel(seq, m, 0) - _ref_block_hankel(seq, m, 1))
                 for m in range((d - 1) // 2 + 1)]
        mats += [(m, _ref_block_hankel(seq, m, 1) - _ref_block_hankel(seq, m, 2))
                 for m in range((d - 2) // 2 + 1)]
    return _ref_judge(mats, tol)


def _ref_operator_check(seq, ops, variant, tol):
    m = len(ops) - 1

    def pairing_matrix(shift):
        t = np.zeros((m + 1, m + 1))
        for i in range(m + 1):
            for j in range(m + 1):
                t[i, j] = float(np.sum(seq[i + j + shift] * (ops[i].T @ ops[j])))
        return 0.5 * (t + t.T)

    t0 = pairing_matrix(0)
    mats = [(m, t0)]
    if variant in ("stieltjes", "hausdorff"):
        t1 = pairing_matrix(1)
        mats.append((m, t1))
    if variant == "hausdorff":
        t2 = pairing_matrix(2)
        mats += [(m, t0 - t1), (m, t1 - t2)]
    return _ref_judge(mats, tol)


CHECKS = {"hamburger": check_hamburger, "stieltjes": check_stieltjes,
          "hausdorff": check_hausdorff}


def _bits(report):
    # repr keeps the sign of zero and every digit of min_eigenvalue
    return repr(report.to_json())


def _sweep_sequences(seed, count):
    """Seeded (n, D) sweep: n 1-6, D 2-14; measure moments on [0, 1], atoms
    displaced off [0, 1], and symmetric sequences with no measure at all."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(2, 15))
        kind = k % 3
        if kind == 2:
            c = rng.standard_normal((d + 1, n, n))
            mats = 0.5 * (c + np.transpose(c, (0, 2, 1)))
        else:
            lo, hi = (0.0, 1.0) if kind == 0 else (-0.6, 1.6)
            mu = rand_measure(rng, n, int(rng.integers(1, 5)), lo, hi)
            mats = forward_moments(mu, d).S
        yield mats


@pytest.mark.parametrize("seed", [5, 6])
def test_gathered_hankels_and_memo_match_the_per_matrix_reference(seed):
    for mats in _sweep_sequences(seed, 45):
        seq = MomentSequence(mats)
        for m in range(seq.D // 2 + 1):
            for shift in range(3):
                if 2 * m + shift <= seq.D:
                    got = block_hankel(seq, m, shift)
                    assert got.tobytes() == _ref_block_hankel(seq, m, shift).tobytes()
        for tol in (1e-9, 1e-3):
            for variant, check in CHECKS.items():
                assert _bits(check(seq, tol)) == _bits(_ref_check(seq, variant, tol))


def test_reports_do_not_depend_on_call_order():
    for mats in _sweep_sequences(7, 30):
        fresh = {v: _bits(check(MomentSequence(mats))) for v, check in CHECKS.items()}
        for order in (("hausdorff", "stieltjes", "hamburger"),
                      ("hamburger", "stieltjes", "hausdorff")):
            seq = MomentSequence(mats)
            assert {v: _bits(CHECKS[v](seq)) for v in order} == fresh


def test_memo_keeps_eigenvalues_not_verdicts():
    # least Hankel eigenvalue -1e-5 at spectral scale 1: fails at tol 1e-9,
    # passes at 1e-3, in every family and at either order of the two calls
    mats = [[[1.0]], [[0.0]], [[-1e-5]], [[0.0]], [[-1e-5]]]
    for check in CHECKS.values():
        want = {tol: check(MomentSequence(mats), tol) for tol in (1e-9, 1e-3)}
        assert not want[1e-9].passed and want[1e-3].passed
        for tols in ((1e-9, 1e-3), (1e-3, 1e-9)):
            seq = MomentSequence(mats)
            for tol in tols:
                assert _bits(check(seq, tol)) == _bits(want[tol])


def test_operator_check_matches_the_per_matrix_reference():
    rng = np.random.default_rng(13)
    for mats in _sweep_sequences(8, 30):
        seq = MomentSequence(mats)
        for variant, extra in (("hamburger", 0), ("stieltjes", 1), ("hausdorff", 2)):
            m = int(rng.integers(0, (seq.D - extra) // 2 + 1))
            ops = [rng.standard_normal((seq.n, seq.n)) for _ in range(m + 1)]
            for tol in (1e-9, 1e-3):
                assert (_bits(operator_check(seq, ops, variant, tol))
                        == _bits(_ref_operator_check(seq, ops, variant, tol)))


@pytest.mark.parametrize("n", range(1, 7))
def test_operator_check_pairings_match_the_loop(n):
    # bit for bit (so within any relative tolerance) at every variant and
    # every order the moments allow, with the operators in either memory
    # order and the moments over six decades of scale
    rng = np.random.default_rng(60 + n)
    for d in (2, 5, 8):
        c = rng.standard_normal((d + 1, n, n)) * 10.0 ** rng.integers(-3, 4)
        seq = MomentSequence(0.5 * (c + np.transpose(c, (0, 2, 1))))
        for variant, extra in (("hamburger", 0), ("stieltjes", 1), ("hausdorff", 2)):
            for m in range((d - extra) // 2 + 1):
                ops = [rng.standard_normal((n, n)) for _ in range(m + 1)]
                if m % 2:
                    ops = [np.asfortranarray(a) for a in ops]
                assert (_bits(operator_check(seq, ops, variant))
                        == _bits(_ref_operator_check(seq, ops, variant, DEFAULT_PSD_TOL)))
