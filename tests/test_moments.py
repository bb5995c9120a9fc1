"""Block-Hankel constructors and the three moment criteria."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_measure, rand_psd
from matmoments import (AtomicMatrixMeasure, MomentSequence, PsdReport, block_hankel,
                        check_hamburger, check_hausdorff, check_stieltjes, forward_moments,
                        momentsequence_from_json, momentsequence_to_json, operator_check,
                        recover)
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


@pytest.mark.parametrize("m,shift,match", [
    (1.0, 0, "m must be a nonnegative integer"), (True, 0, "m must be a nonnegative integer"),
    (-1, 0, "m must be a nonnegative integer"), (0, 1.0, "shift must be 0, 1 or 2"),
    (0, True, "shift must be 0, 1 or 2"), (0, np.float32(1.0), "shift must be 0, 1 or 2"),
    (0, np.True_, "shift must be 0, 1 or 2")])
def test_block_hankel_orders_and_shifts_must_be_integers(m, shift, match):
    # m = 1.0 ended in an IndexError, and m = True built order 1
    seq = MomentSequence([I2, 0 * I2, I2])
    with pytest.raises(ValueError, match=f"^{match}$"):
        block_hankel(seq, m, shift)


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


def test_operator_check_passes_a_pairing_near_the_float_maximum():
    # <S_0, A_0^T A_0> = 1e308; formed as (T + T^T)/2 its Hermitian part
    # overflowed: "generator 1: its pairing matrix overflows float64"
    rep = operator_check(MomentSequence([[[1e308]]] * 3), [[[1.0]]], "hamburger")
    assert rep.passed and rep.min_eigenvalue == 1e308


@pytest.mark.parametrize("ops,match", [
    ((), "^operator tuple must be non-empty$"),
    ([I2, np.eye(3)], r"^operator shape \(3, 3\) does not match n=2$")])
def test_operator_check_rejects_an_empty_or_misshapen_tuple(ops, match):
    with pytest.raises(ValueError, match=match):
        operator_check(plus_minus_one_moments(2), ops, "hamburger")


@pytest.mark.parametrize("entry,match", [
    (np.nan, "operator A_1 has a non-finite entry"),
    (np.inf, "operator A_1 has a non-finite entry"),
    (1e200, "generator 1: its pairing matrix overflows float64")])
@pytest.mark.parametrize("variant", ["hamburger", "stieltjes", "hausdorff"])
def test_operator_check_rejects_operators_that_overflow(entry, match, variant):
    # each passed with min_eigenvalue inf: a NaN pairing compared false
    # against the threshold, and an inf largest eigenvalue made the scale inf
    seq = plus_minus_one_moments(4)
    with pytest.raises(ValueError, match=f"^{match}$"):
        operator_check(seq, [I2, np.diag([1.0, entry])], variant)


def test_operator_check_checks_tol_first():
    with pytest.raises(ValueError, match="^tol must be a finite nonnegative number, got -1.0$"):
        operator_check(plus_minus_one_moments(2), [I2, I2, I2], "hamburger", tol=-1.0)


@pytest.mark.parametrize("name", ["line", "interval", "hamburgerx", ""])
def test_operator_check_names_the_accepted_criteria(name):
    # the certificate variant "line" used to get "unknown variant 'line'"
    with pytest.raises(ValueError, match=f"unknown criterion '{name}': expected one of "
                                         "hamburger, stieltjes, hausdorff$"):
        operator_check(plus_minus_one_moments(2), [I2], name)


@pytest.mark.parametrize("variant", [5, None, ["hamburger"], b"hamburger"])
def test_operator_check_wants_a_string_variant(variant):
    # a non-string raised AttributeError from variant.lower()
    with pytest.raises(ValueError, match=r"^variant must be a string naming the criterion, got "):
        operator_check(plus_minus_one_moments(2), [I2], variant)


@pytest.mark.parametrize("op", [1j * I2, I2.astype(complex), I2 + 1e-3j * np.ones((2, 2))])
def test_operator_check_rejects_complex_operators(op):
    # each was cast to its real part, with a ComplexWarning: [I, iI] was judged as [I, 0]
    with pytest.raises(ValueError, match="^operators must be real$"):
        operator_check(plus_minus_one_moments(2), [I2, op], "hamburger")


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
    with pytest.raises(ValueError, match=r"moments\[2\] is not symmetric"):
        MomentSequence([I2, I2, [[1.0, 1.0], [0.0, 1.0]]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_moment_sequence_rejects_non_finite_entries(bad):
    # a NaN used to pass check_hamburger with min_eigenvalue 0.0 and recover
    # to a one-atom measure; an inf failed only inside recover
    mats = [I2, 0 * I2, I2.copy(), 0 * I2, I2]
    mats[2][1, 1] = bad
    with pytest.raises(ValueError, match=r"moments\[2\] has a non-finite entry"):
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


def test_symmetry_check_does_not_overflow_near_the_float_maximum():
    # S - S^T overflowed here, with numpy's warning, before the rejection
    with pytest.raises(ValueError, match=r"^moments\[1\] is not symmetric$"):
        MomentSequence([I2, [[0.0, 1e308], [-1e308, 0.0]], I2])


@pytest.mark.parametrize("values", [[1.0, 0.5, 1e308, -1e308, 1e308],
                                    [1.0, 0.5, 0.4, -1.7e308, 1.7e308]])
@pytest.mark.parametrize("run", [check_hamburger, check_stieltjes, check_hausdorff, recover],
                         ids=["hamburger", "stieltjes", "hausdorff", "recover"])
def test_hankels_whose_eigenvalues_overflow_are_value_errors(values, run):
    # generator 1's top eigenvalue overflowed to inf, and so did its judging
    # scale: check_hamburger passed with min_eigenvalue -8e307 or -1.1e308,
    # and recover returned a measure or reached lstsq's "SVD did not converge"
    seq = MomentSequence(np.array(values).reshape(-1, 1, 1))
    with pytest.raises(ValueError, match="^generator 1: its localizing Hankel overflows float64$"):
        run(seq)


def test_localizing_sums_that_overflow_name_their_generator():
    # S_2 - S_3 overflows in generator 1-x's localizing stack, where numpy
    # warned; generators 1 and x are finite and fail
    seq = MomentSequence(np.array([0.0, 0.0, 1e308, -1e308]).reshape(-1, 1, 1))
    assert not check_stieltjes(seq).passed
    with pytest.raises(ValueError, match="^generator 1-x: its localizing Hankel overflows"):
        check_hausdorff(seq)


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


def _ref_families(seq, variant):
    """Each generator's (order, matrix) list, orders 0..top."""
    d = seq.D
    fams = [[(m, _ref_block_hankel(seq, m, 0)) for m in range(d // 2 + 1)]]
    if variant in ("stieltjes", "hausdorff"):
        fams.append([(m, _ref_block_hankel(seq, m, 1)) for m in range((d - 1) // 2 + 1)])
    if variant == "hausdorff":
        fams.append([(m, _ref_block_hankel(seq, m, 0) - _ref_block_hankel(seq, m, 1))
                     for m in range((d - 1) // 2 + 1)])
        fams.append([(m, _ref_block_hankel(seq, m, 1) - _ref_block_hankel(seq, m, 2))
                     for m in range((d - 2) // 2 + 1)])
    return fams


def _ref_check(seq, variant, tol):
    return _ref_judge([mat for fam in _ref_families(seq, variant) for mat in fam], tol)


def _ref_margins(fams, tol):
    """Per family: (least top-order eigenvalue, floor, margin (2 + tol) N eps max|H_top|)."""
    out = []
    for fam in fams:
        if not fam:
            out.append((np.nan, 1.0, 0.0))
            continue
        top = fam[-1][1]
        floor = max(1.0, float(np.max(np.diag(fam[0][1]))))
        unit = len(top) * np.finfo(float).eps * float(np.max(np.abs(top)))
        out.append((float(np.linalg.eigvalsh(top)[0]), floor, (2.0 + tol) * unit))
    return out


def _ref_top_pass(seq, variant, tol):
    """The least of the families' top-order eigenvalues if every family
    passes from its top order alone, least - margin >= -tol floor; else None."""
    margins = _ref_margins(_ref_families(seq, variant), tol)
    for least, floor, margin in margins:
        if not (np.isfinite(least - margin) and least - margin >= -tol * floor):
            return None
    return min([np.inf, *(least for least, _, _ in margins)])


def _ref_report(seq, variant, tol):
    """The report a criterion must give, bit for bit.

    A pass from the top orders alone reports the least top-order eigenvalue
    (the per-order minimum in exact arithmetic) with the reference's orders;
    every other report is the per-matrix reference's.
    """
    ref = _ref_check(seq, variant, tol)
    least = _ref_top_pass(seq, variant, tol)
    if least is None:
        return ref
    assert ref.passed and ref.failing_order is None
    return PsdReport(True, least, ref.tested_orders)


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
        for tol in (0.0, 1e-12, 1e-9, 1e-3):
            for variant, check in CHECKS.items():
                assert _bits(check(seq, tol)) == _bits(_ref_report(seq, variant, tol))


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


def test_each_hankel_reaches_eigvalsh_at_most_once(monkeypatch):
    # a clear pass takes one eigvalsh per family, at its top order; a
    # fallback adds each lower order once and reuses the top order's
    n, r = 2, 3
    seq = forward_moments(rand_measure(np.random.default_rng(21), n, r, 0.0, 1.0), 2 * r + 2)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape[-1])
        return eigvalsh(a)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    top = [(r + 2) * n, (r + 1) * n, (r + 1) * n, (r + 1) * n]
    assert check_hausdorff(seq).passed and calls == top
    assert check_hamburger(seq).passed and check_stieltjes(seq).passed and calls == top
    del calls[:]
    assert not check_hausdorff(seq, 0.0).passed
    orders = [k * n for k in range(1, r + 2)] + 3 * [k * n for k in range(1, r + 1)]
    assert calls == orders
    del calls[:]
    assert not check_hamburger(seq, 0.0).passed and calls == []


# The top-order pass against the per-matrix reference, near its threshold
# too: the "near" class shifts S_p by c I (p = 0 moves family 1, p = 1
# family x) so that the family's least top-order eigenvalue sits at
# -tol floor + k margin.

def _shift_to(seq, p, tol, k):
    def gap(c):
        mats = np.array(seq.S)
        mats[p] += c * np.eye(seq.n)
        shifted, m = MomentSequence(mats), (seq.D - p) // 2
        fam = [(0, shifted[p]), (m, _ref_block_hankel(shifted, m, p))]
        (least, floor, margin), = _ref_margins([fam], tol)
        return least + tol * floor - k * margin, mats
    lo, hi = -2.0 * (1.0 + float(np.max(np.abs(seq.S)))), 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(mid)[0] < 0 else (lo, mid)
    return MomentSequence(gap(hi)[1])


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(kind=st.sampled_from(["unit", "wide", "displaced", "symmetric", "near"]),
       n=st.integers(1, 4), d=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       p=st.integers(0, 1), tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-3]),
       k=st.floats(-4.0, 4.0))
def test_the_top_order_pass_agrees_with_every_order(kind, n, d, seed, p, tol, k):
    rng = np.random.default_rng(seed)
    if kind == "symmetric":
        c = rng.standard_normal((d + 1, n, n))
        seq = MomentSequence(0.5 * (c + np.transpose(c, (0, 2, 1))))
    else:
        lo, hi = (-2.0, 2.0) if kind == "wide" or kind == "near" and p else (0.0, 1.0)
        mu = rand_measure(rng, n, int(rng.integers(1, 5)), lo, hi)
        if kind == "displaced":
            mu = AtomicMatrixMeasure(n, [*mu.atoms, (float(rng.choice([-0.5, 1.5])),
                                                 rand_psd(rng, n))])
        seq = forward_moments(mu, d)
        if kind == "near":
            seq = _shift_to(seq, p, tol, k)
    fams = _ref_families(seq, "hausdorff")
    for count, (variant, check) in zip((1, 2, 4), CHECKS.items()):
        for t in (0.0, 1e-12, 1e-9, 1e-3):
            got = check(seq, t)
            ref = _ref_judge([mat for fam in fams[:count] for mat in fam], t)
            assert (got.passed, got.failing_order) == (ref.passed, ref.failing_order)
            assert got.tested_orders == ref.tested_orders
            margin = max(m for _, _, m in _ref_margins(fams[:count], t))
            assert abs(got.min_eigenvalue - ref.min_eigenvalue) <= margin


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
