"""The overflow rule at every public entry point: a strict-JSON result or a typed error.

Entries mix unit values with subnormals and values near the float maximum,
where a sum, a product or a power can overflow float64.  Each call either
returns values that ``json.dumps(..., allow_nan=False)`` accepts or raises
a ``ValueError`` (no ``LinAlgError``) or a domain failure.  Tier-1 turns
every warning into an error, so a call that lets numpy warn fails as well.
"""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import rand_psd
from matmoments import (AtomicMatrixMeasure, LaurentPoly, MatrixPoly, MomentSequence,
                        PositiveMapMeasure, RecoveryResult, ScalarizedSet, SosCertificate,
                        SpectralFactor, build_family, cauchy_schwarz_chain,
                        certificate_to_json, check_hamburger, check_hausdorff, check_stieltjes,
                        decompose_halfline, decompose_interval, decompose_line, fejer_riesz,
                        forward_moments, integrate_map, integrate_trace, measure_to_json,
                        operator_check, positivity_audit, recover, scalarize,
                        support_collapse_check)
from matmoments.polymat import _Failure

ENTRIES = [0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 7.0, -2.5, 1e-320, -1e-320, 1e-160, 1e154, 1e200,
           1e300, 1e308, -1e308, 1.7e308]


@st.composite
def cases(draw):
    """Size n, moments, atoms, a symmetric F, a Hermitian u, generators and a criterion."""
    n, entry = draw(st.integers(1, 3)), st.sampled_from(ENTRIES)

    def stack(count, symmetric=True):
        size = count * n * n
        s = np.array(draw(st.lists(entry, min_size=size, max_size=size))).reshape(count, n, n)
        return np.triu(s) + np.swapaxes(np.triu(s, 1), 1, 2) if symmetric else s

    moments = stack(draw(st.integers(3, 5)))
    points = draw(st.lists(entry, min_size=1, max_size=2))
    weights = stack(len(points))
    poly = stack(draw(st.sampled_from([1, 3])))
    a0, a1 = stack(1)[0], stack(1, symmetric=False)[0]
    laurent = draw(st.sampled_from([[a0], [a1.T, a0, a1]]))
    gens = draw(st.lists(st.lists(entry, min_size=1, max_size=3), max_size=2))
    variant = draw(st.sampled_from(["hamburger", "stieltjes", "hausdorff"]))
    return n, moments, points, weights, poly, np.array(laurent), gens, variant


def _calls(n, moments, points, weights, poly, laurent, gens, variant):
    """Every public entry point on one case; a constructor's ValueError counts as its outcome."""
    def seq():
        return MomentSequence(moments)

    def mu():
        return AtomicMatrixMeasure(n, list(zip(points, weights)))

    def f():
        return MatrixPoly(poly, symmetric=True)

    def maps():
        return PositiveMapMeasure.from_linear(n, 1, [(x, w.reshape(1, -1))
                                                     for x, w in zip(points, weights)])
    return [lambda: check_hamburger(seq()), lambda: check_stieltjes(seq()),
            lambda: check_hausdorff(seq()), lambda: recover(seq()),
            lambda: operator_check(seq(), [np.eye(n), weights[0]], variant),
            lambda: forward_moments(mu(), 4), lambda: positivity_audit(mu(), gens, 0),
            lambda: integrate_trace(f(), mu()), lambda: integrate_map(f(), maps()),
            lambda: cauchy_schwarz_chain(mu(), build_family(n)),
            lambda: support_collapse_check(mu(), build_family(n)),
            lambda: decompose_line(f()), lambda: decompose_halfline(f()),
            lambda: decompose_interval(f()), lambda: scalarize(f()),
            lambda: fejer_riesz(LaurentPoly(laurent))]


def _plain(out):
    """A result as plain JSON values: a report's fields, arrays as nested lists."""
    if hasattr(out, "to_json"):
        return out.to_json()
    if isinstance(out, RecoveryResult):
        return [measure_to_json(out.measure), out.moment_residual]
    if isinstance(out, MomentSequence):
        return out.S.tolist()
    if isinstance(out, SosCertificate):
        return certificate_to_json(out)
    if isinstance(out, ScalarizedSet):
        return [p.tolist() for p in out.polys]
    if isinstance(out, SpectralFactor):
        return [out.coeffs.real.tolist(), out.coeffs.imag.tolist(), out.residual,
                out.epsilon_used]
    return np.asarray(out).tolist()     # a value, a verdict or a matrix


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(cases())
def test_every_entry_point_ends_in_strict_json_or_a_typed_error(case):
    for call in _calls(*case):
        try:
            out = call()
        except (ValueError, _Failure) as exc:
            assert not isinstance(exc, np.linalg.LinAlgError), exc
            continue
        json.dumps(_plain(out), allow_nan=False)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(n=st.integers(1, 3), d=st.integers(0, 16), top=st.floats(1e290, 1.7e308),
       seed=st.integers(0, 2**32 - 1))
def test_interval_inputs_with_pd_coefficients_certify_or_name_the_overflow(n, d, top, seed):
    # every F_k PD makes every Bernstein coefficient PD, so the interval
    # tries its Bernstein path first, on cleared coefficients up to
    # C(16, 8) = 12870 times B_k: near the float maximum it certifies, or
    # its reassembly overflows and the factorization ends in the overflow
    # ValueError, from its expansion on the circle or its own reassembly
    rng = np.random.default_rng(seed)
    f = np.array([rand_psd(rng, n) for _ in range(d + 1)])
    f = 0.5 * (f + np.swapaxes(f, 1, 2))
    f = f / np.abs(f).max() * top
    try:
        cert = decompose_interval(MatrixPoly(f, symmetric=True))
    except ValueError as exc:
        assert type(exc) is ValueError and "overflows float64" in str(exc), exc
    else:
        json.dumps(certificate_to_json(cert), allow_nan=False)
