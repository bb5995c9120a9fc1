"""Digests over the certificates, the spectral factors and the moment path of fixed, seeded corpora.

A change that moves any bit of a factor, a certificate or its residual,
or of a measure, its moments, a Hankel criterion's report or a recovered
measure, changes its digest.  A change meant to be bit-identical (a
faster kernel, fewer wrappers) must leave it as it is; a change that
moves bits on purpose says so and records the new digest.  A digest is of float64
arithmetic on one numpy/BLAS build with one BLAS thread, which
``conftest`` pins: another build or thread count may round a matrix
product differently and need its own.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

# conftest first: it pins BLAS before numpy loads
from conftest import SINGULAR_INPUTS, laurent_from_factor, rand_psd, separated_points
import numpy as np
import pytest
from matmoments import (AtomicMatrixMeasure, MatrixPoly, certificate_to_json, certificates,
                        check_hamburger, check_hausdorff, check_stieltjes, fejer_riesz,
                        forward_moments, operator_check, positivity_audit, recover)

DIGEST = "2b5b906088980d43c57966d75f053650b10862b36510c13961615e66a2f9416f"
MOMENT_DIGEST = "09f02510b101bb06d5714f978e8819e576506b9b508cbe2e53a9266d37382f94"
WIDE_DIGEST = "8639d6541f0236cfeafd7c809f028f3e0961c913aa68ab95db1ce6d1b8a80fd1"
FACTOR_DIGEST = "3bea882a11498c522534d8fd14beee616a3d25f45842974900b6c57608e73ef8"
# Per-case hashes of every corpus, so that a mismatch names the first case
# that moved.  ``PYTHONPATH=src python tests/test_bit_identity.py`` rewrites
# them, the digests above and the CLI goldens from the current build, after
# a change that moves bits on purpose, and prints each certificate case
# whose outcome moved and each factor case that moved.
CASE_HASHES = Path(__file__).resolve().parent / "golden" / "digests.json"
DECOMPOSE = {"line": certificates.decompose_line,
             "halfline": certificates.decompose_halfline,
             "interval": certificates.decompose_interval}


def _square(rng, n, deg):
    """Coefficients of A(x) A(x)^T for a random A of degree ``deg``."""
    a = rng.standard_normal((deg + 1, n, n))
    out = np.zeros((2 * deg + 1, n, n))
    for i in range(deg + 1):
        for j in range(deg + 1):
            out[i + j] += a[i] @ a[j].T
    return out


def _times(gen, coeffs):
    out = np.zeros((len(coeffs) + len(gen) - 1,) + coeffs.shape[1:])
    for j, w in enumerate(gen):
        out[j:j + len(coeffs)] += w * coeffs
    return out


def _corpus():
    """(domain, F) pairs: n 1-6, even degree 2-16, every domain, singular squares."""
    rng = np.random.default_rng(20261018)
    gens = {"line": [[1.0], [1.0]], "halfline": [[1.0], [0.0, 1.0]],
            "interval": [[1.0], [0.0, 1.0], [1.0, -1.0], [0.0, 1.0, -1.0]]}
    cases = []
    for n in range(1, 7):
        for i, domain in enumerate(("line", "halfline", "interval")):
            for deg in (2 + 2 * ((n + i) % 4), 10 + 2 * ((n + i) % 4)):
                h = deg // 2
                f = np.zeros((deg + 1, n, n))
                for gen in gens[domain]:
                    part = _times(gen, _square(rng, n, h - (len(gen) > 1)))
                    f[:len(part)] += part
                cases.append((domain, f))
        # one square H H^T, singular where det H has real roots, on every
        # domain; on the interval with its top coefficients padded by zeros
        f = _square(rng, n, 1 + n % 3)
        cases += [("line", f), ("halfline", f),
                  ("interval", np.concatenate([f, np.zeros((2, n, n))]))]
    return cases


def _certificate_cases(corpus, messages=False):
    """(label, bytes) per case: the certificate's JSON, or the error's type (and message)."""
    for domain, f in corpus:
        try:
            cert = DECOMPOSE[domain](MatrixPoly(0.5 * (f + np.swapaxes(f, 1, 2)),
                                                symmetric=True))
            out = json.dumps(certificate_to_json(cert), sort_keys=True)
        except (ValueError, RuntimeError) as exc:
            out = f"{type(exc).__name__}: {exc}" if messages else type(exc).__name__
        yield f"{domain}, n={f.shape[1]}, degree={len(f) - 1}", f"{domain}\n{out}\n".encode()


def _digest_report(cases):
    """The corpus digest, the SHA-256 of all case bytes in order, and each case's hash."""
    sha, per_case = hashlib.sha256(), []
    for label, data in cases:
        sha.update(data)
        per_case.append([label, hashlib.sha256(data).hexdigest()])
    return sha.hexdigest(), per_case


def _assert_digest(name, expected, cases):
    """The digest equals ``expected``; else the message names the first case that moved."""
    digest, per_case = _digest_report(cases)
    if digest == expected:
        return
    recorded = json.loads(CASE_HASHES.read_text(encoding="utf-8")).get(name, {})
    if recorded.get("digest") != expected:
        raise AssertionError(f"{name} moved to {digest}; {CASE_HASHES.name} holds no case "
                             f"hashes for {expected}")
    for i, ((label, got), (_, want)) in enumerate(zip(per_case, recorded["cases"])):
        if got != want:
            raise AssertionError(f"{name} moved: first at case {i} ({label}), "
                                 f"recorded {want}, now {got}")
    raise AssertionError(f"{name} moved to {digest} with {len(per_case)} cases, "
                         f"{len(recorded['cases'])} recorded")


def test_a_moved_digest_names_its_first_moved_case(tmp_path, monkeypatch):
    cases = [("line, n=1, degree=2", b"a"), ("halfline, n=2, degree=4", b"b"),
             ("interval, n=3, degree=6", b"c")]
    digest, per_case = _digest_report(cases)
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({"X": {"digest": digest, "cases": per_case}}), encoding="utf-8")
    monkeypatch.setattr(sys.modules[__name__], "CASE_HASHES", path)
    moved = cases[:1] + [(label, data.upper()) for label, data in cases[1:]]
    with pytest.raises(AssertionError, match=r"first at case 1 \(halfline, n=2, degree=4\)") as info:
        _assert_digest("X", digest, moved)
    assert per_case[1][1] in str(info.value)
    assert hashlib.sha256(b"B").hexdigest() in str(info.value)
    with pytest.raises(AssertionError, match="holds no case hashes"):
        _assert_digest("Y", digest, moved)


def test_certificate_digest_is_unchanged():
    _assert_digest("DIGEST", DIGEST, _certificate_cases(_corpus()))


def _sum(*stacks):
    out = np.zeros((max(len(s) for s in stacks),) + stacks[0].shape[1:])
    for s in stacks:
        out[:len(s)] += s
    return out


def _wide_corpus():
    """(domain, F) pairs beyond ``_corpus``: odd degrees, exact +0 and -0.0 coefficients, n = 6.

    Odd degrees 1-15 on the half-line (sigma_0 + x sigma_1) and the interval
    (x sigma_x + (1 - x) sigma_{1-x}) for n 1-6; G(x^2) on the line, with
    its odd coefficients -0.0; x G(x) on the half-line, with F_0 = -0.0;
    a diagonal F on the interval, with -0.0 off the diagonal; and the
    benchmark's n = 6, degree 16 shapes (a sum of two squares, one square,
    the half-line and the four-generator interval forms) on every domain.
    """
    rng = np.random.default_rng(20261020)
    cases = []
    for n in range(1, 7):
        for i, (domain, gens) in enumerate((("halfline", ([1.0], [0.0, 1.0])),
                                            ("interval", ([0.0, 1.0], [1.0, -1.0])))):
            for deg in (1 + 2 * ((n + i) % 4), 9 + 2 * ((n + i) % 4)):
                h = (deg - 1) // 2
                cases.append((domain, _sum(*[_times(gen, _square(rng, n, h)) for gen in gens])))
        g = _sum(_square(rng, n, 1 + n % 2), _times([0.0, 1.0], _square(rng, n, n % 2)))
        f = np.full((2 * len(g) - 1, n, n), -0.0)
        f[::2] = g
        cases.append(("line", f))
        f = _times([0.0, 1.0], _square(rng, n, 1 + n % 3))
        f[0] = -0.0
        cases.append(("halfline", f))
        f = np.full((5, n, n), -0.0)
        for j in range(n):
            f[:, j, j] = _times([0.0, 1.0, -1.0], _square(rng, 1, 1))[:, 0, 0]
            f[0, j, j] += 0.1 * (j + 1)
        cases.append(("interval", f))
    sq = _square(rng, 6, 8)
    gens = ([0.0, 1.0, -1.0], [0.0, 1.0], [1.0, -1.0])
    cases += [("line", sq + _square(rng, 6, 8)), ("line", sq), ("halfline", sq), ("interval", sq),
              ("halfline", _sum(sq, _times([0.0, 1.0], _square(rng, 6, 7)))),
              ("interval", _sum(sq, *[_times(gen, _square(rng, 6, 7)) for gen in gens]))]
    return cases


def test_wide_certificate_digest_is_unchanged():
    _assert_digest("WIDE_DIGEST", WIDE_DIGEST, _certificate_cases(_wide_corpus(), True))


def _factor_corpus():
    """(label, u) pairs on which ``fejer_riesz`` runs its Newton polish.

    ``SINGULAR_INPUTS``, then 40 P P* with P of rank 1..n-1 on the whole
    circle (n 2-4, band 1-5): real P for even draws, complex for odd ones.
    """
    rng = np.random.default_rng(5)
    cases = list(SINGULAR_INPUTS.items())
    for i in range(40):
        n, band = int(rng.integers(2, 5)), int(rng.integers(1, 6))
        rank = int(rng.integers(1, n))
        b = np.zeros((band + 1, n, n), dtype=complex)
        b[:, :, :rank] = rng.standard_normal((band + 1, n, rank))
        if i % 2:
            b[:, :, :rank] += 1j * rng.standard_normal((band + 1, n, rank))
        field = "complex" if i % 2 else "real"
        cases.append((f"draw {i}, {field} rank {rank}, n={n}, band={band}", laurent_from_factor(b)))
    return cases


def _factor_cases():
    """(label, bytes) per case: the factor's coefficients, residual and shift, or the error."""
    for label, u in _factor_corpus():
        try:
            fac = fejer_riesz(u)
            data = fac.coeffs.tobytes() + f"{fac.residual!r} {fac.epsilon_used!r}".encode()
        except (ValueError, RuntimeError) as exc:
            data = f"{type(exc).__name__}: {exc}".encode()
        yield label, data


def test_factor_digest_is_unchanged():
    _assert_digest("FACTOR_DIGEST", FACTOR_DIGEST, _factor_cases())


def _moment_corpus():
    """(n, atoms) lists: n 1-6, 1-6 atoms in [-2, 2] or [0, 1], displaced atoms, merging pairs."""
    rng = np.random.default_rng(20261019)
    cases = []
    for n in range(1, 7):
        for count in range(1, 7):
            for lo, hi in ((-2.0, 2.0), (0.0, 1.0)):
                pts = separated_points(rng, count, lo, hi, 0.05)
                cases.append((n, [(float(x), rand_psd(rng, n)) for x in pts]))
        for bad in (-0.5, 1.5):
            pts = separated_points(rng, 1 + (n + (bad > 0)) % 3, 0.0, 1.0, 0.05)
            atoms = [(float(x), rand_psd(rng, n, 0.5, 3.0)) for x in pts]
            cases.append((n, atoms + [(bad, rand_psd(rng, n, 0.5, 3.0))]))
        # two atoms closer than MERGE_TOL, which the measure merges into one
        x = float(rng.uniform(0.0, 1.0))
        cases.append((n, [(x, rand_psd(rng, n)), (x + 1e-13, rand_psd(rng, n)),
                          (x + 0.5, rand_psd(rng, n))]))
    return cases


def _moment_cases():
    """Two (label, bytes) entries per case, its criteria reports and its measure.

    The ``reports`` entry holds the three criteria and one operator tuple;
    the ``measure`` entry holds the measure, its moments and ``recover``'s
    output.  A change to the criteria alone moves only ``reports`` hashes.
    """
    rng = np.random.default_rng(7)
    for n, atoms in _moment_corpus():
        mu = AtomicMatrixMeasure(n, atoms)
        seq = forward_moments(mu, 2 * len(atoms) + 2)
        ops = rng.standard_normal((2, n, n))
        reports = [check(seq).to_json() for check in
                   (check_hamburger, check_stieltjes, check_hausdorff)]
        reports.append(operator_check(seq, ops, "hausdorff").to_json())
        label = f"n={n}, atoms={len(atoms)}"
        yield f"{label}: reports", json.dumps(reports, sort_keys=True).encode()
        data = [np.float64(x).tobytes() + w.tobytes() for x, w in mu.atoms]
        data.append(seq.S.tobytes())
        try:
            res = recover(seq)
        except (ValueError, RuntimeError) as exc:
            data.append(type(exc).__name__.encode())
        else:
            for x, w in res.measure.atoms:
                data.append(np.float64(x).tobytes() + w.tobytes())
            flags = f"{res.moment_residual!r} {res.rank_used} {res.rank_gap_ambiguous}\n"
            data.append(flags.encode())
        yield f"{label}: measure", b"".join(data)


def test_moment_path_digest_is_unchanged():
    """Measure, moments, the three criteria, one operator tuple and ``recover`` at degree 2r + 2."""
    _assert_digest("MOMENT_DIGEST", MOMENT_DIGEST, _moment_cases())


def _plain(value):
    """Whether ``value`` is built of None, bools, ints, floats, strs, lists and str-keyed dicts."""
    if isinstance(value, list):
        return all(map(_plain, value))
    if isinstance(value, dict):
        return all(type(key) is str and _plain(v) for key, v in value.items())
    return value is None or type(value) in (bool, int, float, str)


def test_every_report_of_the_moment_corpus_holds_plain_python_values():
    # to_json hands a report's fields to json as they are, so a numpy scalar
    # in one would print as np.float64(...) in its repr and a numpy bool would
    # not serialize; the measures' audits run as the moments workload runs them
    rng = np.random.default_rng(7)
    for n, atoms in _moment_corpus():
        mu = AtomicMatrixMeasure(n, atoms)
        seq = forward_moments(mu, 2 * len(atoms) + 2)
        reports = [check(seq) for check in (check_hamburger, check_stieltjes, check_hausdorff)]
        reports.append(operator_check(seq, rng.standard_normal((2, n, n)), "hausdorff"))
        reports.append(positivity_audit(mu, [[4.0, 0.0, -1.0]], 0))
        for report in reports:
            doc = report.to_json()
            assert _plain(doc) and _plain(dataclasses.asdict(report)), (n, report)
            assert list(doc)[0] == "pass" and doc["pass"] is report.passed


def _outcome(data):
    """'certificate', or the error's type, from one certificate case's bytes."""
    line = data.split(b"\n")[1].decode()
    return "certificate" if line.startswith("{") else line.partition(":")[0]


def _relative_residual(f, data):
    """A certificate case's residual over max(1, max|F|), F symmetrized; None for an error."""
    line = data.split(b"\n")[1]
    if not line.startswith(b"{"):
        return None
    scale = max(1.0, float(np.abs(0.5 * (f + np.swapaxes(f, 1, 2))).max()))
    return json.loads(line)["residual"] / scale


def _residual_changes(moved, was, now):
    """The largest change of relative residual among the moved cases, and how many rose and fell."""
    pairs = [(was[i], now[i], label) for i, label in moved
             if i < len(was) and None not in (was[i], now[i])]
    if not pairs:
        return ""
    old, new, label = max(pairs, key=lambda p: abs(p[1] - p[0]))
    return (f"  relative residuals of moved cases: largest change {old:.3g} -> {new:.3g} "
            f"({label}); {sum(n > o for o, n, _ in pairs)} rose, "
            f"{sum(n < o for o, n, _ in pairs)} fell, of {len(pairs)}\n")


def _rewrite():
    """Record the current build's digests, case hashes and CLI goldens; print what moved.

    Rewrites the digest constants above, ``golden/digests.json`` (with each
    certificate case's outcome and relative residual) and the stdout files
    of ``test_cli.GOLDEN_CALLS``.  Prints how many case hashes moved (for
    the moment corpus, its ``reports`` and ``measure`` hashes apart), each
    certificate case whose outcome (a certificate, or an error type)
    differs from the recorded one, the largest change of relative residual
    among the moved certificate cases with how many rose and fell, and
    each factor case that moved.
    """
    import test_cli

    recorded = json.loads(CASE_HASHES.read_text(encoding="utf-8"))
    doc, corpora = {}, {"DIGEST": _corpus(), "WIDE_DIGEST": _wide_corpus()}
    for name, cases in (("DIGEST", _certificate_cases(corpora["DIGEST"])),
                        ("WIDE_DIGEST", _certificate_cases(corpora["WIDE_DIGEST"], True)),
                        ("MOMENT_DIGEST", _moment_cases()),
                        ("FACTOR_DIGEST", _factor_cases())):
        cases = list(cases)
        digest, per_case = _digest_report(cases)
        doc[name] = {"digest": digest, "cases": per_case}
        print(name, digest, "(unchanged)" if digest == globals()[name] else "(moved)")
        old = recorded.get(name, {}).get("cases", [])
        moved = [(i, label) for i, (label, h) in enumerate(per_case)
                 if old[i:i + 1] != [[label, h]]]
        if name == "MOMENT_DIGEST":
            for part in ("reports", "measure"):
                print(f"  {part} hashes moved: {sum(m.endswith(part) for _, m in moved)} of "
                      f"{sum(label.endswith(part) for label, _ in per_case)}")
            continue
        print(f"  case hashes moved: {len(moved)} of {len(per_case)}")
        if name == "FACTOR_DIGEST":
            print("".join(f"  moved: {label}\n" for _, label in moved), end="")
            continue
        doc[name]["outcomes"] = [_outcome(data) for _, data in cases]
        was = recorded.get(name, {}).get("outcomes", [])
        for i, ((label, _), old, now) in enumerate(zip(per_case, was, doc[name]["outcomes"])):
            if old != now:
                print(f"  outcome of case {i} ({label}): {old} -> {now}")
        doc[name]["residuals"] = [_relative_residual(f, data)
                                  for (_, f), (_, data) in zip(corpora[name], cases)]
        print(_residual_changes(moved, recorded.get(name, {}).get("residuals", []),
                                doc[name]["residuals"]), end="")
    CASE_HASHES.write_text("{\n" + ",\n".join(
        f'"{name}": {{"digest": "{entry["digest"]}", "cases": [\n'
        + ",\n".join(json.dumps(case) for case in entry["cases"]) + "]"
        + "".join(f',\n"{key}": {json.dumps(entry[key])}' for key in ("outcomes", "residuals")
                  if key in entry)
        + "}" for name, entry in doc.items()) + "\n}\n", encoding="utf-8")
    source = Path(__file__)
    text = source.read_text(encoding="utf-8")
    for name, entry in doc.items():
        text = re.sub(rf'^{name} = "[0-9a-f]{{64}}"$', f'{name} = "{entry["digest"]}"', text,
                      count=1, flags=re.M)
    source.write_text(text, encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        for name in test_cli.GOLDEN_CALLS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                test_cli.main(test_cli.golden_argv(name, Path(tmp)))
            golden = test_cli.GOLDEN / f"{name}.txt"
            if golden.read_text(encoding="utf-8") != out.getvalue():
                golden.write_text(out.getvalue(), encoding="utf-8")
                print("rewrote", golden.name)


if __name__ == "__main__":     # PYTHONPATH=src python tests/test_bit_identity.py
    _rewrite()
