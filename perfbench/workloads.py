"""The three benchmark workloads: inputs from a seed, one runner per item.

Each workload builds a fixed schedule of item shapes (the batch); the seed
only draws the numbers inside each shape, so runs with different seeds do
the same kind and amount of work.  The in-process workloads draw fresh
numbers for every pass from the seed and the pass index alone, so a run
averages over many inputs and the same seed always gives the same inputs;
``setup`` draws the first pass, later passes are drawn between passes.
Inputs are plain numpy arrays: building the library's objects from them is
part of each item's timed work.  ``run_item`` times only the library work
and returns an ``Outcome`` that the oracles in ``oracles.py`` have judged.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

HERE = Path(__file__).resolve().parent


@dataclass
class Outcome:
    """Result of one item: ``failure`` is None for an oracle-accepted answer."""

    latency: float
    failure: str | None = None
    residual: float | None = None
    detail: str = ""
    sample: tuple | None = None     # real output kept for the oracle self-check
    spans: list = field(default_factory=list)
    item_id: int = -1
    slot: int = -1                  # position of the item in its batch
    window: tuple = (0.0, 0.0)      # perf_counter at the item's start and end
    scaled: float = 0.0             # latency at reference speed


def _failed(latency, exc, key):
    return Outcome(latency, type(exc).__name__, detail=f"{key}: {str(exc)[:160]}")


# ---------------------------------------------------------------- inputs

def rand_psd(rng, n, lo=0.3, hi=3.0):
    """Random symmetric PSD matrix with eigenvalues in [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def spaced_points(rng, count, lo, hi, sep):
    """Uniformly drawn sorted points in [lo, hi] with gaps of at least ``sep``."""
    base = np.sort(rng.uniform(lo, hi - (count - 1) * sep, count))
    return base + sep * np.arange(count)


def square(rng, n, deg):
    """Coefficients of A(x) A(x)^T for a random A of degree ``deg``."""
    a = rng.standard_normal((deg + 1, n, n))
    out = np.zeros((2 * deg + 1, n, n))
    for i in range(deg + 1):
        for j in range(deg + 1):
            out[i + j] += a[i] @ a[j].T
    return out


def times_scalar(gen, coeffs):
    """Coefficients of g(x) C(x) for a scalar polynomial g."""
    out = np.zeros((len(coeffs) + len(gen) - 1,) + coeffs.shape[1:])
    for j, w in enumerate(gen):
        out[j:j + len(coeffs)] += w * coeffs
    return out


def add(*stacks):
    out = np.zeros((max(len(s) for s in stacks),) + stacks[0].shape[1:])
    for s in stacks:
        out[:len(s)] += s
    return out


def psd_poly(rng, kind, n, deg):
    """Symmetric F of even degree ``deg`` that is PSD on its domain by construction."""
    h = deg // 2
    if kind == "boundary":          # one square: singular where det H has real roots
        f = square(rng, n, h)
    elif kind == "line":
        f = add(square(rng, n, h), square(rng, n, h))
    elif kind == "halfline":
        f = add(square(rng, n, h), times_scalar([0.0, 1.0], square(rng, n, h - 1)))
    else:
        f = add(square(rng, n, h),
                times_scalar([0.0, 1.0, -1.0], square(rng, n, h - 1)),
                times_scalar([0.0, 1.0], square(rng, n, h - 1)),
                times_scalar([1.0, -1.0], square(rng, n, h - 1)))
    return 0.5 * (f + np.transpose(f, (0, 2, 1)))


class InProcess:
    """A workload that calls the library in this process; spans come from wrappers."""

    fresh_inputs = True

    def setup(self, mm, seed):
        state = {"mm": mm, "seed": seed, "batches": {}}
        self.batch(state, 0)        # the first pass's inputs are part of set-up
        return state

    def batch(self, state, index):
        """Items of pass ``index``, drawn from the seed and ``index`` alone."""
        if index not in state["batches"]:
            state["batches"][index] = self.make_batch(state["seed"], index)
        return state["batches"][index]

    def set_traced(self, state, tracer, on):
        if on and not tracer.patched:
            tracer.install()
        tracer.enable(on)

    def cleanup(self, state):
        pass


# ---------------------------------------------------------------- certify

# (input kind, n, degree) per slot; the three domains take turns, and a
# third of the line slots are singular single squares.  The shapes span
# n <= 6 and even degree <= 16, with the n = 6, degree 16 corner on every
# domain.  The half-line one is the largest spectral problem (x = a^2 gives
# a line problem of degree 32) and runs every pass, so the peak memory of a
# run does not hinge on the rare slow path of the n = 6 interval inputs.
# The five slowest slots (0.35-2.4 s) hold the slowest eighth of the items,
# so p90 falls inside one cluster; the middle is dense around 40-60 ms so
# p50 is steady.
CERTIFY_SHAPES = {
    "line": [("line", 1, 2), ("boundary", 6, 8), ("line", 4, 8), ("line", 6, 16),
             ("line", 3, 6), ("boundary", 2, 4), ("line", 4, 16), ("boundary", 6, 8),
             ("line", 3, 12), ("boundary", 3, 8), ("line", 5, 12), ("line", 2, 4),
             ("line", 5, 10)],
    "halfline": [("halfline", 1, 2), ("halfline", 4, 6), ("halfline", 2, 8),
                 ("halfline", 6, 8), ("halfline", 3, 6), ("halfline", 5, 4),
                 ("halfline", 4, 10), ("halfline", 2, 4), ("halfline", 6, 16),
                 ("halfline", 3, 12), ("halfline", 3, 10), ("halfline", 5, 8),
                 ("halfline", 3, 8)],
    "interval": [("interval", 1, 2), ("interval", 4, 8), ("interval", 6, 12),
                 ("interval", 2, 4), ("interval", 3, 16), ("interval", 5, 8),
                 ("interval", 3, 10), ("interval", 2, 12), ("interval", 4, 6),
                 ("interval", 6, 16), ("interval", 3, 6), ("interval", 4, 12),
                 ("interval", 4, 8)],
}
DECOMPOSERS = {"line": "decompose_line", "halfline": "decompose_halfline",
               "interval": "decompose_interval"}


class Certify(InProcess):
    name = "certify"
    pass_s = 5.0        # seconds of one pass on the reference host, sizes a run

    @staticmethod
    def make_batch(seed, index):
        rng = np.random.default_rng([seed, 1, index])
        batch = []
        for triple in zip(*CERTIFY_SHAPES.values()):
            for domain, (kind, n, deg) in zip(CERTIFY_SHAPES, triple):
                batch.append({"key": f"{kind}:n{n}:d{deg}", "domain": domain,
                              "f": psd_poly(rng, kind, n, deg)})
        return batch

    def run_item(self, state, item):
        mm = state["mm"]
        decompose = getattr(mm, DECOMPOSERS[item["domain"]])
        start = time.perf_counter()
        try:
            cert = decompose(mm.MatrixPoly(item["f"], symmetric=True))
        except Exception as exc:   # every library failure is classified, none dropped
            return _failed(time.perf_counter() - start, exc, item["key"])
        latency = time.perf_counter() - start
        sigma = {k: [np.asarray(p.coeffs, dtype=float) for p in v]
                 for k, v in cert.sigma.items()}
        case = (item["domain"], item["f"], cert.variant, sigma)
        ok, res = oracles.judge_certificate(*case)
        if not ok:
            return Outcome(latency, "oracle_rejected", res, f"{item['key']}: certificate reassembly")
        return Outcome(latency, None, res, sample=("certificate", case))


# ---------------------------------------------------------------- moments

SUPPORTS = {"line": (-2.0, 2.0), "unit": (0.0, 1.0)}
AUDIT_GENERATORS = {"line": [[4.0, 0.0, -1.0]], "unit": [[0.0, 1.0], [1.0, -1.0]]}
AUDIT_EVERY = 8
ATOM_SEP = 0.05


def _moments_schedule():
    """Fixed item list of one pass, in a fixed seed-independent order."""
    items = [("measure", cls, n, r) for cls in SUPPORTS for n in range(1, 7)
             for r in range(1, 7)]
    items += [("displaced", bad, n, 1 + (n + (bad > 0)) % 3)
              for n in range(1, 7) for bad in (-0.5, 1.5)]
    items += [("chain", outer, dim, 0) for dim in (2, 4, 6) for outer in (True, False)]
    order = np.random.default_rng(0).permutation(len(items))
    return [items[i] for i in order]


class Moments(InProcess):
    name = "moments"
    pass_s = 0.5

    @staticmethod
    def make_batch(seed, index):
        rng = np.random.default_rng([seed, 2, index])
        batch = []
        for idx, (kind, a, n, r) in enumerate(_moments_schedule()):
            if kind == "measure":
                lo, hi = SUPPORTS[a]
                atoms = [(float(x), rand_psd(rng, n))
                         for x in spaced_points(rng, r, lo, hi, ATOM_SEP)]
                item = {"key": f"{a}:n{n}:r{r}", "cls": a, "audit": idx % AUDIT_EVERY == 0}
            elif kind == "displaced":
                atoms = [(float(x), rand_psd(rng, n, 0.5, 3.0))
                         for x in spaced_points(rng, r, 0.0, 1.0, ATOM_SEP)]
                atoms.append((a, rand_psd(rng, n, 0.5, 3.0)))
                item = {"key": f"displaced{a:+.1f}:n{n}", "bad": a}
            else:
                atoms = [(0.0, rand_psd(rng, n))]
                if a:
                    # strictly beyond the truncation point N, as a module-positive
                    # functional of the family needs
                    atoms.append((float(rng.uniform(n + 0.25, n + 2.0)), rand_psd(rng, n)))
                item = {"key": f"chain:N{n}", "dim": n, "audit_seed": int(rng.integers(1 << 30))}
            item.update(kind=kind, n=n, atoms=atoms)
            batch.append(item)
        return batch

    def run_item(self, state, item):
        mm = state["mm"]
        start = time.perf_counter()
        try:
            measure = mm.AtomicMatrixMeasure(item["n"], item["atoms"])
            if item["kind"] == "chain":
                fam = mm.build_family(item["dim"])
                rep = mm.cauchy_schwarz_chain(measure, fam, trials=40,
                                              seed=item["audit_seed"])
                latency = time.perf_counter() - start
                return self._judge_chain(latency, rep, item)
            degree = 2 * len(item["atoms"]) + 2
            seq = mm.forward_moments(measure, degree)
            if item["kind"] == "displaced":
                got = {"hamburger": mm.check_hamburger(seq).passed,
                       "stieltjes": mm.check_stieltjes(seq).passed,
                       "hausdorff": mm.check_hausdorff(seq).passed}
                latency = time.perf_counter() - start
                want = {"hamburger": True, "stieltjes": item["bad"] > 0, "hausdorff": False}
                return self._judge_moments(latency, seq, item, got, want)
            got = {"hamburger": mm.check_hamburger(seq).passed}
            if item["cls"] == "unit":
                got["stieltjes"] = mm.check_stieltjes(seq).passed
                got["hausdorff"] = mm.check_hausdorff(seq).passed
            result = mm.recover(seq)
            audit = None
            if item["audit"]:
                audit = mm.positivity_audit(measure, AUDIT_GENERATORS[item["cls"]], 40,
                                            seed=len(item["atoms"]))
            latency = time.perf_counter() - start
        except Exception as exc:   # every library failure is classified, none dropped
            return _failed(time.perf_counter() - start, exc, item["key"])
        outcome = self._judge_moments(latency, seq, item, got, {k: True for k in got})
        if outcome.failure is not None:
            return outcome
        if audit is not None and not audit.passed:
            return Outcome(latency, "oracle_rejected", detail="positivity audit failed")
        if result.rank_gap_ambiguous:
            return Outcome(latency, "rank_gap_ambiguous", detail=item["key"])
        got_atoms = [(x, np.array(w)) for x, w in result.measure.atoms]
        err = oracles.atom_error(item["atoms"], got_atoms)
        if err > oracles.ATOM_TOL:
            return Outcome(latency, "oracle_rejected", err, f"recovered atoms {item['key']}")
        res = oracles.moment_residual(seq.S, got_atoms)
        return Outcome(latency, None, max(res, outcome.residual),
                       sample=("recovery", (item["atoms"], got_atoms)))

    @staticmethod
    def _judge_moments(latency, seq, item, got, want):
        res = oracles.moment_residual(seq.S, item["atoms"])
        if res > oracles.VALUE_TOL:
            return Outcome(latency, "oracle_rejected", res, f"forward moments {item['key']}")
        wrong = sorted(k for k in want if got[k] != want[k])
        if wrong:
            return Outcome(latency, "oracle_rejected", detail=f"check verdicts {wrong} {item['key']}")
        return Outcome(latency, None, res)

    @staticmethod
    def _judge_chain(latency, rep, item):
        if not (rep.all_hold and rep.final_bound_holds):
            return Outcome(latency, "oracle_rejected", detail=f"chain does not hold {item['key']}")
        doc = {"lhs": rep.lhs, "lhs_shifted": rep.lhs_shifted, "mid": rep.mid, "rhs": rep.rhs}
        err = oracles.chain_error(doc, item["atoms"], item["dim"])
        if err > oracles.VALUE_TOL:
            return Outcome(latency, "oracle_rejected", err, f"chain values {item['key']}")
        return Outcome(latency, None, err)


# ---------------------------------------------------------------- cli

SHIFTGAP_TRIALS = 500


def _matrix(m):
    return [[float(v) for v in row] for row in np.asarray(m)]


def _moments_doc(n, atoms, degree):
    return {"n": n, "moments": [_matrix(m) for m in oracles.moments_of(atoms, degree, n)]}


def _measure_doc(n, atoms):
    return {"n": n, "atoms": [{"x": float(x), "W": _matrix(w)} for x, w in atoms]}


class Cli:
    """A fixed script of ``momentctl`` processes on small seed-drawn inputs."""

    name = "cli"
    pass_s = 8.0
    fresh_inputs = False

    def setup(self, mm, seed):
        rng = np.random.default_rng([seed, 3])
        tmp = HERE.parent / ".perfbench_tmp" / f"cli-{seed}-{os.getpid()}"
        tmp.mkdir(parents=True, exist_ok=True)
        files, truth = {}, {}

        def put(name, doc):
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(doc))
            files[name] = str(path)

        n = 2
        line_atoms = [(float(x), rand_psd(rng, n)) for x in spaced_points(rng, 3, -2.0, 2.0, 0.1)]
        unit_atoms = [(float(x), rand_psd(rng, n)) for x in spaced_points(rng, 3, 0.0, 1.0, 0.1)]
        disp_atoms = [(float(x), rand_psd(rng, n)) for x in spaced_points(rng, 2, 0.0, 1.0, 0.1)]
        disp_atoms.append((-0.5, rand_psd(rng, n)))
        put("mom_line", _moments_doc(n, line_atoms, 8))
        put("mom_unit", _moments_doc(n, unit_atoms, 8))
        put("mom_disp", _moments_doc(n, disp_atoms, 6))
        truth["unit_atoms"] = unit_atoms

        band = 3
        b = rng.standard_normal((band + 1, n, n)) + 1j * rng.standard_normal((band + 1, n, n))
        lau = np.zeros((2 * band + 1, n, n), dtype=complex)
        for k in range(band + 1):
            ck = sum(b[j + k] @ b[j].conj().T for j in range(band + 1 - k))
            lau[band + k], lau[band - k] = ck, ck.conj().T
        put("laurent", {"n": n, "band": band, "coeffs_re": [_matrix(c) for c in lau.real],
                        "coeffs_im": [_matrix(c) for c in lau.imag]})
        truth["laurent"] = lau

        f = psd_poly(rng, "halfline", n, 4)
        put("poly", {"n": n, "symmetric": True, "coeffs": [_matrix(c) for c in f]})
        truth["poly"] = f
        put("measure", _measure_doc(n, line_atoms))
        kraus_atoms = [(float(x), [rng.standard_normal((n, 3)) for _ in range(2)])
                       for x in spaced_points(rng, 2, -1.0, 1.0, 0.1)]
        put("map_measure", {"h_dim": n, "k_dim": 3, "atoms": [
            {"x": x, "kraus": [_matrix(k) for k in ks]} for x, ks in kraus_atoms]})

        functionals = {}
        # the three dim-6 calls cost the same, so p90 falls inside their cluster
        for name, dim, outer in (("fam4", 4, False), ("fam6", 6, True), ("fam6b", 6, True),
                                 ("fam6c", 6, True)):
            atoms = [(0.0, rand_psd(rng, dim))]
            if outer:
                atoms.append((float(rng.uniform(dim + 0.25, dim + 2.0)), rand_psd(rng, dim)))
            put(name, _measure_doc(dim, atoms))
            functionals[name] = (dim, atoms, None if outer else True)
        gap_seed = str(seed % 100000)

        def check(variant, name, want):
            return (f"check.{variant}", ["check", "--variant", variant, "--moments", files[name]],
                    1 - want, lambda d: (d["report"]["pass"] is want, None), None)

        def shiftgap(name, seed_text):
            dim, atoms, collapse = functionals[name]
            args = ["shiftgap", "--dim", str(dim), "--trials", str(SHIFTGAP_TRIALS),
                    "--seed", seed_text, "--functional", files[name]]

            def judge(d):
                probe, chain = d["probe"], d["chain"]
                ok = (probe["all_psd"] and probe["negative_candidate_excluded"]
                      and chain["all_hold"] and chain["final_bound_holds"]
                      and d["support_collapse"] is collapse)
                return ok, oracles.chain_error(chain, atoms, dim)
            return (f"shiftgap.{name}", args, 0, judge, None)

        def factor_ok(d):
            fac = d["factor"]
            coeffs = np.array(fac["coeffs_re"]) + 1j * np.array(fac["coeffs_im"])
            res = oracles.laurent_residual(truth["laurent"], coeffs)
            return res <= oracles.FACTOR_TOL, res

        def certify_ok(d):
            cert = d["certificate"]
            sigma = {k: [np.array(p["coeffs"], dtype=float) for p in v]
                     for k, v in cert["sigma"].items()}
            return oracles.judge_certificate("halfline", truth["poly"], cert["variant"], sigma)

        def recover_ok(d):
            got = [(a["x"], np.array(a["W"])) for a in d["measure"]["atoms"]]
            ok = oracles.atom_error(truth["unit_atoms"], got) <= oracles.ATOM_TOL
            return (ok and not d["rank_gap_ambiguous"],
                    oracles.moment_residual(oracles.moments_of(unit_atoms, 8, n), got))

        def trace_ok(d):
            want = oracles.trace_integral(f, line_atoms)
            err = abs(d["value"] - want) / max(1.0, abs(want))
            return d["kind"] == "trace" and err <= oracles.VALUE_TOL, err

        def map_ok(d):
            want = oracles.map_integral(f, kraus_atoms)
            err = float(np.max(np.abs(np.array(d["value"]) - want))) / max(
                1.0, float(np.max(np.abs(want))))
            return d["kind"] == "map" and err <= oracles.VALUE_TOL, err

        script = [
            check("hamburger", "mom_line", True),
            check("stieltjes", "mom_disp", False),
            check("hausdorff", "mom_unit", True),
            ("factor", ["factor", "--laurent", files["laurent"]], 0, factor_ok, None),
            ("certify", ["certify", "--poly", files["poly"], "--domain", "halfline"], 0,
             certify_ok, None),
            ("verify", ["verify", "--poly", files["poly"], "--cert", "-"], 0,
             lambda d: (d["pass"] is True and d["residual"] <= oracles.CERT_TOL, None), "certify"),
            ("recover", ["recover", "--moments", files["mom_unit"]], 0, recover_ok, None),
            ("integrate.trace", ["integrate", "--poly", files["poly"], "--measure",
                                 files["measure"]], 0, trace_ok, None),
            ("integrate.map", ["integrate", "--poly", files["poly"], "--measure",
                               files["map_measure"]], 0, map_ok, None),
            shiftgap("fam4", gap_seed),
            shiftgap("fam6", gap_seed),
            shiftgap("fam6b", str(seed % 100000 + 1)),
            shiftgap("fam6c", str(seed % 100000 + 2)),
        ]
        batch = [{"key": name, "sub": args[0], "args": args, "expect": expect,
                  "judge": judge, "stdin_from": stdin_from}
                 for name, args, expect, judge, stdin_from in script]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(mm.__file__).resolve().parent.parent)
        return {"script": batch, "tmp": tmp, "env": env, "ref": {}, "last": {},
                "traced": False}

    @staticmethod
    def batch(state, index):
        """Every pass runs the same script, so repeats can be compared byte for byte."""
        return state["script"]

    def run_item(self, state, item):
        stdin = state["last"].get(item["stdin_from"], b"") if item["stdin_from"] else None
        if state["traced"]:
            span_file = state["tmp"] / "spans.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(span_file)]
        else:
            cmd = [sys.executable, "-c",
                   "import sys; from matmoments.cli import main; sys.exit(main())"]
            span_file = None
        start = time.perf_counter()
        proc = subprocess.run(cmd + item["args"], input=stdin, capture_output=True,
                              env=state["env"], cwd=state["tmp"], check=False)
        latency = time.perf_counter() - start
        out = Outcome(latency)
        if span_file is not None and span_file.exists():
            out.spans = json.loads(span_file.read_text())["spans"]
            span_file.unlink()
        state["last"][item["key"]] = proc.stdout
        ref = state["ref"].setdefault(item["key"], proc.stdout)

        def accepts(raw):
            doc = oracles.parse_report(raw)
            if doc is None or "error" in doc:
                return False, None
            return item["judge"](doc)

        if proc.returncode != item["expect"]:
            out.failure, out.detail = "oracle_rejected", (
                f"{item['key']}: exit {proc.returncode}, expected {item['expect']}: "
                f"{proc.stdout[-200:]!r} {proc.stderr[-200:]!r}")
            return out
        if proc.stdout != ref:
            out.failure, out.detail = "oracle_rejected", f"{item['key']}: stdout changed on repeat"
            return out
        ok, res = accepts(proc.stdout)
        out.residual = res
        if not ok:
            out.failure, out.detail = "oracle_rejected", f"{item['key']}: report rejected"
            return out
        out.sample = ("cli", (proc.stdout, lambda raw: raw == ref and accepts(raw)[0]))
        return out

    def set_traced(self, state, tracer, on):
        state["traced"] = on

    def cleanup(self, state):
        shutil.rmtree(state["tmp"], ignore_errors=True)
        parent = state["tmp"].parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


WORKLOADS = {w.name: w for w in (Certify(), Moments(), Cli())}
