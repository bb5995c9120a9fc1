"""matmoments benchmark: one closed-loop client drives the library or momentctl.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify|moments|cli --seed N \
        --seconds S --trace 0|1

The seed draws every input; the library receives only the generated inputs.
Items run one after another (a closed loop with one client), over a fixed
number of passes of the workload's batch, sized so that the run takes about
S seconds on the reference host; the count never depends on the clock, so a
seed always attempts the same items.  Each item's output is judged by the
independent oracles in ``oracles.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes that record spans around the public functions
of every ``matmoments`` module, and prints the per-layer metrics,
normalised per complete pass of the batch, with the tracing overhead
between the two kinds of pass.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.

Times in the metrics are at reference speed (see ``speed.py``): the host's
drifting speed is divided out with a library-independent kernel timed
throughout the same phase.  The raw values and the reference time are
printed too.
"""

import os

BLAS_THREADS = 1    # pinned before numpy loads; single-threaded BLAS is the steadier baseline
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import itertools
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
DIGITS_CAP = 12      # relative residuals below 1e-12 are float64 rounding, not accuracy
FAILURE_TYPES = ("SosConsistencyError", "NoConvergence", "HankelNotPsd",
                 "rank_gap_ambiguous", "oracle_rejected")
CLI_SUBCOMMANDS = ("check", "factor", "certify", "verify", "recover", "integrate", "shiftgap")

END_TO_END = {
    "setup_s": "s", "batch_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms",
    "solved_frac": "ratio", "residual_digits": "digits", "peak_rss_mb": "MB",
}


def per_layer_units():
    """Name -> unit of every per-layer metric, in output order."""
    from tracer import SPAN_NAMES
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s",
                      f"{name}.self_s": "s", f"{name}.failed": "count"})
    units.update({
        "spectral.fejer_riesz.eps_fallback_frac": "ratio",
        "spectral.fejer_riesz.toeplitz_order_mean": "count",
        "recovery.recover.ambiguous_frac": "ratio",
        "shiftgap.leading_coeff_probe.trials_per_s": "1/s",
        "import.matmoments_s": "s",
        "machine.ref_ms": "ms",
    })
    units.update({f"cli.{sub}.p50_ms": "ms" for sub in CLI_SUBCOMMANDS})
    units["failed_frac"] = "ratio"
    units.update({f"failures.{kind}": "count" for kind in FAILURE_TYPES + ("other_error",)})
    units.update({"trace.untraced_batch_s": "s", "trace.traced_batch_s": "s",
                  "trace.overhead_frac": "ratio",
                  "roadmap.decompose_line_n6_d16_s": "s", "roadmap.momentctl_call_s": "s",
                  "roadmap.probe_s_per_1000_trials": "s",
                  "sample.items": "count", "sample.beyond_p90": "count"})
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["certify", "moments", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    """Import matmoments from this checkout's src/; returns (module, seconds)."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import matmoments
    elapsed = time.perf_counter() - start
    if Path(matmoments.__file__).resolve().parent != SRC / "matmoments":
        raise SystemExit(f"perfbench: imported matmoments from {matmoments.__file__}, "
                         f"not from {SRC}")
    return matmoments, elapsed


def setup_probes(args, speed):
    """Median over fresh interpreters of spawn-to-inputs-ready time and of import time.

    Both are at reference speed, each probe scaled by the reference samples
    taken just before and after it.
    """
    walls = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    speed.tick(force=True)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or not line.startswith(b"READY "):
            raise SystemExit(f"perfbench: setup probe failed with exit code {code}")
        speed.tick(force=True)
        walls.append((start, ready, json.loads(line[6:])["import_s"]))
    scaled = [(speed.scale(s, r) * (r - s), speed.scale(s, r) * imp) for s, r, imp in walls]
    return (statistics.median(w for w, _ in scaled), statistics.median(i for _, i in scaled),
            statistics.median(r - s for s, r, _ in walls))


@dataclass
class Phase:
    """Items of one timed phase; ``passes`` lists record index ranges of complete passes."""

    records: list
    passes: list
    speed: object

    def latencies(self, scaled=True, pred=None):
        return [out.scaled if scaled else out.latency
                for item, out in self.records if pred is None or pred(item)]

    def pass_times(self, scaled=True):
        lat = self.latencies(scaled)
        return [sum(lat[a:b]) for a, b in self.passes]

    def batch_time(self, scaled=True):
        """Time of one pass of the batch: each slot's median latency over the phase, summed."""
        by_slot = {}
        for _, out in self.records:
            by_slot.setdefault(out.slot, []).append(out.scaled if scaled else out.latency)
        return sum(statistics.median(v) for v in by_slot.values())

    def complete_items(self):
        return {self.records[i][1].item_id for a, b in self.passes for i in range(a, b)}

    def item_scales(self):
        return {out.item_id: out.scaled / out.latency if out.latency > 0 else 1.0
                for _, out in self.records}


def pass_count(workload, seconds, traced):
    """Passes of the batch in one run: a fixed number, sized so the run measures ``seconds``.

    The count depends only on the workload and ``seconds``, never on the
    clock, so the same seed always attempts the same items.  A traced run
    splits it into equal untraced and traced halves.
    """
    passes = max(1, round(seconds / workload.pass_s))
    return 2 * max(1, round(passes / 2)) if traced else passes


def timed_phases(workload, state, passes, ids, speed, tracer=None):
    """Run ``passes`` passes of the batch; returns (untraced, traced) phases.

    With a tracer, passes alternate untraced and traced over the same batch,
    so both phases see the same host conditions and their difference is the
    tracing overhead.  The reference kernel runs between items, never inside
    an item's timing.
    """
    phases = (Phase([], [], speed), Phase([], [], speed))
    for pass_index in range(passes):
        traced = tracer is not None and pass_index % 2 == 1
        if tracer is not None:
            workload.set_traced(state, tracer, traced)
        phase = phases[traced]
        batch = workload.batch(state, pass_index // (1 + (tracer is not None)))
        first = len(phase.records)
        for slot, item in enumerate(batch):
            speed.tick()
            iid = next(ids)
            if tracer is not None:
                tracer.item = iid
            start = time.perf_counter()
            out = workload.run_item(state, item)
            out.item_id, out.slot, out.window = iid, slot, (start, time.perf_counter())
            speed.tick()        # items longer than the sampling interval get a sample each side
            if out.spans:
                offset = len(tracer.spans)
                tracer.spans.extend((s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1,
                                     iid, s[5], s[6]) for s in out.spans)
                out.spans = []
            phase.records.append((item, out))
        phase.passes.append((first, len(phase.records)))
    if tracer is not None:
        workload.set_traced(state, tracer, False)
    speed.tick(force=True)
    for phase in phases:
        for _, out in phase.records:
            out.scaled = out.latency * speed.scale(*out.window)
    return phases


def percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond_p90(values):
    p90 = percentile(values, 90)
    return sum(1 for v in values if v > p90)


def failure_counts(records):
    exact = Counter(out.failure for _, out in records if out.failure is not None)
    grouped = {kind: exact.get(kind, 0) for kind in FAILURE_TYPES}
    grouped["other_error"] = sum(v for k, v in exact.items() if k not in FAILURE_TYPES)
    return exact, grouped


def end_to_end(workload, phase, setup_s):
    lat = phase.latencies()
    accepted = [out for _, out in phase.records if out.failure is None]
    residuals = [out.residual for out in accepted if out.residual is not None]
    worst = max(residuals) if residuals else 1.0
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": setup_s,
        "batch_s": phase.batch_time(),
        "item_p50_ms": 1e3 * percentile(lat, 50),
        "item_p90_ms": 1e3 * percentile(lat, 90),
        "solved_frac": len(accepted) / len(phase.records),
        "residual_digits": -math.log10(min(max(worst, 10.0 ** -DIGITS_CAP), 1.0)),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def per_layer(tracer, phase_a, phase_b, import_s):
    """Per-layer metrics: spans of phase B per complete pass, timings at reference speed."""
    from tracer import SPAN_NAMES, aggregate
    stats = aggregate(tracer.spans, phase_b.complete_items(), phase_b.item_scales())
    n_pass = len(phase_b.passes)
    out = {}
    for name in SPAN_NAMES:
        entry = stats.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0})
        for key in ("calls", "busy_s", "self_s", "failed"):
            out[f"{name}.{key}"] = entry[key] / n_pass
    fr = stats.get("spectral.fejer_riesz", {}).get("notes", [])
    out["spectral.fejer_riesz.eps_fallback_frac"] = (
        sum(1 for v in fr if v["eps"] > 0) / len(fr) if fr else 0.0)
    out["spectral.fejer_riesz.toeplitz_order_mean"] = (
        statistics.fmean(v["order"] for v in fr) if fr else 0.0)
    rec = stats.get("recovery.recover", {}).get("notes", [])
    out["recovery.recover.ambiguous_frac"] = (
        sum(1 for v in rec if v["ambiguous"]) / len(rec) if rec else 0.0)
    probe = stats.get("shiftgap.leading_coeff_probe", {"busy_s": 0.0, "notes": []})
    trials = sum(v["trials"] for v in probe["notes"])
    out["shiftgap.leading_coeff_probe.trials_per_s"] = (
        trials / probe["busy_s"] if probe["busy_s"] > 0 else 0.0)
    out["import.matmoments_s"] = import_s
    out["machine.ref_ms"] = 1e3 * phase_a.speed.ref_s
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.p50_ms"] = 1e3 * median_or_zero(
            phase_a.latencies(pred=lambda item, sub=sub: item.get("sub") == sub))
    records = phase_a.records + phase_b.records
    exact, grouped = failure_counts(records)
    out["failed_frac"] = sum(exact.values()) / len(records)
    out.update({f"failures.{kind}": count for kind, count in grouped.items()})
    untraced, traced = phase_a.batch_time(), phase_b.batch_time()
    out["trace.untraced_batch_s"] = untraced
    out["trace.traced_batch_s"] = traced
    out["trace.overhead_frac"] = traced / untraced - 1.0
    out["roadmap.decompose_line_n6_d16_s"] = median_or_zero(
        phase_a.latencies(pred=lambda item: item.get("key") == "line:n6:d16"))
    out["roadmap.momentctl_call_s"] = median_or_zero(
        phase_a.latencies(pred=lambda item: "sub" in item))
    out["roadmap.probe_s_per_1000_trials"] = 1e3 * probe["busy_s"] / trials if trials else 0.0
    out["sample.items"] = len(phase_a.records)
    out["sample.beyond_p90"] = beyond_p90(phase_a.latencies())
    return out


def machine_record(mm, args, workload, state):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy = sys.modules.get("scipy")
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__ if scipy else None,
        "matmoments": mm.__version__, "seed": args.seed, "workload": workload.name,
        "batch_items": len(workload.batch(state, 0)),
        "passes": pass_count(workload, args.seconds, bool(args.trace)),
        "fresh_inputs_per_pass": workload.fresh_inputs,
        "client": "closed loop, 1 client, 1 process",
    }


def write_spans(tracer, args):
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    fields = ["name", "start", "end", "parent", "item", "ok", "note"]
    path.write_text(json.dumps({"fields": fields, "patched": tracer.patched,
                                "spans": tracer.spans}))
    return path


def report(args, mm, workload, state, metrics, units, phase, all_records, checks,
           setup_raw, setup_speed, tracer):
    """Human-readable lines; the caller prints the JSON result after them."""
    exact, _ = failure_counts(all_records)
    raw = phase.latencies(scaled=False)
    print("machine " + json.dumps(machine_record(mm, args, workload, state), sort_keys=True))
    print(f"untraced sample: {len(raw)} items over {len(phase.passes)} complete passes of "
          f"{len(workload.batch(state, 0))} items; {beyond_p90(raw)} lie beyond p90")
    print(f"speed: reference {phase.speed.kernel.__name__} median "
          f"{1e3 * phase.speed.ref_s:.4f} ms in the timed phase (nominal "
          f"{1e3 * phase.speed.nominal_s:g} ms), {setup_speed.kernel.__name__} "
          f"{1e3 * setup_speed.ref_s:.4f} ms around set-up (nominal "
          f"{1e3 * setup_speed.nominal_s:g} ms); raw setup_s {setup_raw:.4f} s, raw batch_s "
          f"{phase.batch_time(scaled=False):.4f} s (median complete pass "
          f"{statistics.median(phase.pass_times(scaled=False)):.4f} s), raw item p50 "
          f"{1e3 * percentile(raw, 50):.3f} ms, raw item p90 {1e3 * percentile(raw, 90):.3f} ms")
    print("failures by type: " + (json.dumps(dict(sorted(exact.items()))) if exact else "none")
          + f" of {len(all_records)} attempted")
    details = Counter(out.detail for _, out in all_records if out.failure is not None)
    for detail, count in details.most_common(8):
        print(f"  {count} x {detail}")
    print("oracle self-check: " + json.dumps(checks, sort_keys=True))
    if tracer is not None:
        print(f"spans: {len(tracer.spans)} recorded, written to {write_spans(tracer, args)}")
        print("roadmap cross-check at reference speed (report only; 0 = not exercised "
              f"by this workload): decompose_line n=6 deg 16 "
              f"{metrics['roadmap.decompose_line_n6_d16_s']:.3f} s (ROADMAP ~0.63 s); "
              f"momentctl call {metrics['roadmap.momentctl_call_s']:.3f} s (~0.5 s); "
              f"import matmoments {metrics['import.matmoments_s']:.3f} s (~0.46 s); "
              f"probe {metrics['roadmap.probe_s_per_1000_trials']:.3f} s per 1000 trials "
              f"(~0.4 s)")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.seconds <= 0 and not args.setup_probe:
        raise SystemExit("perfbench: --seconds must be positive")
    if not (SRC / "matmoments" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no matmoments sources under {SRC}")
    if args.setup_probe:
        mm, import_s = import_library()    # first, so numpy's import is counted too
        sys.path.insert(0, str(HERE))
        from workloads import WORKLOADS
        state = WORKLOADS[args.workload].setup(mm, args.seed)
        sys.stdout.write("READY " + json.dumps({"import_s": import_s}) + "\n")
        sys.stdout.flush()
        WORKLOADS[args.workload].cleanup(state)
        return 0

    sys.path.insert(0, str(HERE))
    from speed import Speed
    setup_speed = Speed.spawning()
    setup_s, import_s, setup_raw = setup_probes(args, setup_speed)
    mm, _ = import_library()
    import numpy as np
    from oracles import self_check
    from tracer import Tracer
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    state = workload.setup(mm, args.seed)
    try:
        speed = Speed.spawning() if workload.name == "cli" else Speed()
        tracer = Tracer() if args.trace else None
        passes = pass_count(workload, args.seconds, tracer is not None)
        phase, phase_b = timed_phases(workload, state, passes, itertools.count(), speed, tracer)
        all_records = phase.records + phase_b.records
        if tracer is None:
            metrics, units = end_to_end(workload, phase, setup_s), END_TO_END
        else:
            metrics, units = per_layer(tracer, phase, phase_b, import_s), per_layer_units()
        samples = {}
        for _, out in all_records:
            if out.failure is None and out.sample is not None:
                samples.setdefault(out.sample[0], out.sample[1])
        checks = self_check(samples, np.random.default_rng(args.seed))
        report(args, mm, workload, state, metrics, units, phase, all_records, checks,
               setup_raw, setup_speed, tracer)
        exact, _ = failure_counts(all_records)
        print(json.dumps({
            # wrong answers the library did not flag make the run incorrect, and
            # so does an oracle that let a deliberately broken output through
            "correct": all(checks.values()) and exact.get("oracle_rejected", 0) == 0,
            "attempted": len(all_records),
            "failed": sum(exact.values()),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
    finally:
        workload.cleanup(state)
    return 0


if __name__ == "__main__":
    sys.exit(main())
