"""In-memory span recorder for the public functions of ``matmoments``.

``Tracer.install`` replaces each traced function in every ``matmoments``
module namespace that holds it (``matmul`` as imported by ``certificates``,
``shiftgap`` and ``measures``; ``fejer_riesz`` as seen through
``certificates.spectral``) with one wrapper per function.  A wrapper
records a span ``(name, start, end, parent, item, ok, note)`` and passes
arguments, results and exceptions through unchanged.  Nothing is written
until the caller asks for the spans.
"""

import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs that get spans; the layer is the module name.
TRACED = (
    ("polymat", "matmul"),
    ("polymat", "scalar_poly_mult"),
    ("moments", "check_hamburger"),
    ("moments", "check_stieltjes"),
    ("moments", "check_hausdorff"),
    ("spectral", "fejer_riesz"),
    ("certificates", "decompose_line"),
    ("certificates", "decompose_halfline"),
    ("certificates", "decompose_interval"),
    ("certificates", "verify_certificate"),
    ("measures", "forward_moments"),
    ("measures", "positivity_audit"),
    ("measures", "integrate_trace"),
    ("measures", "integrate_map"),
    ("recovery", "recover"),
    ("shiftgap", "leading_coeff_probe"),
    ("shiftgap", "cauchy_schwarz_chain"),
    ("shiftgap", "support_collapse_check"),
    ("cli", "run"),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)


def _note_fejer_riesz(args, kwargs, result, exc):
    factor = result if exc is None else getattr(exc, "best", None)
    if factor is None:
        return None
    return {"eps": float(factor.epsilon_used), "order": int(factor.toeplitz_order)}


def _note_recover(args, kwargs, result, exc):
    return None if exc is not None else {"ambiguous": bool(result.rank_gap_ambiguous)}


def _note_probe(args, kwargs, result, exc):
    trials = args[1] if len(args) > 1 else kwargs.get("trials")
    return {"trials": int(trials)}


NOTES = {
    "spectral.fejer_riesz": _note_fejer_riesz,
    "recovery.recover": _note_recover,
    "shiftgap.leading_coeff_probe": _note_probe,
}


class Tracer:
    """Records one span per call of a traced function; spans stay in memory."""

    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []
        self._swaps = []        # (module, attribute, original, wrapper)

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            ok, extra, start = True, None, time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    extra = note(args, kwargs, result, None)
                return result
            except Exception as exc:
                ok = False
                if note is not None:
                    extra = note(args, kwargs, None, exc)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.item, ok, extra)

        return traced

    @property
    def patched(self):
        return [f"{mod.__name__}.{attr}" for mod, attr, _, _ in self._swaps]

    def install(self):
        """Wrap every traced function in every loaded matmoments namespace."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "matmoments" or name.startswith("matmoments.")}
        wrappers = {}
        for mod_name, fn_name in TRACED:
            if f"matmoments.{mod_name}" not in modules:     # cli is loaded only by momentctl
                continue
            original = getattr(modules[f"matmoments.{mod_name}"], fn_name)
            wrappers[id(original)] = (original, self._wrap(f"{mod_name}.{fn_name}", original))
        for name, mod in sorted(modules.items()):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._swaps.append((mod, attr) + hit)
        self.enable(True)

    def enable(self, on):
        """Put the wrappers in place (True) or the original functions back (False)."""
        for mod, attr, original, wrapper in self._swaps:
            setattr(mod, attr, wrapper if on else original)


def layer_of(name):
    return name.split(".", 1)[0]


def aggregate(spans, items, scales):
    """Per-function calls, busy and self time, failures and notes.

    Self time is a span's duration minus the time covered by its nearest
    descendants in another layer, so same-layer nesting (``decompose_interval``
    calling ``decompose_halfline``) stays in the outer span's self time.
    Only spans whose item id is in ``items`` are counted; each duration is
    multiplied by its item's factor in ``scales``.
    """
    foreign = [0.0] * len(spans)
    for sid in range(len(spans) - 1, -1, -1):
        name, start, end, parent, _, _, _ = spans[sid]
        if parent >= 0:
            if layer_of(spans[parent][0]) != layer_of(name):
                foreign[parent] += end - start
            else:
                foreign[parent] += foreign[sid]
    stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                 "failed": 0, "notes": []})
    for sid, (name, start, end, _, item, ok, extra) in enumerate(spans):
        if item not in items:
            continue
        entry = stats[name]
        entry["calls"] += 1
        entry["busy_s"] += scales[item] * (end - start)
        entry["self_s"] += scales[item] * (end - start - foreign[sid])
        entry["failed"] += 0 if ok else 1
        if extra is not None:
            entry["notes"].append(extra)
    return stats
