"""Span tracing of kronnoma's layer boundaries, from outside the package.

Tracing rebinds module attributes: each function in LAYERS is replaced by a
wrapper in every kronnoma module that holds it, so names bound with
`from ... import` (cli's run_algorithm1, combiner's sum_rate_recursive,
simkit's build_chain) are traced too.  Spans are kept in memory and written
out when the traced process ends.  A span's self time is its duration minus
the time its child spans cover; calls run on one thread, so child spans
never overlap.  Worker processes of the search pool are not traced.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time

LAYERS = (
    ("simkit", "trial_rng"),
    ("simkit", "synthesize_rx"),
    ("simkit", "run_monte_carlo"),
    ("detector", "recursive_detect"),
    ("detector", "final_stage_map"),
    ("detector", "sic_enhanced_final"),
    ("detector", "coupled_sums"),
    ("detector", "brute_force_map_oracle"),
    ("combiner", "run_algorithm1"),
    ("combiner", "find_combiners"),
    ("rate", "sum_rate_recursive"),
    ("rate", "sum_rate_pdma"),
    ("pattern", "build_chain"),
    ("cli", "main"),
)
LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYERS)
PACKAGE = "kronnoma"


class Tracer:
    """Records one span per call of a traced function.

    A span is [name, parent span index or -1, start ns, end ns, raised]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, open_spans[-1] if open_spans else -1, clock(), 0, True]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_spans.pop()
                span[3] = clock()
            span[4] = False
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod, fn in LAYERS:
            if f"{PACKAGE}.{mod}" not in sys.modules:  # never imported, so never called
                continue
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], fn)
            wrapper = self._wrap(f"{mod}.{fn}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write("id,parent,name,start_ns,end_ns,raised\n")
            for i, (name, parent, start, end, raised) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start},{end},{int(raised)}\n")


def layer_summary(spans: list[list], scale: float = 1.0) -> dict:
    """Per layer: calls and self seconds (times `scale`, the round's factor
    to the reference speed of bench/speed.py); plus the candidates
    run_algorithm1 handed to find_combiners and how many of those solves
    succeeded."""
    covered = [0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = dict.fromkeys(LAYER_NAMES, 0)
    self_ns = dict.fromkeys(LAYER_NAMES, 0)
    candidates = feasible = 0
    for i, (name, parent, start, end, raised) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - covered[i]
        if name == "combiner.find_combiners" and parent >= 0 and spans[parent][0] == "combiner.run_algorithm1":
            candidates += 1
            feasible += not raised
    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9 * scale
    out["combiner.candidates"] = candidates
    out["combiner.feasible_designs"] = feasible
    return out
