"""Traced oplab child: ``python perfbench/launcher.py TRACE_OUT -- <oplab args>``.

Imports oplab, wraps the public functions named in LAYERS in every oplab
module that holds them (and in the CLI preset catalog), runs
``oplab.cli.run`` on the arguments and writes the spans and counters it
recorded to TRACE_OUT as JSON when the run ends.  Each task gets its own
child, so lazy caches start cold as they do for a command-line user.

Spans are (name, start, end, parent).  Functions called around a million
times per task (tree matching) are counted only, so tracing does not
swamp them; their time stays in the caller's self time.

The self-time arithmetic lives here too, so run.py and the
tests share it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

SPAN, COUNT, GENERATOR = "span", "count", "generator"

# (module, attribute, layer, mode).  Several attributes may share a layer.
LAYERS = [
    ("oplab.cli", "run", "cli", SPAN),
    ("oplab.trees", "parse_monomial", "trees.parse_monomial", SPAN),
    ("oplab.trees", "divides", "trees.divides", COUNT),
    ("oplab.trees", "compose", "trees.compose", COUNT),
    ("oplab.trees", "matches_at_root", "trees.matches_at_root", COUNT),
    ("oplab.order", "TreeOrder.key", "order.key", SPAN),
    ("oplab.monomial", "MonomialOperadPresentation.__init__", "monomial.presentation", SPAN),
    ("oplab.monomial", "parse_presentation", "monomial.parse_presentation", SPAN),
    ("oplab.monomial", "dim_by_arity", None, SPAN),  # named by its engine argument
    ("oplab.monomial", "dim_by_weight", None, SPAN),
    ("oplab.monomial", "gap_dichotomy_check", "monomial.gapcheck", SPAN),
    ("oplab.monomial", "enumerate_irr", "monomial.enumerate_irr", GENERATOR),
    ("oplab.linalg", "rank_mod", "linalg.rank_mod", SPAN),
    ("oplab.linalg", "kernel_is_trivial", "linalg.kernel_is_trivial", SPAN),
    ("oplab.linalg", "nullspace", "linalg.nullspace", SPAN),
    ("oplab.linalg", "solve", "linalg.solve", SPAN),
    ("oplab.linalg", "scale_rows_to_int", "linalg.scale_rows_to_int", SPAN),
    ("oplab.series", "guess_holonomic", "series.guess_holonomic", SPAN),
    ("oplab.series", "fit_rational", "series.fit_rational", SPAN),
    ("oplab.series", "gk_estimate", "series.gk_estimate", SPAN),
    ("oplab.algebra", "partition_dims", "algebra.presets", SPAN),
    ("oplab.algebra", "floor_power_dims", "algebra.presets", SPAN),
    ("oplab.algebra", "warfield_dims", "algebra.presets", SPAN),
    ("oplab.algebra", "example62_dims", "algebra.presets", SPAN),
    ("oplab.algebra", "polynomial_ring_dims", "algebra.presets", SPAN),
    ("oplab.algebra", "free_algebra_dims", "algebra.presets", SPAN),
    ("oplab.algebra", "hilbert_dims", "algebra.hilbert_dims", SPAN),
    ("oplab.branch", "closed_set_counts", "branch.closed_set_counts", SPAN),
    ("oplab.constructions", "operadize", "constructions.operadize", SPAN),
    ("oplab.constructions", "min_envelope_dims", "constructions.envelope", SPAN),
    ("oplab.constructions", "symmetric_envelope_dims", "constructions.envelope", SPAN),
]


class Tracer:
    """Spans and counters of one task child, kept in memory until exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()


def _dims_layer(args, kwargs) -> str:
    engine = kwargs.get("engine", args[2] if len(args) > 2 else "dp")
    return "monomial.brute" if engine == "brute" else "monomial.dp"


def _after(tracer: Tracer, layer: str, args, result) -> None:
    """Exact work counts taken from arguments and results."""
    if layer == "monomial.brute":
        tracer.counts["monomial.normal_forms"] += sum(result.values)
    elif layer == "linalg.rank_mod":
        rows = args[0]
        tracer.counts["linalg.rank_mod.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _wrap(tracer: Tracer, fn, layer, mode):
    if mode == COUNT:
        counts = tracer.counts
        key = layer + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    if mode == GENERATOR:
        @functools.wraps(fn)
        def stepped(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer.open(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                tracer.counts[layer + ".yielded"] += 1
                yield item
        return stepped

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        name = layer or _dims_layer(args, kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        _after(tracer, name, args, result)
        return result
    return spanned


def install(tracer: Tracer) -> None:
    """Replace every LAYERS function wherever oplab holds a reference to it."""
    cli = importlib.import_module("oplab.cli")
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "oplab" or name.startswith("oplab.")]
    for modname, attr, layer, mode in LAYERS:
        owner = importlib.import_module(modname)
        if "." in attr:  # a method: patch the class attribute
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, _wrap(tracer, getattr(cls, meth), layer, mode))
            continue
        original = getattr(owner, attr)
        wrapped = _wrap(tracer, original, layer, mode)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, wrapped)
        for key, preset in list(cli.CATALOG.items()):
            if preset.build is original:
                cli.CATALOG[key] = dataclasses.replace(preset, build=wrapped)


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered(start, end, children.get(i, ()))
            for i, (name, start, end, parent) in enumerate(spans)]


def summarize(spans, counts) -> dict[str, float]:
    """Per-layer calls, self time and longest span of one task's trace, plus
    the in-process time covered by top-level spans."""
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        if parent < 0:
            out["inproc_s"] += end - start
        out[name + ".calls"] += 1
        out[name + ".self_s"] += own
        out[name + ".max_s"] = max(out[name + ".max_s"], end - start)
    for key, value in counts.items():
        out[key] += value
    return dict(out)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: launcher.py TRACE_OUT -- <oplab arguments>", file=sys.stderr)
        return 1
    trace_out, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    import oplab.cli

    try:
        return oplab.cli.run(cli_args)
    finally:
        sys.stdout.flush()
        with open(trace_out, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
