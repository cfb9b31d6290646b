"""Tracing for the benchmark's traced run, kept outside the hegcn package.

The package carries no instrumentation.  For one traced iteration (or one
traced set-up) the tracer replaces public functions with timing wrappers at
the place their callers look them up, and restores the originals after.
``engine`` imports ``merge_spatial`` and ``decompose`` by name, so those are
wrapped in ``engine``; ``packing.giant_step_coverage`` is looked up through
the module by both ``engine`` and ``costmodel``, so one wrapper sees both.

``SimContext`` operations run about 450k times per iteration on the CLI
workload, so they are not spans: their time, calls and computed bytes are
aggregated per (tag, layer label, op) and their time is charged to the
enclosing span as child time.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from hegcn import cli, costmodel, engine, hesim, model, packing, prune

#: Slot vectors each SimContext method reads or writes per computed call
#: (operands plus result); multiplied by slot count x 8 bytes.
OP_VECTORS = {"encrypt": 1, "add": 3, "pmult": 3, "cmult": 3, "rotate": 2, "mod_switch": 0}

#: (owner, attribute, span name).  The owner is where callers look the name up.
SPAN_TARGETS = [
    (engine, "run_model", "engine.run_model"),
    (engine, "ama_spatial", "engine.ama_spatial"),
    (engine, "rowmajor_spatial", "engine.rowmajor_spatial"),
    (engine, "temporal_conv", "engine.temporal_conv"),
    (engine, "poly_activation", "engine.poly_activation"),
    (engine, "global_avg_pool", "engine.global_avg_pool"),
    (engine, "fully_connected", "engine.fully_connected"),
    (engine, "plaintext_reference", "engine.plaintext_reference"),
    (engine, "merge_spatial", "adjacency.merge_spatial"),
    (engine, "decompose", "adjacency.decompose"),
    (packing, "ama_pack", "packing.pack"),
    (packing, "rowmajor_pack", "packing.pack"),
    (packing, "giant_step_coverage", "packing.giant_step_coverage"),
    (costmodel, "analytic_layer_counts", "costmodel.analytic_layer_counts"),
    (model.ModelSpec, "from_json_file", "model.from_json_file"),
    (model.ModelSpec, "to_json_file", "model.to_json_file"),
    (cli, "main", "cli.main"),
    (prune, "search", "prune.search"),
]


class Tracer:
    def __init__(self):
        self.spans: dict[tuple, list[dict]] = defaultdict(list)  # by tag
        self.ops: dict[tuple, list] = {}  # (tag, layer, op) -> [calls, computed, seconds, bytes]
        self._open: list[list] = []  # [name, start, child seconds]
        self._tag = None

    # ------------------------------------------------------------------
    # recording

    @contextmanager
    def span(self, name: str):
        frame = [name, perf_counter(), 0.0]
        self._open.append(frame)
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            duration = end - frame[1]
            parent = self._open[-1] if self._open else None
            if parent is not None:
                parent[2] += duration
            self.spans[self._tag].append(
                {
                    "name": name,
                    "parent": parent[0] if parent else None,
                    "start": frame[1],
                    "end": end,
                    "self_s": duration - frame[2],
                }
            )

    def _span_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _op_wrapper(self, fn, op):
        vectors = OP_VECTORS[op]

        @functools.wraps(fn)
        def wrapper(ctx, *args, **kwargs):
            t0 = perf_counter()
            out = fn(ctx, *args, **kwargs)
            dt = perf_counter() - t0
            key = (self._tag, ctx.current_layer, op)
            rec = self.ops.get(key)
            if rec is None:
                rec = self.ops[key] = [0, 0, 0.0, 0]
            rec[0] += 1
            # rotation by zero and mod_switch to the same level hand back the input
            if out is not args[0]:
                rec[1] += 1
                rec[3] += vectors * ctx.slot_count * 8
            rec[2] += dt
            if self._open:
                self._open[-1][2] += dt
            return out

        return wrapper

    @contextmanager
    def installed(self, tag):
        """Wrap the targets, and open the root span ``bench.<tag[0]>``."""
        saved = []
        try:
            for owner, attr, name in SPAN_TARGETS:
                orig = vars(owner)[attr]
                saved.append((owner, attr, orig))
                if isinstance(orig, classmethod):
                    setattr(owner, attr, classmethod(self._span_wrapper(orig.__func__, name)))
                else:
                    setattr(owner, attr, self._span_wrapper(orig, name))
            for op in OP_VECTORS:
                orig = vars(hesim.SimContext)[op]
                saved.append((hesim.SimContext, op, orig))
                setattr(hesim.SimContext, op, self._op_wrapper(orig, op))
            self._tag = tag
            with self.span(f"bench.{tag[0]}"):
                yield
        finally:
            self._tag = None
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # ------------------------------------------------------------------
    # per-tag summaries

    def duration(self, tag, name) -> float:
        return sum(s["end"] - s["start"] for s in self.spans[tag] if s["name"] == name)

    def calls(self, tag, name) -> int:
        return sum(1 for s in self.spans[tag] if s["name"] == name)

    def module_self(self, tag, module) -> float:
        return sum(s["self_s"] for s in self.spans[tag] if s["name"].split(".")[0] == module)

    def op_totals(self, tag) -> dict[str, list]:
        out = {op: [0, 0, 0.0, 0] for op in OP_VECTORS}
        for (t, _layer, op), rec in self.ops.items():
            if t == tag:
                out[op] = [a + b for a, b in zip(out[op], rec)]
        return out

    def self_sum_error(self, tag) -> float:
        """|sum of module self times + hesim time - root| / root."""
        root = self.duration(tag, f"bench.{tag[0]}")
        total = sum(s["self_s"] for s in self.spans[tag])
        total += sum(rec[2] for rec in self.op_totals(tag).values())
        return abs(total - root) / root

    def iteration_metrics(self, tag) -> dict[str, float]:
        ops = self.op_totals(tag)
        counted = {"rot": ops["rotate"][1], "pmult": ops["pmult"][1], "cmult": ops["cmult"][1], "add": ops["add"][1]}
        busy = sum(rec[2] for rec in ops.values())
        n_ops = sum(counted.values())
        return {
            **{f"hesim.{op}": n for op, n in counted.items()},
            "hesim.encrypt_calls": ops["encrypt"][0],
            "hesim.mod_switch_calls": ops["mod_switch"][0],
            "hesim.busy_s": busy,
            "hesim.us_per_op": busy / n_ops * 1e6 if n_ops else 0.0,
            "hesim.bytes_computed": sum(rec[3] for rec in ops.values()),
            **{
                f"engine.{fn}_s": self.duration(tag, f"engine.{fn}")
                for fn in (
                    "ama_spatial",
                    "rowmajor_spatial",
                    "temporal_conv",
                    "poly_activation",
                    "global_avg_pool",
                    "fully_connected",
                )
            },
            "engine.self_s": self.module_self(tag, "engine"),
            "packing.pack_s": self.duration(tag, "packing.pack"),
            "packing.giant_step_coverage_s": self.duration(tag, "packing.giant_step_coverage"),
            "packing.giant_step_coverage_calls": self.calls(tag, "packing.giant_step_coverage"),
            "adjacency.merge_spatial_s": self.duration(tag, "adjacency.merge_spatial"),
            "adjacency.decompose_s": self.duration(tag, "adjacency.decompose"),
            "costmodel.analytic_layer_counts_s": self.duration(tag, "costmodel.analytic_layer_counts"),
            "costmodel.analytic_layer_counts_calls": self.calls(tag, "costmodel.analytic_layer_counts"),
            "model.from_json_file_s": self.duration(tag, "model.from_json_file"),
            "cli.main_s": self.duration(tag, "cli.main"),
            "cli.self_s": self.module_self(tag, "cli"),
            "prune.search_s": self.duration(tag, "prune.search"),
        }

    def setup_metrics(self, tag) -> dict[str, float]:
        return {
            "engine.plaintext_reference_s": self.duration(tag, "engine.plaintext_reference"),
            "model.to_json_file_s": self.duration(tag, "model.to_json_file"),
        }

    def write(self, path) -> None:
        doc = {
            "spans": [{"tag": tag, **span} for tag, spans in self.spans.items() for span in spans],
            "ops": [
                {"tag": tag, "layer": layer, "op": op, "calls": r[0], "computed": r[1], "seconds": r[2], "bytes": r[3]}
                for (tag, layer, op), r in self.ops.items()
            ],
        }
        with open(path, "w") as fp:
            json.dump(doc, fp)


def median_of(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
