"""The three benchmark workloads (see DESIGN.md for why each exists).

Each workload has ``setup(seed, workdir)`` returning its state,
``iterate(state, i)`` returning the iteration's raw output (the timed part),
and ``check(state, output)`` returning a ``Verdict``.  Inputs come from the
seed; model weights stay at the builders' own seeds (7 and 11).
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from hegcn import cli, costmodel, engine, model, prune
from hegcn.model import ModelSpec
from hegcn.packing import AMA, ROWMAJOR, GraphTensor, PackingError

SCORE_TOL = 1e-9

#: Measured HOC totals (rot + pmult + cmult + add); the paper's result, which
#: no simulator change may move.
REF_AMA_8192_TOTAL = 651_532
ACCEPT_1024_TOTALS = {AMA: 110_306, ROWMAJOR: 340_944}

SWEEP_SLOTS = (4096, 8192, 16384, 32768)
SWEEP_BATCHES = (1, 2, 4, 8, 16)


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    work: float = 0.0  # counted HE ops, or analytic evaluations
    max_abs_diff: int = 0  # analytic vs measured counts


def _score_problems(got, want, label) -> list[str]:
    err = float(np.max(np.abs(np.asarray(got) - want)))
    if err <= SCORE_TOL:
        return []
    return [f"{label}: max |score - plaintext_reference| = {err:.3e} > {SCORE_TOL}"]


def _count_verdict(verdict, measured, spec, fmt, slot_count, expected_total) -> None:
    """Reconcile measured per-layer counts with the analytic mirror."""
    diff = costmodel.reconcile(measured, costmodel.analytic_layer_counts(spec, fmt, slot_count))
    total = costmodel.total_hoc(costmodel.totals_of(measured))
    verdict.max_abs_diff = max(verdict.max_abs_diff, diff["max_abs_diff"])
    verdict.work += total
    if diff["max_abs_diff"]:
        verdict.problems.append(f"{fmt}: reconcile max_abs_diff = {diff['max_abs_diff']}")
    if total != expected_total:
        verdict.problems.append(f"{fmt}: HOC total {total} != {expected_total}")


class RefAma:
    """engine.run_model on the reference model, AMA packing, slot 8192."""

    name = "ref-ama-8192"
    slot_count = 8192

    def setup(self, seed, workdir):
        spec = model.reference_stgcn3(c_in=4)
        x = GraphTensor.random(spec.input_dims, seed=seed)
        return SimpleNamespace(spec=spec, x=x, want=engine.plaintext_reference(spec, x))

    def iterate(self, state, i):
        return engine.run_model(state.spec, state.x, AMA, slot_count=self.slot_count)

    def check(self, state, result):
        verdict = Verdict(_score_problems(result.scores, state.want, "scores"))
        _count_verdict(verdict, result.per_layer(), state.spec, AMA, self.slot_count, REF_AMA_8192_TOTAL)
        return verdict

    def describe(self, state):
        return {"model": state.spec.name, "weight_seed": 7, "slot_counts": [self.slot_count], "formats": [AMA]}


class AcceptCli:
    """In-process ``hegcn infer --format both`` on the acceptance model."""

    name = "accept-cli-1024"
    slot_count = 1024

    def setup(self, seed, workdir):
        spec = model.acceptance_stgcn3()
        model_path, input_path = workdir / "model.json", workdir / "input.bin"
        spec.to_json_file(str(model_path))
        x = GraphTensor.random(spec.input_dims, seed=seed)
        x.save(str(input_path))
        return SimpleNamespace(
            spec=spec,
            model_path=model_path,
            input_path=input_path,
            workdir=workdir,
            want=engine.plaintext_reference(spec, x),
        )

    def iterate(self, state, i):
        out = state.workdir / f"out{i}"
        argv = [
            "infer", "--model", str(state.model_path), "--input", str(state.input_path),
            "--format", "both", "--slot-count", str(self.slot_count), "--out", str(out),
        ]  # fmt: skip
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        return rc, out

    def check(self, state, output):
        rc, out = output
        if rc != cli.EXIT_OK:
            return Verdict([f"hegcn infer exited with {rc}"])
        with open(out / "scores.json") as fp:
            scores = json.load(fp)
        measured = {AMA: {}, ROWMAJOR: {}}
        with open(out / "hoc.csv", newline="") as fp:
            for row in csv.DictReader(fp):
                measured[row["format"]].setdefault(row["layer"], {})[row["op"]] = int(row["count"])
        verdict = Verdict()
        for fmt in (AMA, ROWMAJOR):
            verdict.problems += _score_problems(scores[fmt], state.want, f"{fmt} scores.json")
            _count_verdict(verdict, measured[fmt], state.spec, fmt, self.slot_count, ACCEPT_1024_TOTALS[fmt])
        return verdict

    def describe(self, state):
        return {
            "model": state.spec.name,
            "weight_seed": 11,
            "slot_counts": [self.slot_count],
            "formats": [AMA, ROWMAJOR],
        }


class AnalyticSweep:
    """The cost-model path users of compare / hoc / params / prune take."""

    name = "analytic-sweep"

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        specs = [model.reference_stgcn3(c_in=4), model.acceptance_stgcn3()]
        tables = []
        for spec in specs:
            acts = spec.activation_indices()
            drop_one = {i: rng.uniform(0.5, 0.9) for i in acts}
            pruned_sets = {
                prune.variant_key(subset): rng.uniform(0.4, 0.9)
                for n in range(len(acts) + 1)
                for subset in itertools.combinations(acts, n)
            }
            tables.append(prune.TableEvaluator(drop_one, pruned_sets))
        return SimpleNamespace(specs=specs, tables=tables, first=None)

    def iterate(self, state, i):
        rows, evals = {}, 0
        for spec, table in zip(state.specs, state.tables):
            _, C, T, J = spec.input_dims

            def make_spec(b, spec=spec):
                return ModelSpec((b, C, T, J), spec.layers, name=spec.name)

            for slot in SWEEP_SLOTS:
                for fmt in (AMA, ROWMAJOR):
                    for b in SWEEP_BATCHES:
                        try:
                            rows[spec.name, fmt, slot, b] = costmodel.amortized_sweep(make_spec, fmt, slot, [b])[0]
                        except PackingError:
                            continue
                        evals += 1
                inp = cli._model_formula_input(spec, slot)
                for method in ("chet", "fast_hear"):
                    rows[spec.name, method, slot] = costmodel.framework_hoc(method, inp)
            rows[spec.name, "params"] = costmodel.select_params(costmodel.depth(spec)).to_dict()
            results, best = prune.search(spec, table, len(spec.activation_indices()))
            rows[spec.name, "prune"] = ([r.to_dict() for r in results], best.variant_id)
        # reference points: the acceptance run's slot count is below the grid
        accept = state.specs[1]
        for fmt in (AMA, ROWMAJOR):
            counts = costmodel.analytic_layer_counts(accept, fmt, AcceptCli.slot_count)
            rows[accept.name, fmt, AcceptCli.slot_count, 1] = {
                "total": costmodel.total_hoc(costmodel.totals_of(counts))
            }
            evals += 1
        return rows, evals

    def check(self, state, output):
        rows, evals = output
        ref, accept = (spec.name for spec in state.specs)
        points = [((ref, AMA, RefAma.slot_count, 1), REF_AMA_8192_TOTAL)]
        points += [((accept, fmt, AcceptCli.slot_count, 1), ACCEPT_1024_TOTALS[fmt]) for fmt in (AMA, ROWMAJOR)]
        verdict = Verdict(work=evals)
        for key, measured in points:
            diff = rows[key]["total"] - measured
            verdict.max_abs_diff = max(verdict.max_abs_diff, abs(diff))
            if diff:
                verdict.problems.append(f"{key}: analytic total {rows[key]['total']} != measured {measured}")
        if state.first is None:
            state.first = rows
        elif rows != state.first:
            verdict.problems.append("sweep output differs from the first pass")
        return verdict

    def describe(self, state):
        return {
            "models": [spec.name for spec in state.specs],
            "weight_seeds": [7, 11],
            "slot_counts": list(SWEEP_SLOTS) + [AcceptCli.slot_count],
            "batches": list(SWEEP_BATCHES),
        }


WORKLOADS = {wl.name: wl for wl in (RefAma(), AcceptCli(), AnalyticSweep())}
