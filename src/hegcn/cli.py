"""Command line front end.

Subcommands:

* ``infer``   -- run encrypted inference, write scores.json / hoc.csv /
  levels.json (plus equivalence.json when both formats run).
* ``compare`` -- side-by-side analytic HOC: AMA vs row-major vs the
  CHET / Fast-HEAR analytic rows, with reduction percentages and a batch
  amortization sweep.
* ``params``  -- HE parameter selection for a level budget.
* ``prune``   -- activation-pruning search with a stub table or external
  evaluator.
* ``hoc``     -- per-layer analytic operation counts as CSV.

Exit codes: 0 success, 2 configuration error, 3 depth-budget violation,
4 no feasible HE parameters.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from hegcn import costmodel, engine, packing, prune
from hegcn.costmodel import HocFormulaInput, ParamSelectionError
from hegcn.engine import DepthBudgetError
from hegcn.hesim import OPS, SCALE_BITS
from hegcn.model import FullyConnected, ModelSpec, SpatialConv, TemporalConv
from hegcn.packing import AMA, ROWMAJOR, GraphTensor, PackingError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPTH = 3
EXIT_PARAMS = 4


class ConfigError(Exception):
    pass


def _load_model(path: str) -> ModelSpec:
    if not os.path.exists(path):
        raise ConfigError(f"model file not found: {path}")
    try:
        return ModelSpec.from_json_file(path)
    except Exception as exc:
        raise ConfigError(f"could not parse model {path}: {exc}") from exc


def _require_head(spec: ModelSpec) -> None:
    """Scores and class counts need a model that ends in its classifier."""
    if not spec.layers or not isinstance(spec.layers[-1], FullyConnected):
        raise ConfigError(f"model {spec.name!r} has no fully-connected head")


def _load_input(spec: ModelSpec, args) -> GraphTensor:
    if bool(args.input) == (args.seed is not None):
        raise ConfigError("need exactly one of --input or --seed")
    if args.input:
        if not os.path.exists(args.input):
            raise ConfigError(f"input tensor not found: {args.input}")
        try:
            x = GraphTensor.load(args.input)
        except Exception as exc:
            raise ConfigError(f"could not read input tensor {args.input}: {exc}") from exc
        if x.dims != spec.input_dims:
            raise ConfigError(f"input dims {x.dims} do not match model {spec.input_dims}")
        return x
    return GraphTensor.random(spec.input_dims, seed=args.seed)


def _write_json(path, obj) -> None:
    with open(path, "w") as fp:
        json.dump(obj, fp, indent=2, sort_keys=True)
        fp.write("\n")


def _write_hoc_csv(out, counts) -> None:
    """``counts``, {format: {layer: {op: count}}}, as one CSV row per
    (format, layer, op) to ``out``, a path or an open text stream."""
    if isinstance(out, str):
        with open(out, "w", newline="") as fp:
            return _write_hoc_csv(fp, counts)
    writer = csv.DictWriter(out, fieldnames=["layer", "op", "format", "count"])
    writer.writeheader()
    writer.writerows(
        {"layer": label, "op": op, "format": fmt, "count": ops[op]}
        for fmt, per_layer in counts.items()
        for label, ops in per_layer.items()
        for op in OPS
    )


def _check_slot_count(spec: ModelSpec, slot: int | None, formats) -> None:
    """A ``--slot-count`` that was given is a power of two whose ring holds
    the input layout of every packing in ``formats``."""
    if slot is None:
        return
    if slot < 1 or slot & (slot - 1):
        raise ConfigError(f"--slot-count {slot} is not a power of two")
    for fmt in formats:  # every layer keeps the input's (B, T, J), so its layout decides
        try:
            (packing.ama_layout if fmt == AMA else packing.rowmajor_layout)(spec.input_dims, slot)
        except PackingError as exc:
            raise ConfigError(f"--slot-count {slot} does not fit the {fmt} packing: {exc}") from exc


# ----------------------------------------------------------------------


def cmd_infer(args) -> int:
    spec = _load_model(args.model)
    _require_head(spec)
    x = _load_input(spec, args)
    formats = [AMA, ROWMAJOR] if args.format == "both" else [args.format]
    slot = args.slot_count
    _check_slot_count(spec, slot, formats)
    os.makedirs(args.out, exist_ok=True)

    results = {
        fmt: engine.run_model(spec, x, fmt, slot_count=slot, quantize=args.quantize)
        for fmt in formats
    }

    scores_doc, levels_doc = {}, {}
    for fmt, res in results.items():
        scores_doc[fmt] = res.scores.tolist()
        levels_doc[fmt] = {
            "trace": res.level_trace,
            "depth_total": res.depth_total,
            "ciphertexts": res.ct_counts,
        }
    _write_json(os.path.join(args.out, "scores.json"), scores_doc)
    _write_json(os.path.join(args.out, "levels.json"), levels_doc)
    _write_hoc_csv(os.path.join(args.out, "hoc.csv"), {fmt: res.per_layer() for fmt, res in results.items()})

    if len(results) == 2:
        diff = float(
            np.max(np.abs(results[AMA].scores - results[ROWMAJOR].scores))
        )
        _write_json(
            os.path.join(args.out, "equivalence.json"),
            {"max_abs_score_diff": diff, "formats": sorted(results)},
        )
        print(f"cross-format max |score diff| = {diff:.3e}")
    for fmt, res in results.items():
        totals = res.counter.totals()
        print(
            f"{fmt}: scores for {res.scores.shape[0]} sample(s); "
            f"rot={totals['rot']} pmult={totals['pmult']} "
            f"cmult={totals['cmult']} add={totals['add']}"
        )
    return EXIT_OK


def _model_formula_input(spec: ModelSpec, slot_count: int) -> HocFormulaInput:
    """Aggregate symbols for the comparison rows, read off a concrete model."""
    B, C, T, J = spec.input_dims
    spatial = [l for l in spec.layers if isinstance(l, SpatialConv)]
    temporal = [l for l in spec.layers if isinstance(l, TemporalConv)]
    acts = len([l for l in spec.layers if l.kind == "activation" and not l.pruned])
    classes = spec.layers[-1].classes
    if not spatial:
        raise ConfigError(f"model {spec.name!r} has no spatial conv, whose adjacency and width the framework rows need")
    # the aggregate comparison rows plug the network's nominal width (the
    # first block's output channels), not the widest layer
    base = spatial[0].c_out
    union = spatial[0].adjacency.structural_union()

    return HocFormulaInput(
        slot_count=slot_count,
        B=B,
        C=base,
        O=base,
        T=T,
        J=J,
        K=temporal[0].kernel if temporal else 1,
        S_p=len(spatial),
        T_e=len(temporal),
        A=acts,
        V=float(union.sum()),
        D=2 * J - 1,  # generic frameworks run the dense diagonal pass
        C_s=classes,
    )


def cmd_compare(args) -> int:
    spec = _load_model(args.model)
    _require_head(spec)
    _check_slot_count(spec, args.slot_count, (AMA, ROWMAJOR))
    parts = args.batch.split(",") if args.batch else []
    if not all(b.strip().isdecimal() and int(b) > 0 for b in parts):
        raise ConfigError(f"--batch must be a comma list of positive integers, got {args.batch!r}")
    batches = [int(b) for b in parts]
    os.makedirs(args.out, exist_ok=True)
    slot = args.slot_count or engine.default_slot_count(spec.input_dims)

    ama = costmodel.totals_of(costmodel.analytic_layer_counts(spec, AMA, slot))
    rm = costmodel.totals_of(costmodel.analytic_layer_counts(spec, ROWMAJOR, slot))
    inp = _model_formula_input(spec, slot)
    chet = costmodel.framework_hoc("chet", inp)
    fhear = costmodel.framework_hoc("fast_hear", inp)

    def reduction(base, ours) -> float:
        base_total, ours_total = costmodel.total_hoc(base), costmodel.total_hoc(ours)
        return 100.0 * (1.0 - ours_total / base_total) if base_total else 0.0

    summary = {
        "slot_count": slot,
        "totals": {
            "ama": ama,
            "rowmajor": rm,
            "chet_analytic": chet,
            "fast_hear_analytic": fhear,
        },
        "total_hoc": {
            "ama": costmodel.total_hoc(ama),
            "rowmajor": costmodel.total_hoc(rm),
            "chet_analytic": costmodel.total_hoc(chet),
            "fast_hear_analytic": costmodel.total_hoc(fhear),
        },
        "reduction_pct": {
            "vs_rowmajor": reduction(rm, ama),
            "vs_chet": reduction(chet, ama),
            "vs_fast_hear": reduction(fhear, ama),
        },
        "pmult_add_ratio_vs_rowmajor": (ama["pmult"] + ama["add"]) / (rm["pmult"] + rm["add"]),
    }

    if batches:
        B0, C, T, J = spec.input_dims

        def make_spec(b):
            return ModelSpec((b, C, T, J), spec.layers, name=spec.name)

        sweep = {
            fmt: costmodel.amortized_sweep(make_spec, fmt, slot, batches)
            for fmt in (AMA, ROWMAJOR)
        }
        summary["amortized_per_sample"] = sweep
        with open(os.path.join(args.out, "amortized.csv"), "w", newline="") as fp:
            writer = csv.DictWriter(
                fp, fieldnames=["format", "batch", "rot", "pmult", "cmult", "add", "total"]
            )
            writer.writeheader()
            for fmt, rows in sweep.items():
                for row in rows:
                    writer.writerow({"format": fmt, **{k: row[k] for k in writer.fieldnames if k != "format"}})

    _write_json(os.path.join(args.out, "compare.json"), summary)
    print(f"total HOC  ama={summary['total_hoc']['ama']:.0f}  rowmajor={summary['total_hoc']['rowmajor']:.0f}")
    print(
        "reduction: vs row-major {vs_rowmajor:.1f}%  vs CHET {vs_chet:.1f}%  "
        "vs Fast-HEAR {vs_fast_hear:.1f}%".format(**summary["reduction_pct"])
    )
    return EXIT_OK


def cmd_params(args) -> int:
    if args.levels < 1:
        raise ConfigError(f"--levels must be at least 1, got {args.levels}")
    try:
        params = costmodel.select_params(args.levels, args.scale_bits, args.security_bits)
    except ParamSelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    print(json.dumps(params.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_prune(args) -> int:
    spec = _load_model(args.model)
    activations = len(spec.activation_indices())
    if not 0 <= args.max_prune <= activations:
        raise ConfigError(f"--max-prune must lie in 0..{activations}, the model's activations, got {args.max_prune}")
    if bool(args.stub) == bool(args.evaluator_cmd):
        raise ConfigError("need exactly one of --stub or --evaluator-cmd")
    if args.stub:
        if not os.path.exists(args.stub):
            raise ConfigError(f"stub table not found: {args.stub}")
        try:
            evaluator = prune.TableEvaluator.from_file(args.stub)
        except Exception as exc:
            raise ConfigError(f"could not parse stub table: {exc}") from exc
    else:
        evaluator = prune.CommandEvaluator(args.evaluator_cmd.split())
    try:
        results, best = prune.search(spec, evaluator, args.max_prune)
    except prune.EvaluatorError as exc:
        raise ConfigError(str(exc)) from exc
    doc = {"results": [r.to_dict() for r in results], "best": best.to_dict()}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "prune.json"), doc)
    for r in results:
        mark = "*" if r.variant_id == best.variant_id else " "
        print(
            f"{mark} prune={len(r.pruned)} [{r.variant_id}] acc={r.accuracy:.4f} "
            f"levels={r.levels} N=2^{r.params.poly_degree.bit_length() - 1} Q={r.params.modulus_bits}"
        )
    return EXIT_OK


def cmd_hoc(args) -> int:
    spec = _load_model(args.model)
    formats = [AMA, ROWMAJOR] if args.format == "both" else [args.format]
    _check_slot_count(spec, args.slot_count, formats)
    slot = args.slot_count or engine.default_slot_count(spec.input_dims)
    counts = {fmt: costmodel.analytic_layer_counts(spec, fmt, slot) for fmt in formats}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    _write_hoc_csv(os.path.join(args.out, "hoc_analytic.csv") if args.out else sys.stdout, counts)
    return EXIT_OK


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hegcn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="encrypted inference")
    p_infer.add_argument("--model", required=True)
    p_infer.add_argument("--input", help="tensor file (header + f64 payload)")
    p_infer.add_argument("--seed", type=int, help="random input seed (alternative to --input)")
    p_infer.add_argument("--format", choices=[AMA, ROWMAJOR, "both"], default=AMA)
    p_infer.add_argument("--slot-count", type=int, dest="slot_count")
    p_infer.add_argument("--quantize", action="store_true")
    p_infer.add_argument("--out", required=True)
    p_infer.set_defaults(func=cmd_infer)

    p_cmp = sub.add_parser("compare", help="analytic HOC comparison")
    p_cmp.add_argument("--model", required=True)
    p_cmp.add_argument("--batch", default="", help="comma list for the amortization sweep")
    p_cmp.add_argument("--slot-count", type=int, dest="slot_count")
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_par = sub.add_parser("params", help="HE parameter selection")
    p_par.add_argument("--levels", type=int, required=True)
    p_par.add_argument("--scale-bits", type=int, default=SCALE_BITS, dest="scale_bits")
    p_par.add_argument("--security-bits", type=int, default=80, dest="security_bits")
    p_par.set_defaults(func=cmd_params)

    p_pr = sub.add_parser("prune", help="activation-pruning search")
    p_pr.add_argument("--model", required=True)
    p_pr.add_argument("--stub", help="accuracy stub table JSON")
    p_pr.add_argument("--evaluator-cmd", dest="evaluator_cmd", help="external evaluator command")
    p_pr.add_argument("--max-prune", type=int, default=0, dest="max_prune")
    p_pr.add_argument("--out")
    p_pr.set_defaults(func=cmd_prune)

    p_hoc = sub.add_parser("hoc", help="analytic per-layer HOC as CSV")
    p_hoc.add_argument("--model", required=True)
    p_hoc.add_argument("--format", choices=[AMA, ROWMAJOR, "both"], default="both")
    p_hoc.add_argument("--slot-count", type=int, dest="slot_count")
    p_hoc.add_argument("--out")
    p_hoc.set_defaults(func=cmd_hoc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DepthBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEPTH


if __name__ == "__main__":
    sys.exit(main())
