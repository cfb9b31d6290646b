"""Activation-pruning search: rank by drop-one accuracy, grow the pruned set.

Training and fine-tuning are outside this artifact, so accuracy comes from
a pluggable evaluator: a table stub loaded from JSON, or an external
command fed the candidate model on stdin.  The search itself is exact: it
tracks the level budget through :func:`hegcn.costmodel.depth` and picks HE
parameters per candidate, then selects the best trade-off.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass

from hegcn import costmodel
from hegcn.costmodel import HeParams, select_params
from hegcn.model import ModelSpec


#: Bits of modulus each level spends and the security target of the
#: parameters picked per candidate.
SCALE_BITS = 33
SECURITY_BITS = 80
#: Seconds an external evaluator may take per variant.
EVALUATOR_TIMEOUT_S = 600.0


class EvaluatorError(Exception):
    """The accuracy evaluator failed for a variant."""


def variant_key(pruned_indices) -> str:
    return ",".join(str(i) for i in sorted(pruned_indices))


@dataclass
class PruneResult:
    variant_id: str
    pruned: tuple[int, ...]
    accuracy: float
    levels: int
    params: HeParams

    def to_dict(self) -> dict:
        return {
            "variant": self.variant_id,
            "pruned": list(self.pruned),
            "accuracy": self.accuracy,
            "levels": self.levels,
            "params": self.params.to_dict(),
        }


class TableEvaluator:
    """Accuracy lookup from a stub table.

    Expected JSON: ``{"drop_one": {"0": acc, ...}, "pruned_sets":
    {"": baseline, "3": acc, "1,3": acc, ...}}`` where pruned-set keys are
    sorted comma-joined activation indices.  The two tables serve the two
    stages of the search: drop-one probes drive the ranking, fine-tuned
    set accuracies score the candidate architectures.  Deterministic by
    construction.
    """

    def __init__(self, drop_one: dict, pruned_sets: dict):
        self.drop_one = {int(k): float(v) for k, v in drop_one.items()}
        self.pruned_sets = {str(k): float(v) for k, v in pruned_sets.items()}

    @classmethod
    def from_json(cls, text: str) -> "TableEvaluator":
        doc = json.loads(text)
        pruned = dict(doc.get("pruned_sets", {}))
        if "baseline" in doc:
            pruned.setdefault("", doc["baseline"])
        return cls(doc.get("drop_one", {}), pruned)

    @classmethod
    def from_file(cls, path) -> "TableEvaluator":
        with open(path) as fp:
            return cls.from_json(fp.read())

    def __call__(self, spec: ModelSpec, pruned_indices, stage: str = "search") -> float:
        key = variant_key(pruned_indices)
        if len(pruned_indices) == 1:
            idx = next(iter(pruned_indices))
            if stage == "rank" and idx in self.drop_one:
                return self.drop_one[idx]
            if key not in self.pruned_sets and idx in self.drop_one:
                return self.drop_one[idx]
        if key not in self.pruned_sets:
            raise EvaluatorError(f"stub table has no accuracy for variant {key!r}")
        return self.pruned_sets[key]


class CommandEvaluator:
    """Spawn a command per variant; it reads the model JSON document on
    stdin and must print ``{"accuracy": x}`` on stdout."""

    def __init__(self, argv: list[str]):
        self.argv = list(argv)

    def __call__(self, spec: ModelSpec, pruned_indices, stage: str = "search") -> float:
        payload = json.dumps(
            {
                "name": spec.name,
                "input": dict(zip("BCTJ", spec.input_dims)),
                "pruned_activations": sorted(pruned_indices),
                "stage": stage,
                "layers": [layer.kind for layer in spec.layers],
            }
        )
        try:
            proc = subprocess.run(
                self.argv,
                input=payload.encode(),
                capture_output=True,
                timeout=EVALUATOR_TIMEOUT_S,
                check=True,
            )
            return float(json.loads(proc.stdout.decode())["accuracy"])
        except Exception as exc:
            raise EvaluatorError(
                f"external evaluator failed for variant {variant_key(pruned_indices)!r}: {exc}"
            ) from exc


def _call_evaluator(evaluator, variant: ModelSpec, pruned, stage: str) -> float:
    """Invoke an evaluator once as ``evaluator(variant, pruned, stage=stage)``.

    Any fault inside the evaluator, a ``TypeError`` included, is raised as
    an :class:`EvaluatorError` naming the variant and is never retried
    under a different stage.
    """
    try:
        return evaluator(variant, pruned, stage=stage)
    except EvaluatorError:
        raise
    except Exception as exc:
        what = f"drop-one variant {pruned[0]}" if stage == "rank" else f"variant {variant_key(pruned)!r}"
        raise EvaluatorError(f"evaluator failed for {what}: {exc}") from exc


def rank_activations(spec: ModelSpec, evaluator) -> list[int]:
    """Activation indices sorted by descending drop-one accuracy.

    Higher accuracy with the activation removed means the activation
    matters less and is pruned first.  Ties break toward the smaller layer
    index.
    """
    indices = spec.activation_indices()
    if not indices:
        raise ValueError("model has no activations to rank")
    scored = []
    for idx in indices:
        acc = _call_evaluator(evaluator, spec.prune_activations([idx]), (idx,), "rank")
        scored.append((idx, acc))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [idx for idx, _ in scored]


def search(spec: ModelSpec, evaluator, max_prune: int) -> tuple[list[PruneResult], PruneResult]:
    """Evaluate pruning 0..max_prune activations off the initial ranking,
    with HE parameters picked at ``SCALE_BITS`` per level and
    ``SECURITY_BITS`` of security.

    Returns all candidates plus the pick: among variants whose polynomial
    degree is minimal (smallest parameters, hence cheapest operations),
    the one with the highest accuracy.  That rule is a Pareto filter: the
    winner is never dominated on both accuracy and parameter size.
    """
    n_act = len(spec.activation_indices())
    if not 0 <= max_prune <= n_act:
        raise ValueError(f"max_prune must lie in 0..{n_act}")
    ranking = rank_activations(spec, evaluator) if max_prune else []
    results = []
    for i in range(max_prune + 1):
        pruned = tuple(sorted(ranking[:i]))
        variant = spec.prune_activations(pruned) if pruned else spec
        acc = _call_evaluator(evaluator, variant, pruned, "search")
        levels = costmodel.depth(variant)
        params = select_params(levels, SCALE_BITS, SECURITY_BITS)
        results.append(PruneResult(variant_key(pruned) or "baseline", pruned, acc, levels, params))
    best_degree = min(r.params.poly_degree for r in results)
    candidates = [r for r in results if r.params.poly_degree == best_degree]
    best = max(candidates, key=lambda r: (r.accuracy, -len(r.pruned)))
    return results, best
