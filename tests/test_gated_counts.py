"""Regression pin of every counted operation of the four gated runs.

Reference model @8192 and acceptance model @1024, AMA and row-major, input
seed 43, ``log_ops=True``.  Each run must reproduce, exactly, the per-layer
counters (rescale included) and a per-layer histogram of its op log keyed by
(op, level_before, rotation_amount) and summed over ``count``.  The fixture
is a regression pin, not a formula: ``costmodel.analytic_layer_counts`` and
``reconcile`` stay the independent check.  A change that moves it changes
the algorithm and brings new hand-derived formulas with it.

Regenerate the fixture with ``PYTHONPATH=src python tests/test_gated_counts.py``.
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hegcn import costmodel
from hegcn.engine import plaintext_reference, run_model
from hegcn.hesim import SimContext, replay_counts
from hegcn.model import acceptance_stgcn3, reference_stgcn3
from hegcn.packing import AMA, ROWMAJOR, GraphTensor

FIXTURE = Path(__file__).parent / "data" / "gated_counts.json"
SEED = 43
RUNS = {
    "reference-ama-8192": (reference_stgcn3, AMA, 8192),
    "reference-rowmajor-8192": (reference_stgcn3, ROWMAJOR, 8192),
    "acceptance-ama-1024": (acceptance_stgcn3, AMA, 1024),
    "acceptance-rowmajor-1024": (acceptance_stgcn3, ROWMAJOR, 1024),
}


def histogram(oplog) -> dict[str, list]:
    """Per layer: sorted [op, level_before, rotation_amount or None, summed count]."""
    counts = Counter()
    for rec in oplog:
        counts[rec["layer"], rec["op"], rec["level_before"], rec.get("rotation_amount")] += rec.get("count", 1)
    out: dict[str, list] = {}
    for (layer, *key), n in sorted(counts.items(), key=lambda kv: tuple(map(str, kv[0]))):
        out.setdefault(layer, []).append([*key, n])
    return out


def gated_run(name):
    """(run result, op log, input) of one gated run."""
    make_spec, fmt, slot_count = RUNS[name]
    spec = make_spec()
    x = GraphTensor.random(spec.input_dims, seed=SEED)
    ctx = SimContext(slot_count, max_level=costmodel.depth(spec), log_ops=True)
    return spec, x, run_model(spec, x, fmt, ctx=ctx), ctx.oplog


def record(name) -> dict:
    _, _, res, oplog = gated_run(name)
    return {"counters": res.per_layer(), "histogram": histogram(oplog)}


@pytest.mark.parametrize("name", list(RUNS))
def test_gated_run_counts_are_pinned(name):
    spec, x, res, oplog = gated_run(name)
    want = json.loads(FIXTURE.read_text())[name]
    assert res.per_layer() == want["counters"]
    assert json.loads(json.dumps(histogram(oplog))) == want["histogram"]
    assert replay_counts(oplog) == res.counter
    assert float(np.max(np.abs(res.scores - plaintext_reference(spec, x)))) <= 1e-9


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({name: record(name) for name in RUNS}, indent=1, sort_keys=True) + "\n")
