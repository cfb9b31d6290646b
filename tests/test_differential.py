"""Differential test of the conv kernels on small shapes, both packings.

Every case runs the encrypted pipeline at the minimum slot count and at
twice it, and checks three independent gates: scores against the plaintext
oracle, measured counters against the analytic mirror, and oplog replay
against the live counters.
"""

from dataclasses import replace

import numpy as np
import pytest

from hegcn import costmodel
from hegcn.adjacency import AdjacencySet
from hegcn.engine import default_slot_count, plaintext_reference, run_model
from hegcn.hesim import SimContext, replay_counts
from hegcn.model import ModelSpec, TemporalConv, random_stgcn
from hegcn.packing import AMA, ROWMAJOR, GraphTensor


def with_temporal_bn(spec: ModelSpec, seed: int) -> ModelSpec:
    rng = np.random.default_rng(seed)
    layers = []
    for layer in spec.layers:
        if isinstance(layer, TemporalConv):
            n = layer.channels
            bn = {
                "gamma": rng.uniform(0.8, 1.2, size=n),
                "beta": rng.normal(0, 0.1, size=n),
                "mean": rng.normal(0, 0.1, size=n),
                "var": rng.uniform(0.5, 1.5, size=n),
                "eps": 1e-5,
            }
            layer = replace(layer, bn=bn)
        layers.append(layer)
    return ModelSpec(spec.input_dims, layers, name=spec.name)


def skeleton(J):
    """Chain plus a partition hung on joint 0: no generalized diagonal of the
    merged matrix is constant, and the graph has no mirror symmetry."""
    return AdjacencySet.from_edges(J, [[(i, i + 1) for i in range(J - 1)], [(0, 1), (0, 2)]])


# (input dims, widths, kernel, stride2_at); every case has temporal BN and
# at least one channel width that does not fill its last AMA group at the
# minimum slot count
CASES = {
    "ragged-k3-stride2": ((1, 3, 8, 3), [5, 6], 3, 1),
    "batch2-k5-stride2": ((2, 3, 16, 4), [3, 4], 5, 0),
    "batch2-k5-ragged": ((2, 5, 8, 3), [6], 5, None),
}


@pytest.mark.parametrize("fmt", [AMA, ROWMAJOR])
@pytest.mark.parametrize("slot_factor", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_kernels_match_oracle_and_counts(case, slot_factor, fmt):
    dims, widths, kernel, stride2_at = CASES[case]
    spec = random_stgcn(
        dims, widths, skeleton(dims[3]), classes=3, kernel=kernel, stride2_at=stride2_at, seed=5, with_bn=True
    )
    spec = with_temporal_bn(spec, seed=6)
    x = GraphTensor.random(dims, seed=7)
    slot_count = default_slot_count(dims) * slot_factor
    ctx = SimContext(slot_count, max_level=costmodel.depth(spec), log_ops=True)

    res = run_model(spec, x, fmt, ctx=ctx)

    assert float(np.max(np.abs(res.scores - plaintext_reference(spec, x)))) <= 1e-9
    diff = costmodel.reconcile(res.per_layer(), costmodel.analytic_layer_counts(spec, fmt, slot_count))
    assert diff["max_abs_diff"] == 0, diff["per_layer"]
    assert replay_counts(ctx.oplog) == res.counter
