"""Differential test of the conv kernels on small shapes, both packings.

Every case runs the encrypted pipeline and checks three independent gates:
scores against the plaintext oracle, measured counters against the analytic
mirror, and oplog replay against the live counters.  Fixed cases run at the
minimum slot count and at twice it; a bounded hypothesis sweep draws further
shapes at the minimum slot count.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hegcn import costmodel, hesim
from hegcn.adjacency import AdjacencySet, MergedSpatialMatrix, merge_spatial
from hegcn.engine import default_slot_count, plaintext_reference, run_model, spatial_reference
from hegcn.hesim import SimContext, replay_counts
from hegcn.model import FullyConnected, ModelSpec, SpatialConv, TemporalConv, acceptance_stgcn3, random_stgcn
from hegcn.packing import AMA, ROWMAJOR, GraphTensor, ama_layout


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


def case_spec(case):
    dims, widths, kernel, stride2_at = CASES[case]
    spec = random_stgcn(
        dims, widths, skeleton(dims[3]), classes=3, kernel=kernel, stride2_at=stride2_at, seed=5, with_bn=True
    )
    return dims, with_temporal_bn(spec, seed=6)


def check_gates(spec, x, fmt, slot_count):
    ctx = SimContext(slot_count, max_level=costmodel.depth(spec), log_ops=True)

    res = run_model(spec, x, fmt, ctx=ctx)

    assert float(np.max(np.abs(res.scores - plaintext_reference(spec, x)))) <= 1e-9
    diff = costmodel.reconcile(res.per_layer(), costmodel.analytic_layer_counts(spec, fmt, slot_count))
    assert diff["max_abs_diff"] == 0, diff["per_layer"]
    assert replay_counts(ctx.oplog) == res.counter


@pytest.mark.parametrize("fmt", [AMA, ROWMAJOR])
@pytest.mark.parametrize("slot_factor", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_kernels_match_oracle_and_counts(case, slot_factor, fmt):
    dims, spec = case_spec(case)
    check_gates(spec, GraphTensor.random(dims, seed=7), fmt, default_slot_count(dims) * slot_factor)


def ragged_widths(dims) -> list[int]:
    """Channel counts with an AMA group that does not tile the minimum-slot ciphertext."""
    B, _, T, J = dims
    layouts = [ama_layout((B, c, T, J), default_slot_count(dims)) for c in range(1, 7)]
    return [lay.C for lay in layouts if any(lay.capacity % lay.group_size(g) for g in range(lay.cts_per_joint))]


@st.composite
def small_models(draw):
    """A random ST-GCN stack: up to two blocks, a ragged AMA width whenever
    the minimum slot count allows one, optional stride, BN and pruning."""
    B, C = draw(st.integers(1, 2)), draw(st.integers(1, 5))
    dims = (B, C, draw(st.sampled_from([4, 8])), draw(st.integers(3, 8)))
    widths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
    ragged = ragged_widths(dims)
    if ragged:
        widths[draw(st.integers(0, len(widths) - 1))] = draw(st.sampled_from(ragged))
    stride2_at = draw(st.sampled_from([None, *range(len(widths))]))
    frames = dims[2] // 2 if stride2_at is not None and stride2_at < len(widths) - 1 else dims[2]
    kernel = draw(st.sampled_from([k for k in (1, 3, 5) if k <= frames]))
    with_bn = draw(st.booleans())
    seed = draw(st.integers(0, 99))
    spec = random_stgcn(
        dims, widths, skeleton(dims[3]), classes=2, kernel=kernel, stride2_at=stride2_at, seed=seed, with_bn=with_bn
    )
    if with_bn:
        spec = with_temporal_bn(spec, seed=6)
    pruned = draw(st.sets(st.sampled_from(spec.activation_indices())))
    return spec.prune_activations(pruned) if pruned else spec


@pytest.mark.parametrize("fmt", [AMA, ROWMAJOR])
def test_zero_shift_temporal_bn_adds_no_bias(fmt):
    """Temporal BN with no bias, beta = mean = 0 folds to a zero shift: the
    engine adds no bias, so the analytic mirror must count none."""
    dims, spec = case_spec("ragged-k3-stride2")
    layers = list(spec.layers)
    i = next(i for i, layer in enumerate(layers) if isinstance(layer, TemporalConv))
    n, eps = layers[i].channels, 1e-5
    bn = {"gamma": np.ones(n), "beta": np.zeros(n), "mean": np.zeros(n), "var": np.full(n, 1 - eps), "eps": eps}
    layers[i] = replace(layers[i], bias=None, bn=bn)
    check_gates(ModelSpec(dims, layers, name=spec.name), GraphTensor.random(dims, seed=7), fmt, default_slot_count(dims))


def gated_case(case):
    """(spec, slot count) of the acceptance model @1024 or of a named case."""
    if case == "acceptance":
        return acceptance_stgcn3(), 1024
    dims, spec = case_spec(case)
    return spec, default_slot_count(dims)


@pytest.mark.parametrize("fmt", [AMA, ROWMAJOR])
@pytest.mark.parametrize("case", ["acceptance", "ragged-k3-stride2"])
def test_kernels_never_read_dense_matrices(monkeypatch, case, fmt):
    """The spatial kernels read coefficients from the factors only: with the
    dense view unavailable, every gate still holds."""

    def dense(self):
        raise AssertionError("a kernel read MergedSpatialMatrix.matrices")

    spec, slot_count = gated_case(case)
    monkeypatch.setattr(MergedSpatialMatrix, "matrices", property(dense))
    check_gates(spec, GraphTensor.random(spec.input_dims, seed=7), fmt, slot_count)


def counted_builds(monkeypatch, names, check=None):
    """Wrap the ``hesim`` operator classes ``names`` to count their builds,
    each build's arguments first passed to ``check(name, args, kwargs)``."""
    built = dict.fromkeys(names, 0)

    def counted(name):
        build = getattr(hesim, name)

        def wrapped(*args, **kwargs):
            built[name] += 1
            if check is not None:
                check(name, args, kwargs)
            return build(*args, **kwargs)

        return wrapped

    for name in names:
        monkeypatch.setattr(hesim, name, counted(name))
    return built


@pytest.mark.parametrize("case", ["acceptance", "ragged-k3-stride2"])
def test_ama_never_calls_per_step_fold(monkeypatch, case):
    """The AMA channel fold runs every giant step in one ``fold_steps`` of a
    ``BlockCirculant`` on the layout's blocks: hesim has no per-step fold,
    the AMA path builds no row-major operator (no ``MixedDiagonals``, no
    one-block ``BlockCirculant``), one ``BlockCirculant`` per temporal conv
    and head, and every gate still holds."""

    def check(name, args, kwargs):
        assert name == "BlockCirculant" and args[2][0] > 1, "the AMA path built a row-major operator"

    assert not hasattr(SimContext, "fold")
    spec, slot_count = gated_case(case)
    built = counted_builds(monkeypatch, ["BlockCirculant", "MixedDiagonals"], check)
    check_gates(spec, GraphTensor.random(spec.input_dims, seed=7), AMA, slot_count)
    assert built == {"BlockCirculant": sum(isinstance(layer, (TemporalConv, FullyConnected)) for layer in spec.layers), "MixedDiagonals": 0}


@pytest.mark.parametrize("case", ["acceptance", "ragged-k3-stride2"])
def test_rowmajor_spatial_builds_no_per_diagonal_table(monkeypatch, case):
    """Each row-major spatial conv is one ``hesim.MixedDiagonals`` of the
    factors: ``MergedSpatialMatrix`` has no per-diagonal view, and its
    dense view raises.  The temporal convs and the classifier head are one
    ``hesim.BlockCirculant`` each, on one block of every slot with the
    single giant step 0, whose (1, rows, terms, 1) coefficients have no
    column axis.  Every gate still holds."""

    def dense(self):
        raise AssertionError("a kernel read MergedSpatialMatrix.matrices")

    def check(name, args, kwargs):
        if name == "BlockCirculant":
            amounts, coef, grid = args[:3]
            assert list(amounts) == [0] and grid == (1, slot_count), "a row-major operator with blocks"
            assert np.shape(coef)[0] == np.shape(coef)[-1] == 1, "a row-major operator with a table per column"

    assert not hasattr(MergedSpatialMatrix, "diagonal")
    spec, slot_count = gated_case(case)
    monkeypatch.setattr(MergedSpatialMatrix, "matrices", property(dense))
    built = counted_builds(monkeypatch, ["MixedDiagonals", "BlockCirculant"], check)
    check_gates(spec, GraphTensor.random(spec.input_dims, seed=7), ROWMAJOR, slot_count)
    assert built == {
        "MixedDiagonals": sum(isinstance(layer, SpatialConv) for layer in spec.layers),
        "BlockCirculant": sum(isinstance(layer, (TemporalConv, FullyConnected)) for layer in spec.layers),
    }


@pytest.mark.parametrize("case", ["acceptance", "ragged-k3-stride2"])
def test_ama_builds_one_block_circulant_per_linear_layer(monkeypatch, case):
    """Every AMA linear layer is one operator: a ``hesim.BlockCirculant``
    per temporal conv and for the classifier head, and a ``hesim.Mixed``
    per spatial conv, which builds no ``BlockCirculant``.  Every gate still
    holds."""
    spec, slot_count = gated_case(case)
    built = counted_builds(monkeypatch, ["BlockCirculant", "Mixed"])
    check_gates(spec, GraphTensor.random(spec.input_dims, seed=7), AMA, slot_count)
    assert built == {
        "BlockCirculant": sum(isinstance(layer, (TemporalConv, FullyConnected)) for layer in spec.layers),
        "Mixed": sum(isinstance(layer, SpatialConv) for layer in spec.layers),
    }


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(spec=small_models())
def test_random_shapes_match_oracle_and_counts(spec):
    """Drawn shapes exercise the analytic mirror's ragged giant-step branch
    against the engine's coverage scan, end to end."""
    x = GraphTensor.random(spec.input_dims, seed=7)
    for fmt in (AMA, ROWMAJOR):
        check_gates(spec, x, fmt, default_slot_count(spec.input_dims))


@pytest.mark.parametrize("fmt", [AMA, ROWMAJOR])
def test_one_item_chunks_change_nothing(monkeypatch, fmt):
    """Chunks of one joint, output joint, row-major column or classifier
    class or input channel: the same counts and scores."""
    dims, spec = case_spec("batch2-k5-stride2")
    x = GraphTensor.random(dims, seed=7)
    slot_count = default_slot_count(dims)
    want = run_model(spec, x, fmt, slot_count=slot_count)
    monkeypatch.setattr(hesim, "_CHUNK_BYTES", 1)
    ctx = SimContext(slot_count, max_level=costmodel.depth(spec), log_ops=True)
    res = run_model(spec, x, fmt, ctx=ctx)
    assert res.counter == want.counter
    assert replay_counts(ctx.oplog) == res.counter
    np.testing.assert_allclose(res.scores, want.scores, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", sorted(CASES))
def test_spatial_oracle_equals_merged_matrices(case):
    """The oracle's spatial step (partitions, bias, then batch norm) agrees
    with the merged matrices the encrypted paths use."""
    dims, spec = case_spec(case)
    spatial = [layer for layer in spec.layers if isinstance(layer, SpatialConv)]
    assert spatial and all(layer.bn is not None for layer in spatial)
    for layer in spatial:
        h = np.random.default_rng(layer.c_out).uniform(-1, 1, (dims[0], layer.c_in) + dims[2:])
        merged = merge_spatial(layer.adjacency, layer.weights, layer.bias, layer.bn)
        np.testing.assert_allclose(spatial_reference(layer, h), merged.apply(h), rtol=0, atol=1e-12)
