import numpy as np
import pytest

from hegcn import engine
from hegcn.adjacency import AdjacencySet
from hegcn.model import (
    Activation,
    FullyConnected,
    GlobalAvgPool,
    ModelSpec,
    SpatialConv,
    TemporalConv,
    acceptance_stgcn3,
    random_stgcn,
    reference_stgcn3,
)
from hegcn.packing import GraphTensor


def test_shape_validation_catches_channel_mismatch():
    adj = AdjacencySet.from_edges(3, [[(0, 1), (1, 2)]])
    with pytest.raises(ValueError, match="channels"):
        ModelSpec(
            (1, 2, 4, 3),
            [
                SpatialConv(2, 4, adj, np.zeros((1, 2, 4))),
                TemporalConv(8, 3, 1, np.zeros((8, 8, 3))),
            ],
        )


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda adj: SpatialConv(0, 2, adj, np.zeros((1, 0, 2))), "spatial_conv c_in"),
        (lambda adj: SpatialConv(2, 0, adj, np.zeros((1, 2, 0))), "spatial_conv c_out"),
        (lambda adj: TemporalConv(0, 3, 1, np.zeros((0, 0, 3))), "temporal_conv channels"),
        (lambda adj: TemporalConv(2, -1, 1, np.zeros((2, 2, 0))), "temporal_conv kernel"),
        (lambda adj: FullyConnected(0, 3, np.zeros((0, 3))), "fully_connected c_in"),
        (lambda adj: FullyConnected(2, 0, np.zeros((2, 0))), "fully_connected classes"),
        (lambda adj: ModelSpec((0, 2, 4, 3), []), "input_dims"),
        (lambda adj: ModelSpec((1, 2, -4, 3), []), "input_dims"),
    ],
)
def test_sizes_below_one_are_refused(make, field):
    """A width, kernel or input dimension below 1 is a ``ValueError`` that
    names its field, even where the arrays fit it."""
    with pytest.raises(ValueError, match=f"{field} must .*at least 1"):
        make(AdjacencySet.from_edges(3, [[(0, 1), (1, 2)]]))


def test_fc_requires_pooling_first():
    with pytest.raises(ValueError, match="pooled"):
        ModelSpec((1, 2, 4, 3), [FullyConnected(2, 5, np.zeros((2, 5)))])


#: Layers the head rule rejects: (name, insert position counted from the end
#: of the stack or None to append, layer, its JSON entry).  The encrypted run,
#: the oracle and the cost model disagree on each of these stacks.  Both
#: models below have 10 classes.
MISPLACED = [
    ("activation-before-head", -1, Activation(0.05, 1.0, 0.08), {"type": "activation", "a": 0.05, "b": 1.0, "c": 0.08}),
    ("activation-after-head", None, Activation(0.05, 1.0, 0.08), {"type": "activation", "a": 0.05, "b": 1.0, "c": 0.08}),
    ("second-pool", -1, GlobalAvgPool(), {"type": "global_avg_pool"}),
    ("second-head", None, FullyConnected(10, 10, np.zeros((10, 10))), {"type": "fully_connected", "c_in": 10, "classes": 10}),
]


@pytest.mark.parametrize("name,at,layer,entry", MISPLACED, ids=[m[0] for m in MISPLACED])
def test_only_one_head_follows_pooling(tmp_path, name, at, layer, entry):
    """After pooling exactly one fully-connected head may follow, and nothing
    follows it; the error names the misplaced layer's label."""
    import json

    spec = acceptance_stgcn3()
    pos = len(spec.layers) if at is None else len(spec.layers) + at
    layers = spec.layers[:pos] + [layer] + spec.layers[pos:]
    with pytest.raises(ValueError, match=f"^{pos:02d}-{layer.kind} "):
        ModelSpec(spec.input_dims, layers)

    doc = {
        "seed": 3,
        "input": {"B": 1, "C": 2, "T": 8, "J": 3},
        "layers": [
            {"type": "spatial_conv", "c_in": 2, "c_out": 3, "adjacency": {"J": 3, "partitions": [{"edges": [[0, 1]]}]}},
            {"type": "global_avg_pool"},
            {"type": "fully_connected", "c_in": 3, "classes": 10},
        ],
    }
    pos = len(doc["layers"]) if at is None else len(doc["layers"]) + at
    doc["layers"].insert(pos, entry)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{pos:02d}-{entry['type']} "):
        ModelSpec.from_json_file(path)


def test_activation_levels():
    assert Activation(1, 1, 1).levels == 2
    assert Activation(1, 1, 1, pruned=True).levels == 0


def test_prune_activations_is_a_copy():
    spec = reference_stgcn3()
    pruned = spec.prune_activations([0])
    assert spec.activation_indices() == [0, 1, 2, 3, 4, 5]
    assert pruned.activation_indices() == [1, 2, 3, 4, 5]


def test_json_round_trip_preserves_inference(tmp_path):
    spec = random_stgcn(
        (1, 3, 8, 4),
        widths=[4, 5],
        adjacency=AdjacencySet.from_edges(4, [[(0, 1), (1, 2), (2, 3)]]),
        classes=3,
        kernel=3,
        stride2_at=0,
        seed=17,
        with_bn=True,
    )
    path = tmp_path / "model.json"
    spec.to_json_file(path)
    clone = ModelSpec.from_json_file(path)
    assert clone.input_dims == spec.input_dims
    assert clone.labels() == spec.labels()
    x = GraphTensor.random(spec.input_dims, seed=18)
    np.testing.assert_allclose(
        engine.plaintext_reference(clone, x), engine.plaintext_reference(spec, x), atol=1e-12
    )


def pin_spec() -> ModelSpec:
    """One layer of each kind, with small literal arrays."""
    adj = AdjacencySet.from_edges(2, [[(0, 1)]])
    bn = {"gamma": [1.0, 2.0], "beta": [0.0, 0.125], "mean": [0.5, -0.5], "var": [1.0, 4.0], "eps": 1e-3}
    return ModelSpec(
        (1, 1, 2, 2),
        [
            SpatialConv(1, 2, adj, [[[0.5, -1.0]]], [0.25, -0.5], {k: np.array(v) if k != "eps" else v for k, v in bn.items()}),
            Activation(0.05, 1.0, 0.08, pruned=True),
            TemporalConv(2, 1, 2, [[[1.0], [0.5]], [[-0.5], [2.0]]]),
            GlobalAvgPool(),
            FullyConnected(2, 3, [[1.0, 0.0, -1.0], [0.5, 0.25, 2.0]], [0.1, 0.2, 0.3]),
        ],
        name="pin",
    )


#: The document ``to_json_file`` writes for ``pin_spec()``.
PIN_DOC = {
    "name": "pin",
    "input": {"B": 1, "C": 1, "T": 2, "J": 2},
    "layers": [
        {"type": "spatial_conv", "c_in": 1, "c_out": 2, "adjacency": {"J": 2, "partitions": [{"edges": [[0, 1]]}]},
         "has_bias": True, "bn_eps": 0.001},
        {"type": "activation", "a": 0.05, "b": 1.0, "c": 0.08, "pruned": True},
        {"type": "temporal_conv", "channels": 2, "kernel": 1, "stride": 2},
        {"type": "global_avg_pool"},
        {"type": "fully_connected", "c_in": 2, "classes": 3},
    ],
    "weights": "pin.weights.bin",
    "manifest": [
        {"name": "layer0.weights", "offset": 0, "shape": [1, 1, 2]},
        {"name": "layer0.bias", "offset": 2, "shape": [2]},
        {"name": "layer0.bn.gamma", "offset": 4, "shape": [2]},
        {"name": "layer0.bn.beta", "offset": 6, "shape": [2]},
        {"name": "layer0.bn.mean", "offset": 8, "shape": [2]},
        {"name": "layer0.bn.var", "offset": 10, "shape": [2]},
        {"name": "layer2.weights", "offset": 12, "shape": [2, 2, 1]},
        {"name": "layer4.weights", "offset": 16, "shape": [2, 3]},
        {"name": "layer4.bias", "offset": 22, "shape": [3]},
    ],
}


def assert_same_layers(got: ModelSpec, want: ModelSpec) -> None:
    """Same dims, name and layer kinds, every scalar equal and every array equal."""
    assert (got.input_dims, got.name) == (want.input_dims, want.name)
    assert [type(l) for l in got.layers] == [type(l) for l in want.layers]
    for g, w in zip(got.layers, want.layers):
        for name, value in vars(w).items():
            other = getattr(g, name)
            if name == "adjacency":
                assert other.J == value.J and np.array_equal(other.matrices, value.matrices)
            elif name == "bn" and value is not None:
                assert other.keys() == value.keys()
                assert all(np.array_equal(other[k], value[k]) for k in value)
            elif isinstance(value, np.ndarray):
                assert np.array_equal(other, value), name
            else:
                assert other == value, name


def test_model_file_format_is_pinned(tmp_path):
    """The document and blob of one layer of each kind, byte for byte, and
    their load: arrays come from the blob, never from a JSON entry."""
    import json

    spec = pin_spec()
    path = tmp_path / "pin.json"
    spec.to_json_file(path)
    assert json.loads(path.read_text()) == PIN_DOC
    blob = np.fromfile(tmp_path / "pin.weights.bin", dtype="<f8")
    want = [0.5, -1.0, 0.25, -0.5, 1.0, 2.0, 0.0, 0.125, 0.5, -0.5, 1.0, 4.0, 1.0, 0.5, -0.5, 2.0,
            1.0, 0.0, -1.0, 0.5, 0.25, 2.0, 0.1, 0.2, 0.3]
    assert np.array_equal(blob, want)
    assert_same_layers(ModelSpec.from_json_file(path), spec)

    doc = json.loads(path.read_text())
    doc["layers"][0]["weights"] = [[[9.0, 9.0]]]
    doc["layers"][4]["weights"] = [[9.0] * 3] * 2
    path.write_text(json.dumps(doc))
    assert_same_layers(ModelSpec.from_json_file(path), spec)


def test_seed_based_weights_from_json(tmp_path):
    import json

    doc = {
        "name": "seeded",
        "seed": 41,
        "input": {"B": 1, "C": 2, "T": 8, "J": 3},
        "layers": [
            {
                "type": "spatial_conv",
                "c_in": 2,
                "c_out": 3,
                "adjacency": {"J": 3, "partitions": [{"edges": [[0, 1], [1, 2]]}]},
            },
            {"type": "activation", "a": 0.1, "b": 1.0, "c": 0.0, "pruned": False},
            {"type": "global_avg_pool"},
            {"type": "fully_connected", "c_in": 3, "classes": 2},
        ],
    }
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps(doc))
    spec1 = ModelSpec.from_json_file(path)
    spec2 = ModelSpec.from_json_file(path)
    x = GraphTensor.random(spec1.input_dims, seed=1)
    r1 = engine.plaintext_reference(spec1, x)
    np.testing.assert_array_equal(r1, engine.plaintext_reference(spec2, x))
    res = engine.run_model(spec1, x, "ama")
    np.testing.assert_allclose(res.scores, r1, atol=1e-9)


def test_acceptance_model_geometry_is_clean():
    spec = acceptance_stgcn3()
    B, C, T, J = spec.input_dims
    assert (B, C, T, J) == (1, 8, 32, 25)
    widths = [l.c_out for l in spec.layers if isinstance(l, SpatialConv)]
    assert widths == [32, 64, 64]
    # capacity at slot 1024 is 32 blocks; every width divides or is a
    # multiple of it, keeping the giant-step schedule on the clean path
    for w in [C] + widths:
        assert 32 % w == 0 or w % 32 == 0


def test_reference_model_shape():
    spec = reference_stgcn3()
    assert spec.input_dims[2:] == (256, 25)
    temporal = [l for l in spec.layers if isinstance(l, TemporalConv)]
    assert [l.kernel for l in temporal] == [9, 9, 9]
    assert [l.stride for l in temporal] == [1, 2, 1]
    fc = spec.layers[-1]
    assert fc.classes == 60
