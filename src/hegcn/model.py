"""Model descriptions: layer stack, shapes, weights and JSON (de)serialization.

A model is an ordered list of layers over a (B, C, T, J) input:

* ``SpatialConv`` -- adjacency-based joint mixing fused with the 1x1
  channel convolution (one multiplicative level);
* ``TemporalConv`` -- K x 1 convolution along frames, SAME zero padding,
  optional stride 2 (one level);
* ``Activation`` -- degree-2 polynomial a*x^2 + b*x + c (two levels), or a
  pruned no-op;
* ``GlobalAvgPool`` -- mean over valid frames and all joints (one level);
* ``FullyConnected`` -- class scores from pooled channels (one level).

Weights can be generated from a seed or stored as a flat float64 blob next
to the JSON manifest.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from hegcn.adjacency import AdjacencySet, chain_skeleton_25


@dataclass
class SpatialConv:
    c_in: int
    c_out: int
    adjacency: AdjacencySet
    weights: np.ndarray  # (partitions, c_in, c_out)
    bias: np.ndarray | None = None
    bn: dict | None = None

    kind = "spatial_conv"
    levels = 1

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        expect = (self.adjacency.partitions, self.c_in, self.c_out)
        if self.weights.shape != expect:
            raise ValueError(f"spatial weights shape {self.weights.shape} != {expect}")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)


@dataclass
class TemporalConv:
    channels: int
    kernel: int
    stride: int = 1
    weights: np.ndarray = None  # (c_out=channels, c_in=channels, kernel)
    bias: np.ndarray | None = None
    bn: dict | None = None

    kind = "temporal_conv"
    levels = 1

    def __post_init__(self):
        if self.kernel % 2 == 0:
            raise ValueError(f"temporal kernel must be odd, got {self.kernel}")
        if self.stride not in (1, 2):
            raise ValueError("stride must be 1 or 2")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        expect = (self.channels, self.channels, self.kernel)
        if self.weights.shape != expect:
            raise ValueError(f"temporal weights shape {self.weights.shape} != {expect}")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)


@dataclass
class Activation:
    a: float = 0.0
    b: float = 1.0
    c: float = 0.0
    pruned: bool = False

    kind = "activation"

    @property
    def levels(self) -> int:
        return 0 if self.pruned else 2


@dataclass
class GlobalAvgPool:
    kind = "global_avg_pool"
    levels = 1


@dataclass
class FullyConnected:
    c_in: int
    classes: int
    weights: np.ndarray = None  # (c_in, classes)
    bias: np.ndarray | None = None

    kind = "fully_connected"
    levels = 1

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (self.c_in, self.classes):
            raise ValueError("fully-connected weights must be (c_in, classes)")
        if self.bias is None:
            self.bias = np.zeros(self.classes)
        self.bias = np.asarray(self.bias, dtype=np.float64)


@dataclass
class ModelSpec:
    """Input dims plus an ordered, shape-checked layer list."""

    input_dims: tuple[int, int, int, int]  # (B, C, T, J)
    layers: list
    name: str = "model"

    def __post_init__(self):
        self.input_dims = tuple(int(d) for d in self.input_dims)
        self.validate()

    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Shape-check the stack.  Pooling ends the graph part: after a
        ``GlobalAvgPool`` only one ``FullyConnected`` head may follow, and
        nothing follows the head.  A stack without a head is valid."""
        head = None
        for i, (layer, (c, t_valid, pooled)) in enumerate(zip(self.layers, self.shape_walk()[:-1])):
            if head is not None:
                raise ValueError(f"{self.labels()[i]} follows the fully-connected head {self.labels()[head]}")
            if pooled and not isinstance(layer, FullyConnected):
                raise ValueError(f"{self.labels()[i]} after pooling: only a fully-connected head may follow it")
            if isinstance(layer, SpatialConv):
                if layer.c_in != c:
                    raise ValueError(f"spatial conv expects {layer.c_in} channels, gets {c}")
                if layer.adjacency.J != self.input_dims[3]:
                    raise ValueError("adjacency size does not match joint count")
            elif isinstance(layer, TemporalConv):
                if layer.channels != c:
                    raise ValueError(f"temporal conv expects {layer.channels} channels, gets {c}")
                if layer.kernel > t_valid:
                    raise ValueError(f"kernel {layer.kernel} exceeds {t_valid} valid frames")
            elif isinstance(layer, FullyConnected):
                if not pooled:
                    raise ValueError("fully-connected layer requires pooled features")
                if layer.c_in != c:
                    raise ValueError(f"fully-connected expects {layer.c_in} channels, gets {c}")
                head = i

    def shape_walk(self) -> list[tuple[int, int, bool]]:
        """(channels, valid frames, pooled?) before each layer and at the end."""
        B, C, T, J = self.input_dims
        states = [(C, T, False)]
        c, t, pooled = C, T, False
        for layer in self.layers:
            if isinstance(layer, SpatialConv):
                c = layer.c_out
            elif isinstance(layer, TemporalConv):
                t = math.ceil(t / layer.stride)
            elif isinstance(layer, GlobalAvgPool):
                pooled = True
            elif isinstance(layer, FullyConnected):
                c = layer.classes
            states.append((c, t, pooled))
        return states

    def labels(self) -> list[str]:
        """Stable per-layer labels used by counters and reports."""
        return [f"{i:02d}-{layer.kind}" for i, layer in enumerate(self.layers)]

    def activation_indices(self) -> list[int]:
        """Positions (within the activation list) of non-pruned activations."""
        return [
            i
            for i, layer in enumerate(
                [l for l in self.layers if isinstance(l, Activation)]
            )
            if not layer.pruned
        ]

    def prune_activations(self, indices) -> "ModelSpec":
        """Copy of the model with the given activation indices pruned."""
        indices = set(indices)
        layers = []
        act_i = 0
        for layer in self.layers:
            if isinstance(layer, Activation):
                pruned = layer.pruned or act_i in indices
                layers.append(Activation(layer.a, layer.b, layer.c, pruned))
                act_i += 1
            else:
                layers.append(layer)
        return ModelSpec(self.input_dims, layers, name=self.name)

    # ------------------------------------------------------------------
    # JSON + weight blob round trip

    def to_json_file(self, path: str) -> None:
        blob_path = os.path.splitext(path)[0] + ".weights.bin"
        manifest, blob = [], []
        offset = 0

        def put(name, arr):
            nonlocal offset
            arr = np.ascontiguousarray(arr, dtype="<f8")
            manifest.append({"name": name, "offset": offset, "shape": list(arr.shape)})
            blob.append(arr.tobytes())
            offset += arr.size

        def put_bias_bn(i, layer, entry):
            if layer.bias is not None:
                put(f"layer{i}.bias", layer.bias)
                entry["has_bias"] = True
            if layer.bn is not None:
                for key in ("gamma", "beta", "mean", "var"):
                    put(f"layer{i}.bn.{key}", np.asarray(layer.bn[key]))
                entry["bn_eps"] = float(layer.bn.get("eps", 1e-5))

        spec_layers = []
        for i, layer in enumerate(self.layers):
            entry = {"type": layer.kind}
            if isinstance(layer, SpatialConv):
                entry.update(c_in=layer.c_in, c_out=layer.c_out)
                entry["adjacency"] = json.loads(layer.adjacency.to_json())
                put(f"layer{i}.weights", layer.weights)
                put_bias_bn(i, layer, entry)
            elif isinstance(layer, TemporalConv):
                entry.update(channels=layer.channels, kernel=layer.kernel, stride=layer.stride)
                put(f"layer{i}.weights", layer.weights)
                put_bias_bn(i, layer, entry)
            elif isinstance(layer, Activation):
                entry.update(a=layer.a, b=layer.b, c=layer.c, pruned=layer.pruned)
            elif isinstance(layer, FullyConnected):
                entry.update(c_in=layer.c_in, classes=layer.classes)
                put(f"layer{i}.weights", layer.weights)
                put(f"layer{i}.bias", layer.bias)
            spec_layers.append(entry)

        B, C, T, J = self.input_dims
        doc = {
            "name": self.name,
            "input": {"B": B, "C": C, "T": T, "J": J},
            "layers": spec_layers,
            "weights": os.path.basename(blob_path),
            "manifest": manifest,
        }
        with open(path, "w") as fp:
            json.dump(doc, fp, indent=2, sort_keys=True)
        with open(blob_path, "wb") as fp:
            fp.write(b"".join(blob))

    @classmethod
    def from_json_file(cls, path: str) -> "ModelSpec":
        with open(path) as fp:
            doc = json.load(fp)
        if "weights" in doc:
            blob_path = os.path.join(os.path.dirname(os.path.abspath(path)), doc["weights"])
            flat = np.fromfile(blob_path, dtype="<f8")
            arrays = {}
            for entry in doc["manifest"]:
                size = int(np.prod(entry["shape"])) if entry["shape"] else 1
                arrays[entry["name"]] = flat[entry["offset"] : entry["offset"] + size].reshape(
                    entry["shape"]
                )
        elif "seed" in doc:
            arrays = _seeded_weights(doc)
        else:
            raise ValueError("model JSON needs either a weights blob or a seed")

        def bn_of(i, entry):
            if f"layer{i}.bn.gamma" not in arrays:
                return None
            return {
                "gamma": arrays[f"layer{i}.bn.gamma"],
                "beta": arrays[f"layer{i}.bn.beta"],
                "mean": arrays[f"layer{i}.bn.mean"],
                "var": arrays[f"layer{i}.bn.var"],
                "eps": entry.get("bn_eps", 1e-5),
            }

        layers = []
        for i, entry in enumerate(doc["layers"]):
            kind = entry["type"]
            if kind == "spatial_conv":
                adj = AdjacencySet.from_json(json.dumps(entry["adjacency"]))
                layers.append(
                    SpatialConv(
                        entry["c_in"],
                        entry["c_out"],
                        adj,
                        arrays[f"layer{i}.weights"],
                        arrays.get(f"layer{i}.bias"),
                        bn_of(i, entry),
                    )
                )
            elif kind == "temporal_conv":
                layers.append(
                    TemporalConv(
                        entry["channels"],
                        entry["kernel"],
                        entry["stride"],
                        arrays[f"layer{i}.weights"],
                        arrays.get(f"layer{i}.bias"),
                        bn_of(i, entry),
                    )
                )
            elif kind == "activation":
                layers.append(
                    Activation(entry["a"], entry["b"], entry["c"], entry.get("pruned", False))
                )
            elif kind == "global_avg_pool":
                layers.append(GlobalAvgPool())
            elif kind == "fully_connected":
                layers.append(
                    FullyConnected(
                        entry["c_in"],
                        entry["classes"],
                        arrays[f"layer{i}.weights"],
                        arrays[f"layer{i}.bias"],
                    )
                )
            else:
                raise ValueError(f"unknown layer type {kind!r}")
        inp = doc["input"]
        return cls((inp["B"], inp["C"], inp["T"], inp["J"]), layers, name=doc.get("name", "model"))


def _seeded_weights(doc: dict) -> dict[str, np.ndarray]:
    """Deterministic random weights for a blob-less model document.

    Fan-in-scaled normals, one RNG stream per document seed, drawn in layer
    order so the result is reproducible across runs and platforms.
    """
    rng = np.random.default_rng(int(doc["seed"]))
    arrays: dict[str, np.ndarray] = {}
    for i, entry in enumerate(doc["layers"]):
        kind = entry["type"]
        if kind == "spatial_conv":
            p = len(entry["adjacency"]["partitions"])
            c_in, c_out = entry["c_in"], entry["c_out"]
            arrays[f"layer{i}.weights"] = rng.normal(
                0, 1, (p, c_in, c_out)
            ) / math.sqrt(p * c_in)
            if entry.get("has_bias"):
                arrays[f"layer{i}.bias"] = rng.normal(0, 0.1, c_out)
        elif kind == "temporal_conv":
            c, k = entry["channels"], entry["kernel"]
            arrays[f"layer{i}.weights"] = rng.normal(0, 1, (c, c, k)) / math.sqrt(c * k)
            if entry.get("has_bias"):
                arrays[f"layer{i}.bias"] = rng.normal(0, 0.1, c)
        elif kind == "fully_connected":
            c_in, classes = entry["c_in"], entry["classes"]
            arrays[f"layer{i}.weights"] = rng.normal(0, 1, (c_in, classes)) / math.sqrt(c_in)
            arrays[f"layer{i}.bias"] = rng.normal(0, 0.1, classes)
    return arrays


# ----------------------------------------------------------------------
# builders


def random_stgcn(
    input_dims,
    widths,
    adjacency: AdjacencySet,
    classes: int,
    kernel: int = 3,
    stride2_at: int | None = None,
    seed: int = 0,
    with_bn: bool = False,
    act_coeffs=(0.05, 1.0, 0.08),
    name: str = "stgcn",
) -> ModelSpec:
    """Stack of (spatial, act, temporal, act) blocks plus pooling and FC.

    Weight magnitudes shrink with fan-in so deep stacks keep values tame;
    that keeps exact float64 oracle comparisons meaningful.
    """
    rng = np.random.default_rng(seed)
    B, C, T, J = input_dims
    P = adjacency.partitions
    layers = []
    c_prev = C
    for i, width in enumerate(widths):
        w_sp = rng.normal(0, 1.0, size=(P, c_prev, width)) / math.sqrt(P * c_prev)
        sp_bias = rng.normal(0, 0.1, size=width)
        bn = None
        if with_bn:
            bn = {
                "gamma": rng.uniform(0.8, 1.2, size=width),
                "beta": rng.normal(0, 0.1, size=width),
                "mean": rng.normal(0, 0.1, size=width),
                "var": rng.uniform(0.5, 1.5, size=width),
                "eps": 1e-5,
            }
        layers.append(SpatialConv(c_prev, width, adjacency, w_sp, sp_bias, bn))
        a, b, c = act_coeffs
        layers.append(Activation(a, b, c))
        w_tc = rng.normal(0, 1.0, size=(width, width, kernel)) / math.sqrt(width * kernel)
        tc_bias = rng.normal(0, 0.1, size=width)
        layers.append(
            TemporalConv(width, kernel, 2 if stride2_at == i else 1, w_tc, tc_bias, None)
        )
        layers.append(Activation(a, b, c))
        c_prev = width
    layers.append(GlobalAvgPool())
    w_fc = rng.normal(0, 1.0, size=(c_prev, classes)) / math.sqrt(c_prev)
    layers.append(FullyConnected(c_prev, classes, w_fc, rng.normal(0, 0.1, size=classes)))
    return ModelSpec(input_dims, layers, name=name)


def reference_stgcn3(c_in: int = 4, base: int = 64, seed: int = 7) -> ModelSpec:
    """Three-block network shaped like the 64-channel evaluation model.

    J=25 stand-in skeleton, T=256 frames, kernel 9, channels
    base -> 2*base -> 2*base with one temporal stride 2, 60 classes.
    """
    return random_stgcn(
        (1, c_in, 256, 25),
        widths=[base, 2 * base, 2 * base],
        adjacency=chain_skeleton_25(),
        classes=60,
        kernel=9,
        stride2_at=1,
        seed=seed,
        name=f"{base}-stgcn-3",
    )


def acceptance_stgcn3(seed: int = 11) -> ModelSpec:
    """Small 3-block model with clean packing geometry for exact reconciliation.

    All channel widths divide or are multiples of the 32-block ciphertext
    capacity used in the acceptance run (slot_count 1024, T 32), so the
    measured counters land exactly on the analytic per-layer formulas.
    """
    return random_stgcn(
        (1, 8, 32, 25),
        widths=[32, 64, 64],
        adjacency=chain_skeleton_25(),
        classes=10,
        kernel=5,
        stride2_at=1,
        seed=seed,
        name="acceptance-stgcn-3",
    )
