"""The plaintext oracle against the einsum form it was first written in.

``plaintext_reference`` runs each conv as BLAS products over owned buffers
and its epilogues in place; ``einsum_reference`` below is the direct form,
one ``einsum`` per partition or tap, that it must keep matching.  Also
pinned: the oracle reads its inputs only, stays independent of the kernels
it checks, and keeps its memory peak near a few feature maps.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hegcn import engine
from hegcn.adjacency import AdjacencySet
from hegcn.engine import plaintext_reference
from hegcn.model import (
    Activation,
    FullyConnected,
    GlobalAvgPool,
    ModelSpec,
    SpatialConv,
    TemporalConv,
    acceptance_stgcn3,
    reference_stgcn3,
)
from hegcn.packing import GraphTensor


def einsum_batch_norm(h, bn):
    """Inference batch norm over the channel axis of (B, C, T, J), into a new array."""
    if bn is None:
        return h
    scale = np.asarray(bn["gamma"]) / np.sqrt(np.asarray(bn["var"]) + bn.get("eps", 1e-5))
    shift = np.asarray(bn["beta"]) - np.asarray(bn["mean"]) * scale
    return h * scale[None, :, None, None] + shift[None, :, None, None]


def einsum_reference(spec, x):
    """The oracle as one einsum per spatial partition and per temporal tap
    on strided slices of the zero-padded input, each epilogue a new array."""
    h = x.data.copy()
    pooled = scores = None
    for layer in spec.layers:
        if isinstance(layer, SpatialConv):
            out = 0.0
            for w, n in zip(layer.weights, layer.adjacency.normalized()):
                out = out + np.einsum("co,bctk->botk", w, h @ n.T, optimize=True)
            if layer.bias is not None:
                out = out + layer.bias[None, :, None, None]
            h = einsum_batch_norm(out, layer.bn)
        elif isinstance(layer, TemporalConv):
            B, C, T, J = h.shape
            half = (layer.kernel - 1) // 2
            padded = np.zeros((B, C, T + 2 * half, J))
            padded[:, :, half : half + T, :] = h
            t_out = math.ceil(T / layer.stride)
            out = np.zeros((B, layer.channels, t_out, J))
            for kappa in range(layer.kernel):
                sl = padded[:, :, kappa : kappa + T : layer.stride, :][:, :, :t_out, :]
                out += np.einsum("oc,bctj->botj", layer.weights[:, :, kappa], sl, optimize=True)
            if layer.bias is not None:
                out += layer.bias[None, :, None, None]
            h = einsum_batch_norm(out, layer.bn)
        elif isinstance(layer, Activation):
            if not layer.pruned:
                h = layer.a * h * h + layer.b * h + layer.c
        elif isinstance(layer, GlobalAvgPool):
            pooled = h.mean(axis=(2, 3))
        elif isinstance(layer, FullyConnected):
            scores = pooled @ layer.weights + layer.bias
    return scores


def random_adjacency(rng, J, P):
    """P random symmetric 0/1 partitions of J joints; partition 0 holds the self loops."""
    mats = []
    for p in range(P):
        m = np.triu(rng.random((J, J)) < 0.4, 1).astype(float)
        m = m + m.T
        if p == 0:
            m += np.eye(J)
        mats.append(m)
    return AdjacencySet(mats)


def random_bn(rng, n):
    return {
        "gamma": rng.uniform(0.5, 1.5, n),
        "beta": rng.normal(0, 0.2, n),
        "mean": rng.normal(0, 0.2, n),
        "var": rng.uniform(0.5, 1.5, n),
        "eps": 1e-5,
    }


def random_model(rng, P, B, K, stride, T, bn, bias, pruned):
    """spatial, activation, temporal (K, stride), activation, temporal (K,
    stride 1), pooling and a head, on J = 5 joints; ``bias`` False gives the
    spatial conv no bias, ``pruned`` prunes the first activation."""
    J, c_in, c1, c2 = 5, int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
    t_mid = math.ceil(T / stride)
    k2 = min(K, t_mid - (t_mid + 1) % 2)  # the largest odd kernel up to K that fits t_mid frames
    layers = [
        SpatialConv(c_in, c1, random_adjacency(rng, J, P), rng.normal(size=(P, c_in, c1)),
                    rng.normal(size=c1) if bias else None, random_bn(rng, c1) if bn else None),
        Activation(*rng.uniform(-0.5, 0.5, 3), pruned=pruned),
        TemporalConv(c1, K, stride, rng.normal(size=(c1, c1, K)), rng.normal(size=c1), random_bn(rng, c1) if bn else None),
        Activation(*rng.uniform(-0.5, 0.5, 3)),
        SpatialConv(c1, c2, random_adjacency(rng, J, P), rng.normal(size=(P, c1, c2))),
        TemporalConv(c2, k2, 1, rng.normal(size=(c2, c2, k2)), None, random_bn(rng, c2) if not bn else None),
        GlobalAvgPool(),
        FullyConnected(c2, 3, rng.normal(size=(c2, 3)), rng.normal(size=3)),
    ]  # fmt: skip
    return ModelSpec((B, c_in, T, J), layers)


@pytest.mark.parametrize("P,K,stride", list(itertools.product([1, 2, 3], [1, 3, 5, 7, 9], [1, 2])))
def test_matches_the_einsum_form(P, K, stride):
    """A seeded sweep over partitions, batch, odd and even frame counts,
    kernels and strides, with batch norm on and off, a spatial conv without
    bias and pruned activations."""
    for i, (B, odd) in enumerate(itertools.product([1, 2, 3], [False, True])):
        rng = np.random.default_rng([P, K, stride, i])
        T = K + 2 if odd else K + 3  # K is odd
        spec = random_model(rng, P, B, K, stride, T, bn=(i // 2 + i) % 2 == 0, bias=i % 3 != 0, pruned=i % 3 == 1)
        x = GraphTensor(rng.uniform(-1, 1, spec.input_dims))
        np.testing.assert_allclose(plaintext_reference(spec, x), einsum_reference(spec, x), rtol=0, atol=1e-12)


def test_reference_and_acceptance_models_match_the_einsum_form():
    for spec in (reference_stgcn3(c_in=4), acceptance_stgcn3()):
        x = GraphTensor.random(spec.input_dims, seed=3)
        np.testing.assert_allclose(plaintext_reference(spec, x), einsum_reference(spec, x), rtol=0, atol=1e-12)


def layer_arrays(spec):
    """Every array a layer of ``spec`` holds, batch norm and adjacency included."""
    arrays = []
    for layer in spec.layers:
        for name in ("weights", "bias"):
            if getattr(layer, name, None) is not None:
                arrays.append(getattr(layer, name))
        arrays += [np.asarray(v) for v in (getattr(layer, "bn", None) or {}).values()]
        if isinstance(layer, SpatialConv):
            arrays += [*layer.adjacency.matrices, layer.adjacency.normalized()]
    return arrays


def test_reads_its_inputs_only():
    """After a call, ``x.data`` and every layer array hold what they held,
    with an activation first, whose epilogue runs in place."""
    rng = np.random.default_rng(5)
    spec = random_model(rng, P=2, B=2, K=3, stride=2, T=8, bn=True, bias=True, pruned=False)
    spec = ModelSpec(spec.input_dims, [Activation(0.1, 0.5, 0.2), *spec.layers])
    x = GraphTensor(rng.uniform(-1, 1, spec.input_dims))
    before = [a.copy() for a in [x.data, *layer_arrays(spec)]]
    plaintext_reference(spec, x)
    for a, b in zip([x.data, *layer_arrays(spec)], before, strict=True):
        np.testing.assert_array_equal(a, b)


def test_calls_no_kernel_it_checks():
    """The oracle's functions name no hesim, packing or adjacency kernel,
    no batch-norm fold and no merged matrix."""
    oracle = (
        engine.plaintext_reference,
        engine.spatial_reference,
        engine.temporal_reference,
        engine._bias_and_bn,
        engine._batch_norm,
    )
    names = {name for f in oracle for name in f.__code__.co_names}
    forbidden = {"hesim", "packing", "costmodel", "fold_bn", "merge_spatial", "decompose", "diagonal_offsets", "MergedSpatialMatrix", "matrices"}
    assert not names & forbidden, names & forbidden


def test_peak_memory_is_a_few_feature_maps():
    """On the reference model the traced peak of one call stays within
    4.5 times the widest (B, C, T, J) feature map (6.25 MiB at 128
    channels and 256 frames)."""
    spec = reference_stgcn3(c_in=4)
    x = GraphTensor.random(spec.input_dims, seed=1)
    B, _, _, J = spec.input_dims
    widest = max(B * c * t * J * 8 for c, t, pooled in spec.shape_walk() if not pooled)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plaintext_reference(spec, x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * widest, (peak, widest)
