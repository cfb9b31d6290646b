"""Encrypted graph-convolution pipeline over AMA and row-major packings.

Scheduling follows two rules that pin the operation counts to the analytic
cost model:

* rotations of *input* ciphertexts (temporal taps, row-major diagonals) are
  computed once per ciphertext and shared across all consumers;
* channel accumulation inside a ciphertext rotates per-output partial sums
  ("giant steps"), with the per-position constants, channel-selection masks
  and boundary masks all fused into a single plaintext vector per term, so
  every layer costs exactly one plaintext-multiplication level.

Execution is batched; the schedule and its counts are those of a
per-ciphertext loop.  A feature map is one stack of ciphertexts in layout
order, and every kernel reads it whole and writes one output stack: no
kernel creates a ciphertext per row.  Every kernel counts in the context
of its input stack (``fm.ct.ctx``).  Every linear layer, the classifier
head included, is one prebuilt operator applied by one
``SimContext.fold_steps`` to the input stack; the operators run their
sources in chunks of their own, and the engine has no chunk loop.  An AMA
channel fold is built from one coefficient table over (step, row, term,
output block), the same for every joint, gathered in one vectorized step
from the giant steps ``_giant_steps`` lists.  A temporal conv is a
``hesim.BlockCirculant`` that carries the tap rotations (the baby steps)
and the tap masks, each joint's inputs one source set; within each block
it multiplies only the positions some tap mask keeps (half of them after a
stride 2).  A spatial conv is one ``hesim.Mixed``, built straight from the
factors of the merged sum_p N_p * W_p: its block-circulant matrix holds
the P weight slabs, with terms (partition, group), and it holds the input
joint of every (output joint, piece), the rows of the pieces ``decompose``
finds, and the partition entries; it gathers and mixes the ciphertexts of
each chunk of output joints, multiplies the mixes by the matrix, and
counts what the merged coefficients would.  A row-major conv is one
operator per layer, applied to every sample's input channels at once: a
temporal one a ``hesim.Diagonals`` of its taps, a spatial one a
``hesim.MixedDiagonals`` of the factors, which mixes the joints of every
frame row by each partition and applies the weight slabs as one GEMM, the
row-major counterpart of ``hesim.Mixed``.  The classifier head is an AMA
``hesim.BlockCirculant`` with the single giant step 0, rows classes and
terms the pooled group ciphertexts, whose blocks one rotate-and-sum then
adds, or a row-major ``hesim.Diagonals`` with the single shift 0 and the
weight rows as per-frame factors; its bias is one Add (``_add_bias``).
Rows are joints (AMA temporal), output joints (AMA spatial), output
channels (row-major conv) or classes (AMA head), terms are the rotated
inputs a row sums, and a term is skipped exactly where its coefficients,
merged over the partitions, are all zero.  A conv layer's ``fold_steps``
call also writes the rows no term reaches as encrypted zeros and adds the
layer's bias, given as broadcast rows of the output stack (``_bias_rows``)
and encrypted once, in place.  The elementwise kernels are one fused hesim
op each: an activation is one ``SimContext.poly``, and the rotate-and-sum
trees of pooling and of the AMA classifier are one
``SimContext.rotate_sum``; each counts and logs what its chain of single
ops did, in that chain's order.  Every count, including the input, tap and
giant-step rotations and the adds of partial sums, comes from hesim.

Values at padding slots, masked-out strided frames and replica copies are
allowed to go stale; every consumer reads only through masks or anchor
slots, and the plaintext reference implementation is the ground truth all
paths are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hegcn import costmodel, hesim, packing
from hegcn.adjacency import MergedSpatialMatrix, decompose, diagonal_offsets, fold_bn, merge_spatial
from hegcn.hesim import SimCiphertext, SimContext
from hegcn.model import (
    Activation,
    FullyConnected,
    GlobalAvgPool,
    ModelSpec,
    SpatialConv,
    TemporalConv,
)
from hegcn.packing import AMA, ROWMAJOR, GraphTensor, PackingLayout, next_pow2


class DepthBudgetError(Exception):
    """The model needs more multiplicative levels than the context offers."""

    def __init__(self, message, layer=None):
        super().__init__(message)
        self.layer = layer


@dataclass
class EncryptedFeatureMap:
    """One stack of ciphertexts, in layout order, plus the layout metadata
    needed to keep evaluating.

    ``ct`` holds the ``layout.ct_count()`` ciphertexts of the map (AMA:
    joint-major, ``PackingLayout.ama_ct_index``; row-major: (sample,
    channel)), or after pooling the pooled ones.  ``t_stride`` and
    ``t_valid`` track strided temporal downsampling: valid frames sit at
    physical positions that are multiples of the stride, the rest of the
    lattice is stale.  ``pooled`` feature maps hold one value per channel at
    block anchor slots.
    """

    ct: SimCiphertext
    layout: PackingLayout
    t_stride: int = 1
    t_valid: int = 0
    pooled: bool = False

    def __post_init__(self):
        if self.t_valid == 0:
            self.t_valid = self.layout.T

    @property
    def level(self) -> int:
        return self.ct.level


def default_slot_count(dims) -> int:
    """Smallest power of two that fits both packings of the given tensor."""
    B, C, T, J = dims
    return next_pow2(max(T * J, next_pow2(B * T)))


# ----------------------------------------------------------------------
# shared helpers

def _bias_rows(layout: PackingLayout, bias: np.ndarray) -> np.ndarray:
    """A conv layer's per-channel ``bias`` as the rows of its output stack,
    broadcast views that ``SimContext.fold_steps`` encrypts once: AMA (J, G,
    slots), uniform within each channel block and the same for every joint;
    row-major (B, C, T*J), one value per (sample, channel) over the grid."""
    if layout.kind == AMA:
        rows = np.repeat(bias[layout.block_channels()], layout.pad_bt, axis=1)
        return np.broadcast_to(rows, (layout.J,) + rows.shape)
    return np.broadcast_to(bias[:, None], (layout.B, layout.C, layout.T * layout.J))


def _giant_steps(lin: PackingLayout, lout: PackingLayout):
    """The giant steps of an AMA channel fold from ``lin`` to ``lout``.

    Returns the rotation amounts (S,), the (H, cap) channel of every output
    block, the (S, G, cap) input channel step s brings to block position p
    of group g (a rotation by delta blocks brings block p + delta), and the
    (S, G, cap) mask of the positions each step serves.
    """
    cap, G = lin.capacity, lin.cts_per_joint
    sizes = [lin.group_size(g) for g in range(G)]
    cover = {n: packing.giant_step_coverage(cap, n) for n in set(sizes)}
    deltas = np.array(sorted({d for sel in cover.values() for d in sel}))
    never = np.zeros(cap, dtype=bool)
    serves = np.array([[cover[n].get(d, never) for n in sizes] for d in deltas])
    reads = lin.block_channels()[np.arange(G)[:, None], (np.arange(cap) + deltas[:, None, None]) % cap]
    return deltas * lin.pad_bt, lout.block_channels(), reads, serves


def _add_bias(ct, bias_slots) -> SimCiphertext:
    """ct + an encrypted bias; a stack takes one bias row per ciphertext
    (a broadcast of the distinct rows is encrypted once)."""
    ctx = ct.ctx
    return ctx.add(ct, ctx.mod_switch(ctx.encrypt(bias_slots), ct.level))


# ----------------------------------------------------------------------
# spatial convolution


def ama_spatial(fm: EncryptedFeatureMap, merged: MergedSpatialMatrix) -> EncryptedFeatureMap:
    """Rotation-free joint mixing: one PMult per (piece, group, giant step).

    The pieces are the shared patterned decomposition of the joint-mixing
    action (columns indexed by output joint), taken from the merged
    pattern.  Rows of the fold are output joints, each reading the input
    joint its pieces name.

    The fold is evaluated factored, as the merged form N_p * W_p allows:
    the layer is one ``hesim.Mixed``, built straight from the factors.  Its
    block-circulant matrix holds the P weight slabs, with terms (partition,
    group), and it holds the input joint of every (output joint, piece) and
    the (P, m) partition entries of each output joint.  It gathers and
    mixes the m * G ciphertexts of each chunk of output joints and
    multiplies the mixes by that matrix.  The counts are those of the
    merged coefficients, one ciphertext at a time: a (piece, group) term
    runs where sum_p N_p[k, j] * W_p[c, o] is not zero.
    """
    lin = fm.layout
    if lin.kind != AMA:
        raise ValueError("ama_spatial needs an AMA-packed feature map")
    if lin.C != merged.c_in:
        raise ValueError(f"feature map carries {lin.C} channels, merged matrix wants {merged.c_in}")
    if fm.level < 1:
        raise hesim.LevelError("level exhausted before spatial conv")
    # column k of the action matrix feeds output joint k, so the merged
    # pattern (output-joint rows) is transposed before decomposing; reads[k]
    # holds the input joint of (output joint k, piece), -1 where the piece
    # has no entry (a zero matrix has no pieces: one empty piece gives every
    # output zero)
    J = lin.J
    rows = decompose(merged.pattern.T)
    reads = (rows if len(rows) else np.full((1, J), -1)).T
    lout = packing.ama_layout((lin.B, merged.c_out, lin.T, J), lin.slot_count)
    cap, G, H = lin.capacity, lin.cts_per_joint, lout.cts_per_joint
    amounts, out_chan, c_read, serves = _giant_steps(lin, lout)
    P = len(merged.weights)
    # weights over (step, h, partition, g, block), zero where the step does not serve
    w = merged.weights[np.arange(P)[:, None, None], c_read[:, None, None], out_chan[:, None, None, :]]
    w = np.where(serves[:, None, None], w, 0.0).reshape(len(amounts), H, P * G, cap)
    # partition entries N_p[k, j] of (output joint k, partition, piece); a
    # piece without an entry reads joint 0 with zeros
    mix = np.where(reads >= 0, merged.parts[:, np.arange(J)[:, None], np.maximum(reads, 0)], 0.0).transpose(1, 0, 2)
    op = hesim.Mixed(amounts, w, (cap, lin.pad_bt), mix, np.maximum(reads, 0), J)
    acc = fm.ct.ctx.fold_steps(fm.ct, op, _bias_rows(lout, merged.bias))
    return EncryptedFeatureMap(acc, lout, fm.t_stride, fm.t_valid)


def rowmajor_spatial(fm: EncryptedFeatureMap, merged: MergedSpatialMatrix) -> EncryptedFeatureMap:
    """Diagonal-method joint mixing on the flattened T x J grid.

    One rotation per nonzero generalized diagonal of the shared pattern
    (offset 0 free), shared across all output channels of an input
    ciphertext; reads past either end of a frame row are zero.  The layer
    is one ``hesim.MixedDiagonals`` of the factors: the joints are mixed
    by each partition, then the weight slabs are one GEMM, counted as the
    merged coefficients sum_p N_p * W_p would be.  A zero matrix has no
    diagonals and gives every output zero.
    """
    lin = fm.layout
    if lin.kind != ROWMAJOR:
        raise ValueError("rowmajor_spatial needs a row-major feature map")
    if lin.C != merged.c_in:
        raise ValueError(f"feature map carries {lin.C} channels, merged matrix wants {merged.c_in}")
    if fm.level < 1:
        raise hesim.LevelError("level exhausted before spatial conv")

    op = hesim.MixedDiagonals(merged.weights, merged.parts, diagonal_offsets(merged.pattern), (lin.T, lin.J), lin.slot_count)
    lout = packing.rowmajor_layout((lin.B, merged.c_out, lin.T, lin.J), lin.slot_count)
    acc = fm.ct.ctx.fold_steps(fm.ct, op, _bias_rows(lout, merged.bias))
    return EncryptedFeatureMap(acc, lout, fm.t_stride, fm.t_valid)


# ----------------------------------------------------------------------
# temporal convolution


def _temporal_tap_mask(
    pad: int, B: int, T: int, sigma_in: int, tv_in: int, stride: int, eps: np.ndarray
) -> np.ndarray:
    """Validity of each of the (K,) tap offsets ``eps`` at every within-block
    position, (K, pad).

    A position carries output frame l' when it lies on the output stride
    lattice; a tap contributes when the read frame s*l' + eps is a valid
    input frame.  Everything else (padding tail, off-lattice frames) is
    zeroed.
    """
    sigma_out = sigma_in * stride
    tv_out = math.ceil(tv_in / stride)
    tau = np.arange(pad)
    t = tau % T
    on_lattice = (tau < B * T) & (t % sigma_out == 0)
    lprime = t // sigma_out
    lread = lprime * stride + eps[:, None]
    return on_lattice & (lprime < tv_out) & (lread >= 0) & (lread < tv_in)


def temporal_conv(fm: EncryptedFeatureMap, layer: TemporalConv) -> EncryptedFeatureMap:
    """K-tap zero-padded temporal convolution with optional stride 2.

    Tap rotations are baby steps shared per input ciphertext (K-1 counted
    rotations each); channel mixing uses the same giant-step fold as the
    spatial layer.  Stride 2 is a masked decimation: the layout keeps its
    padding and odd frames simply go stale.
    """
    lin = fm.layout
    if layer.kernel > fm.t_valid:
        raise ValueError(f"kernel {layer.kernel} exceeds {fm.t_valid} valid frames")
    if fm.level < 1:
        raise hesim.LevelError("level exhausted before temporal conv")

    # merge batch-norm scale/shift into taps and bias up front
    scale, bias = fold_bn(layer.bias, layer.bn, layer.channels)
    W = layer.weights * scale[:, None, None]

    eps = np.arange(layer.kernel) - (layer.kernel - 1) // 2  # the frame offset of every tap
    masks = _temporal_tap_mask(lin.pad_bt, lin.B, lin.T, fm.t_stride, fm.t_valid, layer.stride, eps).astype(float)

    if lin.kind == AMA:
        out_fm = _temporal_ama(fm, W, bias, eps, masks)
    else:
        out_fm = _temporal_rowmajor(fm, W, bias, eps, masks)
    out_fm.t_stride = fm.t_stride * layer.stride
    out_fm.t_valid = math.ceil(fm.t_valid / layer.stride)
    return out_fm


def _temporal_ama(fm, W, bias, eps, masks):
    """Rows of the fold are joints, terms are (input group, tap).

    Block weights do not depend on the joint, so the block-circulant
    operator, taps included, is built once per layer and applied to the
    whole feature map, each joint's G inputs one source set; ``fold_steps``
    rotates them by the taps, in chunks of joints.
    """
    lin = fm.layout
    G, K = lin.cts_per_joint, len(eps)
    amounts, out_chan, c_read, serves = _giant_steps(lin, lin)
    # W over (step, h, g, tap, block)
    w = W[out_chan[:, None, None], c_read[:, None, :, None], np.arange(K)[:, None]]
    w = np.where(serves[:, None, :, None], w, 0.0)
    coef = w.reshape(len(amounts), G, G * K, lin.capacity)
    vec = np.tile(masks[:, None, :], (G, 1, 1))  # (g*tap, 1, pad)
    op = hesim.BlockCirculant(amounts, coef, (lin.capacity, lin.pad_bt), eps * fm.t_stride, vec)
    acc = fm.ct.ctx.fold_steps(fm.ct, op, _bias_rows(lin, bias))
    return EncryptedFeatureMap(acc, lin, fm.t_stride, fm.t_valid)


def _temporal_rowmajor(fm, W, bias, eps, masks):
    """One ``hesim.Diagonals`` of the K taps: terms are (tap, input channel), rows output channels."""
    lin = fm.layout
    # masks were built over one T-row; each frame row spans J slots
    op = hesim.Diagonals(eps * fm.t_stride * lin.J, W.transpose(2, 1, 0), (lin.T, lin.J), lin.slot_count, masks[:, None, : lin.T])
    acc = fm.ct.ctx.fold_steps(fm.ct, op, _bias_rows(lin, bias))
    return EncryptedFeatureMap(acc, lin, fm.t_stride, fm.t_valid)


# ----------------------------------------------------------------------
# activation, pooling, classifier head


def poly_activation(fm: EncryptedFeatureMap, a: float, b: float, c: float) -> EncryptedFeatureMap:
    """a*x^2 + b*x + c per slot: one ``SimContext.poly`` on the whole stack,
    counted as one CMult, two PMults and two Adds per ciphertext, two levels."""
    return EncryptedFeatureMap(fm.ct.ctx.poly(fm.ct, (a, b, c)), fm.layout, fm.t_stride, fm.t_valid, fm.pooled)


def global_avg_pool(fm: EncryptedFeatureMap) -> EncryptedFeatureMap:
    """Mean over valid frames and all joints; output anchored per channel.

    AMA: the J joint stacks of G group ciphertexts are summed (J-1 adds per
    group), a rotate-and-add halving tree folds the valid frames, then one
    masked PMult scales by 1/(frames*joints) and cleans every non-anchor
    slot.  Row-major: mask-scale first, then a full-slot halving fold leaves
    the mean replicated in every slot.  Each step is one op on the stack,
    and each tree one ``SimContext.rotate_sum``.
    """
    ctx = fm.ct.ctx
    lin = fm.layout
    if fm.level < 1:
        raise hesim.LevelError("level exhausted before pooling")
    tv, sigma = fm.t_valid, fm.t_stride
    if tv & (tv - 1):
        raise ValueError(f"pooling expects a power-of-two valid frame count, got {tv}")
    count = tv * lin.J

    if lin.kind == AMA:
        pad, cap = lin.pad_bt, lin.capacity
        mask = np.zeros(lin.slot_count)  # the anchor slot of every (block, sample)
        mask[np.arange(cap)[:, None] * pad + np.arange(lin.B) * lin.T] = 1.0 / count
        acc = ctx.rotate_sum(ctx.sum_parts(fm.ct, lin.J), [sigma * (tv >> (i + 1)) for i in range(int(math.log2(tv)))])
        return EncryptedFeatureMap(ctx.pmult(acc, mask), lin, sigma, tv, pooled=True)

    # row-major
    q = np.arange(lin.slot_count)
    t = q // lin.J
    valid = (q < lin.T * lin.J) & (t % sigma == 0) & (t // sigma < tv)
    halvings = [lin.slot_count >> (i + 1) for i in range(int(math.log2(lin.slot_count)))]
    acc = ctx.rotate_sum(ctx.pmult(fm.ct, np.where(valid, 1.0 / count, 0.0)), halvings)
    return EncryptedFeatureMap(acc, lin, sigma, tv, pooled=True)


def fully_connected(fm: EncryptedFeatureMap, weights: np.ndarray, bias: np.ndarray) -> SimCiphertext:
    """Class scores from a pooled feature map: one operator, one
    ``fold_steps`` and the bias add, like a conv layer.

    AMA: a ``hesim.BlockCirculant`` with the single giant step 0, rows
    classes and terms the G pooled group ciphertexts; a channel's weight
    sits on its first block copy (replica blocks weigh 0) and the factor
    keeps only the anchor slot of every sample, so each block holds its
    channel's share of the score.  A rotate-and-sum over the blocks adds
    them: one ciphertext per class, the score of sample s at slot s*T.  A
    (class, group) term whose weights are all zero runs nothing.

    Row-major: the pooled means are replicated in every slot, so a
    ``hesim.Diagonals`` with the one shift 0, read as a grid of one frame
    per class, weighs every input channel by its weight row as the per-frame
    factor and needs no rotation: one ciphertext per sample, the score of
    class k at slot k.  Its coefficients are ones, so every (sample,
    channel) PMult counts.
    """
    ctx = fm.ct.ctx
    if not fm.pooled:
        raise ValueError("fully_connected expects a pooled feature map")
    if fm.level < 1:
        raise hesim.LevelError("level exhausted before the classifier")
    lin = fm.layout
    N = lin.slot_count
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.zeros(weights.shape[1]) if bias is None else np.asarray(bias, dtype=np.float64)
    classes = weights.shape[1]
    if weights.shape[0] != lin.C:
        raise ValueError(f"weights expect {weights.shape[0]} channels, feature map has {lin.C}")

    if lin.kind == AMA:
        pad, cap = lin.pad_bt, lin.capacity
        first = np.arange(cap) < np.array([lin.group_size(g) for g in range(lin.cts_per_joint)])[:, None]
        coef = np.where(first[..., None], weights[lin.block_channels()], 0.0).transpose(2, 0, 1)  # (class, group, block)
        anchors = np.zeros(pad)
        anchors[np.arange(lin.B) * lin.T] = 1.0
        op = hesim.BlockCirculant([0], coef[None], (cap, pad), vec=anchors)
        acc = ctx.fold_steps(fm.ct, op)
        acc = ctx.rotate_sum(acc, [pad * (cap >> (i + 1)) for i in range(int(math.log2(cap)))])
        return _add_bias(acc, np.broadcast_to(bias[:, None], (classes, N)))

    op = hesim.Diagonals([0], np.ones((1, lin.C, 1)), (classes, 1), N, weights[None])
    acc = ctx.fold_steps(fm.ct, op)
    return _add_bias(acc, np.broadcast_to(bias, (lin.B, classes)))


def extract_scores(score_ct: SimCiphertext, fm_layout: PackingLayout, classes: int) -> np.ndarray:
    """Decrypt the head's class scores into a (B, classes) array, reading
    only the score slots: AMA the anchor of every sample in each class's
    ciphertext, row-major the first ``classes`` slots of each sample's."""
    B, N = fm_layout.B, fm_layout.slot_count
    slots = score_ct.slots.reshape(score_ct.rows, N)
    if fm_layout.kind == AMA:
        return slots[:classes, np.arange(B) * fm_layout.T].T.copy()
    return slots[:B, :classes].copy()


# ----------------------------------------------------------------------
# full pipeline


@dataclass
class RunResult:
    scores: np.ndarray
    counter: hesim.HocCounter
    level_trace: list[dict]
    depth_total: int
    ct_counts: dict[str, int]

    def per_layer(self) -> dict[str, dict[str, int]]:
        return self.counter.per_layer()


def check_depth_budget(spec: ModelSpec, max_level: int) -> None:
    """Static check; names the first layer that cannot fit the budget."""
    available = max_level - 1  # one level of headroom stays reserved
    used = 0
    for label, layer in zip(spec.labels(), spec.layers):
        used += layer.levels
        if used > available:
            raise DepthBudgetError(
                f"depth budget exceeded at {label}: needs level {used + 1}, "
                f"context has {max_level}",
                layer=label,
            )


def run_model(
    spec: ModelSpec,
    x: GraphTensor,
    fmt: str,
    ctx: SimContext | None = None,
    slot_count: int | None = None,
    quantize: bool = False,
) -> RunResult:
    """Execute the whole encrypted pipeline and decrypt the class scores.

    Without ``ctx`` the run makes its own context from ``slot_count`` and
    ``quantize``, which keeps no op log; pass a ``SimContext`` with
    ``log_ops=True`` to read the log, and set neither argument then."""
    if fmt not in (AMA, ROWMAJOR):
        raise ValueError(f"format must be {AMA!r} or {ROWMAJOR!r}")
    if x.dims != spec.input_dims:
        raise ValueError(f"input dims {x.dims} do not match model {spec.input_dims}")
    if not spec.layers or not isinstance(spec.layers[-1], FullyConnected):
        raise ValueError("model has no fully-connected head; nothing to score")
    if ctx is not None and (slot_count is not None or quantize):
        raise ValueError("slot_count and quantize are the context's when ctx is given")
    depth_total = costmodel.depth(spec)
    if ctx is None:
        ctx = SimContext(
            slot_count or default_slot_count(spec.input_dims),
            max_level=depth_total,
            quantize=quantize,
            log_ops=False,
        )
    check_depth_budget(spec, ctx.max_level)

    with ctx.layer("pack"):
        if fmt == AMA:
            ct, layout = packing.ama_pack(x, ctx)
        else:
            ct, layout = packing.rowmajor_pack(x, ctx)
    fm = EncryptedFeatureMap(ct, layout)

    trace = []
    ct_counts = {"pack": ct.rows}
    score_ct, out = None, ct
    classes = None
    for label, layer in zip(spec.labels(), spec.layers):
        before = out.level
        with ctx.layer(label):
            if isinstance(layer, SpatialConv):
                spatial = ama_spatial if fmt == AMA else rowmajor_spatial
                fm = spatial(fm, merge_spatial(layer.adjacency, layer.weights, layer.bias, layer.bn))
            elif isinstance(layer, TemporalConv):
                fm = temporal_conv(fm, layer)
            elif isinstance(layer, Activation):
                if not layer.pruned:
                    fm = poly_activation(fm, layer.a, layer.b, layer.c)
            elif isinstance(layer, GlobalAvgPool):
                fm = global_avg_pool(fm)
            elif isinstance(layer, FullyConnected):
                classes = layer.classes
                score_ct = fully_connected(fm, layer.weights, layer.bias)
            else:
                raise ValueError(f"unknown layer {layer!r}")
        out = fm.ct if score_ct is None else score_ct
        trace.append({"layer": label, "before": before, "after": out.level, "consumed": before - out.level})
        ct_counts[label] = out.rows
    trace.append({"layer": "headroom", "before": None, "after": None, "consumed": 1})
    scores = extract_scores(score_ct, fm.layout, classes)
    return RunResult(scores, ctx.counter, trace, depth_total, ct_counts)


def _batch_norm(h: np.ndarray, bn: dict | None) -> np.ndarray:
    """Inference batch norm over the channel axis of (B, C, T, J)."""
    if bn is None:
        return h
    scale = np.asarray(bn["gamma"]) / np.sqrt(np.asarray(bn["var"]) + bn.get("eps", 1e-5))
    shift = np.asarray(bn["beta"]) - np.asarray(bn["mean"]) * scale
    return h * scale[None, :, None, None] + shift[None, :, None, None]


def spatial_reference(layer: SpatialConv, h: np.ndarray) -> np.ndarray:
    """Plaintext spatial conv on (B, C_in, T, J): sum over partitions p of
    W_p^T X N_p^T, then bias, then batch norm.

    Reads the normalized partitions directly and never builds the merged
    (C_in, C_out, J, J) matrices, so it checks ``merge_spatial`` instead of
    sharing its code.
    """
    out = 0.0
    for w, n in zip(layer.weights, layer.adjacency.normalized()):
        out = out + np.einsum("co,bctk->botk", w, h @ n.T, optimize=True)
    if layer.bias is not None:
        out = out + layer.bias[None, :, None, None]
    return _batch_norm(out, layer.bn)


def plaintext_reference(spec: ModelSpec, x: GraphTensor) -> np.ndarray:
    """Dense float64 forward pass; ground truth for every encrypted path.

    Batch norm is applied as its own affine step, not folded into weights.
    """
    if x.dims != spec.input_dims:
        raise ValueError(f"input dims {x.dims} do not match model {spec.input_dims}")
    h = x.data.copy()
    pooled = None
    scores = None
    for layer in spec.layers:
        if isinstance(layer, SpatialConv):
            h = spatial_reference(layer, h)
        elif isinstance(layer, TemporalConv):
            B, C, T, J = h.shape
            K, half = layer.kernel, (layer.kernel - 1) // 2
            padded = np.zeros((B, C, T + 2 * half, J))
            padded[:, :, half : half + T, :] = h
            t_out = math.ceil(T / layer.stride)
            out = np.zeros((B, layer.channels, t_out, J))
            for kappa in range(K):
                sl = padded[:, :, kappa : kappa + T : layer.stride, :][:, :, :t_out, :]
                out += np.einsum("oc,bctj->botj", layer.weights[:, :, kappa], sl, optimize=True)
            if layer.bias is not None:
                out += layer.bias[None, :, None, None]
            h = _batch_norm(out, layer.bn)
        elif isinstance(layer, Activation):
            if not layer.pruned:
                h = layer.a * h * h + layer.b * h + layer.c
        elif isinstance(layer, GlobalAvgPool):
            pooled = h.mean(axis=(2, 3))  # (B, C)
        elif isinstance(layer, FullyConnected):
            scores = pooled @ layer.weights + layer.bias
    if scores is None:
        raise ValueError("model has no fully-connected head; nothing to score")
    return scores


# ----------------------------------------------------------------------
# dense matrix-multiplication benchmark


def dense_matmul_case(fmt: str, B: int, C: int, J: int, T: int = 4, seed: int = 0):
    """Measure one dense J x J matrix multiplication in the fully-packed
    regime (slot count = T*J), returning (counts, max abs error vs oracle).

    Channel pairs get independent dense matrices, so this also pins the
    joint-mixing orientation against the plaintext oracle.
    """
    rng = np.random.default_rng(seed)
    slot = T * J
    dims = (B, C, T, J)
    x = GraphTensor(rng.uniform(-1, 1, size=dims))
    mats = rng.uniform(0.5, 1.5, size=(C, C, J, J))
    merged = MergedSpatialMatrix.from_dense(mats, np.zeros(C))
    ctx = SimContext(slot, max_level=1, log_ops=False)
    label = "matmul"
    with ctx.layer(label):
        if fmt == AMA:
            ct, layout = packing.ama_pack(x, ctx)
            fm = ama_spatial(EncryptedFeatureMap(ct, layout), merged)
            got = packing.ama_unpack(fm.ct, fm.layout).data
        else:
            ct, layout = packing.rowmajor_pack(x, ctx)
            fm = rowmajor_spatial(EncryptedFeatureMap(ct, layout), merged)
            got = packing.rowmajor_unpack(fm.ct, fm.layout).data
    err = float(np.max(np.abs(got - merged.apply(x.data))))
    return ctx.counter.layer(label), err
