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
output block), the same for every joint: one ``take`` of the layer's
weights through flat indices that depend only on the layouts.  What
depends only on a layout is worked out once per distinct layout by pure
functions of its integers, memoized with read-only results: the giant
steps (``_fold_tables``), those indices
(``_temporal_gather``, ``_spatial_gather``) and the tap masks
(``_tap_factors``).  Nothing keyed on weights, inputs or a model is kept
between runs.  A temporal conv is a
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
temporal one a one-block ``hesim.BlockCirculant`` of its taps and masks,
a spatial one a ``hesim.MixedDiagonals`` of the factors, which mixes the
joints of every frame row by each partition and applies the weight slabs
as one GEMM, the row-major counterpart of ``hesim.Mixed``.  The classifier
head is a ``hesim.BlockCirculant`` with the single giant step 0: AMA, rows
classes and terms the pooled group ciphertexts, whose blocks one
rotate-and-sum then adds, or row-major, one block whose factors are the
weight rows; its bias is one Add (``_add_bias``).
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

import functools
import math
from dataclasses import dataclass

import numpy as np

from hegcn import costmodel, hesim, packing
from hegcn.adjacency import MergedSpatialMatrix, decompose, fold_bn, merge_spatial
from hegcn.hesim import SimCiphertext, SimContext
from hegcn.model import (
    Activation,
    FullyConnected,
    GlobalAvgPool,
    ModelSpec,
    PoolingError,
    SpatialConv,
    TemporalConv,
    check_pooled_frames,
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


@functools.lru_cache(maxsize=64)
def _fold_tables(cap: int, pad: int, c_in: int, per_in: int, c_out: int, per_out: int):
    """The giant steps of an AMA channel fold from ``c_in`` channels,
    ``per_in`` to a ciphertext, to ``c_out``, ``per_out`` to a ciphertext,
    over ``cap`` blocks of ``pad`` slots: a pure function of the layouts'
    integers, worked out once per pair of layouts.

    Returns the rotation amounts (S,), the (H, cap) channel of every output
    block, the (S, G, cap) input channel step s brings to block position p
    of group g (a rotation by delta blocks brings block p + delta), and the
    (S, G, cap) mask of the positions each step serves, all read-only.
    """
    channels = packing.block_channels(cap, c_in, per_in)
    sizes = [min(per_in, c_in - first) for first in range(0, c_in, per_in)]
    cover = {n: packing.giant_step_coverage(cap, n) for n in set(sizes)}
    deltas = sorted({d for sel in cover.values() for d in sel})
    serves = np.zeros((len(deltas), len(sizes), cap), dtype=bool)
    for g, n in enumerate(sizes):
        for d, sel in cover[n].items():
            serves[deltas.index(d), g] = sel
    deltas = np.array(deltas)
    reads = channels[np.arange(len(sizes))[:, None], (np.arange(cap) + deltas[:, None, None]) % cap]
    tables = deltas * pad, packing.block_channels(cap, c_out, per_out), reads, serves
    for arr in tables:
        arr.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=64)
def _spatial_gather(cap: int, pad: int, c_in: int, per_in: int, c_out: int, per_out: int, P: int):
    """The giant steps of an AMA spatial fold (``_fold_tables``) and the
    read-only flat indices (``_gather``) of its (S, H, P*G, cap)
    coefficients in its (P, c_in, c_out) weight slabs: step s, output
    group h, term (partition p, group g) and block b read slab p at the
    input channel step s brings to (g, b) and the output channel of (h, b),
    or 0.0 where step s does not serve (g, b)."""
    amounts, out_chan, c_read, serves = _fold_tables(cap, pad, c_in, per_in, c_out, per_out)
    index = (np.arange(P)[:, None, None] * c_in + c_read[:, None, None]) * c_out + out_chan[:, None, None, :]
    index = np.where(serves[:, None, None], index, P * c_in * c_out).reshape(len(amounts), len(out_chan), -1, cap)
    index.flags.writeable = False
    return amounts, index


@functools.lru_cache(maxsize=64)
def _temporal_gather(cap: int, pad: int, C: int, per: int, K: int):
    """The giant steps of an AMA temporal fold (``_fold_tables``) and the
    read-only flat indices (``_gather``) of its (S, G, G*K, cap)
    coefficients in its (C, C, K) taps: step s, row h, term (group g, tap
    k) and block b read tap k from the input channel step s brings to (g,
    b) into the output channel of (h, b), or 0.0 where step s does not
    serve (g, b)."""
    amounts, out_chan, c_read, serves = _fold_tables(cap, pad, C, per, C, per)
    index = (out_chan[:, None, None, :] * C + c_read[:, None, :, None, :]) * K + np.arange(K)[:, None]
    index = np.where(serves[:, None, :, None], index, C * C * K).reshape(len(amounts), len(out_chan), -1, cap)
    index.flags.writeable = False
    return amounts, index


def _gather(weights: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``weights`` at the flat ``index``, where index ``weights.size`` reads 0.0."""
    return np.append(weights.ravel(), 0.0).take(index)


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
    amounts, index = _spatial_gather(lin.capacity, lin.pad_bt, lin.C, lin.channels_per_ct, lout.C, lout.channels_per_ct, len(merged.weights))
    # partition entries N_p[k, j] of (output joint k, partition, piece); a
    # piece without an entry reads joint 0 with zeros
    mix = np.where(reads >= 0, merged.parts[:, np.arange(J)[:, None], np.maximum(reads, 0)], 0.0).transpose(1, 0, 2)
    op = hesim.Mixed(amounts, _gather(merged.weights, index), (lin.capacity, lin.pad_bt), mix, np.maximum(reads, 0), J)
    acc = fm.ct.ctx.fold_steps(fm.ct, op, _bias_rows(lout, merged.bias))
    return EncryptedFeatureMap(acc, lout, fm.t_stride, fm.t_valid)


def rowmajor_spatial(fm: EncryptedFeatureMap, merged: MergedSpatialMatrix) -> EncryptedFeatureMap:
    """Diagonal-method joint mixing on the flattened T x J grid.

    One rotation per nonzero generalized diagonal on which the partitions
    have entries (offset 0 free), shared across all output channels of an
    input ciphertext; reads past either end of a frame row are zero.  The
    layer is one ``hesim.MixedDiagonals`` of the factors, which finds the
    diagonals itself: the joints are mixed by each partition, then the
    weight slabs are one GEMM, counted as the merged coefficients sum_p N_p
    * W_p would be.  A zero matrix has no diagonals and gives every output
    zero.
    """
    lin = fm.layout
    if lin.kind != ROWMAJOR:
        raise ValueError("rowmajor_spatial needs a row-major feature map")
    if lin.C != merged.c_in:
        raise ValueError(f"feature map carries {lin.C} channels, merged matrix wants {merged.c_in}")
    if fm.level < 1:
        raise hesim.LevelError("level exhausted before spatial conv")

    op = hesim.MixedDiagonals(merged.weights, merged.parts, (lin.T, lin.J), lin.slot_count)
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


@functools.lru_cache(maxsize=64)
def _tap_factors(kind: str, pad: int, B: int, T: int, J: int, sigma_in: int, tv_in: int, stride: int, kernel: int) -> np.ndarray:
    """The read-only factors of a temporal conv's ``kernel`` taps, a pure
    function of the layout's integers: AMA the (K, 1, pad) tap masks
    (``_temporal_tap_mask``), row-major the (K, 1, T*J) masks of the T
    frame rows, each frame's factor repeated over its J joints."""
    eps = np.arange(kernel) - (kernel - 1) // 2
    masks = _temporal_tap_mask(pad, B, T, sigma_in, tv_in, stride, eps).astype(float)[:, None, :]
    vec = masks if kind == AMA else np.repeat(masks[..., :T], J, axis=-1)
    vec.flags.writeable = False
    return vec


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

    # merge batch-norm scale/shift into taps and bias up front; the scaled
    # taps live only while the operator is built
    scale, bias = fold_bn(layer.bias, layer.bn, layer.channels)
    build = _temporal_ama if lin.kind == AMA else _temporal_rowmajor
    vec = _tap_factors(lin.kind, lin.pad_bt, lin.B, lin.T, lin.J, fm.t_stride, fm.t_valid, layer.stride, layer.kernel)
    op = build(lin, layer.weights * scale[:, None, None], fm.t_stride * (np.arange(layer.kernel) - (layer.kernel - 1) // 2), vec)
    acc = fm.ct.ctx.fold_steps(fm.ct, op, _bias_rows(lin, bias))
    return EncryptedFeatureMap(acc, lin, fm.t_stride * layer.stride, math.ceil(fm.t_valid / layer.stride))


def _temporal_ama(lin, W, shifts, vec):
    """The operator of an AMA temporal conv of taps ``W`` reading the frame
    ``shifts`` (slots): rows of the fold are joints, terms are (input
    group, tap).

    Block weights do not depend on the joint, so the block-circulant
    operator, taps included, is built once per layer and applied to the
    whole feature map, each joint's G inputs one source set; ``fold_steps``
    rotates them by the taps, in chunks of joints.
    """
    amounts, index = _temporal_gather(lin.capacity, lin.pad_bt, lin.C, lin.channels_per_ct, len(shifts))
    return hesim.BlockCirculant(amounts, _gather(W, index), (lin.capacity, lin.pad_bt), shifts, vec)


def _temporal_rowmajor(lin, W, shifts, vec):
    """The operator of a row-major temporal conv: one
    ``hesim.BlockCirculant`` on one block of every slot with the single
    giant step 0, the diagonal method: terms are (input channel, tap), rows
    output channels, and each tap's mask scales every input."""
    return hesim.BlockCirculant([0], W.reshape(1, len(W), -1, 1), (1, lin.slot_count), shifts * lin.J, vec)


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
    check_pooled_frames(ctx.current_layer, tv)
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
    ``hesim.BlockCirculant`` on one block of every slot, with the single
    tap 0, weighs every input channel by its weight row as the factors of
    the first ``classes`` slots (zero past them) and needs no rotation: one
    ciphertext per sample, the score of class k at slot k.  Its
    coefficients are ones, so every (sample, channel) PMult counts.
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

    op = hesim.BlockCirculant([0], np.ones((1, 1, lin.C, 1)), (1, N), vec=weights[:, None, None, :])
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


def check_pooling(spec: ModelSpec) -> None:
    """Static check; names the first pooling layer whose valid frame count
    (``ModelSpec.shape_walk``) is not a power of two."""
    for label, layer, (_, tv, _) in zip(spec.labels(), spec.layers, spec.shape_walk()):
        if isinstance(layer, GlobalAvgPool):
            check_pooled_frames(label, tv)


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
    check_pooling(spec)

    with ctx.layer("pack"):  # the packed stack lives only until the first layer replaces it
        fm = EncryptedFeatureMap(*(packing.ama_pack if fmt == AMA else packing.rowmajor_pack)(x, ctx))

    trace = []
    ct_counts = {"pack": fm.ct.rows}
    score_ct, out = None, fm.ct
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
    """Inference batch norm over the channel axis of (B, C, T, J), in place
    on ``h``, which the caller owns: h * scale, then + shift."""
    if bn is None:
        return h
    scale = np.asarray(bn["gamma"]) / np.sqrt(np.asarray(bn["var"]) + bn.get("eps", 1e-5))
    shift = np.asarray(bn["beta"]) - np.asarray(bn["mean"]) * scale
    h *= scale[None, :, None, None]
    h += shift[None, :, None, None]
    return h


def _bias_and_bn(out: np.ndarray, layer) -> np.ndarray:
    """A conv's epilogue on its own (B, C_out, T, J) ``out``: + bias, then
    batch norm as its own affine step."""
    if layer.bias is not None:
        out += layer.bias[None, :, None, None]
    return _batch_norm(out, layer.bn)


def spatial_reference(layer: SpatialConv, h: np.ndarray) -> np.ndarray:
    """Plaintext spatial conv on (B, C_in, T, J): sum over partitions p of
    W_p^T X N_p^T, then bias, then batch norm.

    Per partition, one (B*C_in*T, J) x (J, J) product mixes the joints, then
    one (C_out, C_in) x (C_in, T*J) GEMM per sample mixes the channels; the
    partitions are summed in order.  Reads the normalized partitions
    directly and never builds the merged (C_in, C_out, J, J) matrices, so
    it checks ``merge_spatial`` instead of sharing its code.  ``h`` is only
    read.
    """
    B, C, T, J = h.shape
    mixed = np.empty((B * C * T, J))
    out = np.empty((B, layer.c_out, T * J))
    term = np.empty((layer.c_out, T * J))
    for p, (w, n) in enumerate(zip(layer.weights, layer.adjacency.normalized())):
        np.matmul(h.reshape(-1, J), n.T, out=mixed)
        for b, x in enumerate(mixed.reshape(B, C, T * J)):
            if p == 0:
                np.matmul(w.T, x, out=out[b])
            else:
                np.matmul(w.T, x, out=term)
                out[b] += term
    return _bias_and_bn(out.reshape(B, layer.c_out, T, J), layer)


def temporal_reference(layer: TemporalConv, h: np.ndarray) -> np.ndarray:
    """Plaintext temporal conv on (B, C, T, J): SAME zero padding, stride
    1 or 2, then bias, then batch norm.

    Per sample, tap kappa is one (C_out, C_in) x (C_in, t_out*J) GEMM of
    its weights and the time slab it reads.  The zero-padded frames are
    split once into their ``stride`` phases, so that slab is a contiguous
    run of frames of one phase; the taps are summed in order.  ``h`` is
    only read.
    """
    B, C, T, J = h.shape
    K, s, half = layer.kernel, layer.stride, (layer.kernel - 1) // 2
    t_out = math.ceil(T / s)
    taps = np.ascontiguousarray(layer.weights.transpose(2, 0, 1))  # (K, C_out, C_in)
    padded = np.zeros((B, C, T + 2 * half, J))
    padded[:, :, half : half + T] = h
    phases = [np.ascontiguousarray(padded[:, :, r::s]) for r in range(s)]  # phase r: padded frames r, r + s, ...
    del padded
    out = np.empty((B, layer.channels, t_out * J))
    term = np.empty((layer.channels, t_out * J))
    for kappa, w in enumerate(taps):
        first = kappa // s
        slabs = phases[kappa % s][:, :, first : first + t_out].reshape(B, C, t_out * J)
        for b in range(B):
            if kappa == 0:
                np.matmul(w, slabs[b], out=out[b])
            else:
                np.matmul(w, slabs[b], out=term)
                out[b] += term
    return _bias_and_bn(out.reshape(B, layer.channels, t_out, J), layer)


def plaintext_reference(spec: ModelSpec, x: GraphTensor) -> np.ndarray:
    """Dense float64 forward pass; ground truth for every encrypted path.

    Each conv is a few large BLAS products on buffers of its own
    (``spatial_reference``, ``temporal_reference``), and the epilogues run
    in place with the float operations of their plain expressions, in that
    order.  The oracle stays independent of what it checks: it calls no
    ``hesim``, ``packing`` or ``adjacency`` kernel, folds nothing (batch
    norm is its own affine step, ``_batch_norm``), builds no merged
    matrices, and never writes into ``x.data`` or a layer's arrays.
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
            h = temporal_reference(layer, h)
        elif isinstance(layer, Activation):
            if not layer.pruned:
                # a*h*h + b*h + c, in place on the owned h, with that
                # expression's float operations in its order
                out = layer.a * h
                out *= h
                h *= layer.b
                out += h
                out += layer.c
                h = out
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
