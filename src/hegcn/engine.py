"""Encrypted graph-convolution pipeline over AMA and row-major packings.

Scheduling follows two rules that pin the operation counts to the analytic
cost model:

* rotations of *input* ciphertexts (temporal taps, row-major diagonals) are
  computed once per ciphertext and shared across all consumers;
* channel accumulation inside a ciphertext rotates per-output partial sums
  ("giant steps"), with the per-position constants, channel-selection masks
  and boundary masks all fused into a single plaintext vector per term, so
  every layer costs exactly one plaintext-multiplication level.

Values at padding slots, masked-out strided frames and replica copies are
allowed to go stale; every consumer reads only through masks or anchor
slots, and the plaintext reference implementation is the ground truth all
paths are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from hegcn import costmodel, hesim, packing
from hegcn.adjacency import MergedSpatialMatrix, decompose, diagonal_offsets, merge_spatial
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
    """Ciphertext list plus the layout metadata needed to keep evaluating.

    ``t_stride`` and ``t_valid`` track strided temporal downsampling: valid
    frames sit at physical positions that are multiples of the stride, the
    rest of the lattice is stale.  ``pooled`` feature maps hold one value
    per channel at block anchor slots.
    """

    cts: list[SimCiphertext]
    layout: PackingLayout
    t_stride: int = 1
    t_valid: int = 0
    pooled: bool = False
    label: str = ""

    def __post_init__(self):
        if self.t_valid == 0:
            self.t_valid = self.layout.T
        levels = {ct.level for ct in self.cts}
        if len(levels) > 1:
            raise ValueError(f"feature map has mixed levels: {sorted(levels)}")

    @property
    def level(self) -> int:
        return self.cts[0].level


def default_slot_count(dims) -> int:
    """Smallest power of two that fits both packings of the given tensor."""
    B, C, T, J = dims
    return next_pow2(max(T * J, next_pow2(B * T)))


# ----------------------------------------------------------------------
# shared helpers


class _RotCache:
    """Share input-ciphertext rotations; each amount is paid for once."""

    def __init__(self, ctx: SimContext):
        self.ctx = ctx
        self._seen: dict[tuple[str, int], SimCiphertext] = {}

    def get(self, ct: SimCiphertext, amount: int) -> SimCiphertext:
        amount = amount % self.ctx.slot_count
        if amount == 0:
            return ct
        key = (ct.id, amount)
        if key not in self._seen:
            self._seen[key] = self.ctx.rotate(ct, amount)
        return self._seen[key]


def _accumulate(ctx: SimContext, terms: list[SimCiphertext]) -> SimCiphertext | None:
    acc = None
    for t in terms:
        acc = t if acc is None else ctx.add(acc, t)
    return acc


def _bias_vector_ama(layout: PackingLayout, bias: np.ndarray, h: int) -> np.ndarray:
    """Per-slot bias for output group h, uniform within each channel block."""
    cap = layout.capacity
    vals = np.array([bias[layout.block_channel(h, p)] for p in range(cap)])
    return np.repeat(vals, layout.pad_bt)


def _maybe_add_bias(ctx, ct, bias_slots) -> SimCiphertext:
    bct = ctx.encrypt(bias_slots)
    return ctx.add(ct, ctx.mod_switch(bct, ct.level))


def _has_bias(bias) -> bool:
    return bias is not None and np.any(np.abs(np.asarray(bias)) > 0)


# ----------------------------------------------------------------------
# spatial convolution


def ama_spatial(
    fm: EncryptedFeatureMap,
    merged: MergedSpatialMatrix,
    pieces=None,
    ctx: SimContext | None = None,
) -> EncryptedFeatureMap:
    """Rotation-free joint mixing: one PMult per (piece, group, giant step).

    ``pieces`` is the shared patterned decomposition of the joint-mixing
    action (columns indexed by output joint); it is recomputed from the
    merged pattern when not supplied.
    """
    ctx = ctx or fm.cts[0].ctx
    lin = fm.layout
    if lin.kind != AMA:
        raise ValueError("ama_spatial needs an AMA-packed feature map")
    if lin.C != merged.c_in:
        raise ValueError(f"feature map carries {lin.C} channels, merged matrix wants {merged.c_in}")
    if fm.level < 1:
        raise hesim.LevelError("level exhausted before spatial conv")
    if pieces is None:
        # column k of the action matrix feeds output joint k, so the merged
        # pattern (output-joint rows) is transposed before decomposing
        pieces = decompose(merged.pattern.T)

    B, T, J = lin.B, lin.T, lin.J
    lout = packing.ama_layout((B, merged.c_out, T, J), lin.slot_count)
    cap, pad = lin.capacity, lin.pad_bt
    M = merged.matrices

    in_chan = {
        g: np.array([lin.block_channel(g, beta) for beta in range(cap)])
        for g in range(lin.cts_per_joint)
    }
    out_chan = {
        h: np.array([lout.block_channel(h, p) for p in range(cap)])
        for h in range(lout.cts_per_joint)
    }
    sel_by_size = {n: packing.giant_step_coverage(cap, n) for n in {lin.group_size(g) for g in range(lin.cts_per_joint)}}
    deltas = sorted({d for sel in sel_by_size.values() for d in sel})
    positions = np.arange(cap)
    rolled = {delta: (positions - delta) % cap for delta in deltas}  # v[rolled[d]] == np.roll(v, d)

    bias_on = _has_bias(merged.bias)
    out_cts = []
    for k in range(J):
        row_pieces = [(p.rows[k]) for p in pieces if p.rows[k] >= 0]
        for h in range(lout.cts_per_joint):
            giants = []
            for delta in deltas:
                terms = []
                for j_in in row_pieces:
                    for g in range(lin.cts_per_joint):
                        sel = sel_by_size[lin.group_size(g)].get(delta)
                        if sel is None:
                            continue
                        c_read = in_chan[g][(positions + delta) % cap]
                        vals = M[c_read, out_chan[h], k, j_in]
                        vals = np.where(sel, vals, 0.0)
                        if not np.any(vals):
                            continue
                        # rolling the cap block values equals rolling the
                        # slot vector by delta*pad: each block is uniform
                        plain = np.repeat(vals[rolled[delta]], pad)
                        terms.append(ctx.pmult(fm.cts[lin.ama_ct_index(j_in, g)], plain))
                part = _accumulate(ctx, terms)
                if part is None:
                    continue
                giants.append(ctx.rotate(part, delta * pad))
            acc = _accumulate(ctx, giants)
            if acc is None:  # output joint receives nothing: deliver zeros
                acc = ctx.mod_switch(ctx.encrypt([]), fm.level - 1)
            if bias_on:
                acc = _maybe_add_bias(ctx, acc, _bias_vector_ama(lout, merged.bias, h))
            out_cts.append(acc)
    return EncryptedFeatureMap(out_cts, lout, fm.t_stride, fm.t_valid, label=fm.label)


def rowmajor_spatial(
    fm: EncryptedFeatureMap,
    merged: MergedSpatialMatrix,
    ctx: SimContext | None = None,
) -> EncryptedFeatureMap:
    """Diagonal-method joint mixing on the flattened T x J grid.

    One rotation per nonzero generalized diagonal of the shared pattern
    (offset 0 free), shared across all output channels of an input
    ciphertext; wrap positions are zeroed by the fused masks.
    """
    ctx = ctx or fm.cts[0].ctx
    lin = fm.layout
    if lin.kind != ROWMAJOR:
        raise ValueError("rowmajor_spatial needs a row-major feature map")
    if lin.C != merged.c_in:
        raise ValueError(f"feature map carries {lin.C} channels, merged matrix wants {merged.c_in}")
    if fm.level < 1:
        raise hesim.LevelError("level exhausted before spatial conv")

    B, T, J = lin.B, lin.T, lin.J
    offsets = diagonal_offsets(merged.pattern)
    M = merged.matrices
    rots = _RotCache(ctx)

    in_grid = np.arange(lin.slot_count) < T * J
    # diagonal d reads joint k + d at joint k of every frame row; reads past
    # either end of the row are wraps and stay zero
    joints = np.arange(J)
    row_valid = {d: (joints + d >= 0) & (joints + d < J) for d in offsets}
    row_read = {d: np.clip(joints + d, 0, J - 1) for d in offsets}

    bias_on = _has_bias(merged.bias)
    out_cts = []
    for b in range(B):
        for o in range(merged.c_out):
            # one joint row of diagonal d for every input channel, into output channel o
            diags = {d: np.where(row_valid[d], M[:, o, joints, row_read[d]], 0.0) for d in offsets}
            terms = []
            for c in range(lin.C):
                src = fm.cts[b * lin.C + c]
                for d in offsets:
                    row = diags[d][c]
                    if not np.any(row):
                        continue
                    plain = np.zeros(lin.slot_count)
                    plain[: T * J] = np.tile(row, T)
                    terms.append(ctx.pmult(rots.get(src, d), plain))
            acc = _accumulate(ctx, terms)
            if acc is None:
                acc = ctx.mod_switch(ctx.encrypt([]), fm.level - 1)
            if bias_on:
                plain_bias = np.where(in_grid, merged.bias[o], 0.0)
                acc = _maybe_add_bias(ctx, acc, plain_bias)
            out_cts.append(acc)
    lout = packing.rowmajor_layout((B, merged.c_out, T, J), lin.slot_count)
    return EncryptedFeatureMap(out_cts, lout, fm.t_stride, fm.t_valid, label=fm.label)


# ----------------------------------------------------------------------
# temporal convolution


def _temporal_tap_mask(
    pad: int, B: int, T: int, sigma_in: int, tv_in: int, stride: int, eps: int
) -> np.ndarray:
    """Validity of tap offset eps at every within-block position.

    A position carries output frame l' when it lies on the output stride
    lattice; the tap contributes when the read frame s*l' + eps is a valid
    input frame.  Everything else (padding tail, off-lattice frames) is
    zeroed.
    """
    sigma_out = sigma_in * stride
    tv_out = math.ceil(tv_in / stride)
    tau = np.arange(pad)
    brow = tau // T
    t = tau % T
    on_lattice = (tau < B * T) & (brow < B) & (t % sigma_out == 0)
    lprime = t // sigma_out
    lread = lprime * stride + eps
    return on_lattice & (lprime < tv_out) & (lread >= 0) & (lread < tv_in)


def temporal_conv(
    fm: EncryptedFeatureMap,
    layer: TemporalConv,
    ctx: SimContext | None = None,
) -> EncryptedFeatureMap:
    """K-tap zero-padded temporal convolution with optional stride 2.

    Tap rotations are baby steps shared per input ciphertext (K-1 counted
    rotations each); channel mixing uses the same giant-step fold as the
    spatial layer.  Stride 2 is a masked decimation: the layout keeps its
    padding and odd frames simply go stale.
    """
    ctx = ctx or fm.cts[0].ctx
    lin = fm.layout
    if layer.kernel % 2 == 0:
        raise ValueError("kernel must be odd")
    if layer.kernel > fm.t_valid:
        raise ValueError(f"kernel {layer.kernel} exceeds {fm.t_valid} valid frames")
    if fm.level < 1:
        raise hesim.LevelError("level exhausted before temporal conv")

    # merge batch-norm scale/shift into taps and bias up front
    W = layer.weights
    bias = np.zeros(layer.channels) if layer.bias is None else layer.bias.copy()
    if layer.bn is not None:
        scale = np.asarray(layer.bn["gamma"]) / np.sqrt(
            np.asarray(layer.bn["var"]) + layer.bn.get("eps", 1e-5)
        )
        W = W * scale[:, None, None]
        bias = (bias - np.asarray(layer.bn["mean"])) * scale + np.asarray(layer.bn["beta"])

    K = layer.kernel
    half = (K - 1) // 2
    taps = [(kappa, kappa - half) for kappa in range(K)]
    masks = {
        kappa: _temporal_tap_mask(
            lin.pad_bt, lin.B, lin.T, fm.t_stride, fm.t_valid, layer.stride, eps
        ).astype(float)
        for kappa, eps in taps
    }
    bias_on = _has_bias(bias)

    if lin.kind == AMA:
        out_fm = _temporal_ama(fm, W, bias, bias_on, taps, masks, ctx)
    else:
        out_fm = _temporal_rowmajor(fm, W, bias, bias_on, taps, masks, ctx)
    out_fm.t_stride = fm.t_stride * layer.stride
    out_fm.t_valid = math.ceil(fm.t_valid / layer.stride)
    return out_fm


def _temporal_ama(fm, W, bias, bias_on, taps, masks, ctx):
    lin = fm.layout
    cap, pad, J = lin.capacity, lin.pad_bt, lin.J
    G = lin.cts_per_joint
    in_chan = {g: np.array([lin.block_channel(g, b) for b in range(cap)]) for g in range(G)}
    sel_by_size = {n: packing.giant_step_coverage(cap, n) for n in {lin.group_size(g) for g in range(G)}}
    deltas = sorted({d for sel in sel_by_size.values() for d in sel})
    positions = np.arange(cap)
    rolled = {delta: (positions - delta) % cap for delta in deltas}  # v[rolled[d]] == np.roll(v, d)

    # Block weights do not depend on the joint, so every (h, delta) term list
    # is built once per layer.  Each tap mask repeats every pad slots, so
    # rolling the cap block weights by delta equals rolling the slot vector
    # by delta*pad.  The weights sit in one array, not in thousands of
    # small buffers that stay alive through the joint loop and scatter
    # over the heap (that raised the CLI's peak RSS sooner).
    terms_of, weight_rows = {}, []
    for h in range(G):
        for delta in deltas:
            terms = []
            for g in range(G):
                sel = sel_by_size[lin.group_size(g)].get(delta)
                if sel is None:
                    continue
                c_read = in_chan[g][(positions + delta) % cap]
                for kappa, eps in taps:
                    w_vec = np.where(sel, W[in_chan[h], c_read, kappa], 0.0)
                    if not np.any(w_vec):
                        continue
                    terms.append((g, kappa, eps, len(weight_rows)))
                    weight_rows.append(w_vec[rolled[delta]])
            terms_of[h, delta] = terms
    block_weights = np.array(weight_rows)
    del weight_rows

    out_cts = []
    for j in range(J):
        # tap rotations of joint j's inputs are never read after joint j
        rots = _RotCache(ctx)
        for h in range(G):
            giants = []
            for delta in deltas:
                terms = [
                    ctx.pmult(
                        rots.get(fm.cts[lin.ama_ct_index(j, g)], eps * fm.t_stride),
                        np.multiply.outer(block_weights[row], masks[kappa]).ravel(),
                    )
                    for g, kappa, eps, row in terms_of[h, delta]
                ]
                part = _accumulate(ctx, terms)
                if part is None:
                    continue
                giants.append(ctx.rotate(part, delta * pad))
            acc = _accumulate(ctx, giants)
            if acc is None:
                acc = ctx.mod_switch(ctx.encrypt([]), fm.level - 1)
            if bias_on:
                acc = _maybe_add_bias(ctx, acc, _bias_vector_ama(lin, bias, h))
            out_cts.append(acc)
    return EncryptedFeatureMap(out_cts, lin, fm.t_stride, fm.t_valid, label=fm.label)


def _temporal_rowmajor(fm, W, bias, bias_on, taps, masks, ctx):
    lin = fm.layout
    B, T, J, C = lin.B, lin.T, lin.J, lin.C
    rots = _RotCache(ctx)
    out_cts = []
    for b in range(B):
        for o in range(C):
            terms = []
            for c in range(C):
                src = fm.cts[b * C + c]
                for kappa, eps in taps:
                    if W[o, c, kappa] == 0.0:
                        continue
                    # masks were built over one T-row; expand over the T x J grid
                    row_mask = masks[kappa][:T]
                    plain = np.zeros(lin.slot_count)
                    plain[: T * J] = np.repeat(row_mask, J) * W[o, c, kappa]
                    terms.append(ctx.pmult(rots.get(src, eps * fm.t_stride * J), plain))
            acc = _accumulate(ctx, terms)
            if acc is None:
                acc = ctx.mod_switch(ctx.encrypt([]), fm.level - 1)
            if bias_on:
                plain_bias = np.zeros(lin.slot_count)
                plain_bias[: T * J] = bias[o]
                acc = _maybe_add_bias(ctx, acc, plain_bias)
            out_cts.append(acc)
    return EncryptedFeatureMap(out_cts, lin, fm.t_stride, fm.t_valid, label=fm.label)


# ----------------------------------------------------------------------
# activation, pooling, classifier head


def poly_activation(
    fm: EncryptedFeatureMap,
    a: float,
    b: float,
    c: float,
    ctx: SimContext | None = None,
) -> EncryptedFeatureMap:
    """a*x^2 + b*x + c per slot: one CMult, two PMults, two Adds, two levels."""
    ctx = ctx or fm.cts[0].ctx
    if fm.level < 2:
        raise hesim.LevelError(f"activation needs level >= 2, have {fm.level}")
    out_cts = []
    for ct in fm.cts:
        sq = ctx.cmult(ct, ct)
        quad = ctx.pmult(sq, float(a))
        lin = ctx.mod_switch(ctx.pmult(ct, float(b)), quad.level)
        poly = ctx.add(quad, lin)
        const = ctx.mod_switch(ctx.encrypt(np.full(ctx.slot_count, float(c))), poly.level)
        out_cts.append(ctx.add(poly, const))
    return EncryptedFeatureMap(
        out_cts, fm.layout, fm.t_stride, fm.t_valid, fm.pooled, fm.label
    )


def global_avg_pool(fm: EncryptedFeatureMap, ctx: SimContext | None = None) -> EncryptedFeatureMap:
    """Mean over valid frames and all joints; output anchored per channel.

    AMA: joint ciphertexts are summed first (J-1 adds per group), a
    rotate-and-add halving tree folds the valid frames, then one masked
    PMult scales by 1/(frames*joints) and cleans every non-anchor slot.
    Row-major: mask-scale first, then a full-slot halving fold leaves the
    mean replicated in every slot.
    """
    ctx = ctx or fm.cts[0].ctx
    lin = fm.layout
    if fm.level < 1:
        raise hesim.LevelError("level exhausted before pooling")
    tv, sigma = fm.t_valid, fm.t_stride
    if tv & (tv - 1):
        raise ValueError(f"pooling expects a power-of-two valid frame count, got {tv}")
    count = tv * lin.J

    if lin.kind == AMA:
        G, pad, cap = lin.cts_per_joint, lin.pad_bt, lin.capacity
        out_cts = []
        for g in range(G):
            acc = _accumulate(ctx, [fm.cts[lin.ama_ct_index(j, g)] for j in range(lin.J)])
            steps = int(math.log2(tv)) if tv > 1 else 0
            for i in range(steps):
                acc = ctx.add(acc, ctx.rotate(acc, sigma * (tv >> (i + 1))))
            mask = np.zeros(lin.slot_count)
            for p in range(cap):
                for b in range(lin.B):
                    mask[p * pad + b * lin.T] = 1.0 / count
            out_cts.append(ctx.pmult(acc, mask))
        return EncryptedFeatureMap(out_cts, lin, sigma, tv, pooled=True, label=fm.label)

    # row-major
    q = np.arange(lin.slot_count)
    t = q // lin.J
    valid = (q < lin.T * lin.J) & (t % sigma == 0) & (t // sigma < tv)
    mask = np.where(valid, 1.0 / count, 0.0)
    out_cts = []
    for ct in fm.cts:
        acc = ctx.pmult(ct, mask)
        for i in range(int(math.log2(lin.slot_count))):
            acc = ctx.add(acc, ctx.rotate(acc, lin.slot_count >> (i + 1)))
        out_cts.append(acc)
    return EncryptedFeatureMap(out_cts, lin, sigma, tv, pooled=True, label=fm.label)


def fully_connected(
    fm: EncryptedFeatureMap,
    weights: np.ndarray,
    bias: np.ndarray,
    ctx: SimContext | None = None,
) -> list[SimCiphertext]:
    """Class scores from a pooled feature map; one ciphertext per class (AMA)
    or per sample (row-major)."""
    ctx = ctx or fm.cts[0].ctx
    if not fm.pooled:
        raise ValueError("fully_connected expects a pooled feature map")
    if fm.level < 1:
        raise hesim.LevelError("level exhausted before the classifier")
    lin = fm.layout
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.zeros(weights.shape[1]) if bias is None else np.asarray(bias, dtype=np.float64)
    classes = weights.shape[1]
    if weights.shape[0] != lin.C:
        raise ValueError(f"weights expect {weights.shape[0]} channels, feature map has {lin.C}")

    if lin.kind == AMA:
        G, pad, cap = lin.cts_per_joint, lin.pad_bt, lin.capacity
        score_cts = []
        for s in range(classes):
            terms = []
            for g in range(G):
                plain = np.zeros(lin.slot_count)
                for p in range(lin.group_size(g)):  # first copy only
                    c = lin.block_channel(g, p)
                    for b in range(lin.B):
                        plain[p * pad + b * lin.T] = weights[c, s]
                terms.append(ctx.pmult(fm.cts[g], plain))
            acc = _accumulate(ctx, terms)
            for i in range(int(math.log2(cap))):
                acc = ctx.add(acc, ctx.rotate(acc, pad * (cap >> (i + 1))))
            acc = _maybe_add_bias(ctx, acc, np.full(lin.slot_count, bias[s]))
            score_cts.append(acc)
        return score_cts

    # row-major: pooled means are replicated, so one fused plaintext per
    # input ciphertext carries the whole weight row and no rotation is needed
    score_cts = []
    for b in range(lin.B):
        terms = []
        for c in range(lin.C):
            plain = np.zeros(lin.slot_count)
            plain[:classes] = weights[c]
            terms.append(ctx.pmult(fm.cts[b * lin.C + c], plain))
        acc = _accumulate(ctx, terms)
        plain_bias = np.zeros(lin.slot_count)
        plain_bias[:classes] = bias
        acc = _maybe_add_bias(ctx, acc, plain_bias)
        score_cts.append(acc)
    return score_cts


def extract_scores(score_cts, fm_layout: PackingLayout, classes: int) -> np.ndarray:
    """Decrypt class scores into a (B, classes) array."""
    B = fm_layout.B
    out = np.zeros((B, classes))
    if fm_layout.kind == AMA:
        for s, ct in enumerate(score_cts):
            for b in range(B):
                out[b, s] = ct.slots[b * fm_layout.T]
    else:
        for b, ct in enumerate(score_cts):
            out[b] = ct.slots[:classes]
    return out


# ----------------------------------------------------------------------
# full pipeline


@dataclass
class RunResult:
    scores: np.ndarray
    fmt: str
    counter: hesim.HocCounter
    level_trace: list[dict]
    depth_total: int
    ct_counts: dict[str, int] = field(default_factory=dict)

    def per_layer(self) -> dict[str, dict[str, int]]:
        return {label: dict(counts) for label, counts in self.counter.per_layer.items()}

    def csv_rows(self) -> list[dict]:
        rows = []
        for label in self.counter.per_layer:
            counts = self.counter.layer(label)
            for op in hesim.OPS:
                rows.append({"layer": label, "op": op, "format": self.fmt, "count": counts[op]})
        return rows


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
    log_ops: bool = False,
) -> RunResult:
    """Execute the whole encrypted pipeline and decrypt the class scores."""
    if fmt not in (AMA, ROWMAJOR):
        raise ValueError(f"format must be {AMA!r} or {ROWMAJOR!r}")
    if x.dims != spec.input_dims:
        raise ValueError(f"input dims {x.dims} do not match model {spec.input_dims}")
    depth_total = costmodel.depth(spec)
    if ctx is None:
        ctx = SimContext(
            slot_count or default_slot_count(spec.input_dims),
            max_level=depth_total,
            quantize=quantize,
            log_ops=log_ops,
        )
    check_depth_budget(spec, ctx.max_level)

    with ctx.layer("pack"):
        if fmt == AMA:
            cts, layout = packing.ama_pack(x, ctx)
        else:
            cts, layout = packing.rowmajor_pack(x, ctx)
    fm = EncryptedFeatureMap(cts, layout)

    trace = []
    ct_counts = {"pack": len(fm.cts)}
    score_cts = None
    classes = None
    for label, layer in zip(spec.labels(), spec.layers):
        before = fm.level if score_cts is None else score_cts[0].level
        with ctx.layer(label):
            if isinstance(layer, SpatialConv):
                # left unbound so the merged matrices (20 MB at 64 channels
                # and J = 25) are freed with their layer
                spatial = ama_spatial if fmt == AMA else rowmajor_spatial
                fm = spatial(fm, merge_spatial(layer.adjacency, layer.weights, layer.bias, layer.bn), ctx=ctx)
            elif isinstance(layer, TemporalConv):
                fm = temporal_conv(fm, layer, ctx=ctx)
            elif isinstance(layer, Activation):
                if not layer.pruned:
                    fm = poly_activation(fm, layer.a, layer.b, layer.c, ctx=ctx)
            elif isinstance(layer, GlobalAvgPool):
                fm = global_avg_pool(fm, ctx=ctx)
            elif isinstance(layer, FullyConnected):
                classes = layer.classes
                score_cts = fully_connected(fm, layer.weights, layer.bias, ctx=ctx)
            else:
                raise ValueError(f"unknown layer {layer!r}")
        after = fm.level if score_cts is None else score_cts[0].level
        trace.append({"layer": label, "before": before, "after": after, "consumed": before - after})
        ct_counts[label] = len(fm.cts) if score_cts is None else len(score_cts)
    trace.append({"layer": "headroom", "before": None, "after": None, "consumed": 1})

    if score_cts is None:
        raise ValueError("model has no fully-connected head; nothing to score")
    scores = extract_scores(score_cts, fm.layout, classes)
    return RunResult(scores, fmt, ctx.counter, trace, depth_total, ct_counts)


def plaintext_reference(spec: ModelSpec, x: GraphTensor) -> np.ndarray:
    """Dense float64 forward pass; ground truth for every encrypted path."""
    if x.dims != spec.input_dims:
        raise ValueError(f"input dims {x.dims} do not match model {spec.input_dims}")
    h = x.data.copy()
    pooled = None
    scores = None
    for layer in spec.layers:
        if isinstance(layer, SpatialConv):
            merged = merge_spatial(layer.adjacency, layer.weights, layer.bias, layer.bn)
            h = merged.apply(h)
        elif isinstance(layer, TemporalConv):
            W = layer.weights
            bias = np.zeros(layer.channels) if layer.bias is None else layer.bias.copy()
            if layer.bn is not None:
                scale = np.asarray(layer.bn["gamma"]) / np.sqrt(
                    np.asarray(layer.bn["var"]) + layer.bn.get("eps", 1e-5)
                )
                W = W * scale[:, None, None]
                bias = (bias - np.asarray(layer.bn["mean"])) * scale + np.asarray(
                    layer.bn["beta"]
                )
            B, C, T, J = h.shape
            K, half = layer.kernel, (layer.kernel - 1) // 2
            padded = np.zeros((B, C, T + 2 * half, J))
            padded[:, :, half : half + T, :] = h
            t_out = math.ceil(T / layer.stride)
            out = np.zeros((B, layer.channels, t_out, J))
            for kappa in range(K):
                sl = padded[:, :, kappa : kappa + T : layer.stride, :][:, :, :t_out, :]
                out += np.einsum("oc,bctj->botj", W[:, :, kappa], sl)
            h = out + bias[None, :, None, None]
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
    merged = MergedSpatialMatrix(mats, np.zeros(C))
    ctx = SimContext(slot, max_level=1, log_ops=False)
    label = "matmul"
    with ctx.layer(label):
        if fmt == AMA:
            cts, layout = packing.ama_pack(x, ctx)
            fm = ama_spatial(EncryptedFeatureMap(cts, layout), merged, ctx=ctx)
            got = packing.ama_unpack(fm.cts, fm.layout).data
        else:
            cts, layout = packing.rowmajor_pack(x, ctx)
            fm = rowmajor_spatial(EncryptedFeatureMap(cts, layout), merged, ctx=ctx)
            got = packing.rowmajor_unpack(fm.cts, fm.layout).data
    err = float(np.max(np.abs(got - merged.apply(x.data))))
    return ctx.counter.layer(label), err
