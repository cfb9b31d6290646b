"""Tensor-to-slot packings: adjacency-matrix-aware (AMA) and row-major.

A graph tensor is indexed (b, c, t, j): batch, channel, frame, joint.

AMA packing builds, per joint, a stack of per-channel blocks.  A channel
block is the (B, T) slice flattened batch-major and zero-padded to the
next power of two ``pad_bt``.  Up to ``U = min(slot_count // pad_bt, C)``
blocks fill one ciphertext; a joint with more channels spans
``ceil(C / U)`` ciphertexts.  When a ciphertext's content vector is shorter
than the slot vector it is tiled (stacked copies) until full, so rotations
by block strides act on a periodic vector.

Row-major packing is the baseline: one ciphertext per (batch, channel)
holding the T x J feature map flattened row by row.

Both packings encrypt all their ciphertexts as one stack, in layout order,
and the unpacking functions read such a stack.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from hegcn.hesim import SimCiphertext, SimContext

AMA = "ama"
ROWMAJOR = "rowmajor"


class PackingError(Exception):
    """Tensor does not fit the requested layout, or layout mismatch."""


def next_pow2(n: int) -> int:
    return 1 if n <= 1 else 2 ** math.ceil(math.log2(n))


@dataclass
class GraphTensor:
    """Dense (B, C, T, J) tensor of finite float64 values."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 4:
            raise ValueError(f"expected 4 dims (B,C,T,J), got {self.data.ndim}")
        if min(self.data.shape) < 1:
            raise ValueError("all dims must be >= 1")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("tensor values must be finite")

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @classmethod
    def random(cls, dims, seed=0) -> "GraphTensor":
        """Values drawn uniformly from [-1, 1)."""
        return cls(np.random.default_rng(seed).uniform(-1.0, 1.0, size=tuple(dims)))

    @classmethod
    def zeros(cls, dims) -> "GraphTensor":
        return cls(np.zeros(tuple(dims)))

    # file format: one JSON header line, then little-endian float64 in
    # row-major (b, c, t, j) order
    def save(self, path) -> None:
        header = {"dims": list(self.dims), "dtype": "f64", "order": "bctj"}
        with open(path, "wb") as fp:
            fp.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
            fp.write(np.ascontiguousarray(self.data, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "GraphTensor":
        with open(path, "rb") as fp:
            header_line = fp.readline()
            header = json.loads(header_line.decode("utf-8"))
            if header.get("dtype") != "f64" or header.get("order") != "bctj":
                raise PackingError(f"unsupported tensor header: {header}")
            dims = tuple(int(d) for d in header["dims"])
            raw = fp.read()
        expected = int(np.prod(dims)) * 8
        if len(raw) != expected:
            raise PackingError(f"tensor payload is {len(raw)} bytes, expected {expected}")
        data = np.frombuffer(raw, dtype="<f8").reshape(dims)
        return cls(data.astype(np.float64))


@dataclass
class PackingLayout:
    """Slot geometry of a packed (B, C, T, J) tensor.

    ``pad_bt`` is the padded channel-block length (AMA) or the padded row
    length T*J (row-major).  ``capacity`` is the number of block positions
    per ciphertext (AMA only); ``channels_per_ct`` is capacity capped at C.
    """

    kind: str
    slot_count: int
    B: int
    C: int
    T: int
    J: int
    pad_bt: int
    channels_per_ct: int
    cts_per_joint: int

    @property
    def capacity(self) -> int:
        """Block positions per AMA ciphertext (slot_count // pad_bt)."""
        return self.slot_count // self.pad_bt if self.kind == AMA else 1

    def ct_count(self) -> int:
        if self.kind == AMA:
            return self.J * self.cts_per_joint
        return self.B * self.C

    # ---- AMA geometry -------------------------------------------------

    def group_channels(self, g: int) -> range:
        lo = g * self.channels_per_ct
        return range(lo, min(lo + self.channels_per_ct, self.C))

    def group_size(self, g: int) -> int:
        return len(self.group_channels(g))

    def block_channels(self) -> np.ndarray:
        """(group, block position) -> channel held there in every ciphertext
        of that group, read-only (``block_channels``)."""
        return block_channels(self.capacity, self.C, self.channels_per_ct)

    def ama_ct_index(self, j: int, g: int) -> int:
        return j * self.cts_per_joint + g


def ama_layout(dims, slot_count: int) -> PackingLayout:
    B, C, T, J = dims
    pad_bt = next_pow2(B * T)
    if pad_bt > slot_count:
        raise PackingError(
            f"channel block of {B}x{T} pads to {pad_bt} slots, exceeding slot count {slot_count}"
        )
    U = min(slot_count // pad_bt, C)
    return PackingLayout(AMA, slot_count, B, C, T, J, pad_bt, U, math.ceil(C / U))


def rowmajor_layout(dims, slot_count: int) -> PackingLayout:
    B, C, T, J = dims
    if T * J > slot_count:
        raise PackingError(f"T*J = {T * J} exceeds slot count {slot_count}")
    return PackingLayout(ROWMAJOR, slot_count, B, C, T, J, next_pow2(T * J), 1, 0)


@functools.lru_cache(maxsize=64)
def block_channels(cap: int, C: int, per_ct: int) -> np.ndarray:
    """The read-only (groups, cap) channel at every block position of an
    AMA ciphertext of each group of ``per_ct`` of the ``C`` channels.

    Blocks tile cyclically with the group's own size, so replica blocks
    map back onto real channels: group g starts at channel g * per_ct and
    block b holds its channel b mod (its size).
    """
    first = np.arange(0, C, per_ct)[:, None]
    channels = first + np.arange(cap) % np.minimum(per_ct, C - first)
    channels.flags.writeable = False
    return channels


def giant_step_coverage(cap: int, n: int) -> dict[int, np.ndarray]:
    """Which block rotation serves which block position during channel folds.

    Block position p of a ciphertext rotated by ``delta`` blocks exposes the
    channel stored at block (p + delta) mod cap, and blocks tile with period
    ``n`` (the group's channel count, 1 <= n <= cap).  Every position must
    receive each of the n channels through exactly one rotation: scanning
    delta = 0, 1, ... in turn, a rotation serves p when it brings a channel
    p has not received yet.  When n divides cap the rotations 0..n-1 cover
    uniformly; ragged tilings need a few extra.

    The scan has a closed form, computed here for all positions at once.
    Position p reads r = min(n, cap - p) consecutive blocks, and so r
    distinct channels, through deltas 0..r-1.  When r < n the next delta
    wraps to block 0, and block i (channel i) comes at delta cap - p + i:
    it serves p for each channel i its first r blocks did not bring.

    Returns {delta: bool mask over positions where delta is the provider},
    keyed in the order the scan over positions, then deltas, first meets
    each delta.
    """
    p = np.arange(cap)
    reach = np.minimum(n, cap - p)
    serves = np.arange(max(2 * n - 1, 0))[:, None] < reach  # (delta, position)
    ragged = p[reach < n]
    i = np.arange(n)[:, None]
    new = (i - ragged) % n >= reach[ragged]  # channel i not among the first blocks of p
    serves[(cap - ragged + i)[new], np.broadcast_to(ragged, new.shape)[new]] = True
    deltas = np.flatnonzero(serves.any(axis=1))
    first = serves[deltas].argmax(axis=1)
    return {d: serves[d] for d in deltas[np.lexsort((deltas, first))].tolist()}


def ama_pack(x: GraphTensor, ctx: SimContext) -> tuple[SimCiphertext, PackingLayout]:
    """Pack per joint: flatten, pad, concatenate channel blocks, stack copies.

    Returns one encrypted stack of the J * G ciphertexts in layout order
    (``PackingLayout.ama_ct_index``).
    """
    layout = ama_layout(x.dims, ctx.slot_count)
    B, C, T, J = x.dims
    pad, G, N = layout.pad_bt, layout.cts_per_joint, ctx.slot_count
    blocks = np.zeros((J, C, pad))
    # batch-major flattening: b outer, t inner
    blocks[:, :, : B * T] = x.data.transpose(3, 1, 0, 2).reshape(J, C, B * T)
    slots = np.empty((J, G, N))
    for g in range(G):
        chans = layout.group_channels(g)
        group = blocks[:, chans.start : chans.stop].reshape(J, -1)
        slots[:, g] = np.tile(group, (1, -(-N // group.shape[1])))[:, :N]
    return ctx.encrypt(slots.reshape(J * G, N)), layout


def ama_unpack(ct: SimCiphertext, layout: PackingLayout) -> GraphTensor:
    """Exact inverse of ama_pack on occupied slots.

    Reads the first copy of every channel block; the stacked copies must
    agree with it within 1e-9.
    """
    _check_layout(ct, layout, AMA)
    B, C, T, J = layout.B, layout.C, layout.T, layout.J
    pad, G, N = layout.pad_bt, layout.cts_per_joint, layout.slot_count
    slots = ct.slots.reshape(J, G, N)
    out = np.empty((B, C, T, J))
    for g in range(G):
        chans = layout.group_channels(g)
        period = len(chans) * pad
        rows = slots[:, g]
        if period < N:
            drift = np.abs(rows - np.tile(rows[:, :period], (1, -(-N // period)))[:, :N]).max(axis=1)
            j = int(drift.argmax())
            if drift[j] > 1e-9:
                raise PackingError(
                    f"replica divergence in row {layout.ama_ct_index(j, g)}: max drift {drift[j]:.3e} > 1e-9"
                )
        blocks = rows[:, :period].reshape(J, len(chans), pad)[..., : B * T]
        out[:, chans.start : chans.stop] = blocks.reshape(J, len(chans), B, T).transpose(2, 1, 3, 0)
    return GraphTensor(out)


def rowmajor_pack(x: GraphTensor, ctx: SimContext) -> tuple[SimCiphertext, PackingLayout]:
    """One ciphertext per (b, c), slots[t*J + j] = x[b, c, t, j], encrypted
    as one stack in (b, c) order."""
    layout = rowmajor_layout(x.dims, ctx.slot_count)
    B, C, T, J = x.dims
    return ctx.encrypt(x.data.reshape(B * C, T * J)), layout


def rowmajor_unpack(ct: SimCiphertext, layout: PackingLayout) -> GraphTensor:
    _check_layout(ct, layout, ROWMAJOR)
    B, C, T, J = layout.B, layout.C, layout.T, layout.J
    return GraphTensor(ct.slots.reshape(B * C, -1)[:, : T * J].reshape(B, C, T, J).copy())


def _check_layout(ct: SimCiphertext, layout: PackingLayout, kind: str) -> None:
    if layout.kind != kind:
        raise PackingError(f"layout kind {layout.kind!r} does not match {kind!r}")
    if ct.rows != layout.ct_count():
        raise PackingError(f"expected {layout.ct_count()} ciphertexts, got {ct.rows}")
    if ct.slots.shape[-1] != layout.slot_count:
        raise PackingError("ciphertext slot count does not match layout")
