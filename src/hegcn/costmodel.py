"""Analytic homomorphic-operation-count model, depth and parameter selection.

Three layers of formulas live here:

* ``matmul_hoc`` -- the dense matrix-multiplication comparison (total Rot,
  PMult, Add per format).  AMA results sit in max(B*C, J) ciphertexts; the
  counts are exact against measured counters whenever B, C and J are
  powers of two with B <= J, and estimates elsewhere.
* ``framework_hoc`` -- coarse model-level rows in the style of
  cross-framework cost comparisons (CHET, Fast-HEAR), evaluated verbatim
  from a :class:`HocFormulaInput`.  They fold whole layer stacks into
  single terms and skip some bookkeeping (see ``analytic_layer_counts``),
  but comparisons against those frameworks are defined in their terms.
* ``analytic_layer_counts`` -- exact per-layer predictions that mirror the
  engine's schedule operation for operation; ``reconcile`` diffs them
  against measured counters and must come out all-zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hegcn import packing
from hegcn.adjacency import diagonal_offsets, fold_bn
from hegcn.hesim import HOC_OPS, OPS, SCALE_BITS
from hegcn.model import (
    Activation,
    FullyConnected,
    GlobalAvgPool,
    ModelSpec,
    SpatialConv,
    TemporalConv,
    check_pooled_frames,
)
from hegcn.packing import AMA, ROWMAJOR, next_pow2


class ParamSelectionError(Exception):
    """No parameter-table entry satisfies the requested level budget."""


# ----------------------------------------------------------------------
# multiplicative depth


def depth(spec: ModelSpec) -> int:
    """Levels the model needs: per-layer costs plus one headroom level.

    Per layer: merged spatial conv 1, temporal conv 1, activation 2 (0 when
    pruned), pooling 1, fully-connected 1.  One extra level stays reserved
    so the decrypted result sits above the floor of the modulus chain;
    pruning an activation therefore subtracts exactly 2.
    """
    consumed = sum(layer.levels for layer in spec.layers)
    return consumed + 1 if consumed else 0


# ----------------------------------------------------------------------
# dense matmul comparison


def matmul_hoc(fmt: str, B: int, C: int, J: int) -> dict[str, int]:
    """Total Rot/PMult/Add for one dense J x J matrix multiplication.

    Row-major: every (batch, channel) ciphertext is rotated to all 2J-1
    diagonal alignments (offset 0 free) and multiplied once per output
    channel.

    AMA: plaintext multiplications replace the diagonal pass and rotations
    only fold the U channel blocks of each result ciphertext.  The packing
    keeps at least one ciphertext per joint and holds at most C channels in
    one, so there are N = max(B*C, J) result ciphertexts, each holding
    U = J*C/N = min(J/B, C) channel blocks:

        rot = N * (ceil(U) - 1),  pmult = N * J * C,  add = pmult - N.

    In the paper's regime U = J/B <= C this is N = B*C (e.g. J=25, C=64
    gives 1536 / 102400 / 102336); a non-integral J/B rounds the fold
    length up.  The C < J/B branch (N = J, U = C) is this package's own
    derivation from the packing rule; the paper does not state that case.
    The counts are exact when B, C and J are powers of two with B <= J.
    Elsewhere ragged channel groups and padded blocks make them estimates:
    (B, C, J) = (1, 6, 8) measures 56 / 512 / 504.
    """
    if fmt == ROWMAJOR:
        pmult = B * C * (2 * J - 1) * C
        return {"rot": B * C * (2 * J - 2), "pmult": pmult, "add": pmult - B * C}
    if fmt == AMA:
        n_cts = max(B * C, J)
        fold = -(-J * C // n_cts)  # ceil(U) in integer arithmetic
        pmult = n_cts * J * C
        return {"rot": n_cts * (fold - 1), "pmult": pmult, "add": pmult - n_cts}
    raise ValueError(f"unknown format {fmt!r}")


# ----------------------------------------------------------------------
# aggregate comparison rows


@dataclass
class HocFormulaInput:
    """Symbol table for the aggregate formulas.

    B batch, C channels, O output channels, T frames, J joints, K temporal
    kernel, S_p / T_e / A layer counts, V valid merged-matrix elements, D
    nonzero generalized diagonals, C_s classes, samples per run; U, N_a,
    N_r and R follow from the slot count.
    """

    slot_count: int
    B: int
    C: int
    O: int
    T: int
    J: int
    K: int
    S_p: int
    T_e: int
    A: int
    V: float
    D: int
    C_s: int
    samples: int = 1

    @property
    def U(self) -> int:
        """Channels per AMA ciphertext."""
        return min(self.slot_count // next_pow2(self.B * self.T), self.C)

    @property
    def N_a(self) -> int:
        """AMA ciphertext count."""
        return self.J * math.ceil(self.C / self.U)

    @property
    def N_r(self) -> int:
        """Row-major ciphertext count."""
        return self.B * self.C * self.samples

    @property
    def R(self) -> int:
        """Polynomial degree, 2 * slots."""
        return 2 * self.slot_count


def framework_hoc(method: str, inp: HocFormulaInput) -> dict[str, float]:
    """Model-level Rot/PMult/CMult/Add for cross-framework comparison rows."""
    i = inp
    log_t = math.log2(i.T / 2)
    log_r = math.log2(i.R / 2)
    n = i.samples
    if method == "chet":
        return {
            "rot": i.N_r * (i.D - 1) * (i.S_p + 1)
            + i.N_r * (i.K - 1) * (i.T_e + 2)
            + i.N_r * log_r
            + i.C_s,
            "pmult": i.N_r * i.D * i.O * (i.S_p + 2)
            + i.N_r * i.K * i.O * (i.T_e + 4)
            + i.N_r * 2 * i.A * 2
            + i.N_r / n * i.C_s,
            "cmult": i.N_r * i.A * 2,
            "add": (i.N_r * i.D * i.O - i.N_r) * (i.S_p + 2)
            + (i.N_r * i.K * i.O - i.N_r) * (i.T_e + 4)
            + i.N_r * i.A * 2
            + i.N_r / n
            + i.N_r / 2 * log_r
            + i.N_r / n * i.C_s,
        }
    if method == "fast_hear":
        return {
            "rot": i.N_r * (i.D - 1) * i.S_p
            + i.N_r * (i.K - 1) * (i.T_e + 1)
            + i.N_r / n * log_r
            + i.C_s,
            "pmult": i.N_r * i.D * i.O * (i.S_p + 1)
            + i.N_r * i.K * i.O * (i.T_e + 1)
            + i.N_r * 2 * (i.A + 3)
            + i.N_r / n * i.C_s,
            "cmult": i.N_r * (i.A + 3),
            "add": (i.N_r * i.O * i.K - i.N_r) * (i.S_p + 1)
            + (i.N_r * i.K * i.O - i.N_r) * (i.T_e + 1)
            + i.N_r * (i.A + 3)
            + i.N_r / n
            + i.N_r / n * log_r
            + i.C_s * i.N_r / n,
        }
    if method == "ama":
        return {
            "rot": i.J * (i.S_p + 1 + i.T_e) * (i.O / i.U) * (i.U - 1)
            + i.N_a * (i.K - 1) * (i.T_e + 1)
            + i.C / i.U * log_t
            + i.C / i.U * i.C_s,
            "pmult": i.N_a * (i.V / i.J) * i.O * i.S_p
            + i.N_a * i.O * i.K * (i.T_e + 1)
            + i.C / i.U * i.C_s
            + 2 * i.N_a * i.A,
            "cmult": i.N_a * i.A,
            "add": (i.N_a * (i.V / i.J) * i.O - i.N_a) * i.S_p
            + (i.N_a * i.O * i.K - i.N_a) * (i.T_e + 1)
            + i.C / i.U * (i.J - 1)
            + i.C / i.U * i.C_s
            + 2 * i.N_a * i.A,
        }
    raise ValueError(f"unknown method {method!r}")


def total_hoc(counts: dict[str, float]) -> float:
    return sum(counts.get(op, 0) for op in HOC_OPS)


# ----------------------------------------------------------------------
# exact per-layer accounting (mirrors the engine schedule)


def _zero() -> dict[str, int]:
    return dict.fromkeys(OPS, 0)


def _folded_bias_nonzero(layer, channels: int) -> bool:
    """Whether a conv layer adds a bias: its folded batch-norm shift is nonzero."""
    return bool(np.any(np.abs(fold_bn(layer.bias, layer.bn, channels)[1]) > 0))


def _fold_deltas(cap: int, n: int) -> set[int]:
    """Block rotations a channel fold of one n-channel group needs.

    A ciphertext holds ``cap`` block positions tiled with period n, so
    position p rotated by delta blocks reads channel ((p + delta) mod cap)
    mod n, and each position takes every channel from the first delta that
    exposes it:

    * a position p <= cap - n reads n consecutive blocks without wrapping,
      hence all n channels through deltas 0..n-1;
    * one of the last n - 1 positions, p = cap - L with 0 < L < n, reads the
      L channels (cap - L .. cap - 1) mod n through deltas 0..L-1 and then
      wraps to block 0.  Delta L + r reads block r, channel r, so the
      n - L missing channels (cap + j) mod n, j < n - L, arrive at deltas
      L + ((cap + j) mod n).

    When n divides cap the wrapped deltas are L + j <= n - 1 and the set is
    range(n); only ragged tilings add deltas beyond it.
    """
    deltas = set(range(n))
    if cap % n:
        for L in range(1, n):
            deltas.update(L + (cap + j) % n for j in range(n - L))
    return deltas


def _ama_fold_geometry(layout) -> tuple[int, int]:
    """(plaintext mults per output ciphertext column unit, giant rotations).

    Returns (sum over groups of their delta counts, union delta count - 1):
    the per-output-ciphertext PMult multiplier per matrix piece and the
    per-output-ciphertext rotation count of the channel fold.
    """
    sizes = [layout.group_size(g) for g in range(layout.cts_per_joint)]
    deltas = {n: _fold_deltas(layout.capacity, n) for n in set(sizes)}
    per_group = sum(len(deltas[n]) for n in sizes)
    return per_group, len(set().union(*deltas.values())) - 1


def analytic_layer_counts(spec: ModelSpec, fmt: str, slot_count: int) -> dict[str, dict[str, int]]:
    """Exact per-layer counters the engine will produce for this model.

    Mirrors the schedule: shared input rotations for temporal taps and
    row-major diagonals, giant-step folds on per-output partial sums, the
    polynomial activation's fixed 1 CMult / 2 PMult / 2 Add shape, masked
    pooling and the anchored classifier head.  Bias additions count one Add
    per output ciphertext when the folded bias is nonzero.

    The formulas assume that no weight column is exactly zero: the engine's
    operators run no term whose coefficients are all zero, so a conv layer
    whose weights zero a whole term (in row-major one weight, in AMA the
    weights of a term's channel blocks), or an AMA head with a zero (class,
    group) column, counts fewer PMults and Adds than these.

    A pooling layer whose valid frame count is not a power of two has no
    halving tree to count: it raises the ``PoolingError`` that
    ``engine.check_pooling`` raises, naming the layer.
    """
    if fmt not in (AMA, ROWMAJOR):
        raise ValueError(f"unknown format {fmt!r}")
    B, C, T, J = spec.input_dims
    out: dict[str, dict[str, int]] = {}
    c_cur, tv = C, T
    for label, layer in zip(spec.labels(), spec.layers):
        counts = _zero()
        if isinstance(layer, SpatialConv):
            union = layer.adjacency.structural_union()
            V = int(union.sum())
            bias_on = _folded_bias_nonzero(layer, layer.c_out)
            if fmt == AMA:
                lin = packing.ama_layout((B, layer.c_in, T, J), slot_count)
                lout = packing.ama_layout((B, layer.c_out, T, J), slot_count)
                per_group, giant_rots = _ama_fold_geometry(lin)
                n_out = lout.ct_count()
                counts["pmult"] = V * per_group * lout.cts_per_joint
                counts["rot"] = n_out * giant_rots
                counts["add"] = counts["pmult"] - n_out + (n_out if bias_on else 0)
            else:
                offs = diagonal_offsets(union)
                n_in, n_out = B * layer.c_in, B * layer.c_out
                counts["rot"] = n_in * (len(offs) - (1 if 0 in offs else 0))
                counts["pmult"] = n_in * len(offs) * layer.c_out
                counts["add"] = counts["pmult"] - n_out + (n_out if bias_on else 0)
            c_cur = layer.c_out
        elif isinstance(layer, TemporalConv):
            bias_on = _folded_bias_nonzero(layer, layer.channels)
            K = layer.kernel
            if fmt == AMA:
                lin = packing.ama_layout((B, c_cur, T, J), slot_count)
                per_group, giant_rots = _ama_fold_geometry(lin)
                n_cts = lin.ct_count()
                counts["rot"] = n_cts * (K - 1) + n_cts * giant_rots
                counts["pmult"] = n_cts * per_group * K
                counts["add"] = counts["pmult"] - n_cts + (n_cts if bias_on else 0)
            else:
                n_cts = B * c_cur
                counts["rot"] = n_cts * (K - 1)
                counts["pmult"] = n_cts * c_cur * K
                counts["add"] = counts["pmult"] - n_cts + (n_cts if bias_on else 0)
            tv = math.ceil(tv / layer.stride)
        elif isinstance(layer, Activation):
            if not layer.pruned:
                n_cts = (
                    packing.ama_layout((B, c_cur, T, J), slot_count).ct_count()
                    if fmt == AMA
                    else B * c_cur
                )
                counts["cmult"] = n_cts
                counts["pmult"] = 2 * n_cts
                counts["add"] = 2 * n_cts
        elif isinstance(layer, GlobalAvgPool):
            check_pooled_frames(label, tv)
            steps = int(math.log2(tv)) if tv > 1 else 0
            if fmt == AMA:
                G = packing.ama_layout((B, c_cur, T, J), slot_count).cts_per_joint
                counts["rot"] = G * steps
                counts["pmult"] = G
                counts["add"] = G * (J - 1) + G * steps
            else:
                n_cts = B * c_cur
                full = int(math.log2(slot_count))
                counts["rot"] = n_cts * full
                counts["pmult"] = n_cts
                counts["add"] = n_cts * full
        elif isinstance(layer, FullyConnected):
            cs = layer.classes
            if fmt == AMA:
                lin = packing.ama_layout((B, c_cur, T, J), slot_count)
                G, cap = lin.cts_per_joint, lin.capacity
                fold = int(math.log2(cap)) if cap > 1 else 0
                counts["rot"] = cs * fold
                counts["pmult"] = cs * G
                counts["add"] = cs * (G - 1) + cs * fold + cs
            else:
                counts["pmult"] = B * c_cur
                counts["add"] = B * (c_cur - 1) + B
            c_cur = cs
        counts["rescale"] = counts["pmult"] + counts["cmult"]
        out[label] = counts
    return out


def totals_of(per_layer: dict[str, dict[str, int]]) -> dict[str, int]:
    tot = _zero()
    for counts in per_layer.values():
        for op in tot:
            tot[op] += counts.get(op, 0)
    return tot


def reconcile(measured: dict[str, dict], analytic: dict[str, dict]) -> dict:
    """Signed per-layer differences (measured - analytic) plus the maximum.

    Layers present on only one side diff against zero, so configuration
    mismatches surface instead of vanishing.
    """
    labels = sorted(set(measured) | set(analytic))
    diffs = {}
    worst = 0
    for label in labels:
        m = measured.get(label, {})
        a = analytic.get(label, {})
        d = {op: int(m.get(op, 0)) - int(round(a.get(op, 0))) for op in HOC_OPS}
        if any(d.values()):
            diffs[label] = d
        worst = max(worst, max(abs(v) for v in d.values()))
    return {"per_layer": diffs, "max_abs_diff": worst}


# ----------------------------------------------------------------------
# HE parameter selection


@dataclass(frozen=True)
class HeParams:
    poly_degree: int
    modulus_bits: int
    scale_bits: int
    levels: int
    security_bits: int

    @property
    def slot_count(self) -> int:
        return self.poly_degree // 2

    def to_dict(self) -> dict:
        return {
            "poly_degree": self.poly_degree,
            "modulus_bits": self.modulus_bits,
            "scale_bits": self.scale_bits,
            "levels": self.levels,
            "security_bits": self.security_bits,
            "slot_count": self.slot_count,
        }


#: Modulus-chain menu per security target: for each polynomial degree, the
#: usable total modulus budgets (bits), ascending.  Configuration data, not
#: a lattice estimate: entries are seeded so the reference parameter choices
#: (21 -> 2^15/740, 19 -> 2^14/680, 17 -> 2^14/600 at the 80-bit target)
#: come out of the generic rule below.  Swap in a different table to track
#: another security analysis.
SECURITY_TABLE: dict[int, list[tuple[int, list[int]]]] = {
    80: [
        (2**13, [360]),
        (2**14, [600, 680]),
        (2**15, [740, 1400]),
    ],
    128: [
        (2**13, [218]),
        (2**14, [438]),
        (2**15, [880]),
    ],
}


def select_params(levels: int, scale_bits: int = SCALE_BITS, security_bits: int = 80) -> HeParams:
    """Smallest polynomial degree, then smallest modulus covering the levels.

    Each level consumes ``scale_bits`` of modulus; the menu entries already
    include key-switching margins, so the rule is simply the smallest table
    budget >= levels * scale_bits at the requested security target.
    """
    if levels < 1:
        raise ValueError("need at least one level")
    if security_bits not in SECURITY_TABLE:
        raise ParamSelectionError(f"no table for security target {security_bits} bits")
    need = levels * scale_bits
    for poly_degree, budgets in SECURITY_TABLE[security_bits]:
        for q in budgets:
            if q >= need:
                return HeParams(poly_degree, q, scale_bits, levels, security_bits)
    raise ParamSelectionError(
        f"no parameter set supports {levels} levels at {scale_bits}-bit scale "
        f"and {security_bits}-bit security"
    )


# ----------------------------------------------------------------------
# batch amortization


def amortized_sweep(make_spec, fmt: str, slot_count: int, batches) -> list[dict]:
    """Per-sample analytic counters across batch sizes.

    ``make_spec(B)`` must return the model at batch size B.  AMA rotation
    counts amortize (channel folds shrink as batches share ciphertexts)
    while the remaining counters are linear in B; row-major counters are
    exactly linear, so the per-sample row is constant.
    """
    rows = []
    for b in batches:
        spec = make_spec(b)
        totals = totals_of(analytic_layer_counts(spec, fmt, slot_count))
        per_sample = {op: totals[op] / b for op in HOC_OPS}
        per_sample["total"] = sum(per_sample.values())
        rows.append({"batch": b, **per_sample})
    return rows
