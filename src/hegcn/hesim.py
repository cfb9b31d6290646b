"""Slot-level simulator for a CKKS-style leveled HE scheme.

Ciphertexts are immutable vectors of float64 "slots" with a remaining
multiplicative level.  Every homomorphic operation is counted exactly and
optionally logged, so schedules can be audited operation by operation.  No
cryptographic noise is simulated: correctness statements made with this
module are about packing and scheduling algebra, not security.

Level discipline:
  * every multiplication (pmult, cmult) rescales implicitly and costs one
    level;
  * additions require equal levels (use ``mod_switch`` to align);
  * rotation by zero is the identity and is neither counted nor logged.

Batching: a ciphertext may hold an (n, slots) stack of n ciphertexts at one
level.  Every op on a stack counts n and writes one log record with a
``count`` field (left out when n = 1).  ``fold_steps`` is the one fused
multiply-accumulate: it applies a prebuilt operator, the baby-step/giant-step
product of Halevi and Shoup (CRYPTO 2018), to a stack of input ciphertexts.
A ``BlockCirculant`` (AMA) holds the tap rotations of the inputs (the baby
steps) and many folds rotated by whole blocks (the giant steps) as one
block-circulant matrix.  A ``Mixed`` applies one shared ``BlockCirculant`` to
linear mixes of each source set's inputs: the factored form of a fold whose
coefficients are sums of products, as in an AMA spatial conv, where the
shared matrix holds the weight slabs and the mix the partition entries.  The
row-major operators are the diagonal method with one giant step of 0: a
``Diagonals`` (temporal conv) holds the tap rotations as the baby steps, with
one coefficient per (tap, input, output) for every column, and a
``MixedDiagonals`` (spatial conv) rotates by the diagonals of the joint
pattern and is applied factored, like a ``Mixed``: the joints of every frame
row are mixed by each partition, then the weight slabs are one GEMM.  Both
count with one per-amount rule (``_diagonal_records``).  Each operator is
built once per layer (a ``Mixed`` once per chunk of source sets, around its
layer's operator), holds the plaintext factors that scale its terms,
precomputes its counter totals and op records, and is applied as one batched
matrix product (a ``BlockCirculant`` skips the within-block positions its
factors zero); ``fold_steps`` adds its totals to the counter once and writes
its records only when ``log_ops`` is on.  The counts are those of the
schedule one ciphertext at a time: a rotation per input and amount some term
reads, and a PMult per term that runs (its coefficients, for a ``Mixed`` the
combined ones and for a ``MixedDiagonals`` the merged ones, are not all
zero), with the Adds that sum them.  ``stack`` and ``unstack`` are
bookkeeping and count nothing.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager

import numpy as np

#: Upper bound on the bytes of one chunk's source stack, plaintext table or
#: gathered buffer.  Kernels and ``Diagonals`` run in chunks that stay below
#: it (at least one item each).  Measured on the reference model (slot
#: 8192): 2 MB and 256 KB run equally fast, 256 KB keeps the run's peak
#: memory lower and the activation's elementwise ops in cache.  A
#: ``Diagonals`` item is one grid column with all its frames: splitting the
#: frames to stay under the bound made a 128-channel temporal layer at slot
#: 8192 2.2x slower.
_CHUNK_BYTES = 256 << 10

#: Counter names, in the order they appear in reports.  Rescale is
#: bookkeeping for the modulus chain, not a separately scheduled operation,
#: and does not enter the homomorphic-operation-count total.
OPS = ("rot", "pmult", "cmult", "add", "rescale")


class LevelError(Exception):
    """An operation violated the level discipline of the scheme."""


def _zero_counts():
    return dict.fromkeys(OPS, 0)


class HocCounter:
    """Exact homomorphic operation counts, kept per layer label.

    Totals are always derived from the per-layer map, so the invariant
    "total == sum over layers" holds by construction.
    """

    def __init__(self):
        self.per_layer: dict[str, dict[str, int]] = {}

    def bump(self, layer: str, op: str, n: int = 1) -> None:
        if op not in OPS:
            raise ValueError(f"unknown op {op!r}")
        self.counts_of(layer)[op] += n

    def counts_of(self, layer: str) -> dict[str, int]:
        """The live per-op counts of ``layer``, created at zero on first use."""
        counts = self.per_layer.get(layer)
        if counts is None:
            counts = self.per_layer[layer] = _zero_counts()
        return counts

    def layer(self, label: str) -> dict[str, int]:
        return dict(self.per_layer.get(label, _zero_counts()))

    def totals(self) -> dict[str, int]:
        out = _zero_counts()
        for counts in self.per_layer.values():
            for op in OPS:
                out[op] += counts[op]
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, HocCounter):
            return NotImplemented
        labels = set(self.per_layer) | set(other.per_layer)
        return all(self.layer(lb) == other.layer(lb) for lb in labels)

    def __repr__(self) -> str:
        t = self.totals()
        body = ", ".join(f"{op}={t[op]}" for op in OPS)
        return f"HocCounter({body})"


class SimCiphertext:
    """Immutable slot vector with a remaining-level budget and an opaque id.

    ``slots`` is one vector of ``slot_count`` values, or a stack of shape
    (n, slot_count): n ciphertexts at one level that every operation treats
    row by row and counts n times.
    """

    __slots__ = ("slots", "level", "id", "ctx")

    def __init__(self, slots: np.ndarray, level: int, id: str, ctx: "SimContext"):
        slots = np.asarray(slots, dtype=np.float64)
        slots.flags.writeable = False
        self.slots = slots
        self.level = int(level)
        self.id = id
        self.ctx = ctx

    @property
    def rows(self) -> int:
        """Ciphertexts held: 1 for a single vector, n for an (n, slots) stack."""
        return 1 if self.slots.ndim == 1 else self.slots.shape[0]

    def __repr__(self) -> str:
        shape = "x".join(map(str, self.slots.shape))
        return f"SimCiphertext(id={self.id}, level={self.level}, slots={shape})"


def stack(cts) -> SimCiphertext:
    """One stack of the given ciphertexts and stacks, in order.

    Bookkeeping, not an HE operation: nothing is counted or logged.
    """
    cts = list(cts)
    if not cts:
        raise ValueError("stack needs at least one ciphertext")
    levels = {ct.level for ct in cts}
    if len(levels) > 1:
        raise LevelError(f"cannot stack ciphertexts at levels {sorted(levels)}")
    slots = np.concatenate([ct.slots.reshape(ct.rows, -1) for ct in cts])
    return cts[0].ctx._new_ct(slots, cts[0].level)


def unstack(ct: SimCiphertext) -> list[SimCiphertext]:
    """The rows of a stack as single ciphertexts (views, nothing counted)."""
    if ct.slots.ndim == 1:
        return [ct]
    return [ct.ctx._new_ct(row, ct.level) for row in ct.slots]


def _giant_step_records(amounts, runs) -> tuple[list, np.ndarray]:
    """The giant-step records of a fold whose (S, sets, V, T) ``runs`` mark
    the terms that run in each step, and the (sets*V) rows some step reaches.

    Per step: its PMults, its Adds of products, one rotation by the step's
    amount (mod slot count, none when 0) per row with terms, and one Add per
    row that already holds a partial sum.
    """
    S, sets, V, _ = runs.shape
    terms = runs.sum(axis=-1).reshape(S, sets * V)
    rows = terms > 0
    merges = np.zeros_like(rows)
    merges[1:] = rows[1:] & np.logical_or.accumulate(rows, axis=0)[:-1]
    records = []
    for rotation, pmults, adds, n_rows, n_merges in zip(
        amounts.tolist(),
        terms.sum(axis=1).tolist(),
        np.maximum(terms - 1, 0).sum(axis=1).tolist(),
        rows.sum(axis=1).tolist(),
        merges.sum(axis=1).tolist(),
    ):
        records += [
            ("pmult", pmults, 0, 1, {}),
            ("add", adds, 1, 1, {}),
            ("rot", n_rows if rotation else 0, 1, 1, {"rotation_amount": rotation}),
            ("add", n_merges, 1, 1, {}),
        ]
    return records, rows.any(axis=0)


def _tally(records) -> tuple[tuple, dict]:
    """The records that count something, and their totals per counter."""
    records = tuple(rec for rec in records if rec[1])
    totals = dict.fromkeys(OPS, 0)
    for op, n, *_ in records:
        totals[op] += n
    totals["rescale"] = totals["pmult"]
    return records, {op: n for op, n in totals.items() if n}


class BlockCirculant:
    """The baby-step/giant-step operator of one AMA channel fold, built once
    and applied by ``SimContext.fold_steps`` to any number of source stacks.

    The slots are read as a ``grid`` (n1, n2): n1 blocks of n2 slots.  The
    baby steps rotate each input ciphertext by every one of the K ``taps``
    (slot amounts); the T terms are the (input, tap) pairs, input-major, so
    a source set is T / K inputs.  Giant step s rotates by ``amounts[s]``
    slots, a multiple of n2 (a shift by whole blocks).  ``coef`` has shape
    (S, sets, V, T, n1): step, source set (one set shared by all, or one per
    set), row, term and the block a coefficient lands on after its step's
    rotation.  ``vec`` broadcasts to (T, n1, n2) and scales each term's
    slots after its tap rotation.  Block b of row v of source set u is

        sum over steps s, terms t of  coef[s, u, v, t, b] * (vec[t] * src[u, t])[b']

    with b' = (b + amounts[s] / n2) mod n1 and src[u, t] input i of set u
    rotated by tap k, for t = (i, k): the baby-step/giant-step matrix-vector
    product of Halevi and Shoup (CRYPTO 2018), where all giant steps
    together are one (V*n1, T*n1) block-circulant matrix per source set.
    Repeated amounts add up.

    ``matrix`` is that (sets, V*n1, T*n1) matrix, rows (row, block) and
    columns (term, source block); ``coef`` and ``amounts`` (mod slot count)
    are kept for ``Mixed``.  A giant step moves whole blocks, so position p
    of every block of the product reads position p of the blocks of the
    terms only, and is zero where ``vec`` is zero for every term.  ``live``
    is the slice of within-block positions from the first such nonzero
    position to the last, in the largest step that meets them all (every
    position when ``vec`` is nonzero everywhere); ``apply`` copies, scales
    and multiplies only those columns, and the product is an exact zero at
    the others.  ``vec`` is kept as (inputs, K, n1 or 1, live) factors, one
    block for all when they are the same in every block, and None when
    every factor is 1.

    ``has_terms`` marks the (sets*V) rows some step reaches.  ``records``
    lists the op log of one source set in the schedule's order: one rotation
    per distinct nonzero tap amount of the inputs some pair of it reads, then
    per giant step its PMults, its Adds of products, one rotation per row
    with terms (none when the amount is 0 mod n1*n2) and one Add per row that
    already holds a partial sum.  Each record is (op, count, levels spent
    before, levels spent after, extra fields); ``totals`` sums them per
    counter.  The arrays are read-only and ``fold_steps`` changes nothing,
    so one operator serves any number of source stacks.
    """

    __slots__ = ("grid", "slot_count", "taps", "amounts", "sets", "rows", "terms", "inputs", "coef", "matrix", "vec", "live", "has_terms", "records", "totals")

    def __init__(self, amounts, coef, grid, taps=(0,), vec=1.0):
        n1, n2 = grid
        N = n1 * n2
        amounts = np.asarray(amounts, dtype=np.int64)
        coef = np.asarray(coef, dtype=np.float64).view()
        if coef.ndim != 5 or coef.shape[4] != n1 or coef.shape[0] != len(amounts):
            raise ValueError(f"coef of shape {coef.shape} is not ({len(amounts)}, sets, rows, terms, {n1})")
        if np.any(amounts % n2):
            raise ValueError(f"a rotation amount in {amounts.tolist()} is not a multiple of the block length {n2}")
        S, sets, V, T = coef.shape[:4]
        taps = tuple(int(a) % N for a in taps)
        if not taps or T % len(taps):
            raise ValueError(f"{T} terms are not (input, tap) pairs of {len(taps)} taps")
        # sum the steps per block shift k (block b reads source block b + k), then
        # copy the sums once into E[u, v, t, b, k], doubled along k, so that
        # mat[u, v, b, t, c] = E[u, v, t, b, (c - b) % n1] = E[u, v, t, b, n1 - b + c]
        # is a strided view
        D = np.zeros((n1, sets, V, T, n1))
        for k, c in zip((amounts // n2 % n1).tolist(), coef):
            D[k] += c
        D = D.transpose(1, 2, 3, 4, 0)
        E = np.concatenate((D, D), axis=-1)
        su, sv, st, sb, sk = E.strides
        mat = np.lib.stride_tricks.as_strided(E[..., n1:], (sets, V, n1, T, n1), (su, sv, sb - sk, st, sk)).copy()
        runs = coef.any(axis=-1)  # (S, sets, V, T): the terms that run
        reads = runs.any(axis=(0, 2)).reshape(sets, T // len(taps), len(taps))
        records = []
        for a in dict.fromkeys(taps):  # distinct amounts, in first-appearance order
            inputs = reads[:, :, [k for k, b in enumerate(taps) if b == a]].any(axis=-1).sum()
            records.append(("rot", int(inputs) if a else 0, 0, 0, {"rotation_amount": a}))
        steps, self.has_terms = _giant_step_records(amounts % N, runs)
        self.records, self.totals = _tally(records + steps)
        # (T, n1 or 1, n2): a factor the same in every block is kept once
        vec = np.asarray(vec, dtype=np.float64)
        vec = vec.reshape((1,) * (3 - vec.ndim) + vec.shape)
        vec = np.broadcast_to(vec, (T, vec.shape[1], n2))
        nonzero = np.flatnonzero(vec.any(axis=(0, 1)))
        step = int(np.gcd.reduce(np.diff(nonzero))) if len(nonzero) > 1 else 1
        self.live = slice(int(nonzero[0]), int(nonzero[-1]) + 1, step) if len(nonzero) else slice(0)
        vec = vec[..., self.live].reshape(T // len(taps), len(taps), vec.shape[1], len(range(n2)[self.live]))
        self.vec = None if (vec == 1).all() else np.ascontiguousarray(vec)
        self.grid, self.slot_count = (int(n1), int(n2)), int(N)
        self.taps, self.amounts = taps, amounts % N
        self.sets, self.rows, self.terms, self.inputs = sets, V, T, T // len(taps)
        self.coef, self.matrix = coef, mat.reshape(sets, V * n1, T * n1)
        for arr in (self.amounts, self.coef, self.matrix, self.vec, self.has_terms):
            if arr is not None:
                arr.flags.writeable = False

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The (U, rows, slot_count) products of the (U, inputs, slot_count) sources."""
        U, I, N = x.shape
        n1, n2 = self.grid
        K = len(self.taps)
        L = len(range(n2)[self.live])
        if self.taps == (0,) and L == n2:  # the sources are the terms
            z = x if self.vec is None else x.reshape(U, I, 1, n1, n2) * self.vec
        else:
            # z[u, i, k] is input i of set u rotated by tap k, at the live
            # positions: columns (term, source block), like the operator's.
            # Each tap reads a window of the inputs wrapped the nearer way round.
            reach = [a - N if a > N // 2 else a for a in self.taps]
            pre, post = max(0, -min(reach)), max(0, max(reach))
            wrapped = np.concatenate((x[..., N - pre :], x, x[..., :post]), axis=-1)
            z = np.empty((U, I, K, n1, L))
            for k, a in enumerate(reach):
                z[:, :, k] = wrapped[..., pre + a : pre + a + N].reshape(U, I, n1, n2)[..., self.live]
            if self.vec is not None:
                z *= self.vec
        prod = self.matrix @ z.reshape(U, self.terms * n1, L)
        if L == n2:
            return prod.reshape(U, self.rows, N)
        out = np.zeros((U, self.rows * n1, n2))
        out[..., self.live] = prod
        return out.reshape(U, self.rows, N)


class Mixed:
    """A shared ``BlockCirculant`` applied to linear mixes of each source
    set's inputs: the factored form of a fold whose coefficients are sums
    of products, such as an AMA spatial conv's sum over partitions p of
    N_p[k, j] * W_p[c, o].

    ``op`` has the single tap 0, one set of coefficients and T = P * G
    terms (part, group); ``mix`` (sets, P, M) holds per source set the
    scalar of each (part, piece).  A source set is M * G inputs (piece,
    group), and ``op`` is applied to its P * G mixes

        y[u, p, g] = sum over m of  mix[u, p, m] * src[u, (m, g)]

    The counts are those of the fold the mix stands for, one ciphertext at
    a time, whose terms are the (piece, group) inputs: term (m, g) of set u
    has, at step s, row v and block b, the combined coefficient

        sum over p of  mix[u, p, m] * op.coef[s, 0, v, (p, g), b]

    summed in the order of p, and runs when that is not zero at some block;
    a sum that cancels runs nothing.  ``records``, ``totals`` and
    ``has_terms`` are those of a ``BlockCirculant`` of the combined table,
    worked out from that support without building its matrix.
    """

    __slots__ = ("op", "mix", "slot_count", "sets", "rows", "inputs", "has_terms", "records", "totals")

    def __init__(self, op: BlockCirculant, mix):
        mix = np.array(mix, dtype=np.float64)
        S, shared, V, T, n1 = op.coef.shape
        if op.taps != (0,) or shared != 1 or mix.ndim != 3 or T % mix.shape[1]:
            raise ValueError(f"mix of shape {mix.shape} does not fit an operator of {shared} sets of {T} terms and taps {op.taps}")
        sets, P, M = mix.shape
        G = T // P
        w = op.coef[:, 0].reshape(S, V, P, G, n1)
        combined = np.zeros((S, sets, V, M, G, n1))
        for p in np.flatnonzero(mix.any(axis=(0, 2))):  # a part no set reads adds only zeros
            combined += mix[None, :, None, p, :, None, None] * w[:, None, :, p, None]
        records, self.has_terms = _giant_step_records(op.amounts, combined.any(axis=-1).reshape(S, sets, V, M * G))
        self.records, self.totals = _tally(records)
        self.op, self.mix, self.slot_count = op, mix, op.slot_count
        self.sets, self.rows, self.inputs = sets, V, M * G
        for arr in (self.mix, self.has_terms):
            arr.flags.writeable = False

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The (U, rows, slot_count) products of the (U, inputs, slot_count) sources."""
        U, _, N = x.shape
        return self.op.apply((self.mix @ x.reshape(U, self.mix.shape[2], -1)).reshape(U, -1, N))


def _diagonal_records(amounts, runs) -> tuple[list, np.ndarray]:
    """The op log of the diagonal method whose (D, inputs, rows) ``runs``
    mark the products that run for each of D diagonals or taps, rotated by
    ``amounts`` (mod slot count), and the rows some product reaches.

    Per distinct amount, in first-appearance order: one rotation per input
    some product of the amount reads (none for amount 0), one PMult per
    product, ``products - 1`` Adds per row, and one Add per row with
    products that already holds a partial sum of an earlier amount.
    """
    distinct = list(dict.fromkeys(amounts))
    at = np.array([distinct.index(a) for a in amounts], dtype=np.int64)
    reads = np.zeros((len(distinct), runs.shape[1]), bool)
    np.logical_or.at(reads, at, runs.any(axis=2))
    per_row = np.zeros((len(distinct), runs.shape[2]), np.int64)
    np.add.at(per_row, at, runs.sum(axis=1))
    rows = per_row > 0
    merges = np.zeros_like(rows)
    merges[1:] = rows[1:] & np.logical_or.accumulate(rows, axis=0)[:-1]
    records = []
    for a, inputs, pmults, adds, n_merges in zip(
        distinct,
        reads.sum(axis=1).tolist(),
        per_row.sum(axis=1).tolist(),
        np.maximum(per_row - 1, 0).sum(axis=1).tolist(),
        merges.sum(axis=1).tolist(),
    ):
        records += [
            ("rot", inputs if a else 0, 0, 0, {"rotation_amount": a}),
            ("pmult", pmults, 0, 1, {}),
            ("add", adds, 1, 1, {}),
            ("add", n_merges, 1, 1, {}),
        ]
    return records, rows.any(axis=0)


class Diagonals:
    """The diagonal-method operator of one row-major temporal conv, built
    once and applied by ``SimContext.fold_steps`` to any number of source
    sets.

    The slots are read as a ``grid`` (n1, n2) of n1 frames by n2 columns,
    n1 * n2 <= ``slot_count``; past it every plaintext is zero.  Shift i
    rotates the inputs by ``shifts[i]`` slots: the baby steps of the
    diagonal method of Halevi and Shoup (CRYPTO 2018), whose single giant
    step is 0.  ``tables`` yields one (1, inputs, rows) coefficient table
    per shift, the same in every column.  The terms are the (shift, input)
    pairs, and row v of source set u at slot (t, k) is

        sum over i, c of  tables[i][0, c, v] * vec[i, c, t] * src[u, c][(t*n2 + k + shifts[i]) mod slot_count]

    with ``vec`` broadcast to (shifts, inputs, n1).  ``coef`` (rows,
    shifts * inputs) holds the coefficients, input-minor, and ``offsets``
    the slot each shift reads at frame 0, counted from ``span[0]``.  A
    frame where ``vec`` is zero for every term is zero in every row:
    ``frames`` is the evenly spaced run of frames through the others (half
    of them after a stride 2), the only ones ``apply`` gathers and
    multiplies, and ``vec`` (shifts * inputs, frames) their factors (None
    when all are 1).

    ``records`` is the op log of one source set (``_diagonal_records``): a
    product runs where its coefficient is not zero.  ``totals`` sums it
    per counter; ``has_terms`` marks the rows some term reaches.  The
    arrays are read-only and ``fold_steps`` changes nothing, so one
    operator serves any number of source stacks.
    """

    __slots__ = ("grid", "slot_count", "sets", "rows", "inputs", "span", "coef", "offsets", "frames", "vec", "has_terms", "records", "totals")

    def __init__(self, shifts, tables, grid, slot_count, vec=1.0):
        n1, n2 = grid
        N = int(slot_count)
        if n1 * n2 > N:
            raise ValueError(f"grid {n1}x{n2} exceeds slot count {N}")
        amounts = [int(a) % N for a in shifts]
        reach = [a - N if a > N // 2 else a for a in amounts]  # the nearer way round
        lo = min([0] + reach) // n2 * n2  # the first slot read, rounded down to a whole frame
        coef = []
        for table in tables:
            table = np.asarray(table, dtype=np.float64)
            if table.ndim != 3 or len(table) != 1 or (coef and table.shape[1:] != coef[0].shape):
                raise ValueError(f"coef of shape {table.shape} is not (1, inputs, rows) like the first")
            coef.append(table[0])
        if len(coef) != len(amounts) or not coef:
            raise ValueError(f"{len(coef)} coefficient tables for {len(amounts)} shifts")
        coef = np.stack(coef)  # (shifts, inputs, rows)
        S, C, V = coef.shape
        records, self.has_terms = _diagonal_records(amounts, coef != 0)
        self.records, self.totals = _tally(records)
        vec = np.broadcast_to(np.asarray(vec, dtype=np.float64), (S, C, n1)).reshape(S * C, n1)
        kept = np.flatnonzero(vec.any(axis=0))
        step = int(np.gcd.reduce(np.diff(kept))) if len(kept) > 1 else 1
        self.frames = slice(int(kept[0]), int(kept[-1]) + 1, step) if len(kept) else slice(0)
        self.vec = None if (vec == 1).all() else np.ascontiguousarray(vec[:, self.frames])
        self.grid, self.slot_count = (int(n1), int(n2)), N
        self.sets, self.rows, self.inputs = 1, V, C
        # the whole frames the shifts read, from slot lo to hi
        self.span = (lo, -(-(n1 * n2 + max([0] + reach)) // n2) * n2)
        self.coef = coef.transpose(2, 0, 1).reshape(V, S * C)
        self.offsets = np.array(reach) - lo
        for arr in (self.coef, self.offsets, self.vec, self.has_terms):
            if arr is not None:
                arr.flags.writeable = False

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The (U, rows, slot_count) products of the (U, inputs, slot_count)
        sources: the frames the shifts read, copied once column-major, are
        gathered at the kept ``frames`` into one buffer per chunk of columns,
        then one batched GEMM."""
        U, C, N = x.shape
        n1, n2 = self.grid
        V, L = self.coef.shape
        lo, hi = self.span
        frames = range(n1)[self.frames]
        xs = np.concatenate((x[..., N + lo :], x[..., : min(hi, N)], x[..., : max(hi - N, 0)]), axis=-1)
        F = xs.shape[-1] // n2
        ys = xs.reshape(U, C, F, n2).transpose(0, 3, 1, 2).copy()  # (U, column, input, frame)
        su, sk, sc, sf = ys.strides
        # view[u, k, f, c, t] = ys[u, k, c, f + frames[t]]: column k of every input at the kept frames from f on
        view = np.lib.stride_tricks.as_strided(ys[..., frames.start :], (U, n2, F - n1 + 1, C, len(frames)), (su, sk, sf, sc, sf * frames.step))
        by_column = np.empty((U, n2, V, len(frames)))
        size = max(1, _CHUNK_BYTES // (U * L * max(len(frames), 1) * 8))
        for k0 in range(0, n2, size):
            ks = np.arange(k0, min(k0 + size, n2))
            read = ks[:, None] + self.offsets  # the slot each shift reads at frame 0
            z = view[:, read % n2, read // n2].reshape(U, len(ks), L, len(frames))
            if self.vec is not None:
                z *= self.vec
            np.matmul(self.coef, z, out=by_column[:, k0 : k0 + len(ks)])
        out = np.zeros((U, V, N))
        out[..., : n1 * n2].reshape(U, V, n1, n2)[:, :, self.frames] = by_column.transpose(0, 2, 3, 1)
        return out


class MixedDiagonals:
    """The diagonal-method operator of one row-major spatial conv, applied
    factored: joints mixed per partition, then one GEMM of the weight slabs.

    The slots are read as a ``grid`` (n1, n2) of n1 frames by n2 joints,
    n1 * n2 <= ``slot_count``; past it every output is zero.  Input c
    reaches row v from joint j to joint k through the merged coefficient

        M[k, j, c, v] = sum over p of  parts[p, k, j] * weights[p, c, v]

    of the (P, inputs, rows) ``weights`` and (P, n2, n2) ``parts``, on the
    diagonals d = j - k listed in ``offsets`` (entries off them are
    ignored).  Row v of source set u at slot (t, k) is

        sum over d, c of  M[k, k + d, c, v] * src[u, c][t*n2 + k + d]   (0 <= k + d < n2)

    the diagonal method of Halevi and Shoup (CRYPTO 2018), whose baby steps
    rotate the inputs by the diagonals.  ``apply`` computes it factored:
    ``mix`` (n2, P' * n2) mixes the joints of every frame row by each part
    some kept entry reads, x * N_p^T, and ``slabs`` (rows, P' * inputs) is
    their weight slabs as one GEMM over (part, input) terms.

    The counts are those of the diagonal method one ciphertext at a time
    with the merged coefficients (``_diagonal_records``): a (diagonal,
    input, row) product runs where M, summed in the order of p, is not
    zero at some joint, so a sum that cancels exactly runs nothing.  They
    are worked out in one pass over the live (diagonal, joint) entries,
    where some part is nonzero, from the distinct vectors of part entries
    they carry (a few on a skeleton), without building any per-diagonal
    table.
    """

    __slots__ = ("grid", "slot_count", "sets", "rows", "inputs", "mix", "slabs", "has_terms", "records", "totals")

    def __init__(self, weights, parts, offsets, grid, slot_count):
        n1, n2 = grid
        N = int(slot_count)
        if n1 * n2 > N:
            raise ValueError(f"grid {n1}x{n2} exceeds slot count {N}")
        weights = np.asarray(weights, dtype=np.float64)
        parts = np.asarray(parts, dtype=np.float64)
        if weights.ndim != 3 or not len(weights) or parts.shape != (len(weights), n2, n2):
            raise ValueError(f"weights of shape {weights.shape} and parts of shape {parts.shape} are not (P, inputs, rows) and (P, {n2}, {n2})")
        P, C, V = weights.shape
        offsets = np.asarray(offsets, dtype=np.int64).reshape(-1)
        # the live (diagonal, joint k) entries: k + d inside the row and some part nonzero there
        reads = np.arange(n2) + offsets[:, None]
        d, k = np.nonzero((reads >= 0) & (reads < n2))
        j = k + offsets[d]
        n = parts[:, k, j]
        live = n.any(axis=0)
        d, k, j, n = d[live], k[live], j[live], n[:, live]
        # merged coefficients of each distinct part vector, summed in the order of p
        vectors, which = np.unique(n.T, axis=0, return_inverse=True)
        merged = vectors[:, 0, None, None] * weights[0]
        for p in range(1, P):
            merged += vectors[:, p, None, None] * weights[p]
        hits = np.zeros((len(offsets), len(vectors)))  # the vectors each diagonal's entries carry
        hits[d, which.reshape(-1)] = 1.0
        runs = (hits @ (merged != 0).reshape(len(vectors), C * V)).reshape(len(offsets), C, V) > 0
        records, self.has_terms = _diagonal_records((offsets % N).tolist(), runs)
        self.records, self.totals = _tally(records)
        mix = np.zeros_like(parts)
        mix[:, k, j] = n
        used = mix.any(axis=(1, 2)) & weights.any(axis=(1, 2))  # the other parts add only zeros
        self.mix = mix[used].transpose(2, 0, 1).reshape(n2, -1)
        self.slabs = weights[used].transpose(2, 0, 1).reshape(V, -1)
        self.grid, self.slot_count = (int(n1), int(n2)), N
        self.sets, self.rows, self.inputs = 1, V, C
        for arr in (self.mix, self.slabs, self.has_terms):
            arr.flags.writeable = False

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The (U, rows, slot_count) products of the (U, inputs, slot_count) sources."""
        U, C, N = x.shape
        n1, n2 = self.grid
        parts = self.mix.shape[1] // n2
        mixed = x[..., : n1 * n2].reshape(U * C * n1, n2) @ self.mix  # (u, c, t) by (p, k)
        terms = mixed.reshape(U, C, n1, parts, n2).transpose(0, 3, 1, 2, 4).reshape(U, parts * C, n1 * n2)
        out = np.zeros((U, self.rows, N))
        np.matmul(self.slabs, terms, out=out[..., : n1 * n2])
        return out


class SimContext:
    """Shared state for one evaluation: slot geometry, counters, op log.

    ``slot_count`` is half the CKKS polynomial degree and must be a power of
    two.  With ``quantize=True`` values are rounded to the fixed-point grid
    ``2**-scale_bits`` at encryption and after every multiplication (a
    ``fold_steps`` rounds its fused sum once), emulating rescaling of a
    scaled integer representation.
    """

    def __init__(
        self,
        slot_count: int,
        max_level: int,
        scale_bits: int = 33,
        quantize: bool = False,
        log_ops: bool = True,
    ):
        if slot_count < 1 or slot_count & (slot_count - 1):
            raise ValueError(f"slot_count must be a power of two, got {slot_count}")
        if max_level < 0:
            raise ValueError("max_level must be nonnegative")
        self.slot_count = int(slot_count)
        self.max_level = int(max_level)
        self.scale_bits = int(scale_bits)
        self.quantize = bool(quantize)
        self.log_ops = bool(log_ops)
        self.counter = HocCounter()
        self.oplog: list[dict] = []
        self._layer = "global"
        self._ids = itertools.count()

    # ------------------------------------------------------------------
    # layer labelling

    @contextmanager
    def layer(self, label: str):
        """Attribute counters and log records to ``label`` within the block."""
        prev = self._layer
        self._layer = label
        try:
            yield self
        finally:
            self._layer = prev

    @property
    def current_layer(self) -> str:
        return self._layer

    # ------------------------------------------------------------------
    # internals

    def _new_ct(self, slots, level) -> SimCiphertext:
        return SimCiphertext(slots, level, f"ct{next(self._ids):06d}", self)

    def _quantize(self, values: np.ndarray) -> np.ndarray:
        scale = float(2**self.scale_bits)
        return np.round(values * scale) / scale

    def _record(self, op: str, level_before: int, level_after: int, n: int = 1, **extra) -> None:
        """Count ``n`` applications of ``op``; log them as one record."""
        counts = self.counter.counts_of(self._layer)
        counts[op] += n
        if op in ("pmult", "cmult"):
            counts["rescale"] += n
        self._log(op, level_before, level_after, n, **extra)

    def _log(self, op: str, level_before: int, level_after: int, n: int = 1, **extra) -> None:
        if self.log_ops:
            rec = {
                "op": op,
                "layer": self._layer,
                "level_before": level_before,
                "level_after": level_after,
            }
            if n > 1:
                rec["count"] = n
            rec.update(extra)
            self.oplog.append(rec)

    def _as_plaintext(self, pt) -> np.ndarray | float:
        """Scalars stay one float that broadcasts (the same slots as a full
        vector of it); shorter vectors are zero-padded (mask semantics)."""
        if type(pt) is np.ndarray and pt.dtype == np.float64 and pt.shape == (self.slot_count,):
            return pt
        if np.isscalar(pt):
            return float(pt)
        arr = np.asarray(pt, dtype=np.float64).ravel()
        if arr.size > self.slot_count:
            raise ValueError(f"plaintext length {arr.size} exceeds slot count {self.slot_count}")
        if arr.size < self.slot_count:
            arr = np.concatenate([arr, np.zeros(self.slot_count - arr.size)])
        return arr

    # ------------------------------------------------------------------
    # scheme operations

    def encrypt(self, values) -> SimCiphertext:
        """Fresh ciphertext at max_level; missing tail slots are zero.

        A 2-D array of shape (n, k) encrypts a stack of n ciphertexts.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            arr = arr.ravel()
        if arr.shape[-1] > self.slot_count:
            raise ValueError(f"{arr.shape[-1]} values exceed slot count {self.slot_count}")
        slots = np.zeros(arr.shape[:-1] + (self.slot_count,))
        slots[..., : arr.shape[-1]] = arr
        if self.quantize:
            slots = self._quantize(slots)
        ct = self._new_ct(slots, self.max_level)
        self._log("encrypt", self.max_level, self.max_level, ct.rows)
        return ct

    def decrypt(self, ct: SimCiphertext) -> np.ndarray:
        return np.array(ct.slots)

    def add(self, a: SimCiphertext, b: SimCiphertext) -> SimCiphertext:
        if a.level != b.level:
            raise LevelError(f"level mismatch: {a.level} vs {b.level}")
        if a.slots.shape != b.slots.shape:
            raise ValueError(f"cannot add shapes {a.slots.shape} and {b.slots.shape}")
        out = self._new_ct(a.slots + b.slots, a.level)
        self._record("add", a.level, out.level, out.rows)
        return out

    def pmult(self, ct: SimCiphertext, pt) -> SimCiphertext:
        """Plaintext multiplication with the implicit rescale (level - 1).

        A stack is multiplied row by row by the same plaintext.
        """
        if ct.level < 1:
            raise LevelError("level exhausted: pmult needs level >= 1")
        slots = ct.slots * self._as_plaintext(pt)
        if self.quantize:
            slots = self._quantize(slots)
        out = self._new_ct(slots, ct.level - 1)
        self._record("pmult", ct.level, out.level, out.rows)
        return out

    def cmult(self, a: SimCiphertext, b: SimCiphertext) -> SimCiphertext:
        if a.level != b.level:
            raise LevelError(f"level mismatch: {a.level} vs {b.level}")
        if a.level < 1:
            raise LevelError("level exhausted: cmult needs level >= 1")
        if a.slots.shape != b.slots.shape:
            raise ValueError(f"cannot multiply shapes {a.slots.shape} and {b.slots.shape}")
        slots = a.slots * b.slots
        if self.quantize:
            slots = self._quantize(slots)
        out = self._new_ct(slots, a.level - 1)
        self._record("cmult", a.level, out.level, out.rows)
        return out

    def rotate(self, ct: SimCiphertext, k: int) -> SimCiphertext:
        """Left cyclic shift by k slots; negative k shifts right.

        A stack rotates every row.  Rotation by zero (mod slot_count) is
        free: the input ciphertext is returned unchanged and nothing is
        counted or logged.
        """
        k = int(k) % self.slot_count
        if k == 0:
            return ct
        slots = np.concatenate((ct.slots[..., k:], ct.slots[..., :k]), axis=-1)
        out = self._new_ct(slots, ct.level)
        self._record("rot", ct.level, out.level, out.rows, rotation_amount=k)
        return out

    def mod_switch(self, ct: SimCiphertext, target_level: int) -> SimCiphertext:
        """Drop to a lower level without arithmetic; values are unchanged."""
        target_level = int(target_level)
        if target_level > ct.level:
            raise LevelError(f"cannot mod_switch up: {ct.level} -> {target_level}")
        if target_level < 0:
            raise LevelError("target level must be nonnegative")
        if target_level == ct.level:
            return ct
        out = self._new_ct(ct.slots, target_level)
        self._log("mod_switch", ct.level, target_level, ct.rows)
        return out

    def fold_steps(self, src: SimCiphertext, op) -> tuple[SimCiphertext, np.ndarray]:
        """Apply a prebuilt operator, a ``BlockCirculant``, ``Mixed`` or
        ``Diagonals``: many rotated, plaintext-multiplied and summed terms as
        one fused multiply-accumulate.

        ``src`` is a stack of U x ``op.inputs`` ciphertexts, u-major: U
        source sets.  The operator holds one set of coefficients for every
        source set, or one per set, and the factors that scale each term's
        slots after its rotation.  Row (u, v) of the result, u-major, is
        ``op``'s row v applied to source set u.

        Counts what the operator's schedule, one ciphertext at a time, would:
        every rotation of an input some term reads, one PMult per term whose
        coefficients are not all zero, the Adds of each row's products, and
        the rotations and Adds of partial sums.  The operator's totals are
        added once; with ``log_ops`` its records are written in its order.
        Returns the (U*V, slot_count) stack and which rows got a term; a row
        without terms is zero and was computed by no operation.  With
        ``quantize`` the fused sum is rounded once.
        """
        if src.level < 1:
            raise LevelError("level exhausted: fold_steps needs level >= 1")
        N = self.slot_count
        if op.slot_count != N:
            raise ValueError(f"operator of {op.slot_count} slots does not cover slot count {N}")
        U = src.rows // op.inputs
        if src.rows % op.inputs or op.sets not in (1, U):
            raise ValueError(f"coef of {op.sets} sets of {op.inputs} inputs does not fit {src.rows} source ciphertexts")
        scale = U if op.sets == 1 else 1  # shared coefficients: every step runs on each source set
        if op.totals:
            counts = self.counter.counts_of(self._layer)
            for name, n in op.totals.items():
                counts[name] += n * scale
        if self.log_ops:
            for name, n, before, after, extra in op.records:
                self._log(name, src.level - before, src.level - after, n * scale, **extra)
        out = op.apply(src.slots.reshape(U, op.inputs, N)).reshape(U * op.rows, N)
        if self.quantize:
            out = self._quantize(out)
        return self._new_ct(out, src.level - 1), np.tile(op.has_terms, scale)

    # ------------------------------------------------------------------
    # log export / replay

    def export_oplog(self, fp) -> None:
        """Write the operation log as JSON lines."""
        for rec in self.oplog:
            fp.write(json.dumps(rec, sort_keys=True))
            fp.write("\n")

    def validate_against_params(self, params) -> None:
        """Check max_level * scale_bits against a modulus budget Q (in bits)."""
        budget = self.max_level * self.scale_bits
        if budget > params.modulus_bits:
            raise ValueError(
                f"max_level {self.max_level} x scale_bits {self.scale_bits} = "
                f"{budget} bits exceeds modulus budget Q={params.modulus_bits}"
            )


def replay_counts(oplog) -> HocCounter:
    """Rebuild a HocCounter from an operation log.

    Only the four scheduled operations count; pmult/cmult records imply one
    rescale each, mirroring the live accounting.  A record of a batched op
    carries ``count`` (absent means one).
    """
    counter = HocCounter()
    for rec in oplog:
        op = rec["op"]
        if op in ("add", "rot", "pmult", "cmult"):
            n = rec.get("count", 1)
            counter.bump(rec["layer"], op, n)
            if op in ("pmult", "cmult"):
                counter.bump(rec["layer"], "rescale", n)
    return counter
