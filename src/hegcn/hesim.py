"""Slot-level simulator for a CKKS-style leveled HE scheme.

Ciphertexts are immutable vectors of float64 "slots" with a remaining
multiplicative level.  Every operation, ``encrypt`` and ``mod_switch``
included, is counted exactly in one ``HocCounter`` histogram per layer, by
its levels before and after and its rotation amount, and optionally
logged, so schedules can be audited operation by operation.  No
cryptographic noise is simulated: correctness statements made with this
module are about packing and scheduling algebra, not security.

Level discipline:
  * every multiplication (pmult, cmult) rescales implicitly and costs one
    level;
  * additions require equal levels (use ``mod_switch`` to align);
  * rotation by zero is the identity and is neither counted nor logged.

Batching: a ciphertext may hold a stack of n ciphertexts at one level,
(n, slots) or with more leading axes.  Every op on a stack counts n and
writes one log record with a ``count`` field (left out when n = 1, and 0
for a stack of no rows): a whole feature map is one stack, and a layer is
a few ops on it.  An encryption of rows broadcast along some axes keeps
one copy of the distinct rows; a PMult takes one plaintext for all rows or
one per row; ``sum_parts`` adds the equal consecutive parts of a stack.

``fold_steps`` is the one fused multiply-accumulate: it applies a prebuilt
operator, the baby-step/giant-step product of Halevi and Shoup (CRYPTO
2018), to a stack of input ciphertexts.  A ``BlockCirculant`` holds the tap
rotations of the inputs (the baby steps) and many folds rotated by whole
blocks (the giant steps) as one block-circulant matrix: an AMA temporal
conv or head, and on one block of every slot with the single giant step 0
(the diagonal method) a row-major temporal conv or head, whose tap masks
or weight rows are its per-slot factors.  A ``Mixed`` multiplies linear
mixes of a layer's inputs by such a matrix, built by the same helper
(``_block_circulant``): the factored form of a fold whose coefficients are
sums of products, as in an AMA spatial conv, where the matrix holds the
weight slabs, the mix the partition entries and a read index the input
joint of every (output joint, piece).  A ``MixedDiagonals`` (row-major
spatial conv) is the diagonal method too: it rotates by the diagonals on
which its partitions have entries and is applied factored, like a
``Mixed``: the joints of every frame row are mixed by each partition, then
the weight slabs are one GEMM.  All three count with one schedule, the
schedule one ciphertext at a time, built by their base's ``_schedule``:
the baby steps, a rotation per input and distinct nonzero tap amount some
term reads, then per giant step a PMult per term that runs (its coefficients, for a ``Mixed`` the
combined ones and for a ``MixedDiagonals`` the merged ones, are not all
zero), the Adds of each row's products, a rotation of each row's partial
sum and an Add into the row's running sum (``_giant_step_counts``); a
row-major operator's single giant step of 0 rotates nothing.  Each rule
two operators share is one helper (``_merge_parts``, ``_block_circulant``).
Each operator is built once per layer, holds the plaintext factors that
scale its terms, and is applied as batched matrix products over chunks
of its sources that stay under ``_CHUNK_BYTES`` (a ``BlockCirculant``
computes only the evenly spaced runs of positions its factors do not
zero, and splits a source set too large for one GEMM along them).  It
holds one set of coefficients, which serves every source set of the
stack it is applied to: ``fold_steps`` counts, and with ``log_ops`` logs,
its records in the schedule's order, each at the input's level and times
the source sets, through ``SimContext._records``, the one path every op
counts and logs through.

Building an operator is a few array passes over its coefficients and
factors, nothing per element in Python.  The block-circulant matrix is
written from the per-shift sums of the giant steps' coefficients (a
shift of one step is that step's table; only the steps of a repeated
shift are added one by one, in step order) by one gather per row, whose
indices depend only on the shape and the shifts (``_circulant_index``);
on one block the one sum is the matrix.  The schedule's count tables are
three per-step tallies of the terms that run, from which the records are
written step by step.  The live runs, the scaled columns and the GEMM
parts are worked out once from the factors.  What depends only on the
layout is shared: ``_circulant_index`` is a pure function of integers,
memoized with read-only results (as are the engine's giant steps, tap
masks and coefficient gathers), and nothing keyed on coefficients,
factors or any other array is kept between builds.

The fused epilogues do the elementwise work between the folds, each as one
op that writes one output buffer it owns, in row chunks under
``_CHUNK_BYTES``: ``poly`` evaluates a degree-2 activation, ``rotate_sum``
a rotate-and-sum tree, and ``fold_steps`` with ``bias=`` writes a conv
layer's rows without terms as encrypted zeros and adds its bias in place.
Each stands for a chain of the ops above and counts and logs exactly what
that chain does, record for record and in the chain's order; it keeps the
chain's float operations and their order, with ``quantize`` rounding
where the chain's ops round, so its slots are the chain's bit for bit.

Memory: the first ``SimContext`` of a process sets glibc's mmap threshold
to 64 MiB and its trim threshold to 128 MiB (``_keep_freed_memory``), so
that freed slot stacks, chunk temporaries and operator matrices stay in
the heap and the next op reuses them.  By default glibc maps each block
over 128 KiB (a threshold it raises only as large blocks are freed) on its
own and unmaps it when it is freed, and the next op faults its pages in
again: a reference AMA run (slot 8192) faulted about 8,200 pages, 32 MB,
per run, and an acceptance run (slot 1024) about 400 (AMA) and 1,400
(row-major); with the thresholds set a steady-state run faults 0-8.  It
is a per-process policy on glibc only, deliberately not an option, and
it defers to the user: where libc has no ``mallopt``, or ``GLIBC_TUNABLES``
or a ``MALLOC_*_`` variable is set, nothing is changed.  A buffer pool
(SEAL's ``MemoryPoolHandle``) would give the same reuse, but would have to
reach every kernel, because the faults are spread over all of them.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from contextlib import contextmanager

import numpy as np

#: Upper bound on the bytes of one chunk's gathered sources, mixes, tap-rotated
#: terms or epilogue rows.  The operators and the fused epilogues run in
#: chunks that stay below it (at least one item each).  Measured on the
#: reference model (slot 8192): 2 MB and 256 KB run equally fast, 256 KB
#: keeps the run's peak memory lower.
_CHUNK_BYTES = 256 << 10

#: Upper bound on the tap-rotated terms of one GEMM of a ``BlockCirculant``
#: whose chunk, a single source set, exceeds it: a row-major sample, up to
#: 29.5 MB at slot 8192, is split along its live runs into parts under it
#: (an AMA joint, at most 1.2 MB, never is).  Measured on the reference
#: model's row-major temporal layers (slot 8192, one BLAS thread): parts of
#: 256 KB, 28 positions of 1,152 terms per GEMM, took 41-45 ms per stride-2
#: layer against 26-29 ms for 2 MB; 1 MB ran as fast as 2 MB, and 4 MB about
#: 10% faster for 4 MB more peak memory.
_GEMM_BYTES = 2 << 20

#: glibc's ``mallopt`` parameters (malloc.h) and the values the first
#: ``SimContext`` of a process sets with them: a block of up to 64 MiB comes
#: from the heap, not from an mmap of its own, and the heap gives memory back
#: to the system only when more than 128 MiB are free at its top.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 64 << 20
_TRIM_THRESHOLD = 128 << 20

#: The homomorphic operations whose counts sum to the HOC total.
HOC_OPS = ("rot", "pmult", "cmult", "add")

#: Counter names, in the order they appear in reports.  Rescale is
#: bookkeeping for the modulus chain, not a separately scheduled operation,
#: and does not enter the homomorphic-operation-count total.
OPS = HOC_OPS + ("rescale",)

#: Bits of the fixed-point scale: ``quantize`` rounds to the grid
#: ``2**-SCALE_BITS``, and each level spends this many bits of modulus.
SCALE_BITS = 33


@functools.cache
def _keep_freed_memory() -> bool:
    """Make glibc keep freed slot memory in the process (see the module
    docstring), once per process; True when both thresholds were set.

    Nothing is set where libc has no ``mallopt`` or where the environment
    already tunes malloc (``GLIBC_TUNABLES`` or a ``MALLOC_*_`` variable).
    The trim threshold is set only once the mmap threshold was accepted:
    set alone, it would pin the mmap threshold at its starting value.
    """
    if "GLIBC_TUNABLES" in os.environ or any(k.startswith("MALLOC_") and k.endswith("_") for k in os.environ):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no process image to search (Windows)
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


class LevelError(Exception):
    """An operation violated the level discipline of the scheme."""


def _marginal(*hists) -> dict[str, int]:
    """The per-op counts of histograms: each op's ciphertexts summed over
    levels and amounts, and one rescale per PMult and CMult."""
    counts = dict.fromkeys(OPS, 0)
    for hist in hists:
        for key, n in hist.items():
            if key[0] in counts:
                counts[key[0]] += n
    counts["rescale"] = counts["pmult"] + counts["cmult"]
    return counts


class HocCounter:
    """Exact homomorphic operation counts: per layer label, a histogram of
    the ciphertexts each (op, level before, level after, rotation amount or
    None) was applied to, ``encrypt`` and ``mod_switch`` included.

    The per-op counts are its marginals (``_marginal``), so "total == sum
    over layers" holds by construction.
    """

    def __init__(self):
        self.histograms: dict[str, dict[tuple, int]] = {}

    def add(self, label: str, counts) -> None:
        """Add ``counts``, (key, ciphertexts) pairs, to the histogram of ``label``."""
        hist = self.histograms.get(label)
        if hist is None:
            hist = self.histograms[label] = {}
        for key, n in counts:
            hist[key] = hist.get(key, 0) + n

    def layer(self, label: str) -> dict[str, int]:
        return _marginal(self.histograms.get(label, {}))

    def per_layer(self) -> dict[str, dict[str, int]]:
        """The per-op counts of each layer that counted any, in run order."""
        marginals = {label: _marginal(hist) for label, hist in self.histograms.items()}
        return {label: counts for label, counts in marginals.items() if any(counts.values())}

    def totals(self) -> dict[str, int]:
        return _marginal(*self.histograms.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, HocCounter):
            return NotImplemented
        return self.histograms == other.histograms

    def __repr__(self) -> str:
        t = self.totals()
        body = ", ".join(f"{op}={t[op]}" for op in OPS)
        return f"HocCounter({body})"


class SimCiphertext:
    """Immutable slot vector with a remaining-level budget.

    ``slots`` is one vector of ``slot_count`` values, or a stack of shape
    (..., slot_count): the n ciphertexts of its leading axes, in row-major
    order, at one level, that every operation treats row by row and counts
    n times.  A stack may be a read-only broadcast view, such as an
    encryption of one row repeated n times, or the one value per row that a
    rotate-and-sum over every slot leaves.
    """

    __slots__ = ("slots", "level", "ctx")

    def __init__(self, slots: np.ndarray, level: int, ctx: "SimContext"):
        slots = np.asarray(slots, dtype=np.float64)
        slots.flags.writeable = False
        self.slots = slots
        self.level = int(level)
        self.ctx = ctx

    @property
    def rows(self) -> int:
        """Ciphertexts held: 1 for a single vector, n for a stack of n."""
        return 1 if self.slots.ndim == 1 else self.slots.size // self.slots.shape[-1]

    def __repr__(self) -> str:
        shape = "x".join(map(str, self.slots.shape))
        return f"SimCiphertext(level={self.level}, slots={shape})"


def _compact(values: np.ndarray) -> np.ndarray:
    """``values`` with one element along each axis where it is a broadcast
    (stride 0): the distinct values, which broadcast back to its shape."""
    return values[tuple(slice(0, 1) if s == 0 else slice(None) for s in values.strides)]


def _padded(values: np.ndarray, slot_count: int, transform=None) -> np.ndarray:
    """(..., k) values as (..., slot_count) slots, zero past k, with
    ``transform`` applied to the slots.  Leading axes along which ``values``
    is a broadcast (stride 0) stay broadcast: the distinct rows are padded
    once and the result is a read-only view of them."""
    if values.shape[-1] > slot_count:
        raise ValueError(f"{values.shape[-1]} values exceed slot count {slot_count}")
    lead = values.shape[:-1]
    distinct = values[tuple(slice(0, 1) if s == 0 else slice(None) for s in values.strides[:-1])]
    slots = np.zeros(distinct.shape[:-1] + (slot_count,))
    slots[..., : values.shape[-1]] = distinct
    if transform is not None:
        slots = transform(slots)
    return slots if distinct.shape[:-1] == lead else np.broadcast_to(slots, lead + (slot_count,))


def _rowwise(ufunc, x: np.ndarray, y) -> np.ndarray:
    """``ufunc`` of a slot array and a float, a slot vector or a slot array
    holding the same rows, in the shape of ``x``; a ``y`` with more leading
    axes (a broadcast stack) is met by viewing ``x`` in its shape."""
    if type(y) is float or x.shape == y.shape or y.ndim == 1:
        return ufunc(x, y)
    if y.ndim > x.ndim:
        return ufunc(x.reshape(y.shape), y).reshape(x.shape)
    return ufunc(x, y.reshape(x.shape))


def _giant_step_counts(terms: np.ndarray) -> tuple[list, list, list, np.ndarray]:
    """What the giant steps of a fold count, from the (S, R) ``terms`` that
    run in each step and row: per step (lists of S) its products, its rows
    with terms and the rows it or an earlier step reached, and the R rows
    some step reaches."""
    rows = terms > 0
    products, width, reached = np.stack((terms, rows, np.logical_or.accumulate(rows, axis=0))).sum(axis=2).tolist()
    return products, width, reached, rows.any(axis=0)


def _merge_parts(entries: np.ndarray, slabs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vector of each item's (items, P) partition ``entries`` among the
    distinct ones (a few on a skeleton), and per vector the merged sum over
    p of entry[p] * ``slabs[p]`` in the order of p; a part no vector reads
    adds only zeros and is skipped."""
    order = np.lexsort(entries.T)
    ranked = entries[order]
    first = np.ones(len(ranked), dtype=bool)  # the first row of each run of equal rows
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    vectors = ranked[first]
    which = np.empty(len(ranked), dtype=np.int64)
    which[order] = np.cumsum(first) - 1
    merged = np.zeros((len(vectors),) + slabs.shape[1:])
    for p in np.flatnonzero(vectors.any(axis=0)):
        merged += vectors[:, p].reshape((-1,) + (1,) * (slabs.ndim - 1)) * slabs[p]
    return which, merged


def _live_run(vec: np.ndarray) -> tuple[int, int, int, int]:
    """The positions (last axis) of the factors ``vec`` an operator
    computes, as evenly spaced runs (start, step, width, count): run r
    holds the width positions from start + r*step on.  Each stretch of
    positions where some factor is not zero starts a run, in the largest
    step that meets them all and the width of the widest stretch; where
    such runs would touch or pass the last position, one run from the
    first such position to the last.  No such position gives no run."""
    nonzero = np.zeros(vec.shape[-1] + 2, dtype=bool)
    nonzero[1:-1] = vec.any(axis=tuple(range(vec.ndim - 1)))
    edges = np.flatnonzero(nonzero[1:] != nonzero[:-1]).tolist()  # each stretch's first position, then the one past its last
    if not edges:
        return 0, 0, 0, 0
    starts = edges[::2]
    width = max(end - start for start, end in zip(starts, edges[1::2]))
    step = math.gcd(*(b - a for a, b in zip(starts, starts[1:]))) if len(starts) > 1 else width
    if step <= width or starts[-1] + width > vec.shape[-1]:
        return edges[0], edges[-1] - edges[0], edges[-1] - edges[0], 1
    return starts[0], step, width, (starts[-1] - starts[0]) // step + 1


def _runs_view(a: np.ndarray, key) -> np.ndarray:
    """The positions (last axis) of ``a`` at a part's ``key`` (``_parts``)
    as a view: a slice, or runs (offset, step, width, runs) as (..., runs,
    width), sliced where it can (``as_strided`` costs 5 us)."""
    if type(key) is slice:
        return a[..., key]
    start, step, width, runs = key
    if start + runs * step <= a.shape[-1]:
        return a[..., start : start + runs * step].reshape(a.shape[:-1] + (runs, step))[..., :width]
    *lead, s = a.strides
    return np.lib.stride_tricks.as_strided(a[..., start:], a.shape[:-1] + (runs, width), tuple(lead) + (step * s, s))


def _parts(live, run_bytes: int, scaled, vec) -> tuple:
    """The GEMMs of ``BlockCirculant._product`` over the ``live`` runs, whose
    terms take ``run_bytes`` a run: all runs, or past ``_GEMM_BYTES`` as many
    whole runs as stay under it, or pieces of one.  Each is (key, shape,
    scale): its positions of a block (``_runs_view``), gathered as (n,) or
    (runs, width), and its ``scaled`` ones (run by run) with their ``vec``."""
    start, step, width, count = live
    runs = max(1, _GEMM_BYTES // max(run_bytes, 1))
    piece = width if run_bytes <= _GEMM_BYTES else max(1, _GEMM_BYTES * width // run_bytes)
    parts = []
    for r in range(0, count, runs):
        for w in range(0, width, piece):
            nr, nw, first, offset = min(runs, count - r), min(piece, width - w), r * width + w, start + r * step + w
            if nr == 1 or nw == 1:
                key, shape = slice(offset, offset + (nr - 1) * step + nw, step if nw == 1 else 1), (nr * nw,)
            else:
                key, shape = (offset, step, nw, nr), (nr, nw)
            i, j = np.searchsorted(scaled, (first, first + nr * nw))
            parts.append((key, shape, (scaled[i:j] - first, vec[..., i:j]) if i < j else None))
    return tuple(parts)


def _scaled_columns(vec: np.ndarray):
    """The columns (last axis) of the factors ``vec`` where some factor is
    not 1, and the factors there, or None when every factor is 1:
    multiplying by 1.0 is exact, so the other columns are left as they are."""
    cols = np.flatnonzero((vec != 1).any(axis=tuple(range(vec.ndim - 1))))
    return cols, vec.take(cols, axis=-1) if len(cols) else None


@functools.lru_cache(maxsize=64)
def _circulant_index(T: int, n1: int, shifts: tuple) -> np.ndarray:
    """The read-only (n1, T, n1) indices that gather row (v, block b) and
    columns (term t, source block c) of the block-circulant matrix of
    ``_block_circulant`` from row v of its per-shift sums, laid out (sum,
    term, block) in the order of ``shifts``: block b reads the sum of shift
    (c - b) mod n1 at (t, b), or, for a shift not in ``shifts``, the zero
    sum that follows them."""
    which = np.full(n1, len(shifts))
    which[list(shifts)] = np.arange(len(shifts))
    blocks = np.arange(n1)
    index = (which[(blocks - blocks[:, None]) % n1][:, None, :] * T + np.arange(T)[:, None]) * n1 + blocks[:, None, None]
    index.flags.writeable = False
    return index


def _block_circulant(amounts, coef, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The giant steps ``amounts`` mod slot count, the (S, V, T, n1)
    ``coef`` and the read-only (V*n1, T*n1) block-circulant matrix of
    ``BlockCirculant``, rows (row, block) and columns (term, source block).

    Block b of row v reads source block c through the sum, in step order
    from 0.0, of the coefficients at (v, t, b) of the steps whose block
    shift is (c - b) mod n1: a shift of one step gives 0.0 + its
    coefficient (so -0.0 becomes 0.0), a shift of several steps is summed
    step by step, and one of none is 0.0.  Each row of the matrix is
    gathered from those sums in one pass (``_circulant_index``)."""
    n1, n2 = grid
    amounts = np.asarray(amounts, dtype=np.int64)
    coef = np.asarray(coef, dtype=np.float64)
    if coef.ndim != 4 or coef.shape[3] != n1 or coef.shape[0] != len(amounts):
        raise ValueError(f"coef of shape {coef.shape} is not ({len(amounts)}, rows, terms, {n1})")
    blocks, rest = np.divmod(amounts, n2)
    if rest.any():
        raise ValueError(f"a rotation amount in {amounts.tolist()} is not a multiple of the block length {n2}")
    V, T = coef.shape[1:3]
    steps = (blocks % n1).tolist()
    shifts = tuple(dict.fromkeys(steps))
    first = [steps.index(k) for k in shifts] if len(shifts) < len(steps) else slice(None)
    sums = np.empty((V, len(shifts) + (len(shifts) < n1), T, n1))  # and a zero sum, if a shift has no step
    np.add(coef[first].transpose(1, 0, 2, 3), 0.0, out=sums[:, : len(shifts)])
    sums[:, len(shifts) :] = 0.0
    if len(shifts) < len(steps):  # the further steps of a repeated shift, one by one in step order
        for s in sorted(set(range(len(steps))) - set(first)):
            sums[:, shifts.index(steps[s])] += coef[s]
    mat = np.take(sums.reshape(V, -1), _circulant_index(T, n1, shifts), axis=1).reshape(V * n1, T * n1)
    mat.flags.writeable = False
    return amounts % (n1 * n2), coef, mat


class _Operator:
    """What every prebuilt operator holds: its ``grid`` (n1, n2), the
    ``slot_count`` it is built for, the ``rows`` of one source set's output
    and the ``inputs`` of one source set; ``has_terms``, the rows some term
    reaches; and ``records``, what it counts for one source set, in the
    schedule's order.  Each record is (op, count, levels spent before,
    levels spent after, rotation amount or None); steps that count nothing
    write none."""

    __slots__ = ("records", "has_terms", "grid", "slot_count", "rows", "inputs")

    def _schedule(self, taps, reads, amounts, terms) -> None:
        """Build ``records`` and ``has_terms`` from the one schedule of every
        operator, the baby-step/giant-step product: a rotation per input the
        (taps, inputs) ``reads`` mark as read at one of the distinct nonzero
        tap amounts (in first-appearance order), then per giant step of
        ``amounts`` the records of the (steps, rows) ``terms`` that run
        (``_giant_step_counts``): its PMults, its Adds of products (one
        fewer than the products of each row with terms), a rotation by the
        step's amount (none when 0) per row with terms, and an Add per row
        that already holds a partial sum of an earlier step.  Each record is
        at the levels it spends, and a step writes none where it counts
        nothing."""
        distinct = list(dict.fromkeys(taps))
        if len(distinct) < len(taps):  # a repeated amount rotates an input once
            reads = np.equal.outer(distinct, taps) @ reads
        records = [("rot", n, 0, 0, a) for a, n in zip(distinct, reads.sum(axis=1).tolist()) if n and a]
        products, width, reached, self.has_terms = _giant_step_counts(terms)
        before = 0
        for a, p, w, r in zip(np.asarray(amounts, dtype=np.int64).tolist(), products, width, reached):
            if p:
                records.append(("pmult", p, 0, 1, None))
            if p > w:
                records.append(("add", p - w, 1, 1, None))
            if w and a:
                records.append(("rot", w, 1, 1, a))
            if w > r - before:  # rows with terms that an earlier step reached
                records.append(("add", w - r + before, 1, 1, None))
            before = r
        self.records = tuple(records)

    def _freeze(self, grid, slot_count, rows, inputs, *arrays) -> None:
        """Set the fields every operator has and make ``has_terms`` and
        ``arrays`` (None skipped) read-only."""
        self.grid, self.slot_count = (int(grid[0]), int(grid[1])), int(slot_count)
        self.rows, self.inputs = int(rows), int(inputs)
        for arr in (self.has_terms,) + arrays:
            if arr is not None:
                arr.flags.writeable = False


class BlockCirculant(_Operator):
    """The baby-step/giant-step operator of one channel fold, built once
    and applied by ``SimContext.fold_steps`` to any number of source sets:
    an AMA temporal conv or classifier head, or on one block of every slot
    with the single giant step 0 (the diagonal method), a row-major one.

    The slots are read as a ``grid`` (n1, n2): n1 blocks of n2 slots.  The
    baby steps rotate each input ciphertext by every one of the K ``taps``
    (slot amounts); the T terms are the (input, tap) pairs, input-major, so
    a source set is T / K inputs.  Giant step s rotates by ``amounts[s]``
    slots, a multiple of n2 (a shift by whole blocks).  ``coef`` has shape
    (S, V, T, n1): step, row, term and the block a coefficient lands on
    after its step's rotation, one set of coefficients for every source
    set.  ``vec`` holds the factors that scale each term's slots after its
    tap rotation, (inputs, K, n1, m) with numpy broadcasting over the
    leading axes (the same mask on every input, say): the factors of the
    first m <= n2 positions of a block, zero past them, as a short
    plaintext is.  The last axis does not broadcast: m = 1 scales position
    0 and zeroes the others; only a scalar scales every position.  Block b
    of row v of source set u is

        sum over steps s, terms t of  coef[s, v, t, b] * (vec[t] * src[u, t])[b']

    with b' = (b + amounts[s] / n2) mod n1 and src[u, t] input i of set u
    rotated by tap k, for t = (i, k): the baby-step/giant-step matrix-vector
    product of Halevi and Shoup (CRYPTO 2018), where all giant steps
    together are one (V*n1, T*n1) block-circulant matrix.  Repeated amounts
    add up.

    ``matrix`` is that matrix, rows (row, block) and columns (term, source
    block), built by ``_block_circulant`` as for a ``Mixed``.  A giant step
    moves whole blocks, so position p of every block of the product reads
    position p of the blocks of the terms only, and is zero where ``vec``
    is zero for every term.  ``live`` holds the other positions as evenly
    spaced runs (start, step, width, count; ``_live_run``), the only ones
    ``apply`` copies, scales and multiplies: after a stride 2, single
    positions two apart in an AMA block, frames of J slots 2J apart in a
    row-major one.  Among them (counted run by run), ``scaled`` are those
    where some factor is not 1: for a temporal tap mask the edge frames of
    each sample, where a tap reads past the sequence and carries a 0, and
    for the row-major head each class whose weight row is not all ones.
    ``vec`` keeps the factors there, (inputs or 1, K or 1, n1 or 1,
    scaled), or None when every factor is 1: ``apply`` multiplies the
    gathered terms at ``scaled`` only, since a factor of 1 leaves a slot
    as it is, bit for bit.  ``apply``'s work is planned when it is built:
    ``reach``, the taps the nearer way round, ``pad``, the slots a window of
    the inputs wraps, ``sets`` per chunk and each GEMM's ``parts``.

    ``has_terms`` marks the V rows some step reaches.  The records of one
    source set (``_schedule``) are one rotation per distinct nonzero tap
    amount of the inputs some pair reads, then per giant step its
    PMults, its Adds of products, one rotation per row with terms (none
    when the amount is 0 mod n1*n2) and one Add per row that already holds
    a partial sum: with the single giant step 0, the hoisted diagonal
    method's input rotations, then one PMult and one Add record.  The
    arrays are read-only and ``fold_steps`` changes nothing, so one
    operator serves any number of source stacks.
    """

    __slots__ = ("taps", "matrix", "vec", "scaled", "live", "reach", "pad", "sets", "parts")

    def __init__(self, amounts, coef, grid, taps=(0,), vec=1.0):
        n1, n2 = grid
        N = n1 * n2
        amounts, coef, self.matrix = _block_circulant(amounts, coef, grid)
        V, T = coef.shape[1:3]
        taps = tuple(int(a) % N for a in taps)
        K = len(taps)
        if not taps or T % K:
            raise ValueError(f"{T} terms are not (input, tap) pairs of {K} taps")
        runs = coef.any(axis=-1)  # (S, V, T): the terms that run
        self._schedule(taps, runs.any(axis=(0, 1)).reshape(T // K, K).T, amounts, runs.sum(axis=-1))
        vec = np.asarray(vec, dtype=np.float64)
        if vec.ndim == 0:  # a scalar scales every position
            vec = np.broadcast_to(vec, n2)
        vec = vec.reshape((1,) * (4 - vec.ndim) + vec.shape)
        lead = (T // K, K, n1)
        if vec.ndim != 4 or vec.shape[-1] > n2 or any(n not in (1, m) for n, m in zip(vec.shape, lead)):
            raise ValueError(f"factors of shape {vec.shape} do not fit {lead + (n2,)}")
        self.live = _live_run(vec)
        self.scaled, self.vec = _scaled_columns(_runs_view(vec, self.live).reshape(vec.shape[:-1] + (-1,)))
        self.taps = taps
        self.reach = tuple(a - N if a > N // 2 else a for a in taps)
        self.pad = max(0, -min(self.reach)), max(0, max(self.reach))
        self._freeze(grid, N, V, T // K, self.vec, self.scaled)  # before the parts' views of them
        self.sets = max(1, _CHUNK_BYTES // (T * N * 8))
        self.parts = _parts(self.live, self.sets * T * n1 * self.live[2] * 8, self.scaled, self.vec)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The (U, rows, slot_count) products of the (U, inputs, slot_count)
        sources: source sets in chunks of ``sets``, whose tap-rotated terms
        stay under ``_CHUNK_BYTES`` (at least one set)."""
        U, I, N = x.shape
        out = np.empty((U, self.rows, N))
        for u in range(0, U, self.sets):
            self._product(x[u : u + self.sets], out[u : u + self.sets])
        return out

    def _product(self, x: np.ndarray, out: np.ndarray) -> None:
        """One chunk of source sets: per one of the ``parts``, one
        ``matmul`` of the matrix broadcast over the sets by z[u, i, k],
        input i of set u rotated by tap k (a window of the inputs wrapped
        the nearer way round) at the part's positions."""
        U, I, N = x.shape
        n1, n2 = self.grid
        K = len(self.taps)
        blocks = out.reshape(U, self.rows * n1, n2)
        if self.live[2] * self.live[3] < n2:
            blocks[...] = 0.0
        pre, post = self.pad
        wrapped = np.concatenate((x[..., N - pre :], x, x[..., :post]), axis=-1) if pre or post else x
        for key, shape, scale in self.parts:
            z = np.empty((U, I, K, n1) + shape)
            for k, a in enumerate(self.reach):
                z[:, :, k] = _runs_view(wrapped[..., pre + a : pre + a + N].reshape(U, I, n1, n2), key)
            z = z.reshape(U, I, K, n1, -1)
            if scale:
                z[..., scale[0]] *= scale[1]
            z = z.reshape(U, -1, z.shape[-1])
            if z.shape[-1] == n2:
                np.matmul(self.matrix, z, out=blocks)
            else:
                dst = _runs_view(blocks, key)
                dst[...] = (self.matrix @ z).reshape(dst.shape)


class Mixed(_Operator):
    """The block-circulant product of ``BlockCirculant``, with the single
    tap 0, applied to linear mixes of the inputs of one layer: the factored
    form of a fold whose coefficients are sums of products, such as an AMA
    spatial conv's sum over partitions p of N_p[k, j] * W_p[c, o].

    ``amounts``, ``coef`` (S, V, P * G, n1) and ``grid`` are those of a
    ``BlockCirculant`` whose T = P * G terms are (part, group); ``matrix``
    is its block-circulant matrix (``_block_circulant``).  A source set is
    ``units`` * G inputs (unit, group).  Output set k of ``reads.shape[0]``
    reads M units, ``reads`` (sets, M), and ``mix`` (sets, P, M) holds the
    scalar of each of its (part, piece); its P * G mixes

        y[k, p, g] = sum over m of  mix[k, p, m] * src[(reads[k, m], g)]

    are multiplied by ``matrix``, and the result is the ``sets`` * V rows
    of every source set, set-major.  ``apply`` gathers and mixes the output
    sets, and multiplies the mixes, in chunks whose gathered inputs stay
    under ``_CHUNK_BYTES`` (at least one set).

    The counts are those of the fold the mix stands for, one ciphertext at
    a time, whose terms are the (piece, group) inputs: term (m, g) of set k
    has, at step s, row v and block b, the combined coefficient

        sum over p of  mix[k, p, m] * coef[s, v, (p, g), b]

    which runs when it is not zero at some block (``_merge_parts``, once
    per distinct vector of P mix entries, without the (steps, sets, rows,
    pieces, groups, blocks) table).  ``records`` and ``has_terms`` are
    those of a ``BlockCirculant`` of the combined table whose rows are all
    output sets' rows, ``rows`` = sets * V, serving every source set.
    """

    __slots__ = ("matrix", "mix", "reads", "units")

    def __init__(self, amounts, coef, grid, mix, reads, units: int):
        n1, n2 = grid
        amounts, coef, self.matrix = _block_circulant(amounts, coef, grid)
        mix = np.array(mix, dtype=np.float64)
        reads = np.array(reads, dtype=np.int64)
        S, V, T = coef.shape[:3]
        if mix.ndim != 3 or T % mix.shape[1]:
            raise ValueError(f"mix of shape {mix.shape} does not fit an operator of {T} terms")
        sets, P, M = mix.shape
        if reads.shape != (sets, M) or reads.size and not 0 <= reads.min() <= reads.max() < units:
            raise ValueError(f"reads of shape {reads.shape} do not fit a mix of shape {mix.shape} over {units} units")
        G = T // P
        slabs = coef.reshape(S, V, P, G, n1).transpose(2, 0, 1, 3, 4)
        which, combined = _merge_parts(mix.transpose(0, 2, 1).reshape(sets * M, P), slabs)
        runs = combined.any(axis=-1).sum(axis=-1)  # (vectors, S, V): the groups each runs
        # hits[k, q]: the pieces of set k with vector q
        hits = np.bincount(np.arange(sets * M) // M * len(combined) + which, minlength=sets * len(combined))
        terms = hits.reshape(sets, -1) @ runs.reshape(len(combined), S * V)
        self._schedule((), np.zeros((0, 0), bool), amounts, terms.reshape(sets, S, V).transpose(1, 0, 2).reshape(S, sets * V))
        self.mix, self.reads, self.units = mix, reads, int(units)
        self._freeze(grid, n1 * n2, sets * V, units * G, mix, reads)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The (U, rows, slot_count) products of the (U, inputs, slot_count) sources."""
        U, _, N = x.shape
        sets, _, M = self.mix.shape
        n2 = self.grid[1]
        G = self.inputs // self.units
        units = x.reshape(U, self.units, G, N)
        out = np.empty((U, sets, len(self.matrix), n2))
        size = max(1, _CHUNK_BYTES // (M * G * N * 8))
        for u in range(U):
            for k in range(0, sets, size):
                ks = slice(k, k + size)
                src = units[u, self.reads[ks]]  # (sets, M, G, N)
                mixed = self.mix[ks] @ src.reshape(len(src), M, G * N)
                np.matmul(self.matrix, mixed.reshape(len(src), -1, n2), out=out[u, ks])
        return out.reshape(U, self.rows, N)


class MixedDiagonals(_Operator):
    """The diagonal-method operator of one row-major spatial conv, applied
    factored: joints mixed per partition, then one GEMM of the weight slabs.

    The slots are read as a ``grid`` (n1, n2) of n1 frames by n2 joints,
    n1 * n2 <= ``slot_count``; past it every output is zero.  Input c
    reaches row v from joint j to joint k through the merged coefficient

        M[k, j, c, v] = sum over p of  parts[p, k, j] * weights[p, c, v]

    of the (P, inputs, rows) ``weights`` and (P, n2, n2) ``parts``, on the
    diagonals d = j - k of the live entries (k, j), where some part is not
    zero (for a merged spatial layer, the entries of its ``pattern``).  Row v of source set u at slot (t, k) is

        sum over d, c of  M[k, k + d, c, v] * src[u, c][t*n2 + k + d]   (0 <= k + d < n2)

    the diagonal method of Halevi and Shoup (CRYPTO 2018), whose baby steps
    rotate the inputs by the diagonals.  ``apply`` computes it factored, in
    chunks of frames whose mixes stay under ``_CHUNK_BYTES`` (at least one
    frame): ``mix`` (n2, P' * n2) mixes the joints of every frame row by
    each part with entries and a weight slab not all zero, x * N_p^T, and
    ``slabs`` (rows, P' * inputs) is their weight slabs as one GEMM over
    (part, input) terms.

    The counts are those of the hoisted diagonal method one ciphertext at a
    time with the merged coefficients, counted by ``_schedule`` with the
    diagonals as taps and the single giant step 0: a (diagonal, input, row)
    product runs where M, summed in the order of p, is not zero at some
    joint, so a sum that cancels exactly runs nothing.  They are worked out
    in one pass over the live entries, from the distinct vectors of part
    entries they carry (``_merge_parts``), once per distinct set of vectors
    a diagonal carries, without building any per-diagonal table.
    """

    __slots__ = ("mix", "slabs")

    def __init__(self, weights, parts, grid, slot_count):
        n1, n2 = grid
        N = int(slot_count)
        if n1 * n2 > N:
            raise ValueError(f"grid {n1}x{n2} exceeds slot count {N}")
        weights = np.asarray(weights, dtype=np.float64)
        parts = np.asarray(parts, dtype=np.float64)
        if weights.ndim != 3 or not len(weights) or parts.shape != (len(weights), n2, n2):
            raise ValueError(f"weights of shape {weights.shape} and parts of shape {parts.shape} are not (P, inputs, rows) and (P, {n2}, {n2})")
        C, V = weights.shape[1:]
        k, j = np.nonzero(parts.any(axis=0))  # the live entries and their diagonals d
        offsets, d = np.unique(j - k, return_inverse=True)
        n = parts[:, k, j]
        which, merged = _merge_parts(n.T, weights)
        hits = np.zeros((len(offsets), len(merged)))  # the vectors each diagonal's entries carry
        hits[d, which] = 1.0
        # diagonals whose entries carry the same vectors run the same products
        kinds = {}
        kind = np.array([kinds.setdefault(row.tobytes(), len(kinds)) for row in hits], dtype=np.int64)
        sets = np.zeros((len(kinds), len(merged)))
        sets[kind] = hits
        runs = (sets @ (merged != 0).reshape(len(merged), C * V)).reshape(len(kinds), C, V) > 0
        terms = np.bincount(kind, minlength=len(kinds)) @ runs.sum(axis=1)
        self._schedule((offsets % N).tolist(), runs.any(axis=2)[kind], [0], terms[None])
        used = parts.any(axis=(1, 2)) & weights.any(axis=(1, 2))  # the other parts add only zeros
        self.mix = parts[used].transpose(2, 0, 1).reshape(n2, -1)
        self.slabs = weights[used].transpose(2, 0, 1).reshape(V, -1)
        self._freeze(grid, N, V, C, self.mix, self.slabs)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The (U, rows, slot_count) products of the (U, inputs, slot_count) sources."""
        U, C, N = x.shape
        n1, n2 = self.grid
        parts = self.mix.shape[1] // n2
        out = np.empty((U, self.rows, N))
        out[..., n1 * n2 :] = 0.0
        size = max(1, _CHUNK_BYTES // (U * C * max(parts, 1) * n2 * 8))
        for t in range(0, n1, size):
            f = min(size, n1 - t)
            cols = slice(t * n2, (t + f) * n2)
            mixed = np.ascontiguousarray(x[..., cols]).reshape(U * C * f, n2) @ self.mix  # (u, c, t) by (p, k)
            terms = mixed.reshape(U, C, f, parts, n2).transpose(0, 3, 1, 2, 4).reshape(U, parts * C, f * n2)
            np.matmul(self.slabs, terms, out=out[..., cols])
        return out


class SimContext:
    """Shared state for one evaluation: slot geometry, counters, op log.

    ``slot_count`` is half the CKKS polynomial degree and must be a power of
    two.  With ``quantize=True`` values are rounded to the fixed-point grid
    ``2**-SCALE_BITS`` at encryption and after every multiplication (a
    ``fold_steps`` rounds its fused sum once), emulating rescaling of a
    scaled integer representation.
    """

    def __init__(
        self,
        slot_count: int,
        max_level: int,
        quantize: bool = False,
        log_ops: bool = True,
    ):
        if slot_count < 1 or slot_count & (slot_count - 1):
            raise ValueError(f"slot_count must be a power of two, got {slot_count}")
        if max_level < 0:
            raise ValueError("max_level must be nonnegative")
        self.slot_count = int(slot_count)
        self.max_level = int(max_level)
        self.quantize = bool(quantize)
        self.log_ops = bool(log_ops)
        self.counter = HocCounter()
        self.oplog: list[dict] = []
        self._layer = "global"
        _keep_freed_memory()

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
        return SimCiphertext(slots, level, self)

    def _quantize(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``values`` rounded to the fixed-point grid, written to ``out`` when given."""
        scale = float(2**SCALE_BITS)
        out = np.multiply(values, scale, out=out)
        np.round(out, out=out)
        return np.divide(out, scale, out=out)

    def _records(self, records) -> None:
        """Count each record, (op, ciphertexts, level before, level after,
        rotation amount or None), of the sequence ``records``; with
        ``log_ops``, log each as one record.  No records leave the counter
        as it was, without an empty histogram for the layer, as the log
        that replays it has none."""
        if not records:
            return
        self.counter.add(self._layer, (((op, before, after, amount), n) for op, n, before, after, amount in records))
        if self.log_ops:
            for op, n, before, after, amount in records:
                rec = {"op": op, "layer": self._layer, "level_before": before, "level_after": after}
                if n != 1:
                    rec["count"] = n
                if amount is not None:
                    rec["rotation_amount"] = amount
                self.oplog.append(rec)

    def _record(self, op: str, level_before: int, level_after: int, n: int = 1, rotation_amount: int | None = None) -> None:
        """Count ``n`` applications of ``op``; with ``log_ops``, log them as one record."""
        self._records(((op, n, level_before, level_after, rotation_amount),))

    def _record_fresh(self, n: int, level: int) -> None:
        """Record what ``encrypt`` and ``mod_switch`` record for n rows
        encrypted and switched to ``level``."""
        self._record("encrypt", self.max_level, self.max_level, n)
        if level != self.max_level:
            self._record("mod_switch", self.max_level, level, n)

    def _as_plaintext(self, pt, rows: int) -> np.ndarray | float:
        """Scalars stay one float that broadcasts (the same slots as a full
        vector of it); shorter vectors are zero-padded (mask semantics).  An
        array of two or more axes holds one plaintext per row of a stack of
        ``rows``, along its leading axes."""
        if type(pt) is np.ndarray and pt.dtype == np.float64 and pt.shape == (self.slot_count,):
            return pt
        if np.isscalar(pt):
            return float(pt)
        arr = np.asarray(pt, dtype=np.float64)
        if arr.ndim < 2:
            arr = arr.reshape(-1)
        elif arr.size // max(arr.shape[-1], 1) != rows:
            raise ValueError(f"plaintexts of shape {arr.shape} do not fit a stack of {rows} ciphertexts")
        return arr if arr.shape[-1] == self.slot_count else _padded(arr, self.slot_count)

    def _same_rows(self, what: str, a: SimCiphertext, b: SimCiphertext) -> None:
        if a.level != b.level:
            raise LevelError(f"level mismatch: {a.level} vs {b.level}")
        if a.rows != b.rows or a.slots.shape[-1] != b.slots.shape[-1]:
            raise ValueError(f"cannot {what} shapes {a.slots.shape} and {b.slots.shape}")

    # ------------------------------------------------------------------
    # scheme operations

    def encrypt(self, values) -> SimCiphertext:
        """Fresh ciphertext at max_level; missing tail slots are zero.

        An array of shape (..., k) with two or more axes encrypts a stack of
        the ciphertexts along its leading axes.  Where ``values`` is a
        broadcast along a leading axis (stride 0), each distinct row is
        encrypted once and the stack is a read-only view of them, logged
        like every row it holds.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim < 2:
            arr = arr.reshape(-1)
        ct = self._new_ct(_padded(arr, self.slot_count, self._quantize if self.quantize else None), self.max_level)
        self._record("encrypt", self.max_level, self.max_level, ct.rows)
        return ct

    def decrypt(self, ct: SimCiphertext) -> np.ndarray:
        return np.array(ct.slots)

    def add(self, a: SimCiphertext, b: SimCiphertext) -> SimCiphertext:
        """Slot-wise sum of two ciphertexts or stacks of the same rows, in
        the shape of ``a``."""
        self._same_rows("add", a, b)
        out = self._new_ct(_rowwise(np.add, a.slots, b.slots), a.level)
        self._record("add", a.level, out.level, out.rows)
        return out

    def sum_parts(self, ct: SimCiphertext, n: int) -> SimCiphertext:
        """The stack cut into n equal consecutive parts, added part by part
        in order: n - 1 Adds per row of the result, logged as one record."""
        if n < 1 or ct.rows % n:
            raise ValueError(f"a stack of {ct.rows} ciphertexts does not cut into {n} parts")
        out = self._new_ct(ct.slots.reshape(n, ct.rows // n, -1).sum(axis=0), ct.level)
        if n > 1:
            self._record("add", ct.level, out.level, (n - 1) * out.rows)
        return out

    def pmult(self, ct: SimCiphertext, pt) -> SimCiphertext:
        """Plaintext multiplication with the implicit rescale (level - 1).

        A stack is multiplied row by row by the same plaintext, or by one
        plaintext per row; either way it counts one PMult per row.
        """
        if ct.level < 1:
            raise LevelError("level exhausted: pmult needs level >= 1")
        slots = _rowwise(np.multiply, ct.slots, self._as_plaintext(pt, ct.rows))
        if self.quantize:
            slots = self._quantize(slots)
        out = self._new_ct(slots, ct.level - 1)
        self._record("pmult", ct.level, out.level, out.rows)
        return out

    def cmult(self, a: SimCiphertext, b: SimCiphertext) -> SimCiphertext:
        self._same_rows("multiply", a, b)
        if a.level < 1:
            raise LevelError("level exhausted: cmult needs level >= 1")
        slots = _rowwise(np.multiply, a.slots, b.slots)
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
        self._record("mod_switch", ct.level, target_level, ct.rows)
        return out

    def fold_steps(self, src: SimCiphertext, op, bias=None) -> SimCiphertext:
        """Apply a prebuilt operator, a ``BlockCirculant``, ``Mixed`` or
        ``MixedDiagonals``: many rotated, plaintext-multiplied and summed
        terms as one fused multiply-accumulate.

        ``src`` is a stack of U x ``op.inputs`` ciphertexts, u-major: U
        source sets, such as the joints of an AMA feature map (G inputs
        each), its whole stack (a ``Mixed`` reads any units of it) or the
        samples of a row-major one.  The operator holds one set of
        coefficients for every source set and the factors that scale each
        term's slots after its rotation; it runs the sets in chunks of its
        own.  Row (u, v) of the result, u-major, is ``op``'s row v applied
        to source set u.

        Counts what the operator's schedule, one ciphertext at a time, would:
        every rotation of an input some term reads, one PMult per term whose
        coefficients are not all zero, the Adds of each row's products, and
        the rotations and Adds of partial sums: the operator's records, in
        its order, each at the input's level and counting U times its count,
        are counted and, with ``log_ops``, logged as one batch.
        Returns the (U*V, slot_count) stack; a row without terms
        (``op.has_terms``) was computed by no operation.  With ``quantize``
        the fused sum is rounded once.

        ``bias``, rows that hold the U*V output rows along their leading axes
        (a broadcast of distinct rows, as ``encrypt`` takes), makes the result
        a conv layer's output: the rows without terms are then encrypted
        zeros, encrypted once for all of them and switched to the output
        level, and the bias rows are encrypted, switched to the output level
        and added in place, unless the bias is zero in every slot.  The
        records are those of that chain, in its order, after the operator's.
        """
        if src.level < 1:
            raise LevelError("level exhausted: fold_steps needs level >= 1")
        N = self.slot_count
        if op.slot_count != N:
            raise ValueError(f"operator of {op.slot_count} slots does not cover slot count {N}")
        if src.rows % op.inputs:
            raise ValueError(f"a stack of {src.rows} source ciphertexts does not fit sets of {op.inputs} inputs")
        U = src.rows // op.inputs  # every step runs on each source set
        rows, level = U * op.rows, src.level - 1
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.ndim < 2:
                bias = bias.reshape(1, -1)
            if not bias.shape[-1] or bias.size // bias.shape[-1] != rows or bias.shape[-1] > N:
                raise ValueError(f"bias rows of shape {bias.shape} do not fit the output of shape {(rows, N)}")
        L = src.level
        self._records([(name, n * U, L - before, L - after, amount) for name, n, before, after, amount in op.records])
        out = op.apply(src.slots.reshape(U, op.inputs, N)).reshape(rows, N)
        if self.quantize:
            self._quantize(out, out)
        if bias is not None:
            empty = np.flatnonzero(~np.tile(op.has_terms, U))
            if len(empty):
                self._record_fresh(len(empty), level)
                out[empty] = 0.0
            compact = _compact(bias)
            if np.any(np.abs(compact) > 0):
                self._record_fresh(rows, level)
                self._record("add", level, level, rows)
                if self.quantize:
                    bias = np.broadcast_to(self._quantize(compact), bias.shape)
                # the encrypted rows are the bias then zeros: x + 0.0 turns -0.0 into 0.0
                k, view = bias.shape[-1], out.reshape(bias.shape[:-1] + (N,))
                np.add(view[..., :k], bias, out=view[..., :k])
                np.add(view[..., k:], 0.0, out=view[..., k:])
        return self._new_ct(out, level)

    # ------------------------------------------------------------------
    # fused epilogues: one pass over one output buffer, in row chunks

    def poly(self, ct: SimCiphertext, coeffs) -> SimCiphertext:
        """a*x^2 + b*x + c of every slot, for ``coeffs`` (a, b, c), as one op.

        Counts and logs, in order, what the chain CMult x*x, PMult by a,
        PMult x by b, mod-switch, Add, encrypt c, mod-switch, Add does: one
        CMult, two PMults and two Adds per row, two levels.  Each row chunk
        under ``_CHUNK_BYTES`` is computed in the output buffer with the
        chain's float operations in its order, x*x, times a, x*b, +, +c;
        with ``quantize`` each product is rounded and c is rounded as
        ``encrypt`` rounds it, so the slots are the chain's.
        """
        coeffs = tuple(coeffs)
        if len(coeffs) != 3:
            raise ValueError(f"poly evaluates degree 2 from coefficients (a, b, c), got {len(coeffs)}")
        if ct.level < 2:
            raise LevelError(f"level exhausted: poly needs level >= 2, have {ct.level}")
        a, b, c = map(float, coeffs)
        n, L = ct.rows, ct.level
        self._record("cmult", L, L - 1, n)
        self._record("pmult", L - 1, L - 2, n)
        self._record("pmult", L, L - 1, n)
        self._record("mod_switch", L - 1, L - 2, n)
        self._record("add", L - 2, L - 2, n)
        self._record_fresh(n, L - 2)
        self._record("add", L - 2, L - 2, n)
        quantize = self._quantize if self.quantize else None
        if quantize:
            c = float(quantize(np.full(1, c))[0])
        x = ct.slots.reshape(n, -1)
        out = np.empty(x.shape)
        size = max(1, _CHUNK_BYTES // (x.shape[1] * 8))
        bx = np.empty((min(size, n), x.shape[1]))
        for r in range(0, n, size):
            xs, o = x[r : r + size], out[r : r + size]
            t = bx[: len(xs)]
            np.multiply(xs, xs, out=o)
            if quantize:
                quantize(o, o)
            o *= a
            np.multiply(xs, b, out=t)
            if quantize:
                quantize(o, o)
                quantize(t, t)
            o += t
            o += c
        return self._new_ct(out.reshape(ct.slots.shape), L - 2)

    def rotate_sum(self, ct: SimCiphertext, amounts) -> SimCiphertext:
        """The rotate-and-sum tree acc = acc + rotate(acc, k) for each k of
        ``amounts`` in turn, from acc = ``ct``, as one op (HElib's
        rotate-and-sum; Halevi and Shoup, CRYPTO 2014).

        Counts and logs what that loop does, in its order: per amount one
        Rot per row (none for an amount of 0 mod slot count, which adds acc
        to itself) and one Add per row.  Each row chunk under
        ``_CHUNK_BYTES`` is summed with the loop's float operations, acc +
        rot(acc).  A sum whose amount is half the period of acc (N at first)
        halves that period, so a halving tree computes one period only; when
        the period ends at one slot the result is a read-only broadcast of
        one value per row.
        """
        N = self.slot_count
        amounts = [int(k) % N for k in amounts]
        if not amounts:
            return ct
        n, L = ct.rows, ct.level
        for k in amounts:
            if k:
                self._record("rot", L, L, n, rotation_amount=k)
            self._record("add", L, L, n)
        steps, period = [], N  # (shift within the period, period, period after)
        for k in amounts:
            r = k % period
            steps.append((r, period, period // 2 if 2 * r == period else period))
            period = steps[-1][2]
        x = ct.slots.reshape(n, N)
        size = max(1, _CHUNK_BYTES // (N * 8))
        work = np.empty((2, min(size, n), N))
        out = np.empty((n, 1 if period == 1 else N))
        for i in range(0, n, size):
            acc = x[i : i + size]
            for j, (r, p, q) in enumerate(steps):
                nxt = work[j % 2, : len(acc)]
                m = min(q, p - r)  # slot i < m reads i + r, the rest i + r - p
                np.add(acc[:, :m], acc[:, r : r + m], out=nxt[:, :m])
                if m < q:
                    np.add(acc[:, m:q], acc[:, : q - m], out=nxt[:, m:q])
                acc = nxt
            out[i : i + size].reshape(len(acc), -1, period)[...] = acc[:, None, :period]
        if period == 1:
            out = np.broadcast_to(out.reshape(ct.slots.shape[:-1] + (1,)), ct.slots.shape)
        return self._new_ct(out.reshape(ct.slots.shape), L)


def replay_counts(oplog) -> HocCounter:
    """Rebuild a HocCounter from an operation log: each record adds its
    ``count`` (absent means one) at its (op, levels, rotation amount)."""
    counter = HocCounter()
    for rec in oplog:
        key = (rec["op"], rec["level_before"], rec["level_after"], rec.get("rotation_amount"))
        counter.add(rec["layer"], ((key, rec.get("count", 1)),))
    return counter
