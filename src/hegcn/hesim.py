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
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager

import numpy as np

#: Counter names, in the order they appear in reports.
OPS = ("rot", "pmult", "cmult", "add", "rescale")

#: Counters that enter the homomorphic-operation-count total.  Rescale is
#: bookkeeping for the modulus chain, not a separately scheduled operation.
HOC_OPS = ("rot", "pmult", "cmult", "add")


class LevelError(Exception):
    """An operation violated the level discipline of the scheme."""


def _zero_counts():
    return dict.fromkeys(OPS, 0)


class HocCounter:
    """Exact homomorphic operation counts, kept per layer label.

    Totals are always derived from the per-layer map, so the invariant
    "total == sum over layers" holds by construction.  ``merge`` is
    associative and commutative, which makes per-thread counters safe to
    combine in any order.
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

    def hoc_total(self) -> int:
        """Rot + PMult + CMult + Add (the hardware-neutral cost metric)."""
        totals = self.totals()
        return sum(totals[op] for op in HOC_OPS)

    @property
    def rot(self) -> int:
        return self.totals()["rot"]

    @property
    def pmult(self) -> int:
        return self.totals()["pmult"]

    @property
    def cmult(self) -> int:
        return self.totals()["cmult"]

    @property
    def add(self) -> int:
        return self.totals()["add"]

    @property
    def rescale(self) -> int:
        return self.totals()["rescale"]

    def merge(self, other: "HocCounter") -> "HocCounter":
        merged = HocCounter()
        for src in (self, other):
            for label, counts in src.per_layer.items():
                for op in OPS:
                    if counts[op]:
                        merged.bump(label, op, counts[op])
        return merged

    def copy(self) -> "HocCounter":
        return HocCounter().merge(self)

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
    """Immutable slot vector with a remaining-level budget and an opaque id."""

    __slots__ = ("slots", "level", "id", "ctx")

    def __init__(self, slots: np.ndarray, level: int, id: str, ctx: "SimContext"):
        slots = np.asarray(slots, dtype=np.float64)
        slots.flags.writeable = False
        self.slots = slots
        self.level = int(level)
        self.id = id
        self.ctx = ctx

    def __repr__(self) -> str:
        return f"SimCiphertext(id={self.id}, level={self.level}, slots={len(self.slots)})"


class SimContext:
    """Shared state for one evaluation: slot geometry, counters, op log.

    ``slot_count`` is half the CKKS polynomial degree and must be a power of
    two.  With ``quantize=True`` values are rounded to the fixed-point grid
    ``2**-scale_bits`` at encryption and after every multiplication,
    emulating rescaling of a scaled integer representation.
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

    def _record(self, op: str, level_before: int, level_after: int, **extra) -> None:
        counts = self.counter.counts_of(self._layer)
        counts[op] += 1
        if op in ("pmult", "cmult"):
            counts["rescale"] += 1
        if self.log_ops:
            rec = {
                "op": op,
                "layer": self._layer,
                "level_before": level_before,
                "level_after": level_after,
            }
            rec.update(extra)
            self.oplog.append(rec)

    def _as_plaintext(self, pt) -> np.ndarray:
        """Scalars broadcast; shorter vectors are zero-padded (mask semantics)."""
        if type(pt) is np.ndarray and pt.dtype == np.float64 and pt.shape == (self.slot_count,):
            return pt
        if np.isscalar(pt):
            return np.full(self.slot_count, float(pt))
        arr = np.asarray(pt, dtype=np.float64).ravel()
        if arr.size > self.slot_count:
            raise ValueError(f"plaintext length {arr.size} exceeds slot count {self.slot_count}")
        if arr.size < self.slot_count:
            arr = np.concatenate([arr, np.zeros(self.slot_count - arr.size)])
        return arr

    # ------------------------------------------------------------------
    # scheme operations

    def encrypt(self, values) -> SimCiphertext:
        """Fresh ciphertext at max_level; missing tail slots are zero."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size > self.slot_count:
            raise ValueError(f"{arr.size} values exceed slot count {self.slot_count}")
        slots = np.zeros(self.slot_count)
        slots[: arr.size] = arr
        if self.quantize:
            slots = self._quantize(slots)
        ct = self._new_ct(slots, self.max_level)
        if self.log_ops:
            self.oplog.append(
                {
                    "op": "encrypt",
                    "layer": self._layer,
                    "level_before": self.max_level,
                    "level_after": self.max_level,
                }
            )
        return ct

    def decrypt(self, ct: SimCiphertext) -> np.ndarray:
        return np.array(ct.slots)

    def add(self, a: SimCiphertext, b: SimCiphertext) -> SimCiphertext:
        if a.level != b.level:
            raise LevelError(f"level mismatch: {a.level} vs {b.level}")
        out = self._new_ct(a.slots + b.slots, a.level)
        self._record("add", a.level, out.level)
        return out

    def pmult(self, ct: SimCiphertext, pt) -> SimCiphertext:
        """Plaintext multiplication with the implicit rescale (level - 1)."""
        if ct.level < 1:
            raise LevelError("level exhausted: pmult needs level >= 1")
        slots = ct.slots * self._as_plaintext(pt)
        if self.quantize:
            slots = self._quantize(slots)
        out = self._new_ct(slots, ct.level - 1)
        self._record("pmult", ct.level, out.level)
        return out

    def cmult(self, a: SimCiphertext, b: SimCiphertext) -> SimCiphertext:
        if a.level != b.level:
            raise LevelError(f"level mismatch: {a.level} vs {b.level}")
        if a.level < 1:
            raise LevelError("level exhausted: cmult needs level >= 1")
        slots = a.slots * b.slots
        if self.quantize:
            slots = self._quantize(slots)
        out = self._new_ct(slots, a.level - 1)
        self._record("cmult", a.level, out.level)
        return out

    def rotate(self, ct: SimCiphertext, k: int) -> SimCiphertext:
        """Left cyclic shift by k slots; negative k shifts right.

        Rotation by zero (mod slot_count) is free: the input ciphertext is
        returned unchanged and nothing is counted or logged.
        """
        k = int(k) % self.slot_count
        if k == 0:
            return ct
        out = self._new_ct(np.concatenate((ct.slots[k:], ct.slots[:k])), ct.level)
        self._record("rot", ct.level, out.level, rotation_amount=k)
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
        if self.log_ops:
            self.oplog.append(
                {
                    "op": "mod_switch",
                    "layer": self._layer,
                    "level_before": ct.level,
                    "level_after": target_level,
                }
            )
        return out

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
    rescale each, mirroring the live accounting.
    """
    counter = HocCounter()
    for rec in oplog:
        op = rec["op"]
        if op in ("add", "rot", "pmult", "cmult"):
            counter.bump(rec["layer"], op)
            if op in ("pmult", "cmult"):
                counter.bump(rec["layer"], "rescale")
    return counter

