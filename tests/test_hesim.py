import functools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hegcn import hesim
from hegcn.adjacency import AdjacencySet, MergedSpatialMatrix, diagonal_offsets, merge_spatial
from hegcn.engine import _temporal_tap_mask, run_model
from hegcn.hesim import BlockCirculant, Diagonals, LevelError, Mixed, MixedDiagonals, SimContext, replay_counts
from hegcn.model import acceptance_stgcn3
from hegcn.packing import AMA, ROWMAJOR, GraphTensor


def ctx(slots=8, levels=5, **kw):
    return SimContext(slot_count=slots, max_level=levels, **kw)


def stack(cts):
    """One stack of the given ciphertexts and stacks, in order: the
    reference schedules' bookkeeping, nothing counted or logged."""
    cts = list(cts)
    if not cts:
        raise ValueError("stack needs at least one ciphertext")
    levels = {ct.level for ct in cts}
    if len(levels) > 1:
        raise LevelError(f"cannot stack ciphertexts at levels {sorted(levels)}")
    return cts[0].ctx._new_ct(np.concatenate([ct.slots.reshape(ct.rows, -1) for ct in cts]), cts[0].level)


def put(ct, index, rows):
    """A copy of the stack with the rows ``index`` replaced by those of
    ``rows``, at its level (bookkeeping, nothing counted or logged)."""
    assert rows.level == ct.level
    slots = np.array(ct.slots.reshape(ct.rows, -1))
    slots[index] = rows.slots.reshape(rows.rows, -1)
    return ct.ctx._new_ct(slots, ct.level)


def take(ct, index):
    """The rows ``index`` (a slice or an index array) of a stack as one
    stack (bookkeeping, nothing counted or logged)."""
    return ct.ctx._new_ct(ct.slots.reshape(ct.rows, -1)[index], ct.level)


def unstack(ct) -> list:
    """The rows of a stack as single ciphertexts (views, nothing counted)."""
    if ct.slots.ndim == 1:
        return [ct]
    return [ct.ctx._new_ct(row, ct.level) for row in ct.slots.reshape(ct.rows, -1)]


class TestEncryptDecrypt:
    def test_zero_padding(self):
        c = ctx(slots=4)
        ct = c.encrypt([1, 2, 3])
        assert ct.level == 5
        np.testing.assert_array_equal(ct.slots, [1, 2, 3, 0])

    def test_empty_input_is_all_zero(self):
        c = ctx(slots=4)
        np.testing.assert_array_equal(c.encrypt([]).slots, np.zeros(4))

    def test_too_many_values(self):
        with pytest.raises(ValueError):
            ctx(slots=4).encrypt([1] * 5)

    def test_quantize_rounds_to_scale_grid(self):
        c = ctx(quantize=True)
        got = c.decrypt(c.encrypt([0.1]))[0]
        expected = round(0.1 * 2**33) / 2**33  # 0.09999999997671694
        assert got == expected
        assert got != 0.1

    def test_round_trip(self):
        c = ctx()
        v = np.arange(8.0)
        np.testing.assert_array_equal(c.decrypt(c.encrypt(v)), v)

    def test_slot_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            SimContext(slot_count=6, max_level=1)

    @pytest.mark.parametrize("quantize", [False, True])
    def test_broadcast_rows_are_encrypted_once(self, quantize):
        """Rows broadcast along a leading axis encrypt as a read-only view of
        the distinct rows: the same slots and log as the full array."""
        rows = np.random.default_rng(3).uniform(-1, 1, (2, 5))
        views, fulls = [], []
        for out, values in ((views, np.broadcast_to(rows, (3, 2, 5))), (fulls, np.array(np.broadcast_to(rows, (3, 2, 5))))):
            c = ctx(quantize=quantize, log_ops=True)
            out += [c.encrypt(values), c.oplog]
        (view, log), (full, want_log) = views, fulls
        np.testing.assert_array_equal(view.slots, full.slots)
        assert view.rows == 6 and view.slots.strides[0] == 0 and not view.slots.flags.writeable
        assert log == want_log and log[0]["count"] == 6


class TestAdd:
    def test_elementwise(self):
        c = ctx(slots=2)
        out = c.add(c.encrypt([1, 2]), c.encrypt([3, 4]))
        np.testing.assert_array_equal(out.slots, [4, 6])
        assert out.level == 5
        assert c.counter.totals()["add"] == 1

    def test_zero_identity(self):
        c = ctx()
        x = c.encrypt([5, -1, 2])
        np.testing.assert_array_equal(c.add(x, c.encrypt([])).slots, x.slots)

    def test_level_mismatch(self):
        c = ctx()
        a = c.encrypt([1])
        b = c.mod_switch(c.encrypt([1]), 4)
        with pytest.raises(LevelError, match="level mismatch"):
            c.add(a, b)


class TestPMult:
    def test_scalar(self):
        c = ctx()
        out = c.pmult(c.encrypt([1, 2, 3]), 2)
        np.testing.assert_array_equal(out.slots[:3], [2, 4, 6])
        assert out.level == 4
        assert c.counter.totals()["pmult"] == 1 and c.counter.totals()["rescale"] == 1

    @pytest.mark.parametrize("quantize", [False, True])
    def test_scalar_equals_the_full_vector(self, quantize):
        """A scalar plaintext multiplies as the float itself: the same slots,
        counters and records as the full vector of it, on a stack too."""
        vals = np.random.default_rng(5).uniform(-3, 3, (3, 8))
        runs = []
        for pt in (0.37, np.full(8, 0.37)):
            c = ctx(quantize=quantize, log_ops=True)
            with c.layer("p"):
                runs.append((c.pmult(c.encrypt(vals), pt), c))
        (got, c), (want, ref) = runs
        np.testing.assert_array_equal(got.slots, want.slots)
        assert got.level == want.level and c.counter == ref.counter and c.oplog == ref.oplog

    def test_ones_still_consumes_a_level(self):
        c = ctx()
        x = c.encrypt([1, 2])
        out = c.pmult(x, np.ones(8))
        np.testing.assert_array_equal(out.slots, x.slots)
        assert out.level == x.level - 1

    def test_mask_interleaves_zeros(self):
        c = ctx(slots=4)
        out = c.pmult(c.encrypt([5, 6, 7, 8]), [1, 0, 1, 0])
        np.testing.assert_array_equal(out.slots, [5, 0, 7, 0])

    def test_level_exhausted(self):
        c = ctx(levels=1)
        low = c.pmult(c.encrypt([1]), 2)
        with pytest.raises(LevelError, match="exhausted"):
            c.pmult(low, 2)


class TestCMult:
    def test_elementwise(self):
        c = ctx(slots=2)
        out = c.cmult(c.encrypt([2, 3]), c.encrypt([4, 5]))
        np.testing.assert_array_equal(out.slots, [8, 15])
        assert out.level == 4
        assert c.counter.totals()["cmult"] == 1

    def test_square(self):
        c = ctx(slots=2)
        x = c.encrypt([-1, 2])
        np.testing.assert_array_equal(c.cmult(x, x).slots, [1, 4])

    def test_level_mismatch(self):
        c = ctx()
        a = c.encrypt([1])
        b = c.mod_switch(c.encrypt([1]), 2)
        with pytest.raises(LevelError):
            c.cmult(a, b)


class TestRotate:
    def test_left_shift_by_one(self):
        c = ctx(slots=4)
        out = c.rotate(c.encrypt([1, 2, 3, 4]), 1)
        np.testing.assert_array_equal(out.slots, [2, 3, 4, 1])
        assert c.counter.totals()["rot"] == 1

    def test_zero_rotation_free(self):
        c = ctx(slots=4)
        x = c.encrypt([1, 2, 3, 4])
        assert c.rotate(x, 0) is x
        assert c.rotate(x, 4) is x
        assert c.counter.totals()["rot"] == 0

    def test_inverse(self):
        c = ctx(slots=8)
        x = c.encrypt(np.arange(8.0))
        back = c.rotate(c.rotate(x, 3), 8 - 3)
        np.testing.assert_array_equal(back.slots, x.slots)

    def test_negative_is_right_shift(self):
        c = ctx(slots=4)
        out = c.rotate(c.encrypt([1, 2, 3, 4]), -1)
        np.testing.assert_array_equal(out.slots, [4, 1, 2, 3])

    def test_composition_values_equal_counts_differ(self):
        c = ctx(slots=8)
        x = c.encrypt(np.arange(8.0))
        two_step = c.rotate(c.rotate(x, 3), 4)
        assert c.counter.totals()["rot"] == 2
        c2 = ctx(slots=8)
        one_step = c2.rotate(c2.encrypt(np.arange(8.0)), 7)
        assert c2.counter.totals()["rot"] == 1
        np.testing.assert_array_equal(two_step.slots, one_step.slots)


class TestModSwitch:
    def test_values_unchanged(self):
        c = ctx()
        x = c.encrypt([1.5, -2])
        down = c.mod_switch(x, 3)
        assert down.level == 3
        np.testing.assert_array_equal(down.slots, x.slots)
        assert c.counter.totals() == dict.fromkeys(("rot", "pmult", "cmult", "add", "rescale"), 0)

    def test_noop_at_same_level(self):
        c = ctx()
        x = c.encrypt([1])
        assert c.mod_switch(x, x.level) is x

    def test_cannot_switch_up(self):
        c = ctx()
        x = c.mod_switch(c.encrypt([1]), 2)
        with pytest.raises(LevelError):
            c.mod_switch(x, 3)


class TestStacks:
    def rows(self, c, n=3, seed=0):
        return np.random.default_rng(seed).uniform(-1, 1, (n, c.slot_count))

    def test_each_op_on_a_stack_counts_its_rows(self):
        c = ctx(levels=4, log_ops=True)
        x = c.encrypt(self.rows(c))
        assert x.rows == 3
        y = c.pmult(x, 2.0)
        c.add(y, y)
        c.cmult(y, y)
        c.rotate(x, 2)
        c.mod_switch(x, 1)
        assert c.counter.totals() == {"rot": 3, "pmult": 3, "cmult": 3, "add": 3, "rescale": 6}
        assert [r.get("count") for r in c.oplog] == [3] * 6

    def test_stack_ops_equal_per_row_ops(self):
        c = ctx(levels=4)
        vals = self.rows(c)
        x = c.encrypt(vals)
        singles = [c.encrypt(v) for v in vals]
        for k in (1, 3, -2):
            for row, single in zip(unstack(c.rotate(x, k)), singles):
                np.testing.assert_array_equal(row.slots, c.rotate(single, k).slots)
        w = np.arange(8.0)
        for row, single in zip(unstack(c.pmult(x, w)), singles):
            np.testing.assert_array_equal(row.slots, c.pmult(single, w).slots)

    def test_stack_and_unstack_are_free_and_inverse(self):
        c = ctx(log_ops=True)
        singles = [c.encrypt(v) for v in self.rows(c)]
        log_len = len(c.oplog)
        s = stack(singles)
        back = unstack(s)
        assert len(c.oplog) == log_len
        assert c.counter.totals() == dict.fromkeys(("rot", "pmult", "cmult", "add", "rescale"), 0)
        assert [ct.level for ct in back] == [s.level] * 3
        for a, b in zip(singles, back):
            np.testing.assert_array_equal(a.slots, b.slots)

    def test_one_plaintext_per_row(self):
        """A PMult by one plaintext per row, given along the leading axes of
        any shape that holds the rows, equals the row-by-row PMults."""
        c = ctx(levels=4, log_ops=True)
        vals = self.rows(c, n=6)
        plains = np.random.default_rng(4).uniform(-1, 1, (3, 2, 5))
        out = c.pmult(c.encrypt(vals), plains)
        for row, v, p in zip(unstack(out), vals, plains.reshape(6, 5)):
            np.testing.assert_array_equal(row.slots, c.pmult(c.encrypt(v), p).slots)
        assert c.oplog[1]["op"] == "pmult" and c.oplog[1]["count"] == 6
        with pytest.raises(ValueError, match="do not fit"):
            c.pmult(c.encrypt(vals), plains[:2])

    def test_sum_parts_equals_the_adds_in_order(self):
        c, ref = ctx(log_ops=True), ctx(log_ops=True)
        vals = self.rows(c, n=6) * 1e8
        got = c.sum_parts(c.encrypt(vals), 3)
        parts = [ref.encrypt(vals[i : i + 2]) for i in range(0, 6, 2)]
        want = ref.add(ref.add(parts[0], parts[1]), parts[2])
        np.testing.assert_array_equal(got.slots, want.slots)
        assert c.counter == ref.counter and got.rows == 2
        with pytest.raises(ValueError, match="does not cut"):
            c.sum_parts(got, 3)

    def test_stack_rejects_mixed_levels(self):
        c = ctx(levels=4)
        with pytest.raises(LevelError):
            stack([c.encrypt([1]), c.mod_switch(c.encrypt([2]), 3)])

    def test_stack_ops_check_levels(self):
        c = ctx(levels=1)
        x = c.encrypt(self.rows(c))
        low = c.pmult(x, 1.0)
        with pytest.raises(LevelError):
            c.add(x, low)
        with pytest.raises(LevelError):
            c.pmult(low, 1.0)
        with pytest.raises(LevelError):
            c.fold_steps(low, Diagonals([0], np.ones((1, 3, 1)), (1, 8), 8))

    @pytest.mark.parametrize(
        "coef_shape, grid",
        [
            ((3, 4, 1), None),  # a scalar per term and row
            ((3, 4, 1), (4, 2)),  # a scalar per term on a frame grid
            ((3, 4, 1), (2, 3)),  # a scalar per term, tail past the grid
        ],
    )
    def test_fold_equals_the_loop_and_counts_the_mask(self, coef_shape, grid):
        """The terms that run are the nonzero pattern of ``coef``: exactly the
        terms of the per-ciphertext loop.  ``coef`` is (rows, terms, 1 or
        columns): one shift 0, each term one input."""
        rng = np.random.default_rng(2)
        vals = rng.uniform(-1, 1, (4, 8))
        n1, n2 = grid or (1, 8)
        coef = np.where(rng.uniform(size=coef_shape[:2] + (1,)) < 0.5, rng.uniform(-1, 1, coef_shape), 0.0)
        coef[0] = 0.0  # a row without terms
        coef[1] = 0.0
        coef[1, 2] = 0.7  # a row with a single term
        coef[2, 3] = 0.0
        coef[2, 3, 0] = -0.4  # a term runs when any one coefficient is nonzero
        # hand count: a PMult per term with a nonzero coefficient, terms - 1 Adds per row with terms
        terms = coef.any(axis=-1).sum(axis=-1)
        expect = {"rot": 0, "pmult": int(terms.sum()), "cmult": 0, "rescale": int(terms.sum())}
        expect["add"] = int(np.maximum(terms - 1, 0).sum())
        for vec in (0.5, rng.uniform(-1, 1, (1, 4, n1))):
            c, ref = ctx(slots=8, levels=3, log_ops=True), ctx(slots=8, levels=3, log_ops=True)
            op = Diagonals([0], coef.transpose(2, 1, 0), (n1, n2), 8, vec)
            with c.layer("fold"):
                out = c.fold_steps(c.encrypt(vals), op)
            plains = np.zeros((3, 4, 8))
            on_grid = coef[:, :, None, :] * np.broadcast_to(vec, (1, 4, n1))[0][None, :, :, None]  # (row, term, frame, column)
            plains[:, :, : n1 * n2] = np.broadcast_to(on_grid, (3, 4, n1, n2)).reshape(3, 4, -1)
            with ref.layer("fold"):
                want = per_ciphertext_folds(ref, ref.encrypt(vals), [0], plains[None], coef.any(axis=-1)[None])
            assert c.counter.layer("fold") == expect == ref.counter.layer("fold")
            assert coalesce(c.oplog) == coalesce(ref.oplog)
            assert out.rows == 3 and out.level == 2
            assert [w is None for w in want] == [True, False, False] == (~op.has_terms).tolist()
            for row, w in zip(unstack(out), want):
                np.testing.assert_allclose(row.slots, 0.0 if w is None else w.slots, rtol=0, atol=1e-12)
            assert replay_counts(c.oplog) == c.counter

    def test_fold_skips_masked_terms(self):
        """A term whose coefficients are all zero runs no PMult."""
        c = ctx(slots=8, levels=2)
        src = c.encrypt(np.ones((2, 8)))
        out = c.fold_steps(src, Diagonals([0], np.array([[[5.0], [0.0]]]), (1, 8), 8))
        np.testing.assert_array_equal(out.slots, np.full((1, 8), 5.0))
        assert c.counter.totals()["pmult"] == 1 and c.counter.totals()["add"] == 0

    def test_fold_level_is_checked_first(self):
        c = ctx(slots=8, levels=1)
        low = c.pmult(c.encrypt(np.ones((3, 8))), 1.0)
        op = Diagonals([0], np.ones((1, 2, 5)), (4, 4), 16)  # neither covers nor fits
        with pytest.raises(LevelError):
            c.fold_steps(low, op)

    @pytest.mark.parametrize(
        "rows, coef_shape, grid, match",
        [
            (4, (1, 4, 1), (4, 4), "exceeds slot count"),
            (4, (1, 4), None, "is not"),  # not 3-D
            (4, (1, 4, 1, 1), None, "is not"),
            (4, (4,), (2, 4), "is not"),  # one axis
            (6, (1, 4, 1), None, "does not fit"),  # not whole source sets
            (3, (1, 4, 1), None, "does not fit"),
        ],
    )
    def test_fold_typed_errors(self, rows, coef_shape, grid, match):
        c = ctx(slots=8, levels=2)
        with pytest.raises(ValueError, match=match):
            c.fold_steps(c.encrypt(np.ones((rows, 8))), Diagonals([0], np.ones(coef_shape), grid or (1, 8), 8))

    def test_replay_of_batched_records(self):
        c = ctx(levels=4, log_ops=True)
        with c.layer("a"):
            x = c.encrypt(self.rows(c, n=5))
            y = c.rotate(c.pmult(x, 0.5), 1)
            c.add(y, y)
            c.fold_steps(take(x, slice(0, 2)), Diagonals([0], np.ones((1, 2, 2)), (1, 8), 8))
        with c.layer("b"):
            c.pmult(c.encrypt([1.0]), 2.0)
        assert any(r.get("count", 1) > 1 for r in c.oplog)
        assert replay_counts(c.oplog) == c.counter


def coalesce(oplog) -> list[dict]:
    """Consecutive records alike but for ``count`` as one record of their summed count."""
    out = []
    for rec in oplog:
        rec = dict(rec)
        n = rec.pop("count", 1)
        if out and out[-1][0] == rec:
            out[-1][1] += n
        else:
            out.append([rec, n])
    return [{**rec, "count": n} if n > 1 else rec for rec, n in out]


def per_ciphertext_folds(c, src, amounts, plains, runs) -> list:
    """The schedule ``fold_steps`` stands for, one ciphertext at a time.

    ``plains`` holds the (S, V, T, slot_count) slot plaintexts and ``runs``
    the (S, V, T) terms that run, the same for every source set of T
    inputs.  Per step: PMult every
    term that runs by its plaintext, Add the products of each row, rotate
    each row's partial by the step's amount, and Add it into the row's
    running sum.  Returns the running sums, None for a row without terms.
    """
    S, V, T = runs.shape
    U = src.rows // T
    srcs = unstack(src)
    sums = [None] * (U * V)
    for s, amount in enumerate(amounts):
        products = {}
        for u in range(U):
            for v in range(V):
                for t in range(T):
                    if runs[s, v, t]:
                        products.setdefault(u * V + v, []).append(c.pmult(srcs[u * T + t], plains[s, v, t]))
        partials = {r: functools.reduce(c.add, terms) for r, terms in products.items()}
        rotated = {r: c.rotate(ct, amount) for r, ct in partials.items()}
        for r, ct in rotated.items():
            sums[r] = ct if sums[r] is None else c.add(sums[r], ct)
    return sums


class TestFoldSteps:
    """``fold_steps`` of a ``BlockCirculant`` against the per-ciphertext
    schedule it stands for, on 32 slots read as 4 blocks of 8: U = 2 source
    sets of T = 4 terms, V = 3 outputs."""

    U, V, T, N1, N2 = 2, 3, 4, 4, 8
    # 0, a repeat, a full turn, a negative amount, a step without terms
    AMOUNTS = [0, 8, 32, -16, 8, 24, 16]

    def coef(self, seed=3):
        rng = np.random.default_rng(seed)
        shape = (len(self.AMOUNTS), self.V, self.T, self.N1)
        coef = np.where(rng.uniform(size=shape[:3] + (1,)) < 0.6, rng.uniform(-1, 1, shape), 0.0)
        coef[:, 0] = 0.0  # output 0: no term in any step
        coef[1::2, 2] = 0.0  # output 2: terms in some steps only
        coef[5] = 0.0
        coef[2, 1, 0] = [0.0, 0.3, 0.0, -0.2]  # zeros at some blocks of a term that runs
        return coef

    def plains(self, coef, vec):
        """Slot plaintexts per (step, row, term): a coefficient lands on block
        b after the step's rotation, so before it sits at block b + shift."""
        vec = np.broadcast_to(vec, (self.T, self.N1, self.N2))
        out = np.zeros(coef.shape[:3] + (self.N1, self.N2))
        for s, amount in enumerate(self.AMOUNTS):
            out[s] = np.roll(coef[s], amount // self.N2, axis=-1)[..., None] * vec
        return out.reshape(coef.shape[:3] + (-1,))

    @pytest.mark.parametrize("vec_kind", ["scalar", "per-term"])
    def test_equals_the_per_step_schedule(self, vec_kind):
        rng = np.random.default_rng(4)
        vals = rng.uniform(-1, 1, (self.U * self.T, 32))
        vec = 0.5 if vec_kind == "scalar" else rng.uniform(-1, 1, (self.T, 1, self.N2))
        coef, grid = self.coef(), (self.N1, self.N2)
        c, ref = ctx(slots=32, levels=3, log_ops=True), ctx(slots=32, levels=3, log_ops=True)
        op = BlockCirculant(self.AMOUNTS, coef, grid, (0,), vec)
        with c.layer("steps"):
            out = c.fold_steps(c.encrypt(vals), op)
        with ref.layer("steps"):
            want = per_ciphertext_folds(ref, ref.encrypt(vals), self.AMOUNTS, self.plains(coef, vec), coef.any(axis=-1))
        has_terms = np.tile(op.has_terms, self.U)
        assert has_terms.tolist() == [w is not None for w in want]
        assert not has_terms[0] and not has_terms[3] and has_terms[5]
        assert out.rows == self.U * self.V and out.level == 2
        for row, w in zip(unstack(out), want):
            np.testing.assert_allclose(row.slots, 0.0 if w is None else w.slots, rtol=0, atol=1e-12)
        assert c.counter == ref.counter
        assert c.counter.totals()["rot"] > 0 and coalesce(c.oplog) == coalesce(ref.oplog)
        assert any(rec.get("count", 1) > 1 for rec in c.oplog)
        assert replay_counts(c.oplog) == c.counter

    @pytest.mark.parametrize("quantize", [False, True])
    def test_positions_vec_zeroes_are_exact_zeros(self, quantize):
        """Within-block positions that ``vec`` zeroes for every term and
        that lie outside the evenly spaced run through the others are not
        copied or multiplied; the product is an exact zero wherever ``vec``
        zeroes every term, and the other slots and the counts are those of
        the per-step schedule."""
        rng = np.random.default_rng(17)
        vals = rng.uniform(-1, 1, (self.U * self.T, 32))
        coef, grid = self.coef(), (self.N1, self.N2)
        for nonzero, live in (([1, 3, 5], slice(1, 6, 2)), ([2, 3, 6], slice(2, 7, 1))):
            vec = np.zeros((self.T, self.N1, self.N2))
            vec[..., nonzero] = rng.uniform(-1, 1, (self.T, self.N1, 3))
            vec[:, 2, nonzero[1]] = 0.0  # zero at one block only: the position stays live
            self.check_positions(vals, coef, grid, vec, live, quantize)

    def check_positions(self, vals, coef, grid, vec, live, quantize):
        op = BlockCirculant(self.AMOUNTS, coef, grid, (0,), vec)
        assert op.live == live
        c, ref = (ctx(slots=32, levels=3, log_ops=True, quantize=quantize) for _ in range(2))
        with c.layer("steps"):
            out = c.fold_steps(c.encrypt(vals), op)
        with ref.layer("steps"):
            want = per_ciphertext_folds(ref, ref.encrypt(vals), self.AMOUNTS, self.plains(coef, vec), coef.any(axis=-1))
        assert not out.slots.reshape(-1, self.N1, self.N2)[..., ~vec.any(axis=(0, 1))].any()
        assert np.tile(op.has_terms, self.U).tolist() == [w is not None for w in want]
        for row, w in zip(unstack(out), want):
            np.testing.assert_allclose(row.slots, 0.0 if w is None else w.slots, rtol=0, atol=1e-9 if quantize else 1e-12)
        assert c.counter == ref.counter and coalesce(c.oplog) == coalesce(ref.oplog)

    def test_quantize_rounds_the_fused_sum_once(self):
        q, exact = ctx(slots=32, levels=3, quantize=True), ctx(slots=32, levels=3)
        src = q.encrypt(np.random.default_rng(5).uniform(-1, 1, (self.U * self.T, 32)))
        coef, grid = self.coef(), (self.N1, self.N2)
        op = BlockCirculant(self.AMOUNTS, coef, grid, (0,), 0.3)
        got = q.fold_steps(src, op).slots
        want = exact.fold_steps(exact.encrypt(src.slots), op).slots
        np.testing.assert_array_equal(got, np.round(want * 2.0**33) / 2.0**33)

    def test_level_is_checked_first(self):
        c = ctx(slots=32, levels=1)
        low = c.pmult(c.encrypt(np.ones((4, 32))), 1.0)
        op = BlockCirculant([5], np.ones((1, 1, 3, 5)), (5, 5))  # neither covers nor fits
        with pytest.raises(LevelError):
            c.fold_steps(low, op)

    @pytest.mark.parametrize(
        "amount, coef_shape, grid, match",
        [
            (8, (1, 1, 4, 2), (2, 8), "does not cover"),
            (8, (1, 1, 8, 4), (4, 8), "does not fit"),  # 4 sources, fewer than one set of 8 terms
            (8, (1, 1, 3, 4), (4, 8), "does not fit"),  # 4 sources, 3 terms
        ],
    )
    def test_typed_errors(self, amount, coef_shape, grid, match):
        c = ctx(slots=32, levels=2)
        op = BlockCirculant([amount], np.ones(coef_shape), grid)
        with pytest.raises(ValueError, match=match):
            c.fold_steps(c.encrypt(np.ones((4, 32))), op)


class TestBlockCirculant:
    """The operator ``fold_steps`` applies, on ``TestFoldSteps``'s steps."""

    N1, N2, T = TestFoldSteps.N1, TestFoldSteps.N2, TestFoldSteps.T

    def test_gather_equals_the_per_step_scatter(self):
        coef = TestFoldSteps().coef()
        V = coef.shape[1]
        # block b of a row reads source block b + a / n2 in step a: scatter each step's coefficients
        want = np.zeros((V, self.N1, self.N1, self.T))  # (row, block, source block, term)
        b = np.arange(self.N1)
        for a, c in zip(np.array(TestFoldSteps.AMOUNTS) // self.N2, coef):
            want[:, b, (b + a) % self.N1] += c.swapaxes(-1, -2)
        op = BlockCirculant(TestFoldSteps.AMOUNTS, coef, (self.N1, self.N2))
        got = op.matrix.reshape(V, self.N1, self.T, self.N1)  # (row, block, term, source block)
        assert np.array_equal(got, want.swapaxes(-1, -2))
        assert not op.matrix.flags.writeable

    @pytest.mark.parametrize("U", [1, 2])
    def test_one_operator_applies_to_many_stacks(self, U):
        """Applied twice, one operator counts, logs and computes what two
        freshly built ones do."""
        coef, grid = TestFoldSteps().coef(), (self.N1, self.N2)
        rng = np.random.default_rng(6)
        srcs = [rng.uniform(-1, 1, (U * self.T, 32)) for _ in range(2)]
        reused, fresh = ctx(slots=32, levels=3, log_ops=True), ctx(slots=32, levels=3, log_ops=True)
        op = BlockCirculant(TestFoldSteps.AMOUNTS, coef, grid, (0,), 0.7)
        got = [reused.fold_steps(reused.encrypt(vals), op) for vals in srcs]
        ops = [BlockCirculant(TestFoldSteps.AMOUNTS, coef, grid, (0,), 0.7) for _ in srcs]
        want = [fresh.fold_steps(fresh.encrypt(vals), new) for vals, new in zip(srcs, ops)]
        for out, ref, new in zip(got, want, ops):
            assert out.rows == U * coef.shape[1]
            np.testing.assert_array_equal(out.slots, ref.slots)
            np.testing.assert_array_equal(op.has_terms, new.has_terms)
        assert reused.counter == fresh.counter and reused.oplog == fresh.oplog

    @pytest.mark.parametrize(
        "amount, coef_shape, grid, match",
        [
            (4, (1, 1, 4, 4), (4, 8), "not a multiple of the block length"),
            (8, (1, 1, 4, 8), (4, 8), "is not"),  # last axis not n1
            (8, (1, 4, 4), (4, 8), "is not"),  # not 4-D
            (8, (2, 1, 4, 4), (4, 8), "is not"),  # one step per amount
        ],
    )
    def test_typed_errors(self, amount, coef_shape, grid, match):
        with pytest.raises(ValueError, match=match):
            BlockCirculant([amount], np.ones(coef_shape), grid)


class TestFusedTaps:
    """``fold_steps`` of an operator with taps against the explicit baby
    steps: one ``rotate`` per (input, tap amount) some pair reads, a
    ``stack`` of the (input, tap) terms and the same operator with the single
    tap 0.  32 slots read as 4 blocks of 8; U = 2 source sets of 3 inputs,
    V = 2 outputs."""

    U, I, V, N1, N2 = 2, 3, 2, 4, 8
    AMOUNTS = [0, 8, -16, 8]
    # a zero tap, and 3 and 35 equal mod 32: one rotation serves both
    TAPS = [0, 3, -1, 35]

    def coef(self):
        rng = np.random.default_rng(8)
        K = len(self.TAPS)
        shape = (len(self.AMOUNTS), self.V, self.I * K, self.N1)
        coef = np.where(rng.uniform(size=shape[:3] + (1,)) < 0.8, rng.uniform(-1, 1, shape), 0.0).reshape(shape[:2] + (self.I, K, self.N1))
        coef[:, :, 1, 2] = 0.0  # input 1 is never read at tap -1: not rotated by 31
        coef[:, :, 0, [1, 3]] = 0.0  # input 0 is never read at 3 = 35 mod 32
        coef[:, :, 2, 1] = 0.0  # input 2 at tap 3 is not read, at tap 35 it is
        coef[:, :, 2, 3, 0] = 0.7
        return coef.reshape(shape)

    def explicit(self, c, vals, coef, vec):
        """The baby steps one rotation at a time, then the giant steps fused."""
        K, N = len(self.TAPS), self.N1 * self.N2
        read = coef.any(axis=(0, 1, 3)).reshape(self.I, K)
        inputs = unstack(c.encrypt(vals))  # u-major
        taps = [a % N for a in self.TAPS]
        rotated = {}
        for a in dict.fromkeys(taps):
            for u in range(self.U):
                for i in range(self.I):
                    if any(read[i, k] for k in range(K) if taps[k] == a):
                        rotated[u, i, a] = c.rotate(inputs[u * self.I + i], a)
        terms = [
            rotated[u, i, taps[k]] if read[i, k] and taps[k] else inputs[u * self.I + i]
            for u in range(self.U)
            for i in range(self.I)
            for k in range(K)
        ]
        op = BlockCirculant(self.AMOUNTS, coef, (self.N1, self.N2), (0,), vec)
        return c.fold_steps(stack(terms), op), op.has_terms

    @pytest.mark.parametrize("vec_kind", ["one", "per-term", "sparse"])
    def test_equals_rotate_stack_and_fold(self, vec_kind):
        rng = np.random.default_rng(9)
        vals = rng.uniform(-1, 1, (self.U * self.I, 32))
        vec = 1.0 if vec_kind == "one" else rng.uniform(-1, 1, (self.I * len(self.TAPS), 1, self.N2))
        if vec_kind == "sparse":  # only positions 1, 4 and 7 of each block
            vec[..., [0, 2, 3, 5, 6]] = 0.0
        coef = self.coef()
        c, ref = ctx(slots=32, levels=3, log_ops=True), ctx(slots=32, levels=3, log_ops=True)
        op = BlockCirculant(self.AMOUNTS, coef, (self.N1, self.N2), self.TAPS, vec)
        with c.layer("taps"):
            out = c.fold_steps(c.encrypt(vals), op)
        with ref.layer("taps"):
            want, want_terms = self.explicit(ref, vals, coef, vec)
        np.testing.assert_allclose(out.slots, want.slots, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(op.has_terms, want_terms)
        assert op.live == (slice(1, 8, 3) if vec_kind == "sparse" else slice(0, self.N2, 1))
        assert out.level == want.level == 2
        assert c.counter == ref.counter and coalesce(c.oplog) == coalesce(ref.oplog)
        assert replay_counts(c.oplog) == c.counter
        # one record per distinct nonzero tap amount (at the input level), counting the inputs read at it
        taps = [(rec["rotation_amount"], rec.get("count", 1)) for rec in c.oplog if rec["op"] == "rot" and rec["level_before"] == 3]
        assert taps == [(3, 4), (31, 4)]

    def test_tap_reads_are_kept_per_tap(self):
        """Each tap's rotation record is worked out once, when the operator
        is built, and counts the inputs some coefficient reads at its amount:
        3 and 35 share one record, and a zero tap has none."""
        coef = self.coef()
        op = BlockCirculant(self.AMOUNTS, coef, (self.N1, self.N2), self.TAPS)
        reads = coef.reshape(coef.shape[:2] + (self.I, len(self.TAPS), self.N1)).any(axis=(0, 1, 4))  # (inputs, taps)
        taps = [(extra["rotation_amount"], n) for name, n, before, _, extra in op.records if name == "rot" and before == 0]
        assert taps == [(3, int((reads[..., 1] | reads[..., 3]).sum())), (31, int(reads[..., 2].sum()))]
        assert op.live == slice(0, self.N2, 1) and op.vec is None

    def test_counts_do_not_depend_on_log_ops(self):
        vals = np.random.default_rng(10).uniform(-1, 1, (self.U * self.I, 32))
        op = BlockCirculant(self.AMOUNTS, self.coef(), (self.N1, self.N2), self.TAPS, 0.5)
        quiet, logged = ctx(slots=32, levels=3, log_ops=False), ctx(slots=32, levels=3, log_ops=True)
        for c in (quiet, logged):
            with c.layer("taps"):
                c.fold_steps(c.encrypt(vals), op)
        assert quiet.oplog == [] and quiet.counter.totals()["rot"] > 0
        assert quiet.counter == logged.counter == replay_counts(logged.oplog)

    @pytest.mark.parametrize(
        "taps, rows, match",
        [
            ([0, 1, 2, 3, 4], 6, "not \\(input, tap\\) pairs"),  # 12 terms, 5 taps
            ([0, 1, 2, 3], 5, "does not fit"),  # 5 rows, 3 inputs per set
            ([0, 1], 9, "does not fit"),  # 9 rows, 6 inputs per set of 2 taps
        ],
    )
    def test_typed_errors(self, taps, rows, match):
        c = ctx(slots=32, levels=2)
        with pytest.raises(ValueError, match=match):
            op = BlockCirculant(self.AMOUNTS, self.coef(), (self.N1, self.N2), taps)
            c.fold_steps(c.encrypt(np.ones((rows, 32))), op)


class TestMixed:
    """``fold_steps`` of a ``Mixed`` against a ``BlockCirculant`` of the
    combined table it stands for: 32 slots read as 4 blocks of 8, U = 2
    sets of M = 3 pieces by G = 2 groups, P parts, V = 2 rows.  A shared mix
    is one output set applied to U source sets of M units; a mix per set is
    U output sets, each reading its own M units of one source set."""

    U, M, G, V, N1, N2 = 2, 3, 2, 2, 4, 8
    AMOUNTS = [0, 8, 32, -16, 8]

    def operands(self, P, shared, seed=18):
        """The per-part operator's coefficients and a mix in which piece 1 of
        set 0 cancels: parts 1 and 2 carry opposite slabs and equal entries."""
        rng = np.random.default_rng(seed + P)
        shape = (len(self.AMOUNTS), self.V, P, self.G, self.N1)
        coef = np.where(rng.uniform(size=shape[:4] + (1,)) < 0.7, rng.uniform(-1, 1, shape), 0.0)
        mix = rng.uniform(-1, 1, (1 if shared else self.U, P, self.M))
        mix[0, :, 2] = 0.0  # piece 2 of set 0 reads nothing
        if P == 3:
            coef[:, :, 2] = -coef[:, :, 1]
            mix[0, :, 1] = [0.0, 0.5, 0.5]
        return coef.reshape(shape[:2] + (P * self.G, self.N1)), mix

    def combined(self, coef, mix):
        """(S, sets*V, sets*M*G, n1): the rows of output set k read its own
        M*G inputs, term (m, g) by sum over p of mix[k, p, m] * coef[s, v, (p, g), b]."""
        S, V, T, n1 = coef.shape
        sets, P, M = mix.shape
        G = T // P
        out = np.zeros((S, sets, V, sets, M, G, n1))
        for s, k, v, m, g, b in np.ndindex(S, sets, V, M, G, n1):
            out[s, k, v, k, m, g, b] = sum(mix[k, p, m] * coef[s, v, p * G + g, b] for p in range(P))
        return out.reshape(S, sets * V, sets * M * G, n1)

    @pytest.mark.parametrize("P", [1, 3])
    @pytest.mark.parametrize("shared", [True, False])
    def test_equals_the_combined_operator(self, P, shared):
        coef, mix = self.operands(P, shared)
        grid = (self.N1, self.N2)
        combined = self.combined(coef, mix)
        if P == 3:  # the cancelling term runs nothing, although its parts are nonzero
            assert not combined[:, : self.V, self.G : 2 * self.G].any() and coef[..., self.G :, :].any()
        vals = np.random.default_rng(20).uniform(-1, 1, (self.U * self.M * self.G, 32))
        c, ref = ctx(slots=32, levels=3, log_ops=True), ctx(slots=32, levels=3, log_ops=True)
        units = self.M * len(mix)
        op = Mixed(self.AMOUNTS, coef, grid, mix, np.arange(units).reshape(len(mix), self.M), units)
        assert op.inputs == units * self.G and op.rows == len(mix) * self.V
        want_op = BlockCirculant(self.AMOUNTS, combined, grid)
        with c.layer("mixed"):
            out = c.fold_steps(c.encrypt(vals), op)
        with ref.layer("mixed"):
            want = ref.fold_steps(ref.encrypt(vals), want_op)
        np.testing.assert_allclose(out.slots, want.slots, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(op.has_terms, want_op.has_terms)
        assert c.counter == ref.counter and c.oplog == ref.oplog
        assert c.counter.totals()["pmult"] > 0 and replay_counts(c.oplog) == c.counter

    def test_a_mix_of_zeros_runs_nothing(self):
        coef, _ = self.operands(1, shared=True)
        op = Mixed(self.AMOUNTS, coef, (self.N1, self.N2), np.zeros((2, 1, self.M)), np.zeros((2, self.M)), 1)
        assert op.histogram == {} and op.records == () and not op.has_terms.any()

    @pytest.mark.parametrize(
        "rows, mix_shape",
        [
            (2, (2, 1, 1, 3)),  # not (sets, parts, pieces), for an operator of 2 rows
            (1, (2, 3, 3)),  # 2 terms are not parts of 3
            (1, (1, 3)),  # not (sets, parts, pieces)
        ],
    )
    def test_typed_errors(self, rows, mix_shape):
        with pytest.raises(ValueError, match="does not fit"):
            Mixed([0], np.ones((1, rows, 2, 4)), (4, 8), np.ones(mix_shape), np.zeros((mix_shape[0], mix_shape[-1])), 1)

    @pytest.mark.parametrize("reads, units", [(np.zeros((2, 2)), 1), (np.zeros((1, 3)), 1), (np.full((2, 3), 2), 2), (np.full((2, 3), -1), 2)])
    def test_reads_must_fit(self, reads, units):
        """One read per (output set, piece), each a unit of the source."""
        with pytest.raises(ValueError, match="do not fit"):
            Mixed([0], np.ones((1, 1, 2, 4)), (4, 8), np.ones((2, 1, 3)), reads, units)

    @pytest.mark.parametrize("chunk_bytes", [1, 1 << 20])
    def test_chunks_of_output_sets_change_nothing(self, monkeypatch, chunk_bytes):
        """Output sets gathered and mixed one at a time or all at once: the
        same slots, counters and records."""
        coef, mix = self.operands(3, shared=False)
        vals = np.random.default_rng(21).uniform(-1, 1, (self.U * self.M * self.G, 32))
        reads = np.arange(self.U * self.M)[::-1].reshape(self.U, self.M)  # units read out of order
        runs = []
        for size in (chunk_bytes, hesim._CHUNK_BYTES):
            monkeypatch.setattr(hesim, "_CHUNK_BYTES", size)
            c = ctx(slots=32, levels=3, log_ops=True)
            op = Mixed(self.AMOUNTS, coef, (self.N1, self.N2), mix, reads, self.U * self.M)
            out = c.fold_steps(c.encrypt(vals), op)
            runs.append((out.slots, op.has_terms, c.counter, c.oplog))
        (got, got_terms, counter, log), (want, want_terms, want_counter, want_log) = runs
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_terms, want_terms)
        assert counter == want_counter and log == want_log


def per_ciphertext_diagonals(c, src, shifts, tables, vec, grid) -> list:
    """The schedule a ``Diagonals`` stands for, one ciphertext at a time.

    Per distinct amount mod slot_count, in first-appearance order: rotate
    once each input some term of the amount reads, PMult each (term, row)
    whose coefficients are not all zero by its slot plaintext, Add the
    products of each row, and Add that partial into the row's running sum.
    Returns the running sums, None for a row without terms.
    """
    N, (n1, n2) = c.slot_count, grid
    C, V = tables[0].shape[1:]
    U = src.rows // C
    srcs = unstack(src)
    vec = np.broadcast_to(vec, (len(shifts), C, n1))
    sums = [None] * (U * V)
    for a in dict.fromkeys(s % N for s in shifts):
        at = [i for i, s in enumerate(shifts) if s % N == a]
        coef = {i: np.broadcast_to(tables[i], (n2, C, V)) for i in at}
        read = [any(coef[i][:, ci].any() for i in at) for ci in range(C)]
        rotated = {(u, ci): c.rotate(srcs[u * C + ci], a) for u in range(U) for ci in range(C) if read[ci]}
        products = {}
        for u in range(U):
            for v in range(V):
                for i in at:
                    for ci in range(C):
                        if coef[i][:, ci, v].any():
                            pt = np.zeros(N)
                            pt[: n1 * n2] = np.outer(vec[i, ci], coef[i][:, ci, v]).ravel()
                            products.setdefault(u * V + v, []).append(c.pmult(rotated[u, ci], pt))
        partials = {r: functools.reduce(c.add, terms) for r, terms in products.items()}
        for r, ct in partials.items():
            sums[r] = ct if sums[r] is None else c.add(sums[r], ct)
    return sums


class TestDiagonals:
    """``fold_steps`` of a ``Diagonals`` against the per-ciphertext diagonal
    method: 32 slots, a grid of 3 frames by 8 columns (8 slots past it),
    U = 2 source sets of C = 3 inputs, V = 3 rows.  Each shift has one
    (inputs, rows) table, the same in every column, as a temporal conv's
    taps do; coefficients per joint are the ``MixedDiagonals`` of a spatial
    conv (``TestMixedDiagonals``)."""

    U, C, V, N1, N2 = 2, 3, 3, 3, 8
    # 0; 1 and 33 equal mod 32; a whole frame; reads past the grid and past
    # slot 31; a negative shift that wraps below slot 0
    SHIFTS = [0, 1, -2, 33, 8, 12, -9]

    def tables(self, seed=11):
        """The (shifts, inputs, rows) coefficients."""
        rng = np.random.default_rng(seed)
        out = []
        for _ in self.SHIFTS:
            t = np.where(rng.uniform(size=(1, self.C, 1)) < 0.5, rng.uniform(-1, 1, (1, self.C, self.V)), 0.0)
            t[..., 0] = 0.0  # row 0 has no term
            out.append(t)
        out[1][0, 1, 1] = 0.6  # shift 1 at the last column reads the next frame's column 0
        out[2][0, 2, 2] = -0.3  # shift -2 at column 0 reads the previous frame
        out[4][0, 0] = 0.0  # input 0 is never read at 8: not rotated by it
        out[4][0, 1:, 1] = [0.2, -0.5]
        out[3][0, 2, 2] = 0.0  # row 2 at 33 = 1 mod 32 reads only through shift 1
        return np.concatenate(out)

    def run(self, c, vals, tables, vec):
        op = Diagonals(self.SHIFTS, tables, (self.N1, self.N2), 32, vec)
        with c.layer("diag"):
            return op, c.fold_steps(c.encrypt(vals), op)

    @pytest.mark.parametrize("vec_kind", ["one", "per-term", "strided"])
    def test_equals_the_per_ciphertext_schedule(self, vec_kind):
        rng = np.random.default_rng(12)
        vals = rng.uniform(-1, 1, (self.U * self.C, 32))
        vec = 1.0 if vec_kind == "one" else rng.uniform(-1, 1, (len(self.SHIFTS), self.C, self.N1))
        if vec_kind == "strided":  # frame 1 is zero for every term: only frames 0 and 2 are multiplied
            vec[..., 1] = 0.0
        tables = self.tables()
        c, ref = ctx(slots=32, levels=3, log_ops=True), ctx(slots=32, levels=3, log_ops=True)
        op, out = self.run(c, vals, tables, vec)
        with ref.layer("diag"):
            want = per_ciphertext_diagonals(ref, ref.encrypt(vals), self.SHIFTS, tables[:, None], vec, (self.N1, self.N2))
        assert op.coef.shape == (self.V, len(self.SHIFTS) * self.C)
        assert op.frames == (slice(0, 3, 2) if vec_kind == "strided" else slice(0, 3, 1))
        assert np.tile(op.has_terms, self.U).tolist() == [w is not None for w in want] == [False, True, True] * self.U
        assert out.rows == self.U * self.V and out.level == 2
        for row, w in zip(unstack(out), want):
            np.testing.assert_allclose(row.slots, 0.0 if w is None else w.slots, rtol=0, atol=1e-12)
        assert c.counter == ref.counter and coalesce(c.oplog) == coalesce(ref.oplog)
        assert replay_counts(c.oplog) == c.counter
        # one rotation per distinct nonzero amount, counting the inputs read at it
        rots = [(rec["rotation_amount"], rec.get("count", 1)) for rec in c.oplog if rec["op"] == "rot"]
        assert rots == [(1, 4), (30, 4), (8, 4), (12, 4), (23, 6)]

    def test_a_zero_operator_gives_zero_rows(self):
        c = ctx(slots=32, levels=2, log_ops=True)
        op = Diagonals([3], np.zeros((1, 2, 4)), (4, 8), 32)
        out = c.fold_steps(c.encrypt(np.ones((2, 32))), op)
        assert not op.has_terms.any() and not out.slots.any() and out.rows == 4
        assert c.oplog == [rec for rec in c.oplog if rec["op"] == "encrypt"] and op.histogram == {}

    def test_quantize_rounds_the_fused_sum_once(self):
        q, exact = ctx(slots=32, levels=3, quantize=True), ctx(slots=32, levels=3)
        src = q.encrypt(np.random.default_rng(13).uniform(-1, 1, (self.U * self.C, 32)))
        op = Diagonals(self.SHIFTS, self.tables(), (self.N1, self.N2), 32, 0.3)
        got = q.fold_steps(src, op).slots
        want = exact.fold_steps(exact.encrypt(src.slots), op).slots
        np.testing.assert_array_equal(got, np.round(want * 2.0**33) / 2.0**33)

    def test_counts_do_not_depend_on_log_ops(self):
        vals = np.random.default_rng(14).uniform(-1, 1, (self.U * self.C, 32))
        quiet, logged = ctx(slots=32, levels=3, log_ops=False), ctx(slots=32, levels=3, log_ops=True)
        for c in (quiet, logged):
            self.run(c, vals, self.tables(), 0.5)
        assert quiet.oplog == [] and quiet.counter.totals()["rot"] > 0
        assert quiet.counter == logged.counter == replay_counts(logged.oplog)

    @pytest.mark.parametrize("chunk_bytes", [1, 1 << 20])
    def test_chunks_of_columns_change_nothing(self, monkeypatch, chunk_bytes):
        vals = np.random.default_rng(15).uniform(-1, 1, (self.U * self.C, 32))
        want = self.run(ctx(slots=32, levels=3), vals, self.tables(), 0.5)[1]
        monkeypatch.setattr(hesim, "_CHUNK_BYTES", chunk_bytes)
        got = self.run(ctx(slots=32, levels=3), vals, self.tables(), 0.5)[1]
        np.testing.assert_allclose(got.slots, want.slots, rtol=0, atol=1e-12)

    def test_random_geometries_equal_the_per_ciphertext_schedule(self):
        """Drawn slot counts, grids up to one frame of every slot, shifts
        up to two turns either way, U and vec, some frames of it zero."""
        rng = np.random.default_rng(16)
        for _ in range(40):
            N = int(2 ** rng.integers(2, 7))
            n2 = int(rng.integers(1, N + 1))
            n1 = int(rng.integers(1, N // n2 + 1))
            C, V, U, S = (int(n) for n in rng.integers(1, [4, 4, 3, 5]))
            shifts = rng.integers(-2 * N, 2 * N, S).tolist()
            tables = [np.where(rng.uniform(size=(1, C, V)) < 0.4, rng.uniform(-1, 1, (1, C, V)), 0.0) for _ in range(S)]
            vec = 1.0 if rng.uniform() < 0.5 else rng.uniform(-1, 1, (S, C, n1))
            if np.ndim(vec):  # frames zero for every term are left out of the product
                vec[..., rng.uniform(size=n1) < 0.3] = 0.0
            vals = rng.uniform(-1, 1, (U * C, N))
            c, ref = ctx(slots=N, levels=3, log_ops=True), ctx(slots=N, levels=3, log_ops=True)
            op = Diagonals(shifts, np.concatenate(tables), (n1, n2), N, vec)
            out = c.fold_steps(c.encrypt(vals), op)
            want = per_ciphertext_diagonals(ref, ref.encrypt(vals), shifts, tables, vec, (n1, n2))
            assert np.tile(op.has_terms, U).tolist() == [w is not None for w in want]
            for row, w in zip(unstack(out), want):
                np.testing.assert_allclose(row.slots, 0.0 if w is None else w.slots, rtol=0, atol=1e-12)
            assert c.counter == ref.counter and coalesce(c.oplog) == coalesce(ref.oplog)

    @pytest.mark.parametrize(
        "shifts, shapes, grid, slots, match",
        [
            ([0], (1, 2, 3), (8, 8), 32, "exceeds slot count"),
            ([0], (2, 3), (4, 8), 32, "is not"),  # no shift axis
            ([0], (1, 8, 2, 3), (4, 8), 32, "is not"),  # one coefficient per column
            ([0, 1], (1, 2, 3), (4, 8), 32, "tables for 2 shifts"),
            ([], (0, 2, 3), (4, 8), 32, "tables for 0 shifts"),
            ([0], (1, 2, 3), (4, 8), 64, "does not cover"),  # built for other slots
            ([0], (1, 3, 3), (4, 8), 32, "does not fit"),  # 4 sources, 3 inputs
        ],
    )
    def test_typed_errors(self, shifts, shapes, grid, slots, match):
        """``shapes`` is the shape of the coefficients."""
        c = ctx(slots=32, levels=2)
        with pytest.raises(ValueError, match=match):
            c.fold_steps(c.encrypt(np.ones((4, 32))), Diagonals(shifts, np.ones(shapes), grid, slots))


def dense_diagonals(dense, offsets) -> list:
    """Per diagonal d the (J, C_in, C_out) table of the dense merged entries
    [c, o, k, k + d] over rows k, zero where column k + d lies past either
    end of the row: the coefficients the diagonal method multiplies."""
    C, V, J, _ = dense.shape
    tables = []
    for d in offsets:
        table = np.zeros((J, C, V))
        for k in range(max(0, -d), min(J, J - d)):
            table[k] = dense[:, :, k, k + d]
        tables.append(table)
    return tables


class TestMixedDiagonals:
    """``fold_steps`` of a ``MixedDiagonals`` against ``per_ciphertext_diagonals``
    of the per-diagonal tables of the dense merged matrices: the diagonal
    method of a row-major spatial conv with the merged coefficients, one
    ciphertext at a time."""

    def run(self, merged, T, N, U=1, log_ops=True, seed=0):
        """Counters, coalesced op log, rows with terms and slots against the
        schedule; returns the operator and the counts of its layer."""
        J, C, V = merged.J, merged.c_in, merged.c_out
        offsets = diagonal_offsets(merged.pattern)
        vals = np.random.default_rng(seed).uniform(-1, 1, (U * C, N))
        c, ref = ctx(slots=N, levels=2, log_ops=log_ops), ctx(slots=N, levels=2, log_ops=True)
        op = MixedDiagonals(merged.weights, merged.parts, offsets, (T, J), N)
        with c.layer("s"):
            out = c.fold_steps(c.encrypt(vals), op)
        # no diagonals: one zero table, so that no product runs
        tables = dense_diagonals(merged.matrices, offsets) or [np.zeros((1, C, V))]
        with ref.layer("s"):
            want = per_ciphertext_diagonals(ref, ref.encrypt(vals), offsets or [0], tables, 1.0, (T, J))
        assert out.rows == U * V and out.level == 1
        assert np.tile(op.has_terms, U).tolist() == [w is not None for w in want]
        for row, w in zip(unstack(out), want):
            np.testing.assert_allclose(row.slots, 0.0 if w is None else w.slots, rtol=0, atol=1e-12)
        assert c.counter == ref.counter
        if log_ops:
            assert coalesce(c.oplog) == coalesce(ref.oplog) and replay_counts(c.oplog) == c.counter
        else:
            assert c.oplog == []
        return op, c.counter.layer("s")

    def test_random_graphs_equal_the_per_ciphertext_schedule(self):
        """Drawn joints, frames, slot counts (some under 2J - 1, where two
        diagonals share a rotation amount), partitions, sparse weights,
        source sets and ``log_ops``."""
        rng = np.random.default_rng(40)
        for _ in range(30):
            J, T, P, C, V = (int(n) for n in rng.integers(1, [8, 4, 4, 4, 4]))
            N = int(2 ** rng.integers(int(np.ceil(np.log2(T * J))), int(np.ceil(np.log2(T * J))) + 2))
            parts = np.where(rng.uniform(size=(P, J, J)) < 0.4, rng.uniform(0.1, 1, (P, J, J)), 0.0)
            weights = np.where(rng.uniform(size=(P, C, V)) < 0.6, rng.normal(size=(P, C, V)), 0.0)
            self.run(MergedSpatialMatrix(weights, parts, np.zeros(V)), T, N, int(rng.integers(1, 3)), bool(rng.integers(2)), int(rng.integers(99)))

    def cancelling(self, P, cancel=True):
        """A layer on 5 joints whose diagonal 4 (entry (0, 4) alone) has, for
        P = 3, parts 1 and 2 equal there and opposite weight slabs: the merged
        entry is exactly zero for every channel pair although both parts are
        not.  Without ``cancel`` part 2 is half as large there."""
        rng = np.random.default_rng(41)
        J, C, V = 5, 3, 4
        parts = np.zeros((P, J, J))
        parts[0] = np.where(rng.uniform(size=(J, J)) < 0.5, rng.uniform(0.1, 1, (J, J)), 0.0) + np.eye(J)
        parts[0, 0, 4] = 0.0
        weights = rng.normal(size=(P, C, V))
        if P == 3:
            parts[1] = np.triu(rng.uniform(0.1, 1, (J, J)), 1)
            parts[2] = np.tril(rng.uniform(0.1, 1, (J, J)), -1)
            parts[1, 0, 4] = 0.5
            parts[2, 0, 4] = 0.5 if cancel else 0.25
            weights[2] = -weights[1]
        return MergedSpatialMatrix(weights, parts, np.zeros(V))

    @pytest.mark.parametrize("P", [1, 3])
    def test_a_partition_sum_that_cancels_is_not_counted(self, P):
        """Two source sets; for P = 3 diagonal 4 runs nothing and is not rotated."""
        merged = self.cancelling(P)
        op, counts = self.run(merged, T=3, N=16, U=2)
        amounts = [rec[4]["rotation_amount"] for rec in op.records if rec[0] == "rot"]
        assert (4 in diagonal_offsets(merged.pattern)) == (P == 3) and 4 not in amounts
        if P == 3:
            assert not merged.matrices[:, :, 0, 4].any() and merged.parts[1:, 0, 4].all()
            _, uncancelled = self.run(self.cancelling(P, cancel=False), T=3, N=16, U=2)
            assert counts["pmult"] < uncancelled["pmult"] and counts["rot"] < uncancelled["rot"]

    def test_a_zero_matrix_gives_zero_rows(self):
        """No diagonals (zero parts), or diagonals whose products are all zero."""
        for parts, weights in ((np.zeros((1, 4, 4)), np.ones((1, 2, 3))), (np.ones((2, 4, 4)), np.zeros((2, 2, 3)))):
            op, counts = self.run(MergedSpatialMatrix(weights, parts, np.zeros(3)), T=2, N=8, U=2)
            assert op.histogram == {} and op.records == () and not op.has_terms.any()

    @pytest.mark.parametrize("log_ops", [False, True])
    def test_from_dense(self, log_ops):
        """J * J one-hot parts, each carrying its own dense weights."""
        rng = np.random.default_rng(42)
        mats = np.where(rng.uniform(size=(3, 2, 6, 6)) < 0.3, rng.normal(size=(3, 2, 6, 6)), 0.0)
        op, counts = self.run(MergedSpatialMatrix.from_dense(mats, np.zeros(2)), T=2, N=16, U=2, log_ops=log_ops)
        assert op.mix.shape == (6, int((mats != 0).any(axis=(0, 1)).sum()) * 6)  # a part no entry reads is dropped
        assert counts["rot"] > 0

    @pytest.mark.parametrize("P", [1, 3])
    def test_products_are_the_dense_diagonals(self, P):
        """Input c at (frame t, joint j) reaches row v at joint k of frame t
        by the dense entry [c, v, k, j], through the diagonal j - k, and
        nothing else."""
        rng = np.random.default_rng(P)
        J, C, V, T, N = 5, 3, 4, 2, 16
        parts = [(rng.uniform(size=(J, J)) > 0.5) + np.eye(J) * (p == 0) for p in range(P)]
        merged = merge_spatial(AdjacencySet(parts), rng.normal(size=(P, C, V)), rng.normal(size=V))
        op = MixedDiagonals(merged.weights, merged.parts, diagonal_offsets(merged.pattern), (T, J), N)
        x = np.zeros((C, T, J, C, N))  # source set (c, t, j): input c one-hot at slot t*J + j
        for c, t, j in np.ndindex(C, T, J):
            x[c, t, j, c, t * J + j] = 1.0
        out = op.apply(x.reshape(C * T * J, C, N)).reshape(C, T, J, V, N)
        for c, t, j in np.ndindex(C, T, J):
            want = np.zeros((V, N))
            want[:, t * J : (t + 1) * J] = merged.matrices[c, :, :, j]
            np.testing.assert_allclose(out[c, t, j], want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "weights, parts, grid, slots, match",
        [
            ((1, 2, 3), (1, 4, 4), (8, 4), 16, "exceeds slot count"),
            ((1, 2, 3), (2, 4, 4), (2, 4), 16, "are not"),  # a weight slab per part
            ((2, 3), (1, 4, 4), (2, 4), 16, "are not"),
            ((1, 2, 3), (1, 4, 4), (2, 5), 16, "are not"),  # parts of 4 joints on rows of 5
            ((1, 2, 3), (1, 4, 4), (2, 4), 32, "does not cover"),  # built for other slots
            ((1, 3, 3), (1, 4, 4), (2, 4), 16, "does not fit"),  # 4 sources, 3 inputs
        ],
    )
    def test_typed_errors(self, weights, parts, grid, slots, match):
        c = ctx(slots=16, levels=2)
        with pytest.raises(ValueError, match=match):
            c.fold_steps(c.encrypt(np.ones((4, 16))), MixedDiagonals(np.ones(weights), np.ones(parts), [0, 1], grid, slots))


def poly_chain(c, x, coeffs):
    """The per-op chain ``SimContext.poly`` replaces: CMult, PMult a, PMult
    b, mod-switch, Add, encrypt c, mod-switch, Add."""
    a, b, k = map(float, coeffs)
    poly = c.add(c.pmult(c.cmult(x, x), a), c.mod_switch(c.pmult(x, b), x.level - 2))
    const = c.mod_switch(c.encrypt(np.broadcast_to(k, (x.rows, c.slot_count))), poly.level)
    return c.add(poly, const)


def rotate_sum_loop(c, x, amounts):
    """The loop ``SimContext.rotate_sum`` replaces."""
    acc = x
    for k in amounts:
        acc = c.add(acc, c.rotate(acc, k))
    return acc


def bias_chain(c, src, op, bias):
    """The chain ``fold_steps(bias=)`` replaces: the fold, its rows without
    terms put as encrypted zeros, then a bias that is not all zero added."""
    acc = c.fold_steps(src, op)
    has_terms = np.tile(op.has_terms, src.rows // op.inputs)
    if not has_terms.all():
        empty = np.flatnonzero(~has_terms)
        acc = put(acc, empty, c.mod_switch(c.encrypt(np.zeros((len(empty), c.slot_count))), acc.level))
    if np.any(np.abs(bias) > 0):
        acc = c.add(acc, c.mod_switch(c.encrypt(bias), acc.level))
    return acc


class TestEpilogues:
    """``poly``, ``rotate_sum`` and ``fold_steps(bias=)`` against the per-op
    chains they replace: bit-identical slots, equal counters and the same
    op log, record for record, in row chunks smaller than the input."""

    N = 16

    @pytest.fixture(autouse=True)
    def two_rows_per_chunk(self, monkeypatch):
        monkeypatch.setattr(hesim, "_CHUNK_BYTES", 2 * self.N * 8)

    def values(self, kind, seed=0):
        rng = np.random.default_rng(seed)
        if kind == "single":
            return rng.uniform(-2, 2, self.N)
        if kind == "stack":
            return rng.uniform(-2, 2, (5, self.N))
        return np.broadcast_to(rng.uniform(-2, 2, (2, self.N)), (3, 2, self.N))  # 6 rows, 2 distinct

    def both(self, fn, want_fn, quantize, slots=N):
        """``fn`` and ``want_fn`` each run in a fresh logged context; their
        results must agree bit for bit, with equal counters and op logs."""
        runs = []
        for f in (fn, want_fn):
            c = ctx(slots=slots, quantize=quantize, log_ops=True)
            with c.layer("e"):
                runs.append((f(c), c))
        (got, c), (want, ref) = runs
        assert got.slots.shape == want.slots.shape and got.level == want.level
        np.testing.assert_array_equal(got.slots, want.slots)
        assert np.ascontiguousarray(got.slots).tobytes() == np.ascontiguousarray(want.slots).tobytes()
        assert c.counter == ref.counter and c.oplog == ref.oplog
        assert replay_counts(c.oplog) == c.counter
        return got, c

    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("kind", ["single", "stack", "broadcast"])
    def test_poly_equals_the_chain(self, kind, quantize):
        vals, coeffs = self.values(kind), (0.3, -1.7, 0.1)
        got, c = self.both(lambda c: c.poly(c.encrypt(vals), coeffs), lambda c: poly_chain(c, c.encrypt(vals), coeffs), quantize)
        rows = 1 if vals.ndim == 1 else vals.size // self.N
        assert got.level == 3 and c.counter.layer("e") == {"rot": 0, "pmult": 2 * rows, "cmult": rows, "add": 2 * rows, "rescale": 3 * rows}

    HALF = [8, 4, 2, 1]

    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("kind", ["single", "stack", "broadcast"])
    @pytest.mark.parametrize(
        "amounts",
        [
            [8, 4, 2, 1],  # a halving tree down to one slot: one value per row
            [8, 4],  # a halving tree that stops at a period of 4
            [3, -2, 0, 16, 5],  # a negative amount and two of 0 mod N
            [8, 0, -4, 1],  # -4 is half the period 8 left by the first step
        ],
        ids=["to-one-slot", "to-period-4", "negative-and-zero", "zero-in-halving"],
    )
    def test_rotate_sum_equals_the_loop(self, amounts, kind, quantize):
        vals = self.values(kind, seed=1)
        got, c = self.both(lambda c: c.rotate_sum(c.encrypt(vals), amounts), lambda c: rotate_sum_loop(c, c.encrypt(vals), amounts), quantize)
        rows = 1 if vals.ndim == 1 else vals.size // self.N
        assert c.counter.layer("e")["add"] == len(amounts) * rows
        assert c.counter.layer("e")["rot"] == sum(k % self.N != 0 for k in amounts) * rows

    def test_rotate_sum_by_nothing_is_the_input(self):
        c = ctx(slots=self.N, log_ops=True)
        x = c.encrypt(self.values("stack"))
        assert c.rotate_sum(x, []) is x and len(c.oplog) == 1

    def operator(self, seed=2):
        """A ``Diagonals`` of one input, two shifts and three rows, row 0 without terms."""
        rng = np.random.default_rng(seed)
        coef = rng.uniform(-1, 1, (2, 1, 3))
        coef[:, :, 0] = 0.0
        return Diagonals([0, 3], coef, (4, 4), self.N, rng.uniform(-1, 1, (2, 1, 4)))

    def bias(self, kind, rows, seed=3):
        rng = np.random.default_rng(seed)
        if kind == "per-row":
            return rng.uniform(-1, 1, (rows, self.N - 3))  # the tail pads with zeros
        if kind == "broadcast":
            return np.broadcast_to(rng.uniform(-1, 1, (3, self.N)), (rows // 3, 3, self.N))
        if kind == "per-channel":  # one value per row over the first N - 4 slots, as row-major biases
            return np.broadcast_to(rng.uniform(-1, 1, (3, 1)), (rows // 3, 3, self.N - 4))
        return np.zeros((rows, self.N))

    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("bias_kind", ["per-row", "broadcast", "per-channel", "zero"])
    @pytest.mark.parametrize("kind", ["single", "stack", "broadcast"])
    def test_fold_with_bias_equals_the_chain(self, kind, bias_kind, quantize):
        vals, op = self.values(kind, seed=4), self.operator()
        rows = 3 * (1 if vals.ndim == 1 else vals.size // self.N)
        bias = self.bias(bias_kind, rows)
        got, c = self.both(lambda c: c.fold_steps(c.encrypt(vals), op, bias), lambda c: bias_chain(c, c.encrypt(vals), op, bias), quantize)
        want = ctx(slots=self.N, quantize=quantize).encrypt(bias).slots.reshape(rows, self.N)
        # the rows without terms hold the bias, not zero
        np.testing.assert_array_equal(got.slots[::3], want[::3])
        assert (bias_kind == "zero") == (not got.slots[::3].any())

    def test_fold_with_bias_on_a_block_circulant(self):
        """A ``BlockCirculant`` whose rows 0 and 3 have no terms, with a bias
        broadcast over its two source sets."""
        vals = np.random.default_rng(5).uniform(-1, 1, (8, 32))
        op = BlockCirculant(TestFoldSteps.AMOUNTS, TestFoldSteps().coef(), (4, 8), (0,), 0.5)
        bias = np.broadcast_to(np.random.default_rng(6).uniform(-1, 1, (3, 32)), (2, 3, 32))
        got, _ = self.both(lambda c: c.fold_steps(c.encrypt(vals), op, bias), lambda c: bias_chain(c, c.encrypt(vals), op, bias), False, 32)
        np.testing.assert_array_equal(got.slots[[0, 3]], bias.reshape(6, 32)[[0, 3]])

    def test_typed_errors(self):
        c = ctx(slots=self.N, levels=3, log_ops=True)
        x = c.encrypt(self.values("stack"))
        low = c.mod_switch(x, 1)
        del c.oplog[:]
        with pytest.raises(LevelError, match="level >= 2"):
            c.poly(low, (1.0, 2.0, 3.0))
        for coeffs in ((1.0, 2.0), (1.0, 2.0, 3.0, 4.0)):
            with pytest.raises(ValueError, match=f"got {len(coeffs)}"):
                c.poly(x, coeffs)
        op = self.operator()
        for shape, shown in (((14, 16), "(14, 16)"), ((15, 17), "(15, 17)"), ((16,), "(1, 16)")):
            with pytest.raises(ValueError, match=re.escape(f"bias rows of shape {shown} do not fit the output of shape (15, 16)")):
                c.fold_steps(x, op, np.ones(shape))
        assert c.oplog == [] and c.counter.totals() == dict.fromkeys(hesim.OPS, 0)


@settings(max_examples=50, deadline=None)
@given(
    vals=st.lists(st.floats(-100, 100), min_size=1, max_size=8),
    k=st.integers(-10, 10),
    scalar=st.floats(-5, 5),
)
def test_homomorphism_matches_plain_slot_ops(vals, k, scalar):
    c = ctx(slots=8, levels=4)
    plain = np.zeros(8)
    plain[: len(vals)] = vals
    x = c.encrypt(vals)
    np.testing.assert_array_equal(c.decrypt(c.rotate(x, k)).tolist(), np.roll(plain, -(k % 8)))
    np.testing.assert_allclose(c.decrypt(c.pmult(x, scalar)), plain * scalar, rtol=0, atol=0)
    np.testing.assert_array_equal(c.decrypt(c.add(x, x)), plain * 2)
    np.testing.assert_array_equal(c.decrypt(c.cmult(x, x)), plain * plain)


def test_quantized_error_within_depth_bound():
    c = ctx(slots=4, levels=4, quantize=True)
    rng = np.random.default_rng(0)
    v = rng.uniform(-1, 1, 4)
    w = rng.uniform(-1, 1, 4)
    out = c.pmult(c.pmult(c.encrypt(v), w), w)
    assert np.max(np.abs(out.slots - v * w * w)) <= 2 * 2 ** (1 - 33)


def test_level_ledger_tracks_deepest_path():
    c = ctx(levels=6)
    x = c.encrypt([1, 2])
    y = c.pmult(c.pmult(x, 2), 3)           # two multiplications
    z = c.cmult(y, c.mod_switch(x, y.level))  # third
    assert c.max_level - z.level == 3


class TestCounterAndLog:
    def test_per_layer_totals_consistent(self):
        c = ctx()
        with c.layer("a"):
            x = c.encrypt([1, 2])
            x = c.pmult(x, 2)
        with c.layer("b"):
            c.add(x, x)
            c.rotate(x, 1)
        totals = c.counter.totals()
        by_layer = [c.counter.layer("a"), c.counter.layer("b")]
        for op in totals:
            assert totals[op] == sum(lc[op] for lc in by_layer)

    def test_replay_reproduces_counter_exactly(self):
        c = ctx(levels=4)
        with c.layer("work"):
            x = c.encrypt([1, 2, 3])
            y = c.pmult(x, [1, 0, 1])
            z = c.cmult(y, c.mod_switch(x, y.level))
            z = c.add(z, z)
            c.rotate(z, 2)
            c.rotate(z, 0)  # free, must not appear in the log
        assert replay_counts(c.oplog) == c.counter

    def test_oplog_record_schema(self):
        c = ctx()
        x = c.encrypt([1])
        c.rotate(x, 3)
        records = json.loads(json.dumps(c.oplog))  # plain JSON values
        assert {r["op"] for r in records} == {"encrypt", "rot"}
        rot = next(r for r in records if r["op"] == "rot")
        assert set(rot) == {"op", "layer", "level_before", "level_after", "rotation_amount"}
        assert rot["rotation_amount"] == 3

    def test_an_empty_stack_replays_as_zero(self):
        """An op on a stack of no rows counts 0 and logs ``count`` 0, so the
        replay equals the counter."""
        c = ctx(slots=8, levels=3, log_ops=True)
        x = c.encrypt(np.zeros((0, 8)))
        c.add(x, x)
        assert c.counter.totals()["add"] == 0
        assert [rec["count"] for rec in c.oplog] == [0, 0]
        assert replay_counts(c.oplog) == c.counter


class TestScaledColumns:
    """``BlockCirculant`` and ``Diagonals`` multiply the gathered terms by
    their factors only at the columns where some factor is not 1; the slots
    equal those of multiplying every column, bit for bit."""

    @staticmethod
    def every_column(vec):
        return np.arange(vec.shape[-1]), np.ascontiguousarray(vec)

    def check(self, monkeypatch, make_op, rows, slots, columns):
        """Apply the operator to random rows both ways; the built one must
        scale some of its ``columns`` but not all."""
        vals = np.random.default_rng(31).uniform(-1, 1, (rows, slots))
        op = make_op()
        assert op.vec is not None and 0 < len(op.scaled) < columns
        with monkeypatch.context() as m:
            m.setattr(hesim, "_scaled_columns", self.every_column)
            every = make_op()

        def fold(o):
            c = ctx(slots=slots, levels=2)
            return c.fold_steps(c.encrypt(vals), o).slots

        assert np.array_equal(fold(op), fold(every))

    def test_temporal_tap_mask_on_a_block_circulant(self, monkeypatch):
        """AMA: 3 taps, 2 samples of 8 frames per block, stride 2: the
        boundary frames of each sample carry a 0, the others all 1."""
        G, B, T, n1 = 2, 2, 8, 4
        eps = np.array([-1, 0, 1])
        masks = _temporal_tap_mask(B * T, B, T, 1, T, 2, eps).astype(float)
        coef = np.random.default_rng(32).uniform(-1, 1, (2, G, G * len(eps), n1))
        vec = np.tile(masks[:, None, :], (G, 1, 1))
        self.check(monkeypatch, lambda: BlockCirculant([0, B * T], coef, (n1, B * T), eps, vec), 3 * G, n1 * B * T, B * T // 2)

    def test_temporal_tap_mask_on_diagonals(self, monkeypatch):
        """Row-major: 3 taps over 8 frames of 4 joints, zero at the first and last frame."""
        C, V, T, J = 3, 2, 8, 4
        eps = np.array([-1, 0, 1])
        masks = _temporal_tap_mask(T, 1, T, 1, T, 1, eps).astype(float)
        coef = np.random.default_rng(33).uniform(-1, 1, (len(eps), C, V))
        self.check(monkeypatch, lambda: Diagonals(eps * J, coef, (T, J), 32, masks[:, None, :]), 2 * C, 32, T)

    def test_ama_head_anchors(self, monkeypatch):
        """The AMA head's anchors, the first frame of each of 2 samples, one
        of them weighted 0.5 instead of 1."""
        classes, G, cap, B, T = 3, 2, 4, 2, 4
        coef = np.random.default_rng(34).uniform(-1, 1, (1, classes, G, cap))
        anchors = np.zeros(B * T)
        anchors[np.arange(B) * T] = [1.0, 0.5]
        self.check(monkeypatch, lambda: BlockCirculant([0], coef, (cap, B * T), vec=anchors), 2 * G, cap * B * T, B)

    def test_rowmajor_head_weights(self, monkeypatch):
        """The row-major head's weights as per-class factors: classes 0 and
        2 weigh every channel by 1, the others by 0 or other values."""
        C, classes = 4, 5
        weights = np.random.default_rng(35).uniform(-1, 1, (C, classes))
        weights[:, [0, 2]] = 1.0
        weights[1, 3] = 0.0
        self.check(monkeypatch, lambda: Diagonals([0], np.ones((1, C, 1)), (classes, 1), 8, weights[None]), 2 * C, 8, classes)


class TestAllocatorPolicy:
    """The first ``SimContext`` of a process makes glibc keep freed memory
    in the heap, unless the environment tunes malloc itself."""

    @pytest.mark.parametrize("var", ["GLIBC_TUNABLES", "MALLOC_TOP_PAD_"])
    def test_defers_to_the_environment(self, monkeypatch, var):
        monkeypatch.setenv(var, "0")
        assert hesim._keep_freed_memory.__wrapped__() is False

    def test_steady_state_runs_fault_no_pages(self):
        """After two warm-up runs of the acceptance model in both packings,
        three more fault almost no page in: every buffer reuses freed heap
        memory.  Without the policy they fault about 400 (AMA) and 1,400
        (row-major) pages each."""
        resource = pytest.importorskip("resource")
        SimContext(8, 1)  # sets the policy, unless an earlier context did
        if not hesim._keep_freed_memory():
            pytest.skip("libc has no mallopt, or the environment tunes malloc")
        spec = acceptance_stgcn3()
        x = GraphTensor.random(spec.input_dims, seed=43)

        def runs(n):
            for _ in range(n):
                for fmt in (AMA, ROWMAJOR):
                    run_model(spec, x, fmt, slot_count=1024)

        runs(2)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        runs(3)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 64
