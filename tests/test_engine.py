import math
import tracemalloc

import numpy as np
import pytest

from hegcn import costmodel, engine, hesim
from hegcn.adjacency import AdjacencySet, MergedSpatialMatrix, decompose, diagonal_offsets, merge_spatial
from hegcn.engine import (
    DepthBudgetError,
    EncryptedFeatureMap,
    ama_spatial,
    dense_matmul_case,
    fully_connected,
    global_avg_pool,
    plaintext_reference,
    poly_activation,
    rowmajor_spatial,
    run_model,
    temporal_conv,
)
from hegcn.hesim import LevelError, SimContext, replay_counts
from hegcn.model import (
    Activation,
    FullyConnected,
    GlobalAvgPool,
    ModelSpec,
    SpatialConv,
    TemporalConv,
    random_stgcn,
)
from hegcn.packing import AMA, ROWMAJOR, GraphTensor, ama_pack, ama_unpack, rowmajor_pack, rowmajor_unpack


def ring_adjacency(J):
    return AdjacencySet.from_edges(J, [[(i, (i + 1) % J) for i in range(J)]])


def only_stacks_inputs(monkeypatch, fm) -> list:
    """Make ``SimContext.rotate`` raise and ``SimContext.fold_steps``
    accept only the stack of ``fm``: a layer folds its input stack itself,
    and the input rotations happen inside the fold.  Returns the operators
    folded, in order."""
    real_fold, folded = SimContext.fold_steps, []

    def input_only(ctx, src, op, bias=None):
        assert src is fm.ct, "folded a stack that is not the layer input"
        folded.append(op)
        return real_fold(ctx, src, op, bias)

    def forbidden(*args):
        raise AssertionError("SimContext.rotate called for a tap, diagonal or row")

    monkeypatch.setattr(SimContext, "rotate", forbidden)
    monkeypatch.setattr(SimContext, "fold_steps", input_only)
    return folded


def take(ct, index):
    """The rows ``index`` of a stack as one stack (bookkeeping, nothing counted or logged)."""
    return ct.ctx._new_ct(ct.slots.reshape(ct.rows, -1)[index], ct.level)


def packed(x, ctx, fmt):
    if fmt == AMA:
        ct, layout = ama_pack(x, ctx)
    else:
        ct, layout = rowmajor_pack(x, ctx)
    return EncryptedFeatureMap(ct, layout)


def unpack(fm, fmt):
    if fmt == AMA:
        return ama_unpack(fm.ct, fm.layout).data
    return rowmajor_unpack(fm.ct, fm.layout).data


class TestSpatial:
    def test_reference_sparse_matrix_both_formats(self):
        # the 4x4 two-piece example: decryption must equal the dense product
        M = np.zeros((4, 4))
        for i, j in [(1, 1), (1, 3), (1, 4), (2, 3), (3, 2), (4, 1), (4, 2), (4, 4)]:
            M[i - 1, j - 1] = (10 * i + j) / 50.0
        merged = MergedSpatialMatrix.from_dense(M[None, None], np.zeros(1))
        x = GraphTensor.random((1, 1, 4, 4), seed=2)
        oracle = merged.apply(x.data)
        for fmt, op in ((AMA, ama_spatial), (ROWMAJOR, rowmajor_spatial)):
            ctx = SimContext(16, max_level=2)
            out = op(packed(x, ctx, fmt), merged)
            np.testing.assert_allclose(unpack(out, fmt), oracle, atol=1e-12)
            assert out.level == 1

    def test_identity_matrix_preserves_values(self):
        merged = MergedSpatialMatrix.from_dense(np.eye(4)[None, None], np.zeros(1))
        x = GraphTensor.random((1, 1, 4, 4), seed=3)
        for fmt, op in ((AMA, ama_spatial), (ROWMAJOR, rowmajor_spatial)):
            ctx = SimContext(16, max_level=1)
            out = op(packed(x, ctx, fmt), merged)
            np.testing.assert_allclose(unpack(out, fmt), x.data, atol=1e-12)

    def test_rotations_do_not_depend_on_matrix_density(self):
        # the channel fold is the only rotation source, so a diagonal matrix
        # costs exactly the same rotations as a dense one
        x = GraphTensor.random((1, 2, 4, 4), seed=4)
        counts = {}
        for name, mats in (
            ("diag", np.stack([np.stack([np.eye(4) * (c + o + 1) for o in range(2)]) for c in range(2)])),
            ("dense", np.full((2, 2, 4, 4), 0.7)),
        ):
            ctx = SimContext(32, max_level=1)
            with ctx.layer("m"):
                ama_spatial(packed(x, ctx, AMA), MergedSpatialMatrix.from_dense(mats, np.zeros(2)))
            counts[name] = ctx.counter.layer("m")["rot"]
        assert counts["diag"] == counts["dense"]

    def test_single_channel_diagonal_needs_zero_rotations(self):
        merged = MergedSpatialMatrix.from_dense((np.eye(4) * 0.5)[None, None], np.zeros(1))
        x = GraphTensor.random((1, 1, 4, 4), seed=5)
        ctx = SimContext(8, max_level=1)
        with ctx.layer("m"):
            out = ama_spatial(packed(x, ctx, AMA), merged)
        assert ctx.counter.layer("m")["rot"] == 0
        np.testing.assert_allclose(unpack(out, AMA), 0.5 * x.data, atol=1e-12)

    def test_rowmajor_rotation_count_dense(self):
        # dense J=4 pattern: 2J-2 = 6 counted rotations per input ciphertext
        x = GraphTensor.random((1, 2, 4, 4), seed=6)
        merged = MergedSpatialMatrix.from_dense(np.full((2, 2, 4, 4), 0.3), np.zeros(2))
        ctx = SimContext(16, max_level=1)
        with ctx.layer("m"):
            rowmajor_spatial(packed(x, ctx, ROWMAJOR), merged)
        assert ctx.counter.layer("m")["rot"] == 2 * 6

    def test_rowmajor_diagonals_are_rotated_inside_the_fold(self, monkeypatch):
        """Row-major spatial mixing neither rotates nor stacks diagonal rows:
        it folds its input stack once and ``fold_steps`` pays one rotation
        per input and nonzero diagonal."""
        rng = np.random.default_rng(16)
        x = GraphTensor.random((2, 3, 4, 4), seed=17)
        merged = MergedSpatialMatrix.from_dense(rng.uniform(0.5, 1.5, (3, 2, 4, 4)), rng.normal(size=2))
        ctx = SimContext(16, max_level=1)
        fm = packed(x, ctx, ROWMAJOR)
        folded = only_stacks_inputs(monkeypatch, fm)
        with ctx.layer("m"):
            out = rowmajor_spatial(fm, merged)
        np.testing.assert_allclose(unpack(out, ROWMAJOR), merged.apply(x.data), atol=1e-12)
        assert ctx.counter.layer("m")["rot"] == fm.ct.rows * 6  # diagonals -3..3 but 0
        assert len(folded) == 1

    def cancelling_layer(self, cancel=True):
        """A P = 3 layer on 4 joints: partitions 1 and 2 meet only at (2, 3),
        with equal entries and opposite weight slabs, so the merged entry
        there is exactly zero for every channel pair although both parts
        are not."""
        rng = np.random.default_rng(22)
        c_in, c_out, J = 5, 3, 4
        parts = np.zeros((3, J, J))
        parts[0] = np.diag(rng.uniform(0.5, 1.5, J))
        parts[1][[0, 1, 2, 3], [1, 2, 3, 0]] = rng.uniform(0.5, 1.5, J)
        parts[2][[0, 1, 2, 3], [2, 0, 3, 1]] = rng.uniform(0.5, 1.5, J)
        parts[1:, 2, 3] = 0.5
        weights = rng.normal(size=(3, c_in, c_out))
        weights[2] = -weights[1] * (1.0 if cancel else 1.5)
        return MergedSpatialMatrix(weights, parts, np.zeros(c_out))

    def per_joint_schedule(self, ctx, fm, merged):
        """The fold one output joint at a time, from the merged entries
        sum_p W_p[c, o] * N_p[k, j] gathered per (step, h, piece, g, block)."""
        lin = fm.layout
        lout = engine.packing.ama_layout((lin.B, merged.c_out, lin.T, lin.J), lin.slot_count)
        amounts, out_chan, c_read, serves = engine._giant_steps(lin, lout)
        reads = decompose(merged.pattern.T).T
        G, H, cap = lin.cts_per_joint, lout.cts_per_joint, lin.capacity
        for k in range(lin.J):
            jin = reads[k][None, None, :, None, None]
            c, o, j = c_read[:, None, None], out_chan[:, None, None], np.maximum(jin, 0)
            entries = sum(w[c, o] * n[k, j] for w, n in zip(merged.weights, merged.parts))
            coef = np.where(serves[:, None, None] & (jin >= 0), entries, 0.0)
            op = hesim.BlockCirculant(amounts, coef.reshape(len(amounts), H, -1, cap), (cap, lin.pad_bt))
            src = take(fm.ct, [lin.ama_ct_index(j, g) for j in np.maximum(reads[k], 0) for g in range(G)])
            ctx.fold_steps(src, op, np.zeros((op.rows, 1)))  # a zero bias: rows without terms as encrypted zeros

    @pytest.mark.parametrize("chunk_bytes", [hesim._CHUNK_BYTES, 1])
    def test_a_partition_sum_that_cancels_is_not_counted(self, monkeypatch, chunk_bytes):
        """Counters and op-log histogram equal those of the fold of the
        merged entries, one output joint at a time: the (output joint 2,
        input joint 3) terms, whose partition sum cancels, run nothing."""
        monkeypatch.setattr(hesim, "_CHUNK_BYTES", chunk_bytes)
        x = GraphTensor.random((1, 5, 4, 4), seed=23)

        def run(merged, schedule):
            ctx = SimContext(16, max_level=1, log_ops=True)
            fm = packed(x, ctx, AMA)
            with ctx.layer("s"):
                out = schedule(ctx, fm, merged)
            hist = {}
            for rec in ctx.oplog:
                key = (rec["op"], rec["level_before"], rec.get("rotation_amount"))
                hist[key] = hist.get(key, 0) + rec.get("count", 1)
            return out, ctx.counter, hist

        def spatial(ctx, fm, merged):
            return ama_spatial(fm, merged)

        merged = self.cancelling_layer()
        assert merged.pattern[2, 3] and not merged.matrices[:, :, 2, 3].any()
        out, counter, hist = run(merged, spatial)
        _, want_counter, want_hist = run(merged, self.per_joint_schedule)
        np.testing.assert_allclose(unpack(out, AMA), merged.apply(x.data), atol=1e-12)
        assert counter == want_counter and hist == want_hist
        _, uncancelled, _ = run(self.cancelling_layer(cancel=False), spatial)
        assert counter.layer("s")["pmult"] < uncancelled.layer("s")["pmult"]

    def test_ama_builds_one_operator_per_layer(self, monkeypatch):
        """The layer is one ``Mixed``, applied by one fold: every chunk of
        output joints mixes its inputs and multiplies the mixes by the
        operator's one block-circulant matrix, and none is built per joint."""
        built, applied, chunks = [], [], []
        build, apply, matmul = hesim.Mixed, SimContext.fold_steps, np.matmul

        def counted_build(*args):
            built.append(build(*args))
            return built[-1]

        def counted_apply(ctx, src, op, bias=None):
            applied.append(op)
            return apply(ctx, src, op, bias)

        def counted_matmul(a, b, **kwargs):
            chunks.append((a, len(b)))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(hesim, "Mixed", counted_build)
        monkeypatch.setattr(SimContext, "fold_steps", counted_apply)
        monkeypatch.setattr(hesim, "_CHUNK_BYTES", 1)  # one output joint per chunk
        merged = self.cancelling_layer()
        x = GraphTensor.random((1, 5, 4, 4), seed=24)
        ctx = SimContext(16, max_level=1)
        fm = packed(x, ctx, AMA)
        with monkeypatch.context() as m:
            m.setattr(np, "matmul", counted_matmul)
            out = ama_spatial(fm, merged)
        np.testing.assert_allclose(unpack(out, AMA), merged.apply(x.data), atol=1e-12)
        assert len(built) == 1 and len(applied) == 1 and applied[0] is built[0]
        assert [(a is built[0].matrix, n) for a, n in chunks] == [(True, 1)] * x.dims[3]

    def test_ama_counts_the_giant_steps_once_and_builds_no_block_circulant(self, monkeypatch):
        """The layer's ``Mixed`` owns its block-circulant product: building
        the layer works out the giant-step counts once, those of the merged
        coefficients, and constructs no ``BlockCirculant``."""
        calls = []
        counts = hesim._giant_step_counts

        def counted(*args):
            calls.append(args)
            return counts(*args)

        def block_circulant(*args, **kwargs):
            raise AssertionError("the AMA spatial layer built a hesim.BlockCirculant")

        monkeypatch.setattr(hesim, "_giant_step_counts", counted)
        monkeypatch.setattr(hesim, "BlockCirculant", block_circulant)
        merged = self.cancelling_layer()
        x = GraphTensor.random((1, 5, 4, 4), seed=24)
        ctx = SimContext(16, max_level=1)
        out = ama_spatial(packed(x, ctx, AMA), merged)
        np.testing.assert_allclose(unpack(out, AMA), merged.apply(x.data), atol=1e-12)
        assert len(calls) == 1

    def test_level_exhausted(self):
        merged = MergedSpatialMatrix.from_dense(np.eye(4)[None, None], np.zeros(1))
        x = GraphTensor.zeros((1, 1, 4, 4))
        ctx = SimContext(16, max_level=1)
        fm = packed(x, ctx, AMA)
        low = EncryptedFeatureMap(ctx.mod_switch(fm.ct, 0), fm.layout)
        with pytest.raises(LevelError):
            ama_spatial(low, merged)

    def test_layout_mismatch_rejected(self):
        merged = MergedSpatialMatrix.from_dense(np.eye(4)[None, None], np.zeros(1))
        x = GraphTensor.zeros((1, 1, 4, 4))
        ctx = SimContext(16, max_level=1)
        with pytest.raises(ValueError, match="AMA"):
            ama_spatial(packed(x, ctx, ROWMAJOR), merged)

    def test_nonsymmetric_matrix_orientation(self):
        # strictly upper-triangular mixing pins row/column orientation
        M = np.triu(np.arange(1, 17, dtype=float).reshape(4, 4) / 10.0, 1) + np.eye(4)
        merged = MergedSpatialMatrix.from_dense(M[None, None], np.zeros(1))
        x = GraphTensor.random((1, 1, 4, 4), seed=9)
        oracle = merged.apply(x.data)
        for fmt, op in ((AMA, ama_spatial), (ROWMAJOR, rowmajor_spatial)):
            ctx = SimContext(16, max_level=1)
            out = op(packed(x, ctx, fmt), merged)
            np.testing.assert_allclose(unpack(out, fmt), oracle, atol=1e-12)


class TestTemporalConv:
    def oracle(self, x, layer):
        return plaintext_reference(
            ModelSpec(
                x.dims,
                [layer, GlobalAvgPool(), FullyConnected(layer.channels, layer.channels, np.eye(layer.channels), None)],
            ),
            x,
        )

    def test_k1_is_pure_scaling(self):
        w = np.array([[[1.7]]])
        layer = TemporalConv(1, 1, 1, w, None, None)
        x = GraphTensor.random((1, 1, 8, 2), seed=1)
        for fmt in (AMA, ROWMAJOR):
            ctx = SimContext(32, max_level=1)
            out = temporal_conv(packed(x, ctx, fmt), layer)
            np.testing.assert_allclose(unpack(out, fmt), 1.7 * x.data, atol=1e-12)

    def test_moving_average_matches_convolution_oracle(self):
        w = np.full((1, 1, 3), 1.0 / 3.0)
        layer = TemporalConv(1, 3, 1, w, None, None)
        ramp = np.arange(8.0).reshape(1, 1, 8, 1)
        x = GraphTensor(ramp)
        padded = np.concatenate([[0.0], np.arange(8.0), [0.0]])
        expect = np.stack([padded[i : i + 3].mean() for i in range(8)]).reshape(1, 1, 8, 1)
        for fmt in (AMA, ROWMAJOR):
            ctx = SimContext(16, max_level=1)
            out = temporal_conv(packed(x, ctx, fmt), layer)
            np.testing.assert_allclose(unpack(out, fmt), expect, atol=1e-12)

    def test_tap_rotations_shared_per_ciphertext(self):
        rng = np.random.default_rng(0)
        C, K = 2, 9
        layer = TemporalConv(C, K, 1, rng.normal(size=(C, C, K)) / K, None, None)
        x = GraphTensor.random((1, C, 16, 2), seed=2)
        ctx = SimContext(64, max_level=1)
        with ctx.layer("t"):
            temporal_conv(packed(x, ctx, AMA), layer)
        lin = engine.packing.ama_layout(x.dims, 64)
        n_cts = lin.ct_count()
        _, giant = costmodel._ama_fold_geometry(lin)
        assert ctx.counter.layer("t")["rot"] == n_cts * (K - 1) + n_cts * giant

    def test_ama_builds_one_operator_per_layer(self, monkeypatch):
        """The layer's one block-circulant operator is applied by one fold
        to every joint, in chunks of joints."""
        built, applied, chunks = [], [], []
        build, apply, product = hesim.BlockCirculant, SimContext.fold_steps, hesim.BlockCirculant._product

        def counted_build(*args):
            built.append(build(*args))
            return built[-1]

        def counted_apply(ctx, src, op, bias=None):
            applied.append(op)
            return apply(ctx, src, op, bias)

        def counted_product(op, x, out):
            chunks.append((op, len(x)))
            return product(op, x, out)

        monkeypatch.setattr(hesim.BlockCirculant, "_product", counted_product)
        monkeypatch.setattr(hesim, "BlockCirculant", counted_build)
        monkeypatch.setattr(SimContext, "fold_steps", counted_apply)
        monkeypatch.setattr(hesim, "_CHUNK_BYTES", 1)  # one joint per chunk
        rng = np.random.default_rng(5)
        layer = TemporalConv(3, 3, 1, rng.normal(size=(3, 3, 3)), rng.normal(size=3), None)
        x = GraphTensor.random((1, 3, 8, 4), seed=6)
        ctx = SimContext(64, max_level=1)
        out = temporal_conv(packed(x, ctx, AMA), layer)
        np.testing.assert_allclose(unpack(out, AMA), self.conv(x.data, layer), atol=1e-12)
        assert len(built) == 1 and len(applied) == 1 and applied[0] is built[0]
        assert chunks == [(built[0], 1)] * x.dims[3]

    def test_ama_taps_are_rotated_inside_the_fold(self, monkeypatch):
        """An AMA layer neither rotates nor stacks tap rows: it folds its
        input stack once and ``fold_steps`` pays the tap rotations."""
        rng = np.random.default_rng(12)
        layer = TemporalConv(3, 5, 1, rng.normal(size=(3, 3, 5)), rng.normal(size=3), None)
        x = GraphTensor.random((1, 3, 8, 4), seed=13)
        ctx = SimContext(64, max_level=1)
        fm = packed(x, ctx, AMA)
        folded = only_stacks_inputs(monkeypatch, fm)
        with ctx.layer("t"):
            out = temporal_conv(fm, layer)
        np.testing.assert_allclose(unpack(out, AMA), self.conv(x.data, layer), atol=1e-12)
        lin = out.layout
        _, giant = costmodel._ama_fold_geometry(lin)
        assert ctx.counter.layer("t")["rot"] == lin.ct_count() * (layer.kernel - 1 + giant)
        assert len(folded) == 1

    def test_rowmajor_taps_are_rotated_inside_the_fold(self, monkeypatch):
        """A row-major layer neither rotates nor stacks tap rows: it folds
        its input stack once and ``fold_steps`` pays the K - 1 nonzero tap
        rotations of each input."""
        rng = np.random.default_rng(14)
        layer = TemporalConv(3, 5, 1, rng.normal(size=(3, 3, 5)), rng.normal(size=3), None)
        x = GraphTensor.random((2, 3, 8, 4), seed=15)
        ctx = SimContext(64, max_level=1)
        fm = packed(x, ctx, ROWMAJOR)
        folded = only_stacks_inputs(monkeypatch, fm)
        with ctx.layer("t"):
            out = temporal_conv(fm, layer)
        np.testing.assert_allclose(unpack(out, ROWMAJOR), self.conv(x.data, layer), atol=1e-12)
        assert ctx.counter.layer("t")["rot"] == fm.ct.rows * (layer.kernel - 1)
        assert len(folded) == 1

    @staticmethod
    def conv(h, layer):
        """Zero-padded stride-1 temporal convolution plus bias on (B, C, T, J)."""
        half = layer.kernel // 2
        padded = np.pad(h, ((0, 0), (0, 0), (half, half), (0, 0)))
        out = sum(np.einsum("oc,bctj->botj", layer.weights[:, :, k], padded[:, :, k : k + h.shape[2]]) for k in range(layer.kernel))
        return out + layer.bias[None, :, None, None]

    def test_stride_two_decimates(self):
        rng = np.random.default_rng(3)
        layer = TemporalConv(1, 3, 2, rng.normal(size=(1, 1, 3)), None, None)
        x = GraphTensor.random((1, 1, 8, 2), seed=4)
        spec = ModelSpec(
            x.dims, [layer, GlobalAvgPool(), FullyConnected(1, 1, np.eye(1), None)]
        )
        ref = plaintext_reference(spec, x)
        for fmt in (AMA, ROWMAJOR):
            res = run_model(spec, x, fmt)
            np.testing.assert_allclose(res.scores, ref, atol=1e-12)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            TemporalConv(1, 4, 1, np.zeros((1, 1, 4)), None, None)

    def test_kernel_longer_than_frames_rejected(self):
        layer = TemporalConv(1, 5, 1, np.zeros((1, 1, 5)), None, None)
        x = GraphTensor.zeros((1, 1, 4, 1))
        ctx = SimContext(8, max_level=1)
        with pytest.raises(ValueError, match="exceeds"):
            temporal_conv(packed(x, ctx, AMA), layer)


class TestActivation:
    def test_linear_coeffs_keep_values_but_cost_two_levels(self):
        x = GraphTensor.random((1, 2, 4, 2), seed=5)
        ctx = SimContext(16, max_level=4)
        out = poly_activation(packed(x, ctx, AMA), 0.0, 1.0, 0.0)
        np.testing.assert_allclose(unpack(out, AMA), x.data, atol=1e-12)
        assert out.level == 2

    def test_square(self):
        x = GraphTensor(np.array([-2.0, 3.0]).reshape(1, 1, 2, 1))
        ctx = SimContext(4, max_level=2)
        out = poly_activation(packed(x, ctx, AMA), 1.0, 0.0, 0.0)
        np.testing.assert_allclose(unpack(out, AMA), [[[[4.0], [9.0]]]], atol=1e-12)

    def test_random_coeffs_match_slotwise_oracle(self):
        rng = np.random.default_rng(6)
        a, b, c = rng.normal(size=3)
        x = GraphTensor.random((2, 3, 4, 3), seed=7)
        for fmt in (AMA, ROWMAJOR):
            ctx = SimContext(64, max_level=2)
            out = poly_activation(packed(x, ctx, fmt), a, b, c)
            np.testing.assert_allclose(unpack(out, fmt), a * x.data**2 + b * x.data + c, atol=1e-12)

    def test_op_shape_per_ciphertext(self):
        x = GraphTensor.random((1, 2, 4, 3), seed=8)
        ctx = SimContext(16, max_level=2)
        fm = packed(x, ctx, AMA)
        n = fm.ct.rows
        with ctx.layer("act"):
            poly_activation(fm, 0.3, 0.5, 0.7)
        counts = ctx.counter.layer("act")
        assert counts == {"rot": 0, "pmult": 2 * n, "cmult": n, "add": 2 * n, "rescale": 3 * n}

    def test_needs_two_levels(self):
        x = GraphTensor.zeros((1, 1, 2, 1))
        ctx = SimContext(4, max_level=1)
        with pytest.raises(LevelError):
            poly_activation(packed(x, ctx, AMA), 1, 1, 1)


class TestPoolingAndHead:
    def test_constant_map_pools_to_constant(self):
        x = GraphTensor(np.full((1, 2, 4, 3), 2.5))
        for fmt in (AMA, ROWMAJOR):
            ctx = SimContext(16, max_level=2)
            pooled = global_avg_pool(packed(x, ctx, fmt))
            scores = fully_connected(pooled, np.eye(2), np.zeros(2))
            got = engine.extract_scores(scores, pooled.layout, 2)
            np.testing.assert_allclose(got, [[2.5, 2.5]], atol=1e-12)

    def test_mean_of_ramp(self):
        x = GraphTensor(np.arange(1.0, 5.0).reshape(1, 1, 4, 1))
        ctx = SimContext(8, max_level=2)
        pooled = global_avg_pool(packed(x, ctx, AMA))
        scores = fully_connected(pooled, np.eye(1), np.zeros(1))
        assert engine.extract_scores(scores, pooled.layout, 1)[0, 0] == pytest.approx(2.5)

    def test_random_fm_matches_mean_oracle(self):
        x = GraphTensor.random((2, 4, 8, 3), seed=9)
        for fmt in (AMA, ROWMAJOR):
            ctx = SimContext(64, max_level=2)
            pooled = global_avg_pool(packed(x, ctx, fmt))
            scores = fully_connected(pooled, np.eye(4), np.zeros(4))
            got = engine.extract_scores(scores, pooled.layout, 4)
            np.testing.assert_allclose(got, x.data.mean(axis=(2, 3)), atol=1e-12)

    def test_selector_weight_reads_one_channel(self):
        x = GraphTensor.random((1, 3, 4, 2), seed=10)
        W = np.zeros((3, 1))
        W[1, 0] = 1.0
        ctx = SimContext(16, max_level=2)
        pooled = global_avg_pool(packed(x, ctx, AMA))
        scores = fully_connected(pooled, W, np.zeros(1))
        got = engine.extract_scores(scores, pooled.layout, 1)
        assert got[0, 0] == pytest.approx(x.data[0, 1].mean())

    def test_random_fc_matches_oracle(self):
        rng = np.random.default_rng(11)
        x = GraphTensor.random((2, 4, 4, 3), seed=12)
        W, bias = rng.normal(size=(4, 5)), rng.normal(size=5)
        for fmt in (AMA, ROWMAJOR):
            ctx = SimContext(32, max_level=2)
            pooled = global_avg_pool(packed(x, ctx, fmt))
            scores = fully_connected(pooled, W, bias)
            got = engine.extract_scores(scores, pooled.layout, 5)
            np.testing.assert_allclose(got, x.data.mean(axis=(2, 3)) @ W + bias, atol=1e-12)

    def test_fc_pmult_count_matches_group_formula(self):
        # channels / U groups per class
        x = GraphTensor.random((1, 8, 4, 2), seed=13)
        ctx = SimContext(16, max_level=2)  # pad 4, capacity 4 -> 2 groups
        pooled = global_avg_pool(packed(x, ctx, AMA))
        with ctx.layer("fc"):
            fully_connected(pooled, np.ones((8, 60)), np.zeros(60))
        assert ctx.counter.layer("fc")["pmult"] == 2 * 60

    def test_ama_zero_weight_column_runs_no_term(self):
        """A (class, group) weight column of zeros is a term of the head's
        operator whose coefficients are all zero: that class counts one
        PMult and one Add fewer, and the scores still match the oracle."""
        x = GraphTensor.random((1, 8, 4, 2), seed=13)
        rng = np.random.default_rng(14)
        W, bias = rng.normal(size=(8, 3)), rng.normal(size=3)
        zeroed = W.copy()
        zeroed[4:, 1] = 0.0  # class 1 on group 1 (channels 4-7)
        counts = {}
        for name, w in (("dense", W), ("zeroed", zeroed)):
            ctx = SimContext(16, max_level=2)  # pad 4, capacity 4 -> 2 groups
            pooled = global_avg_pool(packed(x, ctx, AMA))
            assert pooled.layout.group_channels(1) == range(4, 8)
            with ctx.layer("fc"):
                scores = fully_connected(pooled, w, bias)
            got = engine.extract_scores(scores, pooled.layout, 3)
            np.testing.assert_allclose(got, x.data.mean(axis=(2, 3)) @ w + bias, atol=1e-12)
            counts[name] = ctx.counter.layer("fc")
        assert counts["dense"]["pmult"] == 2 * 3
        assert counts["dense"]["pmult"] - counts["zeroed"]["pmult"] == 1
        assert counts["dense"]["add"] - counts["zeroed"]["add"] == 1
        assert counts["dense"]["rot"] == counts["zeroed"]["rot"]

    def test_fc_requires_pooled(self):
        x = GraphTensor.zeros((1, 2, 4, 2))
        ctx = SimContext(16, max_level=2)
        with pytest.raises(ValueError, match="pooled"):
            fully_connected(packed(x, ctx, AMA), np.eye(2), np.zeros(2))


class TestEpilogues:
    @pytest.mark.parametrize("kernel", ["poly_activation", "global_avg_pool"])
    def test_peak_memory_is_one_output_stack(self, kernel):
        """An activation, and row-major pooling (a mask PMult, then the
        halving tree), on a 100 x 8192 stack hold one output stack plus their
        row chunks: the traced peak stays below one stack, two
        ``_CHUNK_BYTES`` and a slack of eight slot vectors (the pooling mask
        and its index arrays)."""
        N, rows = 8192, 100
        ctx = SimContext(N, max_level=4, log_ops=False)
        layout = engine.packing.rowmajor_layout((1, rows, 64, 128), N)
        fm = EncryptedFeatureMap(ctx.encrypt(np.random.default_rng(0).uniform(-1, 1, (rows, N))), layout)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = poly_activation(fm, 0.1, 0.5, 0.2) if kernel == "poly_activation" else global_avg_pool(fm)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.ct.rows == rows
        assert peak < rows * N * 8 + 2 * hesim._CHUNK_BYTES + 8 * N * 8, peak

    @pytest.mark.parametrize("fmt", [AMA, ROWMAJOR])
    def test_no_rotation_or_cmult_outside_the_fused_ops(self, monkeypatch, fmt):
        """The acceptance model runs with ``SimContext.rotate`` and
        ``SimContext.cmult`` raising: every rotation happens inside a fold or
        a rotate-and-sum tree and every CMult inside ``poly``, the scores
        match the oracle and the counts reconcile with the analytic mirror."""
        from hegcn.model import acceptance_stgcn3

        def forbidden(*args):
            raise AssertionError("SimContext.rotate or SimContext.cmult called")

        monkeypatch.setattr(SimContext, "rotate", forbidden)
        monkeypatch.setattr(SimContext, "cmult", forbidden)
        spec = acceptance_stgcn3()
        x = GraphTensor.random(spec.input_dims, seed=43)
        res = run_model(spec, x, fmt, slot_count=1024)
        np.testing.assert_allclose(res.scores, plaintext_reference(spec, x), rtol=0, atol=1e-9)
        assert costmodel.reconcile(res.per_layer(), costmodel.analytic_layer_counts(spec, fmt, 1024))["max_abs_diff"] == 0
        assert res.counter.totals()["rot"] > 0 and res.counter.totals()["cmult"] > 0


class TestMatmulBenchmark:
    @pytest.mark.parametrize("fmt", [AMA, ROWMAJOR])
    def test_in_regime_counts_and_correctness(self, fmt):
        counts, err = dense_matmul_case(fmt, B=2, C=8, J=8, seed=1)
        formula = costmodel.matmul_hoc(fmt, 2, 8, 8)
        assert err < 1e-12
        for op in ("rot", "pmult", "add"):
            assert counts[op] == formula[op]

    def test_batch_equal_joints_needs_no_rotations(self):
        counts, err = dense_matmul_case(AMA, B=4, C=4, J=4, seed=2)
        assert counts["rot"] == 0 and err < 1e-12

    @pytest.mark.parametrize("B,C,J", [(1, 1, 8), (1, 2, 16), (2, 1, 16), (4, 2, 16), (1, 8, 16)])
    def test_ama_formula_exact_below_regime(self, B, C, J):
        # C < J/B: one ciphertext per joint, each folding C channel blocks
        counts, err = dense_matmul_case(AMA, B=B, C=C, J=J, seed=3)
        assert err < 1e-12
        measured = {op: counts[op] for op in ("rot", "pmult", "add")}
        assert measured == costmodel.matmul_hoc(AMA, B, C, J)


class TestRunModel:
    def small_spec(self, seed=0, **kw):
        adj = ring_adjacency(5)
        defaults = dict(widths=[4, 8], classes=3, kernel=3, stride2_at=1, seed=seed)
        defaults.update(kw)
        return random_stgcn((2, 4, 8, 5), adjacency=adj, **defaults)

    def test_matches_plaintext_reference(self):
        spec = self.small_spec(with_bn=True)
        x = GraphTensor.random(spec.input_dims, seed=1)
        ref = plaintext_reference(spec, x)
        for fmt in (AMA, ROWMAJOR):
            res = run_model(spec, x, fmt)
            np.testing.assert_allclose(res.scores, ref, atol=1e-9)

    def test_zero_input_yields_bias_only_scores(self):
        # with b*x activations and zero weights biases propagate exactly
        adj = ring_adjacency(4)
        spec = ModelSpec(
            (1, 2, 4, 4),
            [
                SpatialConv(2, 3, adj, np.zeros((1, 2, 3)), np.array([0.5, -1.0, 2.0])),
                GlobalAvgPool(),
                FullyConnected(3, 2, np.ones((3, 2)), np.array([0.25, -0.25])),
            ],
        )
        x = GraphTensor.zeros((1, 2, 4, 4))
        ref = plaintext_reference(spec, x)
        np.testing.assert_allclose(ref, [[1.75, 1.25]])
        for fmt in (AMA, ROWMAJOR):
            np.testing.assert_allclose(run_model(spec, x, fmt).scores, ref, atol=1e-12)

    def test_identity_adjacency_reduces_to_pointwise_conv(self):
        adj = AdjacencySet([np.eye(4)])
        rng = np.random.default_rng(14)
        w = rng.normal(size=(1, 2, 3))
        spec = ModelSpec(
            (1, 2, 4, 4),
            [
                SpatialConv(2, 3, adj, w),
                GlobalAvgPool(),
                FullyConnected(3, 3, np.eye(3), None),
            ],
        )
        x = GraphTensor.random((1, 2, 4, 4), seed=15)
        ref = np.einsum("bctj,co->bo", x.data, w[0]) / 1.0
        ref = (np.einsum("bctj,co->botj", x.data, w[0])).mean(axis=(2, 3))
        np.testing.assert_allclose(plaintext_reference(spec, x), ref, atol=1e-12)
        np.testing.assert_allclose(run_model(spec, x, AMA).scores, ref, atol=1e-12)

    def test_cross_format_equivalence(self):
        spec = self.small_spec(seed=3)
        x = GraphTensor.random(spec.input_dims, seed=4)
        a = run_model(spec, x, AMA).scores
        r = run_model(spec, x, ROWMAJOR).scores
        np.testing.assert_allclose(a, r, atol=1e-9)

    def test_level_trace_totals_to_static_depth(self):
        spec = self.small_spec()
        x = GraphTensor.random(spec.input_dims, seed=5)
        for fmt in (AMA, ROWMAJOR):
            res = run_model(spec, x, fmt)
            assert sum(e["consumed"] for e in res.level_trace) == res.depth_total
            assert res.depth_total == costmodel.depth(spec)

    def test_depth_budget_violation_names_layer(self):
        spec = self.small_spec()
        x = GraphTensor.random(spec.input_dims, seed=6)
        ctx = SimContext(64, max_level=3)
        with pytest.raises(DepthBudgetError) as err:
            run_model(spec, x, AMA, ctx=ctx)
        assert err.value.layer is not None
        assert err.value.layer in str(err.value)

    def test_pruned_activation_skips_ops_and_levels(self):
        spec = self.small_spec()
        pruned = spec.prune_activations([0, 1, 2, 3])
        assert costmodel.depth(pruned) == costmodel.depth(spec) - 8
        x = GraphTensor.random(spec.input_dims, seed=7)
        res = run_model(pruned, x, AMA)
        np.testing.assert_allclose(res.scores, plaintext_reference(pruned, x), atol=1e-9)
        assert res.counter.totals()["cmult"] == 0

    def test_quantize_mode_stays_close_to_oracle(self):
        spec = self.small_spec(seed=8)
        x = GraphTensor.random(spec.input_dims, seed=9)
        ref = plaintext_reference(spec, x)
        res = run_model(spec, x, AMA, quantize=True)
        assert np.max(np.abs(res.scores - ref)) <= 1e-4

    def test_ctx_excludes_slot_count_and_quantize(self):
        """Both build the run's own context, so next to a ``ctx`` they are
        rejected, before anything is packed, instead of ignored."""
        spec = self.small_spec()
        x = GraphTensor.random(spec.input_dims, seed=12)
        for kw in ({"slot_count": 128}, {"quantize": True}):
            ctx = SimContext(64, max_level=costmodel.depth(spec), log_ops=True)
            with pytest.raises(ValueError, match="ctx"):
                run_model(spec, x, AMA, ctx=ctx, **kw)
            assert ctx.oplog == []

    def test_headless_model_rejected_before_packing(self):
        spec = self.small_spec()
        headless = ModelSpec(spec.input_dims, spec.layers[:-1])
        x = GraphTensor.random(spec.input_dims, seed=13)
        ctx = SimContext(64, max_level=costmodel.depth(headless), log_ops=True)
        with pytest.raises(ValueError, match="no fully-connected head"):
            run_model(headless, x, AMA, ctx=ctx)
        assert ctx.oplog == []

    def test_oplog_replay_matches_counter(self):
        from hegcn.hesim import replay_counts

        spec = self.small_spec(seed=10)
        x = GraphTensor.random(spec.input_dims, seed=11)
        ctx = SimContext(64, max_level=costmodel.depth(spec), log_ops=True)
        run_model(spec, x, AMA, ctx=ctx)
        assert replay_counts(ctx.oplog) == ctx.counter

    @pytest.mark.parametrize("fmt", [AMA, ROWMAJOR])
    def test_counts_do_not_depend_on_log_ops(self, fmt):
        """The acceptance model @1024 counts the same with and without a log."""
        from hegcn.model import acceptance_stgcn3

        spec = acceptance_stgcn3()
        x = GraphTensor.random(spec.input_dims, seed=43)
        quiet = run_model(spec, x, fmt, slot_count=1024)
        ctx = SimContext(1024, max_level=costmodel.depth(spec), log_ops=True)
        logged = run_model(spec, x, fmt, ctx=ctx)
        assert quiet.counter == logged.counter == replay_counts(ctx.oplog)
        np.testing.assert_array_equal(quiet.scores, logged.scores)


def test_reference_model_measured_end_to_end():
    """Full measured run of the publication-shaped network (slot 8192).

    Anchors the analytic substitution used elsewhere: measured counters
    equal the per-layer formulas exactly at full scale, the level trace
    totals 21, and decrypted scores match the oracle.
    """
    from hegcn.model import reference_stgcn3

    spec = reference_stgcn3(c_in=4)
    x = GraphTensor.random(spec.input_dims, seed=1)
    res = run_model(spec, x, AMA, slot_count=8192)
    diff = costmodel.reconcile(
        res.per_layer(), costmodel.analytic_layer_counts(spec, AMA, 8192)
    )
    assert diff["max_abs_diff"] == 0, diff["per_layer"]
    assert sum(e["consumed"] for e in res.level_trace) == 21
    ref = plaintext_reference(spec, x)
    assert float(np.max(np.abs(res.scores - ref))) <= 1e-9


class TestSkipRules:
    """Hand-counted schedules where whole rows have no terms.

    dims (1, 2, 4, 3): AMA at slot 4 keeps one channel per ciphertext (one
    giant step, so no fold rotations); row-major at slot 16 keeps the 4 x 3
    grid.  Output channel 1 has all-zero weights and gets encrypted zeros.
    """

    dims = (1, 2, 4, 3)
    slots = {AMA: 4, ROWMAJOR: 16}

    def run(self, fmt, op, *args):
        x = GraphTensor.random(self.dims, seed=30)
        ctx = SimContext(self.slots[fmt], max_level=2, log_ops=True)
        fm = packed(x, ctx, fmt)
        with ctx.layer("l"):
            out = op(fm, *args)
        assert replay_counts(ctx.oplog) == ctx.counter
        zeros = [r for r in ctx.oplog if r["op"] == "encrypt" and r["layer"] == "l"]
        return x.data, unpack(out, fmt), ctx.counter.layer("l"), sum(r.get("count", 1) for r in zeros)

    def spatial_mats(self):
        # dense mixing into output channel 0 for output joints 0 and 1;
        # output joint 2 reads no input (no decomposition piece has it)
        mats = np.zeros((2, 2, 3, 3))
        mats[:, 0, :2, :] = np.arange(1, 13).reshape(2, 2, 3) / 10.0
        return mats

    def spatial(self):
        return MergedSpatialMatrix.from_dense(self.spatial_mats(), np.zeros(2))

    def test_ama_spatial_zero_channel_and_joint_without_pieces(self):
        merged = self.spatial()
        assert decompose(merged.pattern.T)[0].tolist() == [0, 0, -1]
        x, got, counts, zeros = self.run(AMA, ama_spatial, merged)
        np.testing.assert_allclose(got, merged.apply(x), atol=1e-12)
        # joints 0 and 1 into channel 0: 3 pieces x 2 input groups
        assert counts == {"rot": 0, "pmult": 12, "cmult": 0, "add": 10, "rescale": 12}
        assert zeros == 4  # (joint 0, ch 1), (joint 1, ch 1), (joint 2, ch 0 and 1)

    def test_rowmajor_spatial_zero_channel(self):
        merged = self.spatial()
        assert diagonal_offsets(merged.pattern) == [-1, 0, 1, 2]
        x, got, counts, zeros = self.run(ROWMAJOR, rowmajor_spatial, merged)
        np.testing.assert_allclose(got, merged.apply(x), atol=1e-12)
        # channel 0: 2 inputs x 4 diagonals; 3 nonzero offsets per input rotate
        assert counts == {"rot": 6, "pmult": 8, "cmult": 0, "add": 7, "rescale": 8}
        assert zeros == 1

    @pytest.mark.parametrize("chunk_bytes", [hesim._CHUNK_BYTES, 1])
    def test_rowmajor_rows_with_terms_in_some_chunks(self, monkeypatch, chunk_bytes):
        # channel 1 reads only diagonal -1 at joint 1, so with one joint per
        # chunk it has a term in one chunk and none in the others
        monkeypatch.setattr(hesim, "_CHUNK_BYTES", chunk_bytes)
        mats = self.spatial_mats()
        mats[:, 1, 1, 0] = 0.5
        merged = MergedSpatialMatrix.from_dense(mats, np.zeros(2))
        x, got, counts, zeros = self.run(ROWMAJOR, rowmajor_spatial, merged)
        np.testing.assert_allclose(got, merged.apply(x), atol=1e-12)
        assert counts == {"rot": 6, "pmult": 10, "cmult": 0, "add": 8, "rescale": 10}
        assert zeros == 0

    @pytest.mark.parametrize("fmt", [AMA, ROWMAJOR])
    def test_temporal_zero_channel(self, fmt):
        w = np.zeros((2, 2, 3))
        w[0] = np.arange(1, 7).reshape(2, 3) / 7.0
        w[0, 1, 2] = 0.0  # no output reads tap +1 of input channel 1: it never rotates
        layer = TemporalConv(2, 3, 1, w, None, None)
        x, got, counts, zeros = self.run(fmt, temporal_conv, layer)
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (0, 0)))
        want = sum(np.einsum("oc,bctj->botj", w[:, :, k], padded[:, :, k : k + 4]) for k in range(3))
        np.testing.assert_allclose(got, want, atol=1e-12)
        if fmt == AMA:
            # per joint (3): channel 0 sums 3 + 2 (group, tap) terms; taps
            # -1, +1 of group 0 and -1 of group 1 rotate
            assert counts == {"rot": 9, "pmult": 15, "cmult": 0, "add": 12, "rescale": 15}
            assert zeros == 3
        else:
            assert counts == {"rot": 3, "pmult": 5, "cmult": 0, "add": 4, "rescale": 5}
            assert zeros == 1


class TestOddShapes:
    """Ragged tilings: channel counts that do not divide the block capacity."""

    @pytest.mark.parametrize("C", [3, 5, 6, 7])
    def test_spatial_correct_for_ragged_channel_counts(self, C):
        rng = np.random.default_rng(C)
        x = GraphTensor.random((1, C, 4, 3), seed=C)
        mats = rng.uniform(0.5, 1.5, size=(C, C, 3, 3))
        merged = MergedSpatialMatrix.from_dense(mats, rng.normal(size=C))
        ctx = SimContext(32, max_level=2)  # capacity 8, C does not divide it
        out = ama_spatial(packed(x, ctx, AMA), merged)
        np.testing.assert_allclose(unpack(out, AMA), merged.apply(x.data), atol=1e-12)

    def test_full_model_with_ragged_widths(self):
        adj = ring_adjacency(3)
        spec = random_stgcn((1, 3, 8, 3), widths=[5, 6], adjacency=adj, classes=2, kernel=3, seed=20)
        x = GraphTensor.random(spec.input_dims, seed=21)
        ref = plaintext_reference(spec, x)
        for fmt in (AMA, ROWMAJOR):
            np.testing.assert_allclose(run_model(spec, x, fmt).scores, ref, atol=1e-9)


@pytest.mark.parametrize("fmt", [AMA, ROWMAJOR])
def test_acceptance_model_runs_on_stacks(monkeypatch, fmt):
    """Every layer of the acceptance model @1024 reads and writes whole
    stacks: the ciphertext objects a layer creates do not grow with its
    ciphertexts.
    At B = 2 every layer holds twice the ciphertexts (row-major B * C; AMA
    G groups of half the capacity), yet creates as many objects as at B = 1,
    the classifier head included."""
    from collections import Counter

    from hegcn.model import acceptance_stgcn3

    created, init = Counter(), hesim.SimCiphertext.__init__

    def counted_init(ct, slots, level, ctx):
        created[ctx.current_layer] += 1
        init(ct, slots, level, ctx)

    monkeypatch.setattr(hesim.SimCiphertext, "__init__", counted_init)
    spec = acceptance_stgcn3()
    objects, cts = {}, {}
    for B in (1, 2):
        batch = ModelSpec((B,) + spec.input_dims[1:], spec.layers, name=spec.name)
        x = GraphTensor.random(batch.input_dims, seed=43)
        created.clear()
        res = run_model(batch, x, fmt, slot_count=1024)
        np.testing.assert_allclose(res.scores, plaintext_reference(batch, x), rtol=0, atol=1e-9)
        diff = costmodel.reconcile(res.per_layer(), costmodel.analytic_layer_counts(batch, fmt, 1024))
        assert diff["max_abs_diff"] == 0
        objects[B], cts[B] = dict(created), res.ct_counts
    assert all(cts[2][label] == 2 * cts[1][label] for label in spec.labels()[:-2])
    assert objects[1] == objects[2]


@pytest.mark.parametrize("name, amounts", [("reference-ama-8192", 47), ("reference-rowmajor-8192", 39), ("acceptance-ama-1024", 39), ("acceptance-rowmajor-1024", 30)])
def test_unlogged_counter_holds_the_logged_histogram(name, amounts):
    """``run_model``'s own context keeps no log, yet its counter holds, per
    layer, the levels and rotation amounts of every op: projected onto
    (op, level_before, rotation_amount), it is the gated test's histogram
    of a logged run of the same input, and it names the distinct rotation
    amounts, one Galois key each."""
    from test_gated_counts import RUNS, gated_run, histogram

    _, fmt, slot_count = RUNS[name]
    spec, x, _, oplog = gated_run(name)
    counter = run_model(spec, x, fmt, slot_count=slot_count).counter
    records = [
        {"layer": label, "op": op, "level_before": before, "count": n, **({} if amount is None else {"rotation_amount": amount})}
        for label, hist in counter.histograms.items()
        for (op, before, _, amount), n in hist.items()
    ]
    assert histogram(records) == histogram(oplog)
    assert len({key[3] for hist in counter.histograms.values() for key in hist if key[0] == "rot"}) == amounts
