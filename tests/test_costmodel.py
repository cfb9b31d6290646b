import math

import numpy as np
import pytest

from hegcn import costmodel, engine, packing
from hegcn.costmodel import (
    HocFormulaInput,
    ParamSelectionError,
    analytic_layer_counts,
    depth,
    matmul_hoc,
    reconcile,
    select_params,
    framework_hoc,
    total_hoc,
    totals_of,
)
from hegcn.model import (
    Activation,
    FullyConnected,
    GlobalAvgPool,
    ModelSpec,
    acceptance_stgcn3,
    reference_stgcn3,
)
from hegcn.packing import AMA, ROWMAJOR, GraphTensor


class TestMatmulFormulas:
    def test_rowmajor_reference_point(self):
        got = matmul_hoc(ROWMAJOR, B=1, C=64, J=25)
        assert got == {"rot": 3072, "pmult": 200704, "add": 200640}

    def test_ama_reference_point(self):
        # J*J*(B*C/J)*C = 25*25*2.56*64 = 102400 exactly; Add subtracts the
        # B*C output ciphertexts
        got = matmul_hoc(AMA, B=1, C=64, J=25)
        assert got == {"rot": 1536, "pmult": 102400, "add": 102336}

    def test_batch_equals_joints_is_rotation_free(self):
        assert matmul_hoc(AMA, B=8, C=4, J=8)["rot"] == 0

    def test_pmult_ratio_approaches_one_half(self):
        # B=1, C=J keeps every point in the paper's regime J/B <= C, where
        # the ratio is J / (2J - 1)
        ratios = [
            matmul_hoc(AMA, 1, J, J)["pmult"] / matmul_hoc(ROWMAJOR, 1, J, J)["pmult"]
            for J in (8, 32, 128, 512)
        ]
        assert ratios == sorted(ratios, reverse=True)
        assert abs(ratios[-1] - 0.5) < 0.01
        for J, r in zip((8, 32, 128, 512), ratios):
            assert abs(r - 0.5) <= 0.5 / J + 1e-12

    def test_amortized_rotations_decrease_other_counters_linear(self):
        per_sample_rot = [matmul_hoc(AMA, B, 8, 8)["rot"] / B for B in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(per_sample_rot, per_sample_rot[1:]))
        per_sample_pm = [matmul_hoc(AMA, B, 8, 8)["pmult"] / B for B in (1, 2, 4, 8)]
        assert len(set(per_sample_pm)) == 1


class TestDepth:
    def test_reference_three_block_network(self):
        assert depth(reference_stgcn3()) == 21

    def test_pruning_subtracts_two_per_activation(self):
        spec = reference_stgcn3()
        assert depth(spec.prune_activations([0])) == 19
        assert depth(spec.prune_activations([0, 1])) == 17

    def test_empty_model(self):
        spec = ModelSpec((1, 1, 2, 1), [], name="empty")
        assert depth(spec) == 0


class TestSelectParams:
    def test_reference_choices(self):
        assert (select_params(21).poly_degree, select_params(21).modulus_bits) == (2**15, 740)
        assert (select_params(19).poly_degree, select_params(19).modulus_bits) == (2**14, 680)
        assert (select_params(17).poly_degree, select_params(17).modulus_bits) == (2**14, 600)

    def test_single_level_gets_smallest_entry(self):
        p = select_params(1)
        assert p.poly_degree == 2**13 and p.modulus_bits == 360

    def test_monotone_in_levels(self):
        prev_n = prev_q = 0
        for L in range(1, 23):
            p = select_params(L)
            assert p.poly_degree >= prev_n and p.modulus_bits >= prev_q
            prev_n, prev_q = p.poly_degree, p.modulus_bits

    def test_budget_actually_covers_levels(self):
        for L in range(1, 23):
            p = select_params(L)
            assert L * p.scale_bits <= p.modulus_bits

    def test_impossible_target(self):
        with pytest.raises(ParamSelectionError):
            select_params(1000)
        with pytest.raises(ParamSelectionError):
            select_params(5, security_bits=512)


class TestFrameworkRows:
    def inp(self, **kw):
        defaults = dict(
            slot_count=8192, B=1, C=64, O=64, T=256, J=25, K=9,
            S_p=3, T_e=3, A=6, V=73.0, D=49, C_s=60,
        )
        defaults.update(kw)
        return HocFormulaInput(**defaults)

    def test_u_capped_at_channels(self):
        inp = self.inp(C=8, O=8)
        assert inp.U == 8
        assert inp.N_a == 25

    def test_chet_row_total_scale(self):
        # documented aggregate inputs; magnitudes land where the baseline
        # framework comparison puts them (rot ~16K, pmult ~1.3M, total ~2.6M)
        chet = framework_hoc("chet", self.inp())
        assert 15_000 <= chet["rot"] <= 17_000
        assert 1.2e6 <= chet["pmult"] <= 1.4e6
        assert 2.4e6 <= costmodel.total_hoc(chet) <= 2.7e6

    def test_framework_row_ordering(self):
        inp = self.inp()
        chet = costmodel.total_hoc(framework_hoc("chet", inp))
        fhear = costmodel.total_hoc(framework_hoc("fast_hear", inp))
        ours = costmodel.total_hoc(framework_hoc("ama", inp))
        assert ours < fhear < chet


class TestExactAnalytic:
    def test_zero_layer_model_reconciles_trivially(self):
        spec = ModelSpec((1, 2, 4, 2), [], name="empty")
        diff = reconcile({}, analytic_layer_counts(spec, AMA, 16))
        assert diff["max_abs_diff"] == 0

    def test_measured_equals_analytic_small_model(self):
        from hegcn.adjacency import AdjacencySet
        from hegcn.model import random_stgcn

        adj = AdjacencySet.from_edges(5, [[(i, (i + 1) % 5) for i in range(5)]])
        spec = random_stgcn((2, 4, 8, 5), widths=[4, 8], adjacency=adj, classes=3,
                            kernel=3, stride2_at=1, seed=31)
        x = GraphTensor.random(spec.input_dims, seed=32)
        for fmt in (AMA, ROWMAJOR):
            res = engine.run_model(spec, x, fmt, slot_count=64)
            diff = reconcile(res.per_layer(), analytic_layer_counts(spec, fmt, 64))
            assert diff["max_abs_diff"] == 0, diff

    def test_a_structural_zero_is_counted_by_neither_packing(self):
        """A partition entry below ``VALID_EPS`` is left out of the
        structural union the mirror counts, and out of both packings: their
        counts equal the mirror's and their scores the reference's."""
        from hegcn.adjacency import AdjacencySet
        from hegcn.model import SpatialConv

        a = np.eye(4)
        a[0, 3] = 1e-13
        layers = [SpatialConv(1, 1, AdjacencySet([a]), np.ones((1, 1, 1))), GlobalAvgPool(), FullyConnected(1, 1, np.ones((1, 1)))]
        spec = ModelSpec((1, 1, 4, 4), layers)
        x = GraphTensor.random(spec.input_dims, seed=33)
        for fmt in (AMA, ROWMAJOR):
            res = engine.run_model(spec, x, fmt, slot_count=16)
            diff = reconcile(res.per_layer(), analytic_layer_counts(spec, fmt, 16))
            assert diff["max_abs_diff"] == 0, (fmt, diff)
            np.testing.assert_allclose(res.scores, engine.plaintext_reference(spec, x), rtol=0, atol=1e-12)

    def test_mismatched_batch_flagged(self):
        spec = acceptance_stgcn3()
        wrong = ModelSpec((2,) + spec.input_dims[1:], spec.layers, name="wrong-batch")
        a = analytic_layer_counts(spec, AMA, 1024)
        b = analytic_layer_counts(wrong, AMA, 1024)
        diff = reconcile(b, a)
        assert diff["max_abs_diff"] > 0
        assert diff["per_layer"]


@pytest.mark.parametrize("fmt", [AMA, ROWMAJOR])
def test_pooling_of_frames_no_halving_tree_folds_is_refused(fmt):
    """The acceptance layers on 24 frames pool 12 valid frames after the
    stride 2: the analytic counts and the amortization sweep raise the
    engine's typed error, naming the pooling layer, instead of counting
    int(log2(12)) halvings."""
    layers = acceptance_stgcn3().layers
    with pytest.raises(engine.PoolingError, match="got 12") as err:
        analytic_layer_counts(ModelSpec((1, 8, 24, 25), layers), fmt, 1024)
    assert err.value.layer == "12-global_avg_pool"
    with pytest.raises(engine.PoolingError, match="12-global_avg_pool.*got 12"):
        costmodel.amortized_sweep(lambda b: ModelSpec((b, 8, 24, 25), layers), fmt, 1024, [1, 2])


class TestFoldDeltas:
    """The cost model's closed-form giant steps against the engine's
    ``packing.giant_step_coverage`` (itself checked against the greedy scan
    in ``test_packing``)."""

    @pytest.mark.parametrize("cap", [2**k for k in range(8)] + [12, 24, 40])
    def test_closed_form_matches_coverage_scan(self, cap):
        for n in range(1, cap + 1):
            assert costmodel._fold_deltas(cap, n) == set(packing.giant_step_coverage(cap, n)), n

    def test_analytic_counts_do_not_use_the_coverage_scan(self, monkeypatch):
        """The analytic mirror derives its giant steps itself, so a fault in
        the engine's coverage scan cannot cancel out in ``reconcile``."""

        def forbidden(cap, n):
            raise AssertionError("analytic_layer_counts called packing.giant_step_coverage")

        monkeypatch.setattr(packing, "giant_step_coverage", forbidden)
        ref, accept = reference_stgcn3(c_in=4), acceptance_stgcn3()
        assert total_hoc(totals_of(analytic_layer_counts(ref, AMA, 8192))) == 651_532
        assert total_hoc(totals_of(analytic_layer_counts(accept, AMA, 1024))) == 110_306
        assert total_hoc(totals_of(analytic_layer_counts(accept, ROWMAJOR, 1024))) == 340_944


class TestAmortization:
    def make(self, B):
        spec = reference_stgcn3()
        return ModelSpec((B,) + spec.input_dims[1:], spec.layers, name=spec.name)

    def test_rowmajor_per_sample_exactly_constant(self):
        rows = costmodel.amortized_sweep(self.make, ROWMAJOR, 8192, [1, 2, 4, 8, 16])
        totals = [r["total"] for r in rows]
        assert max(totals) - min(totals) == 0

    def test_ama_rotations_amortize(self):
        rows = costmodel.amortized_sweep(self.make, AMA, 8192, [1, 2, 4, 8, 16])
        rots = [r["rot"] for r in rows]
        assert all(a > b for a, b in zip(rots, rots[1:]))
        assert rots[-1] <= 0.55 * rots[0]
        totals = [r["total"] for r in rows]
        assert all(a > b for a, b in zip(totals, totals[1:]))


def test_reconcile_reports_signed_differences():
    measured = {"00-x": {"rot": 5, "pmult": 2, "cmult": 0, "add": 1}}
    analytic = {"00-x": {"rot": 3, "pmult": 2, "cmult": 1, "add": 1}}
    diff = reconcile(measured, analytic)
    assert diff["per_layer"]["00-x"]["rot"] == 2
    assert diff["per_layer"]["00-x"]["cmult"] == -1
    assert diff["max_abs_diff"] == 2
