"""Acceptance suite: one test per criterion, printed as a PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here, not configurable.
"""

import itertools
import time

import numpy as np
import pytest

from hegcn import costmodel, engine
from hegcn.adjacency import AdjacencySet, MergedSpatialMatrix, chain_skeleton_25, decompose, merge_spatial
from hegcn.costmodel import HocFormulaInput, analytic_layer_counts, reconcile, select_params
from hegcn.hesim import SimContext
from hegcn.model import ModelSpec, acceptance_stgcn3, random_stgcn, reference_stgcn3
from hegcn.packing import AMA, ROWMAJOR, GraphTensor
from hegcn.prune import TableEvaluator, search


def report(num, name):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


# ----------------------------------------------------------------------
# 1. oracle equivalence on random tiny models


def _random_tiny_model(i):
    rng = np.random.default_rng(1000 + i)
    C = int(rng.choice([2, 4, 8]))
    T = int(rng.choice([8, 16]))
    J = int(rng.choice([4, 5, 8]))
    B = int(rng.choice([1, 2, 3]))
    n_layers = int(rng.integers(1, 4))
    widths = [int(rng.choice([2, 4, 8])) for _ in range(n_layers)]
    edges = sorted({(int(a), int(b)) for a, b in rng.integers(0, J, size=(2 * J, 2)) if a != b})
    parts = [edges[: max(1, len(edges) // 2)]]
    if len(edges) > 2 and rng.uniform() < 0.5:
        parts.append(edges[len(edges) // 2 :])
    adj = AdjacencySet.from_edges(J, parts)
    stride_at = n_layers - 1 if rng.uniform() < 0.4 else None
    return random_stgcn(
        (B, C, T, J),
        widths=widths,
        adjacency=adj,
        classes=int(rng.choice([2, 3, 5])),
        kernel=3,
        stride2_at=stride_at,
        seed=2000 + i,
        with_bn=bool(rng.uniform() < 0.5),
        name=f"tiny-{i}",
    )


def test_criterion_01_oracle_equivalence():
    """50 random tiny models, both formats: exact within 1e-9, and within
    1e-4 under 2^-33 fixed-point quantization."""
    start = time.time()
    worst_exact, worst_quant = 0.0, 0.0
    for i in range(50):
        spec = _random_tiny_model(i)
        x = GraphTensor.random(spec.input_dims, seed=3000 + i)
        ref = engine.plaintext_reference(spec, x)
        for fmt in (AMA, ROWMAJOR):
            res = engine.run_model(spec, x, fmt)
            err = float(np.max(np.abs(res.scores - ref)))
            worst_exact = max(worst_exact, err)
            assert err <= 1e-9, f"model {i} fmt {fmt}: exact-mode error {err:.3e}"
        res_q = engine.run_model(spec, x, AMA, quantize=True)
        err_q = float(np.max(np.abs(res_q.scores - ref)))
        worst_quant = max(worst_quant, err_q)
        assert err_q <= 1e-4, f"model {i}: quantized error {err_q:.3e}"
    elapsed = time.time() - start
    assert elapsed <= 120, f"criterion 1 took {elapsed:.0f}s (budget 120s)"
    print(f"\n  worst exact err {worst_exact:.2e}, worst quantized err {worst_quant:.2e}")
    report(1, "oracle equivalence")


# ----------------------------------------------------------------------
# 2. matmul HOC exactness on the dense grid


MATMUL_GRID = [
    (fmt, B, C, J)
    for fmt, B, C, J in itertools.product((ROWMAJOR, AMA), (1, 2, 4), (4, 8), (4, 8))
]


@pytest.mark.parametrize("fmt,B,C,J", MATMUL_GRID)
def test_criterion_02_matmul_hoc_exact(fmt, B, C, J):
    """Measured counters equal the dense-matrix formulas exactly, zero
    tolerance."""
    counts, err = engine.dense_matmul_case(fmt, B, C, J, seed=42)
    formula = costmodel.matmul_hoc(fmt, B, C, J)
    assert err <= 1e-12
    for op in ("rot", "pmult", "add"):
        assert counts[op] == formula[op], (
            f"{fmt} B={B} C={C} J={J}: measured {op}={counts[op]} vs formula {formula[op]}"
        )


def test_criterion_02_report():
    start = time.time()
    good = 0
    for fmt, B, C, J in MATMUL_GRID:
        counts, _ = engine.dense_matmul_case(fmt, B, C, J, seed=42)
        formula = costmodel.matmul_hoc(fmt, B, C, J)
        good += all(counts[op] == formula[op] for op in ("rot", "pmult", "add"))
    assert time.time() - start <= 60
    print(f"\n  {good}/{len(MATMUL_GRID)} grid points formula-exact")
    report(2, f"matmul HOC exactness ({good}/{len(MATMUL_GRID)} points)")


# ----------------------------------------------------------------------
# 3. per-layer formula reconciliation on a configured 3-block model


def test_criterion_03_layer_formula_reconciliation():
    """Exact per-layer analytic counters equal measured ones on the
    configured model: slot_count 1024, U=32 capacity, V=73, K=5, C_s=10.
    Any nonzero difference fails."""
    start = time.time()
    spec = acceptance_stgcn3()
    x = GraphTensor.random(spec.input_dims, seed=77)
    ref = engine.plaintext_reference(spec, x)
    for fmt in (AMA, ROWMAJOR):
        res = engine.run_model(spec, x, fmt, slot_count=1024)
        np.testing.assert_allclose(res.scores, ref, atol=1e-9)
        diff = reconcile(res.per_layer(), analytic_layer_counts(spec, fmt, 1024))
        assert diff["max_abs_diff"] == 0, f"{fmt}: {diff['per_layer']}"
    elapsed = time.time() - start
    assert elapsed <= 120, f"criterion 3 took {elapsed:.0f}s (budget 120s)"
    report(3, "per-layer formula reconciliation (zero diff)")


# ----------------------------------------------------------------------
# 4. level budget


def test_criterion_04_level_budget():
    spec = reference_stgcn3()
    assert costmodel.depth(spec) == 21
    assert costmodel.depth(spec.prune_activations([5])) == 19
    assert costmodel.depth(spec.prune_activations([4, 5])) == 17
    # the executed level trace agrees with the static depth
    small = acceptance_stgcn3()
    x = GraphTensor.random(small.input_dims, seed=4)
    res = engine.run_model(small, x, AMA, slot_count=1024)
    assert sum(e["consumed"] for e in res.level_trace) == costmodel.depth(small)
    report(4, "level budget 21 / 19 / 17")


# ----------------------------------------------------------------------
# 5. parameter selection


def test_criterion_05_parameter_selection():
    expect = {21: (2**15, 740), 19: (2**14, 680), 17: (2**14, 600)}
    for levels, (n, q) in expect.items():
        params = select_params(levels)
        assert (params.poly_degree, params.modulus_bits) == (n, q)
        assert params.security_bits == 80
    report(5, "parameter selection (2^15,740) / (2^14,680) / (2^14,600)")


# ----------------------------------------------------------------------
# 6. sparsity payoff on the 25-node stand-in skeleton


def test_criterion_06_sparsity_payoff():
    """Stand-in skeleton: 3 plaintext mults per output column under AMA vs
    19 diagonal mults per output channel row-major, verified on counters."""
    adj = chain_skeleton_25()
    merged = merge_spatial(adj, np.ones((1, 1, 1)))
    pieces = decompose(merged.matrices[0, 0])
    assert len(pieces) == 3  # max column population of the merged matrix
    col_counts = (np.abs(merged.matrices[0, 0]) > 1e-12).sum(axis=0)
    assert col_counts.max() == 3

    x = GraphTensor.random((1, 1, 4, 25), seed=6)
    oracle = merged.apply(x.data)
    ctx = SimContext(128, max_level=1)
    with ctx.layer("sconv"):
        ct, layout = engine.packing.ama_pack(x, ctx)
        out = engine.ama_spatial(engine.EncryptedFeatureMap(ct, layout), merged)
    np.testing.assert_allclose(engine.packing.ama_unpack(out.ct, out.layout).data, oracle, atol=1e-12)
    ama_counts = ctx.counter.layer("sconv")
    # single channel, one ciphertext per joint: total PMult = V = 73 and the
    # busiest output column costs exactly m = 3 of them
    assert ama_counts["pmult"] == 73
    assert ama_counts["rot"] == 0

    ctx_r = SimContext(128, max_level=1)
    with ctx_r.layer("sconv"):
        ct, layout = engine.packing.rowmajor_pack(x, ctx_r)
        out_r = engine.rowmajor_spatial(engine.EncryptedFeatureMap(ct, layout), merged)
    np.testing.assert_allclose(
        engine.packing.rowmajor_unpack(out_r.ct, out_r.layout).data, oracle, atol=1e-12
    )
    rm_counts = ctx_r.counter.layer("sconv")
    assert rm_counts["pmult"] == 19  # one per nonzero diagonal, per output channel
    assert rm_counts["rot"] == 18  # offset 0 is free

    # densifying the matrix never lowers the AMA multiplication count
    denser = merged.matrices[0, 0].copy()
    denser[0, 12] = denser[12, 0] = 0.5
    merged2 = MergedSpatialMatrix.from_dense(denser[None, None], np.zeros(1))
    ctx2 = SimContext(128, max_level=1)
    with ctx2.layer("sconv"):
        ct, layout = engine.packing.ama_pack(x, ctx2)
        engine.ama_spatial(engine.EncryptedFeatureMap(ct, layout), merged2)
    assert ctx2.counter.layer("sconv")["pmult"] == 75 >= ama_counts["pmult"]
    report(6, "sparsity payoff (3 vs 19 multiplications per output channel)")


# ----------------------------------------------------------------------
# 7. HOC reduction on the reference-shaped configuration


def test_criterion_07_hoc_reduction():
    """Reference-shaped 3-block network (documented assumptions: slot 8192,
    B=1, T=256, J=25, K=9, V=73, C_in=4, widths 64/128/128, C_s=60, all six
    activations live).  The exact analytic counters stand in for measured
    ones; criterion 3 pins them to the engine at zero difference on the
    same code paths.  Aggregate comparison rows plug the baseline
    frameworks' symbols with the network's nominal width (C=O=64, N_r=64,
    dense D=49)."""
    slot = 8192
    spec = reference_stgcn3(c_in=4)
    ama = costmodel.totals_of(analytic_layer_counts(spec, AMA, slot))
    rm = costmodel.totals_of(analytic_layer_counts(spec, ROWMAJOR, slot))

    inp = HocFormulaInput(
        slot_count=slot, B=1, C=64, O=64, T=256, J=25, K=9,
        S_p=3, T_e=3, A=6, V=73.0, D=49, C_s=60,
    )
    chet_total = costmodel.total_hoc(costmodel.framework_hoc("chet", inp))
    reduction = 100.0 * (1.0 - costmodel.total_hoc(ama) / chet_total)
    assert reduction >= 70.0, f"reduction {reduction:.1f}% below 70%"
    assert reduction <= 87.4, f"reduction {reduction:.1f}% outside the documented band"

    ratio = (ama["pmult"] + ama["add"]) / (rm["pmult"] + rm["add"])
    assert 0.28 <= ratio <= 0.40, f"PMult+Add ratio {ratio:.3f} outside [0.28, 0.40]"
    print(f"\n  reduction vs CHET {reduction:.1f}%, PMult+Add ratio {ratio:.3f}")
    report(7, "HOC reduction vs baseline frameworks")


# ----------------------------------------------------------------------
# 8. batch amortization


def test_criterion_08_batch_amortization():
    """Rotation counts amortize under AMA (B=16 per-sample count <= 0.55x
    the B=1 value and strictly decreasing); non-rotation counters are
    linear in B, so the raw per-sample total decreases strictly but stays
    PMult/Add-dominated.  Row-major per-sample counts are exactly constant.

    The 0.55 bound is asserted on the rotation counter: rotations are the
    only amortizing quantity, and no unweighted total can reach 0.55 since
    rotations are at most a third of any matmul-bearing layer's operations
    (see the decisions ledger)."""
    slot = 8192
    base = reference_stgcn3(c_in=4)

    def make_spec(b):
        return ModelSpec((b,) + base.input_dims[1:], base.layers, name=base.name)

    batches = [1, 2, 4, 8, 16]
    ama_rows = costmodel.amortized_sweep(make_spec, AMA, slot, batches)
    rots = [r["rot"] for r in ama_rows]
    totals = [r["total"] for r in ama_rows]
    assert rots[-1] <= 0.55 * rots[0], f"rotation amortization {rots[-1] / rots[0]:.3f} > 0.55"
    assert all(a > b for a, b in zip(rots, rots[1:])), "rotations not strictly decreasing"
    assert all(a > b for a, b in zip(totals, totals[1:])), "totals not strictly decreasing"

    rm_rows = costmodel.amortized_sweep(make_spec, ROWMAJOR, slot, batches)
    rm_totals = [r["total"] for r in rm_rows]
    spread = (max(rm_totals) - min(rm_totals)) / rm_totals[0]
    assert spread <= 0.01, f"row-major per-sample totals vary by {100 * spread:.2f}%"
    print(
        f"\n  AMA rot/sample {rots[0]:.0f} -> {rots[-1]:.0f} "
        f"(ratio {rots[-1] / rots[0]:.3f}); row-major spread {100 * spread:.3f}%"
    )
    report(8, "batch amortization")


# ----------------------------------------------------------------------
# 9. decomposition properties, 1000 random sparse matrices


def test_criterion_09_decomposition_properties():
    from test_adjacency import pieces_dense

    start = time.time()
    rng = np.random.default_rng(99)
    for _ in range(1000):
        J = int(rng.integers(1, 12))
        density = rng.uniform(0.05, 1.0)
        M = np.where(rng.uniform(size=(J, J)) < density, rng.uniform(0.5, 2.0, (J, J)), 0.0)
        pieces = pieces_dense(M, decompose(M))
        hot = np.abs(M) > 1e-12
        assert len(pieces) == int(hot.sum(axis=0).max())
        recon = sum(pieces, np.zeros((J, J)))
        np.testing.assert_array_equal(recon, M)
        for p in pieces:
            assert ((np.abs(p) > 0).sum(axis=0) <= 1).all()
    elapsed = time.time() - start
    assert elapsed <= 30, f"criterion 9 took {elapsed:.0f}s (budget 30s)"
    report(9, "patterned decomposition properties (1000 matrices)")


# ----------------------------------------------------------------------
# 10. pruning scenario


def test_criterion_10_pruning_scenario():
    """Reference accuracy ladder: baseline 0.7425 @ 21 levels, one prune
    0.7312 @ 19 (polynomial degree drops to 2^14), two prunes 0.7021 @ 17
    (degree cannot drop further).  The search must pick the 1-AP variant."""
    spec = reference_stgcn3()
    acts = spec.activation_indices()
    drop_one = {i: 0.70 + 0.002 * i for i in acts}  # last activation ranks first
    top1 = max(acts)
    top2 = sorted([top1, top1 - 1])
    stub = TableEvaluator(
        drop_one,
        {
            "": 0.7425,
            str(top1): 0.7312,
            ",".join(map(str, top2)): 0.7021,
        },
    )
    results, best = search(spec, stub, max_prune=2)
    assert [r.levels for r in results] == [21, 19, 17]
    assert [r.params.poly_degree for r in results] == [2**15, 2**14, 2**14]
    assert best.pruned == (top1,)
    assert best.accuracy == 0.7312
    report(10, "activation-pruning selection (1-AP variant)")
