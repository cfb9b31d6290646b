import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hegcn.adjacency import (
    VALID_EPS,
    AdjacencySet,
    MergedSpatialMatrix,
    chain_skeleton_25,
    decompose,
    diagonal_offsets,
    fold_bn,
    merge_spatial,
    sym_normalize,
)


def normalize(adj):
    """What ``AdjacencySet`` runs on a graph without self-loops: add them,
    then normalize, D~^{-1/2}(A+I)D~^{-1/2}."""
    adj = np.asarray(adj, dtype=np.float64)
    return sym_normalize(adj + np.eye(len(adj)))


class TestNormalize:
    def test_empty_graph_becomes_identity(self):
        np.testing.assert_array_equal(normalize(np.zeros((2, 2))), np.eye(2))

    def test_single_edge_pair(self):
        # A+I is all ones, degrees 2: every entry 1/2
        got = normalize(np.array([[0, 1], [1, 0]]))
        np.testing.assert_allclose(got, np.full((2, 2), 0.5))

    def test_one_node(self):
        np.testing.assert_array_equal(normalize(np.array([[0.0]])), [[1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            sym_normalize(np.zeros((2, 3)))

    def test_symmetric_input_symmetric_output(self):
        rng = np.random.default_rng(4)
        a = (rng.uniform(size=(6, 6)) > 0.6).astype(float)
        a = np.maximum(a, a.T)
        np.fill_diagonal(a, 0)
        n = normalize(a)
        np.testing.assert_allclose(n, n.T)

    def test_row_action_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        a = (rng.uniform(size=(5, 5)) > 0.5).astype(float)
        a = np.maximum(a, a.T)
        np.fill_diagonal(a, 0)
        at = a + np.eye(5)
        d = np.diag(1.0 / np.sqrt(at.sum(axis=1)))
        np.testing.assert_allclose(normalize(a) @ np.ones(5), d @ at @ d @ np.ones(5))


def pieces_dense(M, rows):
    """The (m, J, J) dense pieces of M whose piece rows ``decompose`` returned."""
    M = np.asarray(M, dtype=np.float64)
    dense = np.zeros((len(rows),) + M.shape)
    i, k = np.nonzero(rows >= 0)
    dense[i, rows[i, k], k] = M[rows[i, k], k]
    return dense


class TestDecompose:
    def test_reference_sparse_example(self):
        # 4x4 with nonzeros at (1,1),(1,3),(1,4),(2,3),(3,2),(4,1),(4,2),(4,4)
        # in 1-indexed terms; every column holds two, so m = 2 and column 1
        # splits as row 1 -> piece 1, row 4 -> piece 2
        M = np.zeros((4, 4))
        for i, j in [(1, 1), (1, 3), (1, 4), (2, 3), (3, 2), (4, 1), (4, 2), (4, 4)]:
            M[i - 1, j - 1] = 10 * i + j
        rows = decompose(M)
        assert len(rows) == 2
        assert (rows[0, 0], M[rows[0, 0], 0]) == (0, 11.0)
        assert (rows[1, 0], M[rows[1, 0], 0]) == (3, 41.0)
        np.testing.assert_array_equal(pieces_dense(M, rows).sum(axis=0), M)

    def test_identity(self):
        pieces = pieces_dense(np.eye(4), decompose(np.eye(4)))
        assert len(pieces) == 1
        np.testing.assert_array_equal(pieces[0], np.eye(4))

    def test_dense_reconstruction(self):
        rng = np.random.default_rng(1)
        M = rng.uniform(0.5, 1.5, (6, 6))
        pieces = pieces_dense(M, decompose(M))
        assert len(pieces) == 6
        np.testing.assert_array_equal(pieces.sum(axis=0), M)

    def test_zero_matrix(self):
        assert decompose(np.zeros((3, 3))).shape == (0, 3)

    def test_column_assignment_sorted_by_row(self):
        M = np.zeros((5, 5))
        M[[4, 1, 3], 2] = [1.0, 2.0, 3.0]
        assert decompose(M)[:, 2].tolist() == [1, 3, 4]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_decompose_properties_random(seed):
    rng = np.random.default_rng(seed)
    J = int(rng.integers(1, 10))
    density = rng.uniform(0.05, 1.0)
    M = np.where(rng.uniform(size=(J, J)) < density, rng.uniform(0.5, 2.0, (J, J)), 0.0)
    pieces = pieces_dense(M, decompose(M))
    hot = np.abs(M) > 1e-12
    assert len(pieces) == hot.sum(axis=0).max()
    recon = sum(pieces, np.zeros((J, J)))
    np.testing.assert_array_equal(recon, M)
    for p in pieces:
        dense_hot = np.abs(p) > 0
        assert dense_hot.sum(axis=0).max(initial=0) <= 1


class TestMergeSpatial:
    def test_identity_partition_scalar_weight(self):
        adjs = AdjacencySet([np.eye(3)])
        merged = merge_spatial(adjs, np.ones((1, 1, 1)))
        np.testing.assert_array_equal(merged.matrices[0, 0], np.eye(3))

    def test_two_partition_linear_combination(self):
        n1 = np.eye(2)
        n2 = np.array([[0.0, 1.0], [1.0, 0.0]]) + np.eye(2)
        adjs = AdjacencySet([n1, n2])
        w = np.array([[[2.0]], [[3.0]]])
        merged = merge_spatial(adjs, w)
        expected = 2 * sym_normalize(n1) + 3 * sym_normalize(n2)
        np.testing.assert_allclose(merged.matrices[0, 0], expected)

    def test_bn_fold_matches_conv_bn_oracle(self):
        rng = np.random.default_rng(8)
        J, c_in, c_out = 4, 3, 2
        a = (rng.uniform(size=(J, J)) > 0.5).astype(float)
        a = np.maximum(a, a.T)
        np.fill_diagonal(a, 0)
        adjs = AdjacencySet([a + np.eye(J)])
        w = rng.normal(size=(1, c_in, c_out))
        bias = rng.normal(size=c_out)
        bn = {
            "gamma": rng.uniform(0.5, 1.5, c_out),
            "beta": rng.normal(size=c_out),
            "mean": rng.normal(size=c_out),
            "var": rng.uniform(0.5, 2.0, c_out),
            "eps": 1e-5,
        }
        merged = merge_spatial(adjs, w, bias, bn)
        x = rng.normal(size=(2, c_in, 3, J))
        # oracle: conv then batch norm, straight from the definitions
        conv = np.einsum("kj,bitj,io->botk", sym_normalize(a + np.eye(J)), x, w[0]) + bias[
            None, :, None, None
        ]
        scale = bn["gamma"] / np.sqrt(bn["var"] + bn["eps"])
        oracle = (conv - bn["mean"][None, :, None, None]) * scale[None, :, None, None] + bn[
            "beta"
        ][None, :, None, None]
        np.testing.assert_allclose(merged.apply(x), oracle, atol=1e-12)

    def test_dim_mismatch(self):
        adjs = AdjacencySet([np.eye(3)])
        with pytest.raises(ValueError):
            merge_spatial(adjs, np.ones((2, 1, 1)))


def random_bn(rng, n):
    return {
        "gamma": rng.uniform(0.5, 1.5, n),
        "beta": rng.normal(size=n),
        "mean": rng.normal(size=n),
        "var": rng.uniform(0.5, 2.0, n),
        "eps": 1e-5,
    }


class TestFactoredForm:
    """Spatial layers are kept as P weight slabs and P partitions; the dense
    (C_in, C_out, J, J) matrices are only a read-only view for oracles."""

    # mixed index ndims: (2,1,1), (3,1), (4,1,1,1) and (5,) broadcast to (4,2,3,5)
    def indices(self, rng, c_in, c_out, J):
        return (
            rng.integers(0, c_in, size=(2, 1, 1)),
            rng.integers(0, c_out, size=(3, 1)),
            rng.integers(0, J, size=(4, 1, 1, 1)),
            rng.integers(0, J, size=5),
        )

    @pytest.mark.parametrize("with_bn", [False, True])
    @pytest.mark.parametrize("P", [1, 2, 3])
    def test_entries_equal_dense_indexing(self, P, with_bn):
        """Entry [c, o, k, j] of the dense view is sum_p weights[p, c, o] *
        parts[p, k, j], the batch-norm scale folded into the weight slabs."""
        rng = np.random.default_rng(10 * P + with_bn)
        J, c_in, c_out = 5, 3, 4
        parts = [(rng.uniform(size=(J, J)) > 0.6) + np.eye(J) * (p == 0) for p in range(P)]
        weights, bn = rng.normal(size=(P, c_in, c_out)), random_bn(rng, c_out) if with_bn else None
        merged = merge_spatial(AdjacencySet(parts), weights, rng.normal(size=c_out), bn)
        scale = fold_bn(None, bn, c_out)[0]
        np.testing.assert_array_equal(merged.weights, weights * scale)
        idx = self.indices(rng, c_in, c_out, J)
        want = sum(w[idx[0], idx[1]] * scale[idx[1]] * n[idx[2], idx[3]] for w, n in zip(weights, AdjacencySet(parts).normalized()))
        assert want.shape == (4, 2, 3, 5)
        np.testing.assert_allclose(merged.matrices[idx], want, rtol=0, atol=1e-14)

    def test_from_dense_entries_are_the_matrices(self):
        rng = np.random.default_rng(3)
        mats = np.where(rng.uniform(size=(3, 4, 5, 5)) > 0.5, rng.normal(size=(3, 4, 5, 5)), 0.0)
        merged = MergedSpatialMatrix.from_dense(mats, np.zeros(4))
        idx = self.indices(rng, 3, 4, 5)
        # part k*J + j is one-hot at (k, j) and carries the weights mats[:, :, k, j]
        flat = idx[2] * 5 + idx[3]
        np.testing.assert_array_equal(merged.weights[flat, idx[0], idx[1]], mats[idx])
        np.testing.assert_array_equal(merged.parts[flat, idx[2], idx[3]], np.ones(flat.shape))
        assert merged.parts.sum() == 25
        np.testing.assert_array_equal(merged.matrices, mats)
        np.testing.assert_array_equal(merged.pattern, (mats != 0).any(axis=(0, 1)))

    def test_writes_into_the_dense_view_raise(self):
        merged = merge_spatial(chain_skeleton_25(), np.ones((1, 1, 1)))
        for dense in (merged.matrices, MergedSpatialMatrix.from_dense(np.ones((1, 1, 2, 2)), np.zeros(1)).matrices):
            with pytest.raises(ValueError, match="read-only"):
                dense[0, 0, 0, 0] = 2.0

    def test_normalized_partitions_are_computed_once_and_read_only(self):
        adj = chain_skeleton_25()
        assert adj.normalized() is adj.normalized()
        assert adj.structural_union() is adj.structural_union()
        for shared in (adj.normalized(), adj.structural_union(), merge_spatial(adj, np.ones((1, 1, 1))).pattern):
            with pytest.raises(ValueError, match="read-only"):
                shared[0, 0] = 2.0


class TestSkeletonStandIn:
    def test_shape_and_tree(self):
        adj = chain_skeleton_25()
        assert adj.J == 25
        union = adj.structural_union()
        assert union.sum() == 25 + 2 * 24  # path: 24 undirected edges + loops

    def test_max_column_population_is_three(self):
        merged = merge_spatial(chain_skeleton_25(), np.ones((1, 1, 1)))
        assert len(decompose(merged.matrices[0, 0])) == 3

    def test_nineteen_nonzero_diagonals(self):
        union = chain_skeleton_25().structural_union()
        offs = diagonal_offsets(union)
        assert len(offs) == 19
        assert 0 in offs


def scanned_diagonal_offsets(pattern):
    """Reference: test each generalized diagonal d = column - row in turn."""
    J = pattern.shape[0]
    offs = []
    for d in range(-(J - 1), J):
        rows = np.arange(max(0, -d), min(J, J - d))
        if rows.size and np.any(np.abs(pattern[rows, rows + d]) > VALID_EPS):
            offs.append(d)
    return offs


class TestDiagonalOffsets:
    def test_matches_per_diagonal_scan(self):
        rng = np.random.default_rng(29)
        values = np.array([1.0, -1.0, 0.37, -2.5, 1e-13, -1e-13, 1e-12, 2e-12])
        for J in range(1, 31):
            for density in (0.05, 0.3, 0.9):
                hot = rng.uniform(size=(J, J)) < density
                pattern = np.where(hot, rng.choice(values, size=(J, J)), 0.0)
                got = diagonal_offsets(pattern)
                assert got == scanned_diagonal_offsets(pattern), (J, density)
                assert all(type(d) is int for d in got)

    def test_zero_and_sub_tolerance_patterns_have_no_offsets(self):
        assert diagonal_offsets(np.zeros((7, 7))) == []
        assert diagonal_offsets(np.full((7, 7), -1e-13)) == []
        assert diagonal_offsets(np.zeros((0, 0))) == []


def test_sparser_matrix_never_needs_more_pieces():
    rng = np.random.default_rng(3)
    M = np.where(rng.uniform(size=(8, 8)) < 0.7, rng.uniform(0.5, 1.5, (8, 8)), 0.0)
    m_full = len(decompose(M))
    sparser = M.copy()
    hot = np.argwhere(np.abs(sparser) > 0)
    for i, j in hot[:: 2]:
        sparser[i, j] = 0.0
    assert len(decompose(sparser)) <= m_full


def test_adjacency_json_round_trip():
    adj = AdjacencySet.from_edges(4, [[(0, 1), (1, 2)], [(2, 3)]])
    clone = AdjacencySet.from_json(adj.to_json())
    assert clone.partitions == 2
    for a, b in zip(adj.matrices, clone.matrices):
        np.testing.assert_array_equal(a, b)
