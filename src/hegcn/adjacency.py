"""Normalized graph adjacencies, 1x1-conv merging, patterned decomposition.

The spatial step of a graph convolution multiplies joint-indexed features
by sum_p N_p * W_p[c_in, c_out], where N_p is the symmetrically normalized
partition adjacency.  Because the 1x1 convolution weight is a scalar per
(partition, channel pair), it merges into the adjacency values and the
whole spatial step costs a single plaintext-multiplication depth.

The merged layer keeps its factors: P weight slabs, P normalized
partitions and one batch-norm fold (``fold_bn``); kernels read the factors,
never the dense matrices.  For rotation-free encrypted evaluation the
shared support is decomposed into "patterned sparse" pieces with at most
one nonzero per column, given by the row of each piece's entry in every
column (``decompose``).  The number of pieces m equals the maximum column
population, so sparser adjacencies need fewer plaintext multiplications.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

#: Entries with |a| below this are structural zeros after merging.
VALID_EPS = 1e-12


def sym_normalize(a_tilde: np.ndarray) -> np.ndarray:
    """D^{-1/2} A~ D^{-1/2}; zero-degree nodes map to zero rows.

    Partition matrices need not touch every node, so zero degrees are legal.
    """
    a_tilde = np.asarray(a_tilde, dtype=np.float64)
    if a_tilde.ndim != 2 or a_tilde.shape[0] != a_tilde.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a_tilde.shape}")
    deg = a_tilde.sum(axis=1)
    d = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return a_tilde * d[:, None] * d[None, :]


@dataclass
class AdjacencySet:
    """Partitioned adjacency: one J x J matrix per partition, self-loops included.

    The normalized partitions and their structural union are computed once,
    at construction, and are read-only.
    """

    matrices: list[np.ndarray]

    def __post_init__(self):
        self.matrices = [np.asarray(m, dtype=np.float64) for m in self.matrices]
        if not self.matrices:
            raise ValueError("need at least one partition")
        J = self.matrices[0].shape[0]
        for m in self.matrices:
            if m.shape != (J, J):
                raise ValueError("all partition matrices must be J x J")
        if np.all(np.abs(sum(self.matrices).diagonal()) < VALID_EPS):
            raise ValueError("self-loop missing: union diagonal is all zero")
        self._normalized = np.stack([sym_normalize(m) for m in self.matrices])
        self._union = (np.abs(self._normalized) > VALID_EPS).any(axis=0).astype(float)
        self._normalized.flags.writeable = self._union.flags.writeable = False

    @property
    def J(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def partitions(self) -> int:
        return len(self.matrices)

    def normalized(self) -> np.ndarray:
        """The normalized partitions, (partitions, J, J)."""
        return self._normalized

    def structural_union(self) -> np.ndarray:
        """0/1 support of the merged matrix (shared across channel pairs)."""
        return self._union

    @classmethod
    def from_edges(cls, J: int, partitions) -> "AdjacencySet":
        """Build from per-partition edge lists; edges are undirected pairs,
        and partition 0 also gets the self loops."""
        mats = []
        for p, edges in enumerate(partitions):
            m = np.zeros((J, J))
            for i, j in edges:
                if not (0 <= i < J and 0 <= j < J):
                    raise ValueError(f"edge ({i},{j}) outside 0..{J - 1}")
                m[i, j] = 1.0
                m[j, i] = 1.0
            if p == 0:
                m += np.eye(J)
            mats.append(m)
        return cls(mats)

    @classmethod
    def from_json(cls, text: str) -> "AdjacencySet":
        spec = json.loads(text)
        return cls.from_edges(spec["J"], [p["edges"] for p in spec["partitions"]])

    def to_json(self) -> str:
        parts = []
        for m in self.matrices:
            hot = np.argwhere((np.abs(m) > VALID_EPS) & ~np.eye(self.J, dtype=bool))
            edges = sorted({(int(min(i, j)), int(max(i, j))) for i, j in hot})
            parts.append({"edges": [list(e) for e in edges]})
        return json.dumps({"J": self.J, "partitions": parts}, sort_keys=True)


def decompose(M: np.ndarray) -> np.ndarray:
    """Split M into m patterned pieces, m = max nonzeros in any column.

    Returns the (m, J) piece rows: ``rows[i, k]`` is the row of piece i's
    entry in column k, -1 where that column of the piece is empty, and the
    entry itself is ``M[rows[i, k], k]``.  Column k's nonzeros, sorted by
    row index, go to pieces 0, 1, ... in order, so the pieces reconstruct
    M exactly and any sparser matrix never needs more pieces.  The zero
    matrix decomposes to no pieces, shape (0, J).
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    hot = np.abs(M) > VALID_EPS
    rows = np.full((int(hot.sum(axis=0).max(initial=0)), len(M)), -1, dtype=np.int64)
    i, k = np.nonzero(hot)
    rows[np.cumsum(hot, axis=0)[i, k] - 1, k] = i
    return rows


def fold_bn(bias, bn: dict | None, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel (scale, shift) of a conv bias then inference batch norm
    (``bn``: arrays gamma, beta, mean, var and scalar eps).  Without ``bn``
    the scale is ones and the shift the bias, or zeros when there is none."""
    shift = np.zeros(n) if bias is None else np.array(bias, dtype=np.float64)
    if bn is None:
        return np.ones(n), shift
    var = np.asarray(bn["var"], dtype=np.float64)
    scale = np.asarray(bn["gamma"], dtype=np.float64) / np.sqrt(var + float(bn.get("eps", 1e-5)))
    return scale, (shift - np.asarray(bn["mean"], dtype=np.float64)) * scale + np.asarray(bn["beta"], dtype=np.float64)


@dataclass
class MergedSpatialMatrix:
    """Adjacency, 1x1 conv and batch norm of a spatial layer, as factors.

    Channel pair (c, o) mixes joints by sum_p weights[p, c, o] * parts[p], a
    J x J matrix in "output joint row" orientation (applied on the left of a
    joint-indexed column vector).  ``weights`` carries the batch-norm scale,
    ``bias`` the folded shift, ``pattern`` the 0/1 support every channel
    pair shares (by default the union of the parts' supports).
    """

    weights: np.ndarray  # (P, C_in, C_out)
    parts: np.ndarray  # (P, J, J)
    bias: np.ndarray  # (C_out,)
    pattern: np.ndarray = field(default=None)  # (J, J)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.parts = np.asarray(self.parts, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 3 or self.parts.ndim != 3 or self.parts.shape[1] != self.parts.shape[2]:
            raise ValueError("weights must have shape (P, C_in, C_out) and parts (P, J, J)")
        if self.weights.shape[0] != self.parts.shape[0]:
            raise ValueError(f"{self.weights.shape[0]} weight slabs for {self.parts.shape[0]} partitions")
        if self.bias.shape != (self.c_out,):
            raise ValueError("bias must be one value per output channel")
        if self.pattern is None:
            self.pattern = (np.abs(self.parts) > VALID_EPS).any(axis=0).astype(float)

    @classmethod
    def from_dense(cls, mats: np.ndarray, bias: np.ndarray) -> "MergedSpatialMatrix":
        """Arbitrary (C_in, C_out, J, J) matrices as J*J one-hot parts, with
        weights[k*J + j] = mats[:, :, k, j]; the pattern is their support."""
        mats = np.asarray(mats, dtype=np.float64)
        c_in, c_out, J, _ = mats.shape
        weights = mats.reshape(c_in, c_out, J * J).transpose(2, 0, 1)
        pattern = (np.abs(mats) > VALID_EPS).any(axis=(0, 1)).astype(float)
        return cls(weights, np.eye(J * J).reshape(J * J, J, J), bias, pattern)

    @property
    def c_in(self) -> int:
        return self.weights.shape[1]

    @property
    def c_out(self) -> int:
        return self.weights.shape[2]

    @property
    def J(self) -> int:
        return self.parts.shape[1]

    @property
    def matrices(self) -> np.ndarray:
        """Dense read-only (C_in, C_out, J, J) view of the factors, for oracles."""
        dense = np.einsum("pco,pkj->cokj", self.weights, self.parts)
        dense.flags.writeable = False
        return dense

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Plaintext spatial conv on (B, C_in, T, J); returns (B, C_out, T, J)."""
        out = np.einsum("iokj,bitj->botk", self.matrices, x)
        return out + self.bias[None, :, None, None]


def merge_spatial(
    adjs: AdjacencySet, weights: np.ndarray, bias: np.ndarray | None = None, bn: dict | None = None
) -> MergedSpatialMatrix:
    """Fold sum_p N_p * W_p[c_in, c_out] plus batch norm into one layer.

    ``weights`` has shape (partitions, C_in, C_out); ``bn`` is as for
    ``fold_bn``.  The scale folds into the weight slabs, the shift into the
    bias; the normalized partitions are shared, not copied.
    """
    weights = np.asarray(weights, dtype=np.float64)
    scale, shift = fold_bn(bias, bn, weights.shape[-1])
    return MergedSpatialMatrix(weights * scale, adjs.normalized(), shift, adjs.structural_union())


def chain_skeleton_25() -> AdjacencySet:
    """Synthetic 25-node stand-in for a skeleton graph (single partition).

    This is a reconstruction, not a real capture-rig skeleton: a 25-node
    chain whose labels wander so that edge offsets |i - j| cover 1..9.
    With self-loops its merged matrix has at most 3 nonzeros per column and
    exactly 19 distinct nonzero flattened-row offsets, the two quantities
    the sparse evaluation path cares about.
    """
    order = list(range(16)) + [24, 16, 23, 17, 22, 18, 21, 19, 20]
    edges = [(order[i], order[i + 1]) for i in range(len(order) - 1)]
    return AdjacencySet.from_edges(25, [edges])


def diagonal_offsets(pattern: np.ndarray) -> list[int]:
    """Nonzero generalized-diagonal offsets d = column - row of a matrix.

    These are the rotation amounts a row-major diagonal-method matrix
    multiplication needs; the offset-0 diagonal rotates for free.
    """
    rows, cols = np.nonzero(np.abs(np.asarray(pattern)) > VALID_EPS)
    return sorted(set((cols - rows).tolist()))
