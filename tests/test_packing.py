import itertools

import numpy as np
import pytest

from hegcn.hesim import SimContext
from hegcn.packing import (
    AMA,
    GraphTensor,
    PackingError,
    PackingLayout,
    ama_layout,
    ama_pack,
    ama_unpack,
    giant_step_coverage,
    next_pow2,
    rowmajor_layout,
    rowmajor_pack,
    rowmajor_unpack,
)


def ctx(slots, levels=3):
    return SimContext(slot_count=slots, max_level=levels)


class TestAmaPack:
    def test_single_channel_replicates(self):
        # one 2-frame block padded to 2 then stacked twice to fill 4 slots
        c = ctx(4)
        ct, layout = ama_pack(GraphTensor(np.array([5.0, 7.0]).reshape(1, 1, 2, 1)), c)
        assert ct.rows == 1
        np.testing.assert_array_equal(ct.slots[0], [5, 7, 5, 7])
        assert layout.replication == 2

    def test_two_channels_concatenate(self):
        c = ctx(4)
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        ct, layout = ama_pack(GraphTensor(x), c)
        np.testing.assert_array_equal(ct.slots[0], [1, 2, 3, 4])
        assert layout.channels_per_ct == 2

    def test_pads_to_power_of_two(self):
        c = ctx(8)
        ct, layout = ama_pack(GraphTensor(np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3, 1)), c)
        assert layout.pad_bt == 4
        np.testing.assert_array_equal(ct.slots[0], [1, 2, 3, 0, 1, 2, 3, 0])

    def test_block_too_large(self):
        c = ctx(4)
        with pytest.raises(PackingError, match="exceed"):
            ama_pack(GraphTensor(np.zeros((1, 1, 8, 1))), c)

    def test_ct_count_formula(self):
        c = ctx(16)
        x = GraphTensor.random((1, 6, 4, 3), seed=1)  # pad 4, U = min(4, 6) = 4
        ct, layout = ama_pack(x, c)
        assert layout.channels_per_ct == 4
        assert layout.cts_per_joint == 2
        assert ct.rows == 3 * 2

    def test_batch_major_flattening(self):
        c = ctx(8)
        x = np.arange(8.0).reshape(2, 1, 4, 1)  # b outer, t inner
        ct, _ = ama_pack(GraphTensor(x), c)
        np.testing.assert_array_equal(ct.slots[0], np.arange(8.0))


class TestAmaUnpack:
    def test_round_trip(self):
        c = ctx(64)
        x = GraphTensor.random((2, 3, 5, 4), seed=3)
        ct, layout = ama_pack(x, c)
        np.testing.assert_array_equal(ama_unpack(ct, layout).data, x.data)

    def test_zero_tensor(self):
        c = ctx(16)
        x = GraphTensor.zeros((1, 2, 4, 2))
        ct, layout = ama_pack(x, c)
        np.testing.assert_array_equal(ama_unpack(ct, layout).data, x.data)

    def test_replica_divergence_detected(self):
        c = ctx(8)
        x = GraphTensor(np.array([1.0, 2.0]).reshape(1, 1, 2, 1))
        ct, layout = ama_pack(x, c)
        slots = np.array(ct.slots)
        slots[0, 5] += 1e-3  # corrupt the second copy
        corrupted = c.encrypt(slots)
        with pytest.raises(PackingError, match="replica divergence"):
            ama_unpack(corrupted, layout)

    def test_layout_mismatch(self):
        c = ctx(16)
        ct, layout = ama_pack(GraphTensor.random((1, 2, 4, 2), seed=0), c)
        with pytest.raises(PackingError):
            ama_unpack(c._new_ct(ct.slots[:-1], ct.level), layout)


class TestRowMajor:
    def test_flatten_rows(self):
        c = ctx(8)
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        ct, _ = rowmajor_pack(GraphTensor(x), c)
        np.testing.assert_array_equal(ct.slots[0], [1, 2, 3, 4, 0, 0, 0, 0])

    def test_count_is_batch_times_channels(self):
        c = ctx(16)
        ct, _ = rowmajor_pack(GraphTensor.random((2, 3, 2, 2), seed=1), c)
        assert ct.rows == 6

    def test_wasted_slots_accounting(self):
        layout = rowmajor_layout((1, 64, 256, 25), 8192)
        assert layout.wasted_slots == 1792

    def test_overflow(self):
        with pytest.raises(PackingError):
            rowmajor_layout((1, 1, 16, 16), 128)

    def test_round_trip(self):
        c = ctx(32)
        x = GraphTensor.random((2, 2, 4, 5), seed=7)
        ct, layout = rowmajor_pack(x, c)
        np.testing.assert_array_equal(rowmajor_unpack(ct, layout).data, x.data)


def test_round_trip_grid():
    """unpack(pack(x)) == x over the full small-dimension grid, both layouts."""
    rng = np.random.default_rng(0)
    for B, C, T, J in itertools.product((1, 2, 5, 8), (1, 3, 8), (2, 3, 4, 7, 8), (1, 4, 8)):
        slots = next_pow2(max(next_pow2(B * T) * 2, T * J))
        c = SimContext(slots, max_level=1)
        x = GraphTensor(rng.uniform(-1, 1, (B, C, T, J)))
        a_ct, a_layout = ama_pack(x, c)
        assert a_ct.rows == J * a_layout.cts_per_joint
        np.testing.assert_array_equal(ama_unpack(a_ct, a_layout).data, x.data)
        r_ct, r_layout = rowmajor_pack(x, c)
        assert r_ct.rows == B * C
        np.testing.assert_array_equal(rowmajor_unpack(r_ct, r_layout).data, x.data)


def test_ama_ct_count_constant_in_batch_while_capacity_permits():
    # for fixed C,T,J the AMA count stays J*ceil(C/U); row-major grows with B
    C, T, J, slots = 4, 4, 3, 64
    ama_counts, rm_counts = [], []
    for B in (1, 2, 4):
        layout = ama_layout((B, C, T, J), slots)
        ama_counts.append(layout.ct_count())
        rm_counts.append(rowmajor_layout((B, C, T, J), slots).ct_count())
    assert ama_counts == [3, 3, 3]  # U stays >= C
    assert rm_counts == [4, 8, 16]  # B * C


def test_slot_map_is_bijective_on_occupied_slots():
    slots = 32
    layout = ama_layout((2, 3, 3, 2), slots)
    seen = {}
    for ct_i in range(layout.ct_count()):
        for s in range(slots):
            coord = layout.coord_of(ct_i, s)
            if coord is None:
                continue
            assert coord not in seen, "duplicate coordinate in first-copy map"
            seen[coord] = (ct_i, s)
            assert layout.slot_of(*coord) == (ct_i, s)
    B, C, T, J = 2, 3, 3, 2
    assert len(seen) == B * C * T * J


def test_layout_json_round_trip():
    layout = ama_layout((1, 4, 8, 5), 64)
    clone = PackingLayout.from_json(layout.to_json())
    assert clone == layout


def test_tensor_file_round_trip(tmp_path):
    x = GraphTensor.random((2, 3, 4, 5), seed=11)
    path = tmp_path / "x.tensor"
    x.save(path)
    np.testing.assert_array_equal(GraphTensor.load(path).data, x.data)


def test_tensor_file_header_is_json_line(tmp_path):
    import json

    x = GraphTensor.zeros((1, 1, 2, 2))
    path = tmp_path / "x.tensor"
    x.save(path)
    with open(path, "rb") as fp:
        header = json.loads(fp.readline())
    assert header == {"dims": [1, 1, 2, 2], "dtype": "f64", "order": "bctj"}


def scanned_giant_step_coverage(cap, n):
    """Reference: the greedy scan, one position at a time, deltas in turn
    (the channels a position has received are the bits of ``seen``)."""
    served = {}  # delta -> the positions it serves, keyed as the scan meets it
    for p in range(cap):
        seen, delta, block = 0, 0, p
        while seen != (1 << n) - 1:
            bit = 1 << block % n
            if not seen & bit:
                seen |= bit
                served.setdefault(delta, []).append(p)
            delta += 1
            block = (block + 1) % cap
    masks = {delta: np.zeros(cap, dtype=bool) for delta in served}
    for delta, ps in served.items():
        masks[delta][ps] = True
    return masks


def test_giant_step_coverage_matches_the_greedy_scan():
    """Same deltas in the same key order, same masks, for every cap up to
    64 and every group size up to it, ragged ones included."""
    for cap in range(1, 65):
        for n in range(1, cap + 1):
            got, want = giant_step_coverage(cap, n), scanned_giant_step_coverage(cap, n)
            assert list(got) == list(want), (cap, n)
            for delta, mask in want.items():
                assert got[delta].dtype == bool and np.array_equal(got[delta], mask), (cap, n, delta)
