"""The integer box grouping both protocols share."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coded_rebalance import RngSpec, bin_removal, build_database, node_contents
from coded_rebalance.codeword import group_by_key, stable_key_order
from coded_rebalance.database import CHUNK, count_keys
from coded_rebalance.removal import boxes_for_class
from coded_rebalance.rng import STREAM_REMOVAL_BINNING

# Key spaces on both sides of each 16-bit radix digit boundary.
DENSE_KEY_SPACES = (1, 2, 255, 256, 2**16, 2**16 + 1, 3 * 2**16 + 5)
# Too large for dense offsets; only the sort order is checked.
WIDE_KEY_SPACES = (2**32 + 1, 2**40 + 3, 2**63)


@st.composite
def keyed(draw, spaces):
    """Keys drawn from a few distinct values, so ties are frequent."""
    num_keys = draw(st.sampled_from(spaces))
    pool = draw(st.lists(st.integers(0, num_keys - 1), min_size=1, max_size=8))
    keys = draw(st.lists(st.sampled_from(pool), max_size=300))
    dtype = draw(st.sampled_from([np.min_scalar_type(num_keys - 1), np.dtype(np.int64)]))
    return np.array(keys, dtype=dtype), num_keys


@settings(max_examples=150, deadline=None)
@given(case=keyed(DENSE_KEY_SPACES))
def test_group_by_key_is_stable_argsort_plus_bincount_offsets(case):
    keys, num_keys = case
    order, offsets = group_by_key(keys, num_keys)
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
    counts = np.bincount(keys.astype(np.int64), minlength=num_keys)
    assert np.array_equal(offsets, np.concatenate(([0], np.cumsum(counts))))


@settings(max_examples=100, deadline=None)
@given(case=keyed(WIDE_KEY_SPACES))
def test_stable_key_order_above_2_32(case):
    keys, num_keys = case
    assert np.array_equal(stable_key_order(keys, num_keys), np.argsort(keys, kind="stable"))


@pytest.mark.parametrize("num_keys", [0, 1, 2**16, 2**16 + 1])
def test_empty_input_gives_empty_boxes(num_keys):
    order, offsets = group_by_key(np.empty(0, dtype=np.uint8), num_keys)
    assert order.size == 0
    assert np.array_equal(offsets, np.zeros(num_keys + 1))


def test_key_outside_the_key_space_is_rejected():
    with pytest.raises(ValueError):
        group_by_key(np.array([0, 3], dtype=np.uint8), 3)


def test_count_keys_equals_bincount_across_chunks():
    keys = np.random.default_rng(5).integers(0, 7, size=3 * CHUNK + 5).astype(np.uint8)
    assert np.array_equal(count_keys(keys, 7), np.bincount(keys, minlength=7))
    assert np.array_equal(count_keys(keys[:0], 7), np.zeros(7))
    keys[-1] = 7  # out of range, in the last chunk only
    with pytest.raises(ValueError):
        count_keys(keys, 7)


def test_bin_removal_above_2_16_boxes_matches_a_reference_grouping():
    # K=20, r=5: C(19, 4) classes x 60 boxes = 232 560 box keys, two radix passes
    K, r, k, seed = 20, 5, 20, 4
    db = build_database(K, r, 3000, RngSpec(seed))
    directory = bin_removal(db, k, RngSpec(seed))
    assert directory.offsets.size - 1 > 2**16
    affected = node_contents(db, k)
    codes = RngSpec(seed).generator(STREAM_REMOVAL_BINNING).integers(
        0, (K - r) * (r - 1), size=affected.size
    )
    expected = defaultdict(list)
    for bit, code in zip(affected.tolist(), codes.tolist()):
        cls = tuple(n for n in db.nodes if n not in db.placement.node_set(bit))
        expected[boxes_for_class(db.nodes, k, cls)[code]].append(bit)
    for label, bits in expected.items():
        assert directory.packet_bits(label).tolist() == bits
        assert directory.label_of(bits[0]) == label
    assert sum(map(len, expected.values())) == len(directory) == affected.size
