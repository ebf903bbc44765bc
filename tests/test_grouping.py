"""The integer box grouping both protocols share."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coded_rebalance import (
    RemovalBoxLabel,
    RngSpec,
    bin_addition,
    bin_removal,
    build_database,
    decode_removal,
    encode_removal,
    exclusive_group,
    node_contents,
)
from coded_rebalance.codeword import group_bits, packing
from coded_rebalance.database import CHUNK, count_keys, gather
from coded_rebalance.rng import STREAM_ADDITION_BINNING, STREAM_REMOVAL_BINNING

from box_reference import removal_boxes

# Key spaces on both sides of 8- and 16-bit key dtypes.
DENSE_KEY_SPACES = (1, 2, 255, 256, 2**16, 2**16 + 1, 3 * 2**16 + 5)


@st.composite
def grouped(draw, packed_widths):
    """Ascending distinct bits whose largest bit, packed beside the key space,
    takes one of ``packed_widths`` bits; keys drawn from a few distinct
    values, so ties are frequent."""
    num_keys = draw(st.sampled_from(DENSE_KEY_SPACES))
    key_width = (num_keys - 1).bit_length()
    # bits are intp, so the largest is below 2**63
    shift = min(draw(st.sampled_from(packed_widths)) - key_width, 63)
    top = draw(st.integers(1 << max(shift - 1, 0), (1 << shift) - 1)) if shift else 0
    below = draw(st.lists(st.integers(0, max(top - 1, 0)), max_size=300, unique=True))
    bits = np.array(sorted({*below, top}), dtype=np.intp)
    pool = draw(st.lists(st.integers(0, num_keys - 1), min_size=1, max_size=8))
    keys = draw(st.lists(st.sampled_from(pool), min_size=bits.size, max_size=bits.size))
    dtype = draw(st.sampled_from([np.min_scalar_type(num_keys - 1), np.dtype(np.int64)]))
    return bits, np.array(keys, dtype=dtype), num_keys


def narrowest_unsigned(largest):
    return next(np.dtype(d) for d in (np.uint8, np.uint16, np.uint32, np.uint64)
                if largest <= np.iinfo(d).max)


def group(bits, keys, num_keys):
    """``group_bits`` of the bits packed with their keys, as ``packing``
    lays them out for bits up to the largest."""
    shift, dtype = packing(int(bits.max(initial=0)) + 1, num_keys)
    words = keys.astype(dtype) << shift
    words |= bits.astype(dtype)
    return group_bits(words, shift, num_keys)


def reference_offsets(keys, num_keys):
    counts = np.bincount(keys.astype(np.int64), minlength=num_keys)
    return np.concatenate(([0], np.cumsum(counts)))


def assert_grouped(bits, keys, num_keys):
    box_bits, offsets = group(bits, keys, num_keys)
    assert box_bits.dtype == narrowest_unsigned(int(bits.max(initial=0)))
    assert np.array_equal(box_bits, bits[np.argsort(keys, kind="stable")])
    assert np.array_equal(offsets, reference_offsets(keys, num_keys))


@settings(max_examples=200, deadline=None)
@given(case=grouped(packed_widths=(18, 19, 20, 31, 32, 33)))
def test_group_bits_is_stable_argsort_plus_bincount_offsets(case):
    # packed widths on both sides of the uint32/uint64 line
    assert_grouped(*case)


@settings(max_examples=100, deadline=None)
@given(case=grouped(packed_widths=(52, 60, 64)))
def test_group_bits_above_2_32(case):
    # bits of 2**32 and above, packed into uint64
    bits, keys, num_keys = case
    assert bits[-1] >= 2**32
    assert_grouped(bits, keys, num_keys)


def test_group_bits_rejects_pairs_wider_than_64_bits():
    bits = np.array([3, 2**62], dtype=np.intp)
    keys = np.array([1, 0], dtype=np.uint8)
    assert group(bits, keys, 2)[0].tolist() == [2**62, 3]  # 64 bits: fits
    with pytest.raises(ValueError):
        group(bits, keys, 3)
    with pytest.raises(ValueError):
        packing(2**62 + 1, 3)


@pytest.mark.parametrize("num_keys", [0, 1, 2**16, 2**16 + 1])
def test_empty_input_gives_empty_boxes(num_keys):
    box_bits, offsets = group(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.uint8), num_keys)
    assert box_bits.size == 0 and box_bits.dtype == np.uint8
    assert np.array_equal(offsets, np.zeros(num_keys + 1))


@pytest.mark.parametrize("largest,num_keys,word,dtype", [
    (99_999, 60_060, 33, np.uint32),  # remove-many-sets: a uint64 word, uint32 bits
    (65_535, 65_536, 32, np.uint16),  # a uint32 word, uint16 bits
    (65_536, 65_536, 33, np.uint32),
    (2**24 - 1, 60, 30, np.uint32),  # remove-wide: a uint32 word, uint32 bits
    (2**32, 2, 34, np.uint64),
])
def test_packed_words_on_both_sides_of_32_bits_narrow_to_the_largest_bit(
    largest, num_keys, word, dtype
):
    assert largest.bit_length() + (num_keys - 1).bit_length() == word
    assert packing(largest + 1, num_keys) == (
        largest.bit_length(), np.dtype(np.uint32 if word <= 32 else np.uint64)
    )
    rng = np.random.default_rng(largest)
    below = rng.choice(min(largest, 10**6), size=5000, replace=False)
    bits = np.append(np.sort(below), largest).astype(narrowest_unsigned(largest))
    keys = rng.integers(0, num_keys, size=bits.size).astype(np.min_scalar_type(num_keys - 1))
    box_bits, offsets = group(bits, keys, num_keys)
    assert box_bits.dtype == dtype
    assert np.array_equal(box_bits, bits[np.argsort(keys, kind="stable")])
    assert np.array_equal(offsets, reference_offsets(keys, num_keys))


@pytest.mark.parametrize("F,num_keys,word", [
    (2**20, 2**12, np.uint32),  # the largest word is 2**32 - 1
    (2**20 + 1, 2**12, np.uint64),  # one more file bit: 33-bit words
    (2**20, 2**12 + 1, np.uint64),  # one more key: 33-bit words
    (2**16, 2**16, np.uint32),  # F = 2**k: uint16 bits in 32-bit words
    (2**16 + 1, 2**16, np.uint64),  # F = 2**k + 1: uint32 bits in 33-bit words
    (2**16 + 1, 2**15, np.uint32),  # and in 32-bit words
])
def test_words_of_32_and_33_bits_at_f_a_power_of_two_and_one_more(F, num_keys, word):
    shift, dtype = packing(F, num_keys)
    assert shift == (F - 1).bit_length() and dtype == word
    rng = np.random.default_rng(F + num_keys)
    # the last file bit and the largest key, so the largest word is all ones
    bits = np.append(np.sort(rng.choice(F - 1, size=5000, replace=False)), F - 1)
    keys = rng.integers(0, num_keys, size=bits.size)
    keys[-1] = num_keys - 1
    words = keys.astype(dtype) << shift
    words |= bits.astype(dtype)
    assert int(words.max()) == (num_keys - 1) << shift | (F - 1)  # 2**32 - 1 in the first case
    box_bits, offsets = group_bits(words, shift, num_keys)
    assert box_bits.dtype == narrowest_unsigned(F - 1)
    assert np.array_equal(box_bits, bits[np.argsort(keys, kind="stable")])
    assert np.array_equal(offsets, reference_offsets(keys, num_keys))
    # the words are sorted in place; box_bits is them when no narrowing is needed
    assert np.shares_memory(box_bits, words) == (box_bits.dtype == dtype)
    if num_keys.bit_length() + shift <= 8 * dtype.itemsize:  # a key of num_keys fits the word
        keys[-1] = num_keys  # out of range, in the last word
        words = keys.astype(dtype) << shift
        words |= bits.astype(dtype)
        with pytest.raises(ValueError):
            group_bits(words, shift, num_keys)


@pytest.mark.parametrize("F,dtype", [(256, np.uint8), (2**16, np.uint16), (2**16 + 1, np.uint32)])
def test_directory_bits_are_stored_in_the_narrowest_dtype_of_the_last_bit(F, dtype):
    db = build_database(6, 3, F, RngSpec(7))
    # a removed node that stores bit F-1, so it is the largest grouped bit
    removal = bin_removal(db, db.placement.node_set(F - 1)[0], RngSpec(7))
    assert removal.box_bits.max() == F - 1
    assert removal.box_bits.dtype == dtype
    addition = bin_addition(db, RngSpec(7))
    assert addition.box_bits.dtype == dtype
    assert addition.codes.dtype == np.uint8


def test_public_bit_indices_stay_intp():
    db = build_database(6, 3, 2000, RngSpec(3))
    directory = bin_removal(db, 6, RngSpec(3))
    assert directory.box_bits.dtype == np.uint16
    codeword = next(cw for cw in encode_removal(db, directory) if cw.payload_bits)
    label = codeword.constituents[0][0]
    assert directory.packet_bits(label).dtype == np.intp
    bits, _ = decode_removal(label.target, codeword, db, directory)
    assert bits.dtype == np.intp and bits.size
    assert node_contents(db, 6).dtype == np.intp
    assert exclusive_group(db, (4, 5, 6)).dtype == np.intp


@pytest.mark.parametrize("F", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize("dtype,size", [(bool, 7), (np.uint8, 200), (np.uint16, 300)])
def test_gather_equals_the_whole_array_fancy_index(F, dtype, size):
    rng = np.random.default_rng(F)
    table = rng.integers(0, 2 if dtype is bool else np.iinfo(dtype).max, size=size).astype(dtype)
    index = rng.integers(0, size, size=F).astype(np.min_scalar_type(size - 1))
    out = gather(table, index)
    assert out.dtype == table.dtype
    assert np.array_equal(out, table[index])


def test_bin_removal_across_file_chunks_equals_one_whole_draw():
    # K=7, r=3: 15 of 35 support sets hold node 7, 8 boxes per class
    K, r, k, F, seed = 7, 3, 7, 3 * CHUNK + 5, 8
    db = build_database(K, r, F, RngSpec(seed))
    directory = bin_removal(db, k, RngSpec(seed))
    member = db.placement.support_membership(k)
    affected = np.flatnonzero(member[db.placement.set_index])
    codes = RngSpec(seed).generator(STREAM_REMOVAL_BINNING).integers(
        0, (K - r) * (r - 1), size=affected.size
    )
    keys = (np.cumsum(member) - 1)[db.placement.set_index[affected]] * (K - r) * (r - 1) + codes
    assert len(directory) == affected.size
    assert np.array_equal(directory.box_bits, affected[np.argsort(keys, kind="stable")])
    assert np.array_equal(directory.offsets, reference_offsets(keys, directory.offsets.size - 1))


def test_bin_addition_across_file_chunks_equals_one_whole_draw():
    K, r, F, seed = 5, 2, 3 * CHUNK + 5, 8
    db = build_database(K, r, F, RngSpec(seed))
    directory = bin_addition(db, RngSpec(seed))
    codes = RngSpec(seed).generator(STREAM_ADDITION_BINNING).integers(
        0, K + 1, size=F, dtype=np.int16
    )
    moving = np.flatnonzero(codes < r)
    keys = db.placement.set_index[moving].astype(np.int64) * r + codes[moving]
    assert np.array_equal(directory.codes, codes)
    assert np.array_equal(directory.box_bits, moving[np.argsort(keys, kind="stable")])
    assert np.array_equal(directory.offsets, reference_offsets(keys, len(db.placement.support) * r))


def test_key_outside_the_key_space_is_rejected():
    with pytest.raises(ValueError):
        group(np.array([4, 9]), np.array([0, 3], dtype=np.uint8), 3)


def test_count_keys_equals_bincount_across_chunks():
    keys = np.random.default_rng(5).integers(0, 7, size=3 * CHUNK + 5).astype(np.uint8)
    assert np.array_equal(count_keys(keys, 7), np.bincount(keys, minlength=7))
    assert np.array_equal(count_keys(keys[:0], 7), np.zeros(7))
    keys[-1] = 7  # out of range, in the last chunk only
    with pytest.raises(ValueError):
        count_keys(keys, 7)


def test_bin_removal_above_2_16_boxes_matches_a_reference_grouping():
    # K=20, r=5: C(19, 4) classes x 60 boxes = 232 560 box keys, an 18-bit key space
    K, r, k, seed = 20, 5, 20, 4
    db = build_database(K, r, 3000, RngSpec(seed))
    directory = bin_removal(db, k, RngSpec(seed))
    assert directory.offsets.size - 1 > 2**16
    affected = node_contents(db, k)
    per_class = (K - r) * (r - 1)
    codes = RngSpec(seed).generator(STREAM_REMOVAL_BINNING).integers(
        0, per_class, size=affected.size
    )
    boxes = [RemovalBoxLabel(b["target"], b["group"], b["sender"])
             for b in removal_boxes(db.nodes, k, r)]
    class_boxes = {  # a class is a box's target plus its remainder
        tuple(sorted((box.target, *box.remainder))): boxes[i : i + per_class]
        for i, box in enumerate(boxes) if i % per_class == 0
    }
    expected = defaultdict(list)
    for bit, code in zip(affected.tolist(), codes.tolist()):
        cls = tuple(n for n in db.nodes if n not in db.placement.node_set(bit))
        expected[class_boxes[cls][code]].append(bit)
    for label, bits in expected.items():
        assert directory.packet_bits(label).tolist() == bits
        assert directory.label_of(bits[0]) == label
    assert sum(map(len, expected.values())) == len(directory) == affected.size
