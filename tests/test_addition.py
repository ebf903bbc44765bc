"""Node-addition protocol: binning, handoffs, and the commit."""

import math
from itertools import combinations

import numpy as np
import pytest

from coded_rebalance import (
    AdditionBoxLabel,
    Database,
    DirectoryMismatch,
    InvalidLabel,
    PlacementMap,
    RngSpec,
    apply_addition_rebalance,
    bin_addition,
    build_database,
    encode_addition,
    node_storage_counts,
)
from coded_rebalance.rng import STREAM_ADDITION_BINNING

from box_reference import addition_boxes, table_boxes


def class_labels(directory, cls):
    """The labels of one class's move boxes, in key order."""
    return [lab for lab in directory.labels if lab.bit_class == cls]


def test_box_set_for_one_class():
    # class {2,3} with 4 nodes: movers 1 and 4; stays take no box
    directory = bin_addition(build_database(4, 2, 100, RngSpec(88)), RngSpec(88))
    labels = class_labels(directory, (2, 3))
    assert labels == [AdditionBoxLabel((2, 3), 1), AdditionBoxLabel((2, 3), 4)]


@pytest.mark.parametrize("K,r", [(4, 2), (5, 3), (6, 3), (4, 4), (5, 1)])
def test_move_and_stay_counts_per_class(K, r):
    cls = tuple(range(1, K - r + 1))
    # of the K+1 codes, r name a mover and the other K-r+1 mean stay
    db = build_database(K, r, 3000, RngSpec(89))
    directory = bin_addition(db, RngSpec(89))
    labels = class_labels(directory, cls)
    assert len(labels) == r
    assert {lab.node for lab in labels} == set(range(K - r + 1, K + 1))
    assert set(np.unique(directory.codes).tolist()) == set(range(K + 1))
    first_bit = {c: int(np.flatnonzero(directory.codes == c)[0]) for c in range(K + 1)}
    stays = [c for c, bit in first_bit.items() if directory.label_of(bit) is None]
    assert stays == list(range(r, K + 1))


@pytest.mark.parametrize("K", range(1, 8))
def test_box_table_equals_a_straight_line_enumeration(K):
    # every r at K <= 7: r = 1, and r = K (empty classes) included
    for r in range(1, K + 1):
        directory = bin_addition(build_database(K, r, 60, RngSpec(K)), RngSpec(K))
        boxes = addition_boxes(directory.placement.nodes, r)
        assert table_boxes(directory) == boxes, r
        assert directory.labels == tuple(AdditionBoxLabel(b["group"], b["sender"]) for b in boxes)
        assert len(boxes) == directory.offsets.size - 1


def test_labels_of_one_class_share_one_class_tuple():
    directory = bin_addition(build_database(5, 3, 200, RngSpec(3)), RngSpec(3))
    labels = directory.labels
    for first in range(0, len(labels), 3):
        assert len({id(lab.bit_class) for lab in labels[first : first + 3]}) == 1


def test_rows_equal_the_class_sort_at_k12():
    # senders, then classes (the groups) lexicographically
    directory = bin_addition(build_database(12, 4, 100, RngSpec(5)), RngSpec(5))
    classes = np.array(directory.groups)
    by_class = np.lexsort((*classes.T[::-1], directory.table["sender"]))
    assert np.array_equal(directory.rows, by_class[:, None])


def test_binning_covers_every_bit_once():
    db = build_database(4, 2, 5000, RngSpec(90))
    directory = bin_addition(db, RngSpec(90))
    assert len(directory) == 5000
    moved = np.concatenate([directory.packet_bits(lab) for lab in directory.labels])
    stayed = np.flatnonzero(directory.codes >= 2)
    assert np.array_equal(np.sort(np.concatenate([moved, stayed])), np.arange(5000))


def test_box_choice_is_uniform_within_class():
    # each of the K+1 codes is picked with probability 1/5
    F = 10**6
    db = build_database(4, 2, F, RngSpec(91))
    directory = bin_addition(db, RngSpec(91))
    counts = np.bincount(directory.codes, minlength=5)
    sigma = math.sqrt(F * 0.2 * 0.8)
    assert np.all(np.abs(counts - F / 5) <= 4 * sigma)


def test_label_of_agrees_with_groups_and_stays():
    db = build_database(4, 2, 300, RngSpec(92))
    directory = bin_addition(db, RngSpec(92))
    for label in directory.labels:
        for bit in directory.packet_bits(label):
            assert directory.label_of(int(bit)) == label
    stay_bits = np.flatnonzero(directory.codes >= 2)
    assert stay_bits.size
    assert all(directory.label_of(int(bit)) is None for bit in stay_bits)
    assert np.array_equal(np.sort(directory.box_bits), np.flatnonzero(directory.codes < 2))


def test_label_of_rejects_a_bit_outside_the_file():
    F = 300
    directory = bin_addition(build_database(4, 2, F, RngSpec(93)), RngSpec(93))
    for bit in (-1, -F, F, 2**40):
        with pytest.raises(KeyError):
            directory.label_of(bit)


def test_stay_boxes_hold_no_packets():
    db = build_database(4, 2, 100, RngSpec(93))
    directory = bin_addition(db, RngSpec(93))
    stay_bits = np.flatnonzero(directory.codes >= 2)
    assert stay_bits.size and not np.isin(stay_bits, directory.box_bits).any()
    # the newcomer and the class's own nodes name no move box
    for node in (5, 2, 3):
        with pytest.raises(InvalidLabel):
            directory.packet_bits(AdditionBoxLabel((2, 3), node))


def test_node_one_transmits_its_three_classes():
    db = build_database(4, 2, 4000, RngSpec(94))
    codewords = encode_addition(db, bin_addition(db, RngSpec(94)))
    groups = sorted(cw.group for cw in codewords if cw.sender == 1)
    assert groups == [(2, 3), (2, 4), (3, 4)]


@pytest.mark.parametrize("K,r", [(4, 2), (5, 3), (6, 3), (3, 1), (4, 4)])
def test_codeword_count_matches_schedule(K, r):
    db = build_database(K, r, 600, RngSpec(95))
    codewords = encode_addition(db, bin_addition(db, RngSpec(95)))
    expected = sum(
        1
        for sender in range(1, K + 1)
        for _ in combinations([n for n in range(1, K + 1) if n != sender], K - r)
    )
    assert len(codewords) == expected == K * math.comb(K - 1, K - r)


def test_payloads_are_raw_file_values():
    db = build_database(4, 2, 3000, RngSpec(96))
    directory = bin_addition(db, RngSpec(96))
    for cw in encode_addition(db, directory):
        label, length = cw.constituents[0]
        bits = directory.packet_bits(label)
        assert length == bits.size == cw.payload_bits
        assert np.array_equal(cw.payload, db.file.values[bits])


def test_empty_packet_gives_zero_length_record():
    db = build_database(4, 2, 1, RngSpec(97))
    codewords = encode_addition(db, bin_addition(db, RngSpec(97)))
    assert len(codewords) == 12
    assert sum(1 for c in codewords if c.payload_bits == 0) >= 11


def test_apply_new_node_stores_exactly_the_transmissions():
    db = build_database(4, 2, 20000, RngSpec(98))
    new_db, codewords = apply_addition_rebalance(db, RngSpec(98))
    assert new_db.nodes == (1, 2, 3, 4, 5)
    total = sum(c.payload_bits for c in codewords)
    assert node_storage_counts(new_db)[5] == total


def test_apply_moves_and_stays_follow_the_directory():
    db = build_database(4, 2, 4000, RngSpec(99))
    directory = bin_addition(db, RngSpec(99))
    new_db, _ = apply_addition_rebalance(db, RngSpec(99))
    for bit in range(4000):
        old = set(db.placement.node_set(bit))
        new = set(new_db.placement.node_set(bit))
        label = directory.label_of(bit)
        if directory.codes[bit] < 2:
            assert new == (old - {label.node}) | {5}
        else:
            assert label is None
            assert new == old


def test_apply_keeps_replication_factor():
    for r in (1, 2, 3, 4):
        db = build_database(4, r, 2000, RngSpec(100 + r))
        new_db, _ = apply_addition_rebalance(db, RngSpec(100 + r))
        assert all(len(s) == r for s in new_db.placement.support)
        assert len(new_db.nodes) == 5


def test_post_addition_placement_law():
    # every 2-subset of the 5 nodes appears with frequency 1/10 within 2%
    F = 10**6
    db = build_database(4, 2, F, RngSpec(101))
    new_db, _ = apply_addition_rebalance(db, RngSpec(101))
    freqs = new_db.placement.set_counts() / F
    assert freqs.size == 10
    assert np.all(np.abs(freqs / 0.1 - 1) <= 0.02)


def test_total_transmitted_concentrates_on_expected_load():
    # the moved-bit count is Binomial(F, r/(K+1))
    K, r, F = 4, 2, 10**6
    db = build_database(K, r, F, RngSpec(102))
    _, codewords = apply_addition_rebalance(db, RngSpec(102))
    total = sum(c.payload_bits for c in codewords)
    p = r / (K + 1)
    assert abs(total - F * p) <= 3 * math.sqrt(F * p * (1 - p))


def test_encode_rejects_foreign_directory():
    db_a = build_database(4, 2, 1000, RngSpec(103))
    db_b = build_database(4, 2, 1000, RngSpec(104))
    directory = bin_addition(db_a, RngSpec(103))
    with pytest.raises(DirectoryMismatch):
        encode_addition(db_b, directory)


def test_encode_accepts_an_equal_copy_of_the_placement():
    db = build_database(4, 2, 1000, RngSpec(105))
    directory = bin_addition(db, RngSpec(105))
    place = db.placement
    copy = Database(
        PlacementMap(place.nodes, place.replication, place.set_index.copy()),
        db.file,
    )
    key = lambda cw: (cw.sender, cw.group, cw.constituents, cw.payload.tobytes())
    assert list(map(key, encode_addition(copy, directory))) == list(
        map(key, encode_addition(db, directory))
    )


def test_encode_rejects_a_placement_with_another_support():
    # same replication and set indices, but other nodes, so the indices name other sets
    db = build_database(4, 2, 1000, RngSpec(106))
    directory = bin_addition(db, RngSpec(106))
    other = PlacementMap((1, 2, 3, 5), 2, db.placement.set_index)
    with pytest.raises(DirectoryMismatch):
        encode_addition(Database(other, db.file), directory)


def test_keys_do_not_wrap_with_a_uint8_set_index():
    # K=10, r=5: 252 support sets, so set_index is uint8, and 1 260 box keys
    K, r, F, seed = 10, 5, 20_000, 3
    db = build_database(K, r, F, RngSpec(seed))
    assert db.placement.set_index.dtype == np.uint8
    directory = bin_addition(db, RngSpec(seed))
    codes = RngSpec(seed).generator(STREAM_ADDITION_BINNING).integers(
        0, K + 1, size=F, dtype=np.int16
    )
    moving = codes < r
    expected = db.placement.set_index[moving].astype(np.int64) * r + codes[moving]
    assert directory.offsets.size - 1 == 1260
    counts = np.bincount(expected, minlength=1260)
    assert np.array_equal(directory.offsets, np.concatenate(([0], np.cumsum(counts))))
    order = np.argsort(expected, kind="stable")
    assert np.array_equal(directory.box_bits, np.flatnonzero(moving)[order])
