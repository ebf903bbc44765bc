"""Node-addition protocol: binning, handoffs, and the commit."""

import math
from itertools import combinations

import numpy as np
import pytest

from coded_rebalance import (
    AdditionBoxLabel,
    DirectoryMismatch,
    InvalidLabel,
    RngSpec,
    apply_addition_rebalance,
    bin_addition,
    build_database,
    encode_addition,
    node_storage_counts,
)
from coded_rebalance.addition import boxes_for_class


def test_box_set_for_one_class():
    # class {2,3} with 4 nodes and newcomer 5: movers 1 and 4, then stays
    labels = boxes_for_class((1, 2, 3, 4), 5, (2, 3))
    expected = {
        AdditionBoxLabel("U", (2, 3), 1, (2, 3)),
        AdditionBoxLabel("U", (2, 3), 4, (2, 3)),
        AdditionBoxLabel("V", (2, 3), 5, (2, 3)),
        AdditionBoxLabel("V", (2, 3), 2, (3, 5)),
        AdditionBoxLabel("V", (2, 3), 3, (2, 5)),
    }
    assert set(labels) == expected


@pytest.mark.parametrize("K,r", [(4, 2), (5, 3), (6, 3), (4, 4), (5, 1)])
def test_move_and_stay_counts_per_class(K, r):
    cls = tuple(range(1, K - r + 1))
    labels = boxes_for_class(tuple(range(1, K + 1)), K + 1, cls)
    movers = [lab for lab in labels if lab.family == "U"]
    stays = [lab for lab in labels if lab.family == "V"]
    assert len(movers) == r
    assert len(stays) == K - r + 1
    assert len(labels) == K + 1


def test_binning_covers_every_bit_once():
    db = build_database(4, 2, 5000, RngSpec(90))
    directory = bin_addition(db, RngSpec(90))
    assert len(directory) == 5000
    moved = np.concatenate([directory.packet_bits(lab) for lab in directory.box_labels()])
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
    for label in directory.box_labels():
        for bit in directory.packet_bits(label):
            assert directory.label_of(int(bit)) == label
    stay_bit = int(np.flatnonzero(directory.codes >= 2)[0])
    label = directory.label_of(stay_bit)
    assert label.family == "V"
    assert label.node in (*label.bit_class, directory.new_node)


def test_stay_boxes_hold_no_packets():
    db = build_database(4, 2, 100, RngSpec(93))
    directory = bin_addition(db, RngSpec(93))
    with pytest.raises(InvalidLabel):
        directory.packet_bits(AdditionBoxLabel("V", (2, 3), 5, (2, 3)))


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
        if label.family == "U":
            assert new == (old - {label.node}) | {5}
        else:
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
