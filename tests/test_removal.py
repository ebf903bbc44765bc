"""Node-removal protocol: binning, encoding, decoding, and the commit."""

import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from coded_rebalance import (
    Database,
    DecodeVerificationError,
    DirectoryMismatch,
    InvalidLabel,
    NotARecipient,
    PlacementMap,
    RemovalBoxLabel,
    ReplicationOutOfRange,
    RngSpec,
    UnknownNode,
    apply_removal_rebalance,
    bin_removal,
    build_database,
    decode_removal,
    encode_removal,
    exclusive_group,
    node_contents,
)
from coded_rebalance import removal
from coded_rebalance.database import CHUNK
from coded_rebalance.removal import boxes_for_class


def test_box_set_for_one_class():
    # class {1,2,3} after removing node 6: targets 1..3, holders 4..5
    labels = boxes_for_class((1, 2, 3, 4, 5, 6), 6, (1, 2, 3))
    expected = {
        RemovalBoxLabel(1, (2, 3), 4),
        RemovalBoxLabel(1, (2, 3), 5),
        RemovalBoxLabel(2, (1, 3), 4),
        RemovalBoxLabel(2, (1, 3), 5),
        RemovalBoxLabel(3, (1, 2), 4),
        RemovalBoxLabel(3, (1, 2), 5),
    }
    assert set(labels) == expected


@pytest.mark.parametrize("K,r", [(4, 2), (5, 3), (6, 3), (6, 4), (7, 2)])
def test_box_count_per_class(K, r):
    cls = tuple(range(1, K - r + 1))
    labels = boxes_for_class(tuple(range(1, K + 1)), K, cls)
    assert len(labels) == (K - r) * (r - 1)


def test_binning_partitions_every_class():
    K, r, k = 6, 3, 6
    db = build_database(K, r, 12000, RngSpec(31))
    directory = bin_removal(db, k, RngSpec(31))
    assert np.array_equal(directory.bits, node_contents(db, k))
    for cls in combinations(range(1, 6), K - r):
        class_bits = set()
        for label in boxes_for_class(db.nodes, k, cls):
            bits = directory.packet_bits(label)
            as_set = set(bits.tolist())
            assert not (class_bits & as_set)
            class_bits |= as_set
        assert class_bits == set(exclusive_group(db, cls).tolist())


def test_expected_packet_size_matches_law():
    # packet sizes average |D_k| / 60; |D_k| is Binomial(F, 1/2)
    K, r, F = 6, 3, 120000
    db = build_database(K, r, F, RngSpec(8))
    directory = bin_removal(db, 6, RngSpec(8))
    sizes = [directory.packet_bits(lab).size for lab in directory.box_labels()]
    assert len(sizes) == 60
    sigma_dk = math.sqrt(F * 0.25)
    assert abs(np.mean(sizes) - 1000) <= 3 * sigma_dk / 60


def test_packet_contents_deterministic_and_ordered():
    db = build_database(6, 3, 3000, RngSpec(19))
    directory = bin_removal(db, 6, RngSpec(19))
    label = next(lab for lab in directory.box_labels() if directory.packet_bits(lab).size > 1)
    bits1 = directory.packet_bits(label)
    vals1 = db.file.values[bits1]
    bits2 = directory.packet_bits(label)
    vals2 = db.file.values[bits2]
    assert np.array_equal(bits1, bits2) and np.array_equal(vals1, vals2)
    assert np.all(np.diff(bits1) > 0)


def test_label_of_round_trips_through_groups():
    db = build_database(5, 3, 400, RngSpec(2))
    directory = bin_removal(db, 2, RngSpec(2))
    seen = []
    for label in directory.box_labels():
        bits = directory.packet_bits(label)
        assert all(directory.label_of(int(bit)) == label for bit in bits)
        seen.extend(bits.tolist())
    assert sorted(seen) == directory.bits.tolist()


@pytest.mark.parametrize("K,r", [(4, 2), (5, 2), (6, 3), (6, 4), (7, 5)])
def test_codeword_count_matches_schedule(K, r):
    db = build_database(K, r, 500, RngSpec(6))
    codewords = encode_removal(db, bin_removal(db, K, RngSpec(6)))
    # independent count of the schedule's loop iterations
    survivors = range(1, K)
    expected = sum(
        1
        for ctx in combinations(survivors, K - r - 1)
        for _ in set(survivors) - set(ctx)
    )
    assert len(codewords) == expected == r * math.comb(K - 1, K - r - 1)


def test_codeword_payload_is_padded_xor():
    K, r, k = 6, 3, 6
    db = build_database(K, r, 9000, RngSpec(14))
    directory = bin_removal(db, k, RngSpec(14))
    codewords = encode_removal(db, directory)
    cw = next(c for c in codewords if c.sender == 5 and c.group == (2, 3))
    targets = sorted(label.target for label, _ in cw.constituents)
    assert targets == [1, 4]
    # manual XOR oracle built straight from the two packets
    a = db.file.values[directory.packet_bits(RemovalBoxLabel(1, (2, 3), 5))]
    b = db.file.values[directory.packet_bits(RemovalBoxLabel(4, (2, 3), 5))]
    length = max(a.size, b.size)
    manual = np.zeros(length, dtype=np.uint8)
    manual[: a.size] ^= a
    manual[: b.size] ^= b
    assert cw.payload_bits == length
    assert np.array_equal(cw.payload, manual)


def test_r2_codewords_are_raw_packets():
    db = build_database(6, 2, 4000, RngSpec(25))
    directory = bin_removal(db, 1, RngSpec(25))
    for cw in encode_removal(db, directory):
        assert len(cw.constituents) == 1
        label, length = cw.constituents[0]
        assert cw.payload_bits == length
        assert np.array_equal(cw.payload, db.file.values[directory.packet_bits(label)])


def test_decode_both_recipients_of_one_codeword():
    K, r, k = 6, 3, 6
    db = build_database(K, r, 9000, RngSpec(14))
    directory = bin_removal(db, k, RngSpec(14))
    codewords = encode_removal(db, directory)
    cw = next(c for c in codewords if c.sender == 5 and c.group == (2, 3))
    for node in (1, 4):
        bits, values = decode_removal(node, cw, db, directory)
        assert np.array_equal(values, db.file.values[bits])
        assert directory.label_of(int(bits[0])).target == node


def test_decode_all_codewords_all_recipients_bit_exact():
    db = build_database(6, 3, 6000, RngSpec(40))
    directory = bin_removal(db, 3, RngSpec(40))
    for cw in encode_removal(db, directory):
        for label, _ in cw.constituents:
            bits, values = decode_removal(label.target, cw, db, directory)
            assert np.array_equal(values, db.file.values[bits])


def test_decode_rejects_non_recipient():
    db = build_database(6, 3, 2000, RngSpec(14))
    directory = bin_removal(db, 6, RngSpec(14))
    cw = next(c for c in encode_removal(db, directory) if c.sender == 5 and c.group == (2, 3))
    for node in (5, 2):  # the sender and a context node demand nothing
        with pytest.raises(NotARecipient):
            decode_removal(node, cw, db, directory)


def test_decode_rejects_side_information_the_node_does_not_store():
    db = build_database(6, 3, 9000, RngSpec(14))
    directory = bin_removal(db, 6, RngSpec(14))
    cw = next(c for c in encode_removal(db, directory) if c.sender == 5 and c.group == (2, 3))
    # node 1 cancels the packet to node 4; leak into it a bit node 1 lacks
    cancelled = directory.packet_bits(RemovalBoxLabel(4, (2, 3), 5))
    lacked = np.setdiff1d(np.arange(db.num_bits), node_contents(db, 1))[0]
    box_bits = directory.box_bits.copy()
    box_bits[np.flatnonzero(box_bits == cancelled[0])] = lacked
    tampered = replace(directory, box_bits=box_bits)
    decode_removal(1, cw, db, directory)
    with pytest.raises(DecodeVerificationError, match="node 1 .*box"):
        decode_removal(1, cw, db, tampered)


def test_decode_rejects_a_cancelled_box_that_mixes_support_sets():
    db = build_database(6, 3, 9000, RngSpec(13))
    place = db.placement
    directory = bin_removal(db, 6, RngSpec(13))
    cw = next(c for c in encode_removal(db, directory) if c.sender == 5 and c.group == (2, 3))
    # node 1 cancels the packet to node 4, whose bits all lie in {1, 5, 6};
    # swap one of them for a bit node 1 stores in another set
    cancelled = directory.packet_bits(RemovalBoxLabel(4, (2, 3), 5))
    assert {place.node_set(int(b)) for b in cancelled} == {(1, 5, 6)}
    stored = node_contents(db, 1)
    elsewhere = stored[place.set_index[stored] != place.set_index[cancelled[0]]][0]
    assert 1 in place.node_set(int(elsewhere))
    box_bits = directory.box_bits.copy()
    box_bits[np.flatnonzero(box_bits == cancelled[0])] = elsewhere
    tampered = replace(directory, box_bits=box_bits)
    decode_removal(1, cw, db, directory)
    with pytest.raises(DecodeVerificationError, match="node 1 .*box"):
        decode_removal(1, cw, db, tampered)


def per_box_sets(directory):
    """Reference for ``box_set``: one box at a time."""
    out = []
    for k in range(directory.offsets.size - 1):
        sets = np.unique(directory.placement.set_index[directory.box_bits[directory.span(k)]])
        out.append(int(sets[0]) if sets.size == 1 else -1)
    return out


@pytest.mark.parametrize("K,r,F,node", [(6, 3, 300_000, 2), (7, 4, 3000, 7), (6, 3, 40, 6)])
def test_box_set_matches_a_per_box_reference(K, r, F, node):
    # 300 000 bits give about 150 000 affected bits: several chunks, with
    # boxes straddling chunk boundaries; 40 bits leave most boxes empty
    db = build_database(K, r, F, RngSpec(90))
    directory = bin_removal(db, node, RngSpec(90))
    assert directory.box_set.tolist() == per_box_sets(directory)
    # a bit outside the removed node's store lies in another set than any
    # box; put it first in each box that straddles a chunk boundary, and
    # in the largest box
    outside = np.setdiff1d(np.arange(F), directory.bits)[0]
    starts, ends = directory.offsets[:-1], directory.offsets[1:]
    straddling = starts[(starts // CHUNK != (ends - 1) // CHUNK) & (ends > starts)]
    for pos in [*straddling.tolist(), starts[np.argmax(ends - starts)]]:
        box_bits = directory.box_bits.copy()
        box_bits[pos] = outside
        tampered = replace(directory, box_bits=box_bits)
        assert tampered.box_set.tolist() == per_box_sets(tampered)
        assert np.sum(tampered.box_set < 0) == np.sum(directory.box_set < 0) + 1


def test_decode_rejects_a_cancelled_box_longer_than_the_payload():
    db = build_database(6, 3, 9000, RngSpec(14))
    directory = bin_removal(db, 6, RngSpec(14))
    cw = next(c for c in encode_removal(db, directory) if c.sender == 5 and c.group == (2, 3))
    # lengthen the packet node 1 cancels with bits node 1 does store
    key = directory.box_labels().index(RemovalBoxLabel(4, (2, 3), 5))
    extra = np.setdiff1d(node_contents(db, 1), directory.bits)[: cw.payload_bits + 5]
    offsets = directory.offsets.copy()
    offsets[key + 1 :] += extra.size
    box_bits = np.insert(directory.box_bits, directory.offsets[key + 1], extra)
    tampered = replace(directory, box_bits=box_bits, offsets=offsets)
    with pytest.raises(DecodeVerificationError, match="node 1 .*box"):
        decode_removal(1, cw, db, tampered)


def test_flipped_payload_bit_fails_apply_and_leaves_database_unchanged(monkeypatch):
    db = build_database(6, 3, 6000, RngSpec(41))
    set_index, values = db.placement.set_index.copy(), db.file.values.copy()
    honest_encode = removal.encode_removal

    def flipping_encode(db_, directory):
        codewords = honest_encode(db_, directory)
        next(c for c in codewords if c.payload_bits).payload[0] ^= 1
        return codewords

    monkeypatch.setattr(removal, "encode_removal", flipping_encode)
    with pytest.raises(DecodeVerificationError):
        apply_removal_rebalance(db, 6, RngSpec(41))
    assert db.nodes == (1, 2, 3, 4, 5, 6)
    assert np.array_equal(db.placement.set_index, set_index)
    assert np.array_equal(db.file.values, values)


def test_zero_length_codewords_are_recorded():
    # one bit cannot fill 30 codewords; empties still appear in the schedule
    db = build_database(6, 3, 1, RngSpec(5))
    removed = db.placement.node_set(0)[0]
    directory = bin_removal(db, removed, RngSpec(5))
    codewords = encode_removal(db, directory)
    assert len(codewords) == 30
    assert sum(1 for c in codewords if c.payload_bits == 0) >= 29
    assert sum(c.payload_bits for c in codewords) == 1


def test_apply_restores_replication_and_drops_node():
    db = build_database(6, 3, 20000, RngSpec(50))
    new_db, _ = apply_removal_rebalance(db, 6, RngSpec(50))
    assert new_db.nodes == (1, 2, 3, 4, 5)
    assert all(len(s) == 3 for s in new_db.placement.support)
    assert all(6 not in s for s in new_db.placement.support)


def test_apply_moves_each_affected_bit_to_its_box_target():
    db = build_database(6, 3, 5000, RngSpec(51))
    directory = bin_removal(db, 6, RngSpec(51))
    new_db, _ = apply_removal_rebalance(db, 6, RngSpec(51))
    for pos, bit in enumerate(directory.bits.tolist()):
        old = set(db.placement.node_set(bit))
        new = set(new_db.placement.node_set(bit))
        assert new == (old - {6}) | {int(directory.targets[pos])}


def test_apply_leaves_unaffected_bits_alone():
    db = build_database(6, 3, 5000, RngSpec(52))
    new_db, _ = apply_removal_rebalance(db, 6, RngSpec(52))
    affected = set(node_contents(db, 6).tolist())
    for bit in range(5000):
        if bit not in affected:
            assert new_db.placement.node_set(bit) == db.placement.node_set(bit)


def test_post_removal_placement_law():
    # every surviving 3-subset appears with frequency 1/10 within 1%
    F = 10**6
    db = build_database(6, 3, F, RngSpec(60))
    new_db, _ = apply_removal_rebalance(db, 6, RngSpec(60))
    freqs = new_db.placement.set_counts() / F
    assert freqs.size == 10
    assert np.all(np.abs(freqs / 0.1 - 1) <= 0.01)


def test_unmoved_fraction_among_final_sets():
    # of the bits ending at any set S, the unmoved share tends to (K-r)/K
    K, r, F = 6, 3, 10**6
    db = build_database(K, r, F, RngSpec(61))
    new_db, _ = apply_removal_rebalance(db, 6, RngSpec(61))
    was_at_removed = db.placement.support_membership(6)[db.placement.set_index]
    for s in range(len(new_db.placement.support)):
        ended_here = new_db.placement.set_index == s
        frac_unmoved = 1.0 - was_at_removed[ended_here].mean()
        assert abs(frac_unmoved / ((K - r) / K) - 1) <= 0.02


@pytest.mark.parametrize("K,r,F", [(4, 2, 30000), (6, 3, 30000), (6, 4, 30000)])
def test_per_run_load_floor(K, r, F):
    db = build_database(K, r, F, RngSpec(70))
    _, codewords = apply_removal_rebalance(db, K, RngSpec(70))
    total = sum(c.payload_bits for c in codewords)
    moved = sum(length for c in codewords for _, length in c.constituents)
    assert total * (r - 1) >= moved


def test_each_box_in_exactly_one_codeword():
    db = build_database(6, 3, 3000, RngSpec(71))
    directory = bin_removal(db, 2, RngSpec(71))
    codewords = encode_removal(db, directory)
    seen = [label for cw in codewords for label, _ in cw.constituents]
    assert len(seen) == len(set(seen))
    assert set(seen) == set(directory.box_labels())


def test_packet_bits_rejects_malformed_labels():
    db = build_database(6, 3, 500, RngSpec(82))
    directory = bin_removal(db, 6, RngSpec(82))
    bad = [
        RemovalBoxLabel(1, (2, 3), 1),   # holder is the target
        RemovalBoxLabel(1, (1, 3), 5),   # target inside the remainder
        RemovalBoxLabel(1, (2, 3), 6),   # holder is the removed node
        RemovalBoxLabel(1, (2,), 5),     # remainder too small
        RemovalBoxLabel(9, (2, 3), 5),   # unknown target
    ]
    for label in bad:
        with pytest.raises(InvalidLabel):
            directory.packet_bits(label)


def test_encode_rejects_foreign_directory():
    db_a = build_database(6, 3, 2000, RngSpec(80))
    db_b = build_database(6, 3, 2000, RngSpec(81))
    directory = bin_removal(db_a, 6, RngSpec(80))
    with pytest.raises(DirectoryMismatch):
        encode_removal(db_b, directory)


def test_encode_rejects_a_placement_that_differs_outside_the_removed_store():
    db = build_database(6, 3, 2000, RngSpec(83))
    directory = bin_removal(db, 6, RngSpec(83))
    place = db.placement
    # move one bit that node 6 does not store to another set without node 6
    bit = int(np.flatnonzero(~place.support_membership(6)[place.set_index])[0])
    other = next(
        s for s, nodes in enumerate(place.support)
        if 6 not in nodes and s != place.set_index[bit]
    )
    set_index = place.set_index.copy()
    set_index[bit] = other
    moved = Database(PlacementMap(place.nodes, 3, place.support, set_index), db.file)
    assert np.array_equal(node_contents(moved, 6), directory.bits)
    with pytest.raises(DirectoryMismatch):
        encode_removal(moved, directory)


def test_encode_accepts_an_equal_copy_of_the_placement():
    db = build_database(6, 3, 2000, RngSpec(84))
    directory = bin_removal(db, 6, RngSpec(84))
    place = db.placement
    copy = Database(
        PlacementMap(place.nodes, place.replication, place.support, place.set_index.copy()),
        db.file,
    )
    assert copy.placement is not place
    key = lambda cw: (cw.sender, cw.group, cw.constituents, cw.payload.tobytes())
    assert list(map(key, encode_removal(copy, directory))) == list(
        map(key, encode_removal(db, directory))
    )


def test_bin_removal_parameter_errors():
    db = build_database(6, 3, 100, RngSpec(1))
    with pytest.raises(UnknownNode):
        bin_removal(db, 7, RngSpec(1))
    with pytest.raises(ReplicationOutOfRange):
        bin_removal(build_database(6, 1, 100, RngSpec(1)), 6, RngSpec(1))
    with pytest.raises(ReplicationOutOfRange):
        bin_removal(build_database(6, 6, 100, RngSpec(1)), 6, RngSpec(1))
