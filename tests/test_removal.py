"""Node-removal protocol: binning, encoding, decoding, and the commit."""

import math
import threading
import time
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
    RebalanceError,
    RemovalBoxLabel,
    ReplicationOutOfRange,
    RngSpec,
    Schedule,
    UnknownNode,
    apply_removal_rebalance,
    bin_removal,
    build_database,
    decode_removal,
    encode_removal,
    exclusive_group,
    node_contents,
)
from coded_rebalance import database, removal
from coded_rebalance.codeword import SCATTER_BITS, BoxDirectory
from coded_rebalance.database import CHUNK, draw_file
from coded_rebalance.rng import STREAM_PLACEMENT, STREAM_REMOVAL_BINNING

from box_reference import removal_boxes, table_boxes


def class_labels(directory, cls):
    """The labels of one class's boxes, in key order."""
    return [lab for lab in directory.labels if tuple(sorted((lab.target, *lab.remainder))) == cls]


def test_box_set_for_one_class():
    # class {1,2,3} after removing node 6: targets 1..3, holders 4..5
    directory = bin_removal(build_database(6, 3, 200, RngSpec(3)), 6, RngSpec(3))
    expected = [
        RemovalBoxLabel(1, (2, 3), 4),
        RemovalBoxLabel(1, (2, 3), 5),
        RemovalBoxLabel(2, (1, 3), 4),
        RemovalBoxLabel(2, (1, 3), 5),
        RemovalBoxLabel(3, (1, 2), 4),
        RemovalBoxLabel(3, (1, 2), 5),
    ]
    assert class_labels(directory, (1, 2, 3)) == expected


@pytest.mark.parametrize("K,r", [(4, 2), (5, 3), (6, 3), (6, 4), (7, 2)])
def test_box_count_per_class(K, r):
    directory = bin_removal(build_database(K, r, 200, RngSpec(3)), K, RngSpec(3))
    assert len(class_labels(directory, tuple(range(1, K - r + 1)))) == (K - r) * (r - 1)


@pytest.mark.parametrize("K", range(3, 8))
def test_box_table_equals_a_straight_line_enumeration(K):
    # every r and removed node at K <= 7, K - r = 1 (empty remainders) included
    for r in range(2, K):
        db = build_database(K, r, 60, RngSpec(K))
        for k in db.nodes:
            directory = bin_removal(db, k, RngSpec(K))
            boxes = removal_boxes(db.nodes, k, r)
            assert table_boxes(directory) == boxes, (r, k)
            assert directory.labels == tuple(
                RemovalBoxLabel(b["target"], b["group"], b["sender"]) for b in boxes
            )
            assert directory.box_targets.tolist() == [b["target"] for b in boxes]
            assert directory.box_targets.dtype == np.intp
            assert len(boxes) == directory.offsets.size - 1


def test_labels_of_one_class_and_target_share_one_remainder():
    directory = bin_removal(build_database(6, 4, 200, RngSpec(3)), 6, RngSpec(3))
    labels = directory.labels
    for first in range(0, len(labels), 3):
        assert len({id(lab.remainder) for lab in labels[first : first + 3]}) == 1


def test_rows_equal_the_context_sort_at_k12():
    # contexts (the groups) lexicographically, then senders, then targets
    directory = bin_removal(build_database(12, 4, 100, RngSpec(5)), 5, RngSpec(5))
    table, contexts = directory.table, np.array(directory.groups)
    by_context = np.lexsort((table["target"], table["sender"], *contexts.T[::-1]))
    assert np.array_equal(directory.rows, by_context.reshape(-1, 3))


def test_binning_partitions_every_class():
    K, r, k = 6, 3, 6
    db = build_database(K, r, 12000, RngSpec(31))
    directory = bin_removal(db, k, RngSpec(31))
    assert np.array_equal(np.sort(directory.box_bits), node_contents(db, k))
    for cls in combinations(range(1, 6), K - r):
        class_bits = set()
        for label in class_labels(directory, cls):
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
    sizes = [directory.packet_bits(lab).size for lab in directory.labels]
    assert len(sizes) == 60
    sigma_dk = math.sqrt(F * 0.25)
    assert abs(np.mean(sizes) - 1000) <= 3 * sigma_dk / 60


def test_packet_contents_deterministic_and_ordered():
    db = build_database(6, 3, 3000, RngSpec(19))
    directory = bin_removal(db, 6, RngSpec(19))
    label = next(lab for lab in directory.labels if directory.packet_bits(lab).size > 1)
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
    for label in directory.labels:
        bits = directory.packet_bits(label)
        assert all(directory.label_of(int(bit)) == label for bit in bits)
        seen.extend(bits.tolist())
    assert seen == directory.box_bits.tolist()
    assert sorted(seen) == node_contents(db, 2).tolist()


def test_label_of_rejects_a_bit_the_removed_node_did_not_store():
    db = build_database(5, 3, 400, RngSpec(2))
    directory = bin_removal(db, 2, RngSpec(2))
    kept = np.setdiff1d(np.arange(400), node_contents(db, 2))
    for bit in (int(kept[0]), int(kept[-1]), -1, 400, 2**40):
        with pytest.raises(KeyError):
            directory.label_of(bit)


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


def leak_a_bit_node_1_lacks(db, directory):
    """The directory with one bit of box (4, (2, 3), 5), which node 1
    cancels, swapped for a bit node 1 does not store."""
    cancelled = directory.packet_bits(RemovalBoxLabel(4, (2, 3), 5))
    lacked = np.setdiff1d(np.arange(db.num_bits), node_contents(db, 1))[0]
    box_bits = directory.box_bits.copy()
    box_bits[np.flatnonzero(box_bits == cancelled[0])] = lacked
    return replace(directory, box_bits=box_bits)


def mix_in_a_bit_of_another_set(db, directory):
    """The directory with one bit of box (4, (2, 3), 5), whose bits all lie
    in {1, 5, 6}, swapped for a bit node 1 stores in another set."""
    place = db.placement
    cancelled = directory.packet_bits(RemovalBoxLabel(4, (2, 3), 5))
    assert {place.node_set(int(b)) for b in cancelled} == {(1, 5, 6)}
    stored = node_contents(db, 1)
    elsewhere = stored[place.set_index[stored] != place.set_index[cancelled[0]]][0]
    assert 1 in place.node_set(int(elsewhere))
    box_bits = directory.box_bits.copy()
    box_bits[np.flatnonzero(box_bits == cancelled[0])] = elsewhere
    return replace(directory, box_bits=box_bits)


def test_decode_rejects_side_information_the_node_does_not_store():
    db = build_database(6, 3, 9000, RngSpec(14))
    directory = bin_removal(db, 6, RngSpec(14))
    cw = next(c for c in encode_removal(db, directory) if c.sender == 5 and c.group == (2, 3))
    # node 1 cancels the packet to node 4; leak into it a bit node 1 lacks
    tampered = leak_a_bit_node_1_lacks(db, directory)
    decode_removal(1, cw, db, directory)
    with pytest.raises(DecodeVerificationError, match="node 1 .*box"):
        decode_removal(1, cw, db, tampered)


def test_decode_rejects_a_cancelled_box_that_mixes_support_sets():
    db = build_database(6, 3, 9000, RngSpec(13))
    directory = bin_removal(db, 6, RngSpec(13))
    cw = next(c for c in encode_removal(db, directory) if c.sender == 5 and c.group == (2, 3))
    # node 1 cancels the packet to node 4; swap one of its bits for a bit
    # node 1 stores in another set
    tampered = mix_in_a_bit_of_another_set(db, directory)
    decode_removal(1, cw, db, directory)
    with pytest.raises(DecodeVerificationError, match="node 1 .*box"):
        decode_removal(1, cw, db, tampered)


@pytest.mark.parametrize("tamper", [leak_a_bit_node_1_lacks, mix_in_a_bit_of_another_set])
def test_a_tampered_directory_fails_apply_and_leaves_database_unchanged(monkeypatch, tamper):
    db = build_database(6, 3, 9000, RngSpec(14))
    set_index, values = db.placement.set_index.copy(), db.file.values.copy()
    honest_bin = removal.bin_removal
    monkeypatch.setattr(
        removal, "bin_removal", lambda db_, node, rng: tamper(db_, honest_bin(db_, node, rng))
    )
    with pytest.raises(DecodeVerificationError, match="node 1 .*box"):
        apply_removal_rebalance(db, 6, RngSpec(14))
    assert db.nodes == (1, 2, 3, 4, 5, 6)
    assert np.array_equal(db.placement.set_index, set_index)
    assert np.array_equal(db.file.values, values)


def per_box_misplaced(directory):
    """Reference for ``misplaced``: one box at a time."""
    sets = directory.table["set"]
    return [
        bool(np.any(directory.placement.set_index[directory.box_bits[directory.span(k)]] != sets[k]))
        for k in range(directory.offsets.size - 1)
    ]


@pytest.mark.parametrize("K,r,F,node", [(6, 3, 300_000, 2), (7, 4, 3000, 7), (6, 3, 40, 6)])
def test_misplaced_matches_a_per_box_reference(K, r, F, node):
    # 300 000 bits give about 150 000 affected bits: several chunks, with
    # boxes straddling chunk boundaries; 40 bits leave most boxes empty
    db = build_database(K, r, F, RngSpec(90))
    directory = bin_removal(db, node, RngSpec(90))
    assert directory.misplaced.tolist() == per_box_misplaced(directory)
    assert not directory.misplaced.any() and not directory.misplaced.flags.writeable
    # a bit outside the removed node's store lies in another set than any
    # box; put it first in each box that straddles a chunk boundary, and
    # in the largest box
    outside = np.setdiff1d(np.arange(F), directory.box_bits)[0]
    starts, ends = directory.offsets[:-1], directory.offsets[1:]
    straddling = starts[(starts // CHUNK != (ends - 1) // CHUNK) & (ends > starts)]
    for pos in [*straddling.tolist(), starts[np.argmax(ends - starts)]]:
        box_bits = directory.box_bits.copy()
        box_bits[pos] = outside
        tampered = replace(directory, box_bits=box_bits)
        assert tampered.misplaced.tolist() == per_box_misplaced(tampered)
        assert np.sum(tampered.misplaced) == 1


def swap_bits_between_sets(db, directory):
    """The directory with its first bit, in box order, swapped for the
    first bit in box order that lies in another support set."""
    sets = db.placement.set_index[directory.box_bits]
    other = np.flatnonzero(sets != sets[0])[0]
    box_bits = directory.box_bits.copy()
    box_bits[[0, other]] = box_bits[[other, 0]]
    return replace(directory, box_bits=box_bits)


def test_a_box_no_recipient_cancels_is_checked_at_its_sender(monkeypatch):
    # at r = 2 each codeword carries one box, which no recipient cancels
    db = build_database(4, 2, 9000, RngSpec(3))
    set_index, values = db.placement.set_index.copy(), db.file.values.copy()
    honest_bin = removal.bin_removal
    monkeypatch.setattr(removal, "bin_removal",
                        lambda db_, node, rng: swap_bits_between_sets(db_, honest_bin(db_, node, rng)))
    with pytest.raises(DecodeVerificationError, match="node . cannot send box"):
        apply_removal_rebalance(db, 4, RngSpec(3))
    assert db.nodes == (1, 2, 3, 4)
    assert np.array_equal(db.placement.set_index, set_index)
    assert np.array_equal(db.file.values, values)


def misplace_a_bit_beside_an_empty_box(db, directory):
    """The directory with the first bit of a box whose codeword also carries
    an empty box swapped for a bit outside the removed node's store."""
    sizes = np.diff(directory.offsets)[directory.rows]
    key = directory.rows[(sizes > 0) & (sizes == 0).any(axis=1, keepdims=True)][0]
    box_bits = directory.box_bits.copy()
    box_bits[directory.offsets[key]] = np.setdiff1d(np.arange(db.num_bits), directory.box_bits)[0]
    return replace(directory, box_bits=box_bits)


def test_a_codeword_with_an_empty_box_is_checked(monkeypatch):
    # 60 bits leave many boxes empty; the check skips only codewords with no bit
    db = build_database(6, 3, 60, RngSpec(5))
    honest_bin = removal.bin_removal
    monkeypatch.setattr(removal, "bin_removal", lambda db_, node, rng:
                        misplace_a_bit_beside_an_empty_box(db_, honest_bin(db_, node, rng)))
    with pytest.raises(DecodeVerificationError, match="cannot (send|cancel) box"):
        apply_removal_rebalance(db, 6, RngSpec(5))


def test_decode_rejects_a_cancelled_box_longer_than_the_payload():
    db = build_database(6, 3, 9000, RngSpec(14))
    directory = bin_removal(db, 6, RngSpec(14))
    cw = next(c for c in encode_removal(db, directory) if c.sender == 5 and c.group == (2, 3))
    # lengthen the packet node 1 cancels with bits node 1 does store
    key = directory.key_of(RemovalBoxLabel(4, (2, 3), 5))
    extra = np.setdiff1d(node_contents(db, 1), directory.box_bits)[: cw.payload_bits + 5]
    offsets = directory.offsets.copy()
    offsets[key + 1 :] += extra.size
    box_bits = np.insert(directory.box_bits, directory.offsets[key + 1], extra)
    tampered = replace(directory, box_bits=box_bits, offsets=offsets)
    with pytest.raises(DecodeVerificationError, match="node 1 .*box"):
        decode_removal(1, cw, db, tampered)


def test_decode_rejects_a_demanded_packet_longer_than_the_payload():
    db = build_database(6, 3, 9000, RngSpec(14))
    directory = bin_removal(db, 6, RngSpec(14))
    cw = encode_removal(db, directory)[0]
    assert [n for _, n in cw.constituents] == [66, 80]
    label = cw.constituents[1][0]  # the longest packet ends in the payload's last bit
    bits, values = decode_removal(label.target, cw, db, directory)
    assert bits.size == values.size == 80
    short = replace(cw, payload=cw.payload[:-1])
    with pytest.raises(DecodeVerificationError, match=f"node {label.target} .*box"):
        decode_removal(label.target, short, db, directory)


@pytest.mark.parametrize("demanded", [True, False], ids=["demanded", "cancelled"])
def test_decode_rejects_a_stated_length_unlike_the_box(demanded):
    db = build_database(6, 3, 9000, RngSpec(14))
    directory = bin_removal(db, 6, RngSpec(14))
    cw = encode_removal(db, directory)[0]
    (label, length), *rest = cw.constituents
    node = label.target if demanded else rest[0][0].target
    misstated = replace(cw, constituents=((label, length - 1), *rest))
    decode_removal(node, cw, db, directory)
    with pytest.raises(DecodeVerificationError, match=f"node {node} .*box"):
        decode_removal(node, misstated, db, directory)


def flip_a_payload_bit(schedule):
    payload = schedule.payload.copy()
    payload[0] ^= 1  # the first bit of the first non-empty payload
    return Schedule(schedule.directory, payload, schedule.starts)


def truncate_a_payload(schedule):
    i = np.flatnonzero(np.diff(schedule.starts))[0]  # the first non-empty row
    starts = schedule.starts.copy()
    starts[i + 1 :] -= 1
    return Schedule(schedule.directory, np.delete(schedule.payload, starts[i + 1]), starts)


def test_flipped_payload_bit_fails_apply_and_leaves_database_unchanged(monkeypatch):
    honest_encode = removal.encode_removal
    for corrupt in (flip_a_payload_bit, truncate_a_payload):
        db = build_database(6, 3, 6000, RngSpec(41))
        set_index, values = db.placement.set_index.copy(), db.file.values.copy()
        monkeypatch.setattr(
            removal, "encode_removal",
            lambda db_, directory, corrupt=corrupt: corrupt(honest_encode(db_, directory)),
        )
        with pytest.raises(DecodeVerificationError):
            apply_removal_rebalance(db, 6, RngSpec(41))
        assert db.nodes == (1, 2, 3, 4, 5, 6)
        assert np.array_equal(db.placement.set_index, set_index)
        assert np.array_equal(db.file.values, values)


@pytest.mark.parametrize("K,r,F", [(6, 3, 600_000), (4, 2, 10**6)])
def test_a_flipped_bit_anywhere_in_the_schedule_fails_the_payload_check(K, r, F):
    # The payloads span several CHUNKs and are checked a group of rows at a
    # time: at K=6 many rows per group, at K=4 every row longer than a CHUNK.
    db = build_database(K, r, F, RngSpec(44))
    directory = bin_removal(db, K, RngSpec(44))
    schedule = encode_removal(db, directory)
    starts = schedule.starts
    assert schedule.payload.size > 2 * CHUNK and np.all(np.diff(starts))
    removal._check_payloads(db, directory, schedule)
    for i in range(len(schedule)):
        for at in (starts[i], starts[i + 1] - 1):  # both ends of row i's payload
            payload = schedule.payload.copy()
            payload[at] ^= 1
            with pytest.raises(DecodeVerificationError):
                removal._check_payloads(db, directory, Schedule(directory, payload, starts))


def reference_payloads(db, directory):
    """Every row's packets XORed and zero-padded, end to end, one box at a
    time from the unpacked file."""
    payloads = [np.zeros(0, np.uint8)]
    for keys in directory.rows:
        packets = [db.file.values[directory.box_bits[directory.span(k)]] for k in keys]
        payload = np.zeros(max(p.size for p in packets), np.uint8)
        for packet in packets:
            payload[: packet.size] ^= packet
        payloads.append(payload)
    return np.concatenate(payloads)


@pytest.mark.parametrize("F", [6000, 600_000])  # packets of about 50 bits, and of 5000
def test_a_corrupt_encoder_routine_fails_apply_and_leaves_database_unchanged(monkeypatch, F):
    # The check reads and XORs the packets itself, so a fault in the
    # encoder's own XOR routine cannot pass it.
    honest = BoxDirectory.payloads

    def corrupt(directory, file):
        payload, starts = honest(directory, file)
        payload[payload.size // 2] ^= 1
        return payload, starts

    monkeypatch.setattr(BoxDirectory, "payloads", corrupt)
    db = build_database(6, 3, F, RngSpec(45))
    set_index, values = db.placement.set_index.copy(), db.file.values.copy()
    with pytest.raises(DecodeVerificationError):
        apply_removal_rebalance(db, 6, RngSpec(45))
    assert db.nodes == (1, 2, 3, 4, 5, 6)
    assert np.array_equal(db.placement.set_index, set_index)
    assert np.array_equal(db.file.values, values)


def test_a_flipped_bit_among_short_packets_fails_the_payload_check():
    # K=12, r=4: about 50 bits per box, so the encoder scatters each chunk
    # and the check counts parities, over bits that span several CHUNKs.
    db = build_database(12, 4, 600_000, RngSpec(46))
    directory = bin_removal(db, 12, RngSpec(46))
    assert directory.box_bits.size > 2 * CHUNK
    assert (directory.offsets.size - 1) * SCATTER_BITS > directory.box_bits.size
    schedule = encode_removal(db, directory)
    assert np.array_equal(schedule.payload, reference_payloads(db, directory))
    removal._check_payloads(db, directory, schedule)
    starts = schedule.starts
    for i in np.linspace(0, len(schedule) - 1, 9).astype(int).tolist():
        for at in (starts[i], starts[i + 1] - 1):  # both ends of row i's payload
            payload = schedule.payload.copy()
            payload[at] ^= 1
            with pytest.raises(DecodeVerificationError):
                removal._check_payloads(db, directory, Schedule(directory, payload, starts))


def test_one_directory_serves_two_files_of_its_placement():
    # A directory keeps no values: encoded against each file in turn, it
    # gives that file's payloads, and each recipient decodes that file's bits.
    db = build_database(6, 3, 5000, RngSpec(47))
    other = Database(db.placement, draw_file(5000, RngSpec(48)))
    directory = bin_removal(db, 6, RngSpec(47))
    for each in (db, other, db):
        schedule = encode_removal(each, directory)
        assert np.array_equal(schedule.payload, reference_payloads(each, directory))
        for cw in schedule:
            for label, _ in cw.constituents:
                bits, values = decode_removal(label.target, cw, each, directory)
                assert np.array_equal(values, each.file.values[bits])
    assert not np.array_equal(encode_removal(db, directory).payload,
                              encode_removal(other, directory).payload)


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
    targets = np.repeat(directory.box_targets, np.diff(directory.offsets))
    assert np.array_equal(np.sort(directory.box_bits), node_contents(db, 6))
    for bit, target in zip(directory.box_bits.tolist(), targets.tolist()):
        old = set(db.placement.node_set(bit))
        new = set(new_db.placement.node_set(bit))
        assert new == (old - {6}) | {target}


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
    assert set(seen) == set(directory.labels)


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
    moved = Database(PlacementMap(place.nodes, 3, set_index), db.file)
    assert np.array_equal(node_contents(moved, 6), np.sort(directory.box_bits))
    with pytest.raises(DirectoryMismatch):
        encode_removal(moved, directory)


def test_encode_accepts_an_equal_copy_of_the_placement():
    db = build_database(6, 3, 2000, RngSpec(84))
    directory = bin_removal(db, 6, RngSpec(84))
    place = db.placement
    copy = Database(
        PlacementMap(place.nodes, place.replication, place.set_index.copy()),
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


def test_a_removal_draw_split_at_chunk_boundaries_equals_one_whole_draw():
    # bin_removal draws its codes as int32 a CHUNK at a time; they are the
    # codes of one whole default (int64) draw
    size = 3 * CHUNK + 5
    for seed in range(5):
        for bound in [*range(1, 13), 44, 100, 2**31 - 1]:
            whole = RngSpec(seed, trial=1).generator(STREAM_REMOVAL_BINNING).integers(
                0, bound, size=size)
            gen = RngSpec(seed, trial=1).generator(STREAM_REMOVAL_BINNING)
            split = [gen.integers(0, bound, size=min(CHUNK, size - s), dtype=np.int32)
                     for s in range(0, size, CHUNK)]
            assert np.array_equal(np.concatenate(split), whole), (seed, bound)


def test_a_placement_draw_split_at_chunk_boundaries_equals_one_whole_draw():
    # draw_placement draws the set index as int32 CHUNK at a time; a bound of
    # 1.5e9 rejects about 30% of its raw draws. The file's values come from a
    # stream of their own (tests/test_database.py pins them).
    for bound in (20, 3003, 65_536, 1_500_000_000):
        for size in (7, CHUNK, CHUNK + 1, 3 * CHUNK + 5):
            gen = RngSpec(9).generator(STREAM_PLACEMENT)
            whole = gen.integers(0, bound, size=size, dtype=np.int32)
            gen = RngSpec(9).generator(STREAM_PLACEMENT)
            split = [
                gen.integers(0, bound, size=min(CHUNK, size - s), dtype=np.int32)
                for s in range(0, size, CHUNK)
            ]
            assert np.array_equal(np.concatenate(split), whole), (bound, size)


@pytest.mark.parametrize("row_slice", [1, 7])
def test_records_built_a_slice_of_rows_at_a_time_equal_one_slice(row_slice):
    # 30 rows at K=6, r=3: slices of 7 leave a short last one
    db = build_database(6, 3, 3000, RngSpec(2))
    schedule = encode_removal(db, bin_removal(db, 6, RngSpec(2)))
    key = lambda cw: (cw.sender, cw.group, cw.constituents, cw.payload.tobytes())
    whole = list(map(key, schedule[:]))
    assert len(whole) == 30
    sliced = [cw for first in range(0, 30, row_slice) for cw in schedule[first : first + row_slice]]
    assert list(map(key, sliced)) == whole


def with_new_sets(directory, new_set):
    """A copy of ``directory`` whose table sends every box's bits to ``new_set``."""
    tampered = replace(directory)
    tampered.table = directory.table.copy()
    tampered.table["new_set"] = new_set
    return tampered


def test_commit_rejects_a_box_set_outside_the_new_support():
    db = build_database(6, 3, 2000, RngSpec(5))
    directory = with_new_sets(bin_removal(db, 6, RngSpec(5)), (1, 2, 3))
    directory.commit()  # every box set is in the new support
    directory.table["new_set"][int(np.flatnonzero(np.diff(directory.offsets))[0])] = (1, 2, 6)
    with pytest.raises(RebalanceError):
        directory.commit()


def test_commit_rejects_a_stay_set_that_lost_a_node():
    db = build_database(6, 3, 2000, RngSpec(5))
    directory = with_new_sets(bin_removal(db, 6, RngSpec(5)), (1, 2, 3))
    directory.commit()
    # the first bit of the last box is stored at node 6 but dropped from the
    # binned bits, so it keeps a set that names the removed node
    offsets = directory.offsets.copy()
    start = int(offsets[np.flatnonzero(np.diff(offsets))[-1]])
    offsets[offsets > start] -= 1
    unbinned = replace(directory, box_bits=np.delete(directory.box_bits, start), offsets=offsets)
    unbinned.table = directory.table
    with pytest.raises(RebalanceError):
        unbinned.commit()


# apply_removal_rebalance builds the new placement on a second thread while
# the main thread encodes and checks the schedule.


def watch_threads(monkeypatch):
    """A check that the threads alive now are the only ones alive, and that
    no thread let an exception reach ``threading.excepthook`` meanwhile."""
    before = set(threading.enumerate())
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)

    def check():
        assert set(threading.enumerate()) == before
        assert escaped == []

    return check


class FailingIndex(np.ndarray):
    """A set index whose every read fails, as a scan that runs out of memory would."""

    def __getitem__(self, item):
        raise MemoryError("the scan ran out of memory")


def test_a_failed_membership_scan_joins_the_code_draw(monkeypatch):
    threads_after = watch_threads(monkeypatch)
    db = build_database(6, 3, 6000, RngSpec(40))
    db.placement.set_counts()  # taken before the set index fails
    db.placement.set_index = db.placement.set_index.view(FailingIndex)
    # the code draw is still running when the scan fails
    honest = removal.in_background
    monkeypatch.setattr(
        removal, "in_background", lambda fn: honest(lambda: (time.sleep(0.2), fn())[1])
    )
    with pytest.raises(MemoryError, match="the scan ran out of memory"):
        bin_removal(db, 6, RngSpec(40))
    threads_after()


def failing_commit(delay):
    def commit(self):
        time.sleep(delay)
        raise RebalanceError("the commit failed")

    return commit


@pytest.mark.parametrize("delay", [0, 0.05], ids=["commit-fails-first", "check-fails-first"])
def test_a_failed_check_is_reported_over_a_failed_commit(monkeypatch, delay):
    threads_after = watch_threads(monkeypatch)
    db = build_database(6, 3, 6000, RngSpec(41))
    set_index, values = db.placement.set_index.copy(), db.file.values.copy()
    honest_encode = removal.encode_removal
    monkeypatch.setattr(
        removal, "encode_removal", lambda db_, directory: flip_a_payload_bit(honest_encode(db_, directory))
    )
    monkeypatch.setattr(removal.BinDirectoryRemoval, "commit", failing_commit(delay))
    with pytest.raises(DecodeVerificationError):
        apply_removal_rebalance(db, 6, RngSpec(41))
    threads_after()
    assert db.nodes == (1, 2, 3, 4, 5, 6)
    assert np.array_equal(db.placement.set_index, set_index)
    assert np.array_equal(db.file.values, values)


def test_a_failed_commit_reaches_the_caller(monkeypatch):
    threads_after = watch_threads(monkeypatch)
    db = build_database(6, 3, 6000, RngSpec(42))
    set_index, values = db.placement.set_index.copy(), db.file.values.copy()
    monkeypatch.setattr(removal.BinDirectoryRemoval, "commit", failing_commit(0))
    with pytest.raises(RebalanceError, match="the commit failed"):
        apply_removal_rebalance(db, 6, RngSpec(42))
    threads_after()
    assert db.nodes == (1, 2, 3, 4, 5, 6)
    assert np.array_equal(db.placement.set_index, set_index)
    assert np.array_equal(db.file.values, values)


def test_apply_equals_serial_bin_encode_and_commit(monkeypatch):
    # F spans two whole chunks and part of a third
    F = 2 * CHUNK + 4321
    threads_after = watch_threads(monkeypatch)
    db = build_database(6, 3, F, RngSpec(43))
    new_db, codewords = apply_removal_rebalance(db, 6, RngSpec(43))
    threads_after()
    # the new placement's set counts were taken with it, on the second thread
    with monkeypatch.context() as patch:
        patch.setattr(database, "count_keys", None)
        counts = new_db.placement.set_counts()

    directory = bin_removal(db, 6, RngSpec(43))
    serial = encode_removal(db, directory)
    # a box's bits keep the survivors outside its remainder
    box_sets = [tuple(n for n in directory.survivors if n not in label.remainder)
                for label in directory.labels]
    assert list(map(tuple, directory.table["new_set"].tolist())) == box_sets
    placement = directory.commit()
    assert new_db.file is db.file
    assert new_db.nodes == placement.nodes == (1, 2, 3, 4, 5)
    assert new_db.placement.support == placement.support
    assert np.array_equal(new_db.placement.set_index, placement.set_index)
    assert np.array_equal(counts, np.bincount(placement.set_index, minlength=len(placement.support)))
    key = lambda cw: (cw.sender, cw.group, cw.constituents, cw.payload.tobytes())
    assert list(map(key, codewords)) == list(map(key, serial))
