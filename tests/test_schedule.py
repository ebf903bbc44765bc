"""Both protocols' schedules against straight-line references.

The references walk the schedule the way the paper states it, one
codeword at a time, and find each packet from the bits' box keys alone:
removal sends, for every context (a (K-r-1)-subset of the survivors) and
every sender outside it, the XOR of the sender's packets for the other
members; addition ships, for every sender and every (K-r)-subset of the
other nodes, that class's move packet.
"""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coded_rebalance import (
    AdditionBoxLabel,
    RemovalBoxLabel,
    RngSpec,
    bin_addition,
    bin_removal,
    build_database,
    decode_removal,
    encode_addition,
    encode_removal,
    node_contents,
)
from coded_rebalance.rng import STREAM_REMOVAL_BINNING


def fields(codewords):
    return [(cw.sender, cw.group, cw.constituents, cw.payload.tobytes()) for cw in codewords]


def removal_keys(db, directory, spec):
    """The removed node's bits, ascending, and each one's box key, drawn
    from the binning stream: class ordinal times the boxes per class, plus
    the bit's code."""
    K, r, k = db.num_nodes, db.replication, directory.removed_node
    bits = node_contents(db, k)
    per_class = (K - r) * (r - 1)
    codes = spec.generator(STREAM_REMOVAL_BINNING).integers(0, per_class, size=bits.size)
    ordinal = np.cumsum(db.placement.support_membership(k)) - 1
    return bits, ordinal[db.placement.set_index[bits]] * per_class + codes


def reference_removal(db, directory, spec):
    r, survivors = db.replication, directory.survivors
    bits, keys = removal_keys(db, directory, spec)
    # Each class's ordinal is that of its stored set among the removed node's.
    stored_sets = [s for s in db.placement.support if directory.removed_node in s]
    schedule = []
    for ctx in combinations(survivors, len(db.nodes) - r - 1):
        members = [n for n in survivors if n not in ctx]
        for sender in members:
            constituents, packets = [], []
            for target in members:
                if target == sender:
                    continue
                cls = tuple(sorted((target, *ctx)))
                holders = [n for n in survivors if n not in cls]
                stored = tuple(n for n in db.nodes if n not in cls)
                key = (stored_sets.index(stored) * len(cls) + cls.index(target)) * (r - 1)
                key += holders.index(sender)
                packet = db.file.values[bits[keys == key]]
                constituents.append((RemovalBoxLabel(target, ctx, sender), packet.size))
                packets.append(packet)
            payload = np.zeros(max(p.size for p in packets), dtype=np.uint8)
            for packet in packets:
                payload[: packet.size] ^= packet
            schedule.append((sender, ctx, tuple(constituents), payload.tobytes()))
    return schedule


def reference_addition(db, directory):
    r = db.replication
    bits = np.flatnonzero(directory.codes < r)
    keys = db.placement.set_index[bits].astype(np.int64) * r + directory.codes[bits]
    schedule = []
    for sender in db.nodes:
        rest = [n for n in db.nodes if n != sender]
        for cls in combinations(rest, len(db.nodes) - r):
            s = db.placement.support.index(tuple(n for n in db.nodes if n not in cls))
            key = s * r + db.placement.support[s].index(sender)
            payload = db.file.values[bits[keys == key]]
            label = AdditionBoxLabel(cls, sender)
            schedule.append((sender, cls, ((label, payload.size),), payload.tobytes()))
    return schedule


instances = st.tuples(
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=20, deadline=None)
@given(instances)
def test_removal_schedule_equals_the_reference_and_decodes(instance):
    K, F, seed = instance
    for r in range(2, K):
        db = build_database(K, r, F, RngSpec(seed))
        for removed in db.nodes:
            directory = bin_removal(db, removed, RngSpec(seed))
            codewords = encode_removal(db, directory)
            assert fields(codewords) == reference_removal(db, directory, RngSpec(seed))
            for cw in codewords:
                for label, _ in cw.constituents:
                    bits, values = decode_removal(label.target, cw, db, directory)
                    assert np.array_equal(bits, directory.packet_bits(label))
                    assert np.array_equal(values, db.file.values[bits])


@settings(max_examples=20, deadline=None)
@given(instances)
def test_addition_schedule_equals_the_reference(instance):
    K, F, seed = instance
    for r in range(1, K + 1):
        db = build_database(K, r, F, RngSpec(seed))
        directory = bin_addition(db, RngSpec(seed))
        assert fields(encode_addition(db, directory)) == reference_addition(db, directory)


def removal_schedule():
    # 30 rows at K=6, r=3; about 30 bits in 60 boxes leave some rows empty
    db = build_database(6, 3, 60, RngSpec(3))
    return encode_removal(db, bin_removal(db, 6, RngSpec(3)))


def test_a_schedule_is_a_sequence_of_records_built_on_request():
    schedule = removal_schedule()
    assert len(schedule) == 30
    records = [schedule[i] for i in range(len(schedule))]
    assert list(schedule) == records
    assert schedule[-1] == records[-1] and schedule[-30] == records[0]
    # slices of 1 and 7 rows at a time: test_removal.py's slice test
    assert schedule[:] == records and schedule[::7] == records[::7]
    assert schedule[28:40] == records[28:]  # a short last slice
    for past in (30, -31):
        with pytest.raises(IndexError):
            schedule[past]
    for i, cw in enumerate(records):
        assert type(cw.sender) is int and all(type(n) is int for n in cw.group)
        assert all(type(n) is int for _, n in cw.constituents)
        assert cw.payload.base is schedule.payload  # a view, not a copy
        assert cw.payload_bits == schedule.starts[i + 1] - schedule.starts[i]
    assert records[0] is not schedule[0]  # none is kept


def addition_schedule():
    db = build_database(4, 2, 60, RngSpec(3))
    return encode_addition(db, bin_addition(db, RngSpec(3)))


@pytest.mark.parametrize("make", [removal_schedule, addition_schedule])
def test_a_record_derives_only_its_own_row_s_groups_and_labels(make):
    # a record costs O(r): at K=30, r=5 every key's labels took seconds
    schedule = make()
    directory = schedule.directory
    records = [schedule[0], schedule[len(schedule) - 1]]
    assert "groups" not in vars(directory) and "labels" not in vars(directory)
    for i, cw in zip((0, len(schedule) - 1), records):
        keys = directory.rows[i].tolist()
        assert cw.group == directory.groups[keys[0]]
        assert [label for label, _ in cw.constituents] == [directory.labels[k] for k in keys]
    assert [directory.group_of(box) for box in directory.table] == list(directory.groups)


def test_records_compare_by_value():
    schedule = removal_schedule()
    again = removal_schedule()  # built from a database and directory of its own
    empty = [i for i, cw in enumerate(schedule) if not cw.payload_bits]
    full = next(i for i, cw in enumerate(schedule) if cw.payload_bits)
    assert empty
    assert schedule[full] == again[full] and schedule[empty[0]] == again[empty[0]]
    payload = schedule[full].payload.copy()
    payload[-1] ^= 1
    assert replace(schedule[full], payload=payload) != schedule[full]
    assert schedule[full] != schedule[empty[0]]
    for k in (full, empty[0], len(schedule) - 1):
        assert schedule.index(schedule[k]) == k
    assert schedule.count(schedule[full]) == 1 and again[full] in schedule
    with pytest.raises(TypeError):
        hash(schedule[full])
