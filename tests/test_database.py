"""Placement construction, query primitives, and balance validation."""

import hashlib
import math
import threading
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coded_rebalance import (
    FileInstance,
    InvalidParameters,
    MismatchedParameters,
    PlacementMap,
    Database,
    RngSpec,
    UnknownNode,
    build_database,
    draw_file,
    draw_placement,
    exclusive_group,
    full_support,
    node_contents,
    node_storage_counts,
    verify_r_balanced,
)
from coded_rebalance import database
from coded_rebalance.database import CHUNK, NodeSets, in_background
from coded_rebalance.rng import STREAM_PLACEMENT, STREAM_VALUES


def test_every_bit_replicated_three_times():
    db = build_database(6, 3, 1000, RngSpec(11))
    assert all(len(db.placement.node_set(i)) == 3 for i in range(1000))


def test_full_replication_single_subset():
    db = build_database(4, 4, 10, RngSpec(0))
    assert all(db.placement.node_set(i) == (1, 2, 3, 4) for i in range(10))
    for n in range(1, 5):
        assert node_contents(db, n).size == 10


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_node_storage_binomial_concentration(seed):
    # per-node load is Binomial(F, 1/2): mean 5e5, sigma = sqrt(F/4) = 500
    F = 10**6
    db = build_database(6, 3, F, RngSpec(seed))
    sigma = math.sqrt(F * 0.5 * 0.5)
    for load in node_storage_counts(db).values():
        assert abs(load - F * 0.5) <= 3 * sigma


def test_total_storage_counts_each_bit_r_times():
    db = build_database(5, 3, 4321, RngSpec(5))
    assert sum(node_storage_counts(db).values()) == 3 * 4321


def test_exclusive_group_contains_definition_bit():
    db = build_database(6, 3, 100, RngSpec(9))
    absent = set(db.nodes) - set(db.placement.node_set(7))
    assert 7 in exclusive_group(db, absent)


def test_exclusive_group_wrong_size_is_empty():
    db = build_database(6, 3, 100, RngSpec(9))
    assert exclusive_group(db, {1, 2}).size == 0
    assert exclusive_group(db, {1, 2, 3, 4}).size == 0


def test_exclusive_classes_partition_file():
    K, r, F = 6, 3, 20000
    db = build_database(K, r, F, RngSpec(21))
    seen = np.zeros(F, dtype=int)
    classes = list(combinations(range(1, K + 1), K - r))
    assert len(classes) == 20
    for m in classes:
        bits = exclusive_group(db, m)
        seen[bits] += 1
        # independent membership oracle: complement of the absent set
        expected_set = tuple(sorted(set(db.nodes) - set(m)))
        assert all(db.placement.node_set(int(i)) == expected_set for i in bits[:25])
    assert np.all(seen == 1)


def test_node_contents_equals_union_of_its_classes():
    # node 6 holds exactly the classes whose absent set avoids node 6
    db = build_database(6, 3, 5000, RngSpec(3))
    pieces = [exclusive_group(db, m) for m in combinations(range(1, 6), 3)]
    assert len(pieces) == 10
    union = np.sort(np.concatenate(pieces))
    assert np.array_equal(union, node_contents(db, 6))


def test_inverse_index_consistency():
    db = build_database(5, 2, 800, RngSpec(13))
    contents = {n: set(node_contents(db, n).tolist()) for n in db.nodes}
    for i in range(800):
        for n in db.nodes:
            assert (i in contents[n]) == (n in db.placement.node_set(i))


def test_node_contents_unknown_node():
    db = build_database(4, 2, 10, RngSpec(1))
    with pytest.raises(UnknownNode):
        node_contents(db, 9)


def test_support_membership_of_an_unknown_node_raises():
    db = build_database(4, 2, 10, RngSpec(1))
    assert db.placement.support_membership(2).tolist() == [True, False, False, True, True, False]
    with pytest.raises(UnknownNode):
        db.placement.support_membership(9)


def test_build_determinism():
    a = build_database(6, 3, 500, RngSpec(77))
    b = build_database(6, 3, 500, RngSpec(77))
    assert np.array_equal(a.placement.set_index, b.placement.set_index)
    assert np.array_equal(a.file.values, b.file.values)
    c = build_database(6, 3, 500, RngSpec(78))
    assert not np.array_equal(a.placement.set_index, c.placement.set_index)


def test_build_database_is_draw_placement_and_draw_file():
    db = build_database(6, 3, 5000, RngSpec(3, trial=2))
    placement = draw_placement(6, 3, 5000, RngSpec(3, trial=2))
    assert placement.support == db.placement.support
    assert np.array_equal(placement.set_index, db.placement.set_index)
    assert np.array_equal(draw_file(5000, RngSpec(3, trial=2)).values, db.file.values)


def test_file_values_do_not_depend_on_the_placement():
    a = build_database(6, 3, 3000, RngSpec(12))
    b = build_database(4, 2, 3000, RngSpec(12))
    assert np.array_equal(a.file.values, b.file.values)
    assert not np.array_equal(a.file.values, build_database(6, 3, 3000, RngSpec(13)).file.values)


@pytest.mark.parametrize("F", [1, 7, CHUNK, CHUNK + 3, 3 * CHUNK + 5, 3 * CHUNK + 8])
def test_file_values_drawn_a_chunk_at_a_time_equal_one_whole_draw(F):
    # the bits of one gen.bytes(ceil(F / 8)) call on the values stream
    raw = RngSpec(6).generator(STREAM_VALUES).bytes(-(-F // 8))
    whole = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=F)
    assert np.array_equal(draw_file(F, RngSpec(6)).values, whole)


def test_file_values_are_fair_bits():
    values = draw_file(10**6, RngSpec(4)).values
    assert set(np.unique(values)) == {0, 1}
    assert abs(values.mean() - 0.5) <= 5 * 0.0005  # five sigma of a fair coin


def test_file_values_are_pinned():
    # Documents do not depend on the values, so no golden file or digest
    # would notice a change in how the file is drawn or stored.
    values = draw_file(10**6 + 5, RngSpec(3, trial=2)).values
    assert values.dtype == np.uint8 and values.shape == (10**6 + 5,)
    assert hashlib.sha256(values.tobytes()).hexdigest() == (
        "13d4e4320ba7099849f0cf3c595a36c624505a22a2fb699eba6838564236a4a6"
    )


def test_file_is_kept_packed_8_bits_to_a_byte():
    # the stream's own bytes; the last byte's 5 pad bits are drawn too
    file = draw_file(8 * CHUNK + 3, RngSpec(9))
    assert file.packed.dtype == np.uint8 and file.packed.shape == (CHUNK + 1,)
    assert file.packed.tobytes() == RngSpec(9).generator(STREAM_VALUES).bytes(CHUNK + 1)
    assert "values" not in vars(file)
    assert file.values is file.values  # unpacked once on request, then kept
    assert np.array_equal(FileInstance.from_values(file.values).values, file.values)


@pytest.mark.parametrize("F", [1, 7, 8, 9, 8 * CHUNK + 3])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
def test_values_at_equals_values_indexed(F, dtype):
    file = draw_file(F, RngSpec(2))
    top = min(F, np.iinfo(dtype).max + 1)
    rng = np.random.default_rng(F)
    # unsorted and repeated, over more than two of values_at's chunks
    scattered = rng.integers(0, top, size=2 * CHUNK + 7).astype(dtype)
    ascending = np.arange(top, dtype=dtype)
    for bits in (scattered, ascending, ascending[::-1], scattered[:0]):
        assert np.array_equal(file.values_at(bits), file.values[bits])
        assert file.values_at(bits).dtype == np.uint8


def test_values_at_rejects_a_bit_outside_the_file():
    file = draw_file(9, RngSpec(2))  # bytes hold 16 bits, 7 of them padding
    for bad in ([9], [15], [-1]):
        with pytest.raises(IndexError):
            file.values_at(np.array(bad))


def test_file_instance_rejects_malformed_values_and_bytes():
    for values in (np.zeros((2, 4), np.uint8), np.array([0, 2, 1]), np.empty(0, np.uint8),
                   np.array([256, 1]), np.array([-1, 0]), np.array([1.0, 0.0])):
        with pytest.raises(InvalidParameters):
            FileInstance.from_values(values)
    for num_bits, size in ((8, 2), (9, 1), (0, 0)):
        with pytest.raises(InvalidParameters):
            FileInstance(num_bits, np.zeros(size, np.uint8))
    # bytes that a cast to uint8 would wrap or truncate: 300 -> 44, -1 -> 255, 1.7 -> 1
    for packed in (np.array([300, 0]), np.array([-1, 0]), np.array([1.7, 2.2]), np.array([True])):
        with pytest.raises(InvalidParameters):
            FileInstance(8 * packed.size, packed)


def test_file_instance_keeps_uint8_bytes_and_casts_other_integers_in_range():
    packed = np.array([44, 255], np.uint8)
    assert FileInstance(16, packed).packed is packed  # no copy, made read-only
    assert not packed.flags.writeable
    wide = FileInstance(16, np.array([44, 255], np.int64)).packed
    assert wide.dtype == np.uint8 and wide.tolist() == [44, 255]


@pytest.mark.parametrize("F", [0, -3])
def test_draw_file_rejects_an_empty_file(F):
    with pytest.raises(InvalidParameters):
        draw_file(F, RngSpec(0))


def test_empirical_uniformity_over_support():
    F = 10**6
    db = build_database(6, 3, F, RngSpec(123))
    freqs = db.placement.set_counts() / F
    assert freqs.size == 20
    assert np.all(np.abs(freqs - 1 / 20) <= 5e-3)


def test_verify_r_balanced_fresh_database():
    db = build_database(6, 3, 10**6, RngSpec(4))
    report = verify_r_balanced(db, tolerance=0.01)
    assert report.replication_ok
    assert report.storage_ok
    assert report.passed


def test_database_rejects_a_file_of_another_length():
    place = build_database(4, 2, 1000, RngSpec(1)).placement
    for bits in (500, 2000):
        with pytest.raises(MismatchedParameters):
            Database(place, FileInstance.from_values(np.zeros(bits, np.uint8)))


def test_full_support_is_node_sets_of_ascending_python_ints():
    support = full_support(np.array([3, 1, 2]), 2)
    assert type(support) is NodeSets
    assert support == ((1, 2), (1, 3), (2, 3))
    assert all(type(n) is int for s in support for n in s)
    assert type(support + ((1, 2),)) is tuple  # concatenation keeps no promise


@pytest.mark.parametrize(
    "nodes,r,set_index",
    [
        ((1, 1, 2), 2, np.zeros(3, np.int32)),  # a node named twice
        ((2, 1, 3), 2, np.zeros(3, np.int32)),  # nodes out of order
        ((1, 2, 3), 0, np.zeros(3, np.int32)),
        ((1, 2, 3), 4, np.zeros(3, np.int32)),
        ((1, 2, 3), 2, np.zeros((3, 1), np.int32)),
        ((1, 2, 3), 2, np.zeros(3, np.float64)),
    ],
)
def test_placement_rejects_input_that_would_not_give_each_bit_r_distinct_holders(
        nodes, r, set_index):
    with pytest.raises(InvalidParameters):
        PlacementMap(nodes, r, set_index)


def test_support_is_the_full_support_built_on_first_read(monkeypatch):
    built = []
    monkeypatch.setattr(database, "full_support", lambda *a: built.append(a) or full_support(*a))
    place = draw_placement(6, 3, 500, RngSpec(5))
    node_storage_counts(Database(place, draw_file(500, RngSpec(5))))  # set counts and members
    assert built == [] and "support" not in vars(place)  # no tuple built so far
    assert place.support == full_support(range(1, 7), 3) and type(place.support) is NodeSets
    assert place.support is place.support and len(built) == 1


def test_a_placement_adopts_only_its_own_full_support():
    place = draw_placement(6, 3, 500, RngSpec(5))
    for wrong in (full_support(range(1, 6), 3), full_support(range(2, 8), 3),
                  full_support(range(1, 7), 2), tuple(full_support(range(1, 7), 3))):
        with pytest.raises(InvalidParameters):
            place.adopt_support(wrong)
    assert "support" not in vars(place)
    support = full_support(range(1, 7), 3)
    place.adopt_support(support)
    assert place.support is support


def test_node_set_rejects_a_bit_outside_the_file():
    place = draw_placement(4, 2, 10, RngSpec(1))
    assert place.node_set(9) == place.support[int(place.set_index[9])]
    for bit in (-1, 10):
        with pytest.raises(IndexError):
            place.node_set(bit)


@st.composite
def random_placements(draw):
    """A placement of up to 200 bits over K <= 6 nodes, any r, with each
    bit's set index drawn in range, so some sets may stay empty."""
    K = draw(st.integers(1, 6))
    r = draw(st.integers(1, K))
    num_sets = math.comb(K, r)
    set_index = np.array(
        draw(st.lists(st.integers(0, num_sets - 1), min_size=1, max_size=200)), dtype=np.int32
    )
    placement = PlacementMap(tuple(range(1, K + 1)), r, set_index)
    return Database(placement, FileInstance.from_values(np.zeros(set_index.size, np.uint8)))


@settings(max_examples=200, deadline=None)
@given(db=random_placements())
def test_verify_r_balanced_matches_the_per_bit_reference(db):
    place = db.placement
    sets = list(combinations(place.nodes, place.replication))  # the per-set reference
    report = verify_r_balanced(db, tolerance=1.0)
    assert place.members.tolist() == [[n in s for s in sets] for n in place.nodes]
    assert report.replication_ok
    assert all(place.node_set(i) == sets[s] for i, s in enumerate(place.set_index.tolist()))
    for node, load in report.node_loads.items():
        assert load == sum(node in place.node_set(i) for i in range(db.num_bits))


def test_verify_r_balanced_rejects_a_set_index_outside_the_support():
    place = PlacementMap((1, 2, 3, 4), 2, np.array([0, 6, 1], dtype=np.int32))  # C(4, 2) = 6
    db = Database(place, FileInstance.from_values(np.zeros(3, np.uint8)))
    with pytest.raises(InvalidParameters):
        verify_r_balanced(db)


def test_set_counts_is_cached_read_only_and_equal_to_bincount():
    # F spans several of the chunks the counts are taken in
    db = build_database(6, 3, 200_000, RngSpec(8))
    place = db.placement
    counts = place.set_counts()
    assert place.set_counts() is counts
    assert np.array_equal(counts, np.bincount(place.set_index, minlength=len(place.support)))
    with pytest.raises(ValueError):
        counts[0] = 0


def test_set_index_and_file_values_are_read_only():
    db = build_database(6, 3, 100, RngSpec(8))
    with pytest.raises(ValueError):
        db.placement.set_index[0] = 1
    with pytest.raises(ValueError):
        db.file.values[0] ^= 1


@pytest.mark.parametrize("K,r,dtype", [(6, 3, np.uint8), (16, 5, np.uint16)])
def test_set_index_is_stored_narrow_with_the_same_draws(K, r, dtype):
    db = build_database(K, r, 5000, RngSpec(2))
    assert db.placement.set_index.dtype == dtype
    drawn = RngSpec(2).generator(STREAM_PLACEMENT).integers(
        0, math.comb(K, r), size=5000, dtype=np.int32
    )
    assert np.array_equal(db.placement.set_index, drawn)


def test_set_counts_rejects_a_set_index_outside_the_support():
    place = PlacementMap((1, 2, 3), 2, np.array([0, 3], dtype=np.int32))
    with pytest.raises(InvalidParameters):
        place.set_counts()


@pytest.mark.parametrize(
    "K,r,F",
    [(4, 5, 10), (4, 0, 10), (0, 1, 10), (4, 2, 0)],
)
def test_build_invalid_parameters(K, r, F):
    with pytest.raises(InvalidParameters):
        build_database(K, r, F, RngSpec(0))


def test_in_background_runs_on_a_second_thread_and_hands_back_its_outcome(monkeypatch):
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    go = threading.Event()

    def work():
        assert go.wait(timeout=10)  # set by the caller after in_background returns
        return threading.current_thread()

    join = in_background(work)
    go.set()
    worker = join()
    assert worker is not threading.current_thread()
    assert not worker.is_alive()

    error = KeyError("lost")

    def fail():
        raise error

    join = in_background(fail)
    with pytest.raises(KeyError) as raised:
        join()
    assert raised.value is error

    finished = []
    join = in_background(lambda: (time.sleep(0.05), finished.append(1), fail()))
    join(drop=True)  # on a path already raising: waits, raises nothing
    assert finished == [1]
    assert escaped == []
