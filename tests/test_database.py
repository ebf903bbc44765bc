"""Placement construction, query primitives, and balance validation."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coded_rebalance import (
    FileInstance,
    InvalidParameters,
    PlacementMap,
    Database,
    RngSpec,
    UnknownNode,
    build_database,
    exclusive_group,
    full_support,
    node_contents,
    node_storage_counts,
    verify_r_balanced,
)


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


def test_build_determinism():
    a = build_database(6, 3, 500, RngSpec(77))
    b = build_database(6, 3, 500, RngSpec(77))
    assert np.array_equal(a.placement.set_index, b.placement.set_index)
    assert np.array_equal(a.file.values, b.file.values)
    c = build_database(6, 3, 500, RngSpec(78))
    assert not np.array_equal(a.placement.set_index, c.placement.set_index)


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
    assert report.offending_bits == ()
    assert report.storage_ok
    assert report.passed


def test_verify_r_balanced_reports_truncated_bit():
    db = build_database(6, 3, 200, RngSpec(4))
    place = db.placement
    # append an under-sized set and point one bit at it
    broken_support = place.support + ((1, 2),)
    idx = place.set_index.copy()
    idx[17] = len(broken_support) - 1
    tampered = Database(
        PlacementMap(place.nodes, place.replication, broken_support, idx), db.file
    )
    report = verify_r_balanced(tampered, tolerance=0.5)
    assert not report.replication_ok
    assert report.offending_bits == (17,)


@st.composite
def placements_with_wrong_sized_sets(draw):
    """A full support plus up to four under- or over-sized sets, shuffled;
    bits draw from a random subset of it, so some wrong-sized sets are
    populated and some are not."""
    K = draw(st.integers(2, 6))
    r = draw(st.integers(1, K))
    nodes = tuple(range(1, K + 1))
    wrong_size = st.sampled_from([n for n in range(1, K + 1) if n != r])
    extra = draw(st.lists(
        wrong_size.flatmap(lambda n: st.permutations(nodes).map(lambda p: tuple(sorted(p[:n])))),
        max_size=4,
    ))
    support = tuple(draw(st.permutations(full_support(nodes, r) + tuple(extra))))
    used = draw(st.lists(st.integers(0, len(support) - 1), min_size=1, unique=True))
    set_index = np.array(
        draw(st.lists(st.sampled_from(used), min_size=1, max_size=200)), dtype=np.int32
    )
    placement = PlacementMap(nodes, r, support, set_index)
    return Database(placement, FileInstance(set_index.size, np.zeros(set_index.size, np.uint8)))


@settings(max_examples=200, deadline=None)
@given(db=placements_with_wrong_sized_sets())
def test_verify_r_balanced_matches_the_per_bit_reference(db):
    place = db.placement
    sizes = np.array([len(s) for s in place.support])
    bad = sizes[place.set_index] != place.replication
    report = verify_r_balanced(db, tolerance=1.0)
    assert report.replication_ok == (not bad.any())
    assert report.offending_bits == tuple(int(i) for i in np.flatnonzero(bad))
    for node, load in report.node_loads.items():
        assert load == sum(node in place.node_set(i) for i in range(db.num_bits))


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


def test_set_counts_rejects_a_set_index_outside_the_support():
    support = full_support((1, 2, 3), 2)
    place = PlacementMap((1, 2, 3), 2, support, np.array([0, 3], dtype=np.int32))
    with pytest.raises(InvalidParameters):
        place.set_counts()


@pytest.mark.parametrize(
    "K,r,F",
    [(4, 5, 10), (4, 0, 10), (0, 1, 10), (4, 2, 0)],
)
def test_build_invalid_parameters(K, r, F):
    with pytest.raises(InvalidParameters):
        build_database(K, r, F, RngSpec(0))
