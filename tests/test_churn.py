"""Chains of removal and addition events (churn) keep the placement law."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from coded_rebalance import (
    RngSpec,
    apply_addition_rebalance,
    apply_removal_rebalance,
    bin_addition,
    bin_removal,
    build_database,
    full_support,
    node_contents,
    uniformity_check,
    verify_r_balanced,
)

from box_reference import addition_boxes, removal_boxes, table_boxes

ADD = "add"


def node_masks(db):
    """Each bit's node set as a bitmask with bit ``n`` set for node ``n``."""
    place = db.placement
    masks = np.array([sum(1 << n for n in s) for s in place.support], dtype=np.int64)
    return masks[place.set_index]


def remove(db, node, spec):
    """Remove ``node``; each of its bits gains its box target, no other bit moves."""
    directory = bin_removal(db, node, spec)
    new_db, _ = apply_removal_rebalance(db, node, spec)
    assert new_db.nodes == tuple(n for n in db.nodes if n != node)
    expected = node_masks(db)
    affected = directory.box_bits.astype(np.intp)
    assert np.array_equal(np.sort(affected), node_contents(db, node))
    targets = np.repeat(directory.box_targets, np.diff(directory.offsets))
    expected[affected] += (1 << targets) - (1 << node)
    assert np.array_equal(node_masks(new_db), expected)
    return new_db


def add(db, spec):
    """Add a node; it stores exactly the shipped bits, each taken from its
    box's holder, and no other bit moves."""
    directory = bin_addition(db, spec)
    new_db, codewords = apply_addition_rebalance(db, spec)
    newcomer = max(db.nodes) + 1
    assert new_db.nodes == (*db.nodes, newcomer)
    shipped = np.sort(np.concatenate(
        [directory.packet_bits(label) for cw in codewords for label, _ in cw.constituents]
    ))
    assert np.array_equal(node_contents(new_db, newcomer), shipped)
    assert shipped.size == sum(cw.payload_bits for cw in codewords)
    expected = node_masks(db)
    for bit in shipped.tolist():
        expected[bit] += (1 << newcomer) - (1 << directory.label_of(bit).node)
    assert np.array_equal(node_masks(new_db), expected)
    return new_db


def check_placement(db, r):
    place = db.placement
    assert verify_r_balanced(db).replication_ok
    assert all(len(s) == r for s in place.support)
    populated = {place.support[s] for s in np.unique(place.set_index)}
    assert populated <= set(full_support(db.nodes, r))


def run_event(db, event, spec):
    return add(db, spec) if event == ADD else remove(db, event, spec)


@st.composite
def churn_chains(draw):
    K = draw(st.integers(min_value=3, max_value=6))
    r = draw(st.integers(min_value=2, max_value=K - 1))
    F = draw(st.integers(min_value=1, max_value=150))
    picks = draw(st.lists(st.one_of(st.none(), st.integers(min_value=0, max_value=20)),
                          min_size=1, max_size=5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return K, r, F, picks, seed


@settings(max_examples=40, deadline=None)
@given(chain=churn_chains())
def test_churn_chain_keeps_replication_support_and_untouched_bits(chain):
    # a pick of None adds a node; any other pick removes the current node at
    # that position (modulo the node count), as long as r stays below K
    K, r, F, picks, seed = chain
    db = build_database(K, r, F, RngSpec(seed))
    for i, pick in enumerate(picks):
        nodes = db.nodes
        event = ADD if pick is None or len(nodes) == r + 1 else nodes[pick % len(nodes)]
        db = run_event(db, event, RngSpec(seed, trial=i))
        check_placement(db, r)


def test_remove_then_add_gives_non_contiguous_ids():
    db = build_database(5, 2, 100, RngSpec(7))
    db = run_event(db, 2, RngSpec(7, trial=0))
    db = run_event(db, ADD, RngSpec(7, trial=1))
    assert db.nodes == (1, 3, 4, 5, 6)
    check_placement(db, 2)


def test_churned_directories_state_the_straight_line_boxes_and_groups():
    # node ids stop being contiguous after the first removal
    db = build_database(6, 3, 200, RngSpec(12))
    for i, event in enumerate((3, ADD, 5)):
        spec = RngSpec(12, trial=i)
        if event == ADD:
            directory, boxes = bin_addition(db, spec), addition_boxes(db.nodes, 3)
        else:
            directory, boxes = bin_removal(db, event, spec), removal_boxes(db.nodes, event, 3)
        assert table_boxes(directory) == boxes, event
        db = run_event(db, event, spec)
    assert db.nodes == (1, 2, 4, 6, 7)


def test_six_event_chain_keeps_the_uniform_placement_law():
    # After each event every bit's set is uniform over the current nodes'
    # r-subsets, independently across bits, so each set's count is
    # Binomial(F, 1/|support|); allow five standard deviations.
    K, r, F = 6, 3, 2 * 10**5
    db = build_database(K, r, F, RngSpec(2024))
    for i, event in enumerate((2, ADD, 5, ADD, 1, ADD)):
        db = run_event(db, event, RngSpec(2024, trial=i))
        support = full_support(db.nodes, r)
        p = 1 / len(support)
        bound = 5 * math.sqrt((1 - p) / (F * p))
        check = uniformity_check(db.placement, support)
        assert check.total_observations == F
        assert check.max_relative_error <= bound, (db.nodes, check.max_relative_error, bound)
    assert db.nodes == (3, 4, 6, 7, 8, 9)
