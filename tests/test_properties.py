"""Protocol invariants under randomized small instances."""

from itertools import combinations

import numpy as np
from hypothesis import given, settings, strategies as st

from coded_rebalance import (
    RngSpec,
    apply_addition_rebalance,
    apply_removal_rebalance,
    bin_addition,
    bin_removal,
    build_database,
    exclusive_group,
    node_contents,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def removal_instances(draw):
    K = draw(st.integers(min_value=3, max_value=7))
    r = draw(st.integers(min_value=2, max_value=K - 1))
    F = draw(st.integers(min_value=1, max_value=150))
    k = draw(st.integers(min_value=1, max_value=K))
    return K, r, F, k, draw(seeds)


@st.composite
def addition_instances(draw):
    K = draw(st.integers(min_value=1, max_value=6))
    r = draw(st.integers(min_value=1, max_value=K))
    F = draw(st.integers(min_value=1, max_value=150))
    return K, r, F, draw(seeds)


@settings(max_examples=30, deadline=None)
@given(
    K=st.integers(min_value=1, max_value=6),
    F=st.integers(min_value=1, max_value=120),
    seed=seeds,
    data=st.data(),
)
def test_exclusive_classes_partition_and_invert(K, F, seed, data):
    r = data.draw(st.integers(min_value=1, max_value=K))
    db = build_database(K, r, F, RngSpec(seed))
    seen = np.zeros(F, dtype=int)
    for m in combinations(range(1, K + 1), K - r):
        bits = exclusive_group(db, m)
        seen[bits] += 1
        stored = tuple(sorted(set(db.nodes) - set(m)))
        for bit in bits:
            assert db.placement.node_set(int(bit)) == stored
    assert np.all(seen == 1)
    total = sum(node_contents(db, n).size for n in db.nodes)
    assert total == r * F


@settings(max_examples=30, deadline=None)
@given(inst=removal_instances())
def test_removal_matches_straight_line_oracle(inst):
    K, r, F, k, seed = inst
    db = build_database(K, r, F, RngSpec(seed))
    directory = bin_removal(db, k, RngSpec(seed))
    new_db, codewords = apply_removal_rebalance(db, k, RngSpec(seed))

    # oracle: place each affected bit at its box target, no packets involved
    targets = np.repeat(directory.box_targets, np.diff(directory.offsets))
    target = dict(zip(directory.box_bits.tolist(), targets.tolist()))
    assert len(target) == len(directory)
    for bit in range(F):
        old = set(db.placement.node_set(bit))
        if k in old:
            expected = (old - {k}) | {target.pop(bit)}
        else:
            expected = old
        assert set(new_db.placement.node_set(bit)) == expected
        assert len(new_db.placement.node_set(bit)) == r

    assert not target  # every binned bit was stored at node k
    assert k not in {n for s in new_db.placement.support for n in s}
    total = sum(cw.payload_bits for cw in codewords)
    assert total * (r - 1) >= len(directory)


@settings(max_examples=30, deadline=None)
@given(inst=removal_instances())
def test_removal_is_deterministic(inst):
    K, r, F, k, seed = inst
    db = build_database(K, r, F, RngSpec(seed))
    a, cw_a = apply_removal_rebalance(db, k, RngSpec(seed))
    b, cw_b = apply_removal_rebalance(db, k, RngSpec(seed))
    assert np.array_equal(a.placement.set_index, b.placement.set_index)
    assert [c.payload.tolist() for c in cw_a] == [c.payload.tolist() for c in cw_b]


@settings(max_examples=30, deadline=None)
@given(inst=addition_instances())
def test_addition_conserves_and_balances(inst):
    K, r, F, seed = inst
    db = build_database(K, r, F, RngSpec(seed))
    directory = bin_addition(db, RngSpec(seed))
    new_db, codewords = apply_addition_rebalance(db, RngSpec(seed))

    new_node = K + 1
    assert new_db.nodes == tuple(range(1, K + 2))
    total = sum(cw.payload_bits for cw in codewords)
    assert node_contents(new_db, new_node).size == total

    for bit in range(F):
        old = set(db.placement.node_set(bit))
        new = set(new_db.placement.node_set(bit))
        assert len(new) == r
        label = directory.label_of(bit)
        if directory.codes[bit] < r:
            assert new == (old - {label.node}) | {new_node}
        else:
            assert label is None
            assert new == old
