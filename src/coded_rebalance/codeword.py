"""Broadcast records and the box directory shared by both rebalancing protocols."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .database import Database, NodeSet, PlacementMap, full_support
from .exceptions import DirectoryMismatch, RebalanceError


@dataclass(frozen=True)
class Codeword:
    """One broadcast: a payload plus the labels of the packets inside it.

    ``constituents`` pairs each packet's box label with its true
    (pre-padding) length. The payload length equals the longest
    constituent; a codeword whose constituents are all empty is still a
    record, with a zero-length payload that is never put on the wire.
    """

    sender: int
    group: NodeSet
    payload: np.ndarray
    constituents: tuple[tuple[object, int], ...]

    @property
    def payload_bits(self) -> int:
        return int(self.payload.size)


def xor_packets(packets: Sequence[np.ndarray]) -> np.ndarray:
    """Position-wise XOR after zero-padding every packet at the tail."""
    length = max((int(p.size) for p in packets), default=0)
    out = np.zeros(length, dtype=np.uint8)
    for p in packets:
        out[: p.size] ^= p
    return out


def stable_key_order(keys: np.ndarray, num_keys: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in [0, num_keys).

    An LSD radix sort, O(len(keys)) per pass: one stable argsort of a uint16
    digit per 16 bits of key space, which numpy runs as a radix sort.
    """
    order = None
    for shift in range(0, max(int(num_keys - 1).bit_length(), 1), 16):
        digit = ((keys if order is None else keys[order]) >> shift).astype(np.uint16)
        perm = np.argsort(digit, kind="stable")
        order = perm if order is None else order[perm]
    return order


def group_by_key(keys: np.ndarray, num_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """Group positions by integer key in CSR form.

    Returns ``(order, offsets)``: the positions holding key ``k``, ascending,
    are ``order[offsets[k]:offsets[k + 1]]``.
    """
    counts = np.bincount(keys, minlength=num_keys)
    if counts.size != num_keys:
        raise ValueError(f"keys must lie in [0, {num_keys})")
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return stable_key_order(keys, num_keys), offsets


@dataclass
class BoxDirectory:
    """Bits binned into integer-keyed boxes: the layout both protocols share.

    ``placement`` is the placement the bits were binned from. ``bits`` holds
    the bits that took a box, ascending, and ``keys`` their box keys;
    ``box_bits`` holds the same bits grouped by key, with box ``k`` at
    ``box_bits[offsets[k]:offsets[k + 1]]`` in ascending bit order.
    """

    placement: PlacementMap = field(repr=False)
    bits: np.ndarray = field(repr=False)
    keys: np.ndarray = field(repr=False)
    box_bits: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)

    def _box(self, key: int) -> np.ndarray:
        return self.box_bits[self.offsets[key] : self.offsets[key + 1]]

    def check_placement(self, db: Database) -> None:
        """Raise ``DirectoryMismatch`` unless ``db`` has the placement binned from.

        O(1) for the very same placement object; otherwise the nodes, the
        replication, the support and every bit's set must be equal.
        """
        place, own = db.placement, self.placement
        if place is own:
            return
        if (
            place.nodes != own.nodes
            or place.replication != own.replication
            or place.support != own.support
            or not np.array_equal(place.set_index, own.set_index)
        ):
            raise DirectoryMismatch("directory was binned from a different placement")

    def commit(self, new_nodes: NodeSet, box_sets: Sequence[NodeSet]) -> PlacementMap:
        """The placement after each binned bit moves to its box's node set.

        ``box_sets[k]`` is the node set box ``k`` sends its bits to. Every
        other bit keeps its set, which must lie in the new nodes' support.
        """
        place = self.placement
        new_support = full_support(new_nodes, place.replication)
        lookup = {s: i for i, s in enumerate(new_support)}
        stay_table = np.array([lookup.get(s, -1) for s in place.support], dtype=np.int32)
        box_table = np.array([lookup.get(s, -1) for s in box_sets], dtype=np.int32)
        new_index = stay_table[place.set_index]
        new_index[self.bits] = box_table[self.keys]
        if new_index.min(initial=0) < 0:
            raise RebalanceError("internal error: a bit's new set lies outside the new support")
        return PlacementMap(new_nodes, place.replication, new_support, new_index)
