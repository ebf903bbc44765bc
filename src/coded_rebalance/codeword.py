"""Broadcast records and the box directory shared by both rebalancing protocols."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .database import (
    CHUNK,
    Database,
    FileInstance,
    NodeSet,
    PlacementMap,
    count_keys,
    full_support,
)
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
    offsets = np.concatenate(([0], np.cumsum(count_keys(keys, num_keys))))
    return stable_key_order(keys, num_keys), offsets


@dataclass
class BoxDirectory:
    """Bits binned into integer-keyed boxes: the layout both protocols share.

    ``placement`` is the placement the bits were binned from. ``bits`` holds
    the bits that took a box, ascending, and ``keys`` their box keys;
    ``box_bits`` holds the same bits grouped by key, with box ``k`` at
    ``box_bits[offsets[k]:offsets[k + 1]]`` in ascending bit order.

    Two facts about the boxes are derived once, on first use: ``box_set``,
    the support set each box's bits share, and ``box_values``, the file's
    values in ``box_bits`` order, from which packets are sliced.
    """

    placement: PlacementMap = field(repr=False)
    bits: np.ndarray = field(repr=False)
    keys: np.ndarray = field(repr=False)
    box_bits: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    _values: tuple[FileInstance, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def span(self, key: int) -> slice:
        """Where box ``key`` lies in ``box_bits`` and in ``box_values``."""
        return slice(self.offsets[key], self.offsets[key + 1])

    def _box(self, key: int) -> np.ndarray:
        return self.box_bits[self.span(key)]

    @cached_property
    def box_set(self) -> np.ndarray:
        """Per box key, the support set index that all of the box's bits
        share; -1 for an empty box or one that mixes sets."""
        filled = np.flatnonzero(np.diff(self.offsets))
        starts = self.offsets[filled]
        low = np.full(filled.size, np.iinfo(np.int64).max)
        high = np.full(filled.size, -1)
        # Gathered a chunk of box_bits at a time; a box that straddles a
        # chunk boundary takes the min and max of its pieces.
        for begin in range(0, self.box_bits.size, CHUNK):
            sets = self.placement.set_index[self.box_bits[begin : begin + CHUNK]]
            first = np.searchsorted(starts, begin, side="right") - 1
            boxes = np.arange(first, np.searchsorted(starts, begin + sets.size))
            pieces = np.maximum(starts[boxes] - begin, 0)
            np.minimum.at(low, boxes, np.minimum.reduceat(sets, pieces))
            np.maximum.at(high, boxes, np.maximum.reduceat(sets, pieces))
        out = np.full(self.offsets.size - 1, -1, dtype=np.int64)
        same = low == high
        out[filled[same]] = low[same]
        out.flags.writeable = False
        return out

    def box_values(self, file: FileInstance) -> np.ndarray:
        """``file.values[box_bits]``, read-only: box ``k``'s packet is
        ``box_values(file)[offsets[k]:offsets[k + 1]]``. Gathered once and
        kept for the last file asked about."""
        if self._values is None or self._values[0] is not file:
            values = file.values[self.box_bits]
            values.flags.writeable = False
            self._values = (file, values)
        return self._values[1]

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
        for start in range(0, self.bits.size, CHUNK):
            part = slice(start, start + CHUNK)
            new_index[self.bits[part]] = box_table[self.keys[part]]
        if new_index.min(initial=0) < 0:
            raise RebalanceError("internal error: a bit's new set lies outside the new support")
        return PlacementMap(new_nodes, place.replication, new_support, new_index)
