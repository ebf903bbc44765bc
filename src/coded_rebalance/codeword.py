"""Broadcast records, schedules and the box directory both rebalancing protocols share."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .database import (
    CHUNK,
    Database,
    FileInstance,
    NodeSet,
    PlacementMap,
    full_support,
    gather,
    index_dtype,
)
from .exceptions import DirectoryMismatch, InvalidLabel, RebalanceError

# Packets are XORed into payloads one slice per packet, or, where the
# packets of a chunk or group of rows average fewer bits than this, all at
# once by an indexed numpy call: one slice costs about what indexing this
# many bits does.
SCATTER_BITS = 64


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

    def __eq__(self, other):
        if not isinstance(other, Codeword):
            return NotImplemented
        heads = (self.sender, self.group, self.constituents)
        return heads == (other.sender, other.group, other.constituents) and np.array_equal(
            self.payload, other.payload)


class Schedule(Sequence):
    """A protocol's broadcasts, one per row of ``directory.rows``: row ``i``'s
    payload is ``payload[starts[i]:starts[i + 1]]``, and ``schedule[i]``
    builds its ``Codeword`` (a slice, a list of them) and keeps none."""

    def __init__(self, directory: BoxDirectory, payload: np.ndarray, starts: np.ndarray):
        self.directory, self.payload, self.starts = directory, payload, starts

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i, d = range(len(self))[i], self.directory
        row = d.rows[i]
        sizes = (d.offsets[row + 1] - d.offsets[row]).tolist()
        boxes = d.table[row]  # the row's own entries, not every key's group or label
        group = d.group_of(boxes[0])  # which the whole row shares
        return Codeword(int(boxes["sender"][0]), group,
                        self.payload[self.starts[i] : self.starts[i + 1]],
                        tuple(zip(d.labels_of(boxes, [group] * len(boxes)), sizes)))


def packing(num_bits: int, num_keys: int) -> tuple[int, np.dtype]:
    """``(shift, dtype)`` of the word ``key << shift | bit`` for bits below
    ``num_bits`` and keys below ``num_keys``: uint32 when it fits, else
    uint64. ``ValueError`` for a pair over 64 bits."""
    shift = max(num_bits - 1, 0).bit_length()
    width = shift + max(num_keys - 1, 0).bit_length()
    if width > 64:
        raise ValueError(f"a (key, bit) pair needs {width} bits, more than 64")
    return shift, np.dtype(np.uint32 if width <= 32 else np.uint64)


def group_bits(words: np.ndarray, shift: int, num_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """Group distinct bits by key in [0, num_keys), in CSR form, in place.

    ``words`` holds ``key << shift | bit`` per bit, as ``packing`` says, and
    is sorted in place. Returns ``(box_bits, offsets)``: the bits with key
    ``k``, ascending, are ``box_bits[offsets[k]:offsets[k + 1]]``; each
    offset is a binary search for the key's first word. ``box_bits`` is the
    sorted words with the keys masked off, in ``index_dtype`` of the
    largest ``shift``-bit number (a copy only when that is narrower than
    the word). ``ValueError`` for a key out of range.
    """
    words.sort()
    if words.size and int(words[-1]) >> shift >= num_keys:
        raise ValueError(f"keys must lie in [0, {num_keys})")
    offsets = np.full(num_keys + 1, words.size, dtype=np.int64)
    offsets[0] = 0
    offsets[1:num_keys] = np.searchsorted(words, np.arange(1, num_keys, dtype=words.dtype) << shift)
    words &= (1 << shift) - 1
    return words.astype(index_dtype((1 << shift) - 1), copy=False), offsets


@dataclass
class BoxDirectory:
    """Bits binned into integer-keyed boxes: the layout both protocols share.

    ``placement`` is the placement the bits were binned from. ``box_bits``
    holds the bits that took a box, grouped by key, with box ``k`` at
    ``box_bits[offsets[k]:offsets[k + 1]]`` in ascending bit order. It is
    the one per-bit array kept, narrow (``index_dtype`` of the last file
    bit); ``packet_bits`` returns intp.

    ``per_bit`` walks ``box_bits`` in box order with a per-key fact spread
    over the bits. Packets are read from the packed file, with
    ``FileInstance.values_at``, by the callers that XOR them, a ``CHUNK``
    of ``box_bits`` or a group of rows per read; a directory keeps no
    values and no state per file.

    Each subclass states its box layout once, in ``table``: per box key,
    its codeword's ``sender`` and its bits' ``new_set``. From it come
    ``rows`` (one codeword's box keys per row, in broadcast order), with
    ``new_nodes`` the commit and, on request, ``groups`` and ``labels``.
    A record reads only its row's entries: ``group_of`` one entry's group,
    and each subclass's ``labels_of`` the labels of entries and their groups.
    """

    placement: PlacementMap = field(repr=False)
    box_bits: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)

    def span(self, key: int) -> slice:
        """Where box ``key`` lies in ``box_bits``."""
        return slice(self.offsets[key], self.offsets[key + 1])

    @cached_property
    def groups(self) -> tuple[NodeSet, ...]:
        """Per box key, its codeword's group: the new nodes outside its
        ``new_set`` other than its ``sender``. Equal groups share one tuple."""
        nodes, shared, groups = np.array(self.new_nodes), {}, []
        for part in np.split(self.table, range(CHUNK, len(self.table), CHUNK)):
            outside = np.ones((len(part), len(nodes)), dtype=bool)
            used = np.searchsorted(nodes, np.c_[part["sender"], part["new_set"]])
            outside[np.arange(len(part))[:, None], used] = False
            rows = np.broadcast_to(nodes, outside.shape)[outside].reshape(len(part), -1)
            heads = np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)]  # one tuple per run
            runs = [shared.setdefault(g, g) for g in map(tuple, rows[heads].tolist())]
            groups.extend(map(runs.__getitem__, (np.cumsum(heads) - 1).tolist()))
        return tuple(groups)

    def group_of(self, box: np.void) -> NodeSet:
        """``groups``' entry for one entry of ``table``, from that entry alone:
        a record's group costs O(K), not a pass over every key."""
        sender, new_set = int(box["sender"]), box["new_set"].tolist()
        return tuple(n for n in self.new_nodes if n != sender and n not in new_set)

    @cached_property
    def labels(self) -> tuple:
        """Every box's label, by key: ``labels_of`` the whole table."""
        return tuple(self.labels_of(self.table, self.groups))

    @cached_property
    def _keys_by_label(self) -> dict:
        return {label: key for key, label in enumerate(self.labels)}

    def key_of(self, label) -> int:
        """The key of the box ``label`` names; ``InvalidLabel`` if it names none."""
        try:
            return self._keys_by_label[label]
        except KeyError:
            raise InvalidLabel(f"{label} is not a box of this directory") from None

    def packet_bits(self, label) -> np.ndarray:
        """Ascending bit indices of one box (possibly empty); ``InvalidLabel``
        if the label names no box of this directory."""
        return self.box_bits[self.span(self.key_of(label))].astype(np.intp)

    def per_bit(self, per_key: np.ndarray):
        """Walk ``box_bits`` in box order, a ``CHUNK`` at a time: yields each
        chunk's start, its bits and, per bit, its box's entry of ``per_key``
        (in ``per_key``'s dtype)."""
        for begin in range(0, self.box_bits.size, CHUNK):
            bits = self.box_bits[begin : begin + CHUNK]
            # Boxes first..last-1 overlap this chunk, by these many bits.
            first = np.searchsorted(self.offsets, begin, side="right") - 1
            last = np.searchsorted(self.offsets, begin + bits.size)
            sizes = np.diff(np.clip(self.offsets[first : last + 1], begin, begin + bits.size))
            yield begin, bits, np.repeat(per_key[first:last], sizes)

    def payloads(self, file: FileInstance) -> tuple[np.ndarray, np.ndarray]:
        """Each row of ``rows``: its packets XORed, zero-padded to the row's
        longest, laid end to end in one buffer; and the rows' offsets in it.

        Walks ``box_bits`` in key order a ``CHUNK`` at a time, reading each
        chunk's values with one ``file.values_at``, and XORs each box's piece
        of the chunk into its row's slot: one slice at a time, or all in one
        scatter where the pieces average fewer than ``SCATTER_BITS`` bits.
        """
        rows, offsets = self.rows, self.offsets  # rows first: its sort peaks on its own
        starts = np.concatenate(([0], np.cumsum(np.diff(offsets)[rows].max(axis=1))))
        slot = np.empty(offsets.size - 1, dtype=np.int64)
        slot[rows] = starts[:-1, None]  # per key, its row's start in the buffer
        keys = np.flatnonzero(offsets[1:] != offsets[:-1])  # boxes that tile box_bits
        begins = offsets[keys]
        moves = slot[keys] - begins  # per box, from box_bits to the buffer
        del slot, keys
        out = np.zeros(starts[-1], dtype=np.uint8)
        for begin in range(0, self.box_bits.size, CHUNK):
            values = file.values_at(self.box_bits[begin : begin + CHUNK])
            end = begin + values.size
            # The boxes first..last-1 overlap the chunk; their pieces start at cuts.
            first = np.searchsorted(begins, begin, side="right") - 1
            last = np.searchsorted(begins, end)
            cuts = np.maximum(begins[first:last], begin)
            if cuts.size * SCATTER_BITS > values.size:
                at = np.repeat(moves[first:last], np.diff(cuts, append=end))
                at += np.arange(begin, end)
                np.bitwise_xor.at(out, at, values)
                continue
            for lo, hi, move in zip(cuts.tolist(), [*cuts[1:].tolist(), end],
                                    moves[first:last].tolist()):
                out[lo + move : hi + move] ^= values[lo - begin : hi - begin]
        return out, starts

    def schedule(self, file: FileInstance) -> Schedule:
        """One codeword per row of ``rows``, sent by its first box's sender."""
        return Schedule(self, *self.payloads(file))

    def check_placement(self, db: Database) -> None:
        """Raise ``DirectoryMismatch`` unless ``db`` has the placement binned from.

        O(1) for the very same placement object; otherwise the nodes, the
        replication and every bit's set must be equal.
        """
        place, own = db.placement, self.placement
        if place is own:
            return
        if (
            place.nodes != own.nodes
            or place.replication != own.replication
            or not np.array_equal(place.set_index, own.set_index)
        ):
            raise DirectoryMismatch("directory was binned from a different placement")

    def commit(self) -> PlacementMap:
        """The placement on ``new_nodes`` after each binned bit moves to its
        box's ``new_set``. Every other bit keeps its set, which must lie in
        the new support; ``RebalanceError`` otherwise. The new support's
        tuples, built for the lookup, become the placement's ``support``."""
        place = self.placement
        new_support = full_support(self.new_nodes, place.replication)
        unmapped = len(new_support)  # the index of a set outside the new support
        lookup = {s: i for i, s in enumerate(new_support)}
        dtype = index_dtype(unmapped)
        stay_table = np.array([lookup.get(s, unmapped) for s in place.support], dtype=dtype)
        # Each run of keys with one new set is looked up once.
        new_sets = self.table["new_set"]
        starts = np.ones(len(new_sets), dtype=bool)
        starts[1:] = np.any(new_sets[1:] != new_sets[:-1], axis=1)
        runs = [lookup.get(s, unmapped) for s in map(tuple, new_sets[starts].tolist())]
        box_table = np.array(runs, dtype=dtype)[np.cumsum(starts) - 1]
        new_index = gather(stay_table, place.set_index)
        for _, bits, new_sets in self.per_bit(box_table):
            new_index[bits] = new_sets
        if new_index.max(initial=0) >= unmapped:
            raise RebalanceError("internal error: a bit's new set lies outside the new support")
        placement = PlacementMap(self.new_nodes, place.replication, new_index)
        placement.adopt_support(new_support)
        return placement
