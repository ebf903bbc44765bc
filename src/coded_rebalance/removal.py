"""Rebalancing after a node removal.

Every bit the removed node held survives on its other holders, one fewer
than the replication factor. The protocol restores replication with coded
broadcasts instead of raw copies:

1.  Binning. Each affected bit picks, uniformly at random, one box labeled
    (target, remainder, holder): the target is the survivor that will store
    the bit afterwards, the holder is a survivor that already stores it and
    will broadcast it, and the remainder is the rest of the bit's class.
    The assignment is shared metadata, visible to every node.
2.  Encoding. For each remainder set and each sender, the packets the
    sender holds for the other members of its group are zero-padded to a
    common length and XORed into one codeword.
3.  Decoding. Each target cancels the packets it already stores and is
    left with exactly the packet addressed to it; the shared directory
    supplies bit order and true lengths so padding is discarded safely.

Storage is rewritten only after the whole schedule has been checked to
decode at every recipient from bits it stores, so no partially rebalanced
state is ever observable. The new placement may be built on a second
thread while the check runs; it is discarded unless the check passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codeword import SCATTER_BITS, BoxDirectory, Codeword, Schedule, group_bits, packing
from .database import CHUNK, Database, NodeSet, PlacementMap, in_background, index_dtype
from .exceptions import DecodeVerificationError, NotARecipient, ReplicationOutOfRange, UnknownNode
from .rng import STREAM_REMOVAL_BINNING, RngSpec

@dataclass(frozen=True)
class RemovalBoxLabel:
    """Names one box of the removal binning.

    ``target`` stores the box's packet after rebalancing, ``holder`` is a
    survivor that already stores it and broadcasts it, and ``remainder`` is
    the rest of the packet's class (the survivors missing the bits, minus
    the target).
    """

    target: int
    remainder: NodeSet
    holder: int


@dataclass
class BinDirectoryRemoval(BoxDirectory):
    """Shared box assignment for every bit the removed node stored.

    This is globally known metadata: all survivors see the same assignment,
    so XOR packets align position for position and true lengths are known
    for unpadding. It is never charged to the communication load.

    The binned bits are the removed node's store. Boxes are numbered by an
    integer key: class ordinal times the (K-r)(r-1) boxes per class, plus the
    target's index in the class times r-1, plus the holder's index.
    """

    removed_node: int
    survivors: NodeSet

    def __len__(self) -> int:
        return int(self.box_bits.size)

    @property
    def new_nodes(self) -> NodeSet:
        return self.survivors

    @cached_property
    def table(self) -> np.ndarray:
        """Per box key: ``target``; the holder, as ``sender``; the support
        index of the class's stored set, as ``set``; and the holders plus the
        target, as ``new_set``."""
        place = self.placement
        r, node = place.replication, index_dtype(max(place.nodes))
        member = place.support_membership(self.removed_node)
        # Per class, by node: whether the node stores the class's set.
        stored, nodes = place.members[:, member].T, np.array(place.nodes, dtype=node)
        cls = nodes[np.nonzero(~stored)[1]].reshape(-1, len(nodes) - r)
        holders = nodes[np.nonzero(stored & (nodes != self.removed_node))[1]].reshape(-1, r - 1)
        table = np.empty((*cls.shape, r - 1), [("target", node), ("sender", node),
                         ("set", index_dtype(len(place.support))), ("new_set", node, (r,))])
        table["target"], table["sender"] = cls[:, :, None], holders[:, None, :]
        table["set"] = np.flatnonzero(member)[:, None, None]
        for t in range(cls.shape[1]):
            table["new_set"][:, t] = np.sort(np.c_[holders, cls[:, t]], axis=1)[:, None]
        return table.reshape(-1)

    @property
    def box_targets(self) -> np.ndarray:
        """The survivor each box's bits move to, by key, as intp."""
        return self.table["target"].astype(np.intp)

    @cached_property
    def misplaced(self) -> np.ndarray:
        """Per box key, read-only: whether a bit of the box lies outside its ``set``."""
        out = np.zeros(len(self.table), dtype=bool)
        for start, bits, sets in self.per_bit(self.table["set"]):
            # Keys are searched for the wrong bits only, not for every bit.
            wrong = start + np.flatnonzero(np.take(self.placement.set_index, bits) != sets)
            out[np.searchsorted(self.offsets, wrong, side="right") - 1] = True
        out.flags.writeable = False
        return out

    def labels_of(self, boxes: np.ndarray, groups: list[NodeSet]):
        """The labels of table entries ``boxes``, with ``groups`` as remainders."""
        return map(RemovalBoxLabel, boxes["target"].tolist(), groups, boxes["sender"].tolist())

    def codeword_of(self, label: RemovalBoxLabel) -> tuple[int, NodeSet]:
        """The sender and group of the codeword that carries ``label``."""
        return label.holder, label.remainder

    @cached_property
    def rows(self) -> np.ndarray:
        """Box keys by codeword, in the order of ``encode_removal``: contexts
        (the survivors outside ``new_set``) lexicographically, so new sets in
        reverse, then holders; each row's r-1 boxes by target."""
        table = self.table  # ~ reverses the order of the unsigned node ids
        keys = (table["target"], table["sender"], *(~table["new_set"]).T[::-1])
        return np.lexsort(keys).reshape(-1, self.placement.replication - 1)

    def label_of(self, bit: int) -> RemovalBoxLabel:
        """The box of one bit of the removed node's store: the box whose
        slice of ``box_bits`` holds it, found by one scan."""
        at = np.flatnonzero(self.box_bits == bit)
        if not at.size:
            raise KeyError(f"bit {bit} was not stored at node {self.removed_node}")
        return self.labels_at([np.searchsorted(self.offsets, at[0], side="right") - 1])[0]


def bin_removal(db: Database, removed_node: int, rng: RngSpec) -> BinDirectoryRemoval:
    """Assign every bit of the removed node's store to one box, uniformly.

    For each class of affected bits there are (K-r)(r-1) boxes: one per
    (target, holder) pair, with the target drawn from the class and the
    holder from the bit's surviving storers. Draws are independent across
    bits and consumed in ascending bit order; ``group_bits`` then sorts the
    bits, packed with their box keys, into boxes.
    """
    place = db.placement
    nodes = place.nodes
    num_nodes = len(nodes)
    r = place.replication
    if removed_node not in nodes:
        raise UnknownNode(f"node {removed_node} is not part of this database")
    if r < 2 or r > num_nodes - 1:
        raise ReplicationOutOfRange(
            f"removal needs 2 <= replication <= {num_nodes - 1}, got {r}"
        )

    survivors = tuple(n for n in nodes if n != removed_node)
    boxes_per_class = (num_nodes - r) * (r - 1)

    member = place.support_membership(removed_node)
    num_keys = int(member.sum()) * boxes_per_class
    shift, word = packing(place.num_bits, num_keys)
    # First box key of each support set's class, packed; rows of sets
    # without the removed node are never read.
    class_base = ((np.cumsum(member) - 1) * boxes_per_class).astype(word) << shift

    num_affected = int(place.set_counts()[member].sum())
    words = np.empty(num_affected, dtype=word)
    gen = rng.generator(STREAM_REMOVAL_BINNING)

    def draw_codes() -> np.ndarray:
        # Bounded int32 draws, like int64 ones below 2**32, consume the
        # stream 32 bits at a time and keep no buffer between calls, so
        # int32 chunks give the codes of one whole default (int64) draw.
        codes = np.empty(num_affected, dtype=index_dtype(boxes_per_class - 1))
        for start in range(0, num_affected, CHUNK):
            part = codes[start : start + CHUNK]
            part[:] = gen.integers(0, boxes_per_class, size=part.size, dtype=np.int32)
        return codes

    drawn = in_background(draw_codes)
    try:
        # Meanwhile, one file chunk at a time: its affected bits with their class bases.
        filled = 0
        for start in range(0, place.num_bits, CHUNK):
            sets = place.set_index[start : start + CHUNK]
            hits = np.flatnonzero(np.take(member, sets))
            part = words[filled : filled + hits.size]
            np.take(class_base, sets[hits], out=part)
            np.bitwise_or(part, hits + start, out=part, dtype=word, casting="unsafe")
            filled += hits.size
    except BaseException:
        drawn(drop=True)  # the scan's error is the one reported
        raise
    codes = drawn()
    for start in range(0, num_affected, CHUNK):
        words[start : start + CHUNK] += np.left_shift(codes[start : start + CHUNK], shift, dtype=word)
    del codes  # freed before grouping
    box_bits, offsets = group_bits(words, shift, num_keys)

    return BinDirectoryRemoval(
        placement=place,
        box_bits=box_bits,
        offsets=offsets,
        removed_node=removed_node,
        survivors=survivors,
    )


def encode_removal(db: Database, directory: BinDirectoryRemoval) -> Schedule:
    """Build every broadcast of the removal schedule.

    One codeword per (remainder set, sender): the XOR of the sender's r-1
    packets for the other group members, zero-padded to the longest. Empty
    codewords keep their rows, so the schedule length is always
    r * C(K-1, K-r-1).
    """
    directory.check_placement(db)
    return directory.schedule(db.file)


def decode_removal(
    node: int, codeword: Codeword, db: Database, directory: BinDirectoryRemoval
) -> tuple[np.ndarray, np.ndarray]:
    """Recover the packet addressed to ``node`` from one codeword.

    The node XORs away the constituents it already stores and truncates the
    result to the demanded packet's true length, reading only the boxes of
    the codeword's row. Returns the packet's bit indices and recovered
    values. Raises ``DecodeVerificationError`` if the labels are not the
    row's, a stated length is not its box's size or exceeds the payload, or
    a cancelled box has bits outside its table ``set`` or the node does not
    store that set: a node cannot use side information it does not hold,
    and a removal box holds bits of one stored set only.
    """
    labels = tuple(label for label, _ in codeword.constituents)
    if not any(label.target == node for label in labels):
        raise NotARecipient(f"node {node} demands no packet of this codeword")

    directory.check_placement(db)
    rows, row = directory.rows, codeword.row
    if row not in range(len(rows)) or labels != directory.labels_at(rows[row]):
        raise DecodeVerificationError(f"node {node} cannot decode: its boxes are not row {row}'s")
    held = db.placement.support_membership(node)
    acc = codeword.payload.copy()
    cancelled = []  # the packets to XOR away, read together once all are checked
    for key, (label, true_len) in zip(rows[row].tolist(), codeword.constituents):
        span = directory.span(key)
        size = int(span.stop - span.start)
        if size != true_len or true_len > acc.size:
            raise DecodeVerificationError(
                f"node {node} cannot decode box {label}: {size} bits, "
                f"stated {true_len}, in a payload of {acc.size}"
            )
        if label.target == node:
            demanded = span
            continue
        if size and (directory.misplaced[key] or not held[directory.table["set"][key]]):
            raise DecodeVerificationError(
                f"node {node} cannot cancel box {label}: bits outside its store "
                "or outside the box's set"
            )
        cancelled.append(directory.box_bits[span])
    values = db.file.values_at(np.concatenate([directory.box_bits[:0], *cancelled]))
    read = 0
    for packet in cancelled:
        acc[: packet.size] ^= values[read : read + packet.size]
        read += packet.size
    bits = directory.box_bits[demanded].astype(np.intp)  # as long as its constituent states
    return bits, acc[: bits.size]


def _check_cancellations(db: Database, directory: BinDirectoryRemoval) -> None:
    """Raise ``DecodeVerificationError`` unless every node that uses a box,
    each recipient that cancels it and its sender, stores the box's ``set``,
    and every box holds bits of that set only."""
    sizes, place = np.diff(directory.offsets), db.placement
    held = place.members
    rows = directory.rows[sizes[directory.rows].any(axis=1)]  # the codewords that carry a bit
    # Per row, its users: the recipient of each box, then the row's sender.
    users = np.searchsorted(place.nodes, np.c_[directory.box_targets[rows],
                                               directory.table["sender"][rows[:, 0]]])
    filled = sizes[rows] > 0
    uses = filled[:, None, :] & ~np.eye(users.shape[1], rows.shape[1], dtype=bool)  # user i, box j
    sets = directory.table["set"][rows]
    stored = ~directory.misplaced[rows][:, None, :] & held[users[:, :, None], sets[:, None, :]]
    bad = np.argwhere(uses & ~stored)
    if bad.size:
        row, i, j = bad[0]
        label = directory.labels_at([rows[row, j]])[0]
        raise DecodeVerificationError(
            f"node {place.nodes[users[row, i]]} cannot {'send' if i == rows.shape[1] else 'cancel'} "
            f"box {label}: bits outside its store or outside the box's set"
        )


def _check_payloads(db: Database, directory: BinDirectoryRemoval, schedule: Schedule) -> None:
    """Raise ``DecodeVerificationError`` unless every payload is its row's
    XOR, so a recipient that cancels the rest is left with its packet.

    The rows are walked in broadcast order, not in the encoder's key order:
    a group of rows at a time, the rows whose bits end in the same ``CHUNK``,
    with one ``values_at`` read of the group's bits in row order. Packets of
    ``SCATTER_BITS`` or more on average are XORed out of a copy of their
    rows' payloads, which must leave only zeros, the padding included;
    shorter ones are counted into the payload bits they cover, whose values
    must be the parities of those counts.
    """
    rows, starts, offsets, box_bits = (directory.rows, schedule.starts, directory.offsets,
                                       directory.box_bits)
    sizes = np.diff(offsets)[rows]
    lengths = sizes.max(axis=1)
    if schedule.payload.size != starts[-1] or not np.array_equal(np.diff(starts), lengths):
        raise DecodeVerificationError("a payload is not the XOR of its codeword's packets")
    groups = (np.flatnonzero(np.diff(np.cumsum(sizes.sum(axis=1)) // CHUNK)) + 1).tolist()
    del sizes
    for first, stop in zip([0, *groups], [*groups, len(rows)]):
        keys = rows[first:stop].ravel()
        begins, sizes = offsets[keys], offsets[keys + 1] - offsets[keys]
        at = np.repeat(starts[first:stop] - starts[first], rows.shape[1])  # rows' starts, per box
        filled = np.flatnonzero(sizes)
        begins, sizes, at = begins[filled], sizes[filled], at[filled]
        reads = np.cumsum(sizes) - sizes  # each packet's start among the group's bits
        payload = schedule.payload[starts[first] : starts[stop]]
        if filled.size * SCATTER_BITS > sizes.sum():
            bit = np.arange(sizes.sum())
            values = db.file.values_at(box_bits[np.repeat(begins - reads, sizes) + bit])
            places = np.repeat(at - reads, sizes) + bit
            ones = np.bincount(places[values == 1], minlength=payload.size)
            passed = np.array_equal(ones & 1, payload)
        else:
            packets = [box_bits[b : b + n] for b, n in zip(begins.tolist(), sizes.tolist())]
            values = db.file.values_at(np.concatenate([box_bits[:0], *packets]))
            residue = payload.copy()
            for place, read, size in zip(at.tolist(), reads.tolist(), sizes.tolist()):
                residue[place : place + size] ^= values[read : read + size]
            passed = not residue.any()
        if not passed:
            raise DecodeVerificationError("a payload is not the XOR of its codeword's packets")


def apply_removal_rebalance(
    db: Database, removed_node: int, rng: RngSpec
) -> tuple[Database, Schedule]:
    """Run the full removal protocol and commit the new placement.

    Bins, encodes, checks that every recipient decodes its packet from bits
    it stores, then atomically rewrites storage: each affected bit keeps its
    surviving holders and gains its box's target, every other bit is
    untouched, and the removed node vanishes from the node universe. Returns
    the new database and the broadcast schedule.

    The new placement, with its set counts, is built on a second thread
    while the schedule is encoded and checked. It is returned only if the
    check passes; a failed check's ``DecodeVerificationError`` is raised
    even when building the placement failed too.
    """
    directory = bin_removal(db, removed_node, rng)

    def build_placement() -> PlacementMap:
        placement = directory.commit()
        placement.set_counts()
        return placement

    new_placement = in_background(build_placement)
    try:
        # Cancellations are checked before encoding, so the check's gathers
        # do not peak on top of the schedule's payloads.
        _check_cancellations(db, directory)
        schedule = encode_removal(db, directory)
        _check_payloads(db, directory, schedule)
    except BaseException:
        new_placement(drop=True)  # the check's error is the one reported
        raise
    return Database(new_placement(), db.file), schedule
