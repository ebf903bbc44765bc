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

Storage is rewritten only after every recovered packet has been verified
against the original file values, so no partially rebalanced state is ever
observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .codeword import BoxDirectory, Codeword, group_bits, xor_packets
from .database import CHUNK, Database, FileInstance, NodeSet
from .exceptions import (
    DecodeVerificationError,
    InvalidLabel,
    NotARecipient,
    ReplicationOutOfRange,
    UnknownNode,
)
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

    @property
    def bit_class(self) -> NodeSet:
        """Survivors that did not store the box's bits before rebalancing."""
        return tuple(sorted((self.target, *self.remainder)))


def boxes_for_class(nodes: NodeSet, removed_node: int, bit_class: NodeSet) -> tuple[RemovalBoxLabel, ...]:
    """All (K-r)(r-1) boxes a bit of the given class may choose."""
    cls = tuple(sorted(bit_class))
    excluded = set(cls) | {removed_node}
    holders = tuple(n for n in sorted(nodes) if n not in excluded)
    labels = []
    for target in cls:
        remainder = tuple(n for n in cls if n != target)
        labels.extend(RemovalBoxLabel(target, remainder, h) for h in holders)
    return tuple(labels)


@dataclass
class BinDirectoryRemoval(BoxDirectory):
    """Shared box assignment for every bit the removed node stored.

    This is globally known metadata: all survivors see the same assignment,
    so XOR packets align position for position and true lengths are known
    for unpadding. It is never charged to the communication load.

    ``bits`` is the removed node's store. Boxes are numbered by an integer
    key: class ordinal times the (K-r)(r-1) boxes per class, plus the box's
    position in ``boxes_for_class``.
    """

    removed_node: int
    survivors: NodeSet
    classes: tuple[NodeSet, ...]

    def __len__(self) -> int:
        return int(self.bits.size)

    @cached_property
    def targets(self) -> np.ndarray:
        """The survivor each bit of ``bits`` moves to."""
        return np.repeat(np.asarray(self.classes).ravel(), self.placement.replication - 1)[self.keys]

    @property
    def _boxes_per_class(self) -> int:
        r = self.placement.replication
        return (len(self.survivors) + 1 - r) * (r - 1)

    @cached_property
    def _class_keys(self) -> dict[NodeSet, tuple[int, NodeSet]]:
        """Each class's first box key and its holders in box-key order."""
        survivors = sorted(self.survivors)
        return {
            cls: (c * self._boxes_per_class, tuple(n for n in survivors if n not in cls))
            for c, cls in enumerate(self.classes)
        }

    def _labels_of_class(self, c: int) -> tuple[RemovalBoxLabel, ...]:
        nodes = (*self.survivors, self.removed_node)
        return boxes_for_class(nodes, self.removed_node, self.classes[c])

    def label_of(self, bit: int) -> RemovalBoxLabel:
        """The box assigned to one bit of the removed node's store."""
        pos = int(np.searchsorted(self.bits, bit))
        if pos == self.bits.size or int(self.bits[pos]) != bit:
            raise KeyError(f"bit {bit} was not stored at node {self.removed_node}")
        c, code = divmod(int(self.keys[pos]), self._boxes_per_class)
        return self._labels_of_class(c)[code]

    def key_of(self, label: RemovalBoxLabel) -> int:
        """The box key a label names; ``InvalidLabel`` if it names no box of
        this directory."""
        cls = label.bit_class
        first, holders = self._class_keys.get(cls, (0, ()))
        if label.holder not in holders:
            raise InvalidLabel(f"{label} is not a valid box for this directory")
        return first + cls.index(label.target) * len(holders) + holders.index(label.holder)

    def packet_bits(self, label: RemovalBoxLabel) -> np.ndarray:
        """Ascending bit indices assigned to one box (possibly empty);
        ``InvalidLabel`` if the label names no box of this directory."""
        return self._box(self.key_of(label))

    def packet_values(self, label: RemovalBoxLabel, file: FileInstance) -> np.ndarray:
        """The file's values at ``packet_bits(label)``, read-only, sliced
        from ``box_values``."""
        return self.box_values(file)[self.span(self.key_of(label))]

    def box_labels(self) -> tuple[RemovalBoxLabel, ...]:
        """Every valid box label, empty boxes included, in box-key order."""
        return tuple(lab for c in range(len(self.classes)) for lab in self._labels_of_class(c))


def bin_removal(db: Database, removed_node: int, rng: RngSpec) -> BinDirectoryRemoval:
    """Assign every bit of the removed node's store to one box, uniformly.

    For each class of affected bits there are (K-r)(r-1) boxes: one per
    (target, holder) pair, with the target drawn from the class and the
    holder from the bit's surviving storers. Draws are independent across
    bits and consumed in ascending bit order; ``group_bits`` then groups
    the bits by box key.
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
    affected = np.flatnonzero(member[place.set_index])
    classes = tuple(
        tuple(n for n in nodes if n not in place.support[s]) for s in np.flatnonzero(member)
    )
    num_keys = len(classes) * boxes_per_class
    key_dtype = np.min_scalar_type(max(num_keys - 1, 0))
    # First box key of each support set's class; rows of sets without the
    # removed node are never read.
    class_base = ((np.cumsum(member) - 1) * boxes_per_class).astype(key_dtype)

    keys = class_base[place.set_index[affected]]
    # Bounded int64 draws consume the stream value by value: chunks draw the same codes.
    gen = rng.generator(STREAM_REMOVAL_BINNING)
    for part in np.split(keys, range(CHUNK, keys.size, CHUNK)):
        part += gen.integers(0, boxes_per_class, size=part.size).astype(key_dtype)
    box_bits, offsets = group_bits(affected, keys, num_keys)

    return BinDirectoryRemoval(
        placement=place,
        bits=affected,
        keys=keys,
        box_bits=box_bits,
        offsets=offsets,
        removed_node=removed_node,
        survivors=survivors,
        classes=classes,
    )


def encode_removal(db: Database, directory: BinDirectoryRemoval) -> list[Codeword]:
    """Build every broadcast of the removal schedule.

    One codeword per (remainder set, sender): the XOR of the sender's r-1
    packets for the other group members, zero-padded to the longest. Empty
    codewords are emitted as records so the schedule length is always
    r * C(K-1, K-r-1).
    """
    directory.check_placement(db)
    group_size = len(db.nodes) - db.replication - 1

    codewords: list[Codeword] = []
    for ctx in combinations(directory.survivors, group_size):
        ctx_set = set(ctx)
        members = tuple(n for n in directory.survivors if n not in ctx_set)
        for sender in members:
            constituents = []
            packets = []
            for target in members:
                if target == sender:
                    continue
                label = RemovalBoxLabel(target, ctx, sender)
                packet = directory.packet_values(label, db.file)
                constituents.append((label, int(packet.size)))
                packets.append(packet)
            codewords.append(
                Codeword(
                    sender=sender,
                    group=ctx,
                    payload=xor_packets(packets),
                    constituents=tuple(constituents),
                )
            )
    return codewords


def decode_removal(
    node: int, codeword: Codeword, db: Database, directory: BinDirectoryRemoval
) -> tuple[np.ndarray, np.ndarray]:
    """Recover the packet addressed to ``node`` from one codeword.

    The node XORs away the constituents it already stores and truncates the
    result to the demanded packet's true length. Returns the packet's bit
    indices and recovered values. Raises ``DecodeVerificationError`` if a
    cancelled packet is longer than the payload or its bits do not all lie
    in one support set that the node stores: a node cannot use side
    information it does not hold, and a removal box holds bits of one
    stored set only.
    """
    demanded = None
    for label, true_len in codeword.constituents:
        if label.target == node:
            demanded = (label, true_len)
            break
    if demanded is None:
        raise NotARecipient(f"node {node} demands no packet of this codeword")

    directory.check_placement(db)
    held = db.placement.support_membership(node)
    values = directory.box_values(db.file)
    acc = codeword.payload.copy()
    for label, true_len in codeword.constituents:
        if label.target == node:
            continue
        key = directory.key_of(label)
        packet = values[directory.span(key)]
        box_set = directory.box_set[key]
        if packet.size > acc.size or (packet.size and (box_set < 0 or not held[box_set])):
            raise DecodeVerificationError(
                f"node {node} cannot cancel box {label}: bits outside its store, "
                "in mixed sets or past the payload"
            )
        acc[: packet.size] ^= packet
    label, true_len = demanded
    return directory.packet_bits(label), acc[:true_len]


def apply_removal_rebalance(
    db: Database, removed_node: int, rng: RngSpec
) -> tuple[Database, list[Codeword]]:
    """Run the full removal protocol and commit the new placement.

    Bins, encodes, decodes at every recipient (verifying each recovered
    value against the file), then atomically rewrites storage: each
    affected bit keeps its surviving holders and gains its box's target,
    every other bit is untouched, and the removed node vanishes from the
    node universe. Returns the new database and the broadcast schedule.
    """
    directory = bin_removal(db, removed_node, rng)
    codewords = encode_removal(db, directory)

    for cw in codewords:
        for label, _ in cw.constituents:
            _, recovered = decode_removal(label.target, cw, db, directory)
            if not np.array_equal(recovered, directory.packet_values(label, db.file)):
                raise DecodeVerificationError(
                    f"packet for node {label.target} (holder {label.holder}, "
                    f"context {label.remainder}) decoded incorrectly"
                )

    # An affected bit's new set is its box's class minus the target, taken
    # out of the survivors; the box's holder does not change it.
    new_sets = [
        tuple(n for n in directory.survivors if n == target or n not in cls)
        for cls in directory.classes
        for target in cls
    ]
    box_sets = [s for s in new_sets for _ in range(db.replication - 1)]
    return Database(directory.commit(directory.survivors, box_sets), db.file), codewords
