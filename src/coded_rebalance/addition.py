"""Rebalancing after an empty node joins.

Replication is already intact when a node arrives, so no coding is needed:
the protocol evens out storage by handing whole packets to the newcomer.
Every bit picks one of K+1 boxes uniformly at random. One box per current
holder means "move": that holder ships the packet to the new node and drops
it from its own store. The remaining K-r+1 boxes mean "stay": those bits
are never touched and their labels exist only so the box odds come out
right. Box assignment is shared metadata; only shipped packets count as
communication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .codeword import Codeword, group_by_key
from .database import Database, NodeSet, PlacementMap, full_support
from .exceptions import DirectoryMismatch, InvalidLabel, RebalanceError, ReplicationOutOfRange
from .rng import STREAM_ADDITION_BINNING, RngSpec

FAMILY_MOVE = "U"
FAMILY_STAY = "V"


@dataclass(frozen=True)
class AdditionBoxLabel:
    """Names one box of the addition binning.

    Move boxes (family "U") carry the holder that ships the packet and then
    deletes it; stay boxes (family "V") are bookkeeping patterns anchored at
    one node of the class-plus-newcomer pool. ``remainder`` is the class
    itself for a move box, and the pool minus the anchor for a stay box.
    """

    family: str
    bit_class: NodeSet
    node: int
    remainder: NodeSet


def boxes_for_class(nodes: NodeSet, new_node: int, bit_class: NodeSet) -> tuple[AdditionBoxLabel, ...]:
    """The K+1 boxes of one class: r move boxes then K-r+1 stay boxes."""
    cls = tuple(sorted(bit_class))
    holders = tuple(n for n in sorted(nodes) if n not in set(cls))
    labels = [AdditionBoxLabel(FAMILY_MOVE, cls, h, cls) for h in holders]
    pool = tuple(sorted((*cls, new_node)))
    labels.extend(
        AdditionBoxLabel(FAMILY_STAY, cls, a, tuple(n for n in pool if n != a))
        for a in pool
    )
    return tuple(labels)


@dataclass
class BinDirectoryAddition:
    """Shared box assignment covering every bit of the file.

    ``codes`` holds each bit's box: below r it names the holder, by its
    position in the bit's stored set, that ships the bit; r and above mean
    stay. Move boxes are numbered by key ``set * r + code``; ``box_bits``
    holds the moving bits grouped by key, with box ``k`` at
    ``box_bits[offsets[k]:offsets[k + 1]]`` in ascending bit order.
    """

    new_node: int
    base_nodes: NodeSet
    replication: int
    stored_sets: tuple[NodeSet, ...]
    classes: tuple[NodeSet, ...]
    set_index: np.ndarray
    codes: np.ndarray
    box_bits: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return int(self.codes.size)

    @cached_property
    def _class_ordinals(self) -> dict[NodeSet, int]:
        return {cls: s for s, cls in enumerate(self.classes)}

    def label_of(self, bit: int) -> AdditionBoxLabel:
        s = int(self.set_index[bit])
        code = int(self.codes[bit])
        cls = self.classes[s]
        if code < self.replication:
            return AdditionBoxLabel(FAMILY_MOVE, cls, self.stored_sets[s][code], cls)
        pool = tuple(sorted((*cls, self.new_node)))
        anchor = pool[code - self.replication]
        return AdditionBoxLabel(
            FAMILY_STAY, cls, anchor, tuple(n for n in pool if n != anchor)
        )

    def packet_bits(self, label: AdditionBoxLabel) -> np.ndarray:
        """Ascending bit indices of one move box's packet; ``InvalidLabel`` for
        a stay box, which never forms a packet, or a box this directory lacks."""
        s = self._class_ordinals.get(tuple(sorted(label.bit_class)))
        if label.family != FAMILY_MOVE or s is None or label.node not in self.stored_sets[s]:
            raise InvalidLabel(f"{label} is not a move box of this directory")
        key = s * self.replication + self.stored_sets[s].index(label.node)
        return self.box_bits[self.offsets[key] : self.offsets[key + 1]]

    def box_labels(self) -> tuple[AdditionBoxLabel, ...]:
        """Every move box label, empty boxes included, in box-key order."""
        return tuple(
            AdditionBoxLabel(FAMILY_MOVE, cls, holder, cls)
            for cls, stored in zip(self.classes, self.stored_sets)
            for holder in stored
        )


def bin_addition(db: Database, rng: RngSpec) -> BinDirectoryAddition:
    """Assign every bit to one of its class's K+1 boxes, uniformly.

    Draws are independent across bits and consumed in ascending bit order;
    ``group_by_key`` then groups the moving bits by box key in O(F). The new
    node's id is one past the current largest.
    """
    place = db.placement
    nodes = place.nodes
    num_nodes = len(nodes)
    r = place.replication
    if r < 1 or r > num_nodes:
        raise ReplicationOutOfRange(f"addition needs 1 <= replication <= {num_nodes}")
    new_node = max(nodes) + 1

    classes = tuple(tuple(sorted(set(nodes) - set(s))) for s in place.support)
    codes = rng.generator(STREAM_ADDITION_BINNING).integers(
        0, num_nodes + 1, size=place.num_bits, dtype=np.int16
    )

    moving = np.flatnonzero(codes < r)
    num_keys = len(place.support) * r
    key_dtype = np.min_scalar_type(max(num_keys - 1, 0))
    keys = (place.set_index[moving] * r + codes[moving]).astype(key_dtype)
    order, offsets = group_by_key(keys, num_keys)

    return BinDirectoryAddition(
        new_node=new_node,
        base_nodes=nodes,
        replication=r,
        stored_sets=place.support,
        classes=classes,
        set_index=place.set_index,
        codes=codes,
        box_bits=moving[order],
        offsets=offsets,
    )


def _check_directory(db: Database, directory: BinDirectoryAddition) -> None:
    place = db.placement
    if directory.base_nodes != place.nodes:
        raise DirectoryMismatch("directory node universe does not match the database")
    if directory.replication != place.replication:
        raise DirectoryMismatch("directory replication does not match the database")
    if directory.codes.size != place.num_bits:
        raise DirectoryMismatch("directory does not cover exactly the file's bits")
    if not np.array_equal(directory.set_index, place.set_index):
        raise DirectoryMismatch("directory was built against a different placement")


def encode_addition(db: Database, directory: BinDirectoryAddition) -> list[Codeword]:
    """Build every handoff of the addition schedule.

    One codeword per (sender, class) with the sender outside the class: the
    sender's move packet, uncoded, addressed to the new node. Empty packets
    are emitted as zero-length records so the schedule length is always
    K * C(K-1, K-r).
    """
    _check_directory(db, directory)
    place = db.placement
    values = db.file.values
    class_size = len(place.nodes) - place.replication

    codewords: list[Codeword] = []
    for sender in place.nodes:
        rest = tuple(n for n in place.nodes if n != sender)
        for cls in combinations(rest, class_size):
            label = AdditionBoxLabel(FAMILY_MOVE, cls, sender, cls)
            bits = directory.packet_bits(label)
            codewords.append(
                Codeword(
                    sender=sender,
                    group=cls,
                    payload=values[bits].copy(),
                    constituents=((label, int(bits.size)),),
                )
            )
    return codewords


def apply_addition_rebalance(db: Database, rng: RngSpec) -> tuple[Database, list[Codeword]]:
    """Run the full addition protocol and commit the new placement.

    The new node stores the union of all shipped packets; each sender
    deletes what it shipped. Source deletion and newcomer insertion commit
    atomically, which is observationally equivalent to per-packet
    transmit-then-delete. Returns the new database and the schedule.
    """
    directory = bin_addition(db, rng)
    codewords = encode_addition(db, directory)

    place = db.placement
    r = place.replication
    new_nodes = tuple(sorted((*place.nodes, directory.new_node)))
    new_support = full_support(new_nodes, r)
    lookup = {s: i for i, s in enumerate(new_support)}

    stay_map = np.array([lookup[stored] for stored in place.support], dtype=np.int32)
    new_sets = [
        lookup[tuple(sorted((*(n for n in stored if n != holder), directory.new_node)))]
        for stored in place.support
        for holder in stored
    ]
    new_index = stay_map[place.set_index]
    counts = np.diff(directory.offsets)
    new_index[directory.box_bits] = np.repeat(np.asarray(new_sets, np.int32), counts)
    if new_index.min(initial=0) < 0:
        raise RebalanceError("internal error: unmapped placement after addition")

    new_place = PlacementMap(new_nodes, r, new_support, new_index)
    return Database(new_place, db.file), codewords
