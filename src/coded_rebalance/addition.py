"""Rebalancing after an empty node joins.

Replication is already intact when a node arrives, so no coding is needed:
the protocol evens out storage by handing whole packets to the newcomer.
Every bit draws one of K+1 codes uniformly at random. Codes below r name a
move box, one per current holder: that holder ships the packet to the new
node and drops it from its own store. The other K-r+1 codes mean "stay":
those bits are never touched and take no box; they only make the move
odds come out right. Box assignment is shared metadata; only shipped
packets count as communication.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .codeword import BoxDirectory, Codeword, group_by_key
from .database import Database, NodeSet
from .exceptions import InvalidLabel, ReplicationOutOfRange
from .rng import STREAM_ADDITION_BINNING, RngSpec


@dataclass(frozen=True)
class AdditionBoxLabel:
    """Names one move box of the addition binning: the bits of ``bit_class``
    (the nodes not storing them) that ``node`` ships to the newcomer and
    then deletes."""

    bit_class: NodeSet
    node: int


def boxes_for_class(nodes: NodeSet, bit_class: NodeSet) -> tuple[AdditionBoxLabel, ...]:
    """The r move boxes of one class, one per holder."""
    cls = tuple(sorted(bit_class))
    return tuple(AdditionBoxLabel(cls, h) for h in sorted(nodes) if h not in cls)


@dataclass
class BinDirectoryAddition(BoxDirectory):
    """Shared box assignment covering every bit of the file.

    ``codes`` holds each bit's draw: below r it names the holder, by its
    position in the bit's stored set, that ships the bit; r and above mean
    stay. ``bits`` holds the moving bits; move boxes are numbered by key
    ``set * r + code``.
    """

    new_node: int
    classes: tuple[NodeSet, ...]
    codes: np.ndarray

    def __len__(self) -> int:
        return int(self.codes.size)

    @cached_property
    def _class_ordinals(self) -> dict[NodeSet, int]:
        return {cls: s for s, cls in enumerate(self.classes)}

    def label_of(self, bit: int) -> AdditionBoxLabel | None:
        """The move box of one bit, or ``None`` for a bit that stays."""
        code = int(self.codes[bit])
        if code >= self.placement.replication:
            return None
        s = int(self.placement.set_index[bit])
        return AdditionBoxLabel(self.classes[s], self.placement.support[s][code])

    def packet_bits(self, label: AdditionBoxLabel) -> np.ndarray:
        """Ascending bit indices of one move box's packet; ``InvalidLabel`` for
        a box this directory lacks."""
        s = self._class_ordinals.get(tuple(sorted(label.bit_class)))
        stored = () if s is None else self.placement.support[s]
        if label.node not in stored:
            raise InvalidLabel(f"{label} is not a move box of this directory")
        return self._box(s * len(stored) + stored.index(label.node))

    def box_labels(self) -> tuple[AdditionBoxLabel, ...]:
        """Every move box label, empty boxes included, in box-key order."""
        return tuple(
            AdditionBoxLabel(cls, holder)
            for cls, stored in zip(self.classes, self.placement.support)
            for holder in stored
        )


def bin_addition(db: Database, rng: RngSpec) -> BinDirectoryAddition:
    """Assign every bit one of K+1 codes, uniformly.

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
        placement=place,
        bits=moving,
        keys=keys,
        box_bits=moving[order],
        offsets=offsets,
        new_node=max(nodes) + 1,
        classes=classes,
        codes=codes,
    )


def encode_addition(db: Database, directory: BinDirectoryAddition) -> list[Codeword]:
    """Build every handoff of the addition schedule.

    One codeword per (sender, class) with the sender outside the class: the
    sender's move packet, uncoded, addressed to the new node. Empty packets
    are emitted as zero-length records so the schedule length is always
    K * C(K-1, K-r).
    """
    directory.check_placement(db)
    values = db.file.values
    class_size = len(db.nodes) - db.replication

    codewords: list[Codeword] = []
    for sender in db.nodes:
        rest = tuple(n for n in db.nodes if n != sender)
        for cls in combinations(rest, class_size):
            label = AdditionBoxLabel(cls, sender)
            bits = directory.packet_bits(label)
            codewords.append(
                Codeword(
                    sender=sender,
                    group=cls,
                    payload=values[bits],
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

    new_node = directory.new_node
    box_sets = [
        tuple(sorted((*(n for n in stored if n != holder), new_node)))
        for stored in db.placement.support
        for holder in stored
    ]
    new_place = directory.commit(tuple(sorted((*db.nodes, new_node))), box_sets)
    return Database(new_place, db.file), codewords
