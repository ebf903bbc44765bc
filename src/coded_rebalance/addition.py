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

import numpy as np

from .codeword import BoxDirectory, Schedule, group_bits, packing
from .database import CHUNK, Database, NodeSet, index_dtype
from .exceptions import ReplicationOutOfRange
from .rng import STREAM_ADDITION_BINNING, RngSpec


@dataclass(frozen=True)
class AdditionBoxLabel:
    """Names one move box of the addition binning: the bits of ``bit_class``
    (the nodes not storing them) that ``node`` ships to the newcomer and
    then deletes."""

    bit_class: NodeSet
    node: int


@dataclass
class BinDirectoryAddition(BoxDirectory):
    """Shared box assignment covering every bit of the file.

    ``codes`` holds each bit's draw: below r it names the holder, by its
    position in the bit's stored set, that ships the bit; r and above mean
    stay. The moving bits are binned; move boxes are numbered by key
    ``set * r + code``.
    """

    new_node: int
    codes: np.ndarray

    def __len__(self) -> int:
        return int(self.codes.size)

    @property
    def new_nodes(self) -> NodeSet:
        return tuple(sorted((*self.placement.nodes, self.new_node)))

    @cached_property
    def table(self) -> np.ndarray:
        """Per box key: the holder, as ``sender``; and its set less the sender
        plus the new node (the largest id), as ``new_set``."""
        place = self.placement
        r, node = place.replication, index_dtype(self.new_node)
        support = np.array(place.support, node)
        table = np.empty(support.shape, [("sender", node), ("new_set", node, (r,))])
        table["sender"] = support
        table["new_set"][..., -1] = self.new_node
        for code in range(r):
            table["new_set"][:, code, :-1] = np.delete(support, code, axis=1)
        return table.reshape(-1)

    def labels_of(self, boxes: np.ndarray, groups: list[NodeSet]):
        """The move box labels of table entries ``boxes`` with their ``groups``
        as classes; those of one class share its tuple."""
        return map(AdditionBoxLabel, groups, boxes["sender"].tolist())

    @cached_property
    def rows(self) -> np.ndarray:
        """Box keys by handoff, one per row, in the order of
        ``encode_addition``: by sender, then class ascending, which is stored
        set and key descending (``~`` of narrow keys: int64 costs 0.2 MB RSS)."""
        keys = np.arange(len(self.table), dtype=index_dtype(len(self.table)))
        return np.lexsort((~keys, self.table["sender"]))[:, None]

    def label_of(self, bit: int) -> AdditionBoxLabel | None:
        """The move box of one bit, ``None`` if it stays; ``KeyError`` if no such bit."""
        if not 0 <= bit < self.codes.size:
            raise KeyError(f"bit {bit} is not a bit of the file")
        code = int(self.codes[bit])
        if code >= self.placement.replication:
            return None
        return self.labels[int(self.placement.set_index[bit]) * self.placement.replication + code]


def bin_addition(db: Database, rng: RngSpec) -> BinDirectoryAddition:
    """Assign every bit one of K+1 codes, uniformly.

    Draws are independent across bits and consumed in ascending bit order;
    ``group_bits`` then sorts the moving bits, packed with their box keys,
    into boxes. The new node's id is one past the current largest.
    """
    place = db.placement
    nodes = place.nodes
    num_nodes = len(nodes)
    r = place.replication
    if r < 1 or r > num_nodes:
        raise ReplicationOutOfRange(f"addition needs 1 <= replication <= {num_nodes}")

    # One whole int16 draw: chunked int16 draws differ from it, as numpy
    # buffers 16-bit draws within a call.
    codes = rng.generator(STREAM_ADDITION_BINNING).integers(
        0, num_nodes + 1, size=place.num_bits, dtype=np.int16
    ).astype(index_dtype(num_nodes))

    num_keys = len(place.support) * r
    shift, word = packing(place.num_bits, num_keys)
    num_moving = sum(
        np.count_nonzero(codes[start : start + CHUNK] < r)
        for start in range(0, place.num_bits, CHUNK)
    )
    words = np.empty(num_moving, dtype=word)
    filled = 0
    for start in range(0, place.num_bits, CHUNK):
        chunk = codes[start : start + CHUNK]
        hits = np.flatnonzero(chunk < r)
        part = words[filled : filled + hits.size]
        # Cast before the multiply: a narrow set index times r would wrap.
        part[:] = place.set_index[start : start + CHUNK][hits]
        part *= r
        part += chunk[hits]
        part <<= shift
        np.bitwise_or(part, hits + start, out=part, dtype=word, casting="unsafe")
        filled += hits.size
    box_bits, offsets = group_bits(words, shift, num_keys)

    return BinDirectoryAddition(
        placement=place,
        box_bits=box_bits,
        offsets=offsets,
        new_node=max(nodes) + 1,
        codes=codes,
    )


def encode_addition(db: Database, directory: BinDirectoryAddition) -> Schedule:
    """Build every handoff of the addition schedule.

    One codeword per (sender, class) with the sender outside the class: the
    sender's move packet, uncoded, addressed to the new node. Empty packets
    keep their zero-length rows, so the schedule length is always
    K * C(K-1, K-r).
    """
    directory.check_placement(db)
    return directory.schedule(db.file)


def apply_addition_rebalance(db: Database, rng: RngSpec) -> tuple[Database, Schedule]:
    """Run the full addition protocol and commit the new placement.

    The new node stores the union of all shipped packets; each sender
    deletes what it shipped. Source deletion and newcomer insertion commit
    atomically, which is observationally equivalent to per-packet
    transmit-then-delete. Returns the new database and the schedule.
    """
    directory = bin_addition(db, rng)
    schedule = encode_addition(db, directory)
    return Database(directory.commit(), db.file), schedule
