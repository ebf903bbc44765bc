"""Randomly placed replicated database.

A file of F bits is spread over K nodes by giving each bit an independent,
uniformly drawn set of ``replication`` storing nodes. Per-bit node sets are
the authoritative record (stored as indices into the list of candidate
sets); per-node contents are derived views. Node ids are 1-based and never
relabeled by the rebalancing protocols; bit indices are 0-based positions
into the file's value array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

import numpy as np

from .exceptions import InvalidParameters, UnknownNode
from .rng import STREAM_PLACEMENT, RngSpec

NodeSet = tuple[int, ...]

# Entries per pass of the loops that walk an F-sized array in chunks, so
# each pass's temporaries (such as ``np.bincount``'s intp copy of its input)
# stay small instead of costing another F-sized array.
CHUNK = 1 << 16


def full_support(nodes: Iterable[int], replication: int) -> tuple[NodeSet, ...]:
    """All replication-sized node sets, in lexicographic order."""
    return tuple(combinations(sorted(nodes), replication))


def count_keys(keys: np.ndarray, num_keys: int) -> np.ndarray:
    """``np.bincount(keys, minlength=num_keys)`` for keys in [0, num_keys).

    Counts chunk by chunk, so no intp copy of the whole array is made.
    Raises ``ValueError`` for a key outside the range.
    """
    counts = np.zeros(num_keys, dtype=np.int64)
    for start in range(0, keys.size, CHUNK):
        chunk = np.bincount(keys[start : start + CHUNK], minlength=num_keys)
        if chunk.size != num_keys:
            raise ValueError(f"keys must lie in [0, {num_keys})")
        counts += chunk
    return counts


@dataclass(frozen=True)
class FileInstance:
    """A file of ``num_bits`` binary symbols.

    Values are carried explicitly, not just bit identities, so XOR decoding
    can be verified bit for bit. They are read-only, so anything derived
    from them stays valid for the life of the instance.
    """

    num_bits: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.num_bits < 1:
            raise InvalidParameters("file must contain at least one bit")
        values = np.asarray(self.values, dtype=np.uint8)
        if values.shape != (self.num_bits,):
            raise InvalidParameters(
                f"expected {self.num_bits} values, got shape {values.shape}"
            )
        if values.size and int(values.max()) > 1:
            raise InvalidParameters("file values must be 0 or 1")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass
class PlacementMap:
    """Which nodes store each bit.

    ``support[set_index[i]]`` is the node set storing bit ``i``. ``support``
    normally enumerates every replication-sized subset of ``nodes``, so a
    uniform placement is a uniform draw of ``set_index``, which is made
    read-only at construction so the counts and masks derived from it
    stay valid.
    """

    nodes: NodeSet
    replication: int
    support: tuple[NodeSet, ...]
    set_index: np.ndarray
    _memberships: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _counts: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.set_index.flags.writeable = False

    @property
    def num_bits(self) -> int:
        return int(self.set_index.shape[0])

    def node_set(self, bit: int) -> NodeSet:
        return self.support[int(self.set_index[bit])]

    def set_counts(self) -> np.ndarray:
        """How many bits chose each support set.

        Computed once and returned read-only; ``InvalidParameters`` if a bit
        names no support set.
        """
        if self._counts is None:
            try:
                counts = count_keys(self.set_index, len(self.support))
            except ValueError:
                raise InvalidParameters("a bit's set index lies outside the support") from None
            counts.flags.writeable = False
            self._counts = counts
        return self._counts

    def support_membership(self, node: int) -> np.ndarray:
        """Boolean mask over ``support``: which candidate sets contain ``node``.

        Computed once per node and returned read-only.
        """
        mask = self._memberships.get(node)
        if mask is None:
            mask = np.fromiter(
                (node in s for s in self.support), dtype=bool, count=len(self.support)
            )
            mask.flags.writeable = False
            self._memberships[node] = mask
        return mask


@dataclass
class Database:
    """A replicated database: the placement plus the file contents."""

    placement: PlacementMap
    file: FileInstance

    @property
    def nodes(self) -> NodeSet:
        return self.placement.nodes

    @property
    def num_nodes(self) -> int:
        return len(self.placement.nodes)

    @property
    def replication(self) -> int:
        return self.placement.replication

    @property
    def num_bits(self) -> int:
        return self.file.num_bits


@dataclass(frozen=True)
class BalanceReport:
    """Outcome of the two balance conditions; failures are reported, not raised."""

    replication_ok: bool
    offending_bits: tuple[int, ...]
    storage_ok: bool
    node_loads: dict[int, int]
    expected_node_load: float
    tolerance: float
    max_relative_deviation: float

    @property
    def passed(self) -> bool:
        return self.replication_ok and self.storage_ok


def build_database(num_nodes: int, replication: int, num_bits: int, rng: RngSpec) -> Database:
    """Construct a database by independent uniform placement.

    Each bit's storing set is drawn uniformly from all replication-sized
    subsets of the ``num_nodes`` nodes (exactly uniform, via a uniform index
    into the enumerated subsets), and each bit's value is an independent
    fair coin.

    Parameters
    ----------
    num_nodes : total nodes, ids 1..num_nodes
    replication : storing nodes per bit
    num_bits : file size in bits
    rng : stream source; the placement phase is consumed
    """
    if num_nodes < 1 or replication < 1 or replication > num_nodes:
        raise InvalidParameters(
            f"need 1 <= replication <= num_nodes, got replication={replication}, "
            f"num_nodes={num_nodes}"
        )
    if num_bits < 1:
        raise InvalidParameters("num_bits must be at least 1")
    nodes = tuple(range(1, num_nodes + 1))
    support = full_support(nodes, replication)
    gen = rng.generator(STREAM_PLACEMENT)
    set_index = gen.integers(0, len(support), size=num_bits, dtype=np.int32)
    values = gen.integers(0, 2, size=num_bits, dtype=np.uint8)
    placement = PlacementMap(nodes, replication, support, set_index)
    return Database(placement, FileInstance(num_bits, values))


def exclusive_group(db: Database, absent_nodes: Iterable[int]) -> np.ndarray:
    """Bits stored at exactly the complement of ``absent_nodes``.

    Returns ascending bit indices; empty when the complement is not a valid
    storing set (wrong size or not in the support).
    """
    target = tuple(sorted(set(db.placement.nodes) - set(absent_nodes)))
    if len(target) != db.placement.replication:
        return np.empty(0, dtype=np.int64)
    try:
        idx = db.placement.support.index(target)
    except ValueError:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(db.placement.set_index == idx)


def node_contents(db: Database, node: int) -> np.ndarray:
    """Ascending indices of the bits stored at ``node``."""
    if node not in db.placement.nodes:
        raise UnknownNode(f"node {node} is not part of this database")
    mask = db.placement.support_membership(node)
    return np.flatnonzero(mask[db.placement.set_index])


def node_storage_counts(db: Database) -> dict[int, int]:
    """Bits stored per node, keyed by node id."""
    counts = db.placement.set_counts()
    out: dict[int, int] = {}
    for node in db.placement.nodes:
        mask = db.placement.support_membership(node)
        out[node] = int(counts[mask].sum())
    return out


def verify_r_balanced(db: Database, tolerance: float = 0.01) -> BalanceReport:
    """Check the replication condition exactly and the balance condition
    statistically.

    The replication check demands every bit's node set have exactly
    ``replication`` members; offenders are listed. It looks at the support
    sets that bits chose, and visits the bits only when one of those sets
    has the wrong size. The storage check demands every node's load lie
    within ``tolerance`` (relative) of the expected per-node load,
    replication/num_nodes of the file.
    """
    place = db.placement
    wrong_size = np.fromiter((len(s) != place.replication for s in place.support),
                             dtype=bool, count=len(place.support))
    wrong_size &= place.set_counts() > 0
    offending = ()
    if wrong_size.any():
        offending = tuple(int(i) for i in np.flatnonzero(wrong_size[place.set_index]))

    loads = node_storage_counts(db)
    expected = place.replication * db.num_bits / len(place.nodes)
    max_dev = max(abs(v - expected) for v in loads.values()) / expected
    return BalanceReport(
        replication_ok=not offending,
        offending_bits=offending,
        storage_ok=max_dev <= tolerance,
        node_loads=loads,
        expected_node_load=expected,
        tolerance=tolerance,
        max_relative_deviation=max_dev,
    )
