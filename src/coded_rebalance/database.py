"""Randomly placed replicated database.

A file of F bits is spread over K nodes by giving each bit an independent,
uniformly drawn set of ``replication`` storing nodes. Per-bit node sets are
the authoritative record (stored as indices into the list of candidate
sets); per-node contents are derived views. Node ids are 1-based and never
relabeled by the rebalancing protocols; bit indices are 0-based positions
in the file.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from math import comb
from typing import Callable, Iterable, TypeVar

import numpy as np

from .exceptions import InvalidParameters, MismatchedParameters, UnknownNode
from .rng import STREAM_PLACEMENT, STREAM_VALUES, RngSpec

NodeSet = tuple[int, ...]
T = TypeVar("T")

# Entries per pass of the loops that walk an F-sized array in chunks, so
# each pass's temporaries (such as the intp copy of its input that
# ``np.bincount`` or ``np.take`` makes) stay small instead of costing
# another F-sized array.
CHUNK = 1 << 16


class NodeSets(tuple):
    """Node sets as ascending tuples of Python ints, made only by full_support and _node_sets."""


def full_support(nodes: Iterable[int], replication: int) -> NodeSets:
    """All replication-sized node sets, in lexicographic order."""
    return NodeSets(combinations(sorted(map(int, nodes)), replication))


def index_dtype(largest: int) -> np.dtype:
    """The narrowest unsigned dtype holding 0..largest: uint8 to 255, uint16
    to 65 535, uint32 to 2**32 - 1. Set indices, bit indices and codes use it."""
    return np.min_scalar_type(largest)


def gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``table[index]``, taken a chunk of ``index`` at a time.

    For a narrow ``index`` this makes no intp copy of the whole index, and
    ``np.take`` into the output is faster than one fancy index.
    """
    out = np.empty(index.shape, dtype=table.dtype)
    for start in range(0, index.size, CHUNK):
        part = slice(start, start + CHUNK)
        np.take(table, index[part], out=out[part])
    return out


def in_background(fn: Callable[[], T]) -> Callable[..., T]:
    """Start ``fn()`` on a second thread and return a callable that joins it.

    The callable waits for the thread, then returns ``fn``'s result or
    raises the exception ``fn`` raised; ``drop=True`` discards either, for
    a path that is already raising. Call it exactly once, also on such a
    path, so no thread outlives its caller; nothing the thread raises
    reaches ``threading.excepthook``. The overlap pays where both threads
    spend their time in numpy calls that release the interpreter lock.
    """
    outcome: list[tuple[bool, object]] = []

    def run() -> None:
        try:
            outcome.append((True, fn()))
        except BaseException as exc:  # re-raised by the joining thread
            outcome.append((False, exc))

    thread = threading.Thread(target=run, name="coded-rebalance-background")
    thread.start()

    def join(drop: bool = False) -> T:
        thread.join()
        ok, value = outcome.pop()
        if not ok and not drop:
            raise value
        return value

    return join


def count_keys(keys: np.ndarray, num_keys: int) -> np.ndarray:
    """``np.bincount(keys, minlength=num_keys)`` for keys in [0, num_keys).

    Counts half a ``CHUNK`` at a time, so the intp copy ``np.bincount``
    makes of its input takes no more than ``draw_placement``'s int32 draw
    of a ``CHUNK``. Raises ``ValueError`` for a key outside the range.
    """
    counts = np.zeros(num_keys, dtype=np.int64)
    for start in range(0, keys.size, CHUNK // 2):
        chunk = np.bincount(keys[start : start + CHUNK // 2], minlength=num_keys)
        if chunk.size != num_keys:
            raise ValueError(f"keys must lie in [0, {num_keys})")
        counts += chunk
    return counts


@dataclass(frozen=True)
class FileInstance:
    """A file of ``num_bits`` binary symbols, stored packed.

    Values are carried explicitly, not just bit identities, so XOR decoding
    can be verified bit for bit. ``packed`` holds them 8 to a byte in
    ``np.packbits`` order: bit ``i`` is bit ``7 - i % 8`` of byte ``i // 8``,
    and the pad bits past ``num_bits`` are never read. It is read-only, so
    anything derived from it stays valid for the life of the instance.
    """

    num_bits: int
    packed: np.ndarray

    def __post_init__(self) -> None:
        if self.num_bits < 1:
            raise InvalidParameters("file must contain at least one bit")
        packed, size = np.asarray(self.packed), -(-self.num_bits // 8)
        if packed.dtype != np.uint8 and (packed.dtype.kind not in "iu" or packed.size and (
                int(packed.min()) < 0 or int(packed.max()) > 255)):  # uint8 needs no pass
            raise InvalidParameters("file bytes must be integers in 0..255")
        if packed.shape != (size,):
            raise InvalidParameters(
                f"expected {size} bytes for {self.num_bits} bits, got shape {packed.shape}"
            )
        packed = packed.astype(np.uint8, copy=False)
        packed.flags.writeable = False
        object.__setattr__(self, "packed", packed)

    @classmethod
    def from_values(cls, values: np.ndarray) -> FileInstance:
        """The file whose bits are ``values``, one 0 or 1 per bit."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise InvalidParameters(f"expected one value per bit, got shape {values.shape}")
        if values.dtype.kind not in "biu" or values.size and (
                int(values.min()) < 0 or int(values.max()) > 1):
            raise InvalidParameters("file values must be integers 0 or 1")
        return cls(values.size, np.packbits(values))

    @cached_property
    def values(self) -> np.ndarray:
        """One uint8 0 or 1 per bit, read-only, unpacked on first request and
        kept: 8 bytes per byte of ``packed``. The protocols read ``values_at``."""
        values = np.unpackbits(self.packed, count=self.num_bits)
        values.flags.writeable = False
        return values

    def values_at(self, bits: np.ndarray) -> np.ndarray:
        """``values[bits]`` for a 1-D array of bit indices of any integer
        dtype, read from ``packed`` a quarter ``CHUNK`` at a time;
        ``IndexError`` for a bit outside [0, num_bits)."""
        out = np.empty(bits.size, dtype=np.uint8)
        if bits.size and (int(bits.max()) >= self.num_bits
                          or bits.dtype.kind == "i" and int(bits.min()) < 0):
            raise IndexError(f"bit indices must lie in [0, {self.num_bits})")
        # One byte index buffer and one in-byte position buffer serve every
        # block. The intp one is most of what a read holds beyond its output;
        # blocks of a quarter CHUNK keep it at 128 kB and read no slower.
        block = CHUNK // 4
        at = np.empty(min(bits.size, block), dtype=np.intp)
        shift = np.empty(at.size, dtype=np.uint8)
        for start in range(0, bits.size, block):
            part, value = bits[start : start + block], out[start : start + block]
            byte, pos = at[: part.size], shift[: part.size]
            np.right_shift(part, 3, out=byte, casting="unsafe")
            np.take(self.packed, byte, out=value)
            np.bitwise_and(part, 7, out=pos, casting="unsafe")
            value <<= pos  # bit i % 8 from the top moves to the top, then down
            value >>= 7
        return out


@dataclass
class PlacementMap:
    """Which nodes store each bit.

    ``support[set_index[i]]`` stores bit ``i``. ``support``, built on first
    read unless adopted from a caller that built it, is
    ``full_support(nodes, replication)``, so each bit has exactly
    ``replication`` distinct holders, and a uniform placement is a uniform
    draw of ``set_index``: a 1-D array of any integer dtype, made read-only
    so the counts and the table derived from it stay valid. ``nodes``
    strictly ascend and 1 <= replication <= len(nodes).
    """

    nodes: NodeSet
    replication: int
    set_index: np.ndarray
    _counts: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nodes, r, index = self.nodes, self.replication, self.set_index
        if any(a >= b for a, b in zip(nodes, nodes[1:])) or not 1 <= r <= len(nodes):
            raise InvalidParameters(f"need strictly ascending nodes and 1 <= replication <= "
                                    f"len(nodes), got nodes {nodes} and replication {r}")
        if index.ndim != 1 or index.dtype.kind not in "iu":
            raise InvalidParameters(f"need a 1-D integer set_index, got {index.dtype}{index.shape}")
        index.flags.writeable = False

    @property
    def num_bits(self) -> int:
        return int(self.set_index.shape[0])

    @cached_property
    def support(self) -> NodeSets:
        return full_support(self.nodes, self.replication)

    def adopt_support(self, support: NodeSets) -> None:
        """Take ``support``, which the caller built as ``full_support(nodes,
        replication)``, as this placement's, so its tuples are built once;
        ``InvalidParameters`` for a support of other sets."""
        nodes, r = self.nodes, self.replication
        if (type(support) is not NodeSets or len(support) != comb(len(nodes), r)
                or support[0] != nodes[:r] or support[-1] != nodes[-r:]):
            raise InvalidParameters(f"not the support of nodes {nodes} and replication {r}")
        self.__dict__["support"] = support  # where the cached property keeps its value

    def node_set(self, bit: int) -> NodeSet:
        """The node set storing ``bit``; ``IndexError`` outside [0, num_bits)."""
        if not 0 <= bit < self.num_bits:
            raise IndexError(f"bit {bit} lies outside [0, {self.num_bits})")
        return self.support[int(self.set_index[bit])]

    def set_counts(self) -> np.ndarray:
        """How many bits chose each support set.

        Computed once and returned read-only; ``InvalidParameters`` if a bit
        names no support set.
        """
        if self._counts is None:
            try:
                counts = count_keys(self.set_index, comb(len(self.nodes), self.replication))
            except ValueError:
                raise InvalidParameters("a bit's set index lies outside the support") from None
            counts.flags.writeable = False
            self._counts = counts
        return self._counts

    @cached_property
    def members(self) -> np.ndarray:
        """``members[i, s]``, read-only: whether ``nodes[i]`` is in ``support[s]``."""
        K, r = len(self.nodes), self.replication
        sets = comb(K, r)
        # Positions' r-subsets come in support's order, as nodes ascend.
        rows = np.fromiter(chain.from_iterable(combinations(range(K), r)), np.intp, sets * r)
        members = np.zeros((K, sets), dtype=bool)
        members[rows, np.arange(sets).repeat(r)] = True
        members.flags.writeable = False
        return members

    def support_membership(self, node: int) -> np.ndarray:
        """``node``'s row of ``members``; ``UnknownNode`` for a node outside ``nodes``."""
        if node not in self.nodes:
            raise UnknownNode(f"node {node} is not part of this placement")
        return self.members[self.nodes.index(node)]


@dataclass
class Database:
    """A replicated database: the placement plus the file contents."""

    placement: PlacementMap
    file: FileInstance

    def __post_init__(self) -> None:
        if self.placement.num_bits != self.file.num_bits:
            raise MismatchedParameters("the placement and the file differ in their number of bits")

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
    """Outcome of the two balance conditions; failures are reported, not raised.
    ``replication_ok`` is true by construction of ``PlacementMap``."""

    replication_ok: bool
    storage_ok: bool
    node_loads: dict[int, int]
    expected_node_load: float
    tolerance: float
    max_relative_deviation: float

    @property
    def passed(self) -> bool:
        return self.replication_ok and self.storage_ok


def draw_placement(num_nodes: int, replication: int, num_bits: int, rng: RngSpec) -> PlacementMap:
    """Give each bit an independent, uniformly drawn storing set.

    The set is drawn uniformly from all replication-sized subsets of the
    ``num_nodes`` nodes (exactly uniform, via a uniform index into the
    enumerated subsets, drawn as int32 a chunk at a time into
    ``index_dtype``) on the placement stream of ``rng``.
    """
    if num_nodes < 1 or replication < 1 or replication > num_nodes:
        raise InvalidParameters(
            f"need 1 <= replication <= num_nodes, got replication={replication}, "
            f"num_nodes={num_nodes}"
        )
    if num_bits < 1:
        raise InvalidParameters("num_bits must be at least 1")
    num_sets = comb(num_nodes, replication)
    gen = rng.generator(STREAM_PLACEMENT)
    set_index = np.empty(num_bits, dtype=index_dtype(num_sets))
    # Bounded int32 draws consume the stream value by value: chunks draw the same indices.
    for part in np.split(set_index, range(CHUNK, num_bits, CHUNK)):
        part[:] = gen.integers(0, num_sets, size=part.size, dtype=np.int32)
    return PlacementMap(tuple(range(1, num_nodes + 1)), replication, set_index)


def draw_file(num_bits: int, rng: RngSpec) -> FileInstance:
    """A file of independent fair bits, drawn on the values stream of ``rng``:
    the bytes of ``gen.bytes(ceil(F / 8))``, kept packed."""
    if num_bits < 1:
        raise InvalidParameters("num_bits must be at least 1")
    gen = rng.generator(STREAM_VALUES)
    return FileInstance(num_bits, np.frombuffer(gen.bytes(-(-num_bits // 8)), dtype=np.uint8))


def build_database(num_nodes: int, replication: int, num_bits: int, rng: RngSpec) -> Database:
    """Construct a database by independent uniform placement.

    The placement is ``draw_placement``'s and the file ``draw_file``'s; the
    two draw from streams of their own, so the file's values do not depend
    on the placement.

    Parameters
    ----------
    num_nodes : total nodes, ids 1..num_nodes
    replication : storing nodes per bit
    num_bits : file size in bits
    rng : stream source; the placement and values phases are consumed
    """
    placement = draw_placement(num_nodes, replication, num_bits, rng)
    return Database(placement, draw_file(num_bits, rng))


def exclusive_group(db: Database, absent_nodes: Iterable[int]) -> np.ndarray:
    """Bits stored at exactly the complement of ``absent_nodes``.

    Returns ascending bit indices; empty when the complement does not have
    ``replication`` nodes. One that does is a set of the support.
    """
    target = tuple(sorted(set(db.placement.nodes) - set(absent_nodes)))
    if len(target) != db.placement.replication:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(db.placement.set_index == db.placement.support.index(target))


def node_contents(db: Database, node: int) -> np.ndarray:
    """Ascending indices of the bits stored at ``node``; ``UnknownNode`` for a
    node outside the database."""
    mask = db.placement.support_membership(node)
    return np.flatnonzero(gather(mask, db.placement.set_index))


def node_storage_counts(db: Database) -> dict[int, int]:
    """Bits stored per node, keyed by node id."""
    place = db.placement
    return dict(zip(place.nodes, (place.members @ place.set_counts()).tolist()))


def verify_r_balanced(db: Database, tolerance: float = 0.01) -> BalanceReport:
    """Check the balance condition statistically.

    Every node's load must lie within ``tolerance`` (relative) of the
    expected per-node load, replication/num_nodes of the file. Replication
    is exact by construction of the placement, so ``replication_ok`` is
    true; ``InvalidParameters`` if a bit names no support set.
    """
    place = db.placement
    loads = node_storage_counts(db)
    expected = place.replication * db.num_bits / len(place.nodes)
    max_dev = max(abs(v - expected) for v in loads.values()) / expected
    return BalanceReport(
        replication_ok=True,
        storage_ok=max_dev <= tolerance,
        node_loads=loads,
        expected_node_load=expected,
        tolerance=tolerance,
        max_relative_deviation=max_dev,
    )
