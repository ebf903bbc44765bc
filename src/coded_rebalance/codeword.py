"""Broadcast records and the box grouping shared by both rebalancing protocols."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .database import NodeSet


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
