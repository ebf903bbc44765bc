"""Communication-load accounting, distribution checks, and the tail bound
for the maximum of identically distributed binomial packet sizes.

Loads are reported under two normalizations. ``measured_load`` divides the
transmitted bits by the expected storage of the leaving (or arriving) node,
which is the quantity whose asymptote is 1/(r-1) for removal and 1 for
addition. ``realized_load`` divides by the storage actually held, which is
the normalization under which the removal floor 1/(r-1) holds on every
single run: padding can only add bits, so a schedule of XOR groups always
transmits at least the affected bits divided by r-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, log, sqrt
from typing import Iterable, Sequence

import numpy as np

from .addition import BinDirectoryAddition
from .codeword import Schedule
from .database import NodeSet, NodeSets, PlacementMap
from .exceptions import (
    InvalidParameters,
    MismatchedParameters,
    ReplicationOutOfRange,
    SupportViolation,
)
from .removal import BinDirectoryRemoval

EVENT_REMOVAL = "removal"
EVENT_ADDITION = "addition"


@dataclass(frozen=True)
class LoadReport:
    """Measured and predicted communication cost of one rebalancing run."""

    event: str
    removed_node: int | None
    total_transmitted_bits: int
    num_codewords: int
    normalizer: float
    measured_load: float
    realized_storage_bits: int
    realized_load: float
    theoretical_asymptote: float
    finite_size_upper_bound: float | None
    metadata_bits: int


@dataclass(frozen=True)
class DistributionCheck:
    """Observed node-set frequencies against a uniform law."""

    support: tuple[NodeSet, ...]
    expected_probability: float
    observed_counts: tuple[int, ...]
    total_observations: int
    max_relative_error: float
    chi_square_statistic: float
    degrees_of_freedom: int

    @classmethod
    def from_counts(cls, support: Sequence[NodeSet], counts: Iterable[int]) -> "DistributionCheck":
        support = _node_sets(support)
        counts = tuple(int(c) for c in counts)
        if len(counts) != len(support):
            raise InvalidParameters("one count per support set required")
        total = sum(counts)
        if total == 0:
            raise InvalidParameters("no observations to check")
        p = 1.0 / len(support)
        expected = total * p
        rel = max(abs(c / expected - 1.0) for c in counts)
        # The terms are added strictly left to right, on every Python: from
        # 3.12 on, sum() of floats compensates its rounding.
        terms = (np.array(counts, dtype=np.float64) - expected) ** 2 / expected
        chi2 = float(np.add.accumulate(terms)[-1])
        return cls(
            support=support,
            expected_probability=p,
            observed_counts=counts,
            total_observations=total,
            max_relative_error=rel,
            chi_square_statistic=chi2,
            degrees_of_freedom=len(support) - 1,
        )


@dataclass(frozen=True)
class PacketSizeLaw:
    """Predicted Binomial(F, q) distribution of one packet's size."""

    event: str
    probability: float
    mean: float
    variance: float
    num_packets: int

    @property
    def std(self) -> float:
        return sqrt(self.variance)


def _node_sets(support: Sequence[NodeSet]) -> NodeSets:
    """``support`` as ``NodeSets``: the very object when it is one already,
    so the checks of a run share the run's support without walking it."""
    return support if type(support) is NodeSets else NodeSets(
        tuple(sorted(map(int, s))) for s in support)


def binomial_max_bound(n: int, p: float, r_vars: int) -> float:
    """Upper bound on the expected maximum of ``r_vars`` iid Binomial(n, p).

    Evaluates n*p + sqrt(2 n p (1-p) ln r_vars); the logarithm is natural,
    which is what the optimizing exponent of the underlying moment bound
    requires. For a single variable the maximum is the variable itself and
    the exact mean n*p is returned.
    """
    if n < 1:
        raise InvalidParameters("n must be at least 1")
    if r_vars < 1:
        raise InvalidParameters("r_vars must be at least 1")
    if not 0.0 < p < 1.0:
        raise InvalidParameters("probability must lie strictly inside (0, 1)")
    if r_vars == 1:
        return n * p
    return n * p + sqrt(2.0 * n * p * (1.0 - p) * log(r_vars))


def packet_size_law(num_nodes: int, replication: int, num_bits: int, event: str) -> PacketSizeLaw:
    """Per-packet membership probability and the implied Binomial law.

    Removal packets have q = 1 / (C(K,r) (K-r) (r-1)); addition packets have
    q' = 1 / (C(K, K-r) (K+1)). ``num_packets`` counts the packets one run
    produces (for addition, only the shipped move packets).
    """
    K, r, F = num_nodes, replication, num_bits
    if F < 1:
        raise InvalidParameters("num_bits must be at least 1")
    if event == EVENT_REMOVAL:
        if not 2 <= r <= K - 1:
            raise ReplicationOutOfRange(f"removal needs 2 <= replication <= {K - 1}")
        q = 1.0 / (comb(K, r) * (K - r) * (r - 1))
        num_packets = comb(K - 1, K - r) * (K - r) * (r - 1)
    elif event == EVENT_ADDITION:
        if not 1 <= r <= K:
            raise ReplicationOutOfRange(f"addition needs 1 <= replication <= {K}")
        q = 1.0 / (comb(K, K - r) * (K + 1))
        num_packets = K * comb(K - 1, K - r)
    else:
        raise InvalidParameters(f"unknown event kind: {event!r}")
    return PacketSizeLaw(event, q, F * q, F * q * (1.0 - q), num_packets)


def _bits_to_name(options: int) -> int:
    return max(0, options - 1).bit_length()


def _check_schedule(schedule: Schedule, kind: type, K: int, r: int, F: int) -> None:
    """``MismatchedParameters`` unless a ``kind`` directory binned ``schedule`` for (K, r, F)."""
    d = schedule.directory
    if (type(d), len(d.placement.nodes), d.placement.replication, d.placement.num_bits) != (
            kind, K, r, F):
        raise MismatchedParameters(f"not a schedule of {kind.__name__} for K={K}, r={r}, F={F}")


def removal_load(
    schedule: Schedule,
    num_nodes: int,
    replication: int,
    num_bits: int,
    removed_node: int | None = None,
) -> LoadReport:
    """Load report for a removal schedule.

    Normalizes by the expected storage of the removed node (r F / K) and
    fills in the asymptote 1/(r-1) plus the finite-size bound obtained by
    bounding every codeword by the expected maximum of its r-1 binomial
    packet sizes.
    """
    K, r, F = num_nodes, replication, num_bits
    law = packet_size_law(K, r, F, EVENT_REMOVAL)
    expected_count = r * comb(K - 1, K - r - 1)
    if len(schedule) != expected_count:
        raise MismatchedParameters(
            f"expected {expected_count} codewords for K={K}, r={r}, got {len(schedule)}"
        )
    _check_schedule(schedule, BinDirectoryRemoval, K, r, F)
    if removed_node not in (None, schedule.directory.removed_node):
        raise MismatchedParameters(f"the schedule removed node {schedule.directory.removed_node}")
    total, realized = schedule.payload.size, schedule.directory.box_bits.size
    normalizer = r * F / K
    bound = expected_count * binomial_max_bound(F, law.probability, r - 1) / normalizer
    boxes_per_class = (K - r) * (r - 1)
    return LoadReport(
        event=EVENT_REMOVAL,
        removed_node=schedule.directory.removed_node,
        total_transmitted_bits=total,
        num_codewords=len(schedule),
        normalizer=normalizer,
        measured_load=total / normalizer,
        realized_storage_bits=realized,
        realized_load=total / realized if realized else 0.0,
        theoretical_asymptote=1.0 / (r - 1),
        finite_size_upper_bound=bound,
        metadata_bits=realized * _bits_to_name(boxes_per_class),
    )


def addition_load(
    schedule: Schedule, num_nodes: int, replication: int, num_bits: int
) -> LoadReport:
    """Load report for an addition schedule.

    Normalizes by the expected storage of the new node (r F / (K+1)); the
    realized storage of the new node is, by construction, exactly the
    transmitted total.
    """
    K, r, F = num_nodes, replication, num_bits
    packet_size_law(K, r, F, EVENT_ADDITION)
    expected_count = K * comb(K - 1, K - r)
    if len(schedule) != expected_count:
        raise MismatchedParameters(
            f"expected {expected_count} codewords for K={K}, r={r}, got {len(schedule)}"
        )
    _check_schedule(schedule, BinDirectoryAddition, K, r, F)
    total = schedule.payload.size
    normalizer = r * F / (K + 1)
    return LoadReport(
        event=EVENT_ADDITION,
        removed_node=None,
        total_transmitted_bits=total,
        num_codewords=len(schedule),
        normalizer=normalizer,
        measured_load=total / normalizer,
        realized_storage_bits=total,
        realized_load=1.0 if total else 0.0,
        theoretical_asymptote=1.0,
        finite_size_upper_bound=None,
        metadata_bits=F * _bits_to_name(K + 1),
    )


def uniformity_check(placement: PlacementMap, support: Sequence[NodeSet]) -> DistributionCheck:
    """Tabulate observed node sets against an expected uniform support.

    Any populated node set outside ``support`` is a hard failure: the
    rebalanced placement law would be violated, so a SupportViolation is
    raised rather than folded into the statistics.
    """
    support = _node_sets(support)
    lookup = {s: i for i, s in enumerate(support)}
    counts = np.zeros(len(support), dtype=np.int64)
    raw = placement.set_counts()
    for s in np.flatnonzero(raw).tolist():
        stored = placement.support[s]
        pos = lookup.get(stored)
        if pos is None:
            raise SupportViolation(f"node set {stored} observed outside the expected support")
        counts[pos] += raw[s]
    return DistributionCheck.from_counts(support, counts)
