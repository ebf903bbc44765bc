"""Seeded random-stream management for reproducible trials.

Every random draw in the library flows through an :class:`RngSpec`. A spec
names a stream by (master seed, optional trial index, phase label), and the
same name always replays the same values, regardless of how many other
streams were consumed in between. Placement draws therefore never share
state with binning draws or with the file's values, and trials can run in
any order or in parallel without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidParameters

STREAM_PLACEMENT = "placement"
STREAM_REMOVAL_BINNING = "removal-binning"
STREAM_ADDITION_BINNING = "addition-binning"
STREAM_VALUES = "values"

_STREAM_IDS = {
    STREAM_PLACEMENT: 0,
    STREAM_REMOVAL_BINNING: 1,
    STREAM_ADDITION_BINNING: 2,
    STREAM_VALUES: 3,
}


@dataclass(frozen=True)
class RngSpec:
    """Names a family of reproducible random streams.

    ``trial`` widens one master seed into independent per-trial families;
    the harness sets it, standalone use can leave it ``None``.
    """

    master_seed: int
    trial: int | None = None

    def __post_init__(self) -> None:
        if self.master_seed < 0:
            raise InvalidParameters("master_seed must be a non-negative integer")
        if self.trial is not None and self.trial < 0:
            raise InvalidParameters("trial index must be non-negative")

    def generator(self, stream_label: str) -> np.random.Generator:
        """Fresh generator for one phase; identical inputs replay identical draws."""
        try:
            stream_id = _STREAM_IDS[stream_label]
        except KeyError:
            raise InvalidParameters(f"unknown stream label: {stream_label!r}") from None
        key = (stream_id,) if self.trial is None else (self.trial, stream_id)
        return np.random.default_rng(np.random.SeedSequence(self.master_seed, spawn_key=key))

    def trial_seed(self) -> int:
        """Stable 64-bit integer identifying this spec's stream family."""
        key = () if self.trial is None else (self.trial,)
        seq = np.random.SeedSequence(self.master_seed, spawn_key=key)
        return int(seq.generate_state(1, np.uint64)[0])
