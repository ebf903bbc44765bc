"""Experiment harness: configured trials, aggregation, serialization.

A trial is build -> rebalance -> analyze under seeds derived from the
master seed and the trial index, so the whole experiment is a pure function
of its configuration (wall times are recorded in memory but kept out of the
serialized output, which is byte-reproducible).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .addition import apply_addition_rebalance
from .analysis import (
    DistributionCheck,
    LoadReport,
    addition_load,
    removal_load,
    uniformity_check,
)
from .database import build_database, node_storage_counts, verify_r_balanced
from .exceptions import ConfigError, RebalanceError
from .removal import apply_removal_rebalance
from .rng import RngSpec

EVENT_REMOVE = "remove"
EVENT_ADD = "add"

DEFAULT_BITS = 10**6
DEFAULT_TRIALS = {EVENT_REMOVE: 30, EVENT_ADD: 100}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; validation is exhaustive and up front."""

    num_nodes: int
    replication: int
    event: str
    num_bits: int = DEFAULT_BITS
    removed_node: int | None = None
    trials: int | None = None
    master_seed: int = 0
    output_format: str = "json"
    balance_tolerance: float = 0.01
    uniformity_tolerance: float = 0.02

    def __post_init__(self) -> None:
        if self.trials is None and self.event in DEFAULT_TRIALS:
            object.__setattr__(self, "trials", DEFAULT_TRIALS[self.event])

    def validate(self) -> None:
        problems: list[str] = []
        K, r = self.num_nodes, self.replication
        if K < 1:
            problems.append("num_nodes: must be at least 1")
        if self.event == EVENT_REMOVE:
            if not 2 <= r <= K - 1:
                problems.append(f"replication: removal needs 2 <= r <= {K - 1}, got {r}")
            if self.removed_node is None:
                problems.append("removed_node: required for the remove event")
            elif not 1 <= self.removed_node <= K:
                problems.append(f"removed_node: {self.removed_node} outside 1..{K}")
        elif self.event == EVENT_ADD:
            if not 1 <= r <= K:
                problems.append(f"replication: addition needs 1 <= r <= {K}, got {r}")
            if self.removed_node is not None:
                problems.append("removed_node: meaningless for the add event")
        else:
            problems.append(f"event: must be '{EVENT_REMOVE}' or '{EVENT_ADD}', got {self.event!r}")
        if self.num_bits < 1:
            problems.append("num_bits: must be at least 1")
        if self.trials is None or self.trials < 1:
            problems.append("trials: must be at least 1")
        if self.master_seed < 0:
            problems.append("master_seed: must be non-negative")
        if self.output_format not in ("json", "csv"):
            problems.append(f"output_format: must be 'json' or 'csv', got {self.output_format!r}")
        if not 0 < self.balance_tolerance < 1:
            problems.append("balance_tolerance: must lie in (0, 1)")
        if not 0 < self.uniformity_tolerance < 1:
            problems.append("uniformity_tolerance: must lie in (0, 1)")
        if problems:
            raise ConfigError("; ".join(problems))

    def expected_support(self) -> tuple[tuple[int, ...], ...]:
        """Node sets the rebalanced placement may use."""
        if self.event == EVENT_REMOVE:
            survivors = [n for n in range(1, self.num_nodes + 1) if n != self.removed_node]
            return tuple(combinations(survivors, self.replication))
        return tuple(combinations(range(1, self.num_nodes + 2), self.replication))


@dataclass
class TrialResult:
    trial: int
    seed: int
    load: LoadReport
    distribution: DistributionCheck
    storage_before: dict[int, int]
    storage_after: dict[int, int]
    replication_exact: bool
    floor_ok: bool
    wall_time_s: float


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    trials: list[TrialResult]
    mean_load: float
    std_load: float
    mean_realized_load: float
    std_realized_load: float
    theoretical_asymptote: float
    finite_size_upper_bound: float | None
    pooled_uniformity: DistributionCheck


def _run_trial(config: ExperimentConfig, trial: int, support) -> TrialResult:
    spec = RngSpec(config.master_seed, trial=trial)
    started = time.perf_counter()
    db = build_database(config.num_nodes, config.replication, config.num_bits, spec)
    before = node_storage_counts(db)

    if config.event == EVENT_REMOVE:
        new_db, codewords = apply_removal_rebalance(db, config.removed_node, spec)
        report = removal_load(
            codewords, config.num_nodes, config.replication, config.num_bits,
            removed_node=config.removed_node,
        )
        # exact per-run floor: padding can only add bits
        floor_ok = report.total_transmitted_bits * (config.replication - 1) >= (
            report.realized_storage_bits
        )
    else:
        new_db, codewords = apply_addition_rebalance(db, spec)
        report = addition_load(codewords, config.num_nodes, config.replication, config.num_bits)
        floor_ok = True

    balance = verify_r_balanced(new_db, config.balance_tolerance)
    after = balance.node_loads
    if not balance.replication_ok:
        raise RebalanceError(
            f"trial {trial}: replication violated for bits {balance.offending_bits[:5]}"
        )
    if config.event == EVENT_ADD:
        new_node = max(new_db.nodes)
        if after[new_node] != report.total_transmitted_bits:
            raise RebalanceError(
                f"trial {trial}: new node stores {after[new_node]} bits but "
                f"{report.total_transmitted_bits} were transmitted"
            )
    if not floor_ok:
        raise RebalanceError(f"trial {trial}: transmitted below the per-run floor")

    check = uniformity_check(new_db.placement, support)
    return TrialResult(
        trial=trial,
        seed=spec.trial_seed(),
        load=report,
        distribution=check,
        storage_before=before,
        storage_after=after,
        replication_exact=balance.replication_ok,
        floor_ok=floor_ok,
        wall_time_s=time.perf_counter() - started,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all trials and aggregate loads and placement statistics.

    Trials use independent seed streams derived from (master_seed, trial
    index) and are aggregated by trial index, so results do not depend on
    execution order.
    """
    config.validate()
    support = config.expected_support()
    trials = [_run_trial(config, t, support) for t in range(config.trials)]

    loads = np.array([t.load.measured_load for t in trials])
    realized = np.array([t.load.realized_load for t in trials])
    pooled_counts = np.sum(
        [t.distribution.observed_counts for t in trials], axis=0, dtype=np.int64
    )
    pooled = DistributionCheck.from_counts(support, pooled_counts)
    first = trials[0].load
    return ExperimentResult(
        config=config,
        trials=trials,
        mean_load=float(loads.mean()),
        std_load=float(loads.std(ddof=1)) if len(trials) > 1 else 0.0,
        mean_realized_load=float(realized.mean()),
        std_realized_load=float(realized.std(ddof=1)) if len(trials) > 1 else 0.0,
        theoretical_asymptote=first.theoretical_asymptote,
        finite_size_upper_bound=first.finite_size_upper_bound,
        pooled_uniformity=pooled,
    )


def _config_record(config: ExperimentConfig) -> dict:
    return {
        "nodes": config.num_nodes,
        "replication": config.replication,
        "bits": config.num_bits,
        "event": config.event,
        "removed_node": config.removed_node,
        "trials": config.trials,
        "master_seed": config.master_seed,
        "balance_tolerance": config.balance_tolerance,
        "uniformity_tolerance": config.uniformity_tolerance,
    }


def _trial_record(t: TrialResult) -> dict:
    return {
        "trial": t.trial,
        "seed": t.seed,
        "total_bits": t.load.total_transmitted_bits,
        "num_codewords": t.load.num_codewords,
        "load": t.load.measured_load,
        "realized_load": t.load.realized_load,
        "metadata_bits": t.load.metadata_bits,
        "max_rel_err": t.distribution.max_relative_error,
        "chi_square": t.distribution.chi_square_statistic,
        "replication_exact": t.replication_exact,
        "storage_before": {str(k): v for k, v in sorted(t.storage_before.items())},
        "storage_after": {str(k): v for k, v in sorted(t.storage_after.items())},
    }


def emit_results(result: ExperimentResult, output_format: str | None = None) -> str:
    """Serialize an experiment (JSON document or CSV table).

    Output is a pure function of the configuration: wall times are omitted
    and all field orders are fixed, so identical configs give identical
    bytes.
    """
    fmt = output_format or result.config.output_format
    if fmt == "json":
        doc = {
            "config": _config_record(result.config),
            "trials": [_trial_record(t) for t in result.trials],
            "summary": {
                "mean_load": result.mean_load,
                "std_load": result.std_load,
                "mean_realized_load": result.mean_realized_load,
                "std_realized_load": result.std_realized_load,
                "theoretical_asymptote": result.theoretical_asymptote,
                "bound": result.finite_size_upper_bound,
                "uniformity": {
                    "max_rel_err": result.pooled_uniformity.max_relative_error,
                    "chi_square": result.pooled_uniformity.chi_square_statistic,
                    "passed": result.pooled_uniformity.max_relative_error
                    <= result.config.uniformity_tolerance,
                },
            },
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        header = "trial,seed,total_bits,num_codewords,load,realized_load,max_rel_err"
        rows = [header]
        for t in result.trials:
            rows.append(
                f"{t.trial},{t.seed},{t.load.total_transmitted_bits},"
                f"{t.load.num_codewords},{t.load.measured_load!r},"
                f"{t.load.realized_load!r},{t.distribution.max_relative_error!r}"
            )
        return "\n".join(rows) + "\n"
    raise ConfigError(f"output_format: must be 'json' or 'csv', got {fmt!r}")
