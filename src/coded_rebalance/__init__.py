"""Coded data rebalancing for randomly placed replicated databases.

The library builds databases in which every bit is replicated at a uniform
random set of r nodes, runs the node-removal protocol (XOR broadcasts,
asymptotic load 1/(r-1)) and the node-addition protocol (uncoded handoffs,
load 1), and verifies the claimed loads and placement laws by Monte Carlo
experiment.
"""

from .addition import (
    AdditionBoxLabel,
    BinDirectoryAddition,
    apply_addition_rebalance,
    bin_addition,
    encode_addition,
)
from .analysis import (
    DistributionCheck,
    LoadReport,
    PacketSizeLaw,
    addition_load,
    binomial_max_bound,
    packet_size_law,
    removal_load,
    uniformity_check,
)
from .codeword import Codeword, Schedule
from .database import (
    BalanceReport,
    Database,
    FileInstance,
    PlacementMap,
    build_database,
    draw_file,
    draw_placement,
    exclusive_group,
    full_support,
    node_contents,
    node_storage_counts,
    verify_r_balanced,
)
from .exceptions import (
    ConfigError,
    DecodeVerificationError,
    DirectoryMismatch,
    InvalidLabel,
    InvalidParameters,
    MismatchedParameters,
    NotARecipient,
    RebalanceError,
    ReplicationOutOfRange,
    SupportViolation,
    UnknownNode,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    TrialResult,
    emit_results,
    run_experiment,
)
from .removal import (
    BinDirectoryRemoval,
    RemovalBoxLabel,
    apply_removal_rebalance,
    bin_removal,
    decode_removal,
    encode_removal,
)
from .rng import RngSpec

__version__ = "0.1.0"

__all__ = [
    "AdditionBoxLabel",
    "BalanceReport",
    "BinDirectoryAddition",
    "BinDirectoryRemoval",
    "Codeword",
    "ConfigError",
    "Database",
    "DecodeVerificationError",
    "DirectoryMismatch",
    "DistributionCheck",
    "ExperimentConfig",
    "ExperimentResult",
    "FileInstance",
    "InvalidLabel",
    "InvalidParameters",
    "LoadReport",
    "MismatchedParameters",
    "NotARecipient",
    "PacketSizeLaw",
    "PlacementMap",
    "RebalanceError",
    "RemovalBoxLabel",
    "ReplicationOutOfRange",
    "RngSpec",
    "Schedule",
    "SupportViolation",
    "TrialResult",
    "UnknownNode",
    "addition_load",
    "apply_addition_rebalance",
    "apply_removal_rebalance",
    "bin_addition",
    "bin_removal",
    "binomial_max_bound",
    "build_database",
    "decode_removal",
    "draw_file",
    "draw_placement",
    "emit_results",
    "encode_addition",
    "encode_removal",
    "exclusive_group",
    "full_support",
    "node_contents",
    "node_storage_counts",
    "packet_size_law",
    "removal_load",
    "run_experiment",
    "uniformity_check",
    "verify_r_balanced",
]
