"""Command-line harness for rebalancing experiments."""

from __future__ import annotations

import argparse
import functools
import sys

from .addition import bin_addition, encode_addition
from .analysis import addition_load, removal_load
from .database import build_database
from .exceptions import ConfigError, RebalanceError
from .experiment import EVENT_ADD, EVENT_REMOVE, ExperimentConfig, emit_results, run_experiment
from .removal import bin_removal, encode_removal
from .rng import RngSpec


# glibc's mallopt parameter numbers (malloc.h), and the size below which an
# allocation stays on the heap and a freed heap top stays mapped.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_HEAP_KEPT_BYTES = 1 << 30
# In order; the first refused setting ends the list.
_MALLOPT_SETTINGS = (
    (_M_MMAP_THRESHOLD, _HEAP_KEPT_BYTES),
    (_M_TRIM_THRESHOLD, _HEAP_KEPT_BYTES),
    (_M_ARENA_MAX, 1),
)


@functools.cache
def _keep_heap() -> bool:
    """Keep freed memory mapped for the rest of the process, once per process.

    A trial frees its F-sized arrays when it ends. By default glibc hands
    allocations above its mmap threshold, and a freed heap top above its
    trim threshold, back to the kernel, so the next trial page-faults the
    same memory in again. Raising both thresholds keeps it. A removal
    trial also runs work on a second thread, which glibc would give an
    arena of its own, mapped beside the main heap; one arena keeps its
    allocations in the memory already kept. Best effort: returns False
    where libc has no ``mallopt`` or refuses a value. Only the command line
    calls this; library callers keep their allocator's defaults.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, value) for param, value in _MALLOPT_SETTINGS)


def _parse_event(text: str) -> tuple[str, int | None]:
    if text == "add":
        return EVENT_ADD, None
    if text.startswith("remove:"):
        try:
            return EVENT_REMOVE, int(text.split(":", 1)[1])
        except ValueError:
            pass
    raise ConfigError(f"event: expected 'remove:<node-id>' or 'add', got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rebalance-sim",
        description="Monte Carlo experiments for coded data rebalancing of "
        "randomly placed replicated databases.",
    )
    parser.add_argument("--nodes", type=int, required=True, help="number of nodes K")
    parser.add_argument("--replication", type=int, required=True, help="replication factor r")
    parser.add_argument("--bits", type=int, default=10**6, help="file size F in bits")
    parser.add_argument("--event", required=True, help="'remove:<node-id>' or 'add'")
    parser.add_argument("--trials", type=int, default=None,
                        help="trial count (default 30 for remove, 100 for add)")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    parser.add_argument("--balance-tolerance", type=float, default=0.01)
    parser.add_argument("--uniformity-tolerance", type=float, default=0.02)
    parser.add_argument("--walkthrough", action="store_true",
                        help="print the broadcast schedule of a single run instead "
                        "of running trials")
    return parser


def _fmt_nodes(nodes) -> str:
    return "{" + ",".join(str(n) for n in sorted(nodes)) + "}"


def format_walkthrough(config: ExperimentConfig) -> str:
    """Human-readable schedule of one run at the configured size."""
    spec = RngSpec(config.master_seed, trial=0)
    db = build_database(config.num_nodes, config.replication, config.num_bits, spec)
    lines = [
        f"walkthrough: nodes={config.num_nodes} replication={config.replication} "
        f"bits={config.num_bits} event={config.event}"
        + (f" node {config.removed_node}" if config.removed_node else "")
        + f" seed={config.master_seed}"
    ]
    if config.event == EVENT_REMOVE:
        directory = bin_removal(db, config.removed_node, spec)
        codewords = encode_removal(db, directory)
        report = removal_load(codewords, config.num_nodes, config.replication,
                              config.num_bits, removed_node=config.removed_node)
        lines.append(f"schedule: {len(codewords)} codewords")
        for i, cw in enumerate(codewords, 1):
            parts = " ^ ".join(
                f"->{label.target} ({length} bits)" for label, length in cw.constituents
            )
            lines.append(
                f"tx {i:02d}/{len(codewords)} sender={cw.sender} "
                f"group={_fmt_nodes(cw.group)} payload={cw.payload_bits}: {parts}"
            )
    else:
        directory = bin_addition(db, spec)
        codewords = encode_addition(db, directory)
        report = addition_load(codewords, config.num_nodes, config.replication, config.num_bits)
        lines.append(f"schedule: {len(codewords)} codewords")
        for i, cw in enumerate(codewords, 1):
            lines.append(
                f"tx {i:02d}/{len(codewords)} sender={cw.sender} "
                f"class={_fmt_nodes(cw.group)} -> node {directory.new_node} "
                f"({cw.payload_bits} bits)"
            )
    lines.append(
        f"total transmitted: {report.total_transmitted_bits} bits, "
        f"load={report.measured_load:.4f}, asymptote={report.theoretical_asymptote:.4f}"
    )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        event, removed = _parse_event(args.event)
        config = ExperimentConfig(
            num_nodes=args.nodes,
            replication=args.replication,
            event=event,
            num_bits=args.bits,
            removed_node=removed,
            trials=args.trials,
            master_seed=args.seed,
            output_format=args.format,
            balance_tolerance=args.balance_tolerance,
            uniformity_tolerance=args.uniformity_tolerance,
        )
        config.validate()
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    _keep_heap()
    try:
        if args.walkthrough:
            document = format_walkthrough(config)
        else:
            document = emit_results(run_experiment(config))
    except RebalanceError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 1

    if args.out == "-":
        sys.stdout.write(document)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(document)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
