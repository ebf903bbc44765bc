"""Run one benchmark workload in a fresh interpreter and print its result.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts one worker per workload, so one workload's arrays never
inflate another's peak RSS. The worker prints one JSON object on stdout.

Every run starts with set-up (import ``coded_rebalance``, validate the
config, enumerate its expected support) and one untimed warm-up trial.

Untraced (``--trace 0``): a closed loop with one caller calls
rebalance-sim's ``main`` in-process, the next call after the previous one
returns, while the next call is expected to end within ``--seconds``. Every
emitted document is checked.

Traced (``--trace 1``): in the same window, each iteration runs the CLI
once with spans around its calls into ``experiment`` and once without,
alternating which goes first; then trial 0 of the workload through the
modules' public functions, one call at a time with a span around each; then
the other protocol's layers at the same K, r and F. Spans are written to
``bench/out`` when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path

from spans import NullTracer, Tracer
from workloads import EVENT_ADD, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
DIGESTS = BENCH / "digests.json"
OUT = BENCH / "out"

# Layers reported by the traced run. Spans carry the layer name; the metric
# is the layer's self time per trial, median over the run's iterations.
LAYER_SPANS = (
    "database.build", "database.verify", "database.storage_counts",
    "removal.bin", "removal.encode", "removal.decode", "removal.apply",
    "addition.bin", "addition.encode", "addition.apply",
    "analysis.load", "analysis.uniformity",
    "experiment.run", "experiment.emit",
)
# Derived from the spans above: apply minus the separately timed bin,
# encode and decode; run_experiment minus the trials' own wall times.
DERIVED_LAYERS = ("removal.commit", "addition.commit", "experiment.harness")
# The seven layers of one trial, for the share table.
TRIAL_LAYERS = {
    "remove": ("database.build", "database.storage_counts", "removal.bin",
               "removal.encode", "removal.decode", "removal.commit",
               "analysis.load", "database.verify", "analysis.uniformity"),
    "add": ("database.build", "database.storage_counts", "addition.bin",
            "addition.encode", "addition.commit", "analysis.load",
            "database.verify", "analysis.uniformity"),
}


def import_library():
    """Import coded_rebalance from this checkout's sources and nowhere else."""
    package = SRC / "coded_rebalance"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"worker: no coded_rebalance sources at {package}")
    sys.path.insert(0, str(SRC))
    import coded_rebalance
    from coded_rebalance import cli

    if Path(coded_rebalance.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"worker: imported coded_rebalance from {coded_rebalance.__file__}")
    return coded_rebalance, cli


def set_up(wl: Workload, seed: int):
    """Everything before the first trial, timed from before the import."""
    started = time.perf_counter()
    cr, cli = import_library()
    config = cr.ExperimentConfig(
        num_nodes=wl.nodes,
        replication=wl.replication,
        event=wl.event.split(":", 1)[0],
        num_bits=wl.bits,
        removed_node=wl.removed_node,
        trials=wl.trials,
        master_seed=seed,
    )
    config.validate()
    support = config.expected_support()
    return cr, cli, config, support, time.perf_counter() - started


def call_main(cli, argv: list[str]) -> tuple[int, str]:
    """rebalance-sim's exit code and the document it wrote to stdout."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def load_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


class Cli:
    """Calls rebalance-sim in-process and keeps what the checks need.

    The CLI's two calls into ``experiment`` are wrapped, in this process
    only: the wrapper keeps the ExperimentResult, whose trial wall times give
    ``trial_s``, and records a span around each call when a tracer is set.
    The worker owns its interpreter, so the wrappers stay until it exits.
    """

    def __init__(self, cli) -> None:
        self.cli = cli
        self.tracer = NullTracer()
        self.result = None
        run_experiment, emit_results = cli.run_experiment, cli.emit_results

        def probed_run(config):
            with self.tracer.span("experiment.run"):
                self.result = run_experiment(config)
            return self.result

        def probed_emit(result, output_format=None):
            with self.tracer.span("experiment.emit"):
                return emit_results(result, output_format)

        cli.run_experiment, cli.emit_results = probed_run, probed_emit

    def run(self, argv: list[str], tracer=None, trial: str = ""):
        """One rebalance-sim call: exit code, document, seconds, result."""
        self.tracer = tracer or NullTracer()
        self.result = None
        started = time.perf_counter()
        with self.tracer.span("cli.main", trial):
            code, document = call_main(self.cli, argv)
        elapsed = time.perf_counter() - started
        return code, document, elapsed, self.result


class OutputCheck:
    """Checks every emitted document of one workload and seed.

    The document must hash to the digest recorded in ``digests.json``; for a
    seed without a recorded digest, the first document's digest is the
    reference for the rest of the run. Each trial must also keep the
    invariants ``run_experiment`` enforces: exact replication, the removal
    floor of 1/(r-1), and a new node that stores what was transmitted.
    """

    def __init__(self, wl: Workload, seed: int) -> None:
        self.wl, self.seed = wl, seed
        self.expected = load_digests().get(wl.name, {}).get(str(seed))
        self.source = "recorded" if self.expected else "first run"

    def problems(self, code: int, document: str) -> list[str]:
        if code != 0:
            return [f"rebalance-sim exited with code {code}"]
        found: list[str] = []
        digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
        if self.expected is None:
            self.expected = digest
        elif digest != self.expected:
            found.append(f"document digest {digest[:16]} != {self.source} {self.expected[:16]}")
        wl = self.wl
        doc = json.loads(document)
        want = {"nodes": wl.nodes, "replication": wl.replication, "bits": wl.bits,
                "removed_node": wl.removed_node, "trials": wl.trials,
                "master_seed": self.seed}
        for key, value in want.items():
            if doc["config"][key] != value:
                found.append(f"config {key}={doc['config'][key]!r}, expected {value!r}")
        if len(doc["trials"]) != wl.trials:
            found.append(f"{len(doc['trials'])} trials in the document, expected {wl.trials}")
        r = wl.replication
        for t in doc["trials"]:
            tag = f"trial {t['trial']}"
            if not t["replication_exact"]:
                found.append(f"{tag}: replication not exact")
            for when in ("storage_before", "storage_after"):
                if sum(t[when].values()) != r * wl.bits:
                    found.append(f"{tag}: {when} does not hold every bit {r} times")
            after = t["storage_after"]
            if wl.removed_node is None:
                if after.get(str(wl.nodes + 1)) != t["total_bits"]:
                    found.append(f"{tag}: new node does not store what was transmitted")
            else:
                if str(wl.removed_node) in after:
                    found.append(f"{tag}: removed node still stores bits")
                if t["realized_load"] * (r - 1) < 1.0 - 1e-12:
                    found.append(f"{tag}: load below the 1/(r-1) floor")
        return found


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    p = int(100 * (1 - 10 / n)) if n else 0
    if p < 50:
        return None
    return p, statistics.quantiles(samples, n=100)[p - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(wl: Workload, seed: int, seconds: float, cli) -> dict:
    """End-to-end metrics with tracing off."""
    runner = Cli(cli)
    check = OutputCheck(wl, seed)
    runner.run(wl.argv(seed, trials=1))  # warm-up: one untimed trial
    attempted = failed = runs = 0
    busy_s = 0.0
    trial_times: list[float] = []
    lines: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        code, document, elapsed, result = runner.run(wl.argv(seed))
        attempted += wl.trials
        problems = check.problems(code, document)
        if problems:
            failed += wl.trials
            lines += [f"FAILED run {attempted // wl.trials}: {p}" for p in problems]
        else:
            runs += 1
            busy_s += elapsed
            trial_times.extend(t.wall_time_s for t in result.trials)
        # Start no call that would, at the last call's pace, end past the window.
        if time.perf_counter() + elapsed > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    # Throughput over the whole window, not a median of per-call rates: the
    # host's speed drifts over tens of seconds, and a median of a few calls
    # follows whichever speed held for most of them.
    trials_per_s = runs * wl.trials / busy_s if runs else 0.0
    trial_s = statistics.median(trial_times) if trial_times else 0.0
    lines.append(
        f"{wl.name}: trials_per_s {trials_per_s:.4f} 1/s ({runs} runs of {wl.trials} "
        f"trials in {busy_s:.1f} s; K={wl.nodes} r={wl.replication} F={wl.bits} "
        f"event={wl.event}; output digest {check.source})"
    )
    tail = tail_percentile(trial_times)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                 else "no tail percentile (needs at least 20 samples)")
    lines.append(f"{wl.name}: trial_s median {trial_s:.4f} s, n={len(trial_times)}, {tail_text}")
    lines.append(f"{wl.name}: peak_rss_mb {peak_rss_mb:.1f} MB")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "trials_per_s": metric(trials_per_s, "1/s"),
            "trial_s": metric(trial_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        },
        "report": lines,
    }


def removal_layers(tracer, cr, db, node: int, spec, problems: list[str]):
    """bin, encode, every decode over the schedule, then the full apply."""
    with tracer.span("removal.bin"):
        directory = cr.bin_removal(db, node, spec)
    with tracer.span("removal.encode"):
        codewords = cr.encode_removal(db, directory)
    decoded = []
    with tracer.span("removal.decode"):
        for cw in codewords:
            for label, _ in cw.constituents:
                decoded.append(cr.decode_removal(label.target, cw, db, directory))
    values = db.file.values
    wrong = sum(1 for bits, got in decoded
                if got.shape != bits.shape or not (got == values[bits]).all())
    if wrong:
        problems.append(f"{wrong} of {len(decoded)} decoded packets differ from the file")
    with tracer.span("removal.apply"):
        new_db, schedule = cr.apply_removal_rebalance(db, node, spec)
    if not same_schedule(schedule, codewords):
        problems.append("apply_removal_rebalance broadcast another schedule than encode_removal")
    return new_db, schedule, directory


def addition_layers(tracer, cr, db, spec, problems: list[str]):
    """bin, encode, then the full apply."""
    with tracer.span("addition.bin"):
        directory = cr.bin_addition(db, spec)
    with tracer.span("addition.encode"):
        codewords = cr.encode_addition(db, directory)
    with tracer.span("addition.apply"):
        new_db, schedule = cr.apply_addition_rebalance(db, spec)
    if not same_schedule(schedule, codewords):
        problems.append("apply_addition_rebalance shipped another schedule than encode_addition")
    return new_db, schedule, directory


def same_schedule(a, b) -> bool:
    return len(a) == len(b) and all(
        x.sender == y.sender and x.group == y.group and x.constituents == y.constituents
        and x.payload.tobytes() == y.payload.tobytes()
        for x, y in zip(a, b)
    )


def layer_counts(wl: Workload, event: str, directory, schedule, report,
                 problems: list[str]) -> dict[str, float]:
    """Per-layer counters from the directory, the schedule and the load report."""
    r = wl.replication
    if event == EVENT_ADD:
        moved = int((directory.codes < r).sum())
        if moved != report.total_transmitted_bits:
            problems.append(f"{moved} bits binned to move, {report.total_transmitted_bits} shipped")
        return {
            "addition.moved_bits": report.total_transmitted_bits,
            "addition.nonempty_boxes": sum(1 for cw in schedule if cw.payload_bits),
            "addition.codewords": len(schedule),
        }
    if len(directory) != report.realized_storage_bits:
        problems.append(f"{len(directory)} affected bits, {report.realized_storage_bits} delivered")
    return {
        "removal.affected_bits": len(directory),
        "removal.nonempty_boxes": sum(1 for cw in schedule for _, n in cw.constituents if n),
        "removal.codewords": len(schedule),
        "removal.empty_codewords": sum(1 for cw in schedule if not cw.payload_bits),
        "removal.decodes": sum(len(cw.constituents) for cw in schedule),
        "removal.padding_bits": report.total_transmitted_bits
        - report.realized_storage_bits / (r - 1),
        "removal.max_packet_bits": max(cw.payload_bits for cw in schedule),
    }


def protocol_layers(tracer, cr, event: str, db, spec, problems):
    if event == EVENT_ADD:
        return addition_layers(tracer, cr, db, spec, problems)
    return removal_layers(tracer, cr, db, int(event.split(":", 1)[1]), spec, problems)


def load_report(cr, wl: Workload, event: str, schedule):
    K, r, F = wl.nodes, wl.replication, wl.bits
    if event == EVENT_ADD:
        return cr.addition_load(schedule, K, r, F)
    return cr.removal_load(schedule, K, r, F, removed_node=int(event.split(":", 1)[1]))


def traced_trial(tracer, cr, wl: Workload, config, support, spec, document, trial: str):
    """Trial 0 of the workload, one public call at a time, a span around each.

    ``document``, when given, is a checked CLI document of the same seed;
    its trial 0 must agree with this one.
    """
    problems: list[str] = []
    with tracer.span("trial", trial):
        with tracer.span("database.build"):
            db = cr.build_database(wl.nodes, wl.replication, wl.bits, spec)
        with tracer.span("database.storage_counts"):
            before = cr.node_storage_counts(db)
        new_db, schedule, directory = protocol_layers(
            tracer, cr, wl.event, db, spec, problems)
        with tracer.span("analysis.load"):
            report = load_report(cr, wl, wl.event, schedule)
        with tracer.span("database.verify"):
            balance = cr.verify_r_balanced(new_db, config.balance_tolerance)
        with tracer.span("database.storage_counts"):
            after = cr.node_storage_counts(new_db)
        with tracer.span("analysis.uniformity"):
            cr.uniformity_check(new_db.placement, support)
    if not balance.replication_ok:
        problems.append("replication violated after rebalancing")
    counts = layer_counts(wl, wl.event, directory, schedule, report, problems)
    if document is not None:
        problems += matches_document(document, report, before, after)
    return counts, problems


def companion_trial(tracer, cr, wl: Workload, spec, trial: str):
    """The other protocol's layers on a database of the workload's K, r, F."""
    problems: list[str] = []
    db = cr.build_database(wl.nodes, wl.replication, wl.bits, spec)
    with tracer.span("companion", trial):
        _, schedule, directory = protocol_layers(
            tracer, cr, wl.companion_event, db, spec, problems)
    report = load_report(cr, wl, wl.companion_event, schedule)
    counts = layer_counts(wl, wl.companion_event, directory, schedule, report, problems)
    return counts, problems


def matches_document(document: str, report, before, after) -> list[str]:
    """Trial 0 through the public functions must agree with the CLI's trial 0."""
    t = json.loads(document)["trials"][0]
    found = []
    if t["total_bits"] != report.total_transmitted_bits:
        found.append(f"traced trial sent {report.total_transmitted_bits} bits, "
                     f"the CLI {t['total_bits']}")
    if t["num_codewords"] != report.num_codewords:
        found.append("traced trial and CLI disagree on the codeword count")
    for when, counts in (("storage_before", before), ("storage_after", after)):
        if t[when] != {str(k): v for k, v in sorted(counts.items())}:
            found.append(f"traced trial and CLI disagree on {when}")
    return found


def layer_times(tracer: Tracer, trial_walls: dict[str, float]) -> dict[str, list[float]]:
    """Per layer, its self time in each trial (or CLI run) that has it."""
    per_trial: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(tracer.spans, tracer.self_times()):
        per_trial[span.trial][span.name] += own
    times: dict[str, list[float]] = defaultdict(list)
    for trial, layers in per_trial.items():
        for name in LAYER_SPANS:
            if name in layers:
                times[name].append(layers[name])
        for proto in ("removal", "addition"):
            if f"{proto}.apply" in layers:
                parts = sum(layers.get(f"{proto}.{p}", 0.0) for p in ("bin", "encode", "decode"))
                times[f"{proto}.commit"].append(layers[f"{proto}.apply"] - parts)
        if "experiment.run" in layers and trial in trial_walls:
            times["experiment.harness"].append(layers["experiment.run"] - trial_walls[trial])
    return times


def measure_traced(wl: Workload, seed: int, seconds: float, cr, cli, config, support) -> dict:
    """Per-layer metrics: times from spans, counts from return values."""
    runner = Cli(cli)
    check = OutputCheck(wl, seed)
    tracer = Tracer()
    spec = cr.RngSpec(seed, trial=0)
    runner.run(wl.argv(seed, trials=1))  # warm-up: one untimed trial
    attempted = failed = 0
    rates: dict[bool, list[float]] = {True: [], False: []}
    trial_walls: dict[str, float] = {}
    counts: dict[str, float] = {}
    lines: list[str] = []
    deadline = time.perf_counter() + seconds
    iteration = 0
    while True:
        iteration_started = time.perf_counter()
        checked_document = None
        for traced in ((True, False) if iteration % 2 == 0 else (False, True)):
            tag = f"cli-{iteration}"
            code, document, elapsed, result = runner.run(
                wl.argv(seed), tracer if traced else None, tag)
            attempted += wl.trials
            problems = check.problems(code, document)
            if problems:
                failed += wl.trials
                lines += [f"FAILED {tag}: {p}" for p in problems]
                continue
            rates[traced].append(wl.trials / elapsed)
            checked_document = document
            if traced:
                trial_walls[tag] = sum(t.wall_time_s for t in result.trials)

        for tag, run_trial in (
            (f"trial-{iteration}", partial(
                traced_trial, tracer, cr, wl, config, support, spec, checked_document)),
            (f"companion-{iteration}", partial(companion_trial, tracer, cr, wl, spec)),
        ):
            attempted += 1
            try:
                found, problems = run_trial(tag)
            except cr.RebalanceError as exc:
                found, problems = {}, [f"{type(exc).__name__}: {exc}"]
            if iteration == 0:
                counts.update(found)
            elif any(counts.get(k) != v for k, v in found.items()):
                problems.append("per-layer counts differ from the first iteration's")
            if problems:
                failed += 1
                lines += [f"FAILED {tag}: {p}" for p in problems]
        iteration += 1
        now = time.perf_counter()
        if now + (now - iteration_started) > deadline:
            break

    path = OUT / f"trace-{wl.name}-seed{seed}.jsonl"
    tracer.write(path)
    times = layer_times(tracer, trial_walls)
    metrics = {f"{name}_s": metric(statistics.median(times[name]), "s")
               for name in (*LAYER_SPANS, *DERIVED_LAYERS) if times[name]}
    traced_rate = statistics.median(rates[True]) if rates[True] else 0.0
    untraced_rate = statistics.median(rates[False]) if rates[False] else 0.0
    metrics["trace.overhead_trials_per_s"] = metric(traced_rate - untraced_rate, "1/s")
    for name, value in sorted(counts.items()):
        metrics[name] = metric(value, "bits" if name.endswith("_bits") else "count")

    own = TRIAL_LAYERS[wl.event.split(":", 1)[0]]
    shares = [(name, metrics[f"{name}_s"]["value"]) for name in own if f"{name}_s" in metrics]
    total = sum(value for _, value in shares) or 1.0
    lines.append(f"{wl.name}: traced run, {iteration} iterations; layer self time per trial "
                 "and share of the trial (commit = apply - bin - encode - decode, derived):")
    for name, value in sorted(shares, key=lambda item: -item[1]):
        lines.append(f"  {name + '_s':28s} {value:10.4f} s  {100 * value / total:5.1f}%")
    lines.append(f"{wl.name}: other layers (companion protocol: {wl.companion_event}; "
                 "experiment.harness = run - trial wall times, derived):")
    for name in (*LAYER_SPANS, *DERIVED_LAYERS):
        if name not in own and f"{name}_s" in metrics:
            lines.append(f"  {name + '_s':28s} {metrics[f'{name}_s']['value']:10.4f} s")
    for name, value in sorted(counts.items()):
        lines.append(f"  {name:28s} {value:12.10g}")
    lines.append(f"{wl.name}: trials_per_s traced {traced_rate:.4f}, untraced {untraced_rate:.4f}, "
                 f"overhead {traced_rate - untraced_rate:+.4f} 1/s; "
                 f"spans in {path.relative_to(BENCH.parent)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "report": lines}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measuring window; at least one iteration runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only time set-up, in this fresh interpreter")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    cr, cli, config, support, setup_s = set_up(wl, args.seed)
    if args.setup_only:
        result = {"setup_s": setup_s}
    elif args.trace:
        result = measure_traced(wl, args.seed, args.seconds, cr, cli, config, support)
    else:
        result = measure(wl, args.seed, args.seconds, cli)
        result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
