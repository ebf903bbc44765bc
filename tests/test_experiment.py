"""Experiment harness, serialization, CLI, and walkthrough output."""

import json
import threading
import time
from dataclasses import replace
from math import comb

import pytest

from coded_rebalance import (
    ConfigError,
    ExperimentConfig,
    RebalanceError,
    RngSpec,
    addition,
    build_database,
    cli,
    emit_results,
    experiment,
    run_experiment,
)
from coded_rebalance.cli import format_walkthrough, main
from coded_rebalance.experiment import MAX_ENUMERATED


def remove_config(**overrides):
    base = dict(
        num_nodes=6, replication=3, event="remove", removed_node=6,
        num_bits=20000, trials=4, master_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_identical_configs_identical_json_bytes():
    a = emit_results(run_experiment(remove_config()))
    b = emit_results(run_experiment(remove_config()))
    assert a.encode() == b.encode()


def test_single_trial_run_is_byte_reproducible():
    a = emit_results(run_experiment(remove_config(trials=1)))
    b = emit_results(run_experiment(remove_config(trials=1)))
    assert a.encode() == b.encode()


def test_every_trial_shares_the_run_s_support():
    result = run_experiment(remove_config())
    support = result.pooled_uniformity.support
    assert support == remove_config().expected_support()
    assert all(t.distribution.support is support for t in result.trials)


def test_different_seed_changes_results():
    a = emit_results(run_experiment(remove_config()))
    b = emit_results(run_experiment(remove_config(master_seed=6)))
    assert a != b


def test_json_schema_and_summary():
    doc = json.loads(emit_results(run_experiment(remove_config())))
    assert doc["config"]["nodes"] == 6
    assert doc["config"]["event"] == "remove"
    assert len(doc["trials"]) == 4
    for row in doc["trials"]:
        assert set(row) >= {
            "trial", "seed", "total_bits", "num_codewords", "load",
            "realized_load", "max_rel_err", "storage_before", "storage_after",
        }
        assert row["replication_exact"] is True
    assert doc["summary"]["theoretical_asymptote"] == 0.5
    assert doc["summary"]["bound"] > 0.5
    assert "max_rel_err" in doc["summary"]["uniformity"]


def test_csv_rows_and_per_row_floor():
    result = run_experiment(remove_config(trials=6))
    lines = emit_results(result, "csv").strip().splitlines()
    header, rows = lines[0], lines[1:]
    assert header == "trial,seed,total_bits,num_codewords,load,realized_load,max_rel_err"
    assert len(rows) == 6
    for row in rows:
        realized_load = float(row.split(",")[5])
        assert realized_load >= 0.5  # converse floor, exact per run


def test_addition_summary_asymptote():
    config = ExperimentConfig(
        num_nodes=4, replication=2, event="add", num_bits=20000, trials=3, master_seed=2
    )
    doc = json.loads(emit_results(run_experiment(config)))
    assert doc["summary"]["theoretical_asymptote"] == 1.0
    assert doc["summary"]["bound"] is None


def test_trials_default_by_event():
    assert remove_config(trials=None).trials == 30
    add = ExperimentConfig(num_nodes=4, replication=2, event="add")
    assert add.trials == 100


def pipeline_config(event, trials):
    if event == "remove":
        return remove_config(num_bits=30_000, trials=trials)
    return ExperimentConfig(num_nodes=4, replication=2, event="add", num_bits=30_000,
                            trials=trials, master_seed=5)


def serial_reference(config):
    """The run with each trial's database built whole by build_database,
    one trial after the other."""
    support = config.expected_support()
    trials = []
    for t in range(config.trials):
        spec = RngSpec(config.master_seed, trial=t)
        db = build_database(config.num_nodes, config.replication, config.num_bits, spec)
        trials.append(experiment._run_trial(config, spec, support, db, time.perf_counter()))
    return experiment._aggregate(config, support, trials)


@pytest.mark.parametrize("event", ["remove", "add"])
@pytest.mark.parametrize("trials", [1, 2, 5])
def test_pipelined_run_equals_a_serial_run(event, trials):
    config = pipeline_config(event, trials)
    result, reference = run_experiment(config), serial_reference(config)
    for fmt in ("json", "csv"):
        assert emit_results(result, fmt).encode() == emit_results(reference, fmt).encode()
    untimed = lambda r: [replace(t, wall_time_s=0.0) for t in r.trials]
    assert untimed(result) == untimed(reference)
    assert all(t.wall_time_s > 0 for t in result.trials)


def test_each_later_placement_is_drawn_on_another_thread(monkeypatch):
    drawn_on = {}
    draw = experiment.draw_placement

    def recording(K, r, F, rng):
        drawn_on[rng.trial] = threading.current_thread()
        return draw(K, r, F, rng)

    monkeypatch.setattr(experiment, "draw_placement", recording)
    run_experiment(pipeline_config("add", 4))
    assert sorted(drawn_on) == [0, 1, 2, 3]
    assert drawn_on[0] is threading.current_thread()
    assert all(drawn_on[t] is not threading.current_thread() for t in (1, 2, 3))
    assert not any(drawn_on[t].is_alive() for t in (1, 2, 3))


def test_each_later_trials_codes_are_drawn_on_another_thread(monkeypatch):
    drawn_on = {}
    draw = experiment.draw_addition_codes

    def recording(K, F, rng):
        drawn_on[rng.trial] = threading.current_thread()
        return draw(K, F, rng)

    def refuse(*args):
        raise AssertionError("a trial drew its own codes")

    monkeypatch.setattr(experiment, "draw_addition_codes", recording)
    monkeypatch.setattr(addition, "draw_addition_codes", refuse)  # bin_addition's own draw
    run_experiment(pipeline_config("add", 4))
    assert sorted(drawn_on) == [0, 1, 2, 3]
    assert drawn_on[0] is threading.current_thread()
    assert all(drawn_on[t] is not threading.current_thread() for t in (1, 2, 3))
    assert not any(drawn_on[t].is_alive() for t in (1, 2, 3))
    drawn_on.clear()
    run_experiment(pipeline_config("remove", 3))
    assert drawn_on == {}  # a removal's codes depend on its placement


def test_wall_time_counts_the_wait_for_the_placement_drawn_ahead(monkeypatch):
    draw = experiment.draw_placement

    def slow(K, r, F, rng):
        if rng.trial == 1:
            time.sleep(0.3)
        return draw(K, r, F, rng)

    monkeypatch.setattr(experiment, "draw_placement", slow)
    result = run_experiment(pipeline_config("add", 2))
    assert result.trials[1].wall_time_s >= 0.3 - result.trials[0].wall_time_s


@pytest.mark.parametrize("event", ["remove", "add"])
def test_a_one_trial_run_starts_no_pipeline_thread(monkeypatch, event):
    def refuse(fn):
        raise AssertionError("a one-trial run started a thread")

    monkeypatch.setattr(experiment, "in_background", refuse)
    assert len(run_experiment(pipeline_config(event, 1)).trials) == 1


@pytest.mark.parametrize("draw_ahead_fails", [False, True])
def test_a_failed_trial_is_reported_after_the_placement_drawn_ahead_is_joined(
    monkeypatch, draw_ahead_fails
):
    threads = set(threading.enumerate())
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    error = RebalanceError("trial 1 failed")
    run_trial, draw = experiment._run_trial, experiment.draw_placement
    started = []

    def failing_trial(config, spec, *args):
        started.append(spec.trial)
        if spec.trial == 1:
            raise error
        return run_trial(config, spec, *args)

    finished = []

    def draw_ahead(K, r, F, rng):
        if rng.trial == 2:
            time.sleep(0.2)  # still drawing when trial 1 fails
            finished.append(rng.trial)
            if draw_ahead_fails:
                raise MemoryError("the placement drawn ahead failed too")
        return draw(K, r, F, rng)

    monkeypatch.setattr(experiment, "_run_trial", failing_trial)
    monkeypatch.setattr(experiment, "draw_placement", draw_ahead)
    with pytest.raises(RebalanceError) as raised:
        run_experiment(pipeline_config("remove", 3))
    assert raised.value is error
    assert finished == [2]  # joined before the error was reported
    assert started == [0, 1]
    assert set(threading.enumerate()) == threads
    assert escaped == []


def test_a_failed_draw_ahead_reaches_the_caller(monkeypatch):
    threads = set(threading.enumerate())
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    error = MemoryError("no room for trial 2's placement")
    draw = experiment.draw_placement

    def draw_ahead(K, r, F, rng):
        if rng.trial == 2:
            raise error
        return draw(K, r, F, rng)

    monkeypatch.setattr(experiment, "draw_placement", draw_ahead)
    with pytest.raises(MemoryError) as raised:
        run_experiment(pipeline_config("add", 4))
    assert raised.value is error
    assert set(threading.enumerate()) == threads
    assert escaped == []


def test_a_failed_codes_draw_ahead_reaches_the_caller(monkeypatch):
    threads = set(threading.enumerate())
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    error = MemoryError("no room for trial 2's codes")
    draw = experiment.draw_addition_codes

    def draw_ahead(K, F, rng):
        if rng.trial == 2:
            raise error
        return draw(K, F, rng)

    monkeypatch.setattr(experiment, "draw_addition_codes", draw_ahead)
    with pytest.raises(MemoryError) as raised:
        run_experiment(pipeline_config("add", 4))
    assert raised.value is error
    assert set(threading.enumerate()) == threads
    assert escaped == []


@pytest.mark.parametrize(
    "overrides",
    [
        dict(replication=1),
        dict(replication=6),
        dict(removed_node=None),
        dict(removed_node=9),
        dict(trials=0),
        dict(num_bits=0),
        dict(master_seed=-1),
        dict(event="join"),
        dict(output_format="xml"),
    ],
)
def test_config_validation_rejects(overrides):
    with pytest.raises(ConfigError):
        remove_config(**overrides).validate()


@pytest.mark.parametrize(
    "K,r,event,support,keys",
    [
        (30, 5, "remove", comb(30, 5), comb(29, 4) * 25 * 4),
        (32, 6, "remove", comb(32, 6), comb(31, 5) * 26 * 5),
        (16, 5, "add", comb(17, 5), comb(16, 5) * 5),
        (24, 10, "add", comb(25, 10), comb(24, 10) * 10),
        (60, 30, "add", comb(61, 30), comb(60, 30) * 30),
    ],
)
def test_config_validation_bounds_support_sets_and_box_keys(K, r, event, support, keys):
    config = ExperimentConfig(num_nodes=K, replication=r, event=event,
                              removed_node=K if event == "remove" else None)
    if max(support, keys) <= MAX_ENUMERATED:
        config.validate()
    else:
        with pytest.raises(ConfigError, match=f"{support} support sets and {keys} box keys"):
            config.validate()


def test_cli_rejects_a_configuration_too_large_to_enumerate(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a too-large configuration reached a database build")

    monkeypatch.setattr(cli, "build_database", refuse)
    monkeypatch.setattr(experiment, "draw_placement", refuse)
    monkeypatch.setattr(experiment, "draw_file", refuse)
    monkeypatch.setattr(experiment, "full_support", refuse)
    for event in ("remove:1", "add"):  # C(60, 30) ~ 1.2e17 support sets
        argv = ["--nodes", "60", "--replication", "30", "--event", event]
        assert main(argv) == 2
        assert main([*argv, "--walkthrough"]) == 2
        assert "support sets" in capsys.readouterr().err


def test_walkthrough_removal_schedule():
    text = format_walkthrough(remove_config(num_bits=120, trials=1))
    lines = text.splitlines()
    schedule = [ln for ln in lines if ln.startswith("tx ")]
    assert len(schedule) == 30
    (line,) = [ln for ln in schedule if "sender=5 group={2,3}" in ln]
    assert "->1" in line and "->4" in line


def test_walkthrough_addition_schedule():
    config = ExperimentConfig(
        num_nodes=4, replication=2, event="add", num_bits=60, trials=1, master_seed=3
    )
    text = format_walkthrough(config)
    schedule = [ln for ln in text.splitlines() if ln.startswith("tx ") and "sender=1" in ln]
    assert sorted(ln.split("class=")[1].split(" ")[0] for ln in schedule) == [
        "{2,3}", "{2,4}", "{3,4}",
    ]
    assert all("-> node 5" in ln for ln in schedule)


def test_cli_writes_json_file(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main([
        "--nodes", "6", "--replication", "3", "--event", "remove:6",
        "--bits", "5000", "--trials", "2", "--seed", "4", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["removed_node"] == 6
    assert len(doc["trials"]) == 2


def test_cli_stdout_and_csv(capsys):
    code = main([
        "--nodes", "4", "--replication", "2", "--event", "add",
        "--bits", "2000", "--trials", "2", "--format", "csv",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("trial,seed,")
    assert len(out.strip().splitlines()) == 3


def test_cli_rejects_bad_event(capsys):
    code = main(["--nodes", "6", "--replication", "3", "--event", "drop:6"])
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_cli_rejects_bad_replication(capsys):
    code = main(["--nodes", "6", "--replication", "6", "--event", "remove:6"])
    assert code == 2


def test_cli_walkthrough_roundtrip(capsys):
    code = main([
        "--nodes", "6", "--replication", "3", "--event", "remove:6",
        "--bits", "120", "--seed", "7", "--walkthrough",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("\ntx ") == 30 and out.startswith("walkthrough:")
