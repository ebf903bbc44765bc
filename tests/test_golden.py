"""Golden outputs: the serialized experiment must not change byte for byte.

Each configuration's JSON and CSV documents are stored under
``tests/golden/``, and the ``rebalance-sim --walkthrough`` stdout of a few
runs under ``tests/golden/walkthrough/``. A change that alters them on
purpose re-records them with

    PYTHONPATH=src python tests/test_golden.py

and says why the bytes moved.
"""

from functools import lru_cache
from pathlib import Path

import pytest

from coded_rebalance import (
    ExperimentConfig,
    FileInstance,
    addition,
    codeword,
    emit_results,
    removal,
    run_experiment,
)
from coded_rebalance.cli import format_walkthrough

GOLDEN = Path(__file__).resolve().parent / "golden"

CONFIGS = {
    "remove-r2": ExperimentConfig(5, 2, "remove", num_bits=4000, removed_node=3,
                                  trials=2, master_seed=7),
    "remove-r3": ExperimentConfig(6, 3, "remove", num_bits=6000, removed_node=6,
                                  trials=2, master_seed=11),
    "remove-r4": ExperimentConfig(6, 4, "remove", num_bits=6000, removed_node=1,
                                  trials=2, master_seed=13),
    "add-r2": ExperimentConfig(4, 2, "add", num_bits=5000, trials=3, master_seed=17),
}
FORMATS = ("json", "csv")

# rebalance-sim --bits 2000 --walkthrough with these options, by file name
WALKTHROUGHS = {
    "remove-6-k6-r3": ExperimentConfig(6, 3, "remove", num_bits=2000, removed_node=6),
    "add-k4-r2": ExperimentConfig(4, 2, "add", num_bits=2000),
    "remove-3-k7-r4-seed4": ExperimentConfig(7, 4, "remove", num_bits=2000, removed_node=3,
                                             master_seed=4),
    "remove-1-k6-r2": ExperimentConfig(6, 2, "remove", num_bits=2000, removed_node=1),
    "remove-9-k9-r5": ExperimentConfig(9, 5, "remove", num_bits=2000, removed_node=9),
}


@lru_cache(maxsize=None)
def document(name: str, fmt: str) -> str:
    return emit_results(run_experiment(CONFIGS[name]), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_emitted_bytes_match_golden(name, fmt):
    expected = (GOLDEN / f"{name}.{fmt}").read_bytes()
    assert document(name, fmt).encode("utf-8") == expected


@pytest.mark.parametrize("name", sorted(WALKTHROUGHS))
def test_walkthrough_matches_golden(name):
    expected = (GOLDEN / "walkthrough" / f"{name}.txt").read_bytes()
    assert format_walkthrough(WALKTHROUGHS[name]).encode("utf-8") == expected


@pytest.mark.parametrize("name", ["remove-r3", "add-r2"])
def test_a_trial_builds_no_record_and_no_label(monkeypatch, name):
    # Records and labels are for the edges; a trial reads the schedule's arrays.
    def refuse(*args, **kwargs):
        raise AssertionError("a trial built a Codeword or a box label")

    monkeypatch.setattr(codeword, "Codeword", refuse)
    monkeypatch.setattr(removal, "RemovalBoxLabel", refuse)
    monkeypatch.setattr(addition, "AdditionBoxLabel", refuse)
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert emit_results(run_experiment(CONFIGS[name]), "json").encode("utf-8") == expected


@pytest.mark.parametrize("name", ["remove-r3", "add-r2"])
def test_a_trial_never_unpacks_the_file(monkeypatch, name):
    # A trial reads the packed file through values_at; values is for the edges.
    def refuse(file):
        raise AssertionError("a trial unpacked the file")

    monkeypatch.setattr(FileInstance, "values", property(refuse))
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert emit_results(run_experiment(CONFIGS[name]), "json").encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CONFIGS):
        for fmt in FORMATS:
            (GOLDEN / f"{name}.{fmt}").write_bytes(document(name, fmt).encode("utf-8"))
    (GOLDEN / "walkthrough").mkdir(exist_ok=True)
    for name, config in WALKTHROUGHS.items():
        (GOLDEN / "walkthrough" / f"{name}.txt").write_bytes(
            format_walkthrough(config).encode("utf-8"))
