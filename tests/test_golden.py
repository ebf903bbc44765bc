"""Golden outputs: the serialized experiment must not change byte for byte.

Each configuration's JSON and CSV documents are stored under
``tests/golden/``. A change that alters them on purpose re-records them with

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


@lru_cache(maxsize=None)
def document(name: str, fmt: str) -> str:
    return emit_results(run_experiment(CONFIGS[name]), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_emitted_bytes_match_golden(name, fmt):
    expected = (GOLDEN / f"{name}.{fmt}").read_bytes()
    assert document(name, fmt).encode("utf-8") == expected


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
