"""rebalance-sim keeps freed memory mapped across a run's trials (glibc's
``mallopt`` thresholds and arena count, set once per process), and runs
unchanged where it cannot set them."""

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from coded_rebalance import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# the add-r2 configuration of tests/test_golden.py
ADD_R2 = ["--nodes", "4", "--replication", "2", "--bits", "5000", "--event", "add",
          "--trials", "3", "--seed", "17"]


@pytest.fixture
def fresh_process_state():
    """Forget that this process already set the thresholds, before and after."""
    cli._keep_heap.cache_clear()
    yield
    cli._keep_heap.cache_clear()


def assert_golden_output(capsys):
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "add-r2.json").read_bytes()


def test_cli_output_is_unchanged_where_libc_cannot_be_loaded(monkeypatch, capsys,
                                                             fresh_process_state):
    def no_libc(name):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert cli.main(ADD_R2) == 0
    assert_golden_output(capsys)
    assert cli._keep_heap() is False


@pytest.mark.parametrize("refused", [None, 0, 2], ids=["accepted", "refused", "arena-refused"])
def test_a_second_run_does_not_set_the_thresholds_again(monkeypatch, capsys,
                                                        fresh_process_state, refused):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return int(len(calls) - 1 != refused)

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    for _ in range(2):
        assert cli.main(ADD_R2) == 0
        assert_golden_output(capsys)
    assert cli._keep_heap() is (refused is None)
    # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD, then M_ARENA_MAX; none after a refusal
    assert calls == [(-3, 1 << 30), (-1, 1 << 30), (-8, 1)][: 3 if refused is None else refused + 1]


# Runs the CLI twice in one process and prints the minor page faults per
# trial of the second run. glibc's default thresholds give about 224 per
# trial at K=4, r=2, F=2*10^5; with the thresholds raised, under 1.
FAULTS_PER_TRIAL = """
import io, resource, sys
from contextlib import redirect_stdout
from coded_rebalance import cli
argv = sys.argv[1:]
for _ in range(2):
    with redirect_stdout(io.StringIO()):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        code = cli.main(argv)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert code == 0
print((after - before) / int(argv[argv.index("--trials") + 1]))
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the thresholds are glibc's")
def test_a_run_after_the_first_faults_in_almost_no_pages():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["--nodes", "4", "--replication", "2", "--bits", str(2 * 10**5), "--event", "add",
            "--trials", "20"]
    proc = subprocess.run([sys.executable, "-c", FAULTS_PER_TRIAL, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 50
