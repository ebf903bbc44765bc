"""Memory kept and peaked by the F-sized layers, as traced by tracemalloc
(numpy reports its array allocations to it)."""

import tracemalloc

import numpy as np
import pytest

from coded_rebalance import (
    ExperimentConfig,
    RngSpec,
    apply_addition_rebalance,
    apply_removal_rebalance,
    bin_addition,
    bin_removal,
    build_database,
    encode_removal,
    run_experiment,
)
from coded_rebalance.database import CHUNK

F = 10**6
# Room for the fixed-size part of a call: the support's tuples where a call
# reads them, the directory object, per-key tables and the like.
FIXED = 64 * 1024


@pytest.fixture
def traced():
    build_database(6, 3, 1000, RngSpec(0))  # first-call imports and caches
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


FILE_BYTES = -(-F // 8)  # the file, 8 bits to a byte


def test_build_database_keeps_at_most_2_bytes_per_bit(traced):
    # a uint8 set index and the packed file: 1.125 bytes per bit
    db = build_database(6, 3, F, RngSpec(1))
    kept, _ = tracemalloc.get_traced_memory()
    assert db.num_bits == F
    assert kept <= F + FILE_BYTES + FIXED


def test_build_database_peaks_at_most_2_bytes_per_bit(traced):
    # The uint8 set index, plus the larger of two transients: the int32
    # draw of one CHUNK that the set index is drawn through, or the two
    # copies of the file's bytes that gen.bytes holds at once.
    db = build_database(6, 3, F, RngSpec(1))
    _, peak = tracemalloc.get_traced_memory()
    assert db.num_bits == F
    assert peak <= F + max(4 * CHUNK, 2 * FILE_BYTES) + FIXED


def peak_above_start(call):
    """What ``call()`` returns and the traced peak above the call's start."""
    tracemalloc.reset_peak()
    start, _ = tracemalloc.get_traced_memory()
    out = call()
    _, peak = tracemalloc.get_traced_memory()
    return out, peak - start


def test_run_experiment_draws_at_most_one_placement_ahead(traced):
    # While a trial runs, the next trial's uint8 set index is drawn: 1 byte
    # per bit above a one-trial run. Addition trials run on one thread, so a
    # trial's own peak does not vary with how threads interleave.
    def config(trials):
        return ExperimentConfig(num_nodes=6, replication=3, event="add", num_bits=F,
                                trials=trials, master_seed=1)

    run_experiment(ExperimentConfig(num_nodes=6, replication=3, event="add",
                                    num_bits=1000, trials=2))  # first-call caches
    _, one = peak_above_start(lambda: run_experiment(config(1)))
    _, three = peak_above_start(lambda: run_experiment(config(3)))
    assert three <= one + F + FIXED


# The four bounds below are the peaks measured in fresh processes plus
# headroom; a removal's peak varies by about 0.4 bytes per bit with how its
# two threads interleave. Measured: bin_removal 7.25 bytes per affected bit,
# apply_removal_rebalance 4.11-4.42 bytes per bit (seeds 1-10), bin_addition
# 3.09, apply_addition_rebalance 4.60. The encoders and the payload check
# read the packed file a chunk or a group of rows at a time and keep no
# copy of the binned bits' values (one byte per binned bit when they did:
# 4.43-4.77 and 5.00).


def test_bin_removal_peaks_at_most_8_5_bytes_per_affected_bit(traced):
    # the uint32 words that become box_bits, the uint8 codes beside them,
    # and each file chunk's intp temporaries on both threads (about 2.8
    # bytes per affected bit at this F)
    db = build_database(6, 3, F, RngSpec(1))
    directory, peak = peak_above_start(lambda: bin_removal(db, 6, RngSpec(1)))
    assert peak <= 8.5 * len(directory) + FIXED


def test_apply_removal_rebalance_peaks_at_most_4_85_bytes_per_bit(traced):
    db = build_database(6, 3, F, RngSpec(1))
    _, peak = peak_above_start(lambda: apply_removal_rebalance(db, 6, RngSpec(1)))
    assert peak <= 4.85 * F + FIXED


def test_bin_addition_peaks_at_most_3_5_bytes_per_bit(traced):
    # codes drawn as int16 and kept as uint8; the moving bits' uint32 words
    db = build_database(4, 2, F, RngSpec(1))
    _, peak = peak_above_start(lambda: bin_addition(db, RngSpec(1)))
    assert peak <= 3.5 * F + FIXED


def test_apply_addition_rebalance_peaks_at_most_4_85_bytes_per_bit(traced):
    db = build_database(4, 2, F, RngSpec(1))
    _, peak = peak_above_start(lambda: apply_addition_rebalance(db, RngSpec(1)))
    assert peak <= 4.85 * F + FIXED


def array_bytes(directory):
    """Bytes of the buffers behind a directory's ndarray fields."""
    total = 0
    for value in vars(directory).values():
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            total += value.nbytes
    return total


def test_a_binned_directory_keeps_one_narrow_array_per_binned_bit():
    # box_bits is the only per-bit array; offsets is per key, and an
    # addition's codes are one byte per file bit. A second per-bit array,
    # even of uint8 keys, breaks the bound.
    db = build_database(6, 3, 3 * 10**5, RngSpec(4))
    removal = bin_removal(db, 6, RngSpec(4))
    per_key = removal.offsets.nbytes
    assert array_bytes(removal) <= removal.box_bits.itemsize * len(removal) + per_key
    addition = bin_addition(db, RngSpec(4))
    binned = addition.box_bits.itemsize * addition.box_bits.size
    assert array_bytes(addition) <= binned + db.num_bits + addition.offsets.nbytes


def test_encode_removal_peaks_at_most_16_bytes_per_box_key_above_what_it_keeps(traced):
    # K=20, r=5: 232 560 box keys in 58 140 codewords. What is kept is the
    # per-key table, the rows and the payloads; no record or label is built
    # (about 310 bytes per key were kept when they were).
    db = build_database(20, 5, 10**5, RngSpec(1))
    directory = bin_removal(db, 20, RngSpec(1))
    keys = directory.offsets.size - 1
    tracemalloc.reset_peak()
    start, _ = tracemalloc.get_traced_memory()
    schedule = encode_removal(db, directory)
    kept, peak = tracemalloc.get_traced_memory()
    assert len(schedule) == 58_140
    assert peak - kept <= 16 * keys + FIXED
    assert peak - start <= 64 * keys + FIXED
