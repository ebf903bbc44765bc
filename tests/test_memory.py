"""Memory kept and peaked by the F-sized layers, as traced by tracemalloc
(numpy reports its array allocations to it)."""

import tracemalloc

import pytest

from coded_rebalance import RngSpec, bin_removal, build_database

F = 10**6
# Room for the fixed-size part of a call: support tuples, the directory
# object, per-key tables and the like.
FIXED = 64 * 1024


@pytest.fixture
def traced():
    build_database(6, 3, 1000, RngSpec(0))  # first-call imports and caches
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def test_build_database_keeps_at_most_2_bytes_per_bit(traced):
    # a uint8 set index and a uint8 value per bit
    db = build_database(6, 3, F, RngSpec(1))
    kept, _ = tracemalloc.get_traced_memory()
    assert db.num_bits == F
    assert kept <= 2 * F + FIXED


def test_build_database_peaks_at_most_2_bytes_per_bit(traced):
    # the set index is drawn a chunk at a time straight into its uint8 array
    db = build_database(6, 3, F, RngSpec(1))
    _, peak = tracemalloc.get_traced_memory()
    assert db.num_bits == F
    assert peak <= 2 * F + FIXED


def test_bin_removal_peaks_at_most_22_bytes_per_affected_bit(traced):
    db = build_database(6, 3, F, RngSpec(1))
    tracemalloc.reset_peak()
    start, _ = tracemalloc.get_traced_memory()
    directory = bin_removal(db, 6, RngSpec(1))
    _, peak = tracemalloc.get_traced_memory()
    assert peak - start <= 22 * len(directory) + FIXED
