"""Load reports, packet-size laws, uniformity checks, and the max bound."""

import math
from itertools import product

import numpy as np
import pytest

from coded_rebalance import (
    DistributionCheck,
    InvalidParameters,
    MismatchedParameters,
    PlacementMap,
    ReplicationOutOfRange,
    RngSpec,
    SupportViolation,
    addition_load,
    apply_addition_rebalance,
    apply_removal_rebalance,
    bin_addition,
    bin_removal,
    binomial_max_bound,
    build_database,
    full_support,
    packet_size_law,
    removal_load,
    uniformity_check,
)
from coded_rebalance import codeword, database
from coded_rebalance.database import NodeSets


# ---------------------------------------------------------------- max bound

def test_max_bound_closed_form():
    assert math.isclose(binomial_max_bound(10**4, 0.5, 2), 5058.9, abs_tol=0.05)


def test_max_bound_single_variable_is_exact_mean():
    assert binomial_max_bound(1000, 0.3, 1) == 1000 * 0.3


@pytest.mark.parametrize("n,p,r_vars", [(10**4, 0.5, 2), (10**4, 0.3, 3), (10**5, 0.01, 5)])
def test_max_bound_dominates_monte_carlo(n, p, r_vars):
    gen = np.random.default_rng(12345)
    draws = gen.binomial(n, p, size=(10**4, r_vars))
    assert draws.max(axis=1).mean() <= binomial_max_bound(n, p, r_vars)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
def test_max_bound_rejects_bad_probability(p):
    with pytest.raises(InvalidParameters):
        binomial_max_bound(100, p, 2)


# ----------------------------------------------------------- packet size law

def test_packet_probability_removal():
    law = packet_size_law(6, 3, 10**6, "removal")
    assert math.isclose(law.probability, 1 / 120)
    assert math.isclose(law.mean, 10**6 / 120)
    assert law.num_packets == 60


def test_packet_probability_addition():
    law = packet_size_law(4, 2, 10**6, "addition")
    assert math.isclose(law.probability, 1 / 30)
    assert law.num_packets == 12


def test_packet_size_law_rejects_bad_event_and_replication():
    with pytest.raises(InvalidParameters):
        packet_size_law(6, 3, 100, "join")
    with pytest.raises(ReplicationOutOfRange):
        packet_size_law(6, 1, 100, "removal")
    with pytest.raises(ReplicationOutOfRange):
        packet_size_law(6, 6, 100, "removal")


def test_empirical_packet_sizes_match_law():
    K, r, F = 6, 3, 200000
    law = packet_size_law(K, r, F, "removal")
    db = build_database(K, r, F, RngSpec(7))
    _, codewords = apply_removal_rebalance(db, 6, RngSpec(7))
    sizes = [length for cw in codewords for _, length in cw.constituents]
    assert len(sizes) == law.num_packets
    standard_error = law.std / math.sqrt(len(sizes))
    assert abs(np.mean(sizes) - law.mean) <= 3 * standard_error


# ---------------------------------------------------------------- binning law

def expected_max_binomial(n, p, m):
    """E[max of m iid Binomial(n, p)] = sum over k >= 0 of 1 - P(X <= k)^m.

    The pmf comes from the ratio P(k+1)/P(k) = (n-k)/(k+1) * p/(1-p),
    summed in logs from P(0) = (1-p)^n, which underflows as a float.
    """
    k = np.arange(n)
    log_ratios = np.log((n - k) / (k + 1) * (p / (1 - p)))
    log_pmf = n * math.log1p(-p) + np.concatenate(([0.0], np.cumsum(log_ratios)))
    cdf = np.cumsum(np.exp(log_pmf))[:-1]  # P(X <= n) is 1
    return float(np.sum(1 - np.minimum(cdf, 1) ** m))


@pytest.mark.parametrize("n,p,m", [(1, 0.5, 2), (5, 0.3, 3), (7, 0.9, 2), (6, 0.2, 1)])
def test_expected_max_binomial_equals_a_brute_force_sum(n, p, m):
    pmf = [math.comb(n, x) * p**x * (1 - p) ** (n - x) for x in range(n + 1)]
    brute = sum(math.prod(pmf[x] for x in xs) * max(xs) for xs in product(range(n + 1), repeat=m))
    assert math.isclose(expected_max_binomial(n, p, m), brute, rel_tol=1e-9)
    assert expected_max_binomial(n, p, m) <= binomial_max_bound(n, p, m) + 1e-9


def mean_and_standard_error(samples):
    return np.mean(samples), np.std(samples, ddof=1) / math.sqrt(len(samples))


def test_mean_removal_padding_equals_the_exact_expectation():
    # Each codeword pads its r - 1 packets, Binomial(F, q) each, to the
    # longest: E[padding] = E[max] - Fq per codeword (the packets are
    # treated as independent; their correlation, -q/(1-q), is under 1%).
    # A binning draw that is biased or correlated between boxes keeps
    # replication exact but moves this mean.
    K, r, F, trials = 6, 3, 10**5, 400
    law = packet_size_law(K, r, F, "removal")
    codewords = law.num_packets // (r - 1)
    exact = codewords * (expected_max_binomial(F, law.probability, r - 1) - law.mean)
    padding = []
    for trial in range(trials):
        spec = RngSpec(7, trial)
        directory = bin_removal(build_database(K, r, F, spec), K, spec)
        sizes = np.diff(directory.offsets)[directory.rows]
        padding.append(sizes.max(axis=1).sum() - sizes.sum() / (r - 1))
    mean, standard_error = mean_and_standard_error(padding)
    assert abs(mean - exact) <= 5 * standard_error


def test_mean_moved_bits_of_an_addition_equals_f_r_over_k_plus_1():
    K, r, F, trials = 6, 3, 10**5, 400
    db = build_database(K, r, F, RngSpec(7))
    moved = [len(bin_addition(db, RngSpec(7, trial)).box_bits) for trial in range(trials)]
    mean, standard_error = mean_and_standard_error(moved)
    assert abs(mean - F * r / (K + 1)) <= 5 * standard_error


# ---------------------------------------------------------------- load report

def test_removal_report_fields():
    K, r, F = 6, 3, 10**5
    db = build_database(K, r, F, RngSpec(3))
    _, codewords = apply_removal_rebalance(db, 6, RngSpec(3))
    report = removal_load(codewords, K, r, F, removed_node=6)
    assert report.event == "removal"
    assert report.removed_node == 6
    assert report.num_codewords == 30
    assert report.normalizer == r * F / K
    assert math.isclose(report.measured_load, report.total_transmitted_bits / (r * F / K))
    assert report.theoretical_asymptote == 0.5
    assert report.metadata_bits == report.realized_storage_bits * 3  # 6 boxes -> 3 bits


def test_removal_bound_value_k6_r3():
    K, r, F = 6, 3, 10**6
    db = build_database(K, r, F, RngSpec(4))
    _, codewords = apply_removal_rebalance(db, 6, RngSpec(4))
    report = removal_load(codewords, K, r, F)
    # hand-computed: 30 * (F/120 + sqrt(2*(F/120)*(119/120)*ln 2)) / (F/2)
    assert math.isclose(report.finite_size_upper_bound, 0.506422, abs_tol=1e-4)
    assert report.measured_load <= report.finite_size_upper_bound


def test_removal_asymptote_r2():
    K, r, F = 6, 2, 10**4
    db = build_database(K, r, F, RngSpec(5))
    _, codewords = apply_removal_rebalance(db, 6, RngSpec(5))
    report = removal_load(codewords, K, r, F)
    assert report.theoretical_asymptote == 1.0
    # with single-packet codewords nothing is padded
    assert report.total_transmitted_bits == report.realized_storage_bits
    assert report.realized_load == 1.0


def test_removal_load_rejects_wrong_codeword_count():
    K, r, F = 6, 3, 1000
    db = build_database(K, r, F, RngSpec(6))
    _, codewords = apply_removal_rebalance(db, 6, RngSpec(6))
    with pytest.raises(MismatchedParameters):
        removal_load(codewords[:-1], K, r, F)
    with pytest.raises(MismatchedParameters):
        removal_load([], K, r, F)


def test_addition_report_fields():
    K, r, F = 4, 2, 10**5
    db = build_database(K, r, F, RngSpec(8))
    _, codewords = apply_addition_rebalance(db, RngSpec(8))
    report = addition_load(codewords, K, r, F)
    assert report.event == "addition"
    assert report.num_codewords == 12
    assert report.normalizer == r * F / (K + 1)
    assert report.theoretical_asymptote == 1.0
    assert report.finite_size_upper_bound is None
    assert report.realized_storage_bits == report.total_transmitted_bits
    assert report.metadata_bits == F * 3  # 5 boxes -> 3 bits per assignment


def test_addition_load_rejects_wrong_codeword_count():
    K, r, F = 4, 2, 1000
    db = build_database(K, r, F, RngSpec(9))
    _, codewords = apply_addition_rebalance(db, RngSpec(9))
    with pytest.raises(MismatchedParameters):
        addition_load(codewords[:5], K, r, F)


def test_load_reports_reject_parameters_the_schedule_contradicts():
    _, removal = apply_removal_rebalance(build_database(6, 3, 1000, RngSpec(6)), 6, RngSpec(6))
    _, addition = apply_addition_rebalance(build_database(4, 2, 1000, RngSpec(9)), RngSpec(9))
    contradicted = [
        lambda: removal_load(removal, 6, 3, 500),
        lambda: removal_load(removal, 7, 2, 1000),  # also 30 codewords
        lambda: removal_load(removal, 6, 3, 1000, removed_node=2),
        lambda: removal_load(addition, 5, 2, 1000),  # also 12 codewords
        lambda: addition_load(addition, 4, 2, 10),
        lambda: addition_load(removal, 30, 1, 1000),  # also 30 codewords
    ]
    for report in contradicted:
        with pytest.raises(MismatchedParameters):
            report()
    assert removal_load(removal, 6, 3, 1000, removed_node=6).removed_node == 6
    assert addition_load(addition, 4, 2, 1000).num_codewords == 12


def test_removal_report_names_the_removed_node_when_none_is_passed():
    _, schedule = apply_removal_rebalance(build_database(6, 3, 1000, RngSpec(6)), 4, RngSpec(6))
    assert removal_load(schedule, 6, 3, 1000).removed_node == 4


def test_addition_single_bit_load_dichotomy():
    # one bit either stays (load 0) or moves (load (K+1)/r)
    K, r = 4, 2
    outcomes = set()
    for seed in range(12):
        db = build_database(K, r, 1, RngSpec(seed))
        _, codewords = apply_addition_rebalance(db, RngSpec(seed))
        outcomes.add(addition_load(codewords, K, r, 1).measured_load)
    assert outcomes <= {0.0, (K + 1) / r}
    assert len(outcomes) == 2  # both branches seen across the seeds


# ---------------------------------------------------------- uniformity check

def test_uniformity_perfectly_uniform_counts():
    support = full_support((1, 2, 3, 4), 2)
    index = np.arange(60, dtype=np.int32) % len(support)
    placement = PlacementMap((1, 2, 3, 4), 2, index)
    check = uniformity_check(placement, support)
    assert check.max_relative_error == 0.0
    assert check.chi_square_statistic == 0.0
    assert check.degrees_of_freedom == len(support) - 1
    assert check.total_observations == 60


def test_uniformity_rejects_out_of_support_sets():
    support = full_support((1, 2, 3, 4), 2)
    index = np.zeros(10, dtype=np.int32)
    placement = PlacementMap((1, 2, 3, 4), 2, index)
    with pytest.raises(SupportViolation):
        uniformity_check(placement, support[1:])


def test_uniformity_normalizes_unsorted_sets_and_numpy_ints():
    support = full_support(np.array([4, 3, 2, 1]), 2)
    placement = PlacementMap((1, 2, 3, 4), 2, np.arange(12, dtype=np.int32) % 6)
    check = uniformity_check(placement, [(b, np.int64(a)) for a, b in support])
    assert check.support == support
    assert all(type(n) is int for s in check.support for n in s)
    assert uniformity_check(placement, support).support is support


@pytest.mark.parametrize("event", ["remove", "add"])
def test_a_rebalance_and_its_uniformity_check_build_the_new_support_once(monkeypatch, event):
    db = build_database(6, 3, 3000, RngSpec(8))
    new_nodes = (1, 2, 3, 4, 5) if event == "remove" else (1, 2, 3, 4, 5, 6, 7)
    expected = full_support(new_nodes, 3)
    built = []

    def counted(nodes, replication):
        nodes = tuple(nodes)
        built.append(nodes)
        return full_support(nodes, replication)

    monkeypatch.setattr(database, "full_support", counted)
    monkeypatch.setattr(codeword, "full_support", counted)
    if event == "remove":
        new_db, _ = apply_removal_rebalance(db, 6, RngSpec(8))
    else:
        new_db, _ = apply_addition_rebalance(db, RngSpec(8))
    check = uniformity_check(new_db.placement, expected)
    assert new_db.nodes == new_nodes and check.total_observations == 3000
    assert built.count(new_nodes) == 1


def test_distribution_check_normalizes_a_plain_tuple_into_node_sets():
    check = DistributionCheck.from_counts(((2, 1), (np.int64(3), 1)), (1, 1))
    assert type(check.support) is NodeSets
    assert check.support == ((1, 2), (1, 3))
    assert all(type(n) is int for s in check.support for n in s)


def test_distribution_check_statistics():
    check = DistributionCheck.from_counts(((1,), (2,)), (60, 40))
    assert check.expected_probability == 0.5
    assert math.isclose(check.max_relative_error, 0.2)
    assert math.isclose(check.chi_square_statistic, (10**2) / 50 * 2)


def test_chi_square_adds_its_terms_left_to_right():
    # sum() from Python 3.12 on compensates and gives ...273 here
    check = DistributionCheck.from_counts([(n,) for n in range(1, 10)],
                                          [27, 38, 48, 49, 0, 44, 28, 17, 46])
    assert check.chi_square_statistic == 66.72727272727272
