"""Add an empty node and rebalance with uncoded handoffs, step by step.

Shows the move/stay split of the bits of one class, the handoff schedule, and
the exact identity between what was shipped and what the newcomer stores.
Ends with a full-size run showing the placement law and the load.
"""

from coded_rebalance import (
    RngSpec,
    addition_load,
    apply_addition_rebalance,
    bin_addition,
    build_database,
    encode_addition,
    exclusive_group,
    node_storage_counts,
)

K, R = 4, 2
SEED = 23

print("=" * 72)
print(f"SMALL RUN: {K} nodes, replication {R}, newcomer joins as node {K + 1}")
print("=" * 72)
spec = RngSpec(SEED)
db = build_database(K, R, 600, spec)
print(f"storage before: {node_storage_counts(db)} (newcomer arrives empty)")

print()
print(f"STEP 1: binning -- every bit draws one of K+1 = {K + 1} codes")
directory = bin_addition(db, spec)
cls = (2, 3)
print(f"{R} codes name a move box, one per holder; the other K-r+1 = {K - R + 1} "
      f"codes mean stay")
print(f"bits of the class absent from {cls}:")
# every move box's label, built on request from its table entry and group
labels = directory.labels_of(directory.table, map(directory.group_of, directory.table))
for label in (lab for lab in labels if lab.bit_class == cls):
    bits = directory.packet_bits(label)
    print(f"  move: shipped and deleted by node {label.node}: {bits.size} bits")
class_bits = exclusive_group(db, cls)
stays = int((directory.codes[class_bits] >= R).sum())
print(f"  stay: never touched: {stays} bits")

print()
print("STEP 2: handoffs -- movers go to the newcomer uncoded")
codewords = encode_addition(db, directory)
print(f"schedule: {len(codewords)} handoffs ({K} senders x 3 classes each)")
for cw in codewords:
    if cw.sender == 1:
        print(f"  node 1 ships its packet of class {cw.group}: {cw.payload_bits} bits")

print()
print("STEP 3: commit -- senders delete what they shipped")
new_db, _ = apply_addition_rebalance(db, spec)
after = node_storage_counts(new_db)
shipped = sum(cw.payload_bits for cw in codewords)
print(f"storage after: {after}")
print(f"newcomer stores {after[directory.new_node]} bits = {shipped} shipped bits: "
      f"{after[directory.new_node] == shipped}")

print()
print("=" * 72)
print("FULL-SIZE RUN: one million bits")
print("=" * 72)
big_spec = RngSpec(SEED + 1)
big = build_database(K, R, 10**6, big_spec)
new_big, schedule = apply_addition_rebalance(big, big_spec)
report = addition_load(schedule, K, R, 10**6)
print(f"transmitted {report.total_transmitted_bits} bits in {report.num_codewords} handoffs")
print(f"load (vs expected storage of the newcomer): {report.measured_load:.4f} "
      f"(asymptote {report.theoretical_asymptote})")
freqs = new_big.placement.set_counts() / 10**6
print(f"placement law: {freqs.size} possible 2-subsets of 5 nodes, frequencies "
      f"{freqs.min():.4f}..{freqs.max():.4f} (target 0.1000 each)")
