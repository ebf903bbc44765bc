"""Remove a node and rebalance with XOR broadcasts, step by step.

Follows one small run end to end: the box choices for one class, the
coded schedule, a decode at both recipients of one codeword, and the
final placement with replication restored. Ends with a full-size run
showing the placement law and the measured load.
"""

import numpy as np

from coded_rebalance import (
    RngSpec,
    apply_removal_rebalance,
    bin_removal,
    build_database,
    decode_removal,
    encode_removal,
    node_contents,
    removal_load,
)

K, R, REMOVED = 6, 3, 6
SEED = 11

print("=" * 72)
print(f"SMALL RUN: {K} nodes, replication {R}, remove node {REMOVED}, 600 bits")
print("=" * 72)
spec = RngSpec(SEED)
db = build_database(K, R, 600, spec)
print(f"node {REMOVED} stores {node_contents(db, REMOVED).size} bits; "
      f"each loses one of its {R} copies when the node goes away")

print()
print("STEP 1: binning -- every affected bit picks one box of its class")
directory = bin_removal(db, REMOVED, spec)
cls = (1, 2, 3)
# every box's label, built on request from its table entry and group
labels = directory.labels_of(directory.table, map(directory.group_of, directory.table))
boxes = [lab for lab in labels if tuple(sorted((lab.target, *lab.remainder))) == cls]
print(f"class absent from {cls} has {len(boxes)} boxes:")
for label in boxes:
    bits = directory.packet_bits(label)
    print(f"  to node {label.target}, broadcast by {label.holder} "
          f"(context {label.remainder}): {bits.size} bits")

print()
print("STEP 2: encoding -- XOR the holder's packets, zero-padded")
codewords = encode_removal(db, directory)
print(f"schedule: {len(codewords)} codewords "
      f"({R} senders per context set, C(5,2)=10 context sets)")
cw = next(c for c in codewords if c.sender == 5 and c.group == (2, 3))
parts = ", ".join(f"packet to {lab.target} ({n} bits)" for lab, n in cw.constituents)
print(f"example: sender 5, context {{2,3}}: {parts} -> payload {cw.payload_bits} bits")

print()
print("STEP 3: decoding -- each target cancels what it already stores")
for node in (1, 4):
    bits, values = decode_removal(node, cw, db, directory)
    exact = np.array_equal(values, db.file.values[bits])
    print(f"node {node} recovers its {bits.size}-bit packet, bit-exact: {exact}")

print()
print("STEP 4: commit -- every affected bit gains its box target")
new_db, _ = apply_removal_rebalance(db, REMOVED, spec)
sample = int(directory.box_bits.min())
print(f"bit {sample}: stored at {db.placement.node_set(sample)} before, "
      f"{new_db.placement.node_set(sample)} after")
sizes = {len(s) for s in new_db.placement.support}
print(f"replication after rebalancing: {sizes} on nodes {new_db.nodes}")

print()
print("=" * 72)
print("FULL-SIZE RUN: one million bits")
print("=" * 72)
big_spec = RngSpec(SEED + 1)
big = build_database(K, R, 10**6, big_spec)
new_big, schedule = apply_removal_rebalance(big, REMOVED, big_spec)
report = removal_load(schedule, K, R, 10**6, removed_node=REMOVED)
print(f"transmitted {report.total_transmitted_bits} bits in {report.num_codewords} codewords")
print(f"load (vs expected storage of the removed node): {report.measured_load:.4f}")
print(f"asymptote 1/(r-1) = {report.theoretical_asymptote}, finite-size bound "
      f"{report.finite_size_upper_bound:.4f}")
freqs = new_big.placement.set_counts() / 10**6
print(f"placement law: {freqs.size} surviving 3-subsets, frequencies "
      f"{freqs.min():.4f}..{freqs.max():.4f} (target 0.1000 each)")
