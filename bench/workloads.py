"""Workloads of the rebalance-sim benchmark.

Shared by ``run.py``, the per-workload worker (``worker.py``)
and the digest recorder (``record_digests.py``). Every workload removes the
last node or adds one node, so its inputs are fixed by the table and the
master seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

EVENT_ADD = "add"


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    replication: int
    bits: int
    event: str  # "remove:<node-id>" or "add", as rebalance-sim spells it
    trials: int
    why: str

    @property
    def removed_node(self) -> int | None:
        if self.event == EVENT_ADD:
            return None
        return int(self.event.split(":", 1)[1])

    @property
    def companion_event(self) -> str:
        """The other protocol at the same K, r and F.

        The traced run times its layers too, so every per-layer metric is
        measured on every workload.
        """
        return f"remove:{self.nodes}" if self.event == EVENT_ADD else EVENT_ADD

    def argv(self, seed: int, trials: int | None = None) -> list[str]:
        """rebalance-sim arguments; the document goes to stdout."""
        return [
            "--nodes", str(self.nodes),
            "--replication", str(self.replication),
            "--bits", str(self.bits),
            "--event", self.event,
            "--trials", str(trials or self.trials),
            "--seed", str(seed),
            "--format", "json",
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "remove-wide", 6, 3, 10**7, "remove:6", 3,
            "few support sets at large F: O(F log F) binning dominates and "
            "encode/decode are small",
        ),
        Workload(
            "remove-many-sets", 16, 5, 10**5, "remove:16", 1,
            "3003 survivor support sets, 15015 codewords: encode and "
            "decode-verify dominate, binning is small",
        ),
        Workload(
            "add-steady", 4, 2, 10**6, "add", 40,
            "many short addition trials: fixed per-trial costs, the harness "
            "and serialisation have their largest share",
        ),
        # Tiny configurations for the benchmark's own smoke tests.
        Workload("smoke-remove", 5, 3, 3000, "remove:5", 2, "smoke test of the removal path"),
        Workload("smoke-add", 3, 2, 3000, "add", 3, "smoke test of the addition path"),
    )
}

# The workloads ``run.py --workload all`` runs. BENCHMARK.json declares only
# remove-wide and add-steady: the remove-many-sets trial is interpreter-bound
# and its speed swings up to 1.8x with the load of a shared host, about twice
# as much as the other two, which no window of at most 60 s averages out.
BENCHMARK_WORKLOADS = ("remove-wide", "remove-many-sets", "add-steady")
