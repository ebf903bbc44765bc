"""Record the sha256 of rebalance-sim's JSON document per workload and seed.

    python3 bench/record_digests.py --seeds 0-63 [--workload NAME ...]

The benchmark's output check compares every emitted document with these
digests, so they pin the simulator's output bytes. Re-record only for a
change whose new output is intended and explained. Recorded entries are
merged into ``digests.json``; other entries are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json

from workloads import WORKLOADS
from worker import DIGESTS, call_main, import_library, load_digests


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-63")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default all")
    args = parser.parse_args(argv)

    _, cli = import_library()
    table = load_digests()
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        for seed in args.seeds:
            code, document = call_main(cli, wl.argv(seed))
            if code != 0:
                raise SystemExit(f"{name} seed {seed}: rebalance-sim exited with code {code}")
            digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
            table.setdefault(name, {})[str(seed)] = digest
            print(f"{name} seed {seed}: {digest}", flush=True)
    ordered = {name: dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
               for name, seeds in sorted(table.items())}
    DIGESTS.write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
