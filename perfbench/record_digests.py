"""Record every workload's cell-0 input digest for seeds 0..SEEDS-1.

The benchmark compares each run's input digest with this table, so an
edit to a generator cannot silently change the load.  Re-record only
when a change to the load is intended, and say so in the change:

    python3 perfbench/record_digests.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 1024


def main() -> int:
    """Write ``input_digests.json`` next to this file."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import checks, workloads

    table = {
        name: [
            checks.digest(workload.generate(workloads.cell_seed(seed, 0)))
            for seed in range(SEEDS)
        ]
        for name, workload in workloads.WORKLOADS.items()
    }
    checks.DIGESTS_PATH.write_text(json.dumps(table, indent=0) + "\n",
                                   encoding="utf-8")
    print(f"wrote {SEEDS} seeds x {len(table)} workloads to "
          f"{checks.DIGESTS_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
