"""Run the benchmark over several seeds and summarise each metric.

Each run is a separate ``run.py`` process, as the benchmark is meant to
be run.  For every workload and metric the summary holds the values,
their median, quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median.

    python3 perfbench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        --seconds 40 --out sweep.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
from perfbench.run import WORKLOAD_NAMES  # noqa: E402


def summarise(values: list[float]) -> dict:
    """Median, quartiles and spread of one metric's values."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    """Run every (workload, seed) pair and write the summary."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=WORKLOAD_NAMES,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode or not lines:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "log": lines[:-1], **result})
            print(workload, seed, {k: round(v["value"], 4) for k, v
                                   in result["metrics"].items()},
                  flush=True)
        names = runs[0]["metrics"]
        summary[workload] = {
            "runs": runs,
            "metrics": {
                name: summarise([r["metrics"][name]["value"]
                                 for r in runs])
                for name in names
            } if len(runs) > 1 else {},
        }
        for name, stats in summary[workload]["metrics"].items():
            print(f"  {name}: median {stats['median']:.6g} "
                  f"spread {stats['spread']:.4f}")
    args.out.write_text(json.dumps(summary, indent=1) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
