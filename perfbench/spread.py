"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 --seconds S

Runs run.py once per seed and prints, per metric, the median of the runs,
the quartiles (statistics.quantiles with n=4) and the interquartile range as
a share of the median.  The last line is the same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="FIRST-LAST")
    parser.add_argument("--seconds", required=True)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    attempted = failed = 0
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"]
        lines = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs not correct", file=sys.stderr)
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"# seed {seed}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {"workload": args.workload, "seeds": len(args.seeds), "attempted": attempted,
               "failed": failed, "metrics": {}}
    for name, runs in values.items():
        q1, median, q3 = statistics.quantiles(runs, n=4)
        median = statistics.median(runs)
        summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": (q3 - q1) / median}
        print(f"{name:14s} median={median:.5g} q1={q1:.5g} q3={q3:.5g} spread={(q3 - q1) / median:.3f}")
    print(f"fail_share = {failed}/{attempted}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
