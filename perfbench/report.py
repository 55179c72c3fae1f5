"""Print every end-to-end and per-layer metric of every workload.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Runs ``run.py`` once untraced and once traced per workload (from the root
of a checkout) and prints each metric with its unit, followed by the op
count, the tail percentile used and the tracing overhead of each run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", nargs="*", choices=names, default=names)
    args = parser.parse_args()
    status = 0
    for name in args.workload:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(lines[0])
            print(f"  correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:<52} {m['value']:>14.6g} {m['unit']}")
            status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
