"""Print every end-to-end metric of every workload, by name and with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs perfbench/run.py once per workload with tracing off, one after another,
and prints one table row per metric plus the run's failed ratio and sample
count.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    status = 0
    for workload in run.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
        )
        if done.returncode != 0:
            print(f"{workload}: run.py exited {done.returncode}")
            status = 1
            continue
        *_, info_line, result_line = done.stdout.splitlines()
        info, result = json.loads(info_line)["info"], json.loads(result_line)
        print(f"{workload}  seed={args.seed}  samples={info['samples']}  "
              f"attempted={result['attempted']}  failed={result['failed']}  "
              f"failed_ratio={info['failed_ratio']:.4f}  correct={result['correct']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
