"""Run workloads over several seeds and print each metric's median and spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--workloads pipeline-a,deep-b] [--seeds 1-10] [--trace 0|1]

For every workload it runs the benchmark command from BENCHMARK.json once per
seed, then prints, per metric, the median over seeds, its unit, and the
inter-quartile distance as a share of the median next to the metric's bound
(the spread the benchmark must stay within).  With --trace 1 it prints the
per-layer metrics instead.  Runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        print(f"{workload}: {len(runs)} runs")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            line = f"  {name:30s} median={median:<11.5g} {first['unit']:6s}"
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                line += f" spread={spread:.4f}"
                if name in bounds:
                    line += f" bound={bounds[name]}"
            print(line + "  [" + " ".join(f"{v:.4g}" for v in values) + "]", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
