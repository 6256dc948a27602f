"""Fast self-test of the benchmark harness at tiny horizons.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at tiny horizons (``run.py --tiny``:
no pinned digests, but repeats must agree and every part is still checked
against the replay oracle), untraced and traced, and checks that the result
line carries exactly the metric names and units BENCHMARK.json declares,
that nothing failed, and that ok_ratio is 1.  Takes about a minute.
Exit 0 on success, 1 with a message per problem otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path


def check(workload: str, trace: int, declared: dict[str, str]) -> list[str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-800:]}"]
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}"
                        f" attempted={result['attempted']}\n{proc.stderr.strip()[-800:]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(declared) - set(got))}, "
                        f"extra {sorted(set(got) - set(declared))}, "
                        f"units {[n for n in got if n in declared and got[n] != declared[n]]}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or m["value"] < 0:
            problems.append(f"{where}: {name} = {m['value']!r}")
    if trace == 0 and result["metrics"].get("ok_ratio", {}).get("value") != 1:
        problems.append(f"{where}: ok_ratio is not 1 (fail_ratio is not 0)")
    return problems


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            found = check(w["name"], trace, declared[trace])
            print(f"{w['name']} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
