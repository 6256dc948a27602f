"""injurybench benchmark: the command that runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-a --seed 0 --seconds 25 --trace 0

Runs one workload (see workloads.py and NOTES.md) and prints, as the last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, measured on uninstrumented processes; with ``--trace 1``
they are the per-layer ones from an instrumented process, plus the tracing
overhead against an uninstrumented process run alongside it.

Every repeat runs in a fresh worker process, one at a time (no parallel
load), so no repeat inherits another's heap.  Outputs are checked against
the digests pinned in pins.json, against the other repeats of the same run,
and, for every part, against the naive replay oracle.  A human-readable
summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, delta_for_seed, parts_for, tiny_parts  # noqa: E402

END_TO_END_UNITS = {
    "run_s": "s",
    "verify_s": "s",
    "crosscheck_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "trace_bytes": "bytes",
    "ok_ratio": "ratio",
}
MIN_REPEATS = 3
SETUP_SAMPLES = 21
DEADLINE_S = 170.0
# which digests each operation produces; a mismatch fails that operation
OP_DIGESTS = {"run": ("trace", "sequence", "trace_bytes"),
              "verify": ("verify_exit", "report", "findings"),
              "crosscheck": ("reads",)}
OPS = ("run_s", "verify_s", "crosscheck_s")
# a short operation repeats in-process until it has run this long, and the
# batch gives one sample
BATCH_S = 0.2


class Budget:
    def __init__(self):
        self.start = monotonic()

    def elapsed(self) -> float:
        return monotonic() - self.start

    def left(self) -> float:
        return DEADLINE_S - self.elapsed()


def _env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # fixed string hashing keeps dict and set layouts identical across repeats
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(script: str, arg: str, root: Path, budget: Budget) -> str:
    """Run a benchmark script in a fresh interpreter; return its last stdout line."""
    timeout = budget.left()
    if timeout <= 0:
        raise TimeoutError("benchmark deadline reached")
    proc = subprocess.run(
        [sys.executable, str(HERE / script), arg],
        cwd=root, env=_env(root), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def _worker(spec: dict, root: Path, budget: Budget) -> dict:
    try:
        return json.loads(_child("worker.py", json.dumps(spec), root, budget))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        ops = len(OPS) * len(spec["parts"])
        return {"attempted": ops, "failed": ops, "errors": [str(exc)], "digests": {}}


class Tally:
    """Attempted/failed operations and the digest consistency checks."""

    def __init__(self, pins: dict | None):
        self.pins = pins
        self.reference: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, res: dict) -> bool:
        """Fold one worker result in; True when all its operations succeeded."""
        self.attempted += res["attempted"]
        failed = res["failed"]
        self.errors += res["errors"]
        digests = res["digests"]
        if self.reference is None and res["failed"] == 0:
            self.reference = digests
        for part, got in digests.items():
            for op, keys in OP_DIGESTS.items():
                for ref_name, ref in (("pinned", self.pins), ("first repeat", self.reference)):
                    want = (ref or {}).get(part, {})
                    bad = [k for k in keys if k in want and k in got and want[k] != got[k]]
                    if bad:
                        failed += 1
                        self.errors.append(f"{part} {op}: {', '.join(bad)} not equal to the {ref_name} value")
                        break
        # an operation can both raise and mismatch; count it once
        self.failed += min(failed, res["attempted"])
        return failed == 0


def _describe(samples: list[list[float]]) -> str:
    """Summary of [seconds, reference seconds] samples."""
    if not samples:
        return "n=0"
    wall = sorted(s[0] for s in samples)
    ref = sorted(s[1] for s in samples)
    return (f"n={len(samples)} wall median={statistics.median(wall):.4g} [{wall[0]:.4g}, {wall[-1]:.4g}]"
            f" ref median={statistics.median(ref):.4g} [{ref[0]:.4g}, {ref[-1]:.4g}]")


def _ref_seconds(samples: list[list[float]]) -> float:
    """Median time in reference seconds (see speedprobe.py)."""
    return statistics.median([s[1] for s in samples])


def measure_end_to_end(workload, parts, root, seconds, budget, tally) -> dict:
    config = parts[0]["config"]
    setup = []
    warm = True
    for _ in range(SETUP_SAMPLES + 1):
        tally.attempted += 1
        try:
            sample = json.loads(_child("setup_probe.py", json.dumps(config), root, budget))
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
            tally.failed += 1
            tally.errors.append(f"setup: {exc}")
            continue
        if warm:  # the first import may still be compiling bytecode
            warm = False
        else:
            setup.append(sample)

    spec = {"parts": parts, "trace": False, "probe": True, "batch_s": BATCH_S,
            "out_dir": str(root / ".perfbench_out" / workload)}
    op_samples = {(p["name"], op): [] for p in parts for op in OPS}
    rss: list[float] = []
    first = None
    longest = 0.0
    loop_start = budget.elapsed()
    repeats = 0
    while repeats < MIN_REPEATS or budget.elapsed() - loop_start + longest <= seconds:
        if budget.left() < 2 * longest:
            break
        t0 = budget.elapsed()
        res = _worker(spec, root, budget)
        longest = max(longest, budget.elapsed() - t0)
        repeats += 1
        tally.add(res)
        if "samples" in res:  # the worker ran; timings count even if an output was wrong
            first = first or res
            rss.append(res["peak_rss_mib"])
            for (part, op), vals in op_samples.items():
                vals.extend(res["samples"][part].get(op, []))
    for (part, op), vals in op_samples.items():
        print(f"  {part} {op}: {_describe(vals)}", file=sys.stderr)
    print(f"  setup_s: {_describe(setup)}", file=sys.stderr)
    if not setup or not all(op_samples.values()):
        return {}
    # a workload's time for an operation is the sum over its parts of the
    # median time of that part's operation
    values = {op: sum(_ref_seconds(op_samples[p["name"], op]) for p in parts) for op in OPS}
    values["setup_s"] = _ref_seconds(setup)
    values["peak_rss_mib"] = statistics.median(rss)
    values["trace_bytes"] = sum(d.get("trace_bytes", 0) for d in first["digests"].values())
    values["ok_ratio"] = (tally.attempted - tally.failed) / tally.attempted
    return values


def _busy(res: dict) -> float:
    """Total timed wall-clock seconds of one worker result."""
    return sum(s[0] for ops in res["samples"].values() for samples in ops.values() for s in samples)


def measure_per_layer(workload, parts, root, seconds, budget, tally) -> dict:
    out_dir = str(root / ".perfbench_out" / workload)
    rows: list[dict] = []
    loop_start = budget.elapsed()
    longest = 0.0
    pairs = 0
    while not pairs or budget.elapsed() - loop_start + longest <= seconds:
        if budget.left() < 2 * longest:
            break
        pairs += 1
        t0 = budget.elapsed()
        plain = _worker({"parts": parts, "trace": False, "probe": False, "batch_s": 0,
                         "out_dir": out_dir},
                        root, budget)
        traced = _worker({"parts": parts, "trace": True, "probe": False, "batch_s": 0,
                          "out_dir": out_dir},
                         root, budget)
        longest = max(longest, budget.elapsed() - t0)
        ok = tally.add(plain)
        # the instrumented run must produce exactly the same digests
        ok = tally.add(traced) and ok
        if not ok:
            continue
        row = dict(traced["layers"])
        row["tracing.overhead_ratio"] = _busy(traced) / _busy(plain)
        row["verify.findings"] = sum(d["findings"] for d in traced["digests"].values())
        rows.append(row)
    if not rows:
        return {}
    print(f"  traced pairs: {len(rows)}", file=sys.stderr)
    return {key: statistics.median([r[key] for r in rows]) for key in rows[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test horizons; no pinned digests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "injurybench" / "__init__.py").is_file():
        print("error: run from the root of an injurybench checkout "
              "(src/injurybench not found)", file=sys.stderr)
        return 2
    budget = Budget()
    delta = delta_for_seed(args.seed)
    if args.tiny:
        parts, pins = tiny_parts(args.workload), None
    else:
        parts = parts_for(args.workload, delta)
        pinned = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
        pins = pinned.get(args.workload, {}).get(str(delta))
        if pins is None:
            print(f"error: no pinned digests for {args.workload} delta {delta}", file=sys.stderr)
            return 2
    print(f"{args.workload} seed={args.seed} delta={delta} "
          f"horizons={[(p['name'], p['run_T'], p['cross_T']) for p in parts]}", file=sys.stderr)

    tally = Tally(pins)
    measure = measure_per_layer if args.trace else measure_end_to_end
    try:
        values = measure(args.workload, parts, root, args.seconds, budget, tally)
    finally:
        shutil.rmtree(root / ".perfbench_out", ignore_errors=True)
    for err in tally.errors[:10]:
        print(f"  FAILED {err}", file=sys.stderr)
    if not values:
        print("error: no repeat completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
