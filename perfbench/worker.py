"""One repeat of a workload, in a fresh process.

Usage: python3 perfbench/worker.py SPEC_JSON

SPEC_JSON holds ``parts`` (see workloads.py), ``out_dir``, ``trace``
(install the per-layer instrumentation), ``probe`` (sample the machine's
speed, see speedprobe.py) and ``batch_s``.  For every part the worker
times three operations:

- run: ``injurybench run`` in-process (engine, serialisation, trace and
  sequence CSV written to disk);
- verify: ``injurybench verify`` in-process on that trace, report to disk;
- crosscheck: engine with ``record_reads=True``, the naive replay oracle,
  and comparison of x, settlements and the full read logs.

The heap is collected before each operation and the garbage collector stays
enabled inside the timed regions.  Digests of every output are computed
afterwards with the standard library only, so they never go through the
(possibly instrumented) package.  The worker prints one JSON object.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speedprobe import SpeedProbe

PROBE_INTERVAL_S = 0.02


def canonical_trace(data: bytes) -> bytes:
    """The trace file without its informational ``created_at`` header field.

    This is byte for byte the canonical serialisation the run's printed
    digest covers.
    """
    header_line, _, body = data.partition(b"\n")
    header = json.loads(header_line)
    header.pop("created_at", None)
    canon = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return canon + b"\n" + body


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Clock:
    """Wall clock that stops while the speed probe runs."""

    def __init__(self, probe: SpeedProbe | None):
        self.probe = probe

    def now(self) -> float:
        return perf_counter() - (self.probe.spent if self.probe else 0.0)

    def mark(self) -> int:
        return len(self.probe.probes) if self.probe else 0

    def scale(self, since: int) -> float:
        """Reference seconds per second since ``mark()`` returned ``since``."""
        return self.probe.scale(since) if self.probe else 1.0


def run_part(part: dict, out_dir: Path, batch_s: float, clock: Clock, res: dict) -> None:
    from injurybench import cli
    from injurybench.engine import new_engine_a, new_engine_b, run_engine
    from injurybench.phi import DEFAULT_CONFIG, registry_from_config
    from injurybench.replay import replay_run

    pdir = out_dir / part["name"]
    pdir.mkdir(parents=True, exist_ok=True)
    config = part["config"]
    cfg_args = []
    if config is not None:
        cfg_path = pdir / "config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        cfg_args = ["--phi-config", str(cfg_path)]
    trace_path = pdir / "trace.jsonl"
    report_path = pdir / "report.json"
    pins: dict = {}
    samples: dict[str, list[list[float]]] = {}
    res["digests"][part["name"]] = pins
    res["samples"][part["name"]] = samples

    def attempt(op: str, fn) -> bool:
        """Time one batch of an operation; False on the first failure.

        The batch repeats the operation until it has run for ``batch_s``
        (once for a long operation, or when ``batch_s`` is 0) and gives one
        sample: [mean seconds, mean reference seconds].
        """
        batch = []
        since = clock.mark()
        while not batch or sum(batch) < batch_s:
            res["attempted"] += 1
            try:
                batch.append(fn())
            except Exception:
                res["failed"] += 1
                res["errors"].append(f"{part['name']} {op}: {traceback.format_exc(limit=3)}")
                return False
        mean = sum(batch) / len(batch)
        samples[op] = [[mean, mean * clock.scale(since)]]
        return True

    def pin(key: str, value) -> None:
        """Record an output digest; every in-process repeat must reproduce it."""
        if pins.setdefault(key, value) != value:
            raise RuntimeError(f"{key} changed between repeats in one process")

    def timed_cli(argv: list[str]) -> tuple[float, int, str]:
        gc.collect()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = clock.now()
            code = cli.main(argv)
            dt = clock.now() - t0
        return dt, code, out.getvalue()

    def do_run():
        dt, code, printed = timed_cli(["run", "--engine", part["engine"],
                                       "--stages", str(part["run_T"]), *cfg_args,
                                       "--out", str(pdir)])
        if code != 0:
            raise RuntimeError(f"run exited {code}")
        canon = canonical_trace(trace_path.read_bytes())
        if printed.strip() != sha256(canon):
            raise RuntimeError("printed digest differs from the written trace")
        pin("trace", sha256(canon))
        pin("sequence", sha256((pdir / "sequence.csv").read_bytes()))
        pin("trace_bytes", len(canon))
        return dt

    def do_verify():
        dt, code, _ = timed_cli(["verify", str(trace_path), "--report", str(report_path)])
        report = report_path.read_bytes()
        pin("verify_exit", code)
        pin("report", sha256(report))
        if code not in (0, 1, 3):
            raise RuntimeError(f"verify exited {code}")
        pin("findings", sum(sum(r["counts"].values()) for r in json.loads(report)))
        return dt

    def do_crosscheck():
        cfg = DEFAULT_CONFIG if config is None else config
        new_engine = new_engine_a if part["engine"] == "A" else new_engine_b
        T = part["cross_T"]
        gc.collect()
        t0 = clock.now()
        state = new_engine(registry_from_config(cfg), record_reads=True)
        trace = run_engine(state, T)
        oracle = replay_run(registry_from_config(cfg), part["engine"], T)
        same_x = oracle.x == trace.x
        same_settled = oracle.settlements == [rec.settled for rec in trace.stages]
        same_reads = oracle.reads == state.read_log
        dt = clock.now() - t0
        pin("reads", sha256(repr(state.read_log).encode("utf-8")))
        if not (same_x and same_settled and same_reads):
            raise RuntimeError(
                f"oracle disagrees: x={same_x} settlements={same_settled} reads={same_reads}"
            )
        return dt

    if attempt("run_s", do_run):
        attempt("verify_s", do_verify)  # needs the trace the run wrote
    attempt("crosscheck_s", do_crosscheck)


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    res = {"attempted": 0, "failed": 0, "errors": [], "digests": {}, "samples": {}}
    out_dir = Path(spec["out_dir"])
    probe = SpeedProbe(PROBE_INTERVAL_S) if spec["probe"] else None
    with probe or contextlib.nullcontext():
        for part in spec["parts"]:
            run_part(part, out_dir, spec["batch_s"], Clock(probe), res)
    res["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        res["layers"] = tracer.metrics()
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
