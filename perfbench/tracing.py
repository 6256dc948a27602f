"""Per-layer instrumentation, installed from outside the package.

Only the traced worker imports this module.  ``Tracer.install`` replaces
public functions by wrappers through module and class attributes; a
function imported by name into another module (``from .strings import
lex_less``) is replaced there too, so every call site sees the wrapper.

Timed wrappers record calls, inclusive time and self time (inclusive time
minus the time of timed calls made inside it).  Counted wrappers only count
calls; their time stays in their caller's self time.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) -> metric key; wrapped with timing
TIMED = {
    ("engine", "run_engine"): "engine.run_engine",
    ("engine", "run_stage"): "engine.run_stage",
    ("tracekit", "serialize"): "tracekit.serialize",
    ("tracekit", "deserialize"): "tracekit.deserialize",
    ("tracekit", "write_sequence_csv"): "tracekit.write_sequence_csv",
    ("tracekit", "region_contains"): "tracekit.region_contains",
    ("verify", "check_monotonicity"): "verify.monotonicity",
    ("verify", "check_convergence_bound"): "verify.convergence",
    ("verify", "check_jump_sums"): "verify.jump_sums",
    ("verify", "check_cutoffs"): "verify.cutoffs",
    ("verify", "check_requirement_N"): "verify.requirement_n",
    ("verify", "check_requirement_P"): "verify.requirement_p",
    ("verify", "check_settlement_facts"): "verify.settlement",
    ("verify", "check_expansion_gap_bound"): "verify.expansion_gap",
    ("phi", "PhiRegistry.ell"): "phi.ell",
    ("phi", "PhiRegistry.step"): "phi.step",
    ("strings", "lex_less"): "strings.lex_less",
    ("strings", "true_path_estimate"): "strings.true_path_estimate",
    ("replay", "replay_run"): "replay.replay_run",
}

# wrapped with a call counter only: too hot and too small to time
COUNTED = {
    ("dyadic", "Dyadic.__init__"): "dyadic.init",
    ("dyadic", "Dyadic._cmp"): "dyadic.cmp",
}

LAYERS = ("engine", "tracekit", "verify", "phi", "strings", "replay")
CHECKS = ("monotonicity", "convergence", "jump_sums", "cutoffs",
          "requirement_n", "requirement_p", "settlement", "expansion_gap")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.stage_s: list[float] = []
        self.substages = 0
        self.params_materialised = 0
        self.engine_reads = 0
        self.replay_reads = 0
        self._stack: list[float] = []

    # -- wrappers --------------------------------------------------------

    def _timed(self, key, fn, after=None):
        calls, incl, self_time, stack = self.calls, self.incl, self.self_time, self._stack
        durations = self.stage_s if key == "engine.run_stage" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                calls[key] += 1
                incl[key] += dt
                self_time[key] += dt - child
                if stack:
                    stack[-1] += dt
                if durations is not None:
                    durations.append(dt)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, key, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_run_engine(self, args, trace):
        state = args[0]
        self.substages += sum(len(rec.settled) + 1 for rec in trace.stages)
        self.params_materialised += len(state.params)
        if state.read_log is not None:
            self.engine_reads += len(state.read_log)

    def _after_replay(self, args, result):
        self.replay_reads += len(result.reads)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Patch the imported ``injurybench`` package in place."""
        import injurybench.cli  # noqa: F401  (loads every module the CLI uses)
        import injurybench.replay  # noqa: F401

        modules = [m for name, m in sys.modules.items()
                   if name == "injurybench" or name.startswith("injurybench.")]
        after = {"engine.run_engine": self._after_run_engine,
                 "replay.replay_run": self._after_replay}
        plan = [(spec, key, True) for spec, key in TIMED.items()]
        plan += [(spec, key, False) for spec, key in COUNTED.items()]
        for (mod_name, attr), key, timed in plan:
            owner = sys.modules[f"injurybench.{mod_name}"]
            cls_name, _, name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, name)
            if timed:
                wrapper = self._timed(key, original, after.get(key))
            else:
                wrapper = self._counted(key, original)
            setattr(owner, name, wrapper)
            if cls_name:
                continue
            # rebind every by-name import of the same function object
            for mod in modules:
                for var, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, var, wrapper)

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        incl, calls = self.incl, self.calls
        m = {
            "engine.run_s": incl["engine.run_engine"],
            "engine.stage_p50_ms": 1e3 * _percentile(self.stage_s, 50) if self.stage_s else 0.0,
            "engine.stage_p99_ms": 1e3 * _percentile(self.stage_s, 99) if self.stage_s else 0.0,
            "engine.substages": self.substages,
            "engine.params_materialised": self.params_materialised,
            "engine.reads": self.engine_reads,
            "tracekit.serialize_s": incl["tracekit.serialize"],
            "tracekit.deserialize_s": incl["tracekit.deserialize"],
            "tracekit.write_sequence_csv_s": incl["tracekit.write_sequence_csv"],
            "tracekit.region_contains_calls": calls["tracekit.region_contains"],
        }
        for check in CHECKS:
            m[f"verify.{check}_s"] = incl[f"verify.{check}"]
        m.update({
            "phi.ell_calls": calls["phi.ell"],
            "phi.step_calls": calls["phi.step"],
            "phi.ell_s": incl["phi.ell"],
            "phi.step_s": incl["phi.step"],
            "strings.lex_less_calls": calls["strings.lex_less"],
            "strings.lex_less_s": incl["strings.lex_less"],
            "strings.true_path_estimate_s": incl["strings.true_path_estimate"],
            "dyadic.objects": calls["dyadic.init"],
            "dyadic.compares": calls["dyadic.cmp"],
            "replay.replay_run_s": incl["replay.replay_run"],
            "replay.reads": self.replay_reads,
        })
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                t for key, t in self.self_time.items() if key.startswith(layer + ".")
            )
        return m
