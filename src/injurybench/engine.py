"""Stage/substage drivers for the two priority constructions.

Both constructions run the same skeleton: a stage walks down the strategy
tree from the root, one substage per tree level, until either the walk
reaches depth t (top-out), a strategy defeats a threat to its negative
requirement (jumping or scheduling split jumps), or a strategy with a
positive counter executes or delegates one scheduled jump.  The stage then
initialises a symbolic region of strategies and commits its parameter
writes.  An ``EngineState`` is keyed by its engine tag, "A" or "B".  Apart
from the flag field (satisfaction flag ``s`` for A, pause flag ``p`` for B)
the two variants differ in six places: five in the substage rules, and one
in ``tracekit.RESET_FIELDS``, where an initialisation also resets engine
A's flag.

An ``EngineState`` is a ``tracekit.ParamStore``, the one parameter store,
which the settlement check also rebuilds from a trace's records.
:func:`run_stage` hands a stage to ``replay.stage_rules``, the one
implementation of the substage rules and their read protocol, with the
store's reader and forced depth and this state's read log and chain
lengths; checks that no write lies in the stage's own region, as the rules
never write there; and stores writes and region in one
:meth:`ParamStore.commit`.  The jump is the action's exponent as a power of
two.  The rules stage a stage's writes, so its "[t+1]" reads (a delegation
consulting a restraint raised earlier in the stage) see the new value while
"[t]" reads do not.  With ``record_reads`` the state keeps a
``replay.ReadLog``, which holds one string per distinct word.
"""

from __future__ import annotations

from .dyadic import ZERO, Dyadic, pow2
from .phi import PhiRegistry
from .replay import ReadLog, StageRuleError, stage_rules
from .strings import region_start
from .tracekit import Action, ParamStore, StageRecord, Trace, TraceCorruption

__all__ = [
    "EngineState",
    "new_engine_a",
    "new_engine_b",
    "run_engine",
    "run_stage",
]


class EngineState(ParamStore):
    """Mutable construction state; advance it one stage at a time."""

    def __init__(self, registry: PhiRegistry, engine: str, record_reads: bool = False):
        if engine not in ("A", "B"):
            raise ValueError(f"unknown engine {engine!r}")
        super().__init__(engine, registry)
        self.registry = registry
        self.engine = engine
        self.t = 0
        self.x: list[Dyadic] = [ZERO]
        self.records: list[StageRecord] = []
        # reads as (t, sigma, field, "cur"|"next", value), each sigma one
        # string of the log's word tables; None disables logging
        self.read_log = ReadLog() if record_reads else None


def new_engine_a(registry: PhiRegistry, record_reads: bool = False) -> EngineState:
    return EngineState(registry, "A", record_reads)


def new_engine_b(registry: PhiRegistry, record_reads: bool = False) -> EngineState:
    return EngineState(registry, "B", record_reads)


def run_stage(state: EngineState) -> StageRecord:
    """Execute one full stage by the substage rules and commit it."""
    t = state.t
    x = state.x
    registry = state.registry
    try:
        sigma, action, region, writes = stage_rules(
            t, x, state._read, state.read_log, registry.ell, registry.step,
            state.engine, state.forced_depth())
    except StageRuleError as exc:
        raise TraceCorruption(str(exc)) from exc
    start = region_start(*region)
    for s, _, _ in writes:
        if s >= start:
            raise TraceCorruption(f"stage {t} writes into its own initialisation region at {s!r}")

    jump = pow2(-action[6]) if action[6] is not None else ZERO
    x.append(x[t] + jump)
    state.commit(t, writes, (start,))

    # positional: a named tuple builds in half the time that way
    record = StageRecord(t, sigma, Action(*action), jump, (region,), writes)
    state.records.append(record)
    state.t += 1
    return record


def run_engine(state: EngineState, T: int, hooks=None) -> Trace:
    """Drive a fresh or partially-run state up to stage T and package the trace."""
    if T < 1:
        raise ValueError("need at least one stage")
    while state.t < T:
        record = run_stage(state)
        if hooks is not None:
            hooks(record)
    return Trace(
        engine=state.engine,
        config=state.registry.config,
        stages=list(state.records),
        x=list(state.x),
    )
