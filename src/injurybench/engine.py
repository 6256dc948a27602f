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
here, where an initialisation clears engine A's flag.

Parameter storage is sparse: a strategy materialises only when it receives
an explicit write.  Everything else is derived on demand from the defaults
(counter 0, restraint 0, flag 0, witness nu(sigma)) and the latest
initialisation region covering it, which is what makes stages that descend
thousands of levels cheap.  A region is kept as its start word
(``strings.region_start``), the least word of the region in native order.
The materialised strategies are kept sorted, so the blocks a stage
initialises are the one slice from its start word on, and a derived witness
compares its word with each start word.

:func:`run_stage` runs a stage in three steps: it computes the depth from
which the walk is forced, hands the stage to ``replay.stage_rules``, the one
implementation of the substage rules and of their read protocol, with this
state's reader, read log and chain lengths, and commits the writes and the
region it returns.  The rules stage a stage's writes, so the "[t+1]" reads
the construction performs (a delegation consulting a restraint raised
earlier in the same stage) see the new value while "[t]" reads do not, and
nothing is stored until the commit.

Below the deepest configured slot index and the deepest materialised
strategy the walk is forced: once a stage reaches a depth e greater than
both, it appends "1" up to depth t in one step and tops out.  This is
exact.  Every strategy of length e or more lacks a materialised parameter
block (blocks appear only at commit, so the bound holds for the whole
stage), so its flag reads the default 0; and slot e is empty, so its chain
length is -1.  The threat test then fails with no further read, a B strategy
has no pause to lift, and the expansion test fails (A needs flag 1, B needs
a chain), so the substage reads only the flag and appends "1".  The read log
receives those flag reads of 0 in order, exactly as a walk of every depth
would log them.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .dyadic import ZERO, Dyadic, pow2
from .phi import PhiRegistry
from .replay import StageRuleError, stage_rules
from .strings import BinStr, nu, region_start
from .tracekit import Action, StageRecord, Trace, TraceCorruption

__all__ = [
    "EngineState",
    "new_engine_a",
    "new_engine_b",
    "run_engine",
    "run_stage",
]


class _Params:
    """Materialised parameter block of one strategy (current values), one
    slot per parameter field name."""

    __slots__ = ("c", "r", "w", "s", "p")

    def __init__(self, w: int):
        self.c = self.r = self.s = self.p = 0
        self.w = w


class EngineState:
    """Mutable construction state; advance it one stage at a time."""

    def __init__(self, registry: PhiRegistry, engine: str, record_reads: bool = False):
        if engine not in ("A", "B"):
            raise ValueError(f"unknown engine {engine!r}")
        self.registry = registry
        self.engine = engine
        self.t = 0
        self.x: list[Dyadic] = [ZERO]
        self.params: dict[BinStr, _Params] = {}
        # the keys of params in native order
        self._keys: list[BinStr] = []
        # (stage, start word of the stage's region)
        self.init_events: list[tuple[int, BinStr]] = []
        self.records: list[StageRecord] = []
        # reads as (t, sigma, field, "cur"|"next", value); None disables logging
        self.read_log: list[tuple] | None = [] if record_reads else None
        # incremental scan position into init_events for lazily-derived witnesses
        self._w_scan: dict[BinStr, list] = {}
        self._max_param_len = -1
        self._max_index = max(registry.configured_indices(), default=-1)

    # -- parameter access --------------------------------------------------

    def _lazy_w(self, sigma: BinStr) -> int:
        scan = self._w_scan.get(sigma)
        if scan is None:
            scan = self._w_scan[sigma] = [0, None]
        idx, cover = scan
        events = self.init_events
        for stage, start in events[idx:]:
            if sigma >= start:
                cover = stage
        scan[0] = len(events)
        scan[1] = cover
        return nu(sigma) if cover is None else nu(sigma) + cover + 2

    def _read(self, sigma: BinStr, fld: str) -> int:
        """The value at stage t, before any write of this stage."""
        p = self.params.get(sigma) if len(sigma) <= self._max_param_len else None
        if p is not None:
            return getattr(p, fld)
        return self._lazy_w(sigma) if fld == "w" else 0

    def _block(self, sigma: BinStr) -> _Params:
        """sigma's parameter block, materialised from its derived values
        on first use."""
        p = self.params.get(sigma)
        if p is None:
            p = self.params[sigma] = _Params(self._lazy_w(sigma))
            self._w_scan.pop(sigma, None)
            insort(self._keys, sigma)
            if len(sigma) > self._max_param_len:
                self._max_param_len = len(sigma)
        return p

    def _initialise(self, t: int, start: BinStr) -> None:
        """Stage t's initialisation of the region from ``start`` on: the
        materialised blocks in it are the sorted keys from ``start`` on."""
        self.init_events.append((t, start))
        params = self.params
        # A: initialisation also clears the satisfaction flag
        clears_flag = self.engine == "A"
        for s in self._keys[bisect_left(self._keys, start):]:
            p = params[s]
            p.c = 0
            p.w = nu(s) + t + 2
            if clears_flag:
                p.s = 0


def new_engine_a(registry: PhiRegistry, record_reads: bool = False) -> EngineState:
    return EngineState(registry, "A", record_reads)


def new_engine_b(registry: PhiRegistry, record_reads: bool = False) -> EngineState:
    return EngineState(registry, "B", record_reads)


def run_stage(state: EngineState) -> StageRecord:
    """Execute one full stage by the substage rules and commit it."""
    t = state.t
    x = state.x
    registry = state.registry
    log = state.read_log
    # from this depth on every substage is forced to append "1"
    forced = max(state._max_param_len, state._max_index) + 1
    try:
        sigma, action, jump_exp, region, writes = stage_rules(
            t, x, state._read, None if log is None else log.append,
            registry.ell, registry.step, state.engine, forced)
    except StageRuleError as exc:
        raise TraceCorruption(str(exc)) from exc

    jump = pow2(-jump_exp) if jump_exp is not None else ZERO
    x.append(x[t] + jump)

    start = region_start(*region)
    for s, fld, val in writes:
        if s >= start:
            raise TraceCorruption(
                f"stage {t} writes into its own initialisation region at {s!r}"
            )
        setattr(state._block(s), fld, val)
    state._initialise(t, start)

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
