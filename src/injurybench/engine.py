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
here, where an initialisation also resets engine A's flag.

The store keeps explicit values only, so stages that descend thousands of
levels stay cheap: a strategy's dict of them appears at its first write and
is never removed.  Any other value is derived: 0 for a counter, restraint
or flag, and for a witness nu(sigma) + s + 2 from the latest initialisation
at a stage s whose region covers sigma, else nu(sigma).  An initialisation
forgets what it resets (counter, witness and A's flag) in the written
strategies of its region, which then read the derived value; no reset value
is stored.  A region is kept as its start word (``strings.region_start``),
the least word of the region in native order.  The written strategies are
kept sorted, so those a stage initialises are the one slice from its start
word on, and a derived witness compares its word with each start word once,
keeping the witness beside its scan position.

:func:`run_stage` runs a stage in three steps: it computes the depth from
which the walk is forced, hands the stage to ``replay.stage_rules``, the one
implementation of the substage rules and of their read protocol, with this
state's reader, read log and chain lengths, and commits the writes and the
region it returns.  The rules stage a stage's writes, so the "[t+1]" reads
the construction performs (a delegation consulting a restraint raised
earlier in the same stage) see the new value while "[t]" reads do not, and
nothing is stored until the commit.

Below the deepest configured slot index and the deepest written strategy
the walk is forced: once a stage reaches a depth e greater than both, it
appends "1" up to depth t in one step and tops out.  This is exact.  No
strategy of length e or more has an explicit value (they appear only at
commit, so the bound holds for the whole stage), so its flag reads the
derived 0; and slot e is empty, so its chain length is -1.  The threat test
then fails with no further read, a B strategy has no pause to lift, and the
expansion test fails (A needs flag 1, B needs a chain), so the substage
reads only the flag and appends "1".  The read log receives those flag
reads of 0 in order, exactly as a walk of every depth would log them.

With ``record_reads`` the state keeps the read log and the log's
``replay.WordTable``, which builds each word the walks step onto once per
run, so the log holds one string per distinct word.  Without it the state
keeps neither, and the walk builds its words as it goes.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .dyadic import ZERO, Dyadic, pow2
from .phi import PhiRegistry
from .replay import StageRuleError, WordTable, stage_rules
from .strings import BinStr, nu, region_start
from .tracekit import Action, StageRecord, Trace, TraceCorruption

__all__ = [
    "EngineState",
    "new_engine_a",
    "new_engine_b",
    "run_engine",
    "run_stage",
]


class EngineState:
    """Mutable construction state; advance it one stage at a time."""

    def __init__(self, registry: PhiRegistry, engine: str, record_reads: bool = False):
        if engine not in ("A", "B"):
            raise ValueError(f"unknown engine {engine!r}")
        self.registry = registry
        self.engine = engine
        self.t = 0
        self.x: list[Dyadic] = [ZERO]
        # sigma -> its explicit values by field name, from its first write
        # on; a field an initialisation forgot is absent, and reads derived
        self.params: dict[BinStr, dict[str, int]] = {}
        # the keys of params in native order
        self._keys: list[BinStr] = []
        # the fields an initialisation forgets; A's satisfaction flag too
        self._forgets = ("c", "w", "s") if engine == "A" else ("c", "w")
        # (stage, start word of the stage's region)
        self.init_events: list[tuple[int, BinStr]] = []
        self.records: list[StageRecord] = []
        # reads as (t, sigma, field, "cur"|"next", value), each sigma one
        # string of the word table; None disables logging and the table
        self.read_log: list[tuple] | None = [] if record_reads else None
        self.words = WordTable() if record_reads else None
        # sigma -> [position in init_events scanned to, derived witness there]
        self._w_scan: dict[BinStr, list] = {}
        self._max_param_len = -1
        self._max_index = max(registry.configured_indices(), default=-1)

    # -- parameter access --------------------------------------------------

    def _lazy_w(self, sigma: BinStr) -> int:
        """sigma's derived witness: nu(sigma) + s + 2 for the latest
        initialisation at stage s that covers it, else nu(sigma)."""
        events = self.init_events
        scan = self._w_scan.get(sigma)
        if scan is None:
            scan = self._w_scan[sigma] = [0, nu(sigma)]
        elif scan[0] == len(events):
            return scan[1]
        cover = None
        for stage, start in events[scan[0]:]:
            if sigma >= start:
                cover = stage
        if cover is not None:
            scan[1] = nu(sigma) + cover + 2
        scan[0] = len(events)
        return scan[1]

    def _read(self, sigma: BinStr, fld: str) -> int:
        """The value at stage t, before any write of this stage: the
        explicit value, else the derived one."""
        p = self.params.get(sigma) if len(sigma) <= self._max_param_len else None
        if p is not None and fld in p:
            return p[fld]
        return self._lazy_w(sigma) if fld == "w" else 0

    def _block(self, sigma: BinStr) -> dict[str, int]:
        """sigma's explicit values, created empty on its first write."""
        p = self.params.get(sigma)
        if p is None:
            p = self.params[sigma] = {}
            insort(self._keys, sigma)
            if len(sigma) > self._max_param_len:
                self._max_param_len = len(sigma)
        return p

    def _initialise(self, t: int, start: BinStr) -> None:
        """Stage t's initialisation of the region from ``start`` on: the
        written strategies in it are the sorted keys from ``start`` on, and
        each forgets the fields it resets."""
        self.init_events.append((t, start))
        params = self.params
        forgets = self._forgets
        for s in self._keys[bisect_left(self._keys, start):]:
            p = params[s]
            for fld in forgets:
                p.pop(fld, None)


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
            registry.ell, registry.step, state.engine, forced, state.words)
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
        state._block(s)[fld] = val
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
