"""Stage/substage drivers for the two priority constructions.

Both constructions run the same skeleton: a stage walks down the strategy
tree from the root, one substage per tree level, until either the walk
reaches depth t (top-out), a strategy defeats a threat to its negative
requirement (jumping or scheduling split jumps), or a strategy with a
positive counter executes or delegates one scheduled jump.  The stage then
initialises a symbolic region of strategies and commits its parameter
writes.  An ``EngineState`` is keyed by its engine tag, "A" or "B".  Apart
from the flag field (satisfaction flag ``s`` for A, pause flag ``p`` for B)
the two variants differ in six places, each a branch on the tag at its one
use site with a comment naming the delta, as in the replay oracle.

Parameter storage is sparse: a strategy materialises only when it receives
an explicit write.  Everything else is derived on demand from the defaults
(counter 0, restraint 0, flag 0, witness nu(sigma)) and the latest
initialisation region covering it, which is what makes stages that descend
thousands of levels cheap.  Within a stage, writes go to a staging map so
that the "[t+1]" reads the construction performs (a delegation consulting a
restraint raised earlier in the same stage) see the new value while "[t]"
reads do not.

The substage loop of :func:`run_stage` is written in the order of the rule
function of the naive replay oracle (``replay.stage_rules``), the one other
implementation of the substage rules, so the two walks read side by side
and their read logs can be compared value for value.  Each substage:

  1. reads the strategy's flag once (it feeds both predicates);
  2. asks the slot's chain length at most once, where a predicate needs it;
  3. threat test: flag must be 0 and the chain length >= 0; then the
     witness is read and the exact gap test decides;
  4. B: an unthreatened visit lifts the pause flag;
  5. on a threat, candidate restraints are read next-slot from the longest
     0-predecessor downward until one blocks, and the stage ends;
  6. expansion test (variant A only when the flag is 1): when the chain
     length is >= 0 the restraint is read and the gap test decides;
  7. when expansionary, the counter is read; a delegation reads the
     target's restraint next-slot.

A next-slot read is always of a restraint this stage staged: the walk
appends "0" to a strategy only after staging its raised restraint.

Below the deepest configured slot index and the deepest materialised
strategy the walk is forced: once a stage reaches a depth e greater than
both, it appends "1" up to depth t in one step and tops out.  This is
exact.  Every strategy of length e or more lacks a materialised parameter
block (blocks appear only at commit, so the bound holds for the whole
stage), so its flag reads the default 0; and slot e is empty, so its chain
length is -1.  The threat test then fails with no further read, a B strategy
has no pause to lift, and the expansion test fails (A needs flag 1, B needs
a chain), so the substage reads only the flag and appends "1".  The read log
receives those flag reads of 0 in order, exactly as the substage loop would
log them.
"""

from __future__ import annotations

from .dyadic import ZERO, Dyadic, pow2
from .phi import PhiRegistry
from .strings import REL_LEX, REL_LEX_OR_EXT, BinStr, nu, pair, region_contains, unpair
from .tracekit import (
    EXPANSION_DELEGATE,
    EXPANSION_JUMP,
    FLAG_FIELDS,
    THREAT_JUMP,
    THREAT_SCHEDULE,
    TOP_OUT,
    Action,
    StageRecord,
    Trace,
    TraceCorruption,
    gap_below,
)

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
        self.flag_field = FLAG_FIELDS[engine]
        self.t = 0
        self.x: list[Dyadic] = [ZERO]
        self.params: dict[BinStr, _Params] = {}
        self.init_events: list[tuple[int, BinStr, str]] = []
        self.records: list[StageRecord] = []
        # reads as (t, sigma, field, "cur"|"next", value); None disables logging
        self.read_log: list[tuple] | None = [] if record_reads else None
        # this stage's writes; the double-write guard keeps them in substage order
        self._staged: dict[tuple[BinStr, str], int] = {}
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
        while idx < len(events):
            stage, anchor, rel = events[idx]
            if region_contains(anchor, rel, sigma):
                cover = stage
            idx += 1
        scan[0] = idx
        scan[1] = cover
        return nu(sigma) if cover is None else nu(sigma) + cover + 2

    def _read(self, sigma: BinStr, fld: str) -> int:
        """The value at stage t, before any write of this stage."""
        p = self.params.get(sigma) if len(sigma) <= self._max_param_len else None
        if p is not None:
            val = getattr(p, fld)
        elif fld == "w":
            val = self._lazy_w(sigma)
        else:
            val = 0
        if self.read_log is not None:
            self.read_log.append((self.t, sigma, fld, "cur", val))
        return val

    def _stage_write(self, sigma: BinStr, fld: str, val: int) -> None:
        key = (sigma, fld)
        if key in self._staged:
            raise TraceCorruption(f"double write {key} in stage {self.t}")
        self._staged[key] = val


def new_engine_a(registry: PhiRegistry, record_reads: bool = False) -> EngineState:
    return EngineState(registry, "A", record_reads)


def new_engine_b(registry: PhiRegistry, record_reads: bool = False) -> EngineState:
    return EngineState(registry, "B", record_reads)


def run_stage(state: EngineState) -> StageRecord:
    """Execute one full stage and return its record."""
    t = state.t
    x = state.x
    registry = state.registry
    flag_field = state.flag_field
    variant_b = state.engine == "B"
    staged = state._staged
    staged.clear()
    log = state.read_log

    def nxt_restraint(sigma: BinStr) -> int:
        val = staged[sigma, "r"]
        if log is not None:
            log.append((t, sigma, "r", "next", val))
        return val

    sigma = ""
    jump_exp: int | None = None
    # from this depth on every substage is forced to append "1"
    forced = max(state._max_param_len, state._max_index) + 1

    while True:
        e = len(sigma)
        if forced <= e < t:
            if log is not None:
                log.extend((t, sigma + "1" * k, flag_field, "cur", 0) for k in range(t - e))
            sigma += "1" * (t - e)
            e = t
        if e == t:
            action = Action(TOP_OUT, sigma=sigma)
            region = (sigma, REL_LEX)
            break

        # negative requirement: threat test; the chain length is asked once
        # per substage, and only where a predicate needs it
        flag = state._read(sigma, flag_field)
        l = None
        threatened = False
        if flag == 0:
            l = registry.ell(e, t)
            if l >= 0:
                w = state._read(sigma, "w")
                threatened = l >= w and gap_below(registry, x, e, l, t, w)
        # B: an unthreatened visit lifts the pause flag
        if variant_b and not threatened and flag != 0:
            state._stage_write(sigma, flag_field, 0)
        if threatened:
            # the longest 0-predecessor whose raised restraint blocks the jump
            gamma = None
            for j in range(e - 1, -1, -1):
                if sigma[j] == "0":
                    r_next = nxt_restraint(sigma[:j])
                    if r_next >= w:
                        gamma = sigma[:j]
                        break
            if gamma is None:
                jump_exp = w
                action = Action(THREAT_JUMP, sigma=sigma, exponent=w)
            else:
                counter = pair(sigma, 1 << (r_next - w))
                state._stage_write(gamma, "c", counter)
                action = Action(THREAT_SCHEDULE, sigma=sigma, gamma=gamma, counter=counter)
            state._stage_write(sigma, flag_field, 1)
            # B: every handled threat bumps the witness; its region spares
            # the threatened strategy's extensions
            if variant_b:
                state._stage_write(sigma, "w", w + 1)
            region = (sigma, REL_LEX if variant_b else REL_LEX_OR_EXT)
            break

        # positive requirement: expansion test (A: only while the flag is 1)
        expansionary = False
        if variant_b or flag == 1:
            if l is None:
                l = registry.ell(e, t)
            if l >= 0:
                r = state._read(sigma, "r")
                expansionary = gap_below(registry, x, e, l, t, r)
        if not expansionary:
            sigma += "1"
            continue

        c = state._read(sigma, "c")
        if c == 0:
            state._stage_write(sigma, "r", r + 1)
            sigma += "0"
            continue

        # execute or delegate one scheduled jump
        alpha, second = unpair(c)
        if second == 0:
            raise TraceCorruption(
                f"counter {c} of {sigma!r} decodes to a zero remaining count"
            )
        k = second - 1
        j = sigma.rfind("0")
        if j < 0:
            jump_exp = r
            action = Action(EXPANSION_JUMP, sigma=sigma, alpha=alpha, k=k, exponent=r)
        else:
            gamma = sigma[:j]
            r_next = nxt_restraint(gamma)
            if r_next < r:
                raise TraceCorruption(
                    f"restraint of {gamma!r} fell below {sigma!r}'s at stage {t}"
                )
            counter = pair(alpha, 1 << (r_next - r))
            state._stage_write(gamma, "c", counter)
            action = Action(
                EXPANSION_DELEGATE, sigma=sigma, gamma=gamma, counter=counter,
                alpha=alpha, k=k,
            )
        state._stage_write(sigma, "c", 0 if k == 0 else pair(alpha, k))
        # B: a counter stage initialises right of sigma's 0-branch; A
        # initialises around the decoded label
        region = (sigma + "0", REL_LEX) if variant_b else (alpha, REL_LEX_OR_EXT)
        break

    # ---- commit --------------------------------------------------------

    jump = pow2(-jump_exp) if jump_exp is not None else ZERO
    x.append(x[t] + jump)

    anchor, rel = region
    writes = tuple([(s, fld, val) for (s, fld), val in staged.items()])
    for s, fld, val in writes:
        if region_contains(anchor, rel, s):
            raise TraceCorruption(
                f"stage {t} writes into its own initialisation region at {s!r}"
            )
        p = state.params.get(s)
        if p is None:
            p = state.params[s] = _Params(state._lazy_w(s))
            state._w_scan.pop(s, None)
            if len(s) > state._max_param_len:
                state._max_param_len = len(s)
        setattr(p, fld, val)

    state.init_events.append((t, anchor, rel))
    for s, p in state.params.items():
        if region_contains(anchor, rel, s):
            p.c = 0
            p.w = nu(s) + t + 2
            # A: initialisation also clears the satisfaction flag
            if not variant_b:
                p.s = 0

    # positional: a named tuple builds in half the time that way
    record = StageRecord(t, sigma, action, jump, ((anchor, rel),), writes)
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
