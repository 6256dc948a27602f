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

The substage read protocol is fixed and shared verbatim with the naive
replay oracle so that read logs can be compared value for value:

  1. the strategy's flag is read once per substage (feeds both predicates);
  2. threat test: flag must be 0; then the chain length; the witness is
     read only when the chain length is >= 0; then the exact gap test;
  3. on a threat, candidate restraints are read next-slot from the longest
     0-predecessor downward until one blocks;
  4. expansion test (variant A only when the flag is 1): chain length, then
     the restraint is read when the chain length is >= 0; then the gap test;
  5. when expansionary, the counter is read; a delegation reads the
     target's restraint next-slot.

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
        self._staged: dict[tuple[BinStr, str], int] = {}
        self._write_order: list[tuple[BinStr, str, int]] = []
        # incremental scan position into init_events for lazily-derived witnesses
        self._w_scan: dict[BinStr, list] = {}
        self._max_param_len = -1
        self._configured = registry.configured_indices()
        self._max_index = max(self._configured, default=-1)

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

    def _current(self, sigma: BinStr, fld: str) -> int:
        if len(sigma) <= self._max_param_len:
            p = self.params.get(sigma)
            if p is not None:
                return getattr(p, fld)
        if fld == "w":
            return self._lazy_w(sigma)
        return 0

    def _read(self, sigma: BinStr, fld: str, nxt: bool = False) -> int:
        if nxt:
            key = (sigma, fld)
            val = self._staged[key] if key in self._staged else self._current(sigma, fld)
        else:
            val = self._current(sigma, fld)
        if self.read_log is not None:
            self.read_log.append((self.t, sigma, fld, "next" if nxt else "cur", val))
        return val

    def _stage_write(self, sigma: BinStr, fld: str, val: int) -> None:
        key = (sigma, fld)
        if key in self._staged:
            raise TraceCorruption(f"double write {key} in stage {self.t}")
        self._staged[key] = val
        self._write_order.append((sigma, fld, val))

    # -- predicates ----------------------------------------------------------

    def _threat_info(self, sigma: BinStr, e: int) -> tuple[bool, int, int | None]:
        """(threatened, flag, witness-or-None) for this substage."""
        flag = self._read(sigma, self.flag_field)
        if flag != 0:
            return False, flag, None
        l = self.registry.ell(e, self.t) if e in self._configured else -1
        if l < 0:
            return False, flag, None
        w = self._read(sigma, "w")
        if l < w:
            return False, flag, w
        return gap_below(self.registry, self.x, e, l, self.t, w), flag, w

    def _expansion_info(self, sigma: BinStr, e: int, flag: int) -> tuple[bool, int | None]:
        """(expansionary, restraint-or-None); flag was already read."""
        # A: expansionary only while the satisfaction flag is 1
        if self.engine == "A" and flag != 1:
            return False, None
        l = self.registry.ell(e, self.t) if e in self._configured else -1
        if l < 0:
            return False, None
        r = self._read(sigma, "r")
        return gap_below(self.registry, self.x, e, l, self.t, r), r


def new_engine_a(registry: PhiRegistry, record_reads: bool = False) -> EngineState:
    return EngineState(registry, "A", record_reads)


def new_engine_b(registry: PhiRegistry, record_reads: bool = False) -> EngineState:
    return EngineState(registry, "B", record_reads)


def run_stage(state: EngineState) -> StageRecord:
    """Execute one full stage and return its record."""
    t = state.t
    flag_field = state.flag_field
    variant_b = state.engine == "B"
    state._staged.clear()
    state._write_order.clear()

    sigma = ""
    action: Action | None = None
    jump_exp: int | None = None
    region: tuple[BinStr, str] | None = None
    # from this depth on every substage is forced to append "1"
    forced = max(state._max_param_len, state._max_index) + 1

    while True:
        e = len(sigma)
        if forced <= e < t:
            if state.read_log is not None:
                state.read_log.extend(
                    (t, sigma + "1" * k, flag_field, "cur", 0) for k in range(t - e)
                )
            sigma += "1" * (t - e)
            e = t
        if e == t:
            action = Action(TOP_OUT, sigma=sigma)
            region = (sigma, REL_LEX)
            break

        threatened, flag, w = state._threat_info(sigma, e)

        # B: an unthreatened visit lifts the pause flag
        if variant_b and not threatened and flag != 0:
            state._stage_write(sigma, flag_field, 0)

        if threatened:
            # find the longest 0-predecessor whose raised restraint blocks the jump
            gamma = None
            r_next = None
            for j in range(e - 1, -1, -1):
                if sigma[j] == "0":
                    cand = sigma[:j]
                    r_cand = state._read(cand, "r", nxt=True)
                    if r_cand >= w:
                        gamma, r_next = cand, r_cand
                        break
            if gamma is None:
                jump_exp = w
                action = Action(THREAT_JUMP, sigma=sigma, exponent=w)
            else:
                counter = pair(sigma, 1 << (r_next - w))
                state._stage_write(gamma, "c", counter)
                action = Action(THREAT_SCHEDULE, sigma=sigma, gamma=gamma, counter=counter)
            state._stage_write(sigma, flag_field, 1)
            # B: every handled threat bumps the witness
            if variant_b:
                state._stage_write(sigma, "w", w + 1)
            # B: the region spares the threatened strategy's extensions
            region = (sigma, REL_LEX if variant_b else REL_LEX_OR_EXT)
            break

        expansionary, r = state._expansion_info(sigma, e, flag)
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
            r_next = state._read(gamma, "r", nxt=True)
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
        if variant_b:
            region = (sigma + "0", REL_LEX)
        else:
            region = (alpha, REL_LEX_OR_EXT)
        break

    # ---- commit --------------------------------------------------------

    jump = pow2(-jump_exp) if jump_exp is not None else ZERO
    state.x.append(state.x[t] + jump)

    anchor, rel = region
    for (s, fld), val in state._staged.items():
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
    record = StageRecord(t, sigma, action, jump, ((anchor, rel),), tuple(state._write_order))
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
