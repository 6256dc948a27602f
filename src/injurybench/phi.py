"""A configured family of partial functions with exact step semantics.

The constructions quantify over a standard enumeration of all computable
partial functions; at desk scale the registry holds a finite configured
family instead: closed-form total functions, finite partial graphs,
divergent slots, and programs for a tiny register machine whose step count
is exact.  Runs embed their registry configuration so results stay
reproducible, and the set of indices known to be total and increasing is
declared by configuration, never inferred.

Convergence uses the uniform gate: a query (e, n, t) converges iff the
slot's raw computation halts within t steps *and* its value is at most t.
The gate makes convergence monotone in t and guarantees that a converged
value never exceeds the stage that observed it.

The gate lives in one place, ``_Slot.visible``, stated on the slot's raw
semantics.  :meth:`PhiRegistry.step` looks the slot up and calls it, for
one query; :meth:`PhiRegistry.visible_values` is the one loop over a slot's
inputs, the ranged chain query: the values visible at stage t on
n = 0, 1, 2, ..., as a list, up to the first input whose value is not
visible or not above the value before it, and through input t at most.
Its length less one is the chain length that :meth:`PhiRegistry.ell`
keeps incrementally.  Its generic form calls the gate once per input and
compares each value with the one before; slot values are naturals, so a
first ``prev`` of -1 lets the value on 0 start the chain.  The increasing
formula kinds (identity, double, affine, square) answer from their value
list with one bisection instead: their values are strictly increasing
naturals, so no value falls, fn(n) >= n, and the inputs visible at t are
exactly the prefix of values at most t, which already ends by input t.
Slots that halt in zero steps (formulas and finite graphs) override the
gate with the shorter ``v <= t``: their values are natural, so ``v <= t``
already implies ``steps = 0 <= t``, even for t = -1, and the short form
saves a tuple and a call on each query.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right

__all__ = [
    "PhiRegistry",
    "DEFAULT_CONFIG",
    "registry_from_config",
    "config_digest",
    "validate_config",
]


def config_digest(config: dict) -> str:
    """Stable hex digest of a registry configuration.

    The digest is taken over the configuration's JSON form, so a config
    built in Python with int keys (a ``partial`` graph ``{2: 3, 10: 11}``)
    digests the same as the string-keyed config a trace file loads back.
    """
    canon = json.dumps(json.loads(json.dumps(config)), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Slots


class _Slot:
    """One enumeration slot: deterministic raw semantics for each input n.

    ``raw(n, budget)`` returns (steps, value) if the raw computation halts
    within ``budget`` steps, else None.  Repeated queries agree: formula
    slots memoise their values, and program slots keep each input's
    simulation state so a larger budget resumes it.  ``total_increasing``
    is the declared classification (True / False / None for unknown).

    ``visible(n, t)`` is the uniform gate (module docstring): the value if
    the raw computation halts within t steps and the value is at most t,
    else None.  It is stated here once, on ``raw``; zero-step slots may
    shorten it to ``v <= t``, because a natural value at most t also bounds
    their zero step count.
    """

    total_increasing: bool | None = None

    def raw(self, n: int, budget: int):
        raise NotImplementedError

    def visible(self, n: int, t: int) -> int | None:
        res = self.raw(n, t)
        if res is None:
            return None
        steps, value = res
        return value if steps <= t and value <= t else None

    def visible_values(self, t: int) -> list[int]:
        """The values ``visible(n, t)`` for n = 0, 1, 2, ..., up to the first
        None or the first value not above the one before, through n = t at
        most: the visible strictly increasing chain."""
        visible = self.visible
        values: list[int] = []
        prev = -1
        for n in range(t + 1):
            v = visible(n, t)
            if v is None or v <= prev:
                break
            values.append(v)
            prev = v
        return values


class _FormulaSlot(_Slot):
    """Closed-form total function; the raw computation halts instantly.

    The values fn(0), fn(1), ... are kept in one list, grown to the largest
    input asked.  A slot declared total and increasing (identity, double,
    affine, square) answers ``visible_values`` with one bisection of that
    list (module docstring); a constant slot keeps the generic loop.
    """

    def __init__(self, fn, total_increasing: bool):
        self._fn = fn
        self._vals: list[int] = []
        self.total_increasing = total_increasing

    def raw(self, n: int, budget: int):
        vals = self._vals
        while len(vals) <= n:
            vals.append(self._fn(len(vals)))
        return (0, vals[n])

    def visible(self, n: int, t: int) -> int | None:
        vals = self._vals
        while len(vals) <= n:
            vals.append(self._fn(len(vals)))
        v = vals[n]
        return v if v <= t else None

    def visible_values(self, t: int) -> list[int]:
        if not self.total_increasing:
            return super().visible_values(t)
        # grow through input t or to the first value past t, whichever is first
        vals, fn = self._vals, self._fn
        while len(vals) <= t and (not vals or vals[-1] <= t):
            vals.append(fn(len(vals)))
        return vals[:bisect_right(vals, t)]


class _PartialSlot(_Slot):
    """Finite explicit graph; inputs outside the graph diverge."""

    total_increasing = False

    def __init__(self, graph: dict[int, int]):
        self._graph = graph

    def raw(self, n: int, budget: int):
        v = self._graph.get(n)
        return None if v is None else (0, v)

    def visible(self, n: int, t: int) -> int | None:
        v = self._graph.get(n)
        return v if v is not None and v <= t else None


class _ProgramSlot(_Slot):
    """Minimal register machine with unit cost per executed instruction.

    Instructions (JSON arrays):
      ["inc", r, next]            -- R[r] += 1, go to instruction `next`
      ["dec", r, next, on_zero]   -- if R[r] > 0: R[r] -= 1, go to `next`;
                                     else go to `on_zero`
      ["halt"]                    -- stop (costs one step)
    The input is placed in R0, the value read back from R0 on halt; running
    off the end of the program halts without an extra step, so a run that
    leaves the program after exactly ``budget`` steps has halted within
    that budget.  Simulation state per input is saved so a larger budget
    resumes where the previous query stopped.

    Transfer loops run in one step of the simulator, not one per
    instruction.  A transfer loop is a ``dec r`` whose success branch runs
    only ``inc``s of registers other than r and then returns to the same
    ``dec`` (a ``dec r`` that jumps to itself has an empty body).  One
    iteration costs 1 + (number of ``inc``s) steps, lowers R[r] by exactly
    one and adds a fixed amount to each other register.  So from the loop
    head, k <= R[r] iterations that fit in the remaining budget end back at
    the head with R[r] - k, R[s] + a_s * k and k * cost more steps: the
    state a plain run reaches.  The simulator takes the largest such k and
    then steps the rest one instruction at a time, so results, saved
    states and the convergence gate agree with plain stepping at every
    budget.  Only loops whose body is ``inc``s are accelerated; a loop
    whose body holds another ``dec``, such as the outer loop of
    multiplication, is stepped (its inner transfer loop is still
    accelerated).
    """

    def __init__(self, code: list, total_increasing: bool | None):
        self._code = [tuple(instr) for instr in code]
        self.total_increasing = total_increasing
        # loop head pc -> (r, cost, ((s, a_s), ...)) for each transfer loop
        self._loops: dict[int, tuple[int, int, tuple[tuple[int, int], ...]]] = {}
        code = self._code
        for head, instr in enumerate(code):
            if instr[0] != "dec":
                continue
            r, pc = instr[1], instr[2]
            adds: dict[int, int] = {}
            incs = 0
            # a body of len(code) incs has cycled without reaching the head
            while pc != head and incs < len(code):
                if pc >= len(code) or code[pc][0] != "inc" or code[pc][1] == r:
                    break
                s, pc = code[pc][1], code[pc][2]
                adds[s] = adds.get(s, 0) + 1
                incs += 1
            if pc == head:
                self._loops[head] = (r, 1 + incs, tuple(sorted(adds.items())))
        # n -> [regs, pc, steps, halted, value]
        self._state: dict[int, list] = {}

    def raw(self, n: int, budget: int):
        st = self._state.get(n)
        if st is None:
            st = self._state[n] = [{0: n}, 0, 0, False, None]
        regs, pc, steps, halted, value = st
        if halted:
            return (steps, value) if steps <= budget else None
        code = self._code
        loops = self._loops
        while True:
            if pc >= len(code):
                halted, value = True, regs.get(0, 0)
                break
            if steps >= budget:
                break
            loop = loops.get(pc)
            if loop is not None:
                r, cost, adds = loop
                k = min(regs.get(r, 0), (budget - steps) // cost)
                if k:
                    regs[r] -= k
                    for s, a in adds:
                        regs[s] = regs.get(s, 0) + a * k
                    steps += k * cost
                    continue
            instr = code[pc]
            op = instr[0]
            steps += 1
            if op == "inc":
                regs[instr[1]] = regs.get(instr[1], 0) + 1
                pc = instr[2]
            elif op == "dec":
                r = instr[1]
                if regs.get(r, 0) > 0:
                    regs[r] -= 1
                    pc = instr[2]
                else:
                    pc = instr[3]
            else:  # halt
                halted, value = True, regs.get(0, 0)
                break
        st[1], st[2], st[3], st[4] = pc, steps, halted, value
        return (steps, value) if halted else None


# Operand count of each register-machine opcode (see _ProgramSlot).
_OPERANDS = {"inc": 2, "dec": 3, "halt": 0}


def _natural(value) -> bool:
    return type(value) is int and value >= 0


def _natural_graph(graph) -> bool:
    # JSON object keys are strings; a config built in Python may use ints
    return isinstance(graph, dict) and all(
        (_natural(k) or isinstance(k, str) and k.isascii() and k.isdigit()) and _natural(v)
        for k, v in graph.items()
    )


def _instruction(instr) -> bool:
    return (isinstance(instr, (list, tuple)) and len(instr) > 0
            and isinstance(instr[0], str) and instr[0] in _OPERANDS
            and len(instr) == _OPERANDS[instr[0]] + 1
            and all(_natural(arg) for arg in instr[1:]))


_NATURAL = (_natural, "must be a natural number, got {!r}")

# Each slot kind: the keys it takes besides "index" and "kind", each with its
# test and its error's words (formatted with the value), and the builder of
# its slot.  An absent key reads as None, which only "total_increasing" takes.
_KINDS = {
    "identity": ({}, lambda entry: _FormulaSlot(lambda n: n, True)),
    "double": ({}, lambda entry: _FormulaSlot(lambda n: 2 * n, True)),
    "square": ({}, lambda entry: _FormulaSlot(lambda n: n * n, True)),
    "affine": ({"shift": _NATURAL},
               lambda entry: _FormulaSlot(lambda n, s=entry["shift"]: n + s, True)),
    "const": ({"value": _NATURAL},
              lambda entry: _FormulaSlot(lambda n, v=entry["value"]: v, False)),
    "partial": ({"graph": (_natural_graph, "must be an object mapping natural numbers "
                                           "to natural numbers, got {!r}")},
                lambda entry: _PartialSlot({int(k): v for k, v in entry["graph"].items()})),
    "diverge": ({}, lambda entry: _PartialSlot({})),
    "program": ({"code": (lambda code: isinstance(code, list), "must be a list, got {!r}"),
                 "total_increasing": (lambda declared: declared is None or type(declared) is bool,
                                      "must be true, false or null")},
                lambda entry: _ProgramSlot(entry["code"], entry.get("total_increasing"))),
}


def _require(pos: int, entry: dict, key: str, ok, what: str) -> None:
    if not ok(entry.get(key)):
        raise ValueError(f"slot {pos} has no {key!r}" if key not in entry
                         else f"slot {pos}: {key!r} {what.format(entry[key])}")


def validate_config(config) -> None:
    """Reject a registry configuration its slots cannot be built from.

    The one key of a configuration is ``slots``, and a slot entry takes
    ``index``, ``kind`` and the keys ``_KINDS`` lists for its kind, no other.
    Every slot value and register-machine operand must be a natural number:
    slot values index the approximation sequence, and a negative one would
    silently read from its end.  Raises ValueError with a one-line message.
    """
    if not isinstance(config, dict):
        raise ValueError("registry config must be an object")
    for key in config:
        if key != "slots":
            raise ValueError(f"registry config takes no key {key!r}")
    slots = config.get("slots", [])
    if not isinstance(slots, list):
        raise ValueError("registry config 'slots' must be a list")
    seen: set[int] = set()
    for pos, entry in enumerate(slots):
        if not isinstance(entry, dict):
            raise ValueError(f"slot {pos} is not an object")
        _require(pos, entry, "index", *_NATURAL)
        if entry["index"] in seen:
            raise ValueError(f"duplicate slot index {entry['index']}")
        seen.add(entry["index"])
        kind = entry.get("kind")
        if not (isinstance(kind, str) and kind in _KINDS):
            raise ValueError(f"slot {pos}: unknown slot kind {kind!r}")
        keys = _KINDS[kind][0]
        for key in entry:
            if key not in keys and key not in ("index", "kind"):
                raise ValueError(f"slot {pos}: kind {kind!r} takes no key {key!r}")
        for key, (ok, what) in keys.items():
            _require(pos, entry, key, ok, what)
        # only a program has code
        for i, instr in enumerate(entry.get("code", ())):
            if not _instruction(instr):
                raise ValueError(f"slot {pos}: bad instruction {instr!r} at {i}")


# ---------------------------------------------------------------------------
# Registry


class _ChainState:
    """Incremental state of the increasing-chain prefix for one slot."""

    __slots__ = ("values", "cummax_eff", "broken")

    def __init__(self):
        self.values: list[int] = []
        self.cummax_eff: list[int] = []
        self.broken = False


class PhiRegistry:
    """Slot table with convergence gate and chain-length queries."""

    def __init__(self, config: dict):
        validate_config(config)
        self.config = config
        self.slots: dict[int, _Slot] = {
            entry["index"]: _KINDS[entry["kind"]][1](entry) for entry in config.get("slots", [])
        }
        self._chains: dict[int, _ChainState] = {}
        self._configured = frozenset(self.slots)
        self._total_increasing = frozenset(
            e for e, s in self.slots.items() if s.total_increasing is True
        )

    # -- configuration -----------------------------------------------------

    def configured_indices(self) -> frozenset[int]:
        return self._configured

    def total_increasing_indices(self) -> frozenset[int]:
        """Indices declared total and increasing by the configuration."""
        return self._total_increasing

    def classification(self, e: int) -> bool | None:
        """Declared total-increasing status of slot e (False for empty slots)."""
        slot = self.slots.get(e)
        return False if slot is None else slot.total_increasing

    # -- queries -------------------------------------------------------------

    def step(self, e: int, n: int, t: int) -> int | None:
        """Value of slot e on input n as visible at stage t, or None.

        Converges iff the raw computation halts within t steps and its value
        is at most t (``_Slot.visible``); monotone in t with a stable value.
        """
        slot = self.slots.get(e)
        return None if slot is None else slot.visible(n, t)

    def visible_values(self, e: int, t: int) -> list[int]:
        """The visible strictly increasing chain of slot e at stage t: the
        values ``step(e, n, t)`` for n = 0, 1, 2, ..., as a list, up to the
        first None or the first value not above the one before, through
        n = t at most; empty for an empty slot.  Its length is
        ``ell(e, t) + 1``.  A loop over the gate, or one bisection for an
        increasing formula slot (module docstring)."""
        slot = self.slots.get(e)
        return [] if slot is None else slot.visible_values(t)

    def ell(self, e: int, t: int) -> int:
        """Length of the visible strictly-increasing initial chain of slot e.

        Returns the largest l <= t such that the values on 0..l have all
        converged by stage t and form a strictly increasing chain, or -1 if
        the value on 0 has not converged.  Non-decreasing in t; tends to
        infinity over t iff the slot is total and increasing.
        """
        slot = self.slots.get(e)
        if slot is None:
            return -1
        chain = self._chains.get(e)
        if chain is None:
            chain = self._chains[e] = _ChainState()
        # extend the chain with what is resolvable at budget t.  An entry whose
        # effective time is past t is kept and ends the extension: a later
        # query with a larger budget resumes after it, and since cummax_eff
        # never decreases no entry after it can count at t
        values, cummax = chain.values, chain.cummax_eff
        while not chain.broken and (not cummax or cummax[-1] <= t):
            k = len(values)
            res = slot.raw(k, t)
            if res is None:
                break
            steps, value = res
            if k > 0 and value <= values[-1]:
                chain.broken = True
                break
            eff = max(steps, value)
            values.append(value)
            cummax.append(max(eff, cummax[-1]) if cummax else eff)
        # largest prefix whose every effective convergence time is <= t
        return bisect_right(cummax, t) - 1


def registry_from_config(config: dict) -> PhiRegistry:
    """Build a registry from a configuration dict (see DEFAULT_CONFIG)."""
    return PhiRegistry(config)


# The documented default family.  Index assignment is part of the run
# configuration; the acceptance runs rely on identity at 0 and doubling at 1.
# The program at index 7 doubles its input through an explicit move loop.
DEFAULT_CONFIG: dict = {
    "slots": [
        {"index": 0, "kind": "identity"},
        {"index": 1, "kind": "double"},
        {"index": 2, "kind": "affine", "shift": 3},
        {"index": 3, "kind": "square"},
        {"index": 4, "kind": "const", "value": 5},
        {"index": 5, "kind": "partial", "graph": {"0": 2, "1": 5, "2": 9}},
        {"index": 6, "kind": "diverge"},
        {
            "index": 7,
            "kind": "program",
            "total_increasing": True,
            "code": [
                ["dec", 0, 1, 3],
                ["inc", 1, 2],
                ["inc", 1, 0],
                ["dec", 1, 4, 5],
                ["inc", 0, 3],
                ["halt"],
            ],
        },
    ]
}
