import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from injurybench.phi import (
    DEFAULT_CONFIG,
    _ProgramSlot,
    config_digest,
    registry_from_config,
    validate_config,
)


def test_empty_config_everything_diverges():
    reg = registry_from_config({"slots": []})
    assert reg.step(0, 0, 100) is None
    assert reg.ell(0, 100) == -1
    assert reg.ell(99, 5) == -1  # unknown index behaves as a divergent slot


def test_convention_gate_on_identity():
    reg = registry_from_config({"slots": [{"index": 0, "kind": "identity"}]})
    assert reg.step(0, 3, 2) is None  # value 3 not visible before stage 3
    assert reg.step(0, 3, 3) == 3
    assert reg.step(0, 3, 10) == 3


def test_ell_identity_and_double():
    reg = registry_from_config(
        {"slots": [{"index": 0, "kind": "identity"}, {"index": 1, "kind": "double"}]}
    )
    for t in range(0, 30):
        assert reg.ell(0, t) == t
        assert reg.ell(1, t) == t // 2
    # non-monotone query order must agree with fresh computation
    assert reg.ell(0, 5) == 5
    assert reg.ell(1, 3) == 1


def test_ell_constant_slot():
    reg = registry_from_config({"slots": [{"index": 0, "kind": "const", "value": 5}]})
    assert reg.ell(0, 4) == -1
    for t in range(5, 12):
        assert reg.ell(0, t) == 0  # 5 = 5 breaks the strict increase at 1


def test_ell_partial_slot():
    reg = registry_from_config(
        {"slots": [{"index": 0, "kind": "partial", "graph": {"0": 2, "1": 5, "2": 9}}]}
    )
    assert reg.ell(0, 1) == -1
    assert reg.ell(0, 2) == 0
    assert reg.ell(0, 5) == 1
    assert reg.ell(0, 9) == 2
    assert reg.ell(0, 500) == 2  # the graph ends; the chain is stuck


def test_ell_monotone_and_bounded(registry):
    for e in sorted(registry.configured_indices()):
        previous = -1
        for t in range(0, 120):
            value = registry.ell(e, t)
            assert value >= previous
            assert value <= t
            previous = value


def test_ell_unbounded_for_increasing_slots(registry):
    for e in sorted(registry.total_increasing_indices()):
        assert registry.ell(e, 400) >= registry.ell(e, 200) >= registry.ell(e, 100)
        assert registry.ell(e, 400) > registry.ell(e, 100)


def test_step_respects_convention_everywhere(registry):
    for e in sorted(registry.configured_indices()):
        for n in range(0, 40):
            for t in (0, 3, 17, 64):
                v = registry.step(e, n, t)
                assert v is None or v <= t


def test_chain_value_visible_at_chain_length(registry):
    # the value at the chain tip is itself visible no later than the stage
    for e in sorted(registry.configured_indices()):
        for t in (1, 9, 33, 101):
            l = registry.ell(e, t)
            if l >= 0:
                v = registry.step(e, l, t)
                assert v is not None and v <= t


# a program with transfer loops (the default slot 7) and two without one:
# n + 2 in two steps, off the end, and a loop that never halts
_GATE_CONFIGS = {
    "default": DEFAULT_CONFIG,
    "programs": {"slots": [
        {"index": 0, "kind": "program", "code": DEFAULT_CONFIG["slots"][7]["code"]},
        {"index": 1, "kind": "program", "code": [["inc", 0, 1], ["inc", 0, 2]]},
        {"index": 2, "kind": "program", "code": [["inc", 1, 0]]},
    ]},
}


def _gate_from_raw(config, e, n, t):
    """The uniform gate written out from ``raw`` on a fresh registry."""
    slot = registry_from_config(config).slots.get(e)
    res = None if slot is None else slot.raw(n, t)
    if res is None:
        return None
    steps, value = res
    return None if steps > t or value > t else value


@pytest.mark.parametrize("name", sorted(_GATE_CONFIGS))
def test_step_is_the_gate_on_raw_in_any_query_order(name):
    # the engine and the replay oracle share step, so the cross-check cannot
    # see a fault in it; every slot kind must agree with the gate on raw,
    # queried in increasing t and shuffled, since program slots keep state
    config = _GATE_CONFIGS[name]
    indices = [entry["index"] for entry in config["slots"]] + [99]
    queries = [(e, n, t) for e in indices for n in range(16) for t in range(-1, 41)]
    expected = {q: _gate_from_raw(config, *q) for q in queries}
    assert any(v is None for v in expected.values())
    assert any(v is not None for v in expected.values())
    shuffled = list(queries)
    random.Random(13).shuffle(shuffled)
    for order in (queries, shuffled):
        registry = registry_from_config(config)
        for q in order:
            assert registry.step(*q) == expected[q], q


def _chain_from_step(config, e, t):
    """The chain length written out from ``step`` on a fresh registry: the
    largest l <= t with values on 0..l visible at t and strictly increasing."""
    registry = registry_from_config(config)
    l, prev = -1, None
    for k in range(t + 1):
        v = registry.step(e, k, t)
        if v is None or (prev is not None and v <= prev):
            break
        l, prev = k, v
    return l


_ELL_CONFIGS = {
    **_GATE_CONFIGS,
    # the chain breaks at input 2 (3 after 4), long before the graph ends
    "partial-break": {"slots": [
        {"index": 0, "kind": "partial", "graph": {"0": 1, "1": 4, "2": 3, "3": 7}},
    ]},
    # five steps on every input, then off the end with the input: from t = 5
    # on the chain's effective times are its step count, not its values
    "fixed-cost": {"slots": [
        {"index": 0, "kind": "program", "code": [["inc", 1, i + 1] for i in range(5)]},
    ]},
}


@pytest.mark.parametrize("name", sorted(_ELL_CONFIGS))
def test_ell_is_the_chain_from_step_in_any_query_order(name):
    # ell keeps chain state across queries, so it must agree with the chain
    # written out from step whatever the order of earlier queries
    config = _ELL_CONFIGS[name]
    indices = [entry["index"] for entry in config["slots"]] + [99]
    increasing = [(e, t) for t in range(-1, 81) for e in indices for _ in range(2)]
    expected = {q: _chain_from_step(config, *q) for q in increasing}
    assert len(set(expected.values())) >= 3
    shuffled = list(increasing)
    random.Random(29).shuffle(shuffled)
    for order in (increasing, increasing[::-1], shuffled):
        registry = registry_from_config(config)
        for q in order:
            assert registry.ell(*q) == expected[q], q


def _values_from_step(config, e, t):
    """The ranged chain query written out from ``step`` on a fresh registry:
    the values on 0, 1, 2, ... through t, up to the first None or the first
    value not above the one before."""
    registry = registry_from_config(config)
    values = []
    for n in range(t + 1):
        v = registry.step(e, n, t)
        if v is None or (values and v <= values[-1]):
            break
        values.append(v)
    return values


@pytest.mark.parametrize("name", sorted(_ELL_CONFIGS))
def test_visible_values_is_step_up_to_the_first_none_in_any_query_order(name):
    # every loop over one slot's inputs is visible_values; each slot kind's
    # answer, and an empty slot's, must be the step answers on 0, 1, 2, ...
    # up to the first None or the first value not above the one before
    # (through input t), whatever the query order and whatever the value
    # memo already holds: a ranged query first, and one after a step query
    # far past t
    config = _ELL_CONFIGS[name]
    indices = [entry["index"] for entry in config["slots"]] + [99]
    queries = [(e, t) for e in indices for t in range(-1, 41)]
    expected = {q: _values_from_step(config, *q) for q in queries}
    assert any(len(v) > 1 for v in expected.values())
    shuffled = list(queries)
    random.Random(31).shuffle(shuffled)
    for order in (queries, queries[::-1], shuffled):
        registry = registry_from_config(config)
        for q in order:
            assert list(registry.visible_values(*q)) == expected[q], q
    registry = registry_from_config(config)
    for e in indices:
        registry.step(e, 60, 60)
        for t in (-1, 0, 3, 12):
            assert list(registry.visible_values(e, t)) == expected[e, t], (e, t)


def test_ell_keeps_no_chain_entry_past_the_first_invisible_one():
    registry = registry_from_config(DEFAULT_CONFIG)
    for _ in range(50):
        registry.ell(0, 100)
    assert len(registry._chains[0].values) <= registry.ell(0, 100) + 2


def test_duplicate_slot_index_rejected():
    with pytest.raises(ValueError):
        registry_from_config(
            {"slots": [{"index": 0, "kind": "identity"}, {"index": 0, "kind": "diverge"}]}
        )


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        registry_from_config({"slots": [{"index": 0, "kind": "mystery"}]})


def test_program_slot_doubles():
    reg = registry_from_config(DEFAULT_CONFIG)
    for n in range(0, 12):
        # eff time is the 7n+3 step count, so query with a large budget
        assert reg.step(7, n, 1000) == 2 * n
    assert reg.step(7, 4, 5) is None  # not enough budget yet


def test_program_validation():
    with pytest.raises(ValueError):
        registry_from_config(
            {"slots": [{"index": 0, "kind": "program", "code": [["inc", 0]]}]}
        )


def test_classifications(registry):
    assert registry.total_increasing_indices() == frozenset({0, 1, 2, 3, 7})
    assert registry.classification(4) is False
    assert registry.classification(6) is False
    assert registry.classification(12) is False  # empty slot


def test_digest_stable():
    assert config_digest(registry_from_config(DEFAULT_CONFIG).config) == config_digest(registry_from_config(DEFAULT_CONFIG).config)
    assert DEFAULT_CONFIG["slots"][0]["kind"] == "identity"


def test_config_digest_of_string_keyed_configs_unchanged():
    # the digest over the JSON form equals the plain sorted dump for every
    # config whose keys are already strings, so recorded digests stay valid
    for config in (DEFAULT_CONFIG, {"slots": []},
                   {"slots": [{"index": 5, "kind": "partial", "graph": {"10": 11, "2": 3}}]}):
        plain = json.dumps(config, sort_keys=True, separators=(",", ":"))
        assert config_digest(config) == hashlib.sha256(plain.encode("utf-8")).hexdigest()


def test_config_digest_ignores_key_type():
    as_ints = {"slots": [{"index": 5, "kind": "partial", "graph": {2: 3, 10: 11}}]}
    as_strs = {"slots": [{"index": 5, "kind": "partial", "graph": {"2": 3, "10": 11}}]}
    assert config_digest(as_ints) == config_digest(as_strs)


def _slot(**fields):
    return {"slots": [{"index": 0, "kind": "identity", **fields}]}


@pytest.mark.parametrize("config, message", [
    ([1, 2], "must be an object"),
    ({"slots": {"index": 0}}, "'slots' must be a list"),
    ({"slots": [3]}, "slot 0 is not an object"),
    ({"slots": [{"kind": "identity"}]}, "has no 'index'"),
    (_slot(index="0"), "'index' must be a natural number"),
    (_slot(index=True), "'index' must be a natural number"),
    (_slot(index=-2), "'index' must be a natural number"),
    (_slot(kind="mystery"), "unknown slot kind"),
    (_slot(kind=["identity"]), "unknown slot kind"),
    (_slot(kind="affine"), "has no 'shift'"),
    (_slot(kind="affine", shift=-3), "'shift' must be a natural number"),
    (_slot(kind="const", value=-1), "'value' must be a natural number"),
    (_slot(kind="const", value=2.0), "'value' must be a natural number"),
    (_slot(kind="partial", graph={"0": -1}), "'graph' must be an object mapping"),
    (_slot(kind="partial", graph={"-1": 3}), "'graph' must be an object mapping"),
    (_slot(kind="partial", graph={"x": 3}), "'graph' must be an object mapping"),
    (_slot(kind="partial", graph=[[0, 1]]), "'graph' must be an object mapping"),
    (_slot(kind="program", code=[["halt"]], total_increasing=1), "'total_increasing'"),
    (_slot(kind="program", code="halt"), "'code' must be a list"),
    (_slot(kind="program", code=[["jmp", 0]]), "bad instruction"),
    (_slot(kind="program", code=[["inc", "x", 1]]), "bad instruction"),
    (_slot(kind="program", code=[["dec", 0, -1, 0]]), "bad instruction"),
    (_slot(kind="program", code=[[]]), "bad instruction"),
    # keys that no code reads
    ({"slot": [{"index": 0, "kind": "identity"}]}, "registry config takes no key 'slot'"),
    ({"slots": [], "version": 1}, "registry config takes no key 'version'"),
    (_slot(total_increasing=False), "slot 0: kind 'identity' takes no key 'total_increasing'"),
    (_slot(total_increasing=None), "slot 0: kind 'identity' takes no key 'total_increasing'"),
    (_slot(kind="affine", shift=3, value=1), "slot 0: kind 'affine' takes no key 'value'"),
    (_slot(kind="partial", graph={}, code=[]), "slot 0: kind 'partial' takes no key 'code'"),
])
def test_validate_config_rejects(config, message):
    with pytest.raises(ValueError, match=message):
        validate_config(config)
    with pytest.raises(ValueError, match=message):
        registry_from_config(config)


def test_validate_config_accepts_natural_values():
    validate_config(DEFAULT_CONFIG)
    validate_config({"slots": [{"index": 3, "kind": "partial", "graph": {2: 3, "10": 0}},
                               {"index": 0, "kind": "const", "value": 0}]})


@pytest.mark.parametrize("declared", [True, False, None, "absent"])
def test_program_slot_takes_total_increasing(declared):
    entry = {"index": 0, "kind": "program", "code": [["halt"]]}
    if declared != "absent":
        entry["total_increasing"] = declared
    registry = registry_from_config({"slots": [entry]})
    assert registry.classification(0) is (None if declared == "absent" else declared)


# ---------------------------------------------------------------------------
# Transfer-loop acceleration against plain stepping


class _SteppedProgramSlot(_ProgramSlot):
    """Reference: the register machine stepped one instruction at a time."""

    def raw(self, n: int, budget: int):
        state = self._state.get(n)
        if state is None:
            state = self._state[n] = [{0: n}, 0, 0, False, None]
        regs, pc, steps, halted, value = state
        if halted:
            return (steps, value) if steps <= budget else None
        code = self._code
        while True:
            if pc >= len(code):
                halted, value = True, regs.get(0, 0)
                break
            if steps >= budget:
                break
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
        state[1], state[2], state[3], state[4] = pc, steps, halted, value
        return (steps, value) if halted else None


# n * n: copy R0 into R1 and R2; for each unit of R1, move R2 into R0 and R3
# (inner transfer loop at 4), then move R3 back into R2 (transfer loop at 7).
# The outer loop at 3 runs decs in its body, so it is not a transfer loop.
_SQUARE = [
    ["dec", 0, 1, 3], ["inc", 1, 2], ["inc", 2, 0],
    ["dec", 1, 4, 9],
    ["dec", 2, 5, 7], ["inc", 0, 6], ["inc", 3, 4],
    ["dec", 3, 8, 3], ["inc", 2, 7],
    ["halt"],
]


def test_transfer_loops_detected():
    doubling = DEFAULT_CONFIG["slots"][7]["code"]
    assert _ProgramSlot(doubling, True)._loops == {
        0: (0, 3, ((1, 2),)),  # R0 -> R1, two incs per iteration
        3: (1, 2, ((0, 1),)),  # R1 -> R0
    }
    square = _ProgramSlot(_SQUARE, True)
    assert square._loops == {
        0: (0, 3, ((1, 1), (2, 1))),
        4: (2, 3, ((0, 1), (3, 1))),
        7: (3, 2, ((2, 1),)),
    }
    assert [square.raw(n, 10_000)[1] for n in range(8)] == [n * n for n in range(8)]
    # a dec that jumps to itself drains its register: an empty body
    assert _ProgramSlot([["dec", 0, 0, 1], ["halt"]], None)._loops == {0: (0, 1, ())}
    # an inc of r inside r's own loop, a body that runs off the end, and a
    # cycle of incs that never returns to the dec are not transfer loops
    assert _ProgramSlot([["dec", 0, 1, 2], ["inc", 0, 0]], None)._loops == {}
    assert _ProgramSlot([["dec", 0, 1, 2], ["inc", 1, 2]], None)._loops == {}
    assert _ProgramSlot([["dec", 0, 1, 3], ["inc", 1, 2], ["inc", 2, 1]], None)._loops == {}


@st.composite
def _programs(draw):
    length = draw(st.integers(1, 8))
    reg = st.integers(0, 3)
    target = st.integers(0, length)  # `length` runs off the end
    instr = st.one_of(
        st.tuples(st.just("inc"), reg, target),
        st.tuples(st.just("dec"), reg, target, target),
        st.just(("halt",)),
    )
    return [list(i) for i in draw(st.lists(instr, min_size=length, max_size=length))]


@settings(max_examples=200, deadline=None)
@given(
    code=st.one_of(_programs(), st.sampled_from([DEFAULT_CONFIG["slots"][7]["code"], _SQUARE])),
    n=st.integers(0, 40),
    budgets=st.lists(st.integers(0, 5000), min_size=1, max_size=5).map(sorted),
)
def test_accelerated_program_matches_stepping(code, n, budgets):
    fast, plain = _ProgramSlot(code, None), _SteppedProgramSlot(code, None)
    for budget in budgets:
        assert fast.raw(n, budget) == plain.raw(n, budget)
        (regs, *rest), (plain_regs, *plain_rest) = fast._state[n], plain._state[n]
        assert rest == plain_rest  # pc, steps, halted, value
        assert {r: v for r, v in regs.items() if v} == {r: v for r, v in plain_regs.items() if v}
