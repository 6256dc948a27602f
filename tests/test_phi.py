import hashlib
import json

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
        while steps < budget:
            if pc >= len(code):
                halted, value = True, regs.get(0, 0)
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
