import json

import pytest

from injurybench.dyadic import ZERO
from injurybench.engine import run_a, run_b
from injurybench.phi import registry_from_config
from injurybench.strings import (
    REL_LEX,
    REL_LEX_OR_EXT,
    nu,
    region_contains,
    region_covers_right_of,
)
from injurybench.tracekit import (
    TraceIndex,
    TraceParseError,
    deserialize,
    read_sequence_csv,
    serialize,
    serialize_stamped,
    write_sequence_csv,
)
from conftest import MINIMAL_CONFIG


@pytest.fixture(scope="module")
def trace_a():
    return run_a(registry_from_config(MINIMAL_CONFIG), 30)


@pytest.fixture(scope="module")
def trace_b():
    return run_b(registry_from_config(MINIMAL_CONFIG), 30)


def test_region_membership():
    assert region_contains("0", REL_LEX, "1")
    assert not region_contains("0", REL_LEX, "00")
    assert not region_contains("0", REL_LEX, "0")
    assert region_contains("0", REL_LEX_OR_EXT, "00")
    assert region_contains("0", REL_LEX_OR_EXT, "1")
    assert not region_contains("0", REL_LEX_OR_EXT, "0")
    assert not region_contains("10", REL_LEX_OR_EXT, "0")


def test_region_coverage_of_right_set():
    # the region must contain every proper extension and everything lex-right
    assert region_covers_right_of("0", REL_LEX_OR_EXT, "0")
    assert region_covers_right_of("0", REL_LEX_OR_EXT, "01")  # anchor is a prefix
    assert region_covers_right_of("00", REL_LEX, "01")  # anchor strictly left
    assert not region_covers_right_of("0", REL_LEX, "0")  # misses extensions
    assert not region_covers_right_of("1", REL_LEX_OR_EXT, "0")  # anchor right


def _tree_less(sigma, tau):
    """Definition of sigma <_L tau: some rho with rho0 a prefix of sigma and
    rho1 a prefix of tau."""
    return any(sigma.startswith(sigma[:i] + "0") and tau.startswith(sigma[:i] + "1")
               for i in range(min(len(sigma), len(tau))))


def test_region_functions_match_definitions_exhaustively():
    words = [format(i, f"0{n}b") if n else "" for n in range(8) for i in range(1 << n)]
    for anchor in words:
        for sigma in words:
            left = _tree_less(anchor, sigma)
            proper_ext = len(anchor) < len(sigma) and sigma.startswith(anchor)
            case = (anchor, sigma)
            assert region_contains(anchor, REL_LEX, sigma) == left, case
            assert region_contains(anchor, REL_LEX_OR_EXT, sigma) == (left or proper_ext), case
            assert region_covers_right_of(anchor, REL_LEX, sigma) == left, case
            assert region_covers_right_of(anchor, REL_LEX_OR_EXT, sigma) == (
                left or proper_ext or anchor == sigma), case


def test_round_trip_tiny(trace_a):
    small = run_a(registry_from_config(MINIMAL_CONFIG), 1)
    assert deserialize(serialize(small)) == small


def test_round_trip_field_by_field(trace_a, trace_b):
    for trace in (trace_a, trace_b):
        clone = deserialize(serialize(trace))
        assert clone.engine == trace.engine
        assert clone.config == trace.config
        assert clone.x == trace.x
        assert clone.stages == trace.stages
        assert clone.digest() == trace.digest()


def test_digest_ignores_timestamp(trace_a):
    stamped, digest = serialize_stamped(trace_a, "2026-08-10T12:00:00+00:00")
    assert stamped != serialize(trace_a)
    assert deserialize(stamped).digest() == trace_a.digest() == digest


# a Python-built graph with int keys: 2 < 10 as ints, "10" < "2" as strings
INT_KEYED_CONFIG = {"slots": [
    {"index": 0, "kind": "identity"},
    {"index": 1, "kind": "partial", "graph": {2: 3, 10: 11}},
]}


@pytest.mark.parametrize("config", [MINIMAL_CONFIG, INT_KEYED_CONFIG],
                         ids=["string_keys", "int_keys"])
def test_serialize_stamped_adds_only_created_at(config):
    trace = run_b(registry_from_config(config), 25)
    stamp = "2026-08-10T12:00:00+00:00"
    data, digest = serialize_stamped(trace, stamp)
    plain = serialize(trace)
    head, records = data.split(b"\n", 1)
    plain_head, plain_records = plain.split(b"\n", 1)
    assert records == plain_records
    header = json.loads(head)
    assert header.pop("created_at") == stamp
    assert header == json.loads(plain_head)
    assert list(header) == sorted(header)
    assert digest == trace.digest()


def test_int_keyed_config_digest_survives_round_trip():
    trace = run_a(registry_from_config(INT_KEYED_CONFIG), 25)
    clone = deserialize(serialize(trace))
    assert clone.config == json.loads(json.dumps(INT_KEYED_CONFIG))
    assert clone.config_digest() == trace.config_digest()


def _with_header(trace, edit):
    head, body = serialize(trace).split(b"\n", 1)
    header = json.loads(head)
    edit(header)
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n" + body


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("phi_config_digest"),
    lambda h: h.update(phi_config_digest="0" * 64),
    lambda h: h.update(engine=["A"]),
    lambda h: h.update(version=True),
    lambda h: h.update(version=1.0),
], ids=["no_digest", "wrong_digest", "engine_list", "version_true", "version_float"])
def test_loader_rejects_bad_header(trace_a, edit):
    with pytest.raises(TraceParseError) as err:
        deserialize(_with_header(trace_a, edit))
    assert err.value.line == 1


@pytest.mark.parametrize("fld", ["p", ""])
def test_loader_rejects_unknown_parameter_fields(trace_a, fld):
    # "p" is engine B's pause flag, not a field of engine A
    def mutate(obj):
        obj["param_writes"].append(["1", fld, 5])
    data, line = _mutate_first(trace_a, lambda o: True, mutate)
    with pytest.raises(TraceParseError) as err:
        deserialize(data)
    assert err.value.line == line


def test_parse_errors_carry_line_numbers(trace_a):
    with pytest.raises(TraceParseError):
        deserialize(b"")
    data = serialize(trace_a).decode().split("\n")
    data[3] = "{broken"
    with pytest.raises(TraceParseError) as err:
        deserialize("\n".join(data).encode())
    assert err.value.line == 4

    # a jump on a non-jump action is rejected structurally
    lines = serialize(trace_a).decode().split("\n")
    bad = lines[1].replace('"jump":{"k":0,"m":"0"}', '"jump":{"k":1,"m":"1"}')
    assert bad != lines[1]
    lines[1] = bad
    with pytest.raises(TraceParseError):
        deserialize("\n".join(lines).encode())


def test_replay_params_defaults_and_regions(trace_a):
    index = TraceIndex(trace_a)
    # never-touched strategy reads its lazy defaults at time zero
    assert index.value("1011", "w", 0) == nu("1011")
    assert index.value("1011", "c", 0) == 0
    # stage 1 initialises every proper extension of the root
    assert index.value("1011", "w", 2) == nu("1011") + 1 + 2
    # explicit write carried over until the next event
    assert index.value("", "s", 5) == 1


def test_replay_matches_engine_writes(trace_a):
    # reading just before each recorded write yields a different older value
    index = TraceIndex(trace_a)
    for rec in trace_a.stages:
        for sigma, fld, value in rec.param_writes:
            before = index.value(sigma, fld, rec.t)
            after = index.value(sigma, fld, rec.t + 1)
            assert after == value
            assert before != value

    # changepoint timelines start at time 0 and are strictly increasing
    for sigma in index.written:
        for fld in ("c", "r", "w", "s"):
            times, values = index.changepoints(sigma, fld)
            assert times[0] == 0 and len(values) == len(times)
            assert times == sorted(set(times))


def test_jump_sum_equals_total(trace_a):
    total = ZERO
    for rec in trace_a.stages:
        total = total + rec.jump
    assert total == trace_a.x[-1] - trace_a.x[0]


def test_applied_is_prefix_chain(trace_a):
    rec = trace_a.stages[8]
    assert rec.applied == [rec.settled[:i] for i in range(len(rec.settled) + 1)]
    assert rec.applied[0] == ""
    assert rec.applied[-1] == rec.settled


def test_sequence_csv_round_trip(tmp_path, trace_a):
    path = tmp_path / "seq.csv"
    write_sequence_csv(trace_a.x, str(path))
    assert read_sequence_csv(str(path)) == trace_a.x


def test_unknown_field_rejected(trace_a):
    with pytest.raises(ValueError):
        TraceIndex(trace_a).value("", "q", 3)


def _mutate_first(trace, has_field, mutate):
    """Serialise the trace, apply ``mutate`` to the first stage record that
    ``has_field`` accepts, and return (bytes, 1-based line number)."""
    lines = serialize(trace).decode().rstrip("\n").split("\n")
    for i, line in enumerate(lines[1:], start=1):
        obj = json.loads(line)
        if has_field(obj):
            mutate(obj)
            lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
            return ("\n".join(lines) + "\n").encode(), i + 1
    raise AssertionError("no record carries the field")


def _set(path, value):
    def mutate(obj):
        *head, last = path
        for key in head:
            obj = obj[key]
        obj[last] = value
    return mutate


STRICT_WORD_MUTANTS = {
    "settled": (lambda o: True, _set(["settled"], "0a")),
    "action_sigma": (lambda o: True, _set(["action", "sigma"], 1)),
    "action_kind": (lambda o: True, _set(["action", "kind"], [])),
    "action_gamma": (lambda o: "gamma" in o["action"], _set(["action", "gamma"], "2")),
    "action_alpha": (lambda o: "alpha" in o["action"], _set(["action", "alpha"], "0 ")),
    "region_anchor": (lambda o: o["init_regions"], _set(["init_regions", 0, 0], "01x")),
    "write_strategy": (lambda o: o["param_writes"], _set(["param_writes", 0, 0], "λ")),
    "region_relation": (lambda o: o["init_regions"], _set(["init_regions", 0, 1], "lex_ge")),
}


@pytest.mark.parametrize("field", sorted(STRICT_WORD_MUTANTS))
def test_loader_rejects_non_binary_words_and_unknown_relations(trace_a, field):
    has_field, mutate = STRICT_WORD_MUTANTS[field]
    data, line = _mutate_first(trace_a, has_field, mutate)
    with pytest.raises(TraceParseError) as err:
        deserialize(data)
    assert err.value.line == line


# a boolean, float or string where the loader needs a JSON integer
INTEGER_MUTANTS = {
    "stage_number": (lambda o: o["t"] == 1, _set(["t"], True)),
    "write_value_float": (lambda o: o["param_writes"], _set(["param_writes", 0, 2], 1.5)),
    "write_value_true": (lambda o: o["param_writes"], _set(["param_writes", 0, 2], True)),
    "action_counter": (lambda o: "counter" in o["action"], _set(["action", "counter"], 53.0)),
    "action_k": (lambda o: "k" in o["action"], _set(["action", "k"], True)),
    "action_exponent": (lambda o: "exponent" in o["action"], _set(["action", "exponent"], "7")),
    "jump_k": (lambda o: o["jump"]["k"] > 0, _set(["jump", "k"], 1.0)),
}


@pytest.mark.parametrize("field", sorted(INTEGER_MUTANTS))
def test_loader_rejects_non_integer_numbers(trace_a, field):
    has_field, mutate = INTEGER_MUTANTS[field]
    data, line = _mutate_first(trace_a, has_field, mutate)
    with pytest.raises(TraceParseError) as err:
        deserialize(data)
    assert err.value.line == line
    assert "\n" not in str(err.value)
