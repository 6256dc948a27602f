import hashlib
import json
import random
import sys

import pytest

from injurybench import tracekit
from injurybench.dyadic import MAX_EXPONENT, ZERO, Dyadic, pow2
from injurybench.engine import EngineState, run_engine
from injurybench.phi import DEFAULT_CONFIG, config_digest, registry_from_config
from injurybench.strings import (
    REL_LEX,
    REL_LEX_OR_EXT,
    nu,
    region_contains,
    region_covers_right_of,
    region_start,
)
from injurybench.tracekit import (
    FLAG_FIELDS,
    JUMP_KINDS,
    Action,
    TOP_OUT,
    StageRecord,
    Trace,
    TraceIndex,
    TraceParseError,
    deserialize,
    read_sequence_csv,
    serialize,
    serialize_stamped,
    write_sequence_csv,
)
from conftest import MINIMAL_CONFIG
from mutants import edit_header, set_path
from test_replay import (DEEP_CONFIG, FIELDS, RESPLIT_CONFIG, full_scan_read, random_history,
                         stage_writes)


@pytest.fixture(scope="module")
def trace_a():
    return run_engine(EngineState(registry_from_config(MINIMAL_CONFIG), "A"), 30)


@pytest.fixture(scope="module")
def trace_b():
    return run_engine(EngineState(registry_from_config(MINIMAL_CONFIG), "B"), 30)


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
            # a region is the native-order suffix from its start word, and
            # it covers the set right of sigma iff it starts by sigma + "0"
            for rel, member, covers in (
                    (REL_LEX, left, left),
                    (REL_LEX_OR_EXT, left or proper_ext, left or proper_ext or anchor == sigma)):
                start = region_start(anchor, rel)
                assert (sigma >= start) == member, (case, rel)
                assert (start <= sigma + "0") == covers, (case, rel)


def test_initialisations_are_the_stages_of_every_containing_region(trace_a):
    # the index tests each distinct region once and merges the stage lists;
    # the stages must be those with a region containing sigma, each once,
    # also where a stage has several regions or repeats one
    rng = random.Random(29)
    words = [""] + [format(i, f"0{n}b") for n in range(1, 5) for i in range(1 << n)]
    relations = (REL_LEX, REL_LEX_OR_EXT)
    stages = [rec._replace(init_regions=tuple(
        (rng.choice(words[:7]), rng.choice(relations)) for _ in range(rng.randint(0, 3))))
        for rec in trace_a.stages]
    index = TraceIndex(Trace(engine="A", config=trace_a.config, stages=stages, x=trace_a.x))
    for sigma in words:
        assert index.initialisations(sigma) == [
            rec.t for rec in stages
            if any(region_contains(anchor, rel, sigma) for anchor, rel in rec.init_regions)]


def test_round_trip_tiny(trace_a):
    small = run_engine(EngineState(registry_from_config(MINIMAL_CONFIG), "A"), 1)
    assert deserialize(serialize(small)) == small


def test_round_trip_field_by_field(trace_a, trace_b):
    for trace in (trace_a, trace_b):
        clone = deserialize(serialize(trace))
        assert clone.engine == trace.engine
        assert clone.config == trace.config
        assert clone.x == trace.x
        assert clone.stages == trace.stages
        assert serialize(clone) == serialize(trace)


def test_trace_equality_compares_engine_config_stages_and_x(trace_a, trace_b):
    clone = deserialize(serialize(trace_a))
    assert clone == trace_a and not clone != trace_a

    def variant(**changes):
        fields = {"engine": clone.engine, "config": clone.config,
                  "stages": clone.stages, "x": clone.x}
        return Trace(**{**fields, **changes})

    assert variant() == trace_a
    assert variant(x=clone.x[:-1] + [clone.x[-1] + pow2(-60)]) != trace_a
    assert variant(stages=clone.stages[:-1]) != trace_a
    assert variant(engine="B") != trace_a
    assert variant(config=DEFAULT_CONFIG) != trace_a
    assert trace_a != trace_b
    assert (trace_a == object()) is False
    assert (trace_a != object()) is True
    with pytest.raises(TypeError):
        hash(trace_a)


def test_digest_ignores_timestamp(trace_a):
    stamped, digest = serialize_stamped(trace_a, "2026-08-10T12:00:00+00:00")
    assert stamped != serialize(trace_a)
    plain = serialize(trace_a)
    assert serialize(deserialize(stamped)) == plain
    assert hashlib.sha256(plain).hexdigest() == digest


# a Python-built graph with int keys: 2 < 10 as ints, "10" < "2" as strings
INT_KEYED_CONFIG = {"slots": [
    {"index": 0, "kind": "identity"},
    {"index": 1, "kind": "partial", "graph": {2: 3, 10: 11}},
]}


@pytest.mark.parametrize("config", [MINIMAL_CONFIG, INT_KEYED_CONFIG],
                         ids=["string_keys", "int_keys"])
def test_serialize_stamped_adds_only_created_at(config):
    trace = run_engine(EngineState(registry_from_config(config), "B"), 25)
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
    assert digest == hashlib.sha256(plain).hexdigest()


def test_int_keyed_config_digest_survives_round_trip():
    trace = run_engine(EngineState(registry_from_config(INT_KEYED_CONFIG), "A"), 25)
    clone = deserialize(serialize(trace))
    assert clone.config == json.loads(json.dumps(INT_KEYED_CONFIG))
    assert config_digest(clone.config) == config_digest(trace.config)


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("phi_config_digest"),
    lambda h: h.update(phi_config_digest="0" * 64),
    lambda h: h.update(engine=["A"]),
    lambda h: h.update(version=True),
    lambda h: h.update(version=1.0),
], ids=["no_digest", "wrong_digest", "engine_list", "version_true", "version_float"])
def test_loader_rejects_bad_header(trace_a, edit):
    with pytest.raises(TraceParseError) as err:
        deserialize(edit_header(serialize(trace_a), edit))
    assert err.value.line == 1


def test_loader_rejects_a_header_without_stages(trace_a):
    # the engine runs at least one stage; a trace of none once reached the
    # checkers, which failed on a window the user never passed
    head = json.loads(serialize(trace_a).split(b"\n", 1)[0])
    head["T"] = 0
    with pytest.raises(TraceParseError) as err:
        deserialize(json.dumps(head, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    assert str(err.value) == "line 1: T=0 is not a positive integer"


def test_loader_validates_the_embedded_config(trace_a):
    # a config no registry can be built from once loaded, and only the
    # checks that build the registry refused it
    head, rest = serialize(trace_a).split(b"\n", 1)
    header = json.loads(head)
    header["phi_config"] = {"slot": [{"index": 0, "kind": "identity"}]}
    header["phi_config_digest"] = config_digest(header["phi_config"])
    with pytest.raises(TraceParseError) as err:
        deserialize(json.dumps(header).encode() + b"\n" + rest)
    assert str(err.value) == "registry config takes no key 'slot'"
    assert err.value.line is None


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


def test_parse_errors_count_blank_lines():
    # the line number is the line in the file, blank lines included
    trace = run_engine(EngineState(registry_from_config(DEFAULT_CONFIG), "A"), 10)
    head, *records = serialize(trace).decode().rstrip("\n").split("\n")
    assert deserialize(("\n".join([head, "", *records]) + "\n").encode()) == trace
    obj = json.loads(records[2])
    obj["t"] = True
    records[2] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    lines = [head, "", *records]
    assert lines[4].startswith('{') and '"t":true' in lines[4]  # file line 5
    with pytest.raises(TraceParseError, match="line 5: True is not an integer") as err:
        deserialize(("\n".join(lines) + "\n").encode())
    assert err.value.line == 5
    # a header after a blank line is named by its own line too
    with pytest.raises(TraceParseError) as err:
        deserialize(("\n  \n" + head.replace('"engine":"A"', '"engine":"Q"')).encode())
    assert err.value.line == 3


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
    # the exponent cap admits its own value and nothing past it
    write_sequence_csv([pow2(-MAX_EXPONENT)], str(path))
    assert read_sequence_csv(str(path)) == [pow2(-MAX_EXPONENT)]
    write_sequence_csv([Dyadic(1, MAX_EXPONENT + 1)], str(path))
    with pytest.raises(ValueError, match=f"exponent {MAX_EXPONENT + 1} outside"):
        read_sequence_csv(str(path))


def test_sequence_csv_writes_mantissas_past_the_int_text_limit(tmp_path):
    # 10**5000 + 1 has 5001 decimal digits, past the 4300 to which Python
    # limits int-to-text conversion by default
    wide = Dyadic(10**5000 + 1, 3)
    digits = "1" + "0" * 4999 + "1"
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    before = get_limit() if get_limit else None
    path = tmp_path / "seq.csv"
    write_sequence_csv([ZERO, wide, -wide], str(path))
    rows = ["0,0,0", f"1,{digits},3", f"2,-{digits},3", ""]
    assert path.read_text().split("\n")[1:] == rows
    with pytest.raises(OSError):
        write_sequence_csv([wide], str(tmp_path / "missing" / "seq.csv"))
    if not before:
        return  # an interpreter without the limit reads the file back
    assert get_limit() == before
    # the least limit Python allows is 640 digits
    sys.set_int_max_str_digits(640)
    try:
        write_sequence_csv([ZERO, wide, -wide], str(tmp_path / "low.csv"))
        assert get_limit() == 640
    finally:
        sys.set_int_max_str_digits(before)
    assert (tmp_path / "low.csv").read_text().split("\n")[1:] == rows
    # the reader keeps the limit as its guard on input
    with pytest.raises(ValueError, match="line 3: Exceeds the limit") as err:
        read_sequence_csv(str(path))
    assert "\n" not in str(err.value)


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


STRICT_WORD_MUTANTS = {
    "settled": (lambda o: True, set_path("settled", value="0a")),
    "action_sigma": (lambda o: True, set_path("action", "sigma", value=1)),
    "action_kind": (lambda o: True, set_path("action", "kind", value=[])),
    "action_gamma": (lambda o: "gamma" in o["action"], set_path("action", "gamma", value="2")),
    "action_alpha": (lambda o: "alpha" in o["action"], set_path("action", "alpha", value="0 ")),
    "region_anchor": (lambda o: o["init_regions"], set_path("init_regions", 0, 0, value="01x")),
    "write_strategy": (lambda o: o["param_writes"], set_path("param_writes", 0, 0, value="λ")),
    "region_relation": (lambda o: o["init_regions"],
                        set_path("init_regions", 0, 1, value="lex_ge")),
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
    "stage_number": (lambda o: o["t"] == 1, set_path("t", value=True)),
    "write_value_float": (lambda o: o["param_writes"], set_path("param_writes", 0, 2, value=1.5)),
    "write_value_true": (lambda o: o["param_writes"], set_path("param_writes", 0, 2, value=True)),
    "action_counter": (lambda o: "counter" in o["action"],
                       set_path("action", "counter", value=53.0)),
    "action_k": (lambda o: "k" in o["action"], set_path("action", "k", value=True)),
    "action_exponent": (lambda o: "exponent" in o["action"],
                        set_path("action", "exponent", value="7")),
    "jump_k": (lambda o: o["jump"]["k"] > 0, set_path("jump", "k", value=1.0)),
}


@pytest.mark.parametrize("field", sorted(INTEGER_MUTANTS))
def test_loader_rejects_non_integer_numbers(trace_a, field):
    has_field, mutate = INTEGER_MUTANTS[field]
    data, line = _mutate_first(trace_a, has_field, mutate)
    with pytest.raises(TraceParseError) as err:
        deserialize(data)
    assert err.value.line == line
    assert "\n" not in str(err.value)


def _scale_jump(factor: Dyadic):
    def mutate(obj):
        obj["jump"] = (Dyadic.from_json(obj["jump"]) * factor).to_json()
    return mutate


def _shift_exponent(shift: int):
    def mutate(obj):
        obj["action"]["exponent"] += shift
    return mutate


# a jump action whose exponent and jump disagree: the record states two jumps
EXPONENT_MISMATCHES = {
    "jump_three_halves": _scale_jump(Dyadic(3, 1)),
    "jump_five": set_path("jump", value={"m": "5", "k": 0}),
    "exponent_plus_one": _shift_exponent(1),
    "exponent_minus_one": _shift_exponent(-1),
    "exponent_absent": lambda obj: obj["action"].pop("exponent"),
}


@pytest.mark.parametrize("edit", sorted(EXPONENT_MISMATCHES))
def test_loader_rejects_a_jump_that_its_exponent_does_not_state(trace_a, edit):
    data, line = _mutate_first(trace_a, lambda o: o["jump"]["k"] > 0, EXPONENT_MISMATCHES[edit])
    with pytest.raises(TraceParseError, match=r"is not 2\*\*-exponent") as err:
        deserialize(data)
    assert err.value.line == line
    assert "\n" not in str(err.value)


# edits that the writer would write back as another JSON value: each
# dropped a key, or read a null or a non-list as absent or empty
REWRITTEN_EDITS = {
    "sigma_absent": (lambda o: True, lambda obj: obj["action"].pop("sigma")),
    **{f"{key}_null": (lambda o: True, set_path("action", key, value=None))
       for key in ("gamma", "counter", "alpha", "k", "exponent")},
    "param_writes_string": (lambda o: True, set_path("param_writes", value="")),
    "init_regions_string": (lambda o: True, set_path("init_regions", value="")),
    "region_object": (lambda o: o["init_regions"],
                      set_path("init_regions", 0, value={"": 0, "lex_gt": 0})),
    "record_key": (lambda o: True, set_path("x", value=0)),
    "action_key": (lambda o: True, set_path("action", "x", value=0)),
}


@pytest.mark.parametrize("edit", sorted(REWRITTEN_EDITS))
def test_loader_rejects_what_the_writer_would_write_as_another_value(trace_a, edit):
    has_field, mutate = REWRITTEN_EDITS[edit]
    data, line = _mutate_first(trace_a, has_field, mutate)
    with pytest.raises(TraceParseError) as err:
        deserialize(data)
    assert err.value.line == line
    assert "\n" not in str(err.value)


def _repeat_first(trace, old: str, new: str):
    """Serialise the trace and write ``new`` in place of the first ``old``
    on its first record line that holds it; return (bytes, line number)."""
    lines = serialize(trace).decode().rstrip("\n").split("\n")
    i = next(i for i, line in enumerate(lines) if i and old in line)
    lines[i] = lines[i].replace(old, new, 1)
    return ("\n".join(lines) + "\n").encode(), i + 1


# a key written twice in one object: the decoder keeps the last value, so
# the writer would drop the first.  The record, the action and the jump each
# repeat a key, the first value hostile or the one the engine wrote
REPEATED_KEYS = {
    "settled": ('"settled":', '"settled":"111","settled":'),
    "kind": ('"kind":', '"kind":"top_out","kind":'),
    "m": ('"m":"0"', '"m":"0","m":"0"'),
    "t": ('"t":', '"t":[],"t":'),
}


@pytest.mark.parametrize("key", sorted(REPEATED_KEYS))
def test_loader_names_a_repeated_key(trace_a, key):
    data, line = _repeat_first(trace_a, *REPEATED_KEYS[key])
    with pytest.raises(TraceParseError) as err:
        deserialize(data)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: repeated key {key!r}"


def test_colons_in_the_action_kind_hide_no_repeated_key(trace_a):
    # a colon inside a string is no key separator: a kind with one, written
    # plain or escaped, loads, and an escaped one does not stand in for the
    # colon a repeated key adds
    for colon in (":", "\\u003a"):
        data, line = _repeat_first(trace_a, '"kind":"top_out"', f'"kind":"top{colon}out"')
        assert deserialize(data).stages[line - 2].action.kind == "top:out"
        hidden, _ = _repeat_first(trace_a, '"kind":"top_out"',
                                  f'"kind":"top{colon}out","sigma":"1"')
        with pytest.raises(TraceParseError, match="repeated key 'sigma'"):
            deserialize(hidden)


# ---------------------------------------------------------------------------
# The record writer against the JSON encoder

# every character class the encoder escapes apart from the plain ASCII ones:
# a quote, a backslash, a control character, a line separator that JSON
# allows raw but ASCII output escapes, and a character outside the BMP,
# written as a surrogate pair
ODD_TEXT = '"\\\x01\u2028\U0001F600'


def _encoder_line(rec: StageRecord) -> str:
    """A record's line as the JSON encoder writes it, the reference for
    tracekit._record_line: an action key only for a field the action uses."""
    action = {key: value for key, value in rec.action._asdict().items()
              if value is not None or key in ("kind", "sigma")}
    return json.dumps({"t": rec.t, "settled": rec.settled, "action": action,
                       "jump": rec.jump.to_json(), "init_regions": rec.init_regions,
                       "param_writes": rec.param_writes},
                      sort_keys=True, separators=(",", ":"))


def _assert_encoder_lines(trace: Trace) -> None:
    records = serialize(trace).decode("utf-8").rstrip("\n").split("\n")[1:]
    assert records == [_encoder_line(rec) for rec in trace.stages]


_WRITER_FAMILIES = {"default": DEFAULT_CONFIG, "resplit": RESPLIT_CONFIG, "deep": DEEP_CONFIG}


@pytest.mark.parametrize("engine", ["A", "B"])
@pytest.mark.parametrize("family", sorted(_WRITER_FAMILIES))
def test_record_lines_are_the_json_encoders_lines(family, engine):
    config = _WRITER_FAMILIES[family]
    _assert_encoder_lines(run_engine(EngineState(registry_from_config(config), engine), 300))


def test_record_line_quotes_every_string_as_the_encoder_does():
    # odd text in every string leaf, so an unquoted leaf shows
    def odd(name):
        return name + ODD_TEXT
    rec = StageRecord(
        t=7, settled=odd("settled"),
        action=Action(odd("kind"), odd("sigma"), odd("gamma"), 10**80, odd("alpha"), 3, 5),
        jump=Dyadic(1, 5),
        init_regions=((odd("anchor"), odd("rel")), ("0", "lex_gt")),
        param_writes=((odd("strategy"), odd("field"), 2**70), ("1", "c", 0)),
    )
    bare = rec._replace(action=Action(odd("kind"), odd("sigma")), jump=ZERO,
                        init_regions=(), param_writes=())
    for variant in (rec, bare):
        assert tracekit._record_line(variant) == _encoder_line(variant)
    # where the encoder would write a bool as true, the writer writes no JSON
    with pytest.raises(json.JSONDecodeError):
        json.loads(tracekit._record_line(rec._replace(t=True)))


def test_loaded_odd_action_kind_is_written_back_to_its_bytes(trace_a):
    # the loader accepts any string as a non-jump kind; JSON written with the
    # encoder's escapes comes back byte for byte
    data, line = _mutate_first(trace_a, lambda o: o["jump"]["m"] == "0",
                               set_path("action", "kind", value=ODD_TEXT + "é"))
    trace = deserialize(data)
    assert trace.stages[line - 2].action.kind == ODD_TEXT + "é"
    assert serialize(trace) == data


def test_serialize_calls_the_json_encoder_for_the_header_alone(monkeypatch):
    # a work count, not a timing: records never go through the encoder
    calls = 0
    original = tracekit._ENCODE

    def counting(obj):
        nonlocal calls
        calls += 1
        return original(obj)

    monkeypatch.setattr(tracekit, "_ENCODE", counting)
    registry = registry_from_config(DEFAULT_CONFIG)
    for T in (1, 2, 300):
        trace = run_engine(EngineState(registry, "B"), T)
        calls = 0
        serialize(trace)
        assert calls == 1
        calls = 0
        serialize_stamped(trace, "2026-08-10T12:00:00+00:00")
        assert calls == 2  # the canonical header and the stamped one


# ---------------------------------------------------------------------------
# The one-pass record reader against a two-step reference loader


def _built_action(obj) -> Action:
    return Action(
        kind=obj["kind"],
        sigma=obj["sigma"],
        gamma=obj.get("gamma"),
        counter=obj.get("counter"),
        alpha=obj.get("alpha"),
        k=obj.get("k"),
        exponent=obj.get("exponent"),
    )


def _built_record(obj) -> StageRecord:
    return StageRecord(
        t=obj["t"],
        settled=obj["settled"],
        action=_built_action(obj["action"]),
        jump=Dyadic.from_json(obj["jump"]),
        init_regions=tuple((a, r) for a, r in obj["init_regions"]),
        param_writes=tuple((s, f, v) for s, f, v in obj["param_writes"]),
    )


_RECORD_KEYS = ("t", "settled", "action", "jump", "init_regions", "param_writes")
_OPTIONAL_ACTION_KEYS = ("gamma", "counter", "alpha", "k", "exponent")


def _walk_keys(obj, line: int) -> None:
    """Refuse the decoded record that the writer would not write back as the
    same JSON value: an unknown key, a null optional action field, or a
    region list, write list or region pair that is no JSON list."""
    for key in obj:
        if key not in _RECORD_KEYS:
            raise TraceParseError(f"unknown record key {key!r}", line=line)
    for key, value in obj["action"].items():
        if key in ("kind", "sigma"):
            continue
        if key not in _OPTIONAL_ACTION_KEYS:
            raise TraceParseError(f"unknown action key {key!r}", line=line)
        if value is None:
            raise TraceParseError(f"action field {key!r} is null", line=line)
    if not (isinstance(obj["init_regions"], list) and isinstance(obj["param_writes"], list)):
        raise TraceParseError("init_regions or param_writes is not a list", line=line)
    for pair in obj["init_regions"]:
        if not isinstance(pair, list):
            raise TraceParseError(f"region pair {pair!r} is not a list", line=line)


def _walk_repeats(text: str, line: int) -> None:
    """Refuse a line on which an object repeats a key: the decoder keeps
    its last value alone, which the writer would write back alone."""
    def pairs(items):
        keys = set()
        for key, _ in items:
            if key in keys:
                raise TraceParseError(f"repeated key {key!r}", line=line)
            keys.add(key)
        return dict(items)

    json.loads(text, object_pairs_hook=pairs)


def _walk_record(rec: StageRecord, fields, line: int) -> None:
    act = rec.action
    if not isinstance(act.kind, str):
        raise TraceParseError(f"action kind {act.kind!r} is not a string", line=line)
    numbers = [rec.t, *(v for _, _, v in rec.param_writes)]
    numbers += [v for v in (act.counter, act.k, act.exponent) if v is not None]
    for v in numbers:
        if type(v) is not int:
            raise TraceParseError(f"{v!r} is not an integer", line=line)
    words = [rec.settled, act.sigma]
    words += [w for w in (act.gamma, act.alpha) if w is not None]
    words += [anchor for anchor, _ in rec.init_regions]
    words += [sigma for sigma, _, _ in rec.param_writes]
    for word in words:
        if not isinstance(word, str) or word.strip("01"):
            raise TraceParseError(f"{word!r} is not a binary word", line=line)
    for _, rel in rec.init_regions:
        if rel not in (REL_LEX, REL_LEX_OR_EXT):
            raise TraceParseError(f"unknown region relation {rel!r}", line=line)
    for _, fld, v in rec.param_writes:
        if fld not in fields:
            raise TraceParseError(f"unknown parameter field {fld!r}", line=line)
        if v < 0:
            raise TraceParseError(f"parameter value {v} of {fld!r} is negative", line=line)


def _two_step_load(data: bytes) -> Trace:
    """The reference loader: json.loads each record line, build the record
    through keyword constructors, then walk the line's keys, the decoded
    keys and the built record to check them."""
    lines = [ln for ln in data.decode("utf-8").split("\n") if ln.strip()]
    if not lines:
        raise TraceParseError("empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"bad header: {exc}", line=1) from None
    tracekit._check_header(header)
    T = header["T"]
    if len(lines) - 1 != T:
        raise TraceParseError(f"header says T={T} but {len(lines) - 1} records present")
    fields = ("c", "r", "w", FLAG_FIELDS[header["engine"]])
    stages, x = [], [ZERO]
    for i, ln in enumerate(lines[1:], start=2):
        try:
            obj = json.loads(ln)
            rec = _built_record(obj)
        except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            raise TraceParseError(f"bad stage record: {exc}", line=i) from None
        _walk_repeats(ln, i)
        _walk_keys(obj, i)
        _walk_record(rec, fields, i)
        if rec.t != len(stages):
            raise TraceParseError(f"stage {rec.t} out of order", line=i)
        if (rec.jump.sign() > 0) != (rec.action.kind in JUMP_KINDS):
            raise TraceParseError(f"jump/action mismatch at stage {rec.t}", line=i)
        if rec.jump.sign() < 0:
            raise TraceParseError(f"negative jump at stage {rec.t}", line=i)
        if rec.action.kind in JUMP_KINDS and (rec.jump.m, rec.jump.k) != (1, rec.action.exponent):
            raise TraceParseError(f"jump at stage {rec.t} is not 2**-exponent "
                                  f"(exponent {rec.action.exponent!r})", line=i)
        if rec.jump.k > T:
            raise TraceParseError(
                f"jump exponent {rec.jump.k} at stage {rec.t} exceeds T={T}", line=i
            )
        stages.append(rec)
        x.append(x[-1] + rec.jump)
    return Trace(engine=header["engine"], config=header["phi_config"], stages=stages, x=x)


_HOSTILE = [
    True, False, None, 0, 1, 2, -1, 1.5, 2**70, -(2**70), "", "0", "1", "-1", "01", "0a", "λ",
    "ab", "lex_gt", "lex_gt_or_ext", "c", "r", "w", "s", "p", "q", "top_out",
    "threat_jump", "expansion_jump", [], [[]], ["1", "c"], ["1", "c", 5],
    ["1", "c", 5, 6], [["", "lex_gt"]], {}, {"ab": 1}, {"m": "1", "k": 3},
    {"m": "0", "k": 0}, {"m": "01", "k": 0}, {"m": "-1", "k": 0}, {"m": "3", "k": 2},
    {"m": "2", "k": 1}, {"m": "1", "k": 99},
]
# leaf values of the types an engine writes, so that some mutants are accepted
_INTS = [-1, 0, 1, 2, 5, 30, 31]
_STRINGS = ["", "0", "1", "01", "10", "lex_gt", "lex_gt_or_ext", "c", "r", "w", "s", "p",
            "top_out", "threat_jump", "threat_schedule", "expansion_jump",
            "expansion_delegate"]
_JUMPS = [{"m": "-1", "k": 0}, {"m": "-1", "k": 3}, {"m": "0", "k": 0}, {"m": "1", "k": 0},
          {"m": "1", "k": 2}, {"m": "1", "k": 30}, {"m": "1", "k": 31}]
_KEYS = ["t", "settled", "action", "jump", "kind", "sigma", "gamma", "counter", "alpha",
         "k", "exponent", "m", "x"]


def _nodes(obj, path=()):
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _nodes(value, path + (i,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _edit_record(obj, rng):
    """One seeded edit of a decoded record: replace, delete or add a node."""
    path = rng.choice(list(_nodes(obj)))
    if not path:
        return rng.choice(_HOSTILE)
    parent = _at(obj, path[:-1])
    node = parent[path[-1]]
    op = rng.randrange(3)
    if op == 0:
        parent[path[-1]] = rng.choice(_HOSTILE)
    elif op == 1:
        del parent[path[-1]]
    elif isinstance(node, dict):
        node[rng.choice(_KEYS)] = rng.choice(_HOSTILE)
    elif isinstance(node, list):
        node.append(rng.choice(_HOSTILE))
    else:
        parent[path[-1]] = rng.choice(_HOSTILE)
    return obj


def _unlisted(items: list):
    """The items of a list in a JSON value that is no list but iterates
    like one: a pair of words as an object keyed by them, any other list as
    the empty string."""
    if all(isinstance(item, str) for item in items):
        return dict.fromkeys(items, 0)
    return ""


def _record_mutant(data: bytes, rng) -> bytes:
    """One to three seeded edits of the record lines of a trace file."""
    head, *records = data.decode("utf-8").rstrip("\n").split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(records))
        kind = rng.randrange(10)
        if kind == 0:
            records[i] = "\ufeff" + records[i]
        elif kind == 1:
            records[i] = records[i][: rng.randrange(1, len(records[i]))]
        elif kind == 2:
            j = rng.randrange(len(records))
            records[i], records[j] = records[j], records[i]
        else:
            try:
                obj = json.loads(records[i])
            except json.JSONDecodeError:
                continue  # an earlier edit already broke this line
            if kind < 6:
                obj = _edit_record(obj, rng)
            elif kind < 8:
                leaves = [p for p in _nodes(obj) if p and isinstance(_at(obj, p), (int, str))]
                if leaves:
                    path = rng.choice(leaves)
                    pool = _STRINGS if isinstance(_at(obj, path), str) else _INTS
                    _at(obj, path[:-1])[path[-1]] = rng.choice(pool)
            elif kind == 8:
                if isinstance(obj, dict) and isinstance(obj.get("action"), dict):
                    obj["jump"] = rng.choice(_JUMPS)
                    obj["action"]["kind"] = rng.choice(_STRINGS[-5:])
                    # the exponent that states the drawn jump, so that a jump
                    # past T reaches the loader's bound on it
                    obj["action"]["exponent"] = obj["jump"]["k"]
            else:
                # a container in a form the writer would not write back: an
                # object with a null value at a key or at one key more, or a
                # list in another iterable form
                nodes = [p for p in _nodes(obj) if isinstance(_at(obj, p), (dict, list))]
                if nodes:
                    path = rng.choice(nodes)
                    old = _at(obj, path)
                    if isinstance(old, dict):
                        old[rng.choice(_KEYS)] = None
                    elif path:
                        _at(obj, path[:-1])[path[-1]] = _unlisted(old)
            records[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                                    ensure_ascii=rng.random() < 0.5)
    return ("\n".join([head, *records]) + "\n").encode("utf-8")


def _json_lines(data: bytes) -> list:
    return [json.loads(line) for line in data.decode("utf-8").split("\n") if line]


def _outcome(load, data: bytes):
    try:
        return load(data)
    except TraceParseError as exc:
        return exc.line, str(exc)


# the start of every rejection text the record reader can give
_REJECTIONS = ("bad stage record", "repeated key", "unknown record key", "unknown action key",
               "is null", "or param_writes is not a list", "region pair", "action kind",
               "is not an integer", "is not a binary word",
               "unknown region relation", "unknown parameter field", "is negative",
               "out of order", "jump/action mismatch", "negative jump", "is not 2**-exponent",
               "exceeds T")


def _decoded_edit(*edits):
    """A line edit that applies ``edits`` to the decoded record."""
    def edit_line(text):
        obj = json.loads(text)
        for edit in edits:
            edit(obj)
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return edit_line


def _add_write(write):
    return lambda obj: obj["param_writes"].append(write)


def _jump_action(kind, jump):
    return set_path("action", "kind", value=kind), set_path("jump", value=jump)


# one record edit per rejection text, for a trace of T = 30 stages: the
# seeded mutants reach some texts only two or three times
_FIXED_EDITS = {
    "bad stage record": lambda text: text[:-1],
    "repeated key": lambda text: text.replace('"settled":', '"settled":"1","settled":', 1),
    "unknown record key": _decoded_edit(set_path("x", value=0)),
    "unknown action key": _decoded_edit(set_path("action", "x", value=0)),
    "is null": _decoded_edit(set_path("action", "gamma", value=None)),
    "or param_writes is not a list": _decoded_edit(set_path("param_writes", value="")),
    "region pair": _decoded_edit(set_path("init_regions", value=[{"0": 0, "lex_gt": 0}])),
    "action kind": _decoded_edit(set_path("action", "kind", value=5)),
    "is not an integer": _decoded_edit(set_path("t", value=True)),
    "is not a binary word": _decoded_edit(set_path("settled", value="0a")),
    "unknown region relation": _decoded_edit(set_path("init_regions", value=[["0", "lex_ge"]])),
    "unknown parameter field": _decoded_edit(_add_write(["0", "q", 1])),
    "is negative": _decoded_edit(_add_write(["0", "c", -1])),
    "out of order": _decoded_edit(set_path("t", value=7)),
    "jump/action mismatch": _decoded_edit(*_jump_action("threat_jump", {"m": "0", "k": 0})),
    "negative jump": _decoded_edit(*_jump_action("top_out", {"m": "-1", "k": 0})),
    "is not 2**-exponent": _decoded_edit(*_jump_action("threat_jump", {"m": "1", "k": 2}),
                                         set_path("action", "exponent", value=3)),
    "exceeds T": _decoded_edit(*_jump_action("threat_jump", {"m": "1", "k": 31}),
                               set_path("action", "exponent", value=31)),
}


def _fixed_mutant(data: bytes, rejection: str) -> bytes:
    """The trace file with its fourth record, on line 5, edited to give
    ``rejection``."""
    lines = data.decode("utf-8").rstrip("\n").split("\n")
    lines[4] = _FIXED_EDITS[rejection](lines[4])
    return ("\n".join(lines) + "\n").encode("utf-8")


def _repeated_key_mutant(data: bytes, rng) -> bytes:
    """The trace file with one object of one record line holding one of its
    keys twice, the other value (an engine's leaf or a hostile one) first
    or last."""
    head, *records = data.decode("utf-8").rstrip("\n").split("\n")
    i = rng.randrange(len(records))
    obj = json.loads(records[i])
    path = rng.choice([p for p in _nodes(obj) if isinstance(_at(obj, p), dict)])
    node = _at(obj, path)
    key = json.dumps(rng.choice(sorted(node)))
    other = json.dumps(rng.choice(_HOSTILE + _INTS + _STRINGS + _JUMPS))
    text = json.dumps(node, sort_keys=True, separators=(",", ":"))
    if rng.random() < 0.5:
        text = f"{{{key}:{other},{text[1:]}"
    else:
        text = f"{text[:-1]},{key}:{other}}}"
    if path:
        marker = "@repeated@"
        _at(obj, path[:-1])[path[-1]] = marker
        line = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        text = line.replace(json.dumps(marker), text)
    records[i] = text
    return ("\n".join([head, *records]) + "\n").encode("utf-8")


@pytest.mark.parametrize("engine", ["A", "B"])
def test_record_reader_matches_two_step_loader_on_mutants(engine):
    # every mutant is accepted as the same trace, or refused on the same
    # line with the same text, as the two-step loader refused it; a mutant
    # with several defects names the one the two-step order reaches first
    trace = run_engine(EngineState(registry_from_config(DEFAULT_CONFIG), engine), 30)
    data = serialize(trace)
    assert deserialize(data) == _two_step_load(data) == trace
    seen = set()
    for rejection in _REJECTIONS:
        mutant = _fixed_mutant(data, rejection)
        got = _outcome(deserialize, mutant)
        assert got == _outcome(_two_step_load, mutant), rejection
        assert got[0] == 5 and rejection in got[1], got
        seen.add(rejection)
    rng = random.Random(12)
    repeat_rng = random.Random(21)
    mutants = [_record_mutant(data, rng) for _ in range(800)]
    mutants += [_repeated_key_mutant(data, repeat_rng) for _ in range(100)]
    accepted = 0
    for mutant in mutants:
        got = _outcome(deserialize, mutant)
        assert got == _outcome(_two_step_load, mutant), mutant
        if isinstance(got, Trace):
            accepted += 1
            # written back as the same JSON values, by the encoder's rules
            written = serialize(got)
            assert _json_lines(written) == _json_lines(mutant)
            _assert_encoder_lines(got)
        else:
            seen.update(r for r in _REJECTIONS if r in got[1])
    assert accepted >= 20
    assert seen == set(_REJECTIONS)


# near misses of the canonical zero jump {"m":"0","k":0}, which most engine A
# records carry; False == 0 and 0.0 == 0, so a zero test on values alone
# would accept the first two
ZERO_JUMP_NEAR_MISSES = {
    "k_false": {"m": "0", "k": False},
    "k_float": {"m": "0", "k": 0.0},
    "m_00": {"m": "00", "k": 0},
    "m_minus_0": {"m": "-0", "k": 0},
    "extra_key": {"m": "0", "k": 0, "x": 1},
}


@pytest.mark.parametrize("name", sorted(ZERO_JUMP_NEAR_MISSES))
def test_zero_jump_near_misses_are_refused_as_by_two_step_loader(trace_a, name):
    data, line = _mutate_first(trace_a, lambda o: o["jump"] == {"m": "0", "k": 0},
                               set_path("jump", value=ZERO_JUMP_NEAR_MISSES[name]))
    got = _outcome(deserialize, data)
    assert got == _outcome(_two_step_load, data)
    assert got[0] == line and "bad stage record" in got[1]


NEAR_BINARY_WORDS = ["", " 0", "0\n", "0 1", "\u0660", "\uff10", "O", "l", "2",
                     "01" * 300 + "2", "01" * 300]


@pytest.mark.parametrize("word", NEAR_BINARY_WORDS)
def test_binary_word_test_matches_strip(trace_a, word):
    assert tracekit._binary_word(word) == (not word.strip("01"))
    # and the loader, reading it as a settled word, agrees with the reference
    data, _ = _mutate_first(trace_a, lambda o: True, set_path("settled", value=word))
    got = _outcome(deserialize, data)
    assert got == _outcome(_two_step_load, data)
    assert isinstance(got, Trace) == (not word.strip("01"))


def test_records_are_immutable_values(trace_a):
    rec = trace_a.stages[8]
    with pytest.raises(AttributeError):
        rec.t = 9
    with pytest.raises(AttributeError):
        rec.action.kind = "top_out"
    obj = json.loads(serialize(trace_a).decode().split("\n")[9])
    built = _built_record(obj)
    assert built == rec and hash(built) == hash(rec)
    assert built.action == rec.action and hash(built.action) == hash(rec.action)
    assert built._replace(t=9) != rec


def history_trace(engine: str, stages: int, hist, regions) -> Trace:
    """An in-memory trace whose records hold a history's writes and regions."""
    writes = stage_writes(hist, stages)
    records = [StageRecord(t, "", Action(TOP_OUT), ZERO,
                           tuple((anchor, rel) for s, anchor, rel in regions if s == t),
                           tuple(writes[t]))
               for t in range(stages)]
    return Trace(engine=engine, config=MINIMAL_CONFIG, stages=records, x=[ZERO] * (stages + 1))


@pytest.mark.parametrize("engine", ["A", "B"])
def test_index_values_match_the_full_scan_on_random_histories(engine):
    # the checks read parameter values at any stage from TraceIndex.value,
    # and settlement's rule walk reads the present ones from a ParamStore;
    # both must equal a scan of every event on the same histories
    # (test_engine holds the store's side).  A region and a write of the
    # same stage on the same reset field are a tie, which the region wins.
    rng = random.Random(34)
    ties = 0
    for _ in range(300):
        stages = rng.randint(1, 14)
        hist, words, regions = random_history(rng, engine, stages)
        index = history_trace(engine, stages, hist, regions).index
        for time in range(stages + 3):
            for sigma in words:
                for fld in FIELDS:
                    want = full_scan_read(hist, regions, sigma, fld, time)
                    assert index.value(sigma, fld, time) == want, (regions, sigma, fld, time)
                    seen = [wt for wt, _ in hist.writes.get((sigma, fld), ()) if wt <= time]
                    resets = fld in ("c", "w") or (fld == "s" and engine == "A")
                    ties += resets and bool(seen) and any(
                        stage + 1 == seen[-1] and region_contains(anchor, rel, sigma)
                        for stage, anchor, rel in regions)
    assert ties > 1000, ties
