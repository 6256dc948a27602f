import json
import random
import sys

import pytest

from injurybench import tracekit
from injurybench.dyadic import MAX_EXPONENT, ZERO, Dyadic, pow2
from injurybench.engine import EngineState, run_engine
from injurybench.phi import DEFAULT_CONFIG, registry_from_config
from injurybench.strings import (
    REL_LEX,
    REL_LEX_OR_EXT,
    nu,
    region_contains,
    region_covers_right_of,
)
from injurybench.tracekit import (
    FLAG_FIELDS,
    JUMP_KINDS,
    Action,
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
    assert digest == trace.digest()


def test_int_keyed_config_digest_survives_round_trip():
    trace = run_engine(EngineState(registry_from_config(INT_KEYED_CONFIG), "A"), 25)
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
    "jump_five": _set(["jump"], {"m": "5", "k": 0}),
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


# ---------------------------------------------------------------------------
# The one-pass record reader against a two-step reference loader


def _built_action(obj) -> Action:
    return Action(
        kind=obj["kind"],
        sigma=obj.get("sigma", ""),
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
    through keyword constructors, then walk the built record to check it."""
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
            rec = _built_record(json.loads(ln))
        except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            raise TraceParseError(f"bad stage record: {exc}", line=i) from None
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
            elif isinstance(obj, dict) and isinstance(obj.get("action"), dict):
                obj["jump"] = rng.choice(_JUMPS)
                obj["action"]["kind"] = rng.choice(_STRINGS[-5:])
                # the exponent that states the drawn jump, so that a jump
                # past T reaches the loader's bound on it
                obj["action"]["exponent"] = obj["jump"]["k"]
            records[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                                    ensure_ascii=rng.random() < 0.5)
    return ("\n".join([head, *records]) + "\n").encode("utf-8")


def _outcome(load, data: bytes):
    try:
        return load(data)
    except TraceParseError as exc:
        return exc.line, str(exc)


# the start of every rejection text the record reader can give
_REJECTIONS = ("bad stage record", "action kind", "is not an integer", "is not a binary word",
               "unknown region relation", "unknown parameter field", "is negative",
               "out of order", "jump/action mismatch", "negative jump", "is not 2**-exponent",
               "exceeds T")


@pytest.mark.parametrize("engine", ["A", "B"])
def test_record_reader_matches_two_step_loader_on_mutants(engine):
    # every mutant is accepted as the same trace, or refused on the same
    # line with the same text, as the two-step loader refused it; a mutant
    # with several defects names the one the two-step order reaches first
    trace = run_engine(EngineState(registry_from_config(DEFAULT_CONFIG), engine), 30)
    data = serialize(trace)
    assert deserialize(data) == _two_step_load(data) == trace
    rng = random.Random(12)
    seen = set()
    accepted = 0
    for _ in range(800):
        mutant = _record_mutant(data, rng)
        got = _outcome(deserialize, mutant)
        assert got == _outcome(_two_step_load, mutant), mutant
        if isinstance(got, Trace):
            accepted += 1
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
                               _set(["jump"], ZERO_JUMP_NEAR_MISSES[name]))
    got = _outcome(deserialize, data)
    assert got == _outcome(_two_step_load, data)
    assert got[0] == line and "bad stage record" in got[1]


NEAR_BINARY_WORDS = ["", " 0", "0\n", "0 1", "\u0660", "\uff10", "O", "l", "2",
                     "01" * 300 + "2", "01" * 300]


@pytest.mark.parametrize("word", NEAR_BINARY_WORDS)
def test_binary_word_test_matches_strip(trace_a, word):
    assert tracekit._binary_word(word) == (not word.strip("01"))
    # and the loader, reading it as a settled word, agrees with the reference
    data, _ = _mutate_first(trace_a, lambda o: True, _set(["settled"], word))
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
