"""Hostile-input gate for every input boundary of the command line.

Seeded single-leaf mutants of default A and B traces, the inputs that once
ended in a traceback (huge restraints, witnesses and jump exponents in a
trace, negative restraints and witnesses, a huge exponent in a sequence CSV
or a dyadic literal), and malformed CSV rows and literals all run through
``cli.main`` in one subprocess under a 1.5 GiB address-space limit.  Every run must end in a documented exit code
(0 pass, 1 fail, 2 usage, 3 incomplete) without a traceback, and a usage
error is one line.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import injurybench
from injurybench.cli import main
from test_verify import _leaf_paths

LIMIT = 1536 << 20
LEAF_VALUES = [-1, 2**70, "", [], {}, None, True, 1.5, "01" * 2048]
MUTANTS_PER_ENGINE = 150

# Runs each argv list of a JSON file through cli.main with its output
# captured, and prints one [exit code, stderr] pair per run.  An exception
# escaping main would print a traceback from the real command, so its
# traceback goes to the captured stderr.
RUNNER = f"""
import contextlib, io, json, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, ({LIMIT}, {LIMIT}))
from injurybench.cli import main
results = []
for argv in json.load(open(sys.argv[1], encoding="utf-8")):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = None
            traceback.print_exc()
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def single_leaf_mutants(data: bytes, count: int, seed: int) -> list[str]:
    """Trace files with one leaf of the header or of one record replaced."""
    lines = data.decode("utf-8").rstrip("\n").split("\n")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        i = rng.randrange(len(lines))
        obj = json.loads(lines[i])
        *parents, leaf = rng.choice(list(_leaf_paths(obj)))
        target = obj
        for key in parents:
            target = target[key]
        target[leaf] = rng.choice(LEAF_VALUES)
        mutated = list(lines)
        mutated[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        out.append("\n".join(mutated) + "\n")
    return out


def edit_record(data: bytes, t: int, edit) -> str:
    head, *records = data.decode("utf-8").rstrip("\n").split("\n")
    rec = json.loads(records[t])
    edit(rec)
    records[t] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    return "\n".join([head, *records]) + "\n"


def set_write(i: int, value: int):
    def edit(rec):
        rec["param_writes"][i][2] = value
    return edit


def first_write(data: bytes, fld: str) -> tuple[int, int]:
    """Stage and position of the first parameter write to fld."""
    for t, line in enumerate(data.decode("utf-8").rstrip("\n").split("\n")[1:]):
        for i, (_, f, _) in enumerate(json.loads(line)["param_writes"]):
            if f == fld:
                return t, i
    raise AssertionError(f"no write to {fld!r}")


def set_negative_write(data: bytes, fld: str) -> str:
    t, i = first_write(data, fld)
    return edit_record(data, t, set_write(i, -(2**70)))


def set_jump_exponent(k: int):
    def edit(rec):
        rec["jump"]["k"] = k
    return edit


def default_trace(tmp_path, engine: str) -> bytes:
    out = tmp_path / f"default-{engine}"
    assert main(["run", "--engine", engine, "--stages", "60", "--out", str(out)]) == 0
    return (out / "trace.jsonl").read_bytes()


def test_hostile_inputs_end_in_an_exit_code_without_traceback(tmp_path, capsys):
    traces = {engine: default_trace(tmp_path, engine) for engine in "AB"}
    capsys.readouterr()
    first_jump = next(i for i, line in enumerate(traces["A"].split(b"\n")[1:])
                      if b'"jump":{"k":0,"m":"0"}' not in line)
    files: dict[str, str] = {
        # reproduced crashes, with the exit code each must end in
        "restraint": edit_record(traces["B"], 16, set_write(1, 2**70)),
        "witness": edit_record(traces["B"], 15, set_write(1, 2**70)),
        "jump-k-huge": edit_record(traces["A"], first_jump, set_jump_exponent(2**70)),
        "jump-k-negative": edit_record(traces["A"], first_jump, set_jump_exponent(-(2**70))),
        "restraint-negative": set_negative_write(traces["A"], "r"),
        "witness-negative": set_negative_write(traces["B"], "w"),
    }
    expected = {"restraint": 1, "witness": 1, "jump-k-huge": 2, "jump-k-negative": 2,
                "restraint-negative": 2, "witness-negative": 2}
    for engine, data in traces.items():
        for j, text in enumerate(single_leaf_mutants(data, MUTANTS_PER_ENGINE, seed=9)):
            files[f"mutant-{engine}-{j}"] = text
    csv_rows = {
        "huge-exponent": "t,mantissa,exponent\n0,0,0\n1,1,99999999999\n",
        "negative-exponent": "t,mantissa,exponent\n0,0,0\n1,1,-99999999999\n",
        "bad-header": "t,m,e\n0,0,0\n",
        "short-row": "t,mantissa,exponent\n0,0\n",
        "long-row": "t,mantissa,exponent\n0,0,0,0\n",
        "not-integer": "t,mantissa,exponent\n0,1.5,0\n",
        "out-of-order": "t,mantissa,exponent\n1,0,0\n",
        "modulus-out-of-order": "n,f\n0,1\n2,3\n",
        "modulus-negative": "n,f\n0,-99999999999\n",
        "modulus-not-integer": "n,f\n0,x\n",
    }
    for name, text in csv_rows.items():
        files[f"csv-{name}"] = text
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")

    good_csv = tmp_path / "good.csv"
    good_csv.write_text("t,mantissa,exponent\n0,0,0\n1,1,1\n2,3,2\n", encoding="utf-8")
    runs = {name: ["verify", str(tmp_path / name), "--report", str(tmp_path / "r.json")]
            for name in files if not name.startswith("csv-")}
    for name in csv_rows:
        path = str(tmp_path / f"csv-{name}")
        if name.startswith("modulus"):
            runs[name] = ["speed", "certify", "--sequence", str(good_csv),
                          "--limit", "1/2^0", "--modulus", path]
        else:
            runs[name] = ["speed", "indices", "--sequence", path,
                          "--limit", "1/2^0", "--rho", "1/2^1"]
            expected[name] = 2
    for name, literal in {"huge": "1/2^99999999999", "negative": "1/2^-3",
                          "float": "0.5"}.items():
        runs[f"rho-{name}"] = ["speed", "indices", "--sequence", str(good_csv),
                               "--limit", "1/2^0", "--rho", literal]
        runs[f"limit-{name}"] = ["speed", "regain2speed", "--sequence", str(good_csv),
                                 "--limit", literal, "--out", str(tmp_path / "out.csv")]
        expected[f"rho-{name}"] = expected[f"limit-{name}"] = 2
    for name in ("modulus-out-of-order", "modulus-negative", "modulus-not-integer"):
        expected[name] = 2

    argv_file = tmp_path / "argv.json"
    argv_file.write_text(json.dumps(list(runs.values())), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(injurybench.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", RUNNER, str(argv_file)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = dict(zip(runs, json.loads(proc.stdout)))
    crashed = {name: err[-300:] for name, (_, err) in results.items() if "Traceback" in err}
    assert not crashed
    assert all(code in (0, 1, 2, 3) for code, _ in results.values())
    assert {name: results[name][0] for name in expected} == expected
    usage = [err for code, err in results.values() if code == 2]
    assert all(err.startswith("error: ") and err.count("\n") == 1 for err in usage)
