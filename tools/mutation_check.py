"""Run the kept mutation checks: every mutant in the table must fail its tests.

Each row of the table, ``tools/mutants.json``, names a file of the
repository, an exact source snippet that occurs in it once, the replacement
that makes the mutant, and the pytest ids that must catch it.
The script first runs every named test on an unchanged copy of the tree,
where each must pass.  Then, for each row, it applies the mutant to a fresh
copy of the tree in a temporary directory and runs only that row's tests,
with a time limit of ``TIME_FACTOR`` times those tests' time on the
unchanged tree plus ``TIME_SLACK_S`` for pytest's start.  A mutant is
caught when every test the row names fails on it; a named test that
selects several parametrized cases fails when one of them does.  The
script exits 1 if a snippet no longer occurs exactly once, if a named test
fails on the unchanged tree or cannot be collected, or if a mutant is not
caught: it survived (its tests all pass), some named test passes, or its
run timed out.  It exits 0 when every mutant is caught.  The working tree
is never written.

    python3 tools/mutation_check.py

Only the standard library is needed to run it, and pytest and hypothesis to
run the tests.  The test runs load this file as a pytest plugin
(``-p mutation_check``), whose hook writes each test's outcome and duration
to the file named by ``MUTATION_CHECK_OUTCOMES``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# what a test run reads: the package, the tests and the benchmark files
# that tier-1 tests load
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "BENCHMARK.json")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
TABLE = ROOT / "tools" / "mutants.json"
OUTCOMES = "MUTATION_CHECK_OUTCOMES"
# a mutant's run may take this many times its tests' time on the unchanged
# tree, plus this many seconds for pytest's start and collection
TIME_FACTOR = 10
TIME_SLACK_S = 30.0


def pytest_runtest_logreport(report) -> None:
    """Plugin hook: append one test phase's outcome and duration to the
    outcomes file."""
    with open(os.environ[OUTCOMES], "a", encoding="utf-8") as out:
        out.write(json.dumps([report.nodeid, report.outcome, report.duration]) + "\n")


def load_table() -> list[dict]:
    rows = json.loads(TABLE.read_text(encoding="utf-8"))
    for row in rows:
        missing = {"name", "file", "snippet", "replacement", "tests"} - set(row)
        if missing:
            raise ValueError(f"mutant {row.get('name')!r} lacks {sorted(missing)}")
        if row["snippet"] == row["replacement"] or not row["tests"]:
            raise ValueError(f"mutant {row['name']!r} changes nothing or names no test")
    return rows


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=IGNORED)
        else:
            shutil.copy2(src, dest / name)


def run_tests(tree: Path, tests: list[str], limit: float | None = None):
    """Run the tests in the tree.  Returns pytest's exit code, or None when
    the run passed ``limit`` seconds and was killed, its output, and each
    test item's (failed, seconds) over its phases."""
    log = tree / "outcomes.jsonl"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(["src", str(ROOT / "tools")]))
    env[OUTCOMES] = str(log)
    # a session of its own, so a kill reaches the processes tests start too
    with subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "mutation_check", *tests],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    ) as proc:
        try:
            output = proc.communicate(timeout=limit)[0]
            code = proc.returncode
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            output = proc.communicate()[0]
            code = None
    items: dict[str, tuple[bool, float]] = {}
    if log.exists():
        for line in log.read_text(encoding="utf-8").splitlines():
            nodeid, outcome, seconds = json.loads(line)
            failed, total = items.get(nodeid, (False, 0.0))
            items[nodeid] = (failed or outcome == "failed", total + seconds)
    return code, output, items


def selected(test: str, items) -> list[str]:
    """The items a named test id selects: itself or its parametrized cases."""
    return [item for item in items if item == test or item.startswith(test + "[")]


def mutated(tree: Path, row: dict) -> str:
    """The text of the row's file in the tree with the mutant applied;
    ValueError if the snippet does not occur there exactly once."""
    path = tree / row["file"]
    if not path.is_file():
        raise ValueError(f"no file {row['file']}")
    text = path.read_text(encoding="utf-8")
    count = text.count(row["snippet"])
    if count != 1:
        raise ValueError(f"snippet occurs {count} times in {row['file']}")
    return text.replace(row["snippet"], row["replacement"])


def verdict(row: dict, code: int | None, items, limit: float) -> str | None:
    """None when the mutant is caught, else why not."""
    if code is None:
        return f"timed out after {limit:.0f} s"
    if code == 0:
        return "survived"
    # pytest exits 1 exactly when tests ran and some failed
    if code != 1:
        return f"pytest exited {code}"
    passing = [test for test in row["tests"]
               if not any(items[item][0] for item in selected(test, items))]
    if passing:
        return f"named tests pass: {', '.join(passing)}"
    return None


def main() -> int:
    rows = load_table()
    faults = []
    with tempfile.TemporaryDirectory(prefix="mutation-check-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        tests = sorted({test for row in rows for test in row["tests"]})
        code, output, base_items = run_tests(base, tests)
        uncollected = [test for test in tests if not selected(test, base_items)]
        if code != 0 or uncollected:
            print(output[-5000:])
            print("FAULT: the named tests do not all pass on the unchanged tree"
                  + (f"; not collected: {', '.join(uncollected)}" if uncollected else ""))
            return 1
        for i, row in enumerate(rows):
            base_s = sum(base_items[item][1] for test in row["tests"]
                         for item in selected(test, base_items))
            limit = TIME_FACTOR * base_s + TIME_SLACK_S
            tree = Path(tmp) / f"mutant-{i}"
            copy_tree(tree)
            try:
                (tree / row["file"]).write_text(mutated(tree, row), encoding="utf-8")
            except ValueError as exc:
                fault = str(exc)
            else:
                code, _, items = run_tests(tree, row["tests"], limit)
                fault = verdict(row, code, items, limit)
            shutil.rmtree(tree)
            print(f"{row['name']}: {'caught' if fault is None else fault}", flush=True)
            if fault is not None:
                faults.append(row["name"])
    if faults:
        print(f"FAULT: {len(faults)} of {len(rows)} mutants not caught: {', '.join(faults)}")
        return 1
    print(f"all {len(rows)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
