"""Module boundaries, read from the import statements of the source.

The replay oracle must stay independent of the engine it cross-checks, so
it may import only the primitives ``strings``, ``dyadic`` and ``phi``, and
of a registry it may ask only step queries.  The
checkers analyse finished traces and must not import the engine either.
The package has no runtime dependencies: its command line loads nothing
outside the standard library, and it loads the speed transforms (and
``dataclasses``) only for the ``speed`` verbs.  Every name a module imports
is used there or re-exported through its ``__all__``, so a move leaves no
stale import.  Every name a module exports through its ``__all__`` is read
by the package outside its own definition or by the benchmark harness, so
the public API holds nothing that only tests call.  No module guards an
invariant with ``assert``, which ``python -O`` strips: invariants raise real
exceptions.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import injurybench
from injurybench.dyadic import Dyadic, pow2
from injurybench.tracekit import write_sequence_csv

SRC = Path(injurybench.__file__).resolve().parent


def package_imports(module: str) -> set[str]:
    """Modules of the package that ``module`` imports, anywhere in its source;
    an import of the package root counts as ``"injurybench"``."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = [] if node.module is None else node.module.split(".")
            elif node.module.split(".")[0] == "injurybench":
                parts = node.module.split(".")[1:]
            else:
                continue
            if parts:
                found.add(parts[0])
            else:  # from . import x / from injurybench import x
                found.update(alias.name if (SRC / f"{alias.name}.py").exists()
                             else "injurybench" for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "injurybench":
                    found.add(parts[1] if len(parts) > 1 else "injurybench")
    return found


def unused_imports(module: str) -> list[str]:
    """Names that ``module`` imports but neither reads nor lists in its
    ``__all__``; ``from __future__`` imports are directives, not names."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted(imported - set(exports(tree)) - read)


def exports(tree: ast.Module) -> list[str]:
    """The names of a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _defined_names(node: ast.stmt) -> set[str]:
    """Module-level names that the top-level statement ``node`` defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}


def _reads(node: ast.AST) -> set[str]:
    """Names that ``node`` reads as a variable or an attribute."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
    return found


def harness_names() -> set[str]:
    """Names the benchmark harness reads, also through the ``"name"`` and
    ``"Class.method"`` strings by which it wraps package functions."""
    found = set()
    for path in sorted((SRC.parent.parent / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= _reads(tree)
        for n in ast.walk(tree):
            if (isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and all(part.isidentifier() for part in n.value.split("."))):
                found.update(n.value.split("."))
    return found


def test_replay_imports_only_primitives():
    imports = package_imports("replay")
    assert imports, "no package import found: the parser missed them"
    assert imports <= {"strings", "dyadic", "phi"}, imports


def registry_reads(module: str) -> set[str]:
    """Attributes that ``module`` reads of a parameter annotated
    ``PhiRegistry``.  Such a parameter may otherwise only be passed on, as
    a registry again, to a function of the module; any other use of it
    is reported as ``"<passed on>"``."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def registry_params(fn) -> list[str]:
        return [arg.arg for arg in fn.args.args
                if isinstance(arg.annotation, ast.Name) and arg.annotation.id == "PhiRegistry"]

    names = {name for fn in functions.values() for name in registry_params(fn)}
    read, allowed = set(), set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in names):
            read.add(node.attr)
            allowed.add(id(node.value))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in functions):
            params = [arg.arg for arg in functions[node.func.id].args.args]
            passed_on = registry_params(functions[node.func.id])
            allowed.update(id(arg) for arg, param in zip(node.args, params)
                           if isinstance(arg, ast.Name) and param in passed_on)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id in names and isinstance(node.ctx, ast.Load)
                and id(node) not in allowed):
            read.add("<passed on>")
    return read


def test_replay_asks_a_registry_only_step_queries():
    # the oracle computes its chain lengths from step queries alone: it
    # never reads a slot table or a registry's chain state
    read = registry_reads("replay")
    assert read, "no registry read found: the parser missed them"
    assert read <= {"step", "stepper"}, read


def test_verify_does_not_import_engine():
    imports = package_imports("verify")
    assert "tracekit" in imports  # the parser sees relative imports
    assert "engine" not in imports and "injurybench" not in imports, imports


def _modules_after(statement: str) -> set[str]:
    """Names in ``sys.modules`` of a fresh interpreter that has run
    ``statement``, read from the last line of its output (``statement`` may
    print lines of its own before it)."""
    script = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC.parent),
           "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True, timeout=60)
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_cli_imports_only_the_standard_library():
    added = _modules_after("import injurybench.cli") - _modules_after("pass")
    top_level = {name.partition(".")[0] for name in added}
    assert "injurybench" in top_level
    outside = sorted(top_level - set(sys.stdlib_module_names) - {"injurybench"})
    assert not outside, outside


# Loaded by no verb but ``speed``: the dataclasses module (with inspect),
# exact rationals and decimals, and the speed transforms themselves.
SPEED_ONLY_MODULES = {"dataclasses", "inspect", "fractions", "decimal", "injurybench.speed"}


def test_cli_loads_speed_and_dataclasses_only_for_speed_verbs(tmp_path):
    bare = _modules_after("pass")
    assert not SPEED_ONLY_MODULES & bare, "the bare interpreter already loads them"
    loaded = _modules_after("import injurybench.cli") - bare
    assert {"injurybench.cli", "injurybench.verify", "injurybench.replay"} <= loaded
    assert not SPEED_ONLY_MODULES & loaded, sorted(SPEED_ONLY_MODULES & loaded)

    seq_csv = tmp_path / "seq.csv"
    write_sequence_csv([Dyadic(1) - pow2(-n) for n in range(3)], str(seq_csv))
    argv = ["speed", "indices", "--sequence", str(seq_csv), "--limit", "1/2^0",
            "--rho", "1/2^1"]
    loaded = _modules_after(f"from injurybench.cli import main\nassert main({argv!r}) == 0")
    assert "injurybench.speed" in loaded


def test_every_import_is_used_or_exported():
    modules = sorted(path.stem for path in SRC.glob("*.py"))
    assert {"__init__", "engine", "tracekit", "verify"} <= set(modules)
    unused = {module: names for module in modules if (names := unused_imports(module))}
    assert not unused, unused


def test_no_module_uses_assert():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_every_export_has_a_reader_outside_the_tests():
    # reads in the package (a module's reads of its own name inside that
    # name's definition aside, and __init__'s re-exports aside) or in the
    # benchmark harness; methods are out of scope, as names like "digest"
    # collide with local variables
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    assert {"dyadic", "speed", "tracekit", "verify"} <= set(trees)
    harness = harness_names()
    assert {"run_engine", "new_engine_a", "ell", "lex_less"} <= harness, \
        "the harness parser missed names"
    unread = []
    for module, tree in trees.items():
        exported = [name for name in exports(tree) if not name.startswith("__")]
        read = set(harness)
        for other, other_tree in trees.items():
            if other != module:
                read |= _reads(other_tree)
        for node in tree.body:
            read |= _reads(node) - _defined_names(node)
        unread += [f"{module}.{name}" for name in exported if name not in read]
    assert not unread, unread
