"""Module boundaries, read from the import statements of the source.

The replay oracle must stay independent of the engine it cross-checks, so
it may import only the primitives ``strings``, ``dyadic`` and ``phi``.  The
checkers analyse finished traces and must not import the engine either.
The package has no runtime dependencies: its command line loads nothing
outside the standard library.  Every name a module imports is used there
or re-exported through its ``__all__``, so a move leaves no stale import.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import injurybench

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
    imported, exported, read = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted(imported - exported - read)


def test_replay_imports_only_primitives():
    imports = package_imports("replay")
    assert imports, "no package import found: the parser missed them"
    assert imports <= {"strings", "dyadic", "phi"}, imports


def test_verify_does_not_import_engine():
    imports = package_imports("verify")
    assert "tracekit" in imports  # the parser sees relative imports
    assert "engine" not in imports and "injurybench" not in imports, imports


def _top_level_modules_after(statement: str) -> set[str]:
    """Top-level names in ``sys.modules`` of a fresh interpreter that has run
    ``statement``."""
    script = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC.parent),
           "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True, timeout=60)
    return {name.partition(".")[0] for name in json.loads(result.stdout)}


def test_cli_imports_only_the_standard_library():
    added = _top_level_modules_after("import injurybench.cli") - _top_level_modules_after("pass")
    assert "injurybench" in added
    outside = sorted(added - set(sys.stdlib_module_names) - {"injurybench"})
    assert not outside, outside


def test_every_import_is_used_or_exported():
    modules = sorted(path.stem for path in SRC.glob("*.py"))
    assert {"__init__", "engine", "tracekit", "verify"} <= set(modules)
    unused = {module: names for module in modules if (names := unused_imports(module))}
    assert not unused, unused
