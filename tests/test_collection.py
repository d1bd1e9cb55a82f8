"""Every test in the repository must sit where a test run collects it.

Tier-1 (``pytest``) collects ``tests/`` and CI's ``perf-smoke`` job runs
``pytest benchmarks/perf``, both with pytest's default file patterns
(``test_*.py`` and ``*_test.py``).  A ``test*`` function or ``Test*`` class
anywhere else never runs, so whatever it asserts is checked by nothing.
"""

import ast
import os
from fnmatch import fnmatch
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Directories (relative to the repository root) that a test run collects.
COLLECTED_DIRS = ("tests", "benchmarks/perf")

#: pytest's default ``python_files`` patterns.
TEST_FILE_PATTERNS = ("test_*.py", "*_test.py")


def _skipped(root: str, name: str) -> bool:
    """Hidden, build-output and virtual-environment directories hold no project tests."""
    return (
        name.startswith(".")
        or name in ("build", "dist")
        or name.endswith(".egg-info")
        or os.path.exists(os.path.join(root, name, "pyvenv.cfg"))
    )


def _python_files():
    for root, dirs, files in os.walk(REPO_ROOT):
        dirs[:] = [d for d in dirs if not _skipped(root, d)]
        for name in files:
            if name.endswith(".py"):
                yield Path(root, name)


def _defines_tests(path: Path) -> bool:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return any(
        (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("test"))
        or (isinstance(node, ast.ClassDef) and node.name.startswith("Test"))
        for node in tree.body
    )


def _collected(relative: Path) -> bool:
    in_collected_dir = any(
        relative.is_relative_to(directory) for directory in COLLECTED_DIRS
    )
    return in_collected_dir and any(fnmatch(relative.name, p) for p in TEST_FILE_PATTERNS)


def test_every_test_file_is_collected():
    stray = sorted(
        str(path.relative_to(REPO_ROOT))
        for path in _python_files()
        if _defines_tests(path) and not _collected(path.relative_to(REPO_ROOT))
    )
    assert not stray, f"tests that no test run collects: {stray}"
