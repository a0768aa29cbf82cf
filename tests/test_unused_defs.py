"""Every function and class under ``src/repro/`` is used by the program.

A definition counts as used when a name, an attribute or an identifier
string (a ``getattr`` argument, an ``__all__`` entry) anywhere under
``src/``, ``benchmarks/`` or ``examples/`` carries its name; tests do not
count, so code that only its own tests call shows up here.  Matching is by
name alone, so an override is used whenever its base method is.  Dunder
methods are skipped: the language calls them.
"""

import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "repro"
USERS = ("src", "benchmarks", "examples")

#: Definitions that nothing in the program calls, each kept for a reason.
KEPT = {
    "probabilities": "ZipfSampler's exact distribution, the oracle its "
                     "sampling tests compare against",
    "available": "Semaphore's free count, a test oracle for the gate",
    "in_use": "Semaphore's held count, a test oracle for the gate",
    "log_length": "ChangelogStateBackend's log size, a test oracle for "
                  "compaction",
    "occupancy": "ClusterModel's per-node placement, a test oracle for "
                 "the scheduler",
    "instruments": "MetricsRegistry's instrument list, a test oracle for "
                   "registration",
    "copy_with": "Record's keyword copy, kept for user map functions",
    "record_custom": "MetricsCollector's custom series, which the sharded "
                     "run view carries",
    "pop_at": "CalendarQueue API, which goes with the calendar queue "
              "(ROADMAP item 4)",
    "pop_le": "CalendarQueue API, which goes with the calendar queue "
              "(ROADMAP item 4)",
    "peek_time": "CalendarQueue API, which goes with the calendar queue "
                 "(ROADMAP item 4)",
    "total_count": "BatchColumns API, which goes with the sharded kernel "
                   "(ROADMAP item 4)",
}


@lru_cache(maxsize=None)
def _definitions():
    """``name -> ["module:line", ...]`` for every function and class."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                found.setdefault(node.name, []).append(
                    f"{path.relative_to(SRC)}:{node.lineno}")
    return found


def referenced_names(source):
    """Names, attributes and identifier strings ``source`` mentions."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


@lru_cache(maxsize=None)
def _program_references():
    names = set()
    for top in USERS:
        for path in (ROOT / top).rglob("*.py"):
            names |= referenced_names(path.read_text())
    return names


def test_every_definition_is_used_by_the_program():
    used = _program_references()
    unused = sorted(
        f"{name} ({', '.join(where)})"
        for name, where in _definitions().items()
        if name not in used and name not in KEPT
        and not (name.startswith("__") and name.endswith("__")))
    assert not unused, "defined but never used: " + "; ".join(unused)


@pytest.mark.parametrize("name", sorted(KEPT))
def test_kept_definition_is_still_unused(name):
    """A kept name that the program has started to use leaves the list."""
    assert name in _definitions()
    assert name not in _program_references()


def test_scan_reads_names_attributes_and_identifier_strings():
    source = ("import os\n"
              "value = getattr(os.path, 'join')\n"
              "label = 'not an identifier'\n")
    assert referenced_names(source) == {"os", "value", "getattr", "path",
                                        "join", "label"}
