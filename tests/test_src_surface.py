"""No definition in ``src/`` exists only for the tests to call.

The scan lists every top-level function and class in ``src/``, and every
public method of a top-level class, whose name occurs once in ``src/``
(its own definition) and nowhere in ``perfbench/``, ``examples/`` or
``benchmarks/``.  Such a definition serves no caller but a test.  Names
are counted as identifier tokens over whole files, comments and strings
included, so a name shared with any other identifier is not listed: the
scan finds a lower bound.

A hit is deleted with the tests that exist only to exercise it.  The few
that stay are listed in ``ALLOWED``, each with its reason.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("perfbench", "examples", "benchmarks")

ALLOWED = {
    "src/repro/serving/http.py::_Handler.do_GET":
        "BaseHTTPRequestHandler dispatches each request to do_<METHOD> by name",
    "src/repro/serving/http.py::_Handler.do_POST":
        "BaseHTTPRequestHandler dispatches each request to do_<METHOD> by name",
    "src/repro/serving/http.py::_Handler.log_message":
        "BaseHTTPRequestHandler's log_request and log_error call it",
    "src/repro/spatial/partition.py::Partition.is_refinement_of":
        "paper-claims oracle: each Fair KD-tree level refines the one above",
    "src/repro/fairness/theorems.py::random_assignment":
        "paper-claims oracle: draws the groupings Theorems 1 and 2 are checked on",
    "src/repro/fairness/theorems.py::chain_of_refinements":
        "paper-claims oracle: the refinement chains Theorem 2 is checked along",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _token_counts(paths):
    counts = Counter()
    for path in paths:
        counts.update(_IDENTIFIER.findall(path.read_text()))
    return counts


def _definitions(path):
    """``(qualified name, bare name)`` of each definition the scan checks."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def scan_src():
    """Every ``src/`` definition the scan finds, as ``path::qualified name``."""
    sources = sorted((ROOT / "src").rglob("*.py"))
    in_src = _token_counts(sources)
    in_callers = _token_counts(
        path for directory in CALLERS for path in (ROOT / directory).rglob("*.py")
    )
    return sorted(
        f"{path.relative_to(ROOT).as_posix()}::{qualified}"
        for path in sources
        for qualified, name in _definitions(path)
        if in_src[name] == 1 and in_callers[name] == 0
    )


def test_src_has_no_definition_only_tests_call():
    unexpected = [hit for hit in scan_src() if hit not in ALLOWED]
    assert not unexpected, (
        "defined in src/ but used by nothing outside tests; delete each with "
        "the tests that only exercise it:\n  " + "\n  ".join(unexpected)
    )


def test_every_allowed_name_is_still_a_hit():
    stale = sorted(set(ALLOWED) - set(scan_src()))
    assert not stale, f"drop from ALLOWED, the scan no longer lists them: {stale}"
