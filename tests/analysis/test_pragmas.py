"""Unit tests for the pragma/guard comment grammar."""

from __future__ import annotations

from repro.analysis import PragmaIndex


def test_ignore_pragma_single_rule():
    index = PragmaIndex.from_source("x = 1  # repro: ignore[lock-order]\n")
    assert index.ignored_rules(1) == ("lock-order",)
    assert index.ignored_rules(2) == ()


def test_ignore_pragma_multiple_rules_and_justification():
    source = "y = 2  # repro: ignore[lock-order, hot-path-loop] -- bounded loop\n"
    index = PragmaIndex.from_source(source)
    assert set(index.ignored_rules(1)) == {"lock-order", "hot-path-loop"}


def test_pragma_inside_string_literal_is_not_a_directive():
    source = 's = "# repro: ignore[lock-order]"\n'
    index = PragmaIndex.from_source(source)
    assert index.ignored_rules(1) == ()


def test_guard_comment_default_mode():
    source = "class A:\n    def __init__(self):\n        self.x = 0  # guarded-by: self._lock\n"
    index = PragmaIndex.from_source(source)
    (guard,) = index.guards
    assert guard.line == 3
    assert guard.expr == "self._lock"
    assert guard.mode == "all"


def test_guard_comment_writes_mode():
    index = PragmaIndex.from_source("self.x = 0  # guarded-by(writes): self._lock\n")
    (guard,) = index.guards
    assert guard.mode == "writes"


def test_tokenize_fallback_on_unparsable_source():
    # Unbalanced bracket: tokenize raises, the line-scan fallback still
    # finds the directive.
    source = "def broken(:\n    pass  # repro: ignore[lock-order]\n"
    index = PragmaIndex.from_source(source)
    assert index.ignored_rules(2) == ("lock-order",)
