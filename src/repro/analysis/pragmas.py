"""Comment-level directives the linter understands.

Two comment forms carry meaning for ``repro lint``:

``# repro: ignore[rule-a, rule-b] -- justification``
    Suppresses the named rules on that line.  The justification after the
    ``--`` is conventionally required in this repo (the CI job reviews
    pragmas as a mini-audit trail) but is not enforced mechanically.

``# guarded-by: self._lock`` / ``# guarded-by(writes): self._lock``
    Declares that the attribute assigned on that line is protected by the
    named lock.  The default mode guards reads and writes; ``(writes)``
    guards writes only, for fields where racy reads are deliberately
    tolerated (e.g. monotonic counters).

``# array: xs float64[n]`` / ``# returns: int64[n]``
    Declares the numpy dtype (and optionally the symbolic shape) of a
    function argument, a field assigned on that line, or the function's
    return value.  Placed inside a function body (conventionally right
    after the docstring) the contract attaches to that function; placed on
    a ``self.<attr> = ...`` line it attaches to the field.  A trailing
    ``contiguous`` flag additionally requires C-contiguous layout:
    ``# array: buf float64[n] contiguous``.  Contracts drive the
    ``array-contract`` lint rule and the runtime validator
    (``runtime-array-contract``).

Comments are extracted with :mod:`tokenize` so ``#`` inside string literals
never parses as a directive; if tokenisation fails (e.g. the file is being
linted despite a syntax error) we fall back to a per-line scan.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["ArrayContract", "GuardComment", "PragmaIndex"]

_PRAGMA_RE = re.compile(r"#\s*repro:\s*ignore\[(?P<rules>[^\]]*)\]")
_GUARD_RE = re.compile(
    r"#\s*guarded-by(?:\((?P<mode>[a-z]+)\))?\s*:\s*(?P<expr>[A-Za-z_][\w.]*)"
)
# Anchored to the whole comment so prose like "# returns: the count" can
# never parse as a contract; only the exact grammar is recognised.
_ARRAY_RE = re.compile(
    r"#\s*(?P<kind>array|returns)\s*:"
    r"(?:\s+(?P<name>[A-Za-z_]\w*))?"
    r"\s+(?P<dtype>[A-Za-z_]\w*)"
    r"(?:\[(?P<shape>[^\]]*)\])?"
    r"(?P<contiguous>\s+contiguous)?"
    r"\s*$"
)

GUARD_MODES = ("all", "writes")


@dataclass(frozen=True)
class GuardComment:
    """A ``# guarded-by`` declaration found on ``line``."""

    line: int
    expr: str
    mode: str = "all"


@dataclass(frozen=True)
class ArrayContract:
    """An ``# array:`` / ``# returns:`` declaration found on ``line``.

    ``kind`` is ``"array"`` (an argument or field contract, with ``name``)
    or ``"returns"`` (the function's return value, ``name`` is ``None``).
    ``shape`` is the declared dimension list — symbolic names, integer
    literals, or ``*`` wildcards — or ``None`` when only the dtype was
    declared.  ``contiguous`` requires C-contiguous layout at runtime.
    """

    line: int
    kind: str
    name: str | None
    dtype: str
    shape: Tuple[str, ...] | None = None
    contiguous: bool = False


def _iter_comments(source: str) -> List[Tuple[int, str]]:
    # Buffer the tokenize pass: if it fails partway (a file linted despite
    # a syntax error), discard the partial result and line-scan the whole
    # source instead, so no comment is counted twice.
    collected: List[Tuple[int, str]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                collected.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        collected = []
        for lineno, text in enumerate(source.splitlines(), start=1):
            position = text.find("#")
            if position >= 0:
                collected.append((lineno, text[position:]))
    return collected


@dataclass
class PragmaIndex:
    """All lint directives of one module, indexed by line."""

    ignores: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    guards: List[GuardComment] = field(default_factory=list)
    contracts: List[ArrayContract] = field(default_factory=list)

    @classmethod
    def from_source(cls, source: str) -> "PragmaIndex":
        index = cls()
        for lineno, comment in _iter_comments(source):
            pragma = _PRAGMA_RE.search(comment)
            if pragma is not None:
                names = tuple(
                    name.strip()
                    for name in pragma.group("rules").split(",")
                    if name.strip()
                )
                existing = index.ignores.get(lineno, ())
                index.ignores[lineno] = existing + names
            guard = _GUARD_RE.search(comment)
            if guard is not None:
                index.guards.append(
                    GuardComment(
                        line=lineno,
                        expr=guard.group("expr"),
                        mode=guard.group("mode") or "all",
                    )
                )
            contract = _ARRAY_RE.match(comment)
            if contract is not None:
                shape_text = contract.group("shape")
                shape = (
                    tuple(dim.strip() for dim in shape_text.split(",") if dim.strip())
                    if shape_text is not None
                    else None
                )
                index.contracts.append(
                    ArrayContract(
                        line=lineno,
                        kind=contract.group("kind"),
                        name=contract.group("name"),
                        dtype=contract.group("dtype"),
                        shape=shape,
                        contiguous=contract.group("contiguous") is not None,
                    )
                )
        return index

    def ignored_rules(self, line: int) -> Tuple[str, ...]:
        return self.ignores.get(line, ())
