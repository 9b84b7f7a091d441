"""Array-contract lint rules: the static half of the numeric immune system.

Four rules built on :mod:`repro.analysis.arrays_model`:

``array-contract``
    A declared ``# array:`` / ``# returns:`` contract is malformed, or the
    lexical dataflow contradicts it (a contracted argument reassigned to a
    different dtype, a return of the wrong dtype/rank, a field constructed
    with the wrong dtype).
``hot-path-copy``
    A copy-producing idiom on an array-hot module: ``astype`` without
    ``copy=False``, ``.tolist()``, ``np.append``, concatenation inside a
    loop, a strided slice fed to ``tobytes()``.
``dtype-churn``
    A silent dtype change on an array-hot module: any fallback to
    ``dtype=object``, or a narrowing cast (int64 -> int32,
    float64 -> float32) of a value whose wider dtype the model can prove.
``hot-path-alloc``
    A fresh-buffer constructor (``np.zeros``/``empty``/``full``/...)
    inside a loop on an array-hot module — a per-iteration allocation that
    should be hoisted and reused.

The copy/churn/alloc rules are scoped by ``LintConfig.array_hot_paths``
(every module a locate batch flows through); ``array-contract`` applies
wherever a contract is declared.  The runtime twin
(``runtime-array-contract``, armed by ``REPRO_SANITIZE=1``) validates the
same contracts against live arrays — one ``# repro: ignore[array-contract]``
pragma on the reported line suppresses both, via ``RUNTIME_COUNTERPARTS``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from .arrays_model import (
    ArrayValue,
    FunctionContracts,
    canonical_dtype,
    extract_contracts,
    infer_expr,
    is_narrowing,
    iter_statements,
    numpy_call_name,
    resolve_dtype_node,
    seed_environment,
)
from .base import ModuleContext, Rule, build_parent_map, register_rule
from .findings import Finding
from .pragmas import ArrayContract

__all__ = [
    "ArrayContractRule",
    "HotPathCopy",
    "DtypeChurn",
    "HotPathAlloc",
    "RuntimeArrayContract",
]


def format_contract(contract: ArrayContract) -> str:
    """The contract as the comment spells it: ``float64[n] contiguous``."""
    text = contract.dtype
    if contract.shape is not None:
        text += "[" + ", ".join(contract.shape) + "]"
    if contract.contiguous:
        text += " contiguous"
    return text


def _in_loop(node: ast.AST, parents: dict) -> bool:
    """True when ``node`` sits inside a loop of its own function."""
    current = parents.get(node)
    while current is not None:
        if isinstance(current, (ast.For, ast.AsyncFor, ast.While)):
            return True
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
            return False
        current = parents.get(current)
    return False


def _assigned_names(stmt: ast.stmt) -> List[Tuple[str, ast.expr]]:
    """(name, value expression) pairs of a statement's simple assignments."""
    pairs: List[Tuple[str, ast.expr]] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                pairs.append((target.id, stmt.value))
            elif isinstance(target, ast.Tuple) and isinstance(stmt.value, ast.Tuple):
                if len(target.elts) == len(stmt.value.elts):
                    for t, v in zip(target.elts, stmt.value.elts):
                        if isinstance(t, ast.Name):
                            pairs.append((t.id, v))
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        if isinstance(stmt.target, ast.Name):
            pairs.append((stmt.target.id, stmt.value))
    return pairs


def _mismatch(
    value: Optional[ArrayValue], contract: ArrayContract
) -> Optional[str]:
    """Why ``value`` contradicts ``contract``, or None when compatible
    (or unknown — the model only speaks when certain)."""
    if value is None:
        return None
    declared = canonical_dtype(contract.dtype)
    if value.dtype is not None and declared is not None and value.dtype != declared:
        return f"dtype {value.dtype}"
    if (
        contract.shape is not None
        and value.rank is not None
        and value.rank != len(contract.shape)
    ):
        return f"a rank-{value.rank} array (contract is rank {len(contract.shape)})"
    return None


@register_rule(
    "array-contract",
    aliases=("array-contracts",),
    summary="declared `# array:`/`# returns:` dtype/shape contradicted by dataflow",
    example=(
        "src/repro/serving/client.py:300: [array-contract] locate_points() "
        "declares `# returns: int64[n]` but returns dtype float64 here"
    ),
)
class ArrayContractRule(Rule):
    """Check every declared array contract against the lexical dataflow.

    Malformed contracts (unknown dtype, no attachable function or field,
    an argument name that matches no parameter) are reported at the
    comment's line, the same way ``lint-pragma`` reports unknown rule
    names.  Well-formed contracts are then checked: assignments to a
    contracted argument, every ``return`` against the ``# returns:``
    contract, and the constructor on a contracted field's line.
    """

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.pragmas.contracts:
            return
        contracts = extract_contracts(module.tree, module.pragmas)
        for contract, reason in contracts.problems:
            yield self.finding(
                module, contract.line, f"bad array contract: {reason}"
            )
        for entry in contracts.functions:
            yield from self._check_function(module, entry)
        field_by_line = {fc.contract.line: fc for fc in contracts.fields}
        if field_by_line:
            for stmt in ast.walk(module.tree):
                if not isinstance(stmt, ast.Assign):
                    continue
                fc = field_by_line.get(stmt.lineno)
                if fc is None:
                    continue
                reason = _mismatch(infer_expr(stmt.value, {}), fc.contract)
                if reason is not None:
                    yield self.finding(
                        module,
                        stmt.lineno,
                        f"`self.{fc.attr}` is declared "
                        f"`{format_contract(fc.contract)}` but is assigned "
                        f"{reason} here",
                    )

    def _check_function(
        self, module: ModuleContext, entry: FunctionContracts
    ) -> Iterator[Finding]:
        env = seed_environment(entry)
        for stmt in iter_statements(entry.node):
            for name, value_expr in _assigned_names(stmt):
                inferred = infer_expr(value_expr, env)
                contract = entry.args.get(name)
                if contract is not None:
                    reason = _mismatch(inferred, contract)
                    if reason is not None:
                        yield self.finding(
                            module,
                            stmt.lineno,
                            f"`{name}` is declared "
                            f"`{format_contract(contract)}` but is assigned "
                            f"{reason} here",
                        )
                if inferred is not None:
                    env[name] = inferred
                else:
                    env.pop(name, None)
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                if entry.returns is not None:
                    yield from self._check_return(module, entry, stmt, env)

    def _check_return(
        self,
        module: ModuleContext,
        entry: FunctionContracts,
        stmt: ast.Return,
        env: Dict[str, ArrayValue],
    ) -> Iterator[Finding]:
        contract = entry.returns
        assert contract is not None
        branches = (
            [stmt.value.body, stmt.value.orelse]
            if isinstance(stmt.value, ast.IfExp)
            else [stmt.value]
        )
        for branch in branches:
            reason = _mismatch(infer_expr(branch, env), contract)
            if reason is not None:
                yield self.finding(
                    module,
                    stmt.lineno,
                    f"{entry.qualname}() declares "
                    f"`# returns: {format_contract(contract)}` but returns "
                    f"{reason} here",
                )
                return


#: Constructors that allocate a fresh buffer per call.
_ALLOC_CONSTRUCTORS = (
    "zeros", "ones", "empty", "full",
    "zeros_like", "ones_like", "empty_like", "full_like",
)

#: Concatenation family: copies all accumulated data on every call.
_CONCAT_FAMILY = ("concatenate", "stack", "vstack", "hstack", "column_stack")


def _has_copy_false(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "copy":
            return (
                isinstance(kw.value, ast.Constant) and kw.value.value is False
            )
    return False


@register_rule(
    "hot-path-copy",
    aliases=("array-copy",),
    summary="copy-producing numpy idiom on an array-hot module",
    example=(
        "src/repro/serving/client.py:313: [hot-path-copy] `astype(...)` "
        "copies even when the dtype already matches; pass `copy=False`"
    ),
)
class HotPathCopy(Rule):
    """Flag idioms that copy array data on the serving/spatial hot paths.

    ``astype`` without ``copy=False`` copies even when the dtype already
    matches; ``.tolist()`` materialises a Python list; ``np.append``
    copies the whole array per call; concatenation inside a loop recopies
    all accumulated data every iteration; a strided slice fed to
    ``tobytes()`` forces a contiguous staging copy.  Genuine wire
    boundaries (JSON encoding) carry a justified
    ``# repro: ignore[hot-path-copy]`` pragma instead.
    """

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.config.is_array_hot(module.path):
            return
        parents = build_parent_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = numpy_call_name(node)
            if name == "append":
                yield self.finding(
                    module,
                    node.lineno,
                    "`np.append` copies the whole array on every call; "
                    "collect pieces and concatenate once, or preallocate",
                )
            elif name in _CONCAT_FAMILY and _in_loop(node, parents):
                yield self.finding(
                    module,
                    node.lineno,
                    f"`np.{name}` inside a loop recopies all accumulated "
                    "data each iteration; collect pieces and concatenate "
                    "once after the loop",
                )
            elif isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr == "astype" and not _has_copy_false(node):
                    yield self.finding(
                        module,
                        node.lineno,
                        "`astype(...)` copies even when the dtype already "
                        "matches; pass `copy=False`",
                    )
                elif attr == "tolist":
                    yield self.finding(
                        module,
                        node.lineno,
                        "`tolist()` materialises a Python list on the hot "
                        "path; keep the data in the ndarray (or justify the "
                        "wire boundary with a pragma)",
                    )
                elif attr == "tobytes" and self._strided(node.func.value):
                    yield self.finding(
                        module,
                        node.lineno,
                        "strided slice fed to `tobytes()` forces a "
                        "contiguous staging copy; slice contiguously or "
                        "`ascontiguousarray` once outside the hot path",
                    )

    @staticmethod
    def _strided(receiver: ast.expr) -> bool:
        if not isinstance(receiver, ast.Subscript):
            return False
        slices = (
            receiver.slice.elts
            if isinstance(receiver.slice, ast.Tuple)
            else [receiver.slice]
        )
        for item in slices:
            if isinstance(item, ast.Slice) and item.step is not None:
                if not (
                    isinstance(item.step, ast.Constant) and item.step.value == 1
                ):
                    return True
        return False


#: Conversion calls ``dtype-churn`` inspects: ``x.astype(D)`` plus the
#: numpy converters that take an explicit ``dtype=``.
_CONVERTER_FUNCTIONS = ("array", "asarray", "ascontiguousarray", "asfortranarray")


@register_rule(
    "dtype-churn",
    aliases=("array-churn",),
    summary="silent up/downcast (object fallback, narrowing) on a hot module",
    example=(
        "src/repro/serving/sharding.py:250: [dtype-churn] narrowing cast "
        "int64 -> int32 loses range silently; keep int64 or narrow "
        "explicitly at the boundary"
    ),
)
class DtypeChurn(Rule):
    """Flag silent dtype changes on the serving/spatial hot paths.

    Any conversion to ``dtype=object`` is churn (a float64 array falling
    back to object arithmetic is the classic silent 100x).  A narrowing
    cast within one family (int64 -> int32 index narrowing,
    float64 -> float32) fires only when the model can prove the source's
    wider dtype — unknown sources say nothing.
    """

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.config.is_array_hot(module.path):
            return
        contracted = {
            id(entry.node): entry
            for entry in extract_contracts(module.tree, module.pragmas).functions
        }
        for func in self._functions(module.tree):
            entry = contracted.get(id(func))
            env: Dict[str, ArrayValue] = (
                seed_environment(entry) if entry is not None else {}
            )
            for stmt in iter_statements(func):
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call):
                        finding = self._check_conversion(module, node, env)
                        if finding is not None:
                            yield finding
                for name, value_expr in _assigned_names(stmt):
                    inferred = infer_expr(value_expr, env)
                    if inferred is not None:
                        env[name] = inferred
                    else:
                        env.pop(name, None)

    @staticmethod
    def _functions(tree: ast.Module) -> Iterator[ast.AST]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def _check_conversion(
        self, module: ModuleContext, call: ast.Call, env: Dict[str, ArrayValue]
    ) -> Optional[Finding]:
        target: Optional[str] = None
        source: Optional[ArrayValue] = None
        if isinstance(call.func, ast.Attribute) and call.func.attr == "astype":
            dtype_node = call.args[0] if call.args else None
            if dtype_node is None:
                for kw in call.keywords:
                    if kw.arg == "dtype":
                        dtype_node = kw.value
            target = resolve_dtype_node(dtype_node)
            source = infer_expr(call.func.value, env)
        else:
            name = numpy_call_name(call)
            if name in _CONVERTER_FUNCTIONS:
                for kw in call.keywords:
                    if kw.arg == "dtype":
                        target = resolve_dtype_node(kw.value)
                source = infer_expr(call.args[0], env) if call.args else None
        if target is None:
            return None
        if target == "object":
            return self.finding(
                module,
                call.lineno,
                "silent fallback to dtype=object turns vectorised numpy "
                "into per-element Python; keep a numeric dtype",
            )
        if source is not None and source.dtype is not None:
            if is_narrowing(source.dtype, target):
                kind = "precision" if target.startswith("float") else "range"
                return self.finding(
                    module,
                    call.lineno,
                    f"narrowing cast {source.dtype} -> {target} loses "
                    f"{kind} silently; keep {source.dtype} or narrow "
                    "explicitly at the boundary",
                )
        return None


@register_rule(
    "hot-path-alloc",
    aliases=("array-alloc",),
    summary="per-iteration buffer allocation inside a loop on a hot module",
    example=(
        "src/repro/serving/sharding.py:210: [hot-path-alloc] `np.zeros` "
        "allocates a fresh buffer every loop iteration; hoist the "
        "allocation out of the loop and reuse it"
    ),
)
class HotPathAlloc(Rule):
    """Flag fresh-buffer constructors inside loops on array-hot modules.

    ``np.zeros``/``empty``/``full``/``*_like`` inside a ``for``/``while``
    body allocates (and zero-fills) a new buffer every iteration; batch
    code should allocate once outside the loop and fill slices.  Loops
    whose per-iteration buffer genuinely varies in size carry a justified
    pragma.
    """

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.config.is_array_hot(module.path):
            return
        parents = build_parent_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = numpy_call_name(node)
            if name in _ALLOC_CONSTRUCTORS and _in_loop(node, parents):
                yield self.finding(
                    module,
                    node.lineno,
                    f"`np.{name}` allocates a fresh buffer every loop "
                    "iteration; hoist the allocation out of the loop and "
                    "reuse it",
                )


@register_rule(
    "runtime-array-contract",
    aliases=("sanitizer-array-contract",),
    summary="runtime: a live array broke its declared `# array:` contract",
    runtime=True,
    static_counterpart="array-contract",
    example=(
        "src/repro/serving/engine.py:655: [runtime-array-contract] "
        "locate_batch(): argument `xs` breaks `float64[n]`: got dtype "
        "int32 [observed 3x]"
    ),
)
class RuntimeArrayContract(Rule):
    """Runtime twin of ``array-contract``, reported by the sanitizer.

    When armed (``REPRO_SANITIZE=1`` or ``with sanitized():``), every
    contract-annotated function is wrapped to validate its live arguments
    and return value — dtype, rank, symbolic-dimension consistency, and
    ``contiguous`` layout — at each call.  Violations anchor at the
    function's ``def`` line, so one pragma there suppresses both twins.
    Static analysis never emits this rule.
    """

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        return iter(())
