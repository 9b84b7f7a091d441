"""Every committed benchmark table has a benchmark that writes it.

A table under ``benchmarks/output/`` is rewritten only by the benchmark
that passes its name to ``record_output``; once that benchmark is deleted,
the table would stay behind and go stale unnoticed.  The writers are read
from the benchmark sources, so this check runs no benchmark.
"""

import ast
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def recorded_table_names(benchmarks=BENCHMARKS):
    """``{table name: [writing module, ...]}`` from every ``record_output`` call."""
    writers = {}
    for module in sorted(benchmarks.glob("test_bench_*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "record_output"
            ):
                continue
            name = node.args[1]
            assert isinstance(name, ast.Constant) and isinstance(name.value, str), (
                f"{module.name}:{node.lineno}: record_output needs a literal table name"
            )
            writers.setdefault(name.value, []).append(module.name)
    return writers


def committed_tables(benchmarks=BENCHMARKS):
    """Names of the tables committed under ``benchmarks/output/``."""
    return sorted(path.stem for path in (benchmarks / "output").glob("*.txt"))


def orphan_and_shared_tables(benchmarks=BENCHMARKS):
    """``(orphans, shared)``: committed tables no benchmark writes, and
    tables that more than one benchmark writes."""
    writers = recorded_table_names(benchmarks)
    orphans = [name for name in committed_tables(benchmarks) if name not in writers]
    shared = {name: mods for name, mods in writers.items() if len(mods) > 1}
    return orphans, shared


def test_every_committed_table_has_one_writer():
    assert committed_tables()
    orphans, shared = orphan_and_shared_tables()
    assert not orphans, f"tables no benchmark writes: {orphans}"
    assert not shared, f"tables written by more than one benchmark: {shared}"


def test_every_written_table_is_committed():
    missing = sorted(set(recorded_table_names()) - set(committed_tables()))
    assert not missing, f"benchmarks write tables that are not committed: {missing}"


def _bench_dir(tmp_path, modules, tables):
    """A benchmarks-like directory: ``modules`` maps a module name to its
    source, ``tables`` lists the committed table names."""
    (tmp_path / "output").mkdir()
    for name, source in modules.items():
        (tmp_path / f"test_bench_{name}.py").write_text(source, encoding="utf-8")
    for table in tables:
        (tmp_path / "output" / f"{table}.txt").write_text("table\n", encoding="utf-8")
    return tmp_path


def test_guard_reports_a_table_left_behind(tmp_path):
    bench = _bench_dir(
        tmp_path,
        {"kept": "record_output(OUT, 'kept', text)\n"},
        ["kept", "deleted_benchmarks_table"],
    )
    assert orphan_and_shared_tables(bench) == (["deleted_benchmarks_table"], {})


def test_guard_reports_a_table_with_two_writers(tmp_path):
    bench = _bench_dir(
        tmp_path,
        {
            "first": "record_output(OUT, 'table', text)\n",
            "second": "def test():\n    record_output(OUT, 'table', text)\n",
        },
        ["table"],
    )
    assert orphan_and_shared_tables(bench) == (
        [], {"table": ["test_bench_first.py", "test_bench_second.py"]}
    )


def test_guard_rejects_a_computed_table_name(tmp_path):
    bench = _bench_dir(tmp_path, {"computed": "record_output(OUT, f'{name}', text)\n"}, [])
    with pytest.raises(AssertionError, match="literal table name"):
        recorded_table_names(bench)
