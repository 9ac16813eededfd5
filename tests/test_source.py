"""Guards over the package source itself."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import qtanner


def test_package_has_no_assert_statements():
    # invariants must raise QTannerError subclasses: python -O strips asserts
    root = Path(qtanner.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_traced_span_names_resolve_to_package_functions(monkeypatch):
    # the benchmark's traced run wraps these by module attribute; a rename
    # must fail here, not only in that run
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("qtanner_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look it up
    spec.loader.exec_module(tracer)
    missing = []
    for name in tracer.SPAN_NAMES + (tracer.TRACE_ID_SOURCE,):
        mod_name, attr = name.split(".", 1)
        module = importlib.import_module(f"qtanner.{mod_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(name)
    assert missing == []
