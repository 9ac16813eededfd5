"""Guards over the package source itself."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import qtanner

# module-level definitions nothing in the package calls, each kept for a reason
UNREFERENCED_ALLOWED: dict[str, str] = {}


@pytest.fixture
def traced_names(monkeypatch):
    """Every function the benchmark's tracer wraps, as "module.attr"."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("qtanner_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look it up
    spec.loader.exec_module(tracer)
    return tracer.SPAN_NAMES + (tracer.TRACE_ID_SOURCE,)


def test_oracles_import_only_gf2_and_errors_from_the_package():
    # the oracles check the library, so they must not call the code they
    # check: bit containers and error types are all they take from it
    path = Path(__file__).resolve().parent / "oracles.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "qtanner":
            imported |= {f"qtanner.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    package = {name for name in imported if name.split(".")[0] == "qtanner"}
    assert package <= {"qtanner.gf2", "qtanner.errors"}


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


def test_only_echelon_eliminates():
    # one elimination per matrix: rank, kernel, solutions and dependent
    # rows are read from an Echelon, never from an elimination of their own
    root = Path(qtanner.__file__).parent
    callers = [
        f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}"
        for path in sorted(root.glob("*.py"))
        for stmt in ast.parse(path.read_text(), str(path)).body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and node.id == "_rref"
        or isinstance(node, ast.Attribute) and node.attr == "_rref"
    ]
    assert callers == ["gf2.Echelon"]


def test_only_codes_forms_kronecker_products():
    # one object per local code: a Tanner code reads its check bases off
    # its two DualTensorCodes, so only codes builds H_A ⊗ H_B and the
    # column space, and no module forms a second copy
    root = Path(qtanner.__file__).parent
    callers = {
        path.stem
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Name) and node.id == "kronecker"
        or isinstance(node, ast.Attribute) and node.attr == "kronecker"
    }
    assert callers == {"codes"}


def test_one_span_enumerator_and_no_lexsort():
    # one order of local codewords: codes spans them already in lex
    # order, so no module but codes names span_words, and no module
    # lexsorts a span again
    root = Path(qtanner.__file__).parent
    paths = sorted(root.glob("*.py"))
    callers = {
        path.stem
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Name) and node.id == "span_words"
        or isinstance(node, ast.Attribute) and node.attr == "span_words"
    }
    assert callers == {"codes"}
    assert [path.stem for path in paths if "lexsort" in path.read_text()] == []


def test_one_first_hit_test_for_both_lockstep_schedules():
    # both lockstep decompositions leave out the rows where no vertex
    # finds a codeword through decoder._first_hits, and nothing else
    # packs every view: it is the only reader of view_words
    root = Path(qtanner.__file__).parent

    def users(name):
        return [
            f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}"
            for path in sorted(root.glob("*.py"))
            for stmt in ast.parse(path.read_text(), str(path)).body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
        ]

    assert users("_first_hits") == ["decoder.lockstep_parallel_decomposition",
                                    "decoder.lockstep_sequential_decomposition"]
    assert users("view_words") == ["decoder._first_hits"]


@pytest.mark.parametrize("name", ["classify_residual", "syndrome_bits_z", "reduced_weight",
                                  "vertex_support_size"])
def test_only_decode_trial_names_one_row_view(name):
    # every trial path computes syndromes, |D|_V, reduced weights and
    # classes on rows: each one-row view is named, outside its own
    # definition, only by decode_trial, the decode-one path
    root = Path(qtanner.__file__).parent
    users = [
        f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}"
        for path in sorted(root.glob("*.py"))
        for stmt in ast.parse(path.read_text(), str(path)).body
        if getattr(stmt, "name", None) != name
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
    ]
    assert users == ["noise.decode_trial"]


@pytest.mark.parametrize("name", ["sequential_decode", "parallel_decode"])
def test_only_decode_one_names_a_scalar_decoder(name):
    # every trial path decodes rows in lockstep: outside decoder, a
    # scalar decoder is named only by DecoderConfig, whose decode is the
    # decode-one path (the package's re-exports are imports, not names)
    root = Path(qtanner.__file__).parent
    users = {
        f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}"
        for path in sorted(root.glob("*.py"))
        if path.stem != "decoder"
        for stmt in ast.parse(path.read_text(), str(path)).body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
    }
    assert users == {"noise.DecoderConfig"}


def test_only_cayley_builds_views():
    # one view table: every module reads views from cayley's view_table,
    # and none defines or calls a local_view
    root = Path(qtanner.__file__).parent
    users = [
        f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}"
        for path in sorted(root.glob("*.py"))
        for stmt in ast.parse(path.read_text(), str(path)).body
        for node in ast.walk(stmt)
        if isinstance(node, ast.FunctionDef) and node.name == "local_view"
        or isinstance(node, ast.Name) and node.id == "local_view"
        or isinstance(node, ast.Attribute) and node.attr == "local_view"
    ]
    assert users == []


def test_traced_span_names_resolve_to_package_functions(traced_names):
    # the benchmark's traced run wraps these by module attribute; a rename
    # must fail here, not only in that run
    missing = []
    for name in traced_names:
        mod_name, attr = name.split(".", 1)
        module = importlib.import_module(f"qtanner.{mod_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(name)
    assert missing == []


def test_every_definition_is_reached_from_the_package(traced_names):
    # a module-level function or class, or a class's method (dunders
    # aside: the language calls them), that only tests call belongs in
    # tests/: it must be named (as a name or an attribute, not in a
    # docstring) somewhere in the package outside its own definition, be
    # a tracer target, or be allowed above
    root = Path(qtanner.__file__).parent
    definitions, users = [], {}
    for path in sorted(root.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((f"{path.stem}.{stmt.name}", stmt.name, path.stem, stmt))
            if isinstance(stmt, ast.ClassDef):
                definitions += [
                    (f"{path.stem}.{stmt.name}.{node.name}", node.name, path.stem, node)
                    for node in stmt.body
                    if isinstance(node, ast.FunctionDef)
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                ]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    users.setdefault(node.id, set()).add((path.stem, node.lineno))
                elif isinstance(node, ast.Attribute):
                    users.setdefault(node.attr, set()).add((path.stem, node.lineno))
    unreached = [
        full
        for full, name, module, node in definitions
        if all(m == module and node.lineno <= line <= node.end_lineno
               for m, line in users.get(name, ()))
        and full not in traced_names
        and full not in UNREFERENCED_ALLOWED
    ]
    assert unreached == []
