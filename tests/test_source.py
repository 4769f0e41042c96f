"""Source-level guards on the package itself."""

import ast
import sys
from pathlib import Path

import kmu

SOURCE = Path(kmu.__file__).resolve().parent


def _nodes():
    """(module file name, AST node) for every node of the package."""
    paths = sorted(SOURCE.glob("*.py"))
    assert paths, "no package sources found"
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_package_holds_no_assert_statement():
    # `python -O` strips assert statements, so no check may rely on one
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_identity_records_are_made_only_by_report():
    # report.scan alone decides pass or fail, so no other module may
    # build a record, for instance from a scan over a subset of tuples
    def constructs_record(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name == "IdentityRecord"

    made = [f"{name}:{node.lineno}" for name, node in _nodes() if constructs_record(node)]
    assert made and all(site.startswith("report.py:") for site in made), made


def test_contact_axioms_are_checked_only_by_the_pipeline():
    # a structure holds its tensors only, and analyze_structure checks the
    # axioms of every structure it analyses; a check made anywhere else
    # would be a second record of the same axioms, which could go stale
    def calls_check(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name == "check_contact_axioms"

    calls = [f"{name}:{node.lineno}" for name, node in _nodes() if calls_check(node)]
    assert calls and all(site.startswith("pipeline.py:") for site in calls), calls


def test_only_linalg_writes_vector_supports():
    # a vector's support is written once, by the kernel that makes it; a
    # stale support would hide a nonzero residual, so one module owns it
    def writes_support(node):
        if isinstance(node, ast.Attribute):
            if node.attr == "_nz" and not isinstance(node.ctx, ast.Load):
                return True
            return (
                node.attr == "_raw"
                and isinstance(node.value, ast.Name)
                and node.value.id == "Vec"
            )
        return False

    sites = [f"{name}:{node.lineno}" for name, node in _nodes() if writes_support(node)]
    assert sites and all(site.startswith("linalg.py:") for site in sites), sites


def test_zero_vectors_are_made_only_by_the_shared_constructor():
    # every zero vector a kernel writes is Vec.zero(length), one shared
    # object per length, so an empty support is written in one place and
    # no kernel allocates a zero row of its own
    def empty_supports(tree):
        return [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_raw"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "Vec"
            and node.args
            and isinstance(node.args[0], ast.Tuple)
            and not node.args[0].elts
        ]

    tree = ast.parse((SOURCE / "linalg.py").read_text(encoding="utf-8"))
    zero = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "zero"
    )
    assert empty_supports(tree) == empty_supports(zero) != [], empty_supports(tree)


def test_only_linalg_reads_vector_and_matrix_storage():
    # vectors and matrices are read through their public methods everywhere
    # else, so how linalg stores them (supports, lengths, rows and cached
    # columns) can change in one module
    storage = {"_cols", "_len", "_nz", "_rows", "_vecs"}
    sites = [
        f"{name}:{node.lineno} .{node.attr}"
        for name, node in _nodes()
        if isinstance(node, ast.Attribute) and node.attr in storage
    ]
    assert sites and all(site.startswith("linalg.py:") for site in sites), sites


def test_only_linalg_names_the_shared_constants():
    # a zero is skipped inside the kernels, which tell the shared zero by
    # identity; a check elsewhere that compared against _ZERO or _ONE
    # would be a per-site identity test the kernels already make
    def names_constant(node):
        if isinstance(node, ast.Name):
            return node.id in ("_ZERO", "_ONE")
        if isinstance(node, ast.Attribute):
            return node.attr in ("_ZERO", "_ONE")
        if isinstance(node, ast.alias):
            return node.name in ("_ZERO", "_ONE")
        return False

    sites = [
        f"{name}:{getattr(node, 'lineno', '?')}"
        for name, node in _nodes()
        if names_constant(node)
    ]
    assert sites and all(site.startswith("linalg.py:") for site in sites), sites


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies, so the package imports the
    # standard library and its own modules only, even where numpy or
    # sympy happen to be installed
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            return [node.module]
        return []

    modules = [(name, node.lineno, m) for name, node in _nodes() for m in imported(node)]
    outside = [
        f"{name}:{line} {m}"
        for name, line, m in modules
        if m.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert modules and outside == [], outside


def test_curvature_table_stores_only_its_table():
    # R is stored once, as its i < j planes; the lowering and the nested
    # export table are derived from them on first read, so a table rebuilt
    # under a fault row cannot meet a stale second copy of R
    from dataclasses import fields

    from kmu.connection import CurvatureTable

    assert [f.name for f in fields(CurvatureTable)] == ["dim", "metric", "planes"]


def test_vector_stores_only_its_support():
    # a vector is its length and its support: an index bisects the support
    # and an iteration builds the dense entries without keeping them, so
    # no vector holds a second, dense copy that a read could fill
    from kmu.linalg import Vec

    assert Vec.__slots__ == ("_nz", "_len")


def test_connection_table_stores_only_its_operators():
    # a connection is stored once, as its operators; gamma is an export
    # view of their columns, and a leaf's nablabar is the same type, on
    # the frame's induced metric
    from dataclasses import fields, replace
    from fractions import Fraction

    from kmu.connection import ConnectionTable, levi_civita
    from kmu.linalg import Mat, Vec
    from kmu.submanifold import build_distribution, second_fundamental_form

    assert [f.name for f in fields(ConnectionTable)] == ["dim", "metric", "ops"]
    m = kmu.build_boeckx_model(2, Fraction(1), Fraction(3))
    conn = levi_civita(m)
    dim = conn.dim
    for i in range(dim):
        for j in range(dim):
            assert conn.gamma[i][j] == conn.ops[i].col(j)
    # a table rebuilt with other operators derives its own gamma
    ops = (conn.ops[0] + Mat.identity(dim),) + conn.ops[1:]
    rebuilt = replace(conn, ops=ops)
    assert rebuilt.gamma[0][1] == conn.gamma[0][1] + Vec.basis(dim, 1)
    assert rebuilt.gamma[1:] == conn.gamma[1:]
    an = kmu.analyze_structure(m)
    geom = second_fundamental_form(an, build_distribution(m, "diagonal", c=2, d=1))
    assert isinstance(geom.nbar, ConnectionTable)
    assert geom.nbar.dim == m.n and geom.nbar.metric is geom.frame.induced


def test_every_definition_is_used_or_exported():
    # the certifier runs one path and no report reads anything else, so a
    # definition that nothing in the package reads is dead code; a method
    # counts as read only through an attribute, so a local variable of
    # the same name does not keep it alive
    definitions, names, attributes = [], set(), set()

    def visit(module, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                method = isinstance(node, ast.ClassDef)
                definitions.append((module, ".".join((*scope, child.name)), method))
                visit(module, child, (*scope, child.name))
                continue
            if isinstance(child, ast.Name):
                names.add(child.id)
            elif isinstance(child, ast.Attribute):
                attributes.add(child.attr)
            visit(module, child, scope)

    for path in sorted(SOURCE.glob("*.py")):
        visit(path.name, ast.parse(path.read_text(encoding="utf-8")), ())
    assert definitions, "no package definitions found"

    def used(qualified, method):
        name = qualified.rpartition(".")[2]
        if name.startswith("__") and name.endswith("__"):
            return True  # called by Python itself
        if method:
            return name in attributes
        return name in names or name in attributes or qualified in kmu.__all__

    unused = [f"{module}:{q}" for module, q, method in definitions if not used(q, method)]
    assert unused == [], unused
