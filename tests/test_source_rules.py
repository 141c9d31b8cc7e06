"""Rules about the source tree itself, checked by parsing it."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blochjac"


def _library_table_names():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## Library layout", 1)[1].split("\n\n", 2)[1]
    return set(re.findall(r"`([^`]+)`", table))


def _used_names(node):
    """Names a syntax tree reads, as bare names or as attributes."""
    return set(_name_counts(node))


def _name_counts(node):
    """How often a syntax tree reads each name, bare or as an attribute."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def test_no_src_definition_exists_only_for_tests():
    # every module-level def or class, and every public method or property
    # of a src class, is read in src outside its own definition, or is named
    # in the README library table; fixtures has no exemption, so it keeps
    # only what `blochjac example` builds
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reads = sum((_name_counts(tree) for tree in trees.values()), Counter())
    documented = _library_table_names()
    unused = []
    for module, tree in trees.items():
        defs = [stmt for stmt in tree.body if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
        defs += [method for cls in defs if isinstance(cls, ast.ClassDef) for method in cls.body
                 if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")]
        for stmt in defs:
            if stmt.name not in documented and reads[stmt.name] == _name_counts(stmt)[stmt.name]:
                unused.append(f"{module}:{stmt.name}")
    assert unused == []


def _bound_names(stmt):
    """Names a module-level import or assignment binds."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return [(alias.asname or alias.name).split(".")[0] for alias in stmt.names]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    else:
        return []
    return [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]


def test_no_unused_import_or_module_level_name():
    # an import is read in its own module; a module-level variable is read
    # somewhere in src outside the statement that binds it
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read_in = {name: [(stmt, _used_names(stmt)) for stmt in tree.body] for name, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for stmt in tree.body:
            imported = isinstance(stmt, (ast.Import, ast.ImportFrom))
            scopes = [module] if imported else list(trees)
            for name in _bound_names(stmt):
                if name == "annotations" or name.startswith("__"):
                    continue  # from __future__ import annotations; module dunders
                if not any(name in names for scope in scopes for other, names in read_in[scope] if other is not stmt):
                    unused.append(f"{module}:{name}")
    assert unused == []


def test_readme_library_table_names_exist():
    # each identifier in a module's row is defined or imported there; the table
    # whitelists names for test_no_src_definition_exists_only_for_tests, so a
    # stale entry, such as a deleted function, would hide an unused one
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## Library layout", 1)[1].split("\n\n", 2)[1]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    assert len(rows) == 7
    for module_cell, contents in rows:
        module = importlib.import_module(module_cell.strip().strip("`"))
        for name in re.findall(r"`([^`]+)`", contents):
            if name.isidentifier():
                assert hasattr(module, name), f"{module.__name__} has no {name}"
            else:
                assert name.startswith("blochjac "), name  # a command line, not a name


def _readers(tree, name):
    """The functions, nested ones included, whose bodies read name."""
    return [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and name in _used_names(f)]


def test_one_path_from_an_exact_polynomial_to_its_roots():
    # squarefree_decomposition alone decides between the certificate and Yun,
    # one function in spectral takes a polynomial to its roots, and one
    # certifies real roots, so no second path to real band edges exists
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    for private in ("_yun", "_squarefree_certificate"):
        for module, tree in trees.items():
            imported = {alias.name for sub in ast.walk(tree) if isinstance(sub, ast.ImportFrom) for alias in sub.names}
            if module != "exactmath.py":
                assert private not in _used_names(tree) | imported, f"{module} reads {private}"
        assert _readers(trees["exactmath.py"], private) == ["squarefree_decomposition"]
    for name in ("roots_all", "squarefree_decomposition", "certified_roots"):
        assert len(_readers(trees["spectral.py"], name)) == 1, name
    # the bands of an operator check themselves, so no caller runs the oracle apart
    assert _readers(trees["spectral.py"], "cross_validate") == ["band_structure"]
    for module in ("cli.py", "inverse.py"):
        imported = {alias.name for sub in ast.walk(trees[module]) if isinstance(sub, ast.ImportFrom)
                    for alias in sub.names}
        assert "cross_validate" not in _used_names(trees[module]) | imported, module


def test_verify_decides_the_trace_identity_without_floats():
    # the trace identity is proved on Phi's factors at integer points, so
    # verify seeds no sampler and finds no branch roots; on_circle is read
    # off the branch, so the CLI keeps no tolerance of its own for it
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    (verify,) = [f for f in trees["spectral.py"].body
                 if isinstance(f, ast.FunctionDef) and f.name == "verify_identities"]
    assert not {"branch_values", "random"} & _used_names(verify)
    imported = [alias.name for sub in trees["spectral.py"].body if isinstance(sub, ast.Import) for alias in sub.names]
    assert "random" not in imported
    assert "UNIT_CIRCLE_TOL" not in _used_names(trees["cli.py"])


def test_the_floquet_oracle_bound_is_the_eigensolvers_relative_contract():
    # an absolute bound refuses correct bands of a large enough operator, so
    # cross_validate measures misses by EIG_ACCURACY ||L(tau)|| and no
    # module keeps an absolute oracle tolerance
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    for module, tree in trees.items():
        assert "CROSS_TOL" not in {name for stmt in tree.body for name in _bound_names(stmt)}, module
    (oracle,) = [f for f in trees["spectral.py"].body
                 if isinstance(f, ast.FunctionDef) and f.name == "cross_validate"]
    assert "EIG_ACCURACY" in _used_names(oracle)


def test_no_cap_decides_a_thin_band():
    # _between ends on a proof: a shared root is found by a modular resultant
    # or a gcd and counted once, and the distinct roots are refined until
    # apart, so no module binds an iteration cap for the separation
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    for module, tree in trees.items():
        assert "_BISECTIONS" not in {name for stmt in tree.body for name in _bound_names(stmt)}, module
    (between,) = [f for f in trees["spectral.py"].body if isinstance(f, ast.FunctionDef) and f.name == "_between"]
    assert {"_refine", "euclid"} <= _used_names(between)


def test_one_exact_kernel_refines_every_real_root():
    # certified_roots and _between both narrow dyadic brackets by _refine,
    # so no bit casts over the doubles or second sign evaluator come back
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    numerics = trees["numerics.py"].body
    names = {stmt.name for stmt in numerics if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    names |= {name for stmt in numerics for name in _bound_names(stmt)}
    assert not {"struct", "_sign_at", "_ordinal", "_double"} & names
    for module, name in (("numerics.py", "certified_roots"), ("spectral.py", "_between")):
        (f,) = [f for f in trees[module].body if isinstance(f, ast.FunctionDef) and f.name == name]
        assert "_refine" in _used_names(f), name


def _numpy_importers(node, where=""):
    """The function, by name ("" at module level), around each import of numpy under node."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            out += [where for alias in child.names if alias.name.split(".")[0] == "numpy"]
        elif isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == "numpy":
            out.append(where)
        out += _numpy_importers(child, child.name if isinstance(child, ast.FunctionDef) else where)
    return out


def test_one_floquet_eigensolve():
    # floquet_eigs builds L(tau) and solves it, so no module keeps the matrix
    # or a generic Hermitian solver apart, and numpy is imported only where
    # Floquet eigenvalues are taken: lyapunov, resonances and recover run
    # without it
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    for module, tree in trees.items():
        bound = {sub.name for sub in ast.walk(tree) if isinstance(sub, (ast.FunctionDef, ast.ClassDef))}
        bound |= {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}
        bound |= {(alias.asname or alias.name) for sub in ast.walk(tree)
                  if isinstance(sub, (ast.Import, ast.ImportFrom)) for alias in sub.names}
        assert not {"floquet_matrix", "hermitian_eigs", "NonHermitianError"} & bound, module
    importers = sorted((module, where) for module, tree in trees.items() for where in _numpy_importers(tree))
    assert importers == [("operators.py", "floquet_eigs"), ("spectral.py", "cross_validate")]
