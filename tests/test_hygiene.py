"""Source hygiene: every name a package module imports is used there and
comes from the standard library or the package, every private helper and
every slot of the package is used somewhere in it, and every public
function and every public method or property of a package class is read
by a package module or allowlisted; and ``sequence`` imports no package
module but ``values`` and ``errors``."""

import ast
import sys
from pathlib import Path

import pytest

import quadseq

MODULES = sorted(Path(quadseq.__file__).parent.glob("*.py"))


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _literal(body, name):
    """The literal assigned to ``name`` among the statements ``body``, or ()."""
    for node in body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return ()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = set(_imported(tree)) - used - set(_literal(tree.body, "__all__"))
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"


def test_every_import_is_stdlib_or_relative():
    # the package has no runtime dependency (pyproject.toml declares none)
    foreign = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign += [f"{path.name}: {r}" for r in roots
                        if r not in sys.stdlib_module_names]
    assert not foreign, f"imports outside the standard library: {foreign}"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _trees():
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}


def test_every_private_helper_is_used():
    # a private module-level function must be named somewhere in the
    # package, and a method of a private class read as an attribute
    trees = _trees()
    nodes = [n for tree in trees.values() for n in ast.walk(tree)]
    names = {n.id for n in nodes if isinstance(n, ast.Name)}
    attrs = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, functions) and _private(node.name) and node.name not in names:
                dead.append(f"{module}: {node.name}")
            elif isinstance(node, ast.ClassDef) and _private(node.name):
                dead += [f"{module}: {node.name}.{item.name}" for item in node.body
                         if isinstance(item, functions) and not item.name.startswith("__")
                         and item.name not in attrs]
    assert not dead, f"unused private helpers: {dead}"


def test_every_slot_is_read():
    # a slot that is only ever written holds state nothing consults
    trees = _trees()
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    dead = [f"{module}: {node.name}.{slot}"
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for slot in _literal(node.body, "__slots__") if slot not in read]
    assert not dead, f"slots never read: {dead}"


def test_only_values_reads_the_fixpoint():
    # one precision rule: other modules reach sign refinement through
    # the shadows and signs of ``values``, never through its fixpoints
    readers = sorted({f"{module}:{n.lineno}" for module, tree in _trees().items()
                      if module != "values.py" for n in ast.walk(tree)
                      if isinstance(n, ast.Attribute) and n.attr == "_eval_fixpoint"})
    assert not readers, f"_eval_fixpoint read outside values.py: {readers}"


# public functions no package module reads, each kept for a stated reason
UNREAD_PUBLIC = {
    # perfbench/tracer.py wraps both by name, and its getattr fails without them
    "values.value_cmp",
    "videals.value_ladder",
    # the pair-ideal side that the S = V check is to report (ROADMAP item 11)
    "forms.comparability_index",
    # the step matrices of periods and of S = V witnesses (ROADMAP items 4 and 11)
    "monomials.rewrite_matrix",
    # the strip-and-rewrite ideal step the README's monomials row documents
    "monomials.transform_ideal",
}


def _unread_public(trees):
    """Module-level public functions that no package module but
    ``__init__.py`` names, as an ``ast.Name`` or an ``ast.Attribute``."""
    nodes = [n for module, tree in trees.items() if module != "__init__.py"
             for n in ast.walk(tree)]
    read = ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})
    return {f"{module[:-3]}.{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_") and node.name not in read}


def test_every_public_function_is_read():
    unread = _unread_public(_trees())
    assert unread == UNREAD_PUBLIC, (
        f"read by no package module: {sorted(unread - UNREAD_PUBLIC)}; "
        f"allowlisted but now read or gone: {sorted(UNREAD_PUBLIC - unread)}")


def test_an_added_unread_public_function_fails_the_gate():
    trees = _trees()
    trees["forms.py"].body.append(ast.parse("def orphan():\n    pass\n").body[0])
    assert _unread_public(trees) == UNREAD_PUBLIC | {"forms.orphan"}


# public methods and properties no package module reads, each kept for a
# stated reason
UNREAD_METHODS = {
    # perfbench/tracer.py wraps it by name, and its getattr fails without it
    "sequence.SequenceState.step_in_direction",
}


def _unread_methods(trees):
    """Public methods and properties of package classes whose name no
    package module but ``__init__.py`` reads as an ``ast.Attribute``."""
    read = {n.attr for module, tree in trees.items() if module != "__init__.py"
            for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return {f"{module[:-3]}.{cls.name}.{node.name}" for module, tree in trees.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_") and node.name not in read}


def test_every_public_method_is_read():
    unread = _unread_methods(_trees())
    assert unread == UNREAD_METHODS, (
        f"read by no package module: {sorted(unread - UNREAD_METHODS)}; "
        f"allowlisted but now read or gone: {sorted(UNREAD_METHODS - unread)}")


def test_an_added_unread_method_fails_the_gate():
    trees = _trees()
    cls = next(n for n in trees["values.py"].body
               if isinstance(n, ast.ClassDef) and n.name == "ValueVector")
    cls.body.append(ast.parse("def orphan(self):\n    pass\n").body[0])
    assert _unread_methods(trees) == UNREAD_METHODS | {"values.ValueVector.orphan"}


# the package modules the step engine may import: it knows values, not ideals
SEQUENCE_IMPORTS = {"errors", "values"}


def _package_imports(tree):
    """The package modules a module imports (relatively, the only way the
    stdlib gate above leaves)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            out |= {node.module} if node.module else {a.name for a in node.names}
    return out


def test_sequence_imports_only_values_and_errors():
    extra = _package_imports(_trees()["sequence.py"]) - SEQUENCE_IMPORTS
    assert not extra, f"sequence.py imports package modules {sorted(extra)}"


def test_an_added_package_import_fails_the_layering_gate():
    tree = _trees()["sequence.py"]
    tree.body.append(ast.parse("from .monomials import divides").body[0])
    assert _package_imports(tree) - SEQUENCE_IMPORTS == {"monomials"}
