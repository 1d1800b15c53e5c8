"""Checks on the package source itself."""

import ast
from pathlib import Path

import starstring
from starstring import errors, roots


def test_no_assert_statements():
    """Invariants raise real exceptions: ``python -O`` strips ``assert``."""
    paths = sorted(Path(starstring.__file__).parent.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_module_level_imports_are_used():
    """A name a module imports is a name it uses; the package's
    ``__init__`` imports only to export."""
    paths = sorted(Path(starstring.__file__).parent.glob("*.py"))
    unused = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def _uses_outside_poly(private):
    """``module:line name`` for every use of the given names outside ``poly.py``."""
    paths = sorted(Path(starstring.__file__).parent.glob("*.py"))
    found = []
    for path in paths:
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                names = [getattr(node, "id", None), getattr(node, "attr", None)]
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name in private]
    return found


def test_remainder_sequence_helpers_stay_in_poly():
    """``poly._sturm_sequence`` is the one remainder-sequence loop: no other
    module builds its own from the pseudo-remainder and content helpers."""
    assert _uses_outside_poly({"_prem_signed", "_int_primitive"}) == []


def test_poly_storage_stays_in_poly():
    """``Poly``'s (scale, primitive ints) form is known to ``poly.py`` alone:
    no other module reads its storage fields or builds one from parts."""
    assert _uses_outside_poly({"_scale", "_ints", "_canonical", "_new", "_store"}) == []


def test_roots_isolate_by_descartes_bisection_alone():
    """``roots.py`` builds no Sturm chain and holds one isolation path: only
    ``_tree`` counts sign variations, and only ``isolate_real_roots`` and
    ``_isolate_squarefree`` isolate."""
    tree = ast.parse(Path(roots.__file__).read_text(encoding="utf-8"))
    names = {
        node.name: {getattr(sub, "id", None) for sub in ast.walk(node)}
        for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    imported = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set().union(*names.values()) | imported
    assert not used & {"_sturm_sequence", "_variations_at"}
    assert sorted(name for name, refs in names.items() if "_variations" in refs) == ["_tree"]
    assert sorted(name for name in names if "isolat" in name) == ["_isolate_squarefree", "isolate_real_roots"]


def test_every_error_class_is_raised_elsewhere():
    """An error code no module raises is dead surface: each subclass of
    ``StarStringError`` in ``errors.py`` is raised in another module."""
    defined = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.StarStringError)
        and value is not errors.StarStringError and value.__module__ == errors.__name__
    }
    raised = set()
    for path in sorted(Path(starstring.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    assert defined and sorted(defined - raised) == []


def test_every_export_is_used():
    """A name the package's ``__init__`` exports is dead surface unless
    another package module or a test uses it."""
    package = Path(starstring.__file__).parent
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    paths += Path(__file__).parent.glob("*.py")
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            used.add(getattr(node, "id", None) or getattr(node, "attr", None))
    assert exported and sorted(exported - used) == []
