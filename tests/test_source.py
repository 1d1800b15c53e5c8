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
    """``poly._sturm_sequence`` is the one remainder-sequence loop, and only
    the square-free gcd in ``poly.py`` runs it: no other module calls it or
    builds its own from the pseudo-remainder and content helpers."""
    assert _uses_outside_poly({"_sturm_sequence", "_prem_signed", "_int_primitive"}) == []


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


def test_roots_refine_with_one_accelerator():
    """Refinement has one accelerator: only ``_seed`` evaluates a polynomial
    other than the one refined (its derivative), and ``_bisect`` keeps only
    the bisection step, with no division to place a secant point."""
    source = Path(roots.__file__).read_text(encoding="utf-8")
    functions = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    other = sorted(
        name for name, node in functions.items() for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "_value"
        and ast.unparse(sub.args[0]) not in ("ints", "coeffs")
    )
    assert other == ["_seed"]
    bisect = functions["_bisect"]
    assert not any(isinstance(sub, (ast.Div, ast.FloorDiv)) for sub in ast.walk(bisect))
    assert "Abbott" not in source and "quadratic interval" not in source


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


def _loaded_names(tree, stems):
    """Names ``tree`` reads: loaded plain names, and attributes read off a
    starstring module (``starstring``, ``starstring.cli`` or a module bound
    by import, such as ``from . import forward as fwd``)."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or "starstring" for alias in node.names
                        if alias.name.split(".")[0] == "starstring"}
        elif isinstance(node, ast.ImportFrom) and (node.module == "starstring" or node.level and not node.module):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name in stems}

    def is_module(expr):
        if isinstance(expr, ast.Attribute):
            return expr.attr in stems and is_module(expr.value)
        return isinstance(expr, ast.Name) and expr.id in modules

    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(getattr(node, "ctx", None), ast.Load)
        and (isinstance(node, ast.Name) or isinstance(node, ast.Attribute) and is_module(node.value))
    }


def test_every_export_is_used():
    """A name the package's ``__init__`` exports is dead surface unless
    another package module or a test reads it; assigning the name, or
    reading an attribute of that name off another package, is no use."""
    package = Path(starstring.__file__).parent
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    stems = {p.stem for p in package.glob("*.py")}
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    paths += Path(__file__).parent.glob("*.py")
    used = set()
    for path in paths:
        used |= _loaded_names(ast.parse(path.read_text(encoding="utf-8"), str(path)), stems)
    assert exported and sorted(exported - used) == []


def test_one_indented_json_writer():
    """Every output file goes through ``model._dump``: no module calls
    ``json.dump``/``json.dumps`` with ``indent`` (or any other option),
    and the one call there is, the compact error line, is in ``cli.py``."""
    calls = []
    for path in sorted(Path(starstring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in ("dump", "dumps"):
                calls.append((path.name, len(node.args), sorted(k.arg for k in node.keywords)))
    assert calls == [("cli.py", 1, [])]
