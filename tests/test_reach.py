"""Every public top-level function and class in ``src/altup`` is reached by
the program: called or imported by another of its modules, used inside its
own module, or read by the benchmark harness in ``altbench``. Anything only
the tests use belongs in the tests (``tape_oracles`` holds the tape ops that
serve as oracles)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "altup"
# the benchmark harness reads the MAC counter and the open graph, and imports
# the sentence-pair and corpus generators, so it counts as a caller
CALLERS = (PACKAGE, ROOT / "altbench")


def _public_names(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def _bindings(tree, module):
    """Names a file binds to ``altup.<module>`` itself (``from . import
    tensor as T``) and the names it imports from it (``from .tensor import
    record``)."""
    aliases, imported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if (node.level and not base) or base == "altup":
                aliases |= {a.asname or a.name for a in node.names if a.name == module}
            elif base in (module, f"altup.{module}"):
                imported |= {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == f"altup.{module}" and a.asname}
    return aliases, imported


def _reached(module, trees):
    """Names of ``altup.<module>`` that the parsed files ``trees`` refer to:
    bare names inside the module, and imports or attribute reads through an
    alias elsewhere."""
    used = set()
    for path, tree in trees.items():
        if path.parent == PACKAGE and path.stem == module:
            used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            continue
        aliases, imported = _bindings(tree, module)
        used |= imported
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id in aliases}
    return used


def unreached(modules):
    """For each module of ``modules`` (names within ``altup``), its public
    top-level functions and classes that no caller refers to."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in CALLERS for path in sorted(folder.glob("*.py"))}
    missing = {}
    for module in modules:
        used = _reached(module, trees)
        names = [name for name in _public_names(trees[PACKAGE / f"{module}.py"])
                 if name not in used]
        if names:
            missing[module] = names
    return missing


def test_every_public_name_in_the_package_is_reached_by_the_program():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    assert "tensor" in modules
    missing = unreached(modules)
    assert not missing, f"public names no module of the program reaches: {missing}"

