"""No module under ``src/repro`` imports a name it never uses.

A stdlib-``ast`` stand-in for pyflakes' unused-import check.  Skipped:
package ``__init__.py`` files (their imports are re-exports), names a
module lists in ``__all__``, ``from __future__`` imports and import
lines marked ``# noqa``.  A name counts as used when it appears as an
identifier anywhere in the module, string annotations included.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "repro")


def modules():
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.relpath(os.path.join(root, name), SRC)


def imported_names(tree, lines):
    """(name, line) for every name the module's imports bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            yield bound, node.lineno


def annotation_strings(tree):
    """The string annotations of the module, as parsed expressions."""
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in
                           args.posonlyargs + args.args + args.kwonlyargs
                           + [args.vararg, args.kwarg] if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) \
                        and isinstance(sub.value, str):
                    try:
                        yield ast.parse(sub.value, mode="eval")
                    except SyntaxError:
                        pass


def used_names(tree):
    used = set()
    for root in [tree, *annotation_strings(tree)]:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                used.add(node.id)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant))
    return used


def unused_imports(text, path="<module>"):
    """``path:line: name`` for every import of ``text`` never used."""
    tree = ast.parse(text, filename=path)
    used = used_names(tree)
    return [f"{path}:{line}: {name}"
            for name, line in imported_names(tree, text.splitlines())
            if name not in used]


def test_no_unused_import():
    found = []
    for path in modules():
        with open(os.path.join(SRC, path), encoding="utf-8") as fh:
            found += unused_imports(fh.read(), path)
    assert found == []


def test_the_scan_finds_an_unused_import():
    text = ("import os\nfrom typing import Dict, List\n"
            "import sys  # noqa: F401\nx: 'Dict[str, int]' = {}\n")
    assert unused_imports(text) == ["<module>:1: os", "<module>:2: List"]
