"""src/kabc holds only what a kabc run calls.

Every public module-level function and class in src/kabc, and every public
method of a public class there, is used by code in src/kabc (a name or
attribute in its syntax tree; a docstring does not count), or is named by
the benchmark under bench/: as a "<module>.<name>" span key, through a
``from kabc... import``, or as a method its tracer wraps (CLASS_METHODS).
Closed forms and cross-checks that only the tests call live in
tests/oracles.py.  And kabc.config, which resolves a config, touches no
file.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kabc"
BENCH = ROOT / "bench"


def syntax_trees(directory):
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(directory.glob("*.py"))}


def test_every_public_definition_in_src_is_called():
    src = syntax_trees(SRC)
    public = [
        (module, node)
        for module, tree in src.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    defined = {(module, node.name) for module, node in public}
    defined |= {
        (module, f"{node.name}.{method.name}")
        for module, node in public
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
    }
    used = set()
    for tree in src.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    named = set()
    for tree in syntax_trees(BENCH).values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.update(re.findall(r"\b([a-z]+)\.([A-Za-z]\w*)", node.value))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kabc."):
                named.update((node.module.split(".")[1], alias.name) for alias in node.names)
            elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["CLASS_METHODS"]:
                for module, classes in ast.literal_eval(node.value).items():
                    named.update((module, f"{cls}.{method}") for cls, methods in classes.items() for method in methods)
    unreferenced = sorted(
        f"{module}.{name}"
        for module, name in defined
        if name.rsplit(".", 1)[-1] not in used and (module, name) not in named
    )
    assert unreferenced == [], f"public in src/kabc but called by nothing in src/kabc or bench/: {unreferenced}"


def test_config_touches_no_file_and_imports_nothing_from_cli():
    # kabc.config resolves a config into a RunSpec; reading the config file
    # and writing every artifact are kabc.cli's
    tree = ast.parse((SRC / "config.py").read_text())
    imported = [
        alias.name if isinstance(node, ast.Import) else f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert [name for name in imported if "cli" in name.split(".")] == []
    calls = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert calls & {"open", "os.remove", "os.replace", "os.makedirs"} == set()
