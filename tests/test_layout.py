"""src/kabc holds only what a kabc run calls.

Every public module-level function and class in src/kabc, and every public
method of a public class there, is used by code in src/kabc (a name or
attribute in its syntax tree; a docstring does not count), or is named by
the benchmark under bench/: as a "<module>.<name>" span key, through a
``from kabc... import`` (of its module, or of one that imports it from
there), or as a method its tracer wraps (CLASS_METHODS).  Closed forms and
cross-checks that only the tests call live in tests/oracles.py.  And
kabc.config, which resolves a config, touches no file; kabc.artifacts, not
kabc.cli, writes and lands the files of a run.
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
    # a name that a module imports from a sibling ("from .artifacts import
    # write_snapshot" in cli) names the sibling's definition too
    imported_from = {(module, alias.name): (node.module, alias.name)
                     for module, tree in src.items() for node in tree.body
                     if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                     for alias in node.names}
    named |= {imported_from[key] for key in named if key in imported_from}
    unreferenced = sorted(
        f"{module}.{name}"
        for module, name in defined
        if name.rsplit(".", 1)[-1] not in used and (module, name) not in named
    )
    assert unreferenced == [], f"public in src/kabc but called by nothing in src/kabc or bench/: {unreferenced}"


def test_config_touches_no_file_and_imports_nothing_from_cli():
    # kabc.config resolves a config into a RunSpec; reading the config file
    # is kabc.cli's, and writing every artifact kabc.artifacts'
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


def test_cli_writes_no_file_itself_and_no_runner_sizes_a_block():
    # the writer process, its pipe and the landing of every file are
    # kabc.artifacts', and so are the particle block's size and type
    cli = ast.parse((SRC / "cli.py").read_text())
    imported = {alias.name for node in ast.walk(cli) if isinstance(node, ast.Import) for alias in node.names}
    assert imported & {"pickle", "signal"} == set()
    calls = {ast.unparse(node.func) for node in ast.walk(cli) if isinstance(node, ast.Call)}
    assert calls & {"os.fork", "os.pipe", "os.replace"} == set()
    for name in ("CSV_BLOCK_ROWS", "_Keyed"):
        where = {
            module
            for module, tree in syntax_trees(SRC).items()
            for node in ast.walk(tree)
            if name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        }
        assert where == {"artifacts"}, f"{name} is defined or referenced in {sorted(where)}"


def test_no_multiprocessing_and_gc_only_at_the_process_entry():
    # the CSV writer is a fork with a pipe (a sweep's pool is
    # concurrent.futures'), and only the process entry touches the
    # collector, so main called in-process leaves the caller's alone
    multiprocessing, gc = [], set()
    for module, tree in syntax_trees(SRC).items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    roots = [alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    roots = [(node.module or "").split(".")[0]]
                else:
                    roots = []
                if "multiprocessing" in roots:
                    multiprocessing.append(module)
                named = isinstance(node, ast.Name) and node.id == "gc"
                if named or isinstance(node, ast.ImportFrom) and roots == ["gc"]:
                    gc.add((module, getattr(top, "name", None)))
    assert multiprocessing == []
    assert gc == {("cli", "entry")}
