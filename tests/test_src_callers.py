"""`src/cfpk` holds what the program runs: every module-level function and
class is loaded by some `src/cfpk` module other than `__init__.py`.

A name counts as loaded where a module reads it: its own module by name,
another module through `from .mod import name` (an alias such as
`run as fv_run` counts once the alias is read) or as `mod.name` after
`from . import mod`.  Code that only tests read lives in `tests/oracles.py`.
"""

import ast
from pathlib import Path

import cfpk

SRC = Path(cfpk.__file__).parent

# reached from outside src/cfpk, so no src module loads them
ALLOWED = {
    ("cli", "main"): "the `cfpk` console-script entry point",
    ("cli", "parse_config"): "perfbench/run.py's setup probe calls it",
    ("fpsolver", "sigma_of_state"): "a perfbench/tracing.py target that smoke.py requires",
    ("functionals", "dissipation"): "a perfbench/tracing.py target that smoke.py requires",
}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _definitions(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def _is_main_guard(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
    )


def _loads(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """(defining module, name) of every package name that `tree` reads."""
    imported: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
    submodules: dict[str, str] = {}  # local name -> module, for `from . import mod`
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    submodules[local] = alias.name
                else:
                    imported[local] = (node.module, alias.name)
    own = _definitions(tree)
    loads = set()
    # a `__main__` block runs the module as a script: it is an entry point, not a caller
    body = [node for node in tree.body if not _is_main_guard(node)]
    for node in (sub for top in body for sub in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in imported:
                loads.add(imported[node.id])
            elif node.id in own:
                loads.add((module, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in submodules:
                loads.add((submodules[node.value.id], node.attr))
    return loads


def _uncalled() -> set[tuple[str, str]]:
    modules = _modules()
    loaded = set()
    for name, tree in modules.items():
        if name != "__init__":
            loaded |= _loads(name, tree)
    defined = {(m, d) for m, tree in modules.items() for d in _definitions(tree)}
    return defined - loaded


def test_every_definition_has_a_caller_in_src():
    assert sorted(_uncalled() - ALLOWED.keys()) == []


def test_allowlist_names_exist_and_have_no_src_caller():
    # an entry whose name gained a caller in src, or left src, is stale
    assert sorted(ALLOWED.keys() - _uncalled()) == []


def test_an_alias_counts_as_a_load():
    tree = ast.parse("from .fpsolver import run as fv_run\n\ndef go():\n    return fv_run()\n")
    assert _loads("longtime", tree) == {("fpsolver", "run")}
    unread = ast.parse("from .fpsolver import run as fv_run\n")
    assert _loads("longtime", unread) == set()
