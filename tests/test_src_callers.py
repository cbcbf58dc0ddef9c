"""A standing audit of `src/` definitions that nothing in `src/` calls.

Each module of src/leda is parsed with `ast`. Its definitions are every
top-level function, class and module constant, and every method of a
top-level class but the dunders. A definition is referenced when some
`src/` code outside its own body names it:
- a bare name in its own module, or a name imported from it
  (`from .trainer import domain_operands`, aliases too);
- an attribute of a module alias (`ad.exp` for `autodiff.exp`; `np.exp`
  names numpy's, not the engine's);
- for a method, any attribute of that name on something other than a
  module alias, as an object's type is not known statically;
- a string given to argparse's `set_defaults`, the way `cli` names the
  protocol function it dispatches to (`protocol="linear_probe"`).

A definition with no reference fails the audit unless `ALLOWED` names it
with its reason; an `ALLOWED` entry that gains a caller, or goes, fails it
too, so the list stays exact.
"""

from __future__ import annotations

import ast
import shutil
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "leda"

# each with its reason, and the item that removes it where one does
ALLOWED = {
    **{f"autodiff.{name}": "bench/tracer.py::PRIMITIVES looks it up by name; item 5b retires it"
       for name in ("exp", "log", "div", "sqrt", "square", "clip", "reduce_mean")},
    "evaluate.embed": "bench/tracer.py patches it and bench/workloads.py calls it; item 6b deletes it",
    "linalg.CsrMatrix.from_scipy": "bench/workloads.py builds an input with it; item 1b",
    "evaluate.mi_from_scores": "acceptance criterion 8 reads it",
    "__init__.__version__": "the package's version attribute, read by whoever imports leda",
    "cli._Parser.error": "overrides argparse.ArgumentParser.error, which argparse calls",
}


def _definitions(module: str, tree: ast.Module) -> dict[str, ast.AST]:
    """qualified name -> the statement that defines it."""
    found = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            found[f"{module}.{stmt.name}"] = stmt
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    found[f"{module}.{stmt.name}.{item.name}"] = item
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(
            stmt, ast.AnnAssign) else []
        for target in targets:
            if isinstance(target, ast.Name):
                found[f"{module}.{target.id}"] = stmt
    return found


def _imports(tree: ast.Module, modules: set[str]) -> tuple[dict[str, str], dict[str, str], set[str]]:
    """(alias -> leda module, alias -> leda module.name, other module aliases)
    over every import in the file, wherever it stands."""
    module_alias, name_alias, foreign = {}, {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            foreign.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            foreign.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                if node.module is None and a.name in modules:
                    module_alias[a.asname or a.name] = a.name
                elif node.module is not None:
                    name_alias[a.asname or a.name] = f"{node.module}.{a.name}"
    return module_alias, name_alias, foreign


def _references(module: str, tree: ast.Module, modules: set[str], methods: dict[str, list[str]]):
    """Yield (referenced qualified name, the node that names it)."""
    module_alias, name_alias, foreign = _imports(tree, modules)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield name_alias.get(node.id, f"{module}.{node.id}"), node
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
                node.value.id in module_alias):
            yield f"{module_alias[node.value.id]}.{node.attr}", node
        elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id in foreign):
            for qualified in methods.get(node.attr, ()):
                yield qualified, node
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "set_defaults":
            for keyword in node.keywords:
                if isinstance(keyword.value, ast.Constant) and isinstance(keyword.value.value, str):
                    for other in modules:
                        yield f"{other}.{keyword.value.value}", node


def uncalled(src: Path) -> list[str]:
    """Qualified names of the definitions in src/*.py that no src/ code
    outside their own body references."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    modules = set(trees)
    defined = {name: stmt for module, tree in trees.items()
               for name, stmt in _definitions(module, tree).items()}
    methods: dict[str, list[str]] = {}
    for name in defined:
        if name.count(".") == 2:
            methods.setdefault(name.rsplit(".", 1)[1], []).append(name)
    # every node inside a definition, by id, so that a body naming itself is no caller
    inside = {id(node): name for name, stmt in defined.items() for node in ast.walk(stmt)}
    referenced = {name for module, tree in trees.items()
                  for name, node in _references(module, tree, modules, methods)
                  if name in defined and inside.get(id(node)) != name}
    return sorted(set(defined) - referenced)


def test_every_src_definition_has_a_src_caller_or_a_stated_reason():
    found = set(uncalled(SRC))
    assert not found - set(ALLOWED), f"no src/ caller and no reason given: {sorted(found - set(ALLOWED))}"
    assert not set(ALLOWED) - found, f"allowed, but called in src/ or gone: {sorted(set(ALLOWED) - found)}"


def test_the_audit_finds_a_helper_that_only_tests_would_call(tmp_path):
    """An added helper that calls only itself is reported, and so is one
    whose name numpy shares and another module reaches only as
    `np.<name>`, while one reached as `ad.<name>` is not; the new module
    constant that reaches both is reported too."""
    copy = tmp_path / "leda"
    shutil.copytree(SRC, copy)
    with open(copy / "linalg.py", "a") as f:
        f.write("\n\ndef scaled_copy(x):\n    return scaled_copy(x * 2.0)\n")
    with open(copy / "autodiff.py", "a") as f:
        f.write("\n\ndef expm1(x):\n    return x\n\n\ndef log1p(x):\n    return x\n")
    with open(copy / "trainer.py", "a") as f:
        f.write("\n\n_LOOKUPS = (np.expm1, ad.log1p)\n")
    assert set(uncalled(copy)) - set(ALLOWED) == {"linalg.scaled_copy", "autodiff.expm1", "trainer._LOOKUPS"}
