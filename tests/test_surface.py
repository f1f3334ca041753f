"""No public function or method of the package exists only for the tests.

A public function or method of a module in src/cellpower (apart from
__init__.py) must be referenced by name, as a plain name or an attribute,
somewhere in those modules or in the benchmark under perfbench/.
Re-exports in __init__.py do not count as uses.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def public_definitions(tree):
    """(qualified name, bare name) of each public module-level function and
    each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name


def referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreferenced(modules: dict, users: list) -> list:
    """Public definitions of `modules` (name -> source) that no module and
    no source in `users` references."""
    trees = {name: ast.parse(text) for name, text in modules.items()}
    used = set().union(*(referenced_names(t) for t in trees.values()),
                       *(referenced_names(ast.parse(text)) for text in users))
    return [f"{name}.{qualified}" for name, tree in trees.items()
            for qualified, bare in public_definitions(tree) if bare not in used]


def test_every_public_function_has_a_non_test_caller():
    modules = {p.stem: p.read_text()
               for p in sorted((ROOT / "src" / "cellpower").glob("*.py"))
               if p.name != "__init__.py"}
    bench = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert len(modules) >= 8 and bench
    assert unreferenced(modules, bench) == []


def test_flags_a_method_only_tests_call():
    a = ("class Net:\n"
         "    def forward(self, x):\n        return x\n"
         "    def parameters(self):\n        return []\n"
         "def _helper():\n    pass\n")
    b = "def run(net):\n    return net.forward(1)\n"
    assert unreferenced({"a": a, "b": b}, []) == ["a.Net.parameters", "b.run"]
    assert unreferenced({"a": a, "b": b}, ["run(x)"]) == ["a.Net.parameters"]
