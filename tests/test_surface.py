"""No public name of the package exists only for the tests.

A public module-level function, class or constant, or a public method of
a module-level class, of a module in src/cellpower (apart from
__init__.py) must be referenced by name, as a plain name read or an
attribute, somewhere in those modules or in the benchmark under
perfbench/. Re-exports in __init__.py do not count as uses, and neither
does the assignment that defines a constant.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def public_definitions(tree):
    """(qualified name, bare name) of each public module-level function,
    class and constant, and each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        yield from ((name, name) for name in names if not name.startswith("_"))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name


def referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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
    # functions, methods, classes and constants alike
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
    b = "def run(net: Net):\n    return net.forward(1)\n"
    assert unreferenced({"a": a, "b": b}, []) == ["a.Net.parameters", "b.run"]
    assert unreferenced({"a": a, "b": b}, ["run(x)"]) == ["a.Net.parameters"]


def test_flags_a_class_or_constant_only_tests_use():
    a = ("LIMIT = 3\nSCALE: float = 2.0\n_PRIVATE = 1\n"
         "class Spare:\n    pass\n"
         "class Used:\n    pass\n"
         "def run():\n    return Used(), SCALE\n")
    assert unreferenced({"a": a}, []) == ["a.LIMIT", "a.Spare", "a.run"]
    assert unreferenced({"a": a}, ["run(LIMIT)"]) == ["a.Spare"]
