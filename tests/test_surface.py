"""No name of the package exists only for the tests.

A public module-level function, class or constant, or a public method of
a module-level class, of a module in src/cellpower (apart from
__init__.py) must be referenced by name, as a plain name read or an
attribute, somewhere in those modules or in the benchmark under
perfbench/. Re-exports in __init__.py do not count as uses, and neither
does the assignment that defines a constant. A private one (a leading
underscore, dunders apart) must be referenced in those modules alone.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def definitions(tree, private=False):
    """(qualified name, bare name) of each module-level function, class and
    constant, and each method of a module-level class, that is public, or
    private if `private`; dunders are neither."""
    def kept(name):
        dunder = name.startswith("__") and name.endswith("__")
        return name.startswith("_") == private and not dunder

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        yield from ((name, name) for name in names if kept(name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and kept(item.name):
                    yield f"{node.name}.{item.name}", item.name


def referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreferenced(modules: dict, users: list, private=False) -> list:
    """Public (or, if `private`, private) definitions of `modules` (name ->
    source) that no module and no source in `users` references."""
    trees = {name: ast.parse(text) for name, text in modules.items()}
    used = set().union(*(referenced_names(t) for t in trees.values()),
                       *(referenced_names(ast.parse(text)) for text in users))
    return [f"{name}.{qualified}" for name, tree in trees.items()
            for qualified, bare in definitions(tree, private) if bare not in used]


def package_modules():
    modules = {p.stem: p.read_text()
               for p in sorted((ROOT / "src" / "cellpower").glob("*.py"))
               if p.name != "__init__.py"}
    assert len(modules) >= 8
    return modules


def test_every_public_function_has_a_non_test_caller():
    # functions, methods, classes and constants alike
    bench = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert bench
    assert unreferenced(package_modules(), bench) == []


def test_every_private_helper_has_a_caller_in_the_package():
    # so that deleting a caller cannot leave its helper behind
    assert unreferenced(package_modules(), [], private=True) == []


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


def test_flags_a_private_helper_only_tests_use():
    a = ("_LIMIT = 3\n_SCALE = 2.0\n"
         "def _spare():\n    pass\n"
         "def _used():\n    return _SCALE\n"
         "class _Cache:\n"
         "    def __init__(self):\n        self._rows = []\n"
         "    def _grow(self):\n        pass\n"
         "    def _fill(self):\n        self._grow()\n"
         "def run():\n    return _used()\n")
    assert unreferenced({"a": a}, [], private=True) == [
        "a._LIMIT", "a._spare", "a._Cache", "a._Cache._fill"]
    # a use in another module of the package counts
    b = "def _helper():\n    pass\ndef go():\n    return a._spare, a._Cache._fill\n"
    assert unreferenced({"a": a, "b": b}, [], private=True) == ["a._LIMIT", "b._helper"]
