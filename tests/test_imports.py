import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "diracssf"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(tree):
    """(line, text) of every underscore name that a module takes from another
    diracssf module: ``from .mod import _name``, or ``mod._name`` on a module
    it imported.  Public names of a private module, such as ``_quad``'s, pass."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "diracssf"
                                                 or (node.module or "").startswith("diracssf.")):
            package = node.module is None or node.module == "diracssf"
            for alias in node.names:
                if package:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append((node.lineno, f"from {'.' * node.level}{node.module or ''} "
                                               f"import {alias.name}"))
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("diracssf."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_imports_another_modules_private_name():
    found = {path.name: private_imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_private_import_scan_sees_both_forms():
    text = ("from .counting import LogSpectrum, _arctan_of_log_ratio\n"
            "from ._quad import gauss_legendre\n"
            "from . import counting as c\n"
            "c._counts(1, 2)\n"
            "c.LogSpectrum\n")
    assert private_imports(ast.parse(text)) == [
        (1, "from .counting import _arctan_of_log_ratio"), (4, "c._counts")]


def constructor_bypasses(tree):
    """(line, text) of every ``object.__new__``, and of every
    ``object.__setattr__`` outside a ``__post_init__``: the two ways to make
    or change a frozen dataclass without going through its constructor."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "object"
                and (node.attr == "__new__"
                     or node.attr == "__setattr__" and func != "__post_init__")):
            found.append((node.lineno, f"object.{node.attr} in {func or '<module>'}"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_every_frozen_object_goes_through_its_constructor():
    found = {path.name: constructor_bypasses(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_constructor_scan_sees_new_and_late_setattr():
    text = ("class A:\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'x', 1)\n"
            "    def _store(self, x):\n"
            "        object.__setattr__(self, 'x', x)\n"
            "    @classmethod\n"
            "    def wrap(cls):\n"
            "        return object.__new__(cls)\n")
    assert constructor_bypasses(ast.parse(text)) == [
        (5, "object.__setattr__ in _store"), (8, "object.__new__ in wrap")]


def gauss_legendre_uses(tree):
    """(line, where) of every use of ``gauss_legendre``: a name or attribute
    that reads it, with the function it sits in, or an import of it."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Name) and node.id == "gauss_legendre"
                or isinstance(node, ast.Attribute) and node.attr == "gauss_legendre"):
            found.append((node.lineno, func or "<module>"))
        elif isinstance(node, ast.ImportFrom) and any(
                alias.name == "gauss_legendre" for alias in node.names):
            found.append((node.lineno, "import"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_log_integral_batch_takes_gauss_legendre_rules():
    # one adaptive rule: every Gauss-Legendre rule in the package is drawn
    # by _quad.log_integral_batch
    found = {(path.name, where) for path in sorted(SRC.glob("*.py"))
             for _, where in gauss_legendre_uses(ast.parse(path.read_text()))}
    assert found == {("_quad.py", "log_integral_batch")}


def test_the_gauss_legendre_scan_sees_calls_aliases_and_imports():
    text = ("from ._quad import gauss_legendre\n"
            "def rule(n):\n"
            "    return _quad.gauss_legendre(n)\n"
            "alias = gauss_legendre\n")
    assert gauss_legendre_uses(ast.parse(text)) == [
        (1, "import"), (3, "rule"), (4, "<module>")]
