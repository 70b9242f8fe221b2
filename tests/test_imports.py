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
