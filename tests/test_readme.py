import ast
import importlib
import math
import operator
import pkgutil
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

# one list entry: `NAME = value`[, `NAME = value`...] (`module`): meaning
_ENTRY = re.compile(r"^\s*- ((?:`[A-Z][A-Z0-9_]* = [^`]+`(?:, )?)+) \(`(\w+)`\):", re.M)
_ASSIGNMENT = re.compile(r"`([A-Z][A-Z0-9_]*) = ([^`]+)`")
_OPERATORS = {ast.Pow: operator.pow, ast.LShift: operator.lshift, ast.Mult: operator.mul,
              ast.USub: operator.neg}


def _number(node):
    """Value of a numeric literal, possibly with ``-``, ``*``, ``**``, ``<<`` or
    ``math.exp``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return node.value
    if (isinstance(node, ast.Call) and ast.unparse(node.func) == "math.exp"
            and len(node.args) == 1 and not node.keywords):
        return math.exp(_number(node.args[0]))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _OPERATORS:
        return _OPERATORS[type(node.op)](_number(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        return _OPERATORS[type(node.op)](_number(node.left), _number(node.right))
    raise ValueError(f"not a numeric literal: {ast.unparse(node)}")


def _documented_constants():
    """(module, name, value text) of every README rule-constant entry."""
    return [(module, name, value)
            for names, module in _ENTRY.findall(README.read_text())
            for name, value in _ASSIGNMENT.findall(names)]


def test_every_readme_constant_sits_in_a_parsed_entry():
    # a `NAME = value` span outside the list's entry format would be skipped
    documented = _documented_constants()
    assert len(documented) >= 20
    assert len(documented) == len(_ASSIGNMENT.findall(README.read_text()))


def test_every_readme_rule_constant_has_its_documented_value():
    wrong = []
    for module, name, text in _documented_constants():
        want = _number(ast.parse(text, mode="eval").body)
        got = getattr(importlib.import_module(f"diracssf.{module}"), name, None)
        if type(got) is not type(want) or got != want:
            wrong.append(f"{module}.{name}: README {text}, code {got!r}")
    assert not wrong


def _module_constants():
    """(module, name) of every public numeric constant a diracssf module defines:
    an upper-case module-level assignment whose value is an int or a float."""
    package = importlib.import_module("diracssf")
    found = set()
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"diracssf.{info.name}")
        tree = ast.parse(Path(module.__file__).read_text())
        for node in tree.body:
            for target in node.targets if isinstance(node, ast.Assign) else ():
                if (isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id)
                        and type(getattr(module, target.id)) in (int, float)):
                    found.add((info.name, target.id))
    return found


def test_every_module_constant_is_documented():
    documented = {(module, name) for module, name, _ in _documented_constants()}
    constants = _module_constants()
    assert len(constants) >= 40
    assert constants - documented == set()


# one row of the read-set tables: | `name` | `key`, `key`, ... |
_READ_ROW = re.compile(r"^\| `([a-z-]+)` \| ((?:`\w+`(?:, )?)+) \|", re.M)


def test_readme_read_sets_are_the_harness_tables():
    harness = importlib.import_module("diracssf.harness")
    documented = {name: re.findall(r"`(\w+)`", keys)
                  for name, keys in _READ_ROW.findall(README.read_text())}
    want = {name: list(entry[1]) for name, entry in harness._SCENARIOS.items()}
    want.update({law: list(entry[3]) for law, entry in harness._LAWS.items()})
    assert documented == want


# a usage line: diracssf <command> [options...], in the README or the cli docstring
_USAGE = re.compile(r"^\s*diracssf ([a-z-]+)(.*)$", re.M)
_OPTION = re.compile(r"--[a-z][a-z-]*")


def _documented_options(text):
    """(command, option) of every ``--option`` on a ``diracssf`` usage line."""
    return {(command, option) for command, rest in _USAGE.findall(text)
            for option in _OPTION.findall(rest)}


def _parser_options(capsys):
    """(command, option) of every option ``cli.main``'s parser accepts,
    read from its own --help output; --help itself is left out."""
    cli = importlib.import_module("diracssf.cli")

    def help_text(argv):
        with pytest.raises(SystemExit):
            cli.main([*argv, "--help"])
        return capsys.readouterr().out

    usage = help_text([]).splitlines()[0]
    commands = re.search(r"\{([a-z,-]+)\}", usage).group(1).split(",")
    return {(command, option) for command in commands
            for option in _OPTION.findall(help_text([command])) if option != "--help"}


def _cli_docs():
    return README.read_text() + importlib.import_module("diracssf.cli").__doc__


def test_documented_cli_options_are_accepted(capsys):
    accepted = _parser_options(capsys)
    assert _documented_options(_cli_docs()) - accepted == set()
    # a stale usage line is caught
    stale = "    diracssf run --config a.cfg --threads 4\n"
    assert _documented_options(stale) - accepted == {("run", "--threads")}


def test_accepted_cli_options_are_documented(capsys):
    assert _parser_options(capsys) - _documented_options(_cli_docs()) == set()
