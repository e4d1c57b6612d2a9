"""The package prints only through ``cli._write``: no other ``click.echo`` or ``click.secho``, and no ``print``."""

import ast
import pathlib

import pytest

import graphsteering

PACKAGE = pathlib.Path(graphsteering.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))
WRITER = ("cli.py", "_write")


def output_calls(source: str, module: str) -> list:
    """(line, name) of each echo, secho or print call in ``source`` outside the writer helper."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (module, node.name) == WRITER:
            allowed |= {id(inner) for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in allowed:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("echo", "secho", "print"):
            found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("module", MODULES)
def test_no_output_call_outside_writer(module):
    assert output_calls((PACKAGE / module).read_text(), module) == []


def test_writer_names_its_stream():
    # a click.echo without file= would cache, and so keep, every stream it is handed
    tree = ast.parse((PACKAGE / WRITER[0]).read_text())
    (helper,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == WRITER[1]]
    (call,) = [n for n in ast.walk(helper) if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "echo"]
    assert "file" in {keyword.arg for keyword in call.keywords}


def test_output_call_found():
    source = (
        "import click\n"
        "from click import echo\n"
        "def _write(text):\n"
        "    click.echo(text)\n"
        "def report(x):\n"
        "    click.secho(x)\n"
        "    echo(x)\n"
        "    print(x)\n"
    )
    assert output_calls(source, "cli.py") == [(6, "secho"), (7, "echo"), (8, "print")]
    assert output_calls(source, "other.py") == [(4, "echo"), (6, "secho"), (7, "echo"), (8, "print")]
