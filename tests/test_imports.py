"""Every name a package module imports is used in that module (``__init__`` re-exports its imports)."""

import ast
import pathlib

import pytest

import graphsteering

PACKAGE = pathlib.Path(graphsteering.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names bound by import statements of ``source`` that no other expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_module_checked():
    assert {"protocol.py", "schmidt.py", "steering.py", "infotheory.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_unused_import_found():
    source = "import numpy as np\nfrom .schmidt import mix_white_noise, stabilizer_table\nmix_white_noise(np.ones(1), 0.0)\n"
    assert unused_imports(source) == [(2, "stabilizer_table")]


DENSE_MODULES = ("registers", "graphstate")


def dense_imports(source: str) -> list:
    """(line, name) of each import of ``source`` that reaches into the dense modules.

    That is a dense module itself, a name imported from one, or a name it defines
    imported through the package.
    """
    dense_names = set()
    for module in DENSE_MODULES:
        for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                dense_names.add(node.name)
            elif isinstance(node, ast.Assign):
                dense_names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[-1] in DENSE_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = (node.module or "").split(".")[-1]
            for alias in node.names:
                if module in DENSE_MODULES or alias.name in DENSE_MODULES or alias.name in dense_names:
                    found.append((node.lineno, alias.name))
    return found


@pytest.mark.parametrize("module", ["cli.py", "protocol.py", "verify.py"])
def test_no_dense_imports(module):
    assert dense_imports((PACKAGE / module).read_text()) == []


def test_dense_import_found():
    source = (
        "from .registers import MAX_STATE_BYTES\n"
        "from . import graphstate, make_star, PureState\n"
        "import graphsteering.registers\n"
        "from .steering import key_rate_curve\n"
    )
    assert dense_imports(source) == [
        (1, "MAX_STATE_BYTES"), (2, "graphstate"), (2, "PureState"), (3, "graphsteering.registers"),
    ]
