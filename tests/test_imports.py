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
