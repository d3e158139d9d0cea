import ast
import pathlib

import pabi


def test_all_lists_every_public_import():
    tree = ast.parse(pathlib.Path(pabi.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(pabi.__all__) == {name for name in imported if not name.startswith("_")}
    assert len(pabi.__all__) == len(set(pabi.__all__))
