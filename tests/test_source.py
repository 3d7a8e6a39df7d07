"""Rules on the library source itself."""

import ast
import pathlib

import twosc

SRC = pathlib.Path(twosc.__file__).parent


def test_library_has_no_assert_and_no_debug_branch():
    # python -O drops both, so a check written either way would run under
    # python and vanish under python -O; checks raise or live in the tests
    found = []
    files = sorted(SRC.glob("*.py"))
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert len(files) > 10 and found == []
