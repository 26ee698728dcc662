import ast
from pathlib import Path

import avor3

SRC = Path(avor3.__file__).parent


def test_package_has_no_assert_statements():
    # guards must raise, so that they survive `python -O`
    found = ["%s:%d" % (path.relative_to(SRC), node.lineno)
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
