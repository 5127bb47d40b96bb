import ast
from pathlib import Path

import shufflealg


def test_no_assert_statements_in_package():
    # `python -O` strips asserts, so correctness checks must raise instead
    pkg = Path(shufflealg.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(pkg.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
