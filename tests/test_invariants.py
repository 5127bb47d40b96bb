import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shufflealg
from shufflealg.scalars import CoefRat, ExactDomain
from shufflealg.vkspace import VElem


def test_no_assert_statements_in_package():
    # `python -O` strips asserts, so correctness checks must raise instead
    pkg = Path(shufflealg.__file__).parent
    found = [f"{path.relative_to(pkg)}:{node.lineno}"
             for path in sorted(pkg.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_environment_knobs_in_package():
    # every setting of the package is an argument or a constant: nothing reads os.environ
    # or calls os.getenv
    pkg = Path(shufflealg.__file__).parent
    found = [f"{path.relative_to(pkg)}:{node.lineno}"
             for path in sorted(pkg.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
             and isinstance(node.value, ast.Name) and node.value.id == "os"]
    assert found == []


def test_package_loads_no_dataclasses():
    # the records are namedtuples: a fresh process that imports every module and runs a
    # CLI verification loads neither dataclasses nor the inspect it pulls in
    code = ("import contextlib, io, sys\n"
            "import shufflealg\n"
            "from shufflealg import (actions, braid, cli, combinat, scalars, sweep, symfunc,\n"
            "                        verify, vkspace)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['verify', 'shuffle', '--m1', '1', '--n1', '1', '--g', '2'])\n"
            "print(code, sorted({'dataclasses', 'inspect'} & sys.modules.keys()))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(shufflealg.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def test_every_export_resolves():
    # a name left in __all__ after its definition is deleted breaks `import *`
    missing = [name for name in shufflealg.__all__ if not hasattr(shufflealg, name)]
    assert missing == []
    exec("from shufflealg import *", {})


def test_exports_are_the_readme_quick_entry():
    # the package exports exactly what README's library example imports
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    imports = [line for line in readme.splitlines() if line.startswith("from shufflealg import ")]
    assert len(imports) == 1
    names = imports[0].removeprefix("from shufflealg import ").split(",")
    assert sorted(shufflealg.__all__) == sorted(name.strip() for name in names)


def test_exact_domain_is_stateless():
    # a domain builds constants and monomials only; every operator image is cached by
    # its integer arguments, once per process, not per domain
    fields = vars(ExactDomain())
    assert fields and all(type(v) is CoefRat for v in fields.values())


def _scopes_naming(tree, name):
    """The dotted scope (class and function names) of every use of `name`, imports aside."""
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Name) and child.id == name or \
                    isinstance(child, ast.Attribute) and child.attr == name:
                out.append(".".join(scope))
            walk(child, scope)

    walk(tree, ())
    return out


def test_coefrat_is_only_a_scalar(dom):
    # the operator images hold polynomials: a CoefRat is read into an element by
    # symfunc._poly, which takes any scalar, and made from one only by SymFunc.coeffs
    # and the lowest-terms witness printer of check_relations
    pkg = Path(shufflealg.__file__).parent
    found = {(path.name, scope) for path in sorted(pkg.glob("*.py")) if path.name != "scalars.py"
             for scope in _scopes_naming(ast.parse(path.read_text()), "CoefRat")}
    assert found <= {("symfunc.py", "SymFunc.coeffs"), ("vkspace.py", "check_relations.untagged")}
    # no machine divides, so scalars have no division
    with pytest.raises(TypeError):
        dom.one / dom.q
    assert not hasattr(VElem, "divide")
