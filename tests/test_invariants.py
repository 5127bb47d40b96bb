import ast
from pathlib import Path

import pytest

import shufflealg
from shufflealg.scalars import CoefRat, CoefRatError, ExactDomain
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


def test_scalars_divide_by_monomials_only(dom):
    # no machine divides by a polynomial, so an exact quotient by q - 1 is refused too
    for num in (dom.one, dom.q * dom.q - dom.one):
        with pytest.raises(CoefRatError, match="not a monomial"):
            num / (dom.q - dom.one)
    assert not hasattr(VElem, "divide")
