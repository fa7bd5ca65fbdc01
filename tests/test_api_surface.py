"""Every public function and method of the library has a caller outside the tests.

A name that only tests reach is dead code in the library, unless a test uses
it as an oracle; those few are listed in ORACLES.  Callers are found by name:
a method counts as called when any attribute of that name is read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "demos", "perfbench")

#: kept for the tests, which check canonical_form and snf against the
#: first three, and the catalog's key digests against key_digest of
#: canonical_form
ORACLES = {"relabel", "invert_generators", "determinant", "canonical_form", "key_digest"}


def _public_definitions():
    """(module, name) of each public top-level function and each public method."""
    for path in sorted((ROOT / "src" / "tripres").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield path.stem, node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.stem, f"{node.name}.{item.name}"


def _references() -> set[str]:
    """Names read, attributes read and string constants in the non-test code.

    Strings count because perfbench looks the functions it traces up by name.
    Imports do not: a name imported only to be re-exported is never called.
    """
    refs = set()
    for top in CALLER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    refs.add(node.value)
    return refs


def test_every_public_name_has_a_caller_outside_the_tests():
    refs = _references()
    defined = list(_public_definitions())
    unused = [
        f"{module}.{name}"
        for module, name in defined
        if name.rsplit(".", 1)[-1] not in refs and name not in ORACLES
    ]
    assert unused == []
    assert ORACLES <= {name for _, name in defined}
