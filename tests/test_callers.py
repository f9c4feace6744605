"""Every public name of the package has a caller outside the tests.

A public top-level function or class of `src/sbmlab`, or a public method or
property of such a class, must occur at least twice in the non-test Python
files under `src/`, `scripts/` and `perfbench/`: once where it is defined and
once where it is used.  An occurrence is an identifier, or a string literal
that spells the name exactly (perfbench binds the functions it traces by
name); comments and docstrings do not count.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sbmlab"

# name -> why it stays without a caller.  Only a reference implementation
# that tests compare against belongs here.
ALLOWED: dict[str, str] = {}


def _public_names():
    """(file, dotted name, bare name) for every public definition in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield path.name, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.name, f"{node.name}.{item.name}", item.name


def _occurrences() -> Counter:
    counts = Counter()
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name.startswith("test_") or path.name == "conftest.py":
                continue
            for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
                if tok.type == tokenize.NAME:
                    counts[tok.string] += 1
                elif tok.type == tokenize.STRING:
                    try:
                        value = ast.literal_eval(tok.string)
                    except (ValueError, SyntaxError):
                        continue
                    if isinstance(value, str) and value.isidentifier():
                        counts[value] += 1
    return counts


def test_every_public_name_has_a_caller():
    names = list(_public_names())
    # the scan sees functions, classes, methods and properties
    assert {"run_two_arms", "Graph", "Graph.sparse", "SbmParams.p_in"} <= {d for _, d, _ in names}
    assert set(ALLOWED) <= {d for _, d, _ in names}
    counts = _occurrences()
    unused = [f"{file}: {dotted}" for file, dotted, name in names if counts[name] < 2 and dotted not in ALLOWED]
    assert not unused, "defined but never used outside the tests:\n" + "\n".join(unused)
