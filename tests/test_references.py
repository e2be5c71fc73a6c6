"""Every public top-level function and class in acx has a caller.

A caller is a code reference (a name or an attribute, not docstring text)
outside the definition itself, in the package, in the acceptance suite or
in the benchmark.  Unit tests do not count: code that only they reach is
surface nothing else uses.

The package also defines no exception classes: a rejected input raises
ValueError, so callers and the CLI catch one type.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "acx").glob("*.py"))
READERS = PACKAGE + [ROOT / "tests" / "test_acceptance.py"] + sorted(
    (ROOT / "perfbench").glob("*.py")
)

# results of the paper, stated as functions that only the unit tests call
PAPER_STATEMENTS = {
    "avg_gap_check",
    "complexity_exceeds",
    "is_an_simple",
    "power_bound_implication_holds",
    "theoretical_bound",
}


def referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def uncalled_definitions() -> set[str]:
    """Public top-level definitions that no other top-level statement names."""
    statements = []
    definitions = []
    for path in READERS:
        for node in ast.parse(path.read_text(), str(path)).body:
            statements.append((node, referenced_names(node)))
            if (
                path in PACKAGE
                and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
            ):
                definitions.append(node)
    return {
        d.name
        for d in definitions
        if not any(d.name in names for node, names in statements if node is not d)
    }


def test_every_definition_has_a_caller():
    uncalled = uncalled_definitions()
    assert uncalled - PAPER_STATEMENTS == set(), "nothing calls these"
    assert PAPER_STATEMENTS - uncalled == set(), "these have callers; drop the exception"


# RuntimeError and AssertionError mark faults, ArgumentTypeError the CLI's
# usage errors, and ImportError a failed build of the compiled search walk
RAISED = {
    "ValueError", "RuntimeError", "AssertionError", "argparse.ArgumentTypeError", "ImportError"
}


def test_no_exception_classes():
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                bases = {ast.unparse(base).rpartition(".")[2] for base in node.bases}
                exceptions = {b for b in bases if b == "Exception" or b.endswith("Error")}
                assert not exceptions, f"{path.name}: {node.name} derives from {exceptions}"


def test_every_raise_names_a_builtin_error():
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = ast.unparse(exc) if exc is not None else "a bare raise"
                assert name in RAISED, f"{path.name}:{node.lineno} raises {name}"
