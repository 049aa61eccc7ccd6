"""No function in the package calls itself by name, so no Python recursion
depth grows with the input: every walk is a loop over an explicit stack."""

import ast
from pathlib import Path

# The bounded evaluator behind pa_eval_bounded recurses once per formula
# level.  It is a test oracle that no command reaches, and it caps its own
# work (presburger.DEFAULT_EVAL_WORK).
EXEMPT = {"free_variables", "_flatten_and", "_eval", "_eval_exists"}


def _self_calls(tree):
    """The dotted name of each function in tree that calls itself, directly
    or from a function nested in it; a method calls itself through
    self.name or cls.name."""
    found = []
    stack = [(tree, ())]
    while stack:
        node, outer = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child, outer + (child.name,)))
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append((child, outer))
                continue
            names = outer + (child.name,)
            stack.append((child, names))
            if EXEMPT.intersection(names):
                continue
            for call in ast.walk(child):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if (isinstance(f, ast.Name) and f.id == child.name) or (
                    isinstance(f, ast.Attribute)
                    and f.attr == child.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")
                ):
                    found.append(".".join(names))
                    break
    return found


def test_guard_sees_recursion():
    tree = ast.parse(
        "def f(n):\n    return f(n - 1)\n"
        "class C:\n    def m(self):\n        return self.m()\n"
        "def g():\n    def h():\n        g()\n    return h\n"
    )
    assert sorted(_self_calls(tree)) == ["C.m", "f", "g"]


def test_no_function_calls_itself():
    package = Path(__file__).resolve().parents[1] / "src" / "shapegraph"
    found = []
    for path in sorted(package.glob("*.py")):
        found += [f"{path.name}:{name}" for name in _self_calls(ast.parse(path.read_text()))]
    assert found == []
