"""No library keyword keeps a default that no caller in the package sets.

A parameter with a default that no call inside src/fieldorder ever passes
can only be changed by tests or outside code, and the design keeps no such
setting: it becomes a constant instead.  The check reads the source with
ast.  A callee is matched by name (a bare name, or the attribute of a
dotted call), a class call is a call of its __init__, and the first
parameter of a method is its instance.  A call sets a parameter when it
names it as a keyword or passes a positional argument in its place, and a
call with *args or **kwargs sets all of them.  Only functions the package
calls are listed.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "fieldorder")


def _parse_package():
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                trees[name[:-3]] = ast.parse(fh.read())
    return trees


def _definitions(trees):
    """{callee name: [(label, positional params, defaulted params)]} of every def.

    A class's __init__ is listed under the class name as well."""
    defs = {}

    def visit(module, node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(module, child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                if owner is not None:
                    positional = positional[1:]
                defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
                defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                              if d is not None]
                label = f"{module}.{owner + '.' if owner else ''}{child.name}"
                entry = (label, positional, defaulted)
                defs.setdefault(child.name, []).append(entry)
                if owner is not None and child.name == "__init__":
                    defs.setdefault(owner, []).append(entry)
                visit(module, child, None)
            else:
                visit(module, child, owner)

    for module, tree in trees.items():
        visit(module, tree, None)
    return defs


def _callee(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def unset_defaults(trees):
    """Every "module.function(param)" whose default no package call overrides,
    over the functions the package calls."""
    defs = _definitions(trees)
    called, set_by_calls = set(), set()
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or _callee(call) not in defs:
                continue
            spread = (any(isinstance(a, ast.Starred) for a in call.args)
                      or any(k.arg is None for k in call.keywords))
            for label, positional, defaulted in defs[_callee(call)]:
                called.add(label)
                passed = set(positional[:len(call.args)]) | {k.arg for k in call.keywords}
                set_by_calls.update((label, p) for p in defaulted if spread or p in passed)
    return sorted({f"{label}({p})" for entries in defs.values() for label, _, defaulted in entries
                   for p in defaulted if label in called and (label, p) not in set_by_calls})


def test_unset_defaults_are_the_entry_point_and_the_stock_field_domain():
    # main(argv) is the entry point, and argv is how a caller outside the
    # package drives it.  vector_field(domain) puts the stock "linear" field
    # in n dimensions, which only tests do.
    assert unset_defaults(_parse_package()) == ["cli.main(argv)", "fields.vector_field(domain)"]


def test_the_check_sees_positional_keyword_and_unset_defaults():
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d=3):\n    pass\n"
        "class K:\n    def __init__(self, x=0, y=0):\n        pass\n"
        "    def m(self, z=0):\n        pass\n"
        "def g(u=0):\n    pass\n"
        "f(0, 1, c=2)\nK(5)\nK().m(1)\n")
    assert unset_defaults({"mod": tree}) == ["mod.K.__init__(y)", "mod.f(d)"]
