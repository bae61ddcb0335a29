"""The package keeps no code and no setting that only tests or outside code use.

Four checks read the source with ast.

No library keyword keeps a default that no caller in the package sets.  A
parameter with a default that no call inside src/fieldorder ever passes
can only be changed by tests or outside code, and the design keeps no such
setting: it becomes a constant instead.  A callee is matched by name (a
bare name, or the attribute of a dotted call), a class call is a call of
its __init__, and the first parameter of a method is its instance.  A
@dataclass without its own __init__ has the generated one: each field is a
parameter in declaration order, with a default when the field has one.  A
call sets a parameter when it names it as a keyword or passes a positional
argument in its place, and a call with *args or **kwargs sets all of them.
Only functions the package calls are listed.

Nor does one keep a default that every package call sets to the same
literal: the package then always runs with that one value, and the
parameter is a constant too.  A call with *args or **kwargs sets no
literal.

Every top-level def, class, method and module-level constant is reached
from the CLI entry point or from one of a few named library roots.  Code
reaches a definition by naming it, as a bare name or as the attribute of a
dotted name, so a use reaches every definition of that name.  A class
reaches its bases, decorators, class body and dunder methods; a
module-level assignment is code of each name it binds.

Every field of a dataclass is read by the package.  A field no code reads
is state that only tests or outside code look at.
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


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (getattr(target, "id", None) == "dataclass"
            or getattr(target, "attr", None) == "dataclass")


def _dataclass_init(cls):
    """(positional params, defaulted params) of the __init__ that @dataclass
    generates: every annotated field in order, less those declared
    field(init=False); a field has a default when it is assigned one, or a
    field(...) call given default or default_factory."""
    positional, defaulted = [], []
    for s in cls.body:
        if not (isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)):
            continue
        value = s.value
        if isinstance(value, ast.Call) and _callee(value) == "field":
            kwargs = {k.arg: k.value for k in value.keywords}
            if _literal(kwargs.get("init")) == "False":
                continue
            has_default = "default" in kwargs or "default_factory" in kwargs
        else:
            has_default = value is not None
        positional.append(s.target.id)
        if has_default:
            defaulted.append(s.target.id)
    return positional, defaulted


def _definitions(trees):
    """{callee name: [(label, positional params, defaulted params)]} of every def.

    A class's __init__ is listed under the class name as well, and so is
    the __init__ a @dataclass without its own __init__ generates, each
    field a parameter."""
    defs = {}

    def visit(module, node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                own_init = any(isinstance(m, ast.FunctionDef) and m.name == "__init__"
                               for m in child.body)
                if any(map(_is_dataclass, child.decorator_list)) and not own_init:
                    defs.setdefault(child.name, []).append(
                        (f"{module}.{child.name}.__init__", *_dataclass_init(child)))
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


def _package_calls(trees):
    """(label, defaulted params, {param: argument node}) of every package
    call of a package def; a call with *args or **kwargs sets every param,
    to None."""
    defs = _definitions(trees)
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or _callee(call) not in defs:
                continue
            spread = (any(isinstance(a, ast.Starred) for a in call.args)
                      or any(k.arg is None for k in call.keywords))
            for label, positional, defaulted in defs[_callee(call)]:
                passed = ({p: None for p in defaulted} if spread else
                          {**dict(zip(positional, call.args)),
                           **{k.arg: k.value for k in call.keywords}})
                yield label, defaulted, passed


def unset_defaults(trees):
    """Every "module.function(param)" whose default no package call overrides,
    over the functions the package calls."""
    defaulted_of, set_by_calls = {}, set()
    for label, defaulted, passed in _package_calls(trees):
        defaulted_of[label] = defaulted
        set_by_calls.update((label, p) for p in defaulted if p in passed)
    return sorted(f"{label}({p})" for label, defaulted in defaulted_of.items()
                  for p in defaulted if (label, p) not in set_by_calls)


def _literal(node):
    """repr of the literal an argument node spells, or None when it is not one."""
    try:
        return repr(ast.literal_eval(node)) if node is not None else None
    except ValueError:
        return None


def same_literal_defaults(trees):
    """Every "module.function(param)" with a default that every package call
    sets, each to the same literal."""
    values = {}
    for label, defaulted, passed in _package_calls(trees):
        for p in defaulted:
            values.setdefault((label, p), set()).add(_literal(passed.get(p)))
    return sorted(f"{label}({p})" for (label, p), seen in values.items()
                  if len(seen) == 1 and None not in seen)


def test_the_only_unset_default_is_the_entry_point():
    # main(argv) is the entry point, and argv is how a caller outside the
    # package drives it
    assert unset_defaults(_parse_package()) == ["cli.main(argv)"]


def test_the_check_sees_positional_keyword_and_unset_defaults():
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d=3):\n    pass\n"
        "class K:\n    def __init__(self, x=0, y=0):\n        pass\n"
        "    def m(self, z=0):\n        pass\n"
        "def g(u=0):\n    pass\n"
        "f(0, 1, c=2)\nK(5)\nK().m(1)\n")
    assert unset_defaults({"mod": tree}) == ["mod.K.__init__(y)", "mod.f(d)"]


def test_the_check_sees_dataclass_fields():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class D:\n    a: int\n    b: int = field(repr=False)\n"
        "    c: float = 1.0\n    d: tuple = field(default=(), repr=False)\n"
        "    e: list = field(default_factory=list)\n"
        "    f: int = field(default=0, init=False)\n"
        "    g: int = 2\n"
        "@dataclass\n"
        "class Own:\n    x: int = 0\n    def __init__(self, y=0):\n        pass\n"
        "D(1, 2, 3.0)\nD(1, 2, e=[])\nOwn()\n")
    # c, e set; d, g unset; f is not a parameter; Own's __init__ is its own
    assert unset_defaults({"mod": tree}) == [
        "mod.D.__init__(d)", "mod.D.__init__(g)", "mod.Own.__init__(y)"]


def test_no_default_is_one_literal_in_every_package_call():
    assert same_literal_defaults(_parse_package()) == []


def test_the_check_sees_defaults_every_call_sets_to_one_literal():
    tree = ast.parse(
        "def f(a, flag=False, *, label='x', n=1, m=0, k=0):\n    pass\n"
        "def g(*args):\n    return f(*args)\n"
        "f(0, True, label='y', n=-2, m=0, k=0)\nf(1, True, label='y', n=-2, m=1)\n"
        "f(2, flag=True, label='y', n=-2, m=0, k=0)\ng(3)\n")
    assert same_literal_defaults({"mod": tree}) == []
    # without the spread call in g, f's flag, label and n are one literal
    # in every call; m takes two, and one call leaves k unset
    tree.body = tree.body[:1] + tree.body[2:-1]
    assert same_literal_defaults({"mod": tree}) == ["mod.f(flag)", "mod.f(label)", "mod.f(n)"]


# definitions no CLI path reaches that the package keeps, each for its reason
LIBRARY_ROOTS = {
    "classify.is_ess_set": "the paper's setwise ESS concept; the benchmark tracer wraps it",
    "fields.gradient_field": "acceptance criterion 7 compares a field with its gradient",
    "games.hawk_dove": "the stock game of acceptance criterion 9",
    "games.matching_pennies": "the stock two-population game of the game tests",
}


def _reach_code(trees):
    """{name: [label]} of every definition, and {label: [ast node]} of its code."""
    labels, code = {}, {}

    def add(name, label, nodes):
        labels.setdefault(name, []).append(label)
        code.setdefault(label, []).extend(nodes)

    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(node.name, f"{module}.{node.name}", [node])
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, (ast.FunctionDef,
                                                                  ast.AsyncFunctionDef))
                           and not (m.name.startswith("__") and m.name.endswith("__"))]
                add(node.name, f"{module}.{node.name}",
                    node.bases + node.keywords + node.decorator_list
                    + [s for s in node.body if s not in methods])
                for m in methods:
                    add(m.name, f"{module}.{node.name}.{m.name}", [m])
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in {n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name)}:
                    add(name, f"{module}.{name}", [node])
    return labels, code


def unreached(trees, roots):
    """Every "module.name" definition that no code reached from roots names."""
    labels, code = _reach_code(trees)
    reached, todo = set(), list(roots)
    while todo:
        label = todo.pop()
        if label in reached:
            continue
        reached.add(label)
        for node in code[label]:
            for n in ast.walk(node):
                name = (n.id if isinstance(n, ast.Name)
                        else n.attr if isinstance(n, ast.Attribute) else None)
                todo.extend(labels.get(name, ()))
    return sorted(set(code) - reached)


def test_every_definition_is_reached_from_the_cli_or_a_library_root():
    assert unreached(_parse_package(), ["cli.main", *LIBRARY_ROOTS]) == []


def test_no_library_root_is_reached_from_the_cli():
    # a root the CLI reaches needs no place on the list
    assert set(LIBRARY_ROOTS) <= set(unreached(_parse_package(), ["cli.main"]))


def test_the_reach_check_follows_names_from_the_roots():
    tree = ast.parse(
        "LIMIT = 3\n"
        "TABLE = {'a': lambda: _helper()}\n"
        "UNUSED = 0\n"
        "def _helper():\n    return LIMIT\n"
        "def main():\n    return K().run() + TABLE['a']()\n"
        "def orphan():\n    return orphan()\n"
        "@decorate\n"
        "class K(Base):\n    def __init__(self):\n        self.x = 1\n"
        "    def run(self):\n        return self.x\n"
        "    def spare(self):\n        return 0\n"
        "    @property\n    def gone(self):\n        return UNUSED\n"
        "def decorate(cls):\n    return cls\n"
        "class Base:\n    pass\n")
    assert unreached({"mod": tree}, ["mod.main"]) == [
        "mod.K.gone", "mod.K.spare", "mod.UNUSED", "mod.orphan"]
    assert unreached({"mod": tree}, ["mod.main", "mod.orphan"]) == [
        "mod.K.gone", "mod.K.spare", "mod.UNUSED"]


def unread_fields(trees):
    """Every "module.Class.field" annotated in a @dataclass body that no code
    in the package reads as an attribute (.field in a load context).

    A field is matched by name alone, so a read of the same name on any
    object counts: SampleSet.seed, say, would pass on the reads of the
    parsed arguments' .seed.
    """
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list)):
                unread += [f"{module}.{cls.name}.{s.target.id}" for s in cls.body
                           if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                           and s.target.id not in read]
    return sorted(unread)


def test_every_dataclass_field_is_read():
    assert unread_fields(_parse_package()) == []


def test_the_field_check_needs_a_read_in_load_context():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "@dataclass(frozen=True)\n"
        "class A:\n    used: int\n    written: int\n    unused: int = 0\n"
        "@dataclasses.dataclass\n"
        "class B:\n    other: int\n"
        "class Plain:\n    ignored: int\n"
        "def f(a, b):\n    b.written = a.used\n    return a.other\n")
    assert unread_fields({"mod": tree}) == ["mod.A.unused", "mod.A.written"]
