"""Every defaulted parameter in the package is passed by some caller.

A parameter with a default counts as used when a call in ``src/`` or
``perfbench/`` passes it, by position or by keyword.  Calls are matched by
name: a bare name, an attribute, or an ``import ... as`` alias standing
for its target; a call of a class counts for its ``__init__`` or
``__new__``, and a method's positions are counted past ``self``.  A call
that spreads ``*args`` or ``**kwargs`` counts as passing everything.
Calls from tests do not count, so a parameter that only ever takes its
default shows up here: it should be a constant.
"""
import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quintic_newton"
CALLER_DIRS = (PACKAGE, ROOT / "perfbench")

# defaulted parameters only tests pass, kept because tests vary them
TEST_VARIED = {
    # D(t) does not depend on the struck column; the test strikes each one
    "kneading.kneading_determinant.column",
}


def _parsed(directory: Path):
    for path in sorted(directory.glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _functions(tree: ast.Module):
    """(qualified name, node, is_method) for every def, nested ones included."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, prefix + child.name + ".", True)
            elif isinstance(child, defs):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                yield prefix + child.name, child, in_class and not static
                yield from visit(child, prefix + child.name + ".", False)
            else:
                yield from visit(child, prefix, in_class)

    yield from visit(tree, "", False)


def _defaulted(fn: ast.FunctionDef, is_method: bool):
    """(name, position or None) of each parameter that has a default; the
    position is where a call's positional arguments reach it."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if is_method else 0
    first = len(positional) - len(args.defaults)
    for i in range(first, len(positional)):
        yield positional[i].arg, i - skip
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        if d is not None:
            yield a.arg, None


def _calls(tree: ast.AST, aliases: dict):
    """(callee name, positional count, keyword names, spreads) per call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name):
            name = f.id
        elif isinstance(f, ast.Attribute):
            name = f.attr
        else:
            continue
        spreads = (any(isinstance(a, ast.Starred) for a in node.args)
                   or any(k.arg is None for k in node.keywords))
        yield (aliases.get(name, name), len(node.args),
               {k.arg for k in node.keywords}, spreads)


def _aliases(tree: ast.AST) -> dict:
    return {a.asname: a.name.rsplit(".", 1)[-1] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for a in node.names if a.asname}


def _default_only_params() -> set[str]:
    calls = defaultdict(list)
    for directory in CALLER_DIRS:
        for _, tree in _parsed(directory):
            for name, npos, kws, spreads in _calls(tree, _aliases(tree)):
                calls[name].append((npos, kws, spreads))
    unpassed = set()
    for path, tree in _parsed(PACKAGE):
        for qualname, fn, is_method in _functions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name in ("__init__", "__new__"):
                name = qualname.rsplit(".", 2)[-2]   # called through its class
            for param, pos in _defaulted(fn, is_method):
                if not any(spreads or param in kws or (pos is not None and npos > pos)
                           for npos, kws, spreads in calls[name]):
                    unpassed.add(f"{path.stem}.{qualname}.{param}")
    return unpassed


def test_every_defaulted_parameter_is_passed():
    unpassed = _default_only_params()
    assert not unpassed - TEST_VARIED, \
        "parameters no caller passes: " + ", ".join(sorted(unpassed - TEST_VARIED))
    # an allowance that gains a caller in the package comes off the list
    assert TEST_VARIED <= unpassed, sorted(TEST_VARIED - unpassed)
