"""Every function, class and non-dunder method in the package has a caller,
every module-level constant a reader, and every record field a reader.

A name counts as used when code in ``src/`` or ``perfbench/`` refers to it
outside its own definition, as a bare name, as an attribute, or through an
``import ... as`` alias.  Re-exports in ``__init__.py`` and calls from
tests do not count, so an API kept alive only by its own tests shows up
here.  A constant (an upper-case name assigned at module level) counts as
read only from ``src/``: the benchmark keeps its own constants, and one of
the same name there would hide the package's.  A field of a record (see
``_fields`` for what counts as one) counts as read when code in ``src/``
or ``perfbench/`` reads an attribute of that name.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quintic_newton"
CALLER_DIRS = (PACKAGE, ROOT / "perfbench")


def _definitions(tree: ast.Module):
    """(qualified name, node) for each top-level def/class and each method
    that is not a dunder (operators are called by syntax, not by name)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def _constants(tree: ast.Module):
    """(name, node) for each upper-case name assigned at module level."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                yield target.id, node


def _fields(tree: ast.Module):
    """(qualified name, field) for each field of a top-level record class.

    A record's fields are the annotated names in the body of a dataclass
    or NamedTuple; a subclass of a record defined in the same module (a
    NamedTuple with a validating ``__new__``) has its base's fields; and
    a class with no base and an ``__init__`` has the ``self`` attributes
    that ``__init__`` assigns."""
    records: dict[str, list[str]] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        marks = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        marks += node.bases
        names = [m.id for m in marks if isinstance(m, ast.Name)]
        fields = [f for base in names for f in records.get(base, ())]
        if {"dataclass", "NamedTuple"} & set(names):
            fields += [item.target.id for item in node.body
                       if isinstance(item, ast.AnnAssign)
                       and isinstance(item.target, ast.Name)]
        inits = [item for item in node.body
                 if isinstance(item, ast.FunctionDef) and item.name == "__init__"]
        if inits and not node.bases:
            fields += [t.attr for t in ast.walk(inits[0])
                       if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                       and isinstance(t.value, ast.Name) and t.value.id == "self"]
        if fields:
            records[node.name] = fields
            for name in fields:
                yield f"{node.name}.{name}", name


def _references(tree: ast.AST) -> Counter:
    """How often each name is read in tree, an alias counting for its target."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias) and node.asname:
            found[node.name] += 1
    return found


def _parsed(directory: Path):
    for path in sorted(directory.glob("*.py")):
        if path.name != "__init__.py":
            yield path, ast.parse(path.read_text(), str(path))


def _test_only_names() -> set[str]:
    used: Counter = Counter()
    for directory in CALLER_DIRS:
        for _, tree in _parsed(directory):
            used += _references(tree)
    dead = set()
    for path, tree in _parsed(PACKAGE):
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if used[name] - _references(node)[name] <= 0:
                dead.add(f"{path.stem}.{qualname}")
    return dead


def test_every_name_in_the_package_is_used():
    dead = _test_only_names()
    assert not dead, "defined but never used outside tests: " + ", ".join(sorted(dead))


def test_every_constant_in_the_package_is_read():
    read: Counter = Counter()
    for _, tree in _parsed(PACKAGE):
        read += _references(tree)
    unread = sorted(f"{path.stem}.{name}"
                    for path, tree in _parsed(PACKAGE)
                    for name, node in _constants(tree)
                    if read[name] - _references(node)[name] <= 0)
    assert not unread, "module constants nothing in src/ reads: " + ", ".join(unread)


def test_every_record_field_is_read():
    read = {node.attr
            for directory in CALLER_DIRS for _, tree in _parsed(directory)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted(f"{path.stem}.{qualname}"
                    for path, tree in _parsed(PACKAGE)
                    for qualname, name in _fields(tree)
                    if name not in read)
    assert not unread, "record fields nothing in src/ or perfbench/ reads: " \
        + ", ".join(unread)


# the package's records: a record that changes form must stay one _fields
# reads, or its fields silently drop out of the check above
RECORDS = {
    "words.SymbolWord", "words.TreeNode", "kneading.PolyTreeNode",
    "dynamics.CriticalFrame", "dynamics.OrbitCode", "markov.EntropyResult",
    "markov.MarkovPartition", "markov.CurvePoint",
    "reduction.BringJerrardQuintic", "reduction.ReducedQuintic",
    "reduction.ConjugacyReport",
}


def test_every_record_has_its_fields_checked():
    seen = {f"{path.stem}.{qualname.split('.')[0]}"
            for path, tree in _parsed(PACKAGE) for qualname, _ in _fields(tree)}
    assert RECORDS <= seen, "records whose fields go unchecked: " \
        + ", ".join(sorted(RECORDS - seen))
