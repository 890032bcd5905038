"""The package and its benchmark import only the standard library.

The package is pure Python with no runtime dependencies, so every
``import`` in ``src/`` and ``perfbench/`` names a standard-library module,
the package itself, or a module of the same directory (the benchmark's
scripts import each other by name).  Relative imports stay inside the
package.  Imports inside functions count too: a lazily imported
third-party module is still a dependency.
"""
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = (ROOT / "src" / "quintic_newton", ROOT / "perfbench")


def _imported_modules(tree: ast.AST):
    """(line, top-level module) for every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_is_standard_library_or_local():
    outside = []
    for directory in DIRS:
        paths = sorted(directory.glob("*.py"))
        allowed = sys.stdlib_module_names | {"quintic_newton"} | {p.stem for p in paths}
        for path in paths:
            tree = ast.parse(path.read_text(), str(path))
            outside += [f"{path.relative_to(ROOT)}:{line}: {name}"
                        for line, name in _imported_modules(tree) if name not in allowed]
    assert not outside, "non-stdlib imports:\n" + "\n".join(outside)
