"""Importing the package and its command line loads only what every command
needs.

``fractions`` (which loads ``decimal``) is imported by the exact root
fallbacks when they run, ``json`` and ``hashlib`` by ``--out``,
``--config``, ``--json`` and ``tree --format json``, and no record is a
dataclass, so ``dataclasses`` and the ``inspect`` it loads stay out.  The
import runs in a fresh isolated interpreter, and what it adds is measured
against the modules that interpreter holds before it, which is what a
bare ``python -I -c pass`` holds: ``site`` may already have loaded some.
"""
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LAZY = {"dataclasses", "inspect", "fractions", "decimal", "hashlib", "json"}

_IMPORT = """\
import sys
bare = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import quintic_newton, quintic_newton.cli
print(quintic_newton.__file__)
print(" ".join(sorted(set(sys.modules) - bare)))
"""


def test_import_loads_no_module_only_some_paths_use():
    proc = subprocess.run([sys.executable, "-I", "-c", _IMPORT, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    path, added = proc.stdout.splitlines()
    assert Path(path).resolve().parent.parent == SRC.resolve(), path
    assert "quintic_newton.cli" in added.split()
    assert not LAZY & set(added.split()), sorted(LAZY & set(added.split()))
