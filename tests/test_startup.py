"""Importing the package and its command line loads only what every command
needs.

``fractions`` (which loads ``decimal``) is imported by the exact root
fallbacks when they run, ``json`` and ``hashlib`` by ``--out``,
``--config``, ``--json`` and ``tree --format json``, and no record is a
dataclass, so ``dataclasses`` and the ``inspect`` it loads stay out.
Nor does the import take a determinant: ``kneading`` builds the
cofactors of its struck column on first use.  The import runs in a fresh
isolated interpreter, and what it adds is measured against the modules that
interpreter holds before it, which is what a bare ``python -I -c pass``
holds: ``site`` may already have loaded some.
"""
import functools
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
from quintic_newton import kneading
print(kneading._column_oracle.cache_info().currsize)
kneading.kneading_determinant("RLRC")
print(kneading._column_oracle.cache_info().currsize)
"""


@functools.cache
def _fresh_import() -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-I", "-c", _IMPORT, str(SRC)],
                          capture_output=True, text=True, timeout=60)


def test_import_loads_no_module_only_some_paths_use():
    proc = _fresh_import()
    assert len(proc.stdout.splitlines()) >= 2, proc.stderr
    path, added = proc.stdout.splitlines()[:2]
    assert Path(path).resolve().parent.parent == SRC.resolve(), path
    assert "quintic_newton.cli" in added.split()
    assert not LAZY & set(added.split()), sorted(LAZY & set(added.split()))


def test_import_builds_no_determinant_cofactors():
    # nothing cached after the import, the cofactors after one determinant
    proc = _fresh_import()
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[2:] == ["0", "1"]
