"""The LAPACK wrappers load from scipy's extension without scipy.linalg's package."""

import os
import subprocess
import sys

import bayesfir

SRC = os.path.dirname(os.path.dirname(bayesfir.__file__))
ROUTINES = ("dpotrf", "dtrtrs", "dtrtri")


def run_child(code, *path):
    """Run ``code`` in a fresh interpreter with ``path`` and src/ ahead of PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (*path, SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_wrappers_are_scipys_objects_in_either_import_order():
    # scipy.linalg binds its own _flapack attribute even when bayesfir loaded
    # the extension first
    ours = "import bayesfir; from bayesfir import _lapack as ours"
    theirs = "import scipy.linalg; from scipy.linalg import lapack as theirs"
    check = (
        f"print(all(getattr(ours, f) is getattr(theirs, f) is getattr(scipy.linalg._flapack, f) "
        f"for f in {ROUTINES!r}))"
    )
    for first, second in ((ours, theirs), (theirs, ours)):
        done = run_child(f"{first}; {second}; {check}")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "True", (first, second)


def test_missing_extension_names_the_scipy_version_and_directory(tmp_path):
    stub = tmp_path / "scipy"
    stub.mkdir()
    (stub / "__init__.py").write_text('__version__ = "0.0.stub"\n')
    done = run_child("import bayesfir", str(tmp_path))
    assert done.returncode != 0
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: scipy 0.0.stub "), last
    assert str(stub / "linalg") in last
