"""Tests for fdrates._lapack, the loader of scipy's LAPACK extension."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fdrates

SRC = str(Path(fdrates.__file__).resolve().parents[1])


def _run(args, *path):
    """A fresh Python process with path, then this fdrates, first on its
    PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*path, SRC,
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("first, second", [
    ("fdrates.numerics", "scipy.linalg.lapack"),
    ("scipy.linalg.lapack", "fdrates.numerics"),
])
def test_one_extension_whichever_imports_first(first, second):
    # one extension module serves both, so each routine is scipy.linalg.lapack's
    # own object, and gives its bytes on a random tridiagonal solve and
    # tridiagonal eigenvalues
    code = textwrap.dedent(f"""
        import importlib, json, sys
        importlib.import_module({first!r})
        importlib.import_module({second!r})
        import numpy as np
        import fdrates._lapack as ours
        import scipy.linalg.lapack as theirs

        rng = np.random.default_rng(7)
        n = 50
        dl, du, e = rng.standard_normal((3, n - 1))
        diag, b = 4.0 + rng.standard_normal((2, n))

        def results(lapack):
            lu = lapack.dgttrf(dl, diag, du)
            x = lapack.dgttrs(*lu[:5], b)[0]
            m, w, iblock, isplit, info = lapack.dstebz(diag, e, 0, 0, 0, 0, 0, 0, "E")
            return [a.tobytes().hex() for a in (*lu[:5], x, w)] + [info]

        same = [getattr(ours, n) is getattr(theirs, n) for n in ours.__all__]
        one = sys.modules["scipy.linalg._flapack"] is ours._flapack
        print(json.dumps([one, same, results(ours) == results(theirs)]))
    """)
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [True, [True] * 3, True]


def test_moved_extension_is_an_import_error_naming_its_path(tmp_path):
    # a scipy without linalg/_flapack, first on the path, stands in for a
    # layout that moved: the import fails naming the file it looked for, and
    # the command exits 1 with one error line and no traceback
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    missing = os.path.join(str(tmp_path), "scipy", "linalg", "_flapack")
    proc = _run(["-c", "import fdrates.numerics"], str(tmp_path))
    assert proc.returncode == 1
    message = f"scipy's LAPACK extension not found: no {missing} with any of the"
    assert f"ImportError: {message} suffixes " in proc.stderr
    proc = _run(["-m", "fdrates.cli", "hp-verify", "--d", "5", "--alpha=-1",
                 "--N", "64"], str(tmp_path))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"fdrates: error: {message} suffixes ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
