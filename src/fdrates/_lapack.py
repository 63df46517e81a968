"""The LAPACK routines of the eigensolver: dgttrf, dgttrs, dstebz.

They come from scipy's f2py extension scipy.linalg._flapack, which needs only
numpy.  It is loaded from its file, without the scipy.linalg package, whose
import costs several times the extension's (it clones numpy's namespace, and
so imports numpy.f2py and numpy.testing).  The module is registered in
sys.modules under its scipy name, so that a later import of scipy.linalg
reuses it, and one already there is reused here: a process holds one copy of
the routines whichever side imports first.  The extension's path is scipy's
private layout; when it moves, importing this module raises ImportError
naming the path it looked for.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

__all__ = ["dgttrf", "dgttrs", "dstebz"]

_NAME = "scipy.linalg._flapack"


def _load():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed", name="scipy")
    base = os.path.join(spec.submodule_search_locations[0], "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(base + suffix):
            loader = importlib.machinery.ExtensionFileLoader(_NAME, base + suffix)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(_NAME, loader))
            loader.exec_module(module)
            # CPython registers a single-phase extension itself; a
            # multi-phase one it leaves to the importer
            sys.modules[_NAME] = module
            return module
    suffixes = " ".join(importlib.machinery.EXTENSION_SUFFIXES)
    raise ImportError(f"scipy's LAPACK extension not found: no {base} with any "
                      f"of the suffixes {suffixes}", name=_NAME, path=base)


_flapack = _load()
dgttrf, dgttrs, dstebz = (getattr(_flapack, name) for name in __all__)
