"""The four LAPACK wrappers the package calls, from scipy's ``_flapack`` extension.

Importing ``scipy.linalg.lapack`` runs ``scipy.linalg``'s package init, which
loads scipy's array-API layer and with it much of numpy's namespace, about
half of a ``bayesfir`` process start.  This module locates the compiled
extension inside the installed scipy and loads it under its real name
without running any scipy package code.  CPython keeps one copy of a
single-phase extension per name and path, so a process that also imports
``scipy.linalg`` gets the very same function objects, in either order.
"""

import importlib.util
import os
import sys
from importlib.machinery import PathFinder

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("bayesfir needs scipy, which is not installed", name="scipy")
    searched = [os.path.join(d, "linalg") for d in scipy.submodule_search_locations]
    spec = PathFinder.find_spec(_NAME, searched)
    if spec is None:
        import scipy as found

        version = getattr(found, "__version__", "unknown")
        raise ImportError(
            f"scipy {version} has no {_NAME} extension in {os.pathsep.join(searched)}",
            name=_NAME,
        )
    # creating a single-phase extension module also enters it in sys.modules;
    # undo that, so that a later import of scipy.linalg loads it the usual
    # way (from CPython's cache) and binds it as scipy.linalg._flapack
    imported = _NAME in sys.modules
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not imported:
        sys.modules.pop(_NAME, None)
    return module


_flapack = _load_flapack()
dpotrf = _flapack.dpotrf
dtrtrs = _flapack.dtrtrs
dtrtri = _flapack.dtrtri
dsyevd = _flapack.dsyevd
