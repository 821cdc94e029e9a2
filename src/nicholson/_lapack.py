"""The LAPACK routines the package calls, bound from scipy's f2py wrappers.

The routines live in the extension ``scipy.linalg._flapack``.  Importing it
the usual way runs ``scipy/linalg/__init__.py`` first, whose array-API layer
imports ``numpy.f2py``, ``numpy.testing``, ``numpy.ma`` and ``numpy.random``:
about half of the CLI's start-up time and 24 MB of its memory, for nothing
the package uses.  This module finds the extension in
``scipy.linalg``'s directory without executing that package and registers it
in ``sys.modules`` under its own name, so a later ``import scipy.linalg``
reuses it and ``scipy.linalg.lapack`` hands out these very objects.

This is the only module of the package that names scipy.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys

import scipy  # noqa: F401  (scipy's own __init__ does platform set-up)

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    """The ``_flapack`` extension, loaded once without ``scipy.linalg``'s init."""
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    spec = importlib.machinery.PathFinder.find_spec(
        _FLAPACK, importlib.util.find_spec("scipy.linalg").submodule_search_locations
    )
    if spec is None:
        raise ImportError(f"no module named {_FLAPACK!r}", name=_FLAPACK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


_flapack = _load_flapack()

dgttrf = _flapack.dgttrf
dgttrs = _flapack.dgttrs
dpttrf = _flapack.dpttrf
dpttrs = _flapack.dpttrs
zgttrf = _flapack.zgttrf
zgttrs = _flapack.zgttrs
zgtcon = _flapack.zgtcon

__all__ = ["dgttrf", "dgttrs", "dpttrf", "dpttrs", "zgttrf", "zgttrs", "zgtcon"]
