"""scipy's compiled modules, each loaded without its package's ``__init__``:
importing ``scipy.special``, ``scipy.optimize`` or ``scipy.integrate`` costs a
child hundreds of milliseconds, the compiled module about one."""

import functools
import importlib.machinery
import importlib.util


@functools.cache
def compiled_module(name: str):
    """The scipy module ``name`` (for example ``"scipy.integrate._quadpack"``),
    found by importlib's spec machinery and loaded once per process; only the
    top-level ``scipy`` package is imported besides it."""
    where = importlib.util.find_spec(name.rpartition(".")[0]).submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(name, where)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
