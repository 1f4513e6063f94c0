"""scipy's compiled modules, each loaded without any package ``__init__``:
importing ``scipy.special``, ``scipy.optimize`` or ``scipy.integrate`` costs a
child hundreds of milliseconds, the top-level ``scipy`` package tens, the
compiled module about one."""

import functools
import importlib.machinery
import importlib.util


@functools.cache
def compiled_module(name: str):
    """The scipy module ``name`` (for example ``"scipy.integrate._quadpack"``),
    loaded once per process. Its spec is found by importlib's path finder one
    package level at a time, from the locations of the ``scipy`` package, so
    neither ``scipy`` nor the subpackage is imported; the module itself may
    import scipy modules when it is loaded or called."""
    path = name.split(".")
    spec = importlib.util.find_spec(path[0])
    for depth in range(2, len(path) + 1):
        spec = importlib.machinery.PathFinder.find_spec(
            ".".join(path[:depth]), spec.submodule_search_locations
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
