"""scipy's compiled modules, each loaded without any package ``__init__``:
importing ``scipy.special`` or ``scipy.integrate`` costs a child hundreds of
milliseconds, the top-level ``scipy`` package tens, the compiled module about
one."""

import functools
import importlib.machinery
import importlib.util


@functools.cache
def compiled_module(name: str):
    """The scipy module ``name`` (for example ``"scipy.integrate._quadpack"``),
    loaded once per process. Its spec is found by importlib's path finder one
    package level at a time, from the locations of the ``scipy`` package, so
    neither ``scipy`` nor the subpackage is imported; the module itself may
    import scipy modules when it is loaded or called. Raises ImportError,
    naming the installed scipy version, when the module is not there."""
    path = name.split(".")
    spec = importlib.util.find_spec(path[0])
    for depth in range(2, len(path) + 1):
        locations = getattr(spec, "submodule_search_locations", None)
        spec = locations and importlib.machinery.PathFinder.find_spec(
            ".".join(path[:depth]), locations
        )
    if not spec:
        from importlib.metadata import version  # about 15 ms, so only on this path

        raise ImportError(f"{name} is not in {path[0]} {version(path[0])}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
