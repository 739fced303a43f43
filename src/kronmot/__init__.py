"""Exact virtual motives of Kronecker quiver moduli spaces.

Laurent-polynomial motives computed three independent ways (wall-crossing,
coefficient recursion, algebraic functional equation), specialized to Euler
characteristics and cross-validated against generalized Tamari interval
counts.

``import kronmot`` binds only the exact-algebra names (``LaurentPoly``,
``RatFunc``, ``quantum_integer``) and imports no solver.  The first read of
any other public name or solver submodule imports it; ``cache``, ``cli``
and ``selftest`` are imported by their own path (``import kronmot.cli``).
The command line imports each solver where a command runs it, so a
process loads only the modules it runs.
"""

import sys

# set before the submodule imports: the cache keys carry it
__version__ = "0.1.0"

from .exactalg import LaurentPoly, RatFunc, quantum_integer

# the submodule that defines each lazily imported public name
_LAZY = {
    "TruncSeries": "qseries",
    "delta_invert": "qseries",
    "DimVector": "wallcross",
    "MotiveTable": "wallcross",
    "euler_form": "wallcross",
    "framed_via_quotient": "wallcross",
    "hn_extract": "wallcross",
    "moduli_motive": "wallcross",
    "sym_form": "wallcross",
    "extract_G": "central",
    "framed_recursion": "central",
    "solve_functional_eq": "central",
    "chi_framed_closed": "eulerchar",
    "chi_framed_pow_closed": "eulerchar",
    "chi_from_motive": "eulerchar",
    "chi_moduli_closed": "eulerchar",
    "TamariPoset": "tamari",
    "generate_paths": "tamari",
    "interval_count_bruteforce": "tamari",
    "interval_count_formula": "tamari",
}

# the solver submodules, each read through the package like the names
_EXPORTERS = tuple(dict.fromkeys(_LAZY.values()))


def __getattr__(name):
    """A public name or a solver submodule, imported on first use.

    While no module of ``_EXPORTERS`` is imported, the first such read
    imports them all, binds every public name here and deletes this hook:
    CPython does not specialise attribute reads on a module that has a
    ``__getattr__`` (about 35 against 12 ns a read).  The names bound are
    the submodules' own, since none of them was imported before.  Once one
    was imported another way, its names may have been rebound there (by a
    monkeypatch or a tracer), so each read takes the name from its
    submodule again and nothing is stored here.

    Imports go through ``__import__``, the import statement's own path,
    which ``python -X importtime`` reports (``importlib.import_module`` is
    not).
    """
    module = _LAZY.get(name, name)
    if module not in _EXPORTERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    g = globals()
    if not any(f"{__name__}.{m}" in sys.modules for m in _EXPORTERS):
        for m in _EXPORTERS:
            __import__(f"{__name__}.{m}")
        g.update({n: getattr(g[m], n) for n, m in _LAZY.items()})
        del g["__getattr__"]
        return g[name]
    __import__(f"{__name__}.{module}")  # binds the submodule here
    return g[name] if name == module else getattr(g[module], name)


def __dir__():
    return sorted({*globals(), *_LAZY, *_EXPORTERS})


__all__ = ["LaurentPoly", "RatFunc", "quantum_integer", *_LAZY]
