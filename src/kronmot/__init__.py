"""Exact virtual motives of Kronecker quiver moduli spaces.

Laurent-polynomial motives computed three independent ways (wall-crossing,
coefficient recursion, algebraic functional equation), specialized to Euler
characteristics and cross-validated against generalized Tamari interval
counts.
"""

# set before the submodule imports: the cache keys carry it
__version__ = "0.1.0"

from .exactalg import LaurentPoly, RatFunc, quantum_integer
from .qseries import TruncSeries, delta_invert
from .wallcross import (
    DimVector,
    MotiveTable,
    euler_form,
    framed_via_quotient,
    hn_extract,
    moduli_motive,
    sym_form,
)
from .central import (
    CentralSeriesPair,
    extract_G,
    framed_recursion,
    solve_functional_eq,
)
from .eulerchar import (
    chi_framed_closed,
    chi_framed_pow_closed,
    chi_from_motive,
    chi_moduli_closed,
)
from .tamari import (
    TamariPoset,
    generate_paths,
    interval_count_bruteforce,
    interval_count_formula,
)

__all__ = [
    "LaurentPoly",
    "RatFunc",
    "quantum_integer",
    "TruncSeries",
    "delta_invert",
    "DimVector",
    "MotiveTable",
    "euler_form",
    "sym_form",
    "hn_extract",
    "moduli_motive",
    "framed_via_quotient",
    "CentralSeriesPair",
    "framed_recursion",
    "solve_functional_eq",
    "extract_G",
    "chi_from_motive",
    "chi_moduli_closed",
    "chi_framed_closed",
    "chi_framed_pow_closed",
    "TamariPoset",
    "generate_paths",
    "interval_count_bruteforce",
    "interval_count_formula",
]
