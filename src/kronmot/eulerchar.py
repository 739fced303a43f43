"""Euler characteristics: specialization at v=1 and the closed binomial
forms obtained by Lagrange inversion from the v=1 functional equation."""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING

from .errors import NonIntegerError

if TYPE_CHECKING:
    from .exactalg import LaurentPoly


def _as_int(x: Fraction | int, what: str) -> int:
    x = Fraction(x)
    if x.denominator != 1:
        raise NonIntegerError(f"{what} is not an integer: {x}")
    return int(x)


def chi_from_motive(p: LaurentPoly) -> int:
    """Euler characteristic: the motive evaluated at v=1."""
    return p.eval_at_one()


def chi_moduli_closed(m: int, d: int) -> int:
    """chi(K_{d,d-1}^(m)) in closed form.

    Both displayed shapes of the formula are evaluated and must agree.
    """
    if m < 3 or d < 1:
        raise ValueError("need m >= 3 and d >= 1")
    a = Fraction(m - 1, d * ((m - 2) * d + 1)) * comb((m - 1) ** 2 * d + m - 2, d - 1)
    b = Fraction(m, d * ((m - 1) * d + 1)) * comb((m - 1) ** 2 * d + m - 1, d - 1)
    if a != b:
        raise NonIntegerError(f"the two closed forms disagree at m={m}, d={d}")
    return _as_int(a, "chi_moduli_closed")


def chi_framed_pow_closed(m: int, d: int) -> int:
    """t^d-coefficient of Fbar(t)^(m-1), where Fbar is F at v=1."""
    if m < 3 or d < 0:
        raise ValueError("need m >= 3 and d >= 0")
    k = m * (m - 1)
    val = Fraction(k, k + (m - 1) ** 2 * d) * comb((m - 1) ** 2 * d + k, d)
    return _as_int(val, "chi_framed_pow_closed")


def chi_framed_closed(m: int, d: int) -> int:
    """chi(K_{d,d}^(m),fr): the same Lagrange setup with exponent m."""
    if m < 3 or d < 0:
        raise ValueError("need m >= 3 and d >= 0")
    val = Fraction(m, m + (m - 1) ** 2 * d) * comb((m - 1) ** 2 * d + m, d)
    return _as_int(val, "chi_framed_closed")

