"""Euler characteristics: specialization at v=1 and the closed binomial
forms obtained by Lagrange inversion from the v=1 functional equation."""

from __future__ import annotations

from math import comb, gcd

from .errors import NonIntegerError
from .exactalg import LaurentPoly


def _quotient(num: int, den: int, what: str) -> int:
    """num / den for den > 0, which must be an integer."""
    q, r = divmod(num, den)
    if r:
        g = gcd(num, den)
        raise NonIntegerError(f"{what} is not an integer: {num // g}/{den // g}")
    return q


def chi_from_motive(p: LaurentPoly) -> int:
    """Euler characteristic: the motive evaluated at v=1."""
    return p.eval_at_one()


def chi_moduli_closed(m: int, d: int) -> int:
    """chi(K_{d,d-1}^(m)) in closed form.

    Both displayed shapes of the formula are evaluated and must agree.
    """
    if m < 3 or d < 1:
        raise ValueError("need m >= 3 and d >= 1")
    a_num = (m - 1) * comb((m - 1) ** 2 * d + m - 2, d - 1)
    a_den = d * ((m - 2) * d + 1)
    b_num = m * comb((m - 1) ** 2 * d + m - 1, d - 1)
    b_den = d * ((m - 1) * d + 1)
    if a_num * b_den != b_num * a_den:
        raise NonIntegerError(f"the two closed forms disagree at m={m}, d={d}")
    return _quotient(a_num, a_den, "chi_moduli_closed")


def chi_framed_pow_closed(m: int, d: int) -> int:
    """t^d-coefficient of Fbar(t)^(m-1), where Fbar is F at v=1."""
    if m < 3 or d < 0:
        raise ValueError("need m >= 3 and d >= 0")
    k = m * (m - 1)
    den = k + (m - 1) ** 2 * d
    return _quotient(k * comb(den, d), den, "chi_framed_pow_closed")


def chi_framed_closed(m: int, d: int) -> int:
    """chi(K_{d,d}^(m),fr): the same Lagrange setup with exponent m."""
    if m < 3 or d < 0:
        raise ValueError("need m >= 3 and d >= 0")
    den = m + (m - 1) ** 2 * d
    return _quotient(m * comb(den, d), den, "chi_framed_closed")
