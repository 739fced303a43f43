"""Euler characteristics: specialization at v=1 and the closed binomial
forms obtained by Lagrange inversion from the v=1 functional equation; and
``certify``, the checks every motive of a smooth projective moduli space
passes at no extra computation.  The module loads no solver, so the CLI
certifies a cached motive without importing one."""

from __future__ import annotations

from math import comb, gcd

from .errors import KronmotError, NonIntegerError
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


def certify(kind: str, m: int, d: int, e: int, motive: LaurentPoly) -> None:
    """Check the motive of K_{d,e}^(m) (``kind`` "moduli", d and e coprime)
    or of its framed form K_{d,e}^(m),fr (``kind`` "framed", framed at the
    sink) against the geometry; raise ``KronmotError`` naming the first
    property that fails.

    Both spaces are smooth and projective of dimension
    dim = 1 - <D,D> (moduli) or e - <D,D> (framed), <D,D> = d^2 + e^2 - mde,
    and empty when dim < 0.  So a nonempty one's motive spans v^-dim to
    v^dim exactly, is palindromic (Poincare duality), vanishes at odd
    offsets and has nonnegative coefficients (Betti numbers), the lowest
    of them b_0 = 1, as the space is connected; an empty one's is 0.
    """
    dim = (e if kind == "framed" else 1) - (d * d + e * e - m * d * e)
    coeffs = motive.coeffs
    if not coeffs and dim < 0:
        return
    span = (motive.min_exp, motive.max_exp)
    failed = ("is 0 on a nonempty space" if not coeffs
              else "is nonzero on an empty space" if dim < 0
              else f"spans v^{span[0]}..v^{span[1]}, not v^{-dim}..v^{dim}"
              if span != (-dim, dim)
              else "is not palindromic" if not motive.is_palindromic()
              else "is nonzero at an odd offset" if any(coeffs[1::2])
              else "has a negative coefficient" if min(coeffs) < 0
              else f"has b_0 = {coeffs[0]}, not 1" if coeffs[0] != 1 else None)
    if failed:
        raise KronmotError(f"the {kind} motive of (m, d, e) = ({m}, {d}, {e}) "
                           + failed)
