from fractions import Fraction

import pytest

from kronmot.central import extract_G, framed_recursion
from kronmot.errors import NonIntegerError
from kronmot.eulerchar import (
    chi_framed_closed,
    chi_framed_pow_closed,
    chi_from_motive,
    chi_moduli_closed,
)
from kronmot.exactalg import LaurentPoly
from kronmot.wallcross import moduli_motive


def test_chi_from_motive():
    assert chi_from_motive(moduli_motive(3, 2, 1)) == 3
    assert chi_from_motive(LaurentPoly.one()) == 1
    F = framed_recursion(3, 4)
    assert chi_from_motive(F.coeffs[4].to_laurent()) == 612
    with pytest.raises(NonIntegerError):
        chi_from_motive(LaurentPoly([Fraction(1, 2)]))


def test_chi_moduli_closed_values():
    # A000260: 1, 3, 13, 68, 399, 2530
    assert [chi_moduli_closed(3, d) for d in range(1, 7)] == [1, 3, 13, 68,
                                                              399, 2530]
    assert chi_moduli_closed(4, 3) == 58


def test_chi_moduli_two_forms_agree():
    # the "after some cancellations" reduction, checked wholesale: the
    # function itself asserts both displayed forms are equal
    for m in range(3, 9):
        for d in range(1, 13):
            chi_moduli_closed(m, d)


def test_chi_framed_closed_values():
    assert [chi_framed_closed(3, d) for d in range(5)] == [1, 3, 15, 91, 612]
    assert chi_framed_closed(3, 3) == 91


def test_chi_framed_pow_closed_resolved_by_oracle():
    # oracle: square the exact framed Euler-characteristic series
    chis = [chi_framed_closed(3, d) for d in range(7)]
    squared = [
        sum(chis[i] * chis[d - i] for i in range(d + 1)) for d in range(7)
    ]
    assert [chi_framed_pow_closed(3, d) for d in range(7)] == squared
    assert chi_framed_pow_closed(3, 0) == 1
    assert chi_framed_pow_closed(3, 1) == 6
    assert chi_framed_pow_closed(3, 2) == 39


@pytest.mark.parametrize("m,dmax", [(3, 6), (4, 5), (5, 4)])
def test_closed_forms_match_motives(m, dmax):
    F = framed_recursion(m, dmax)
    G = extract_G(m, F)
    for d in range(1, dmax + 1):
        assert chi_from_motive(F.coeffs[d].to_laurent()) == chi_framed_closed(m, d)
        assert chi_from_motive(G.coeffs[d]) == chi_moduli_closed(m, d)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_specialized_functional_equation(m):
    # Fbar = (1 - t*Fbar^(m-2))^(-m) as truncated rational series, order 8
    order = 8
    fbar = [Fraction(chi_framed_closed(m, d)) for d in range(order + 1)]

    def mul(a, b):
        return [
            sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(order + 1)
        ]

    power = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(m - 2):
        power = mul(power, fbar)
    base = [Fraction(1)] + [-c for c in power[:-1]]  # 1 - t*Fbar^(m-2)
    # invert, then raise to the m-th power
    inv = [Fraction(1)] + [Fraction(0)] * order
    for d in range(1, order + 1):
        inv[d] = -sum(base[i] * inv[d - i] for i in range(1, d + 1)) / base[0]
    rhs = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(m):
        rhs = mul(rhs, inv)
    assert rhs == fbar
