from fractions import Fraction
from math import comb, gcd

import pytest

from kronmot.central import extract_G, framed_recursion
from kronmot.errors import KronmotError, NonIntegerError
from kronmot.eulerchar import (
    _quotient,
    certify,
    chi_framed_closed,
    chi_framed_pow_closed,
    chi_from_motive,
    chi_moduli_closed,
)
from kronmot.exactalg import LaurentPoly
from kronmot.wallcross import hn_extract, moduli_motive


def test_chi_from_motive():
    assert chi_from_motive(moduli_motive(3, 2, 1)) == 3
    assert chi_from_motive(LaurentPoly.one()) == 1
    F = framed_recursion(3, 4)
    assert chi_from_motive(F.coeffs[4].to_laurent()) == 612
    assert type(chi_from_motive(moduli_motive(3, 2, 1))) is int
    # a motive has integer coefficients, so a non-integer value cannot arise
    with pytest.raises(TypeError):
        chi_from_motive(LaurentPoly([Fraction(1, 2)]))


def test_chi_moduli_closed_values():
    # A000260: 1, 3, 13, 68, 399, 2530
    assert [chi_moduli_closed(3, d) for d in range(1, 7)] == [1, 3, 13, 68,
                                                              399, 2530]
    assert chi_moduli_closed(4, 3) == 58


def _integer(x: Fraction) -> int:
    assert x.denominator == 1
    return x.numerator


def test_closed_forms_match_fraction_references():
    # the closed forms as exact rationals, each of which must be an integer
    for m in range(3, 13):
        q = (m - 1) ** 2
        for d in range(41):
            k = m * (m - 1)
            assert chi_framed_closed(m, d) == _integer(
                Fraction(m, m + q * d) * comb(q * d + m, d)), (m, d)
            assert chi_framed_pow_closed(m, d) == _integer(
                Fraction(k, k + q * d) * comb(q * d + k, d)), (m, d)
            if d >= 1:
                a = Fraction(m - 1, d * ((m - 2) * d + 1)) * comb(q * d + m - 2, d - 1)
                b = Fraction(m, d * ((m - 1) * d + 1)) * comb(q * d + m - 1, d - 1)
                assert a == b
                assert chi_moduli_closed(m, d) == _integer(a), (m, d)
            assert type(chi_framed_closed(m, d)) is int


@pytest.mark.parametrize("num,den", [(7, 2), (6, 4), (-6, 4), (1, 3)])
def test_quotient_remainder_raises(num, den):
    # the message names the reduced quotient, as a Fraction prints it
    with pytest.raises(NonIntegerError, match=f"^x is not an integer: {Fraction(num, den)}$"):
        _quotient(num, den, "x")


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


class TestCertify:
    def test_every_nonempty_coprime_moduli_motive(self):
        # d + e <= 14 at m = 1..5: 143 nonempty spaces, and every empty one
        # has dim = 1 - <D,D> < 0
        nonempty = 0
        for m in range(1, 6):
            table = hn_extract(m, 14)
            for d, e in ((d, s - d) for s in range(1, 15) for d in range(s + 1)):
                if gcd(d, e) == 1:
                    motive = table.motive((d, e))
                    certify("moduli", m, d, e, motive)
                    nonempty += not motive.is_zero()
        assert nonempty == 143

    def test_every_framed_central_motive(self):
        # 64 motives, m = 3..10 and d = 1..8, of dimension (m-2)d^2 + d
        for m in range(3, 11):
            F = framed_recursion(m, 8)
            for d in range(1, 9):
                motive = F.coeffs[d].to_laurent()
                assert motive.max_exp == (m - 2) * d * d + d
                certify("framed", m, d, d, motive)

    # the framed motive of (3, 2, 2), v^-6 (1 + 2q + 3q^2 + 3q^3 + 3q^4 +
    # 2q^5 + q^6), q = v^-2, and dim 6
    FRAMED_3_2 = [1, 0, 2, 0, 3, 0, 3, 0, 3, 0, 2, 0, 1]

    @pytest.mark.parametrize("coeffs,min_exp,failure", [
        ([7], 0, "spans v^0..v^0, not v^-6..v^6"),
        (FRAMED_3_2, -4, "spans v^-4..v^8, not v^-6..v^6"),
        (FRAMED_3_2[:-2] + [0, 2], -6, "is not palindromic"),
        ([1, 1, 2, 0, 3, 0, 3, 0, 3, 0, 2, 1, 1], -6, "is nonzero at an odd offset"),
        ([1, 0, 2, 0, 3, 0, -3, 0, 3, 0, 2, 0, 1], -6, "has a negative coefficient"),
        ([], 0, "is 0 on a nonempty space"),
        # twice the motive passes every other check
        ([2 * c for c in FRAMED_3_2], -6, "has b_0 = 2, not 1"),
    ])
    def test_each_property_named(self, coeffs, min_exp, failure):
        certify("framed", 3, 2, 2, LaurentPoly(self.FRAMED_3_2, -6))
        with pytest.raises(KronmotError) as info:
            certify("framed", 3, 2, 2, LaurentPoly(coeffs, min_exp))
        assert str(info.value) == f"the framed motive of (m, d, e) = (3, 2, 2) {failure}"

    def test_empty_space(self):
        # dim K_{4,1}^(3) = 1 - <D,D> = -4: the space is empty, its motive 0
        assert moduli_motive(3, 4, 1).is_zero()
        certify("moduli", 3, 4, 1, LaurentPoly.zero())
        with pytest.raises(KronmotError, match="nonzero on an empty space$"):
            certify("moduli", 3, 4, 1, LaurentPoly.one())
