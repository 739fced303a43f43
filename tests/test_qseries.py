from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from kronmot import exactalg, qseries
from kronmot.errors import NonPolynomialError, NonZeroConstantError, NotInvertibleError
from kronmot.exactalg import LaurentPoly, Operand, RatFunc, quantum_integer
from kronmot.qseries import (OnlineRescaledProduct, TruncSeries, delta_invert,
                             rescaled_product)

V = LaurentPoly.monomial(1)
VINV = LaurentPoly.monomial(-1)


def geometric(order):
    return TruncSeries([1] * (order + 1), order)


@st.composite
def polys(draw, order=4):
    return [
        LaurentPoly(
            draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)),
            draw(st.integers(-2, 2)),
        )
        for _ in range(order + 1)
    ]


@st.composite
def series(draw, order=4):
    return TruncSeries(draw(polys(order)), order)


@st.composite
def integral_series(draw, order=4):
    return TruncSeries.laurent(draw(polys(order)), order)


@st.composite
def integral_series_any_order(draw, max_order=6):
    return draw(integral_series(order=draw(st.integers(0, max_order))))


def lift(a):
    """The same series over RatFunc, through the public constructor."""
    return TruncSeries(a.coeffs, a.order)


def integral_unit(coeffs, order):
    """An integral series with constant term 1 and the given higher terms."""
    return TruncSeries.laurent([LaurentPoly.one()] + list(coeffs[1:]), order)


def test_mul_basics():
    one_plus = TruncSeries([1, 1], 2)
    one_minus = TruncSeries([1, -1], 2)
    assert one_plus * one_minus == TruncSeries([1, 0, -1], 2)
    a = TruncSeries([1, quantum_integer(3), 5], 2)
    assert a * TruncSeries.one(2) == a
    q3 = RatFunc.of(quantum_integer(3))
    b = TruncSeries([1, q3], 2)
    assert b * b == TruncSeries([RatFunc.one(), 2 * q3, q3 * q3], 2)


def test_mul_truncates_to_smaller_order():
    a = TruncSeries([1, 1, 1, 1], 3)
    b = TruncSeries([1, 2], 1)
    assert (a * b).order == 1
    assert (a + b).order == 1


def test_inverse_geometric():
    assert (TruncSeries([1, -1], 5)).inverse() == geometric(5)
    assert TruncSeries.one(3).inverse() == TruncSeries.one(3)
    with pytest.raises(NotInvertibleError):
        TruncSeries([0, 1], 2).inverse()


def test_inverse_of_triple_product():
    # hand expansion: [t^1] of 1/((1-v^-2 t)(1-t)(1-v^2 t)) is v^-2+1+v^2,
    # the motive list 1,1,1 at m=3
    order = 1
    prod = TruncSeries.one(order)
    for p in (-2, 0, 2):
        prod = prod * TruncSeries([LaurentPoly.one(), -LaurentPoly.monomial(p)], order)
    inv = prod.inverse()
    assert inv.coeffs[1] == RatFunc.of(quantum_integer(3))


def test_scale_arg():
    a = TruncSeries([1, 1], 3)
    assert a.scale_arg(2) == TruncSeries([LaurentPoly.one(), V * V], 3)
    b = TruncSeries([1, quantum_integer(2), 7], 2)
    assert b.scale_arg(0) == b
    assert b.scale_arg(3).scale_arg(-3) == b


def test_delta_and_nabla_small():
    assert TruncSeries.one(3).delta() == TruncSeries.zero(3)
    t = TruncSeries([0, 1], 3)
    assert t.delta() == t
    t2 = TruncSeries([0, 0, 1], 3)
    assert t2.delta() == TruncSeries([0, 0, quantum_integer(2)], 3)
    assert TruncSeries.one(2).nabla(5) == TruncSeries.one(2)
    assert t.truncate(1).nabla(2) == TruncSeries([0, quantum_integer(3)], 1)


@given(series())
def test_nabla0_is_identity(a):
    assert a.nabla(0) == a


@given(series(), series())
def test_operators_linear(a, b):
    assert (a + b).delta() == a.delta() + b.delta()
    assert (a + b).nabla(2) == a.nabla(2) + b.nabla(2)


@settings(max_examples=25)
@given(series(order=12))
def test_delta_nabla_commute(a):
    for k in (1, 2, 3):
        assert a.delta().nabla(k) == a.nabla(k).delta()


@given(series())
def test_delta_matches_substitution_formula(a):
    # the two-substitutions-and-divide definition is the oracle
    diff = a.scale_arg(1) - a.scale_arg(-1)
    unit = RatFunc.one() / RatFunc.of(V - VINV)
    assert a.delta() == diff * unit


@given(series())
def test_delta_specializes_to_derivative(a):
    # (1/t) * delta(a) at v=1 is the ordinary derivative of a at v=1
    da = a.delta()
    for d in range(1, a.order + 1):
        coeff = da.coeffs[d].to_laurent().eval_at_one()
        assert coeff == d * a.coeffs[d].to_laurent().eval_at_one()


def test_delta_invert():
    assert delta_invert(TruncSeries.zero(3)) == TruncSeries.one(3)
    t = TruncSeries([0, 1], 3)
    assert delta_invert(t) == TruncSeries([1, 1], 3)
    with pytest.raises(NonZeroConstantError):
        delta_invert(TruncSeries.one(2))


@given(series())
def test_delta_invert_round_trip(g):
    g = TruncSeries([RatFunc.one()] + list(g.coeffs[1:]), g.order)
    assert delta_invert(g.delta()) == g


def test_delta_invert_divisions_agree():
    # Laurent coefficients [d]_v divides, Laurent ones it does not, fractions
    b = TruncSeries([0, V + VINV, quantum_integer(2) * (V - 3),
                     LaurentPoly([Fraction(1, 2), 0, 3], -1),
                     RatFunc(V, V + 2)], 4)
    out = delta_invert(b)
    for d in range(1, 5):
        assert out.coeffs[d] == b.coeffs[d] / RatFunc.of(quantum_integer(d))
        assert out.coeffs[d].to_json() == (
            b.coeffs[d] / RatFunc.of(quantum_integer(d))).to_json()
    assert out.coeffs[2].is_laurent() and not out.coeffs[3].is_laurent()


def test_delta_invert_integral_series():
    # the integral ring divides exactly, as its lift does, and keeps its ring
    polys = [LaurentPoly.zero(), V + VINV, quantum_integer(2) * (V - 3),
             quantum_integer(3) * LaurentPoly([1, 0, 3], -1)]
    out = delta_invert(TruncSeries.laurent(polys, 3))
    lifted = delta_invert(TruncSeries(polys, 3))
    assert all(type(c) is LaurentPoly for c in out.coeffs)
    assert out == lifted
    assert out.to_json() == lifted.to_json()
    # a coefficient [d]_v does not divide leaves a remainder
    with pytest.raises(NonPolynomialError):
        delta_invert(TruncSeries.laurent(polys[:3] + [LaurentPoly([1, 0, 3], -1)], 3))
    with pytest.raises(NonZeroConstantError):
        delta_invert(TruncSeries.laurent([LaurentPoly.one()], 2))


@given(polys(), st.integers(2, 4), st.integers(-8, 8))
def test_delta_invert_refuses_a_non_multiple(ps, d, j):
    # coefficient n is p_n [n]_v, so G_n = p_n; adding a monomial to one
    # coefficient leaves a remainder on division by its [d]_v, d >= 2
    coeffs = [LaurentPoly.zero()] + [p * quantum_integer(n)
                                     for n, p in enumerate(ps) if n]
    assert delta_invert(TruncSeries.laurent(coeffs, 4)) == \
        TruncSeries.laurent([LaurentPoly.one()] + ps[1:], 4)
    coeffs[d] = coeffs[d] + LaurentPoly.monomial(j)
    with pytest.raises(NonPolynomialError):
        delta_invert(TruncSeries.laurent(coeffs, 4))


def test_json_round_trip():
    a = TruncSeries([RatFunc.one(), RatFunc(LaurentPoly.one(), V - VINV)], 1)
    assert TruncSeries.from_json(a.to_json()) == a


@pytest.mark.parametrize("edit,error", [
    ({"order": 2}, ValueError),     # a short list is not padded
    ({"order": 0}, ValueError),     # nor a long one cut
    ({"order": -1}, ValueError),
    ({"order": 1.0}, TypeError),
    ({"order": True}, TypeError),
    ({"order": "1"}, TypeError),
    ({"coeffs": "ab"}, TypeError),
])
def test_json_rejects_what_to_json_never_writes(edit, error):
    obj = TruncSeries([1, V], 1).to_json()
    with pytest.raises(error):
        TruncSeries.from_json({**obj, **edit})


# -- the integral ring ---------------------------------------------------------


def test_laurent_constructor():
    a = TruncSeries.laurent([LaurentPoly.one(), V], 3)
    assert a.is_integral()
    assert a.coeffs == (LaurentPoly.one(), V, LaurentPoly.zero(), LaurentPoly.zero())
    assert TruncSeries.laurent([V, V, V], 1).coeffs == (V, V)
    assert not lift(a).is_integral() and not TruncSeries([V], 2).is_integral()
    assert a.to_json() == lift(a).to_json()
    for bad in (RatFunc.one(), 1, LaurentPoly([Fraction(1, 2)])):
        with pytest.raises(TypeError):
            TruncSeries.laurent([LaurentPoly.one(), bad], 2)
    with pytest.raises(ValueError):
        TruncSeries.laurent([], -1)


@given(integral_series(), integral_series(order=3))
def test_integral_operations_stay_integral(a, b):
    cases = [
        (a + b, lift(a) + lift(b)),
        (a - b, lift(a) - lift(b)),
        (-a, -lift(a)),
        (a * b, lift(a) * lift(b)),
        (b * a, lift(b) * lift(a)),
        (a.scale_arg(3), lift(a).scale_arg(3)),
        (a.shift_t(V - 2), lift(a).shift_t(V - 2)),
        (a.shift_t(), lift(a).shift_t()),
        (a.delta(), lift(a).delta()),
        (a.nabla(2), lift(a).nabla(2)),
        (a.truncate(2), lift(a).truncate(2)),
        (a + 1, lift(a) + 1),
        (1 - a, 1 - lift(a)),
        (a * V, lift(a) * V),
        (3 * a, 3 * lift(a)),
    ]
    for got, want in cases:
        assert got.is_integral()
        assert got == want
        assert got.to_json() == want.to_json()


@given(integral_series(), series(order=3))
def test_ratfunc_operand_lifts(a, b):
    r = RatFunc(V, V + 2)
    cases = [
        (a + b, lift(a) + b),
        (b + a, b + lift(a)),
        (a - b, lift(a) - b),
        (a * b, lift(a) * b),
        (b * a, b * lift(a)),
        (a + RatFunc.one(), lift(a) + 1),
        (a * r, lift(a) * r),
        (a * Fraction(1, 2), lift(a) * Fraction(1, 2)),
        (a - LaurentPoly([Fraction(1, 3)]), lift(a) - Fraction(1, 3)),
        (a.shift_t(r), lift(a).shift_t(r)),
    ]
    for got, want in cases:
        assert not got.is_integral()
        assert all(isinstance(c, RatFunc) for c in got.coeffs)
        assert got == want


@given(polys(order=6))
def test_unit_inverse_stays_integral_and_builds_no_ratfunc(coeffs):
    a = integral_unit(coeffs, 6)
    want = lift(a).inverse()

    def forbidden(*args, **kwargs):
        raise AssertionError("a RatFunc was constructed")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactalg.RatFunc, "__init__", forbidden)
        mp.setattr(exactalg.RatFunc, "_canonical", forbidden)
        got = a.inverse()
        assert got.is_integral()
        assert (got * a).coeffs == TruncSeries.laurent([LaurentPoly.one()], 6).coeffs
    assert got == want


def test_nonunit_constant_term_inverts_over_ratfunc():
    for c0 in (LaurentPoly([2]), V, -LaurentPoly.one(), V + 1):
        a = TruncSeries.laurent([c0, V, LaurentPoly([1, 0, 3], -1)], 2)
        got = a.inverse()
        assert not got.is_integral()
        assert got == lift(a).inverse()
        assert got * lift(a) == TruncSeries.one(2)
    with pytest.raises(NotInvertibleError):
        TruncSeries.laurent([LaurentPoly.zero(), V], 2).inverse()


@given(integral_series())
def test_equality_and_hash_agree_across_rings(a):
    p = LaurentPoly([1, 2], -1)
    r = RatFunc.of(p)
    assert p == r and r == p
    assert hash(p) == hash(r)
    assert len({p, r}) == 1
    b = lift(a)
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


class TestRescaledProduct:
    @staticmethod
    def by_definition(x, p, r):
        """prod_{i<r} x(v^(p*i) t), one factor at a time over RatFunc."""
        x = lift(x)
        return reduce(mul, [x.scale_arg(p * i) for i in range(r)],
                      TruncSeries.one(x.order))

    @given(integral_series_any_order(), st.integers(-6, 6), st.integers(0, 9))
    def test_is_the_product_of_the_rescaled_copies(self, x, p, r):
        want = self.by_definition(x, p, r)
        got = rescaled_product(x, p, r)
        assert got.is_integral()
        assert got == want
        assert got.to_json() == want.to_json()
        lifted = rescaled_product(lift(x), p, r)
        assert all(isinstance(c, RatFunc) for c in lifted.coeffs)
        assert lifted == want

    @pytest.mark.parametrize("r", range(1, 18))
    def test_doubling_cost(self, monkeypatch, r):
        calls = []
        product = TruncSeries.__mul__

        def counting(a, b):
            calls.append(r)
            return product(a, b)

        monkeypatch.setattr(TruncSeries, "__mul__", counting)
        x = TruncSeries.laurent([LaurentPoly.one(), V, VINV - 2], 2)
        rescaled_product(x, -2, r)
        assert len(calls) == r.bit_length() + bin(r).count("1") - 2

    @pytest.mark.parametrize("r", [-1, -4])
    def test_negative_count_refused(self, r):
        with pytest.raises(ValueError):
            rescaled_product(TruncSeries.laurent([LaurentPoly.one()], 2), 1, r)


@st.composite
def mixed_series(draw, max_order=6):
    """An integral series whose coefficients are zero, vanish at every odd
    offset (the packed sums' stride 2), or have odd-offset terms (stride 1)."""
    order = draw(st.integers(0, max_order))
    coeffs = []
    for _ in range(order + 1):
        kind = draw(st.sampled_from(["zero", "even", "odd"]))
        cs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
        if kind == "zero":
            coeffs.append(LaurentPoly.zero())
            continue
        if kind == "even":
            cs = [c for x in cs for c in (x, 0)]
        else:
            cs = [*cs, 1, 1]  # two adjacent nonzero terms
        coeffs.append(LaurentPoly(cs, draw(st.integers(-3, 3))))
    return TruncSeries.laurent(coeffs, order)


class TestOnlineRescaledProduct:
    # r up to 17 reaches every bit pattern of up to four bits plus 16 and 17
    @given(mixed_series(), st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 17))
    def test_each_push_reads_the_offline_product(self, x, s, p, r):
        want = rescaled_product(x.scale_arg(s), p, r)
        product = OnlineRescaledProduct(s, p, r)
        for n, c in enumerate(x.coeffs):
            shift, op = product.push(Operand(c))
            assert op.poly.v_shift(shift) == want.coeffs[n], n
            assert shift == (s * n if r == 1 else 0)

    @pytest.mark.parametrize("r", range(1, 18))
    def test_packed_sums_per_push_follow_the_bits(self, r, monkeypatch):
        sums = []
        packed_sum = qseries.sum_of_products

        def counting(terms):
            sums.append(1)
            return packed_sum(terms)

        monkeypatch.setattr(qseries, "sum_of_products", counting)
        product = OnlineRescaledProduct(1, -2, r)
        per_push = r.bit_length() - 1 + bin(r).count("1") - 1
        for n in range(5):
            before = len(sums)
            product.push(Operand(LaurentPoly([1, 0, n + 2], -1)))
            assert len(sums) - before == per_push, n

    @pytest.mark.parametrize("r", [0, -1])
    def test_no_copies_refused(self, r):
        with pytest.raises(ValueError):
            OnlineRescaledProduct(-2, -2, r)
