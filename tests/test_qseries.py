from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from kronmot import exactalg, qseries
from kronmot.errors import NonPolynomialError, NonZeroConstantError, NotInvertibleError
from kronmot.exactalg import LaurentPoly, Operand, RatFunc, quantum_integer
from kronmot.qseries import (OnlineQDifferenceProduct, OnlineRescaledProduct,
                             TruncSeries, delta_invert, op_rescaled_product,
                             rescaled_product)

from pointeval import P, POINTS, PointSeries, at, qint

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
def integral_series(draw, order=4):
    return TruncSeries(draw(polys(order)), order)


@st.composite
def records(draw, order=4):
    """A RatFunc record with Laurent-valued coefficients."""
    return lift(draw(integral_series(order)))


def lift(a):
    """The same series as a RatFunc record, through the public constructor."""
    return TruncSeries(map(RatFunc, a.coeffs), a.order)


def at_points(a):
    """The series a at each of the reference points."""
    return [PointSeries.of(a, r) for r in POINTS]


def integral_unit(coeffs, order):
    """An integral series with constant term 1 and the given higher terms."""
    return TruncSeries([1] + list(coeffs[1:]), order)


def test_mul_basics():
    one_plus = TruncSeries([1, 1], 2)
    one_minus = TruncSeries([1, -1], 2)
    assert one_plus.is_integral()
    assert one_plus * one_minus == TruncSeries([1, 0, -1], 2)
    a = TruncSeries([1, quantum_integer(3), 5], 2)
    assert a * TruncSeries([1], 2) == a
    q3 = quantum_integer(3)
    b = TruncSeries([1, q3], 2)
    # (v^-2 + 1 + v^2)^2, expanded by hand
    q3_squared = LaurentPoly([1, 0, 2, 0, 3, 0, 2, 0, 1], -4)
    assert b * b == TruncSeries([1, 2 * q3, q3_squared], 2)


def test_mul_truncates_to_smaller_order():
    a = TruncSeries([1, 1, 1, 1], 3)
    b = TruncSeries([1, 2], 1)
    assert (a * b).order == 1
    assert (a + b).order == 1


def test_inverse_geometric():
    assert (TruncSeries([1, -1], 5)).inverse() == geometric(5)
    assert TruncSeries([1], 3).inverse() == TruncSeries([1], 3)
    with pytest.raises(NotInvertibleError):
        TruncSeries([0, 1], 2).inverse()


def test_inverse_of_triple_product():
    # hand expansion: [t^1] of 1/((1-v^-2 t)(1-t)(1-v^2 t)) is v^-2+1+v^2,
    # the motive list 1,1,1 at m=3
    order = 1
    prod = TruncSeries([1], order)
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
    assert TruncSeries([1], 3).delta() == TruncSeries([0], 3)
    t = TruncSeries([0, 1], 3)
    assert t.delta() == t
    t2 = TruncSeries([0, 0, 1], 3)
    assert t2.delta() == TruncSeries([0, 0, quantum_integer(2)], 3)
    assert TruncSeries([1], 2).nabla(5) == TruncSeries([1], 2)
    assert TruncSeries(t.coeffs[:2], 1).nabla(2) == TruncSeries([0, quantum_integer(3)], 1)


@given(integral_series())
def test_nabla0_is_identity(a):
    assert a.nabla(0) == a


@given(integral_series(), integral_series())
def test_operators_linear(a, b):
    assert (a + b).delta() == a.delta() + b.delta()
    assert (a + b).nabla(2) == a.nabla(2) + b.nabla(2)


@settings(max_examples=25)
@given(integral_series(order=12))
def test_delta_nabla_commute(a):
    for k in (1, 2, 3):
        assert a.delta().nabla(k) == a.nabla(k).delta()


@given(integral_series())
def test_delta_matches_substitution_formula(a):
    # the two-substitutions-and-divide definition is the oracle
    diff = a.scale_arg(1) - a.scale_arg(-1)
    unit = RatFunc.one() / RatFunc.of(V - VINV)
    assert a.delta() == diff * unit


@given(integral_series())
def test_delta_specializes_to_derivative(a):
    # (1/t) * delta(a) at v=1 is the ordinary derivative of a at v=1
    da = a.delta()
    for d in range(1, a.order + 1):
        assert da.coeffs[d].eval_at_one() == d * a.coeffs[d].eval_at_one()


def test_delta_invert():
    assert delta_invert(TruncSeries([0], 3)) == TruncSeries([1], 3)
    t = TruncSeries([0, 1], 3)
    assert delta_invert(t) == TruncSeries([1, 1], 3)
    with pytest.raises(NonZeroConstantError):
        delta_invert(TruncSeries([1], 2))


@given(integral_series())
def test_delta_invert_round_trip(g):
    g = TruncSeries([1] + list(g.coeffs[1:]), g.order)
    assert delta_invert(g.delta()) == g


def test_delta_invert_divisions_agree():
    # coefficient d at v = r is b_d(r) / [d]_r, for coefficients [d]_v divides
    b = TruncSeries([0, V + VINV, quantum_integer(2) * (V - 3),
                     quantum_integer(3) * LaurentPoly([1, 0, 6], -1),
                     quantum_integer(4) * (V + 2)], 4)
    out = delta_invert(b)
    assert out.is_integral()
    for r in POINTS:
        assert [at(c, r) for c in out.coeffs] == [1] + [
            at(c, r) * pow(qint(d, r), -1, P) % P for d, c in enumerate(b.coeffs) if d]
    # a record has no delta_invert, whether its coefficients are Laurent or not
    for record in (lift(b), TruncSeries([0, RatFunc(V, V + 2)], 1)):
        with pytest.raises(TypeError):
            delta_invert(record)


def test_delta_invert_integral_series():
    # the integral ring divides exactly and keeps its ring
    polys = [LaurentPoly.zero(), V + VINV, quantum_integer(2) * (V - 3),
             quantum_integer(3) * LaurentPoly([1, 0, 3], -1)]
    b = TruncSeries(polys, 3)
    out = delta_invert(b)
    assert all(type(c) is LaurentPoly for c in out.coeffs)
    for B in at_points(b):
        assert PointSeries.of(out, B.r).delta() == B
    assert out.to_json() == lift(out).to_json()
    # a coefficient [d]_v does not divide leaves a remainder
    with pytest.raises(NonPolynomialError):
        delta_invert(TruncSeries(polys[:3] + [LaurentPoly([1, 0, 3], -1)], 3))
    with pytest.raises(NonZeroConstantError):
        delta_invert(TruncSeries([LaurentPoly.one()], 2))


@given(polys(), st.integers(2, 4), st.integers(-8, 8))
def test_delta_invert_refuses_a_non_multiple(ps, d, j):
    # coefficient n is p_n [n]_v, so G_n = p_n; adding a monomial to one
    # coefficient leaves a remainder on division by its [d]_v, d >= 2
    coeffs = [LaurentPoly.zero()] + [p * quantum_integer(n)
                                     for n, p in enumerate(ps) if n]
    assert delta_invert(TruncSeries(coeffs, 4)) == TruncSeries([1] + ps[1:], 4)
    coeffs[d] = coeffs[d] + LaurentPoly.monomial(j)
    with pytest.raises(NonPolynomialError):
        delta_invert(TruncSeries(coeffs, 4))


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


# -- the integral ring and the records ------------------------------------------


def test_constructor_chooses_the_ring():
    # int and LaurentPoly coefficients stay integral, padded with zeros
    a = TruncSeries([1, V], 3)
    assert a.is_integral() and TruncSeries([1, 1], 2).is_integral()
    assert a.coeffs == (LaurentPoly.one(), V, LaurentPoly.zero(), LaurentPoly.zero())
    assert TruncSeries([V, V, V], 1).coeffs == (V, V)
    # one RatFunc coefficient makes every coefficient a RatFunc: a record
    for record in (lift(a), TruncSeries([1, RatFunc(V, V + 2)], 3),
                   TruncSeries([RatFunc.one()], 3), TruncSeries.from_json(a.to_json())):
        assert not record.is_integral()
        assert all(type(c) is RatFunc for c in record.coeffs)
        assert record.order == 3
    assert lift(a) == a and a.to_json() == lift(a).to_json()
    for bad in (Fraction(1, 2), True, 1.0):
        with pytest.raises(TypeError):
            TruncSeries([LaurentPoly.one(), bad], 2)
    with pytest.raises(ValueError):
        TruncSeries([], -1)


@pytest.mark.parametrize("bad", [True, False, 2.0, "2"])
def test_non_int_order_refused(bad):
    with pytest.raises(TypeError):
        TruncSeries([1], bad)
    assert TruncSeries([1, 2], None).order == 1


@given(integral_series(), integral_series(order=3))
def test_integral_operations_stay_integral(a, b):
    for A, B in zip(at_points(a), at_points(b)):
        one = PointSeries([1, 0, 0, 0, 0], A.r)
        cases = [
            (a + b, A + B),
            (a - b, A - B),
            (-a, -A),
            (a * b, A * B),
            (b * a, B * A),
            (a.scale_arg(3), A.scale_arg(3)),
            (a.shift_t() * (V - 2), A.shift_t(V - 2)),
            (a.shift_t(), A.shift_t()),
            (a.delta(), A.delta()),
            (a.nabla(2), A.nabla(2)),
            (a + 1, A + one),
            (1 - a, one - A),
            (a * V, A.scaled(V)),
            (3 * a, A.scaled(3)),
        ]
        for got, want in cases:
            assert got.is_integral()
            assert PointSeries.of(got, A.r) == want


@given(integral_series(), records(order=3))
def test_ratfunc_operand_lifts(a, b):
    # + and - with a record or a RatFunc constant, and a RatFunc scalar,
    # give a record; products with a record need the series ring
    r = RatFunc(V, V + 2)
    half, third = (RatFunc(LaurentPoly.one(), LaurentPoly([n])) for n in (2, 3))
    for A, B in zip(at_points(a), at_points(b)):
        one = PointSeries([1, 0, 0, 0, 0], A.r)
        cases = [
            (a + b, A + B),
            (b + a, B + A),
            (a - b, A - B),
            (a + RatFunc.one(), A + one),
            (a * r, A.scaled(r)),
            (a * half, A.scaled(half)),
            (a - third, A - one.scaled(third)),
            (a.shift_t() * r, A.shift_t(r)),
        ]
        for got, want in cases:
            assert not got.is_integral()
            assert all(isinstance(c, RatFunc) for c in got.coeffs)
            assert PointSeries.of(got, A.r) == want
    for op in (lambda: a * b, lambda: b * a, lambda: b * b):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2, 1), True, False])
def test_non_int_scalars_refused(bad):
    # both rings are over the integers: a Fraction or bool scalar is refused
    for a in (TruncSeries([LaurentPoly.one(), V], 2),
              TruncSeries([RatFunc.one(), RatFunc(V, V + 2)], 2)):
        for op in (lambda: a + bad, lambda: bad + a, lambda: a - bad,
                   lambda: bad - a, lambda: a * bad, lambda: bad * a):
            with pytest.raises(TypeError):
                op()
    for coeffs in ([1, bad], [bad]):
        with pytest.raises(TypeError):
            TruncSeries(coeffs, 2)


@given(polys(order=6))
def test_unit_inverse_stays_integral_and_builds_no_ratfunc(coeffs):
    def forbidden(*args, **kwargs):
        raise AssertionError("a RatFunc was constructed")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactalg.RatFunc, "__init__", forbidden)
        mp.setattr(exactalg.RatFunc, "_canonical", forbidden)
        # 1 and integer Laurent polynomials through the public constructor
        a = integral_unit(coeffs, 6)
        got = a.inverse()
        assert got.is_integral()
        assert (got * a).coeffs == TruncSeries([1], 6).coeffs
    for A in at_points(a):
        assert PointSeries.of(got, A.r) == A.inverse()


def test_nonunit_constant_term_refused():
    # only a constant term 1 inverts: that inverse needs no division
    for c0 in (LaurentPoly([2]), V, -LaurentPoly.one(), V + 1, LaurentPoly.zero()):
        with pytest.raises(NotInvertibleError):
            TruncSeries([c0, V, LaurentPoly([1, 0, 3], -1)], 2).inverse()


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
    return TruncSeries(coeffs, order)


class TestRescaledProduct:
    @staticmethod
    def by_definition(X, p, r):
        """prod_{i<r} x(v^(p*i) t), one factor at a time, at a point."""
        one = PointSeries([1] + [0] * (len(X.values) - 1), X.r)
        return reduce(mul, [X.scale_arg(p * i) for i in range(r)], one)

    # r up to 17 reaches every bit pattern of up to four bits plus 16 and 17
    @given(mixed_series(), st.integers(-6, 6), st.integers(0, 17))
    def test_is_the_product_of_the_rescaled_copies(self, x, p, r):
        got = rescaled_product(x, p, r)
        assert got.is_integral()
        for X in at_points(x):
            assert PointSeries.of(got, X.r) == self.by_definition(X, p, r)
        if r >= 2:
            with pytest.raises(TypeError):
                rescaled_product(lift(x), p, r)

    @pytest.mark.parametrize("r", range(1, 18))
    def test_doubling_cost(self, monkeypatch, r):
        calls = []
        product = qseries._op_product

        def counting(a, b, c=0):
            calls.append(r)
            return product(a, b, c)

        monkeypatch.setattr(qseries, "_op_product", counting)
        x = TruncSeries([1, V, VINV - 2], 2)
        rescaled_product(x, -2, r)
        assert len(calls) == r.bit_length() + bin(r).count("1") - 2

    @pytest.mark.parametrize("r", [-1, -4])
    def test_negative_count_refused(self, r):
        with pytest.raises(ValueError):
            rescaled_product(TruncSeries([1], 2), 1, r)

    @pytest.mark.parametrize("r", [0, -1])
    def test_operand_form_needs_one_factor(self, r):
        with pytest.raises(ValueError):
            op_rescaled_product([Operand(LaurentPoly.one())], 1, r)


def ops(x):
    return [Operand(c) for c in x.coeffs]


def polys_of(ops_):
    return TruncSeries([op.poly for op in ops_], len(ops_) - 1)


class TestOperandKernels:
    """The packed sums under ``TruncSeries`` products and inverses, against
    evaluation at points, over zero, stride-2 and stride-1 coefficients."""

    @given(mixed_series(), mixed_series(), st.integers(-6, 6))
    def test_product_rescales_its_second_factor(self, a, b, c):
        got = polys_of(qseries._op_product(ops(a), ops(b), c))
        assert got.order == min(a.order, b.order)
        for A, B in zip(at_points(a), at_points(b)):
            assert PointSeries.of(got, A.r) == A * B.scale_arg(c)

    @given(mixed_series())
    def test_inverse(self, x):
        x = TruncSeries([1, *x.coeffs[1:]], x.order)
        got = x.inverse()
        for X in at_points(x):
            assert PointSeries.of(got, X.r) == X.inverse()


class TestOnlineRescaledProduct:
    # r up to 17 reaches every bit pattern of up to four bits plus 16 and 17
    @given(mixed_series(), st.integers(1, 6))
    def test_each_push_reads_the_offline_product(self, x, step):
        for p in (-step, step):
            for r in range(1, 18):
                want = rescaled_product(x, p, r)
                product = OnlineRescaledProduct(p, r)
                for n, c in enumerate(x.coeffs):
                    assert product.push(Operand(c)).poly == want.coeffs[n], (p, r, n)

    @pytest.mark.parametrize("r", range(1, 18))
    def test_packed_sums_per_push_follow_the_bits(self, r, monkeypatch):
        sums = []
        packed_sum = qseries.sum_of_products

        def counting(terms):
            sums.append(1)
            return packed_sum(terms)

        monkeypatch.setattr(qseries, "sum_of_products", counting)
        product = OnlineRescaledProduct(-2, r)
        per_push = r.bit_length() - 1 + bin(r).count("1") - 1
        for n in range(5):
            before = len(sums)
            product.push(Operand(LaurentPoly([1, 0, n + 2], -1)))
            assert len(sums) - before == per_push, n

    @pytest.mark.parametrize("r", [0, -1])
    def test_no_copies_refused(self, r):
        with pytest.raises(ValueError):
            OnlineRescaledProduct(-2, r)


def recording_sums(monkeypatch):
    """Wrap ``qseries.sum_of_products``; each call appends (terms, runs),
    runs being the number of maximal runs of consecutive terms that hold
    one ``ops`` object, which the kernel multiplies once each."""
    calls = []
    packed_sum = qseries.sum_of_products

    def recording(terms):
        runs = sum(i == 0 or ops is not terms[i - 1][2]
                   for i, (_, _, ops) in enumerate(terms))
        assert runs == len({id(ops) for _, _, ops in terms})
        calls.append((len(terms), runs))
        return packed_sum(terms)

    monkeypatch.setattr(qseries, "sum_of_products", recording)
    return calls


class TestSharedPairs:
    def test_doubling_node_multiplies_each_pair_once(self, monkeypatch):
        calls = recording_sums(monkeypatch)
        product = OnlineRescaledProduct(-2, 2)  # one doubling node, a square
        for n in range(9):
            product.push(Operand(LaurentPoly([1, 0, n + 2], -1)))
        assert calls == [(n + 1, n // 2 + 1) for n in range(9)]

    def test_square_shares_its_pairs_and_a_product_does_not(self, monkeypatch):
        a = [Operand(LaurentPoly([1, n, 2], n)) for n in range(7)]
        b = [Operand(LaurentPoly([n, 1], -n)) for n in range(7)]
        calls = recording_sums(monkeypatch)
        qseries._op_product(a, a, -4)
        assert calls == [(n + 1, n // 2 + 1) for n in range(7)]
        del calls[:]
        qseries._op_product(a, b, -4)
        assert calls == [(n + 1, n + 1) for n in range(7)]


class TestOnlineQDifferenceProduct:
    @given(mixed_series())
    def test_each_push_reads_the_offline_product(self, x):
        x = integral_unit(x.coeffs, x.order)
        for p in (-4, -2, 2, 4):
            for r in range(1, 18):
                want = rescaled_product(x, p, r)
                product = OnlineQDifferenceProduct(p, r)
                for n, c in enumerate(x.coeffs):
                    assert product.push(Operand(c)).poly == want.coeffs[n], (p, r, n)

    @pytest.mark.parametrize("r", [1, 2, 3, 16, 17])
    def test_one_packed_sum_per_push(self, r, monkeypatch):
        calls = recording_sums(monkeypatch)
        product = OnlineQDifferenceProduct(-2, r)
        for n in range(6):
            product.push(Operand(LaurentPoly([1, 0, n + 1], -1) if n else LaurentPoly.one()))
        # nothing at n = 0, then 2n terms, the two of each k on one product
        assert calls == [(2 * n, n) for n in range(1, 6)]

    @pytest.mark.parametrize("p", [0, 1, -1, 3, -5])
    def test_odd_or_zero_p_refused(self, p):
        with pytest.raises(ValueError):
            OnlineQDifferenceProduct(p, 3)

    @pytest.mark.parametrize("r", [0, -1])
    def test_no_copies_refused(self, r):
        with pytest.raises(ValueError):
            OnlineQDifferenceProduct(-2, r)

    @pytest.mark.parametrize("x0", [LaurentPoly.zero(), LaurentPoly((2,)), -LaurentPoly.one(),
                                    V, LaurentPoly([1, 0, 1], -2)])
    def test_constant_term_other_than_one_refused(self, x0):
        product = OnlineQDifferenceProduct(-2, 3)
        with pytest.raises(ValueError):
            product.push(Operand(x0))


def test_point_reference_refuses_a_pole():
    # the reference must not pass a value it cannot evaluate
    assert at(RatFunc(V, V - 2), 3) == 3
    with pytest.raises(ZeroDivisionError):
        at(RatFunc(V, V - 3), 3)
