import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kronmot import exactalg
from kronmot.errors import NonPolynomialError
from kronmot.exactalg import (
    LaurentPoly,
    Operand,
    RatFunc,
    _pack,
    _slot,
    qpoch_divexact,
    qpoch_mul,
    quantum_integer,
    quantum_ratio,
    sum_of_products,
)

V = LaurentPoly.monomial(1)
VINV = LaurentPoly.monomial(-1)


def poly(coeffs, min_exp=0):
    return LaurentPoly(coeffs, min_exp)


class TestLaurentPoly:
    def test_canonical_form(self):
        p = poly([0, 0, 1, 2, 0], -3)
        assert p.min_exp == -1
        assert p.coeffs == (1, 2)
        assert poly([0, 0]).is_zero()
        assert poly([]).min_exp == 0

    def test_arithmetic(self):
        assert V + VINV == quantum_integer(2)
        assert V * VINV == LaurentPoly.one()
        assert (V - V).is_zero()
        assert (V + 1) * (V - 1) == V * V - 1

    def test_power(self):
        assert (V + VINV) ** 2 == poly([1, 0, 2, 0, 1], -2)
        assert (V + 1) ** 0 == LaurentPoly.one()

    def test_big_multiplication_matches_schoolbook(self):
        # exercise the Kronecker-substitution path against direct convolution
        a = poly([((-1) ** i) * (i + 1) for i in range(40)], -7)
        b = poly([(i * i - 5) for i in range(33)], 2)
        expected = LaurentPoly.zero()
        for i, c in enumerate(a.coeffs):
            expected = expected + (b * c).v_shift(a.min_exp + i)
        assert a * b == expected

    def test_divexact(self):
        num = LaurentPoly.monomial(2) - LaurentPoly.monomial(-2)
        assert num.divexact(V - VINV) == V + VINV
        num = LaurentPoly.monomial(3) - LaurentPoly.monomial(-3)
        assert num.divexact(V - VINV) == quantum_integer(3)
        with pytest.raises(NonPolynomialError):
            (V + 1).divexact(V - 1)

    def test_eval_at_one(self):
        assert poly([1, 0, 1, 0, 1], -2).eval_at_one() == 3
        assert LaurentPoly.zero().eval_at_one() == 0
        k43 = [1, 1, 3, 5, 8, 10, 12, 10, 8, 5, 3, 1, 1]
        p = LaurentPoly([c for pair in zip(k43, [0] * 13) for c in pair][:-1], -12)
        assert p.eval_at_one() == 68

    def test_is_palindromic(self):
        assert poly([1, 0, 1, 0, 1], -2).is_palindromic()
        assert not V.is_palindromic()
        assert LaurentPoly.zero().is_palindromic()

    def test_integral_fractions_stored_as_int(self):
        p = poly([Fraction(4, 2), 3, Fraction(1, 2), Fraction(-6, 3), 0], 1)
        assert p.coeffs == (2, 3, Fraction(1, 2), -2)
        assert [type(c) for c in p.coeffs] == [int, int, Fraction, int]
        q = poly([Fraction(4, 2), 5])
        assert [type(c) for c in q.coeffs] == [int, int]
        assert q == poly([2, 5]) and hash(q) == hash(poly([2, 5]))

    @pytest.mark.parametrize("c", [0, 1, -3, Fraction(1, 2)])
    def test_constants_hash_as_their_coefficient(self, c):
        for x in [poly([c]), RatFunc.of(c), RatFunc(poly([c])), RatFunc(poly([c]), V).v_shift(1)]:
            assert x == c and c == x
            assert hash(x) == hash(c)

    def test_equal_constants_collapse_in_a_set(self):
        assert {1, LaurentPoly.one()} == {1}
        assert len({1, Fraction(1), LaurentPoly.one(), poly([Fraction(2, 2)]),
                    RatFunc.one(), RatFunc(V, V)}) == 1
        assert len({0, LaurentPoly.zero(), RatFunc.zero(), poly([0, 0], 3)}) == 1
        # a monomial off v^0 is no constant
        assert len({1, V, VINV, poly([1], 2)}) == 4

    def test_json_round_trip(self):
        p = poly([Fraction(1, 3), 2, -5], -4)
        assert LaurentPoly.from_json(p.to_json()) == p
        assert p.to_json()["coeffs"] == ["1/3", "2", "-5"]
        assert LaurentPoly.from_json(LaurentPoly.zero().to_json()).is_zero()

    @pytest.mark.parametrize("min_exp,coeffs,error", [
        (0, "123", TypeError),          # a string is no list of numerals
        (0, {"0": "1"}, TypeError),
        (0, ("1", "2"), TypeError),
        (0, [1, 2], TypeError),         # numbers, not numeral strings
        (0, ["1", None], TypeError),
        (0, ["1e3"], ValueError),       # numerals str would not write
        (0, ["2/4"], ValueError),
        (0, ["4/2"], ValueError),
        (0, [" 3"], ValueError),
        (0, ["+3"], ValueError),
        (0, ["0.5"], ValueError),
        (0, ["x"], ValueError),
        (0, ["1/0"], ValueError),
        (0, ["0", "1"], ValueError),    # zero ends are trimmed by to_json
        (0, ["1", "0"], ValueError),
        (3, [], ValueError),            # zero is written with min_exp 0
    ])
    def test_json_rejects_what_to_json_never_writes(self, min_exp, coeffs,
                                                     error):
        with pytest.raises(error):
            LaurentPoly.from_json({"min_exp": min_exp, "coeffs": coeffs})


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# coefficients at and around the machine-word and slot-width boundaries
WIDE = [2**63, 2**64 - 1, 2**64, 2**64 + 1, 2**127 + 5, 2**200 - 1]
wide_ints = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from(WIDE + [-x for x in WIDE]),
)


def check_product(a, b, e1=0, e2=0):
    """poly(a, e1) * poly(b, e2) agrees with schoolbook both ways round, and
    so does the one-term packed sum of the two (``check_sum``)."""
    p, q = poly(a, e1), poly(b, e2)
    want = poly(schoolbook(a, b), e1 + e2)
    for got in (p * q, q * p):
        assert_canonical_int(got)
        assert (got.min_exp, got.coeffs) == (want.min_exp, want.coeffs)
    check_sum([(1, 0, [p, q])])


class TestConvInt:
    """Integer products through the public ``*`` against schoolbook.

    Every case also runs through ``sum_of_products`` as a one-term sum, so
    operands shorter than ``_KRONECKER_MIN_LEN``, which ``*`` multiplies by
    schoolbook, still reach the packed kernel.
    """

    @pytest.mark.parametrize("a,b", [
        ([5], [7]),
        ([1], [-1]),
        ([0, -1, 0], [0, 0, 1]),
        ([-3], [4, -1, 0, 2]),
        ([-1] * 20, [-2] * 17),
        ([-(2**64 + 1)] * 18, [-(2**63)] * 16),
        ([0, 0, 3, -1, 0, 0], [0, 2, 0]),
        ([0, 0], [0, 1]),
        ([2**63, -(2**64 - 1), 2**64, -(2**64 + 1)], [2**200 - 1, 1, -(2**127)]),
        ([1, -1] * 40, [2**64 - 1] * 33),
        # zero ends and all-zero operands at lengths that reach the packed sum
        ([0, 0, 3, -1, 0, 5, 7, 1, 1, -2, 4, 0], [0, 2, 0, 1, 1, 1, 1, 1, 1, 1, 0]),
        ([0] * 12, [2**64, 1, 1, 1, 1, 1, 1, 1, -(2**64)]),
    ])
    def test_edge_cases(self, a, b):
        check_product(a, b)

    @given(st.lists(wide_ints, min_size=1, max_size=40),
           st.lists(wide_ints, min_size=1, max_size=40),
           st.integers(-5, 5), st.integers(-5, 5))
    def test_matches_schoolbook(self, a, b, e1, e2):
        check_product(a, b, e1, e2)

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 40])
    def test_conv_across_the_threshold(self, n):
        rng = random.Random(n)
        a = [rng.choice(WIDE) * rng.choice((-1, 1)) for _ in range(n)]
        b = [rng.randint(-(2**65), 2**65) for _ in range(16)]
        cut = exactalg._KRONECKER_MIN_LEN
        # the shorter operand below, at and above the cut-off, and longer
        for lb in (0, cut - 2, cut - 1, cut, len(b)):
            check_product(a, b[:lb] + [1], -3, 5)


def spread(xs):
    """xs at the even indices of a list, zeros at the odd ones."""
    out = [0] * (2 * len(xs) - 1)
    out[::2] = xs
    return out


def assert_canonical_int(p):
    assert all(type(c) is int for c in p.coeffs)
    if p.coeffs:
        assert p.coeffs[0] != 0 and p.coeffs[-1] != 0
    else:
        assert p.min_exp == 0


class TestWordSlotKernel:
    """Stride-2 compaction, word-sized slots and the schoolbook cut-off of
    integer ``*``, against schoolbook."""

    # one product coefficient lands exactly on each side of the largest
    # magnitude a 1, 2, 4 and 8 byte slot holds, and above 8 bytes
    @pytest.mark.parametrize("limit", [2**7, 2**15, 2**31, 2**63, 2**64, 2**100])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_slot_width_boundaries(self, limit, delta, sign):
        c = sign * (limit + delta)
        # operands long enough for the packed sum: the lowest product
        # coefficient P * K lies at the limit or |P| to either side of it,
        # and the l1 bound the slot is sized by, (|P| + 1)(K + 1), is only a
        # little larger
        half = limit.bit_length() // 2
        P, K = sign * (1 << half), (limit >> half) + delta
        for a, b in [
            ([P] + [0] * 7 + [1], [K] + [0] * 7 + [1]),
            ([P] + [0] * 8 + [1], [K] + [0] * 7 + [-1]),
            ([c], [1, -1, 0, 1, 1, -1, 1, 0, -1]),
            ([c, 0, -c, 0, c, 0, -c], [1, 0, 1, 0, -1, 0, 1]),
            ([1] * 8, [c // 8] * 8 + [c % 8]),
            ([c, 1, -1, 2, 0, -c, c], [-1, 0, 1, 1, 1, 0, -1]),
            # the same at lengths that reach the packed sum through *
            ([c, 0, -c, 0, c, 0, -c, 0, c], [1, 0, 1, 0, -1, 0, 1, 0, 1]),
            ([1] * 9, [c // 9] * 9 + [c % 9]),
            ([c, 1, -1, 2, 0, -c, c, 1, -1], [-1, 0, 1, 1, 1, 0, -1, 1, 1]),
        ]:
            check_product(a, b)

    @pytest.mark.parametrize("bits", [6, 7, 8, 14, 15, 16, 30, 31, 32, 62, 63, 64, 65])
    def test_sums_at_slot_width_boundaries(self, bits):
        # the slot is sized by the product of the l1 norms, 9x * 9 = 81x,
        # which lies just below 2**bits for the first x (if it is not 0) and
        # above it for the second
        n = 9
        for x in {max(1, (1 << bits) // 81), (1 << bits) // 81 + 1}:
            for xs in ([x] * n, [-x] * n, [x, -x] * 4 + [x]):
                for ys in ([1] * n, [-1] * n, spread([1] * n)):
                    check_product(xs, ys)
                    check_product(spread(xs), spread(ys))

    @pytest.mark.parametrize("a,b", [
        ([1, 0, 2], [3, 0, 4]),
        ([1, 0, 2, 0], [3, 0, 4, 0]),
        ([1, 0, 2, 0], [3, 0, 4]),
        ([1, 0, 2], [3, 0, 4, 0, 0, 0]),
        ([0, 0, 5, 0, 0, 0, -7, 0], [0, 0, 0, 0, 9]),
        ([2**70, 0, -(2**70), 0, 1], [0, 0, 2**65, 0, 3, 0, -1, 0]),
        ([1, 0] * 8, [-1, 0] * 9),
        (spread(list(range(1, 12))), spread(list(range(-5, 8)))),
    ])
    def test_stride_two_lengths(self, a, b):
        check_product(a, b)
        # behind an even prefix, to lengths that reach the packed sum
        check_product([0, 0] + spread([1] * 5) + [0] + a, spread([-1] * 5) + [0] + b, 1, -4)

    @pytest.mark.parametrize("dense", [
        [1, 1, 1, 1, 1, 1, 1, 1, 1],
        [0, 3, 0, 0, 0, 0, 0],
        [5, 0, 0, 0, 0, 0, 0, 0, 0, 2],
        [-(2**40), 7, 2**40, 0, 1, 1, 1, 1, -1],
    ])
    def test_stride_two_times_dense(self, dense):
        check_product(spread([3, -1, 4, 1, -5, 9, 2]), dense, -6, 1)

    @pytest.mark.parametrize("la", range(1, 10))
    @pytest.mark.parametrize("lb", range(1, 10))
    def test_lengths_around_the_threshold(self, la, lb):
        rng = random.Random(100 * la + lb)
        zeros_a, zeros_b = [0] * la, [0] * lb
        a = [rng.randint(-(2**20), 2**20) or 1 for _ in range(la)]
        b = [rng.randint(-(2**20), 2**20) or 1 for _ in range(lb)]
        for x, y in [(zeros_a, zeros_b), (a, zeros_b),
                     (a, b), (spread(a), spread(b)), (spread(a), b)]:
            check_product(x, y, 2, -3)

    @given(st.lists(wide_ints, min_size=1, max_size=30),
           st.lists(wide_ints, min_size=1, max_size=30),
           st.booleans(), st.booleans())
    def test_stride_two_matches_schoolbook(self, xs, ys, pad_a, pad_b):
        # zeros at every odd index; a trailing zero gives an even length
        check_product(spread(xs) + [0] * pad_a, spread(ys) + [0] * pad_b)

    def test_products_take_one_packed_sum(self, monkeypatch):
        # a long integer product is one call to the one kernel; short,
        # length-1 and Fraction products never reach it
        calls = []
        kernel = exactalg.sum_of_products

        def counting(terms):
            calls.append(terms)
            return kernel(terms)

        monkeypatch.setattr(exactalg, "sum_of_products", counting)
        cut = exactalg._KRONECKER_MIN_LEN
        for a, b, want in [
            (list(range(1, cut + 1)), list(range(-1, -cut - 1, -1)), 1),
            (spread([2] * cut), [1] * cut, 1),
            ([7], [1] * (2 * cut), 0),
            ([1] * (cut - 1), [1] * (2 * cut), 0),
            ([1, 0, 1], [1] * cut, 0),
            ([Fraction(1, 2)] + [1] * cut, [1] * cut, 0),
            ([1] * cut, [Fraction(1, 3)] + [1] * (2 * cut), 0),
        ]:
            for p, q in [(poly(a, 1), poly(b, -2)), (poly(b, -2), poly(a, 1))]:
                calls.clear()
                got = p * q
                assert len(calls) == want
                if want:
                    ((sign, shift, ops),) = calls[0]
                    assert (sign, shift, len(ops)) == (1, 0, 2)
                assert got == poly(schoolbook(a, b), -1)

    @given(st.lists(st.integers(-(2**40), 2**40), max_size=12),
           st.lists(st.integers(-(2**40), 2**40), max_size=12),
           st.integers(-5, 5), st.integers(-5, 5), st.booleans())
    def test_int_results_are_canonical(self, xs, ys, e1, e2, even):
        if even:
            xs, ys = spread(xs) if xs else xs, spread(ys) if ys else ys
        p, q = poly(xs, e1), poly(ys, e2)

        def public(terms):
            # the checked constructor, from a dict exponent -> coefficient
            lo = min(terms, default=0)
            hi = max(terms, default=-1)
            return LaurentPoly([terms.get(e, 0) for e in range(lo, hi + 1)], lo)

        tp = {e1 + i: c for i, c in enumerate(xs)}
        tq = {e2 + i: c for i, c in enumerate(ys)}
        prod, total, diff = {}, dict(tp), dict(tp)
        for i, x in tp.items():
            for j, y in tq.items():
                prod[i + j] = prod.get(i + j, 0) + x * y
        for j, y in tq.items():
            total[j] = total.get(j, 0) + y
            diff[j] = diff.get(j, 0) - y
        for got, want in [
            (p * q, public(prod)),
            (p + q, public(total)),
            (p - q, public(diff)),
            (p - p, LaurentPoly.zero()),
            (-p, public({e: -c for e, c in tp.items()})),
            (p.v_shift(3), public({e + 3: c for e, c in tp.items()})),
        ]:
            assert_canonical_int(got)
            assert (got.min_exp, got.coeffs) == (want.min_exp, want.coeffs)

    def test_cancelling_ends_are_trimmed(self):
        p = poly([1, 0, 5, 0, 2], -2)
        q = poly([-1, 0, 3, 0, -2], -2)
        assert (p + q).coeffs == (8,) and (p + q).min_exp == 0
        assert (p - p).coeffs == () and (p - p).min_exp == 0
        assert_canonical_int(p + q)

    def test_fraction_operands_take_the_exact_path(self):
        # results with a non-int coefficient must never reach the int kernel
        frac = poly([Fraction(1, 2), 0, 1, 0, -3, 0, 2, 0, 5])
        ints = poly([2, 0, 3, 0, 1, 0, 4, 0, 5])
        for r in (-frac, frac.v_shift(2), frac + ints, ints - frac, frac * ints):
            assert any(type(c) is Fraction for c in r.coeffs)
            want = schoolbook(list(r.coeffs), list(ints.coeffs))
            assert r * ints == poly(want, r.min_exp + ints.min_exp)
        # an integral result is stored as int and multiplies as one
        doubled = frac * 2
        assert_canonical_int(doubled)
        assert_canonical_int(doubled * ints)
        assert doubled * ints == poly(schoolbook([1, 0, 2, 0, -6, 0, 4, 0, 10],
                                                 list(ints.coeffs)))


def shifted_sum(terms):
    """sum of sign * v^shift * p_1 * ... * p_r by schoolbook, as a LaurentPoly."""
    total = {}
    for sign, shift, polys in terms:
        coeffs, lo = [1], shift
        for p in polys:
            coeffs = schoolbook(coeffs, list(p.coeffs))
            lo += p.min_exp
        for i, c in enumerate(coeffs):
            total[lo + i] = total.get(lo + i, 0) + sign * c
    lo, hi = min(total, default=0), max(total, default=-1)
    return LaurentPoly([total.get(e, 0) for e in range(lo, hi + 1)], lo)


def check_sum(terms):
    """sum_of_products on ``terms`` agrees with schoolbook; returns its operand."""
    ops = {}  # one operand per polynomial object, so packings are shared
    got = sum_of_products([
        (sign, shift, [ops.setdefault(id(p), Operand(p)) for p in polys])
        for sign, shift, polys in terms])
    want = shifted_sum(terms)
    assert_canonical_int(got.poly)
    assert (got.poly.min_exp, got.poly.coeffs) == (want.min_exp, want.coeffs)
    assert got.norm == sum(map(abs, want.coeffs))
    assert got.even == (not any(want.coeffs[1::2]))
    # the packing the result starts out with is the one it would be given
    for key, packed in got.packed.items():
        stride = 2 if key > 0 else 1
        assert packed == _pack(got.poly.coeffs[::stride], _slot(abs(key)))
    return got


narrow_or_wide_ints = st.one_of(st.integers(-3, 3), st.integers(-(2**20), 2**20), wide_ints)


@st.composite
def product_sums(draw):
    """0-4 products of 2-4 operands, plus maybe a single-operand start term.

    Operands vanish at odd offsets ("aligned" and "even") or only sometimes
    ("mixed"); exponents and shifts are all even ("aligned", the stride-2
    case) or of any parity.
    """
    mode = draw(st.sampled_from(["aligned", "even", "mixed"]))
    scale = 2 if mode == "aligned" else 1

    def operand():
        xs = draw(st.lists(narrow_or_wide_ints, max_size=7))
        if xs and (mode != "mixed" or draw(st.booleans())):
            xs = spread(xs)
        return poly(xs, scale * draw(st.integers(-5, 5)))

    terms = []
    for _ in range(draw(st.integers(0, 4))):
        sign = draw(st.sampled_from([1, -1]))
        ops = [operand() for _ in range(draw(st.integers(2, 4)))]
        terms.append((sign, scale * draw(st.integers(-6, 6)), ops))
    if draw(st.booleans()):
        terms.append((1, scale * draw(st.integers(-6, 6)), [operand()]))
    return terms


class TestSumOfProducts:
    """The signed Kronecker sum against schoolbook products plus shifts."""

    @given(product_sums())
    def test_matches_schoolbook(self, terms):
        check_sum(terms)

    # one sum coefficient lands exactly on each side of the largest magnitude
    # a 1, 2, 4 and 8 byte slot holds, and above 8 bytes; monomial operands
    # make the l1 bound the slot is sized by exact
    @pytest.mark.parametrize("limit", [2**7, 2**15, 2**31, 2**63, 2**64, 2**100])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_slot_width_boundaries(self, limit, delta, sign):
        c = sign * (limit + delta)
        one, v2 = poly([1]), poly([1], 2)
        q, r = divmod(c, 3)
        for terms in [
            [(1, 0, [poly([c]), one])],
            [(-1, 4, [poly([c], -4), one, v2, poly([-1])])],
            # three products add up to c at v^2
            [(1, 0, [poly([q]), v2]), (1, 2, [poly([q]), one]),
             (-1, 1, [poly([-q - r], 1), one, one])],
            # a start term plus a stride-2 product reaching c at v^0
            [(1, 0, [poly([c - 1, 0, 5])]), (1, -2, [v2, poly([1]), poly([1, 0, -1])])],
            # odd and even offsets or exponents: the full-stride path
            [(1, 0, [poly([c]), one]), (-1, 1, [poly([c // 2, -1]), one, v2])],
            [(1, 0, [poly([c, 0, 1]), v2]), (-1, 1, [poly([c // 2]), one, v2])],
        ]:
            check_sum(terms)

    @pytest.mark.parametrize("bits", [6, 7, 8, 14, 15, 16, 30, 31, 32, 62, 63, 64, 65])
    def test_dense_sums_at_slot_width_boundaries(self, bits):
        # dense sums whose l1 bound is 48x (just above 2**bits) and 30x (below
        # it), for bits on both sides of each slot size
        x = (1 << bits) // 45
        a, b = poly([x] * 5), poly(spread([1] * 3))
        check_sum([(1, 0, [a, b]), (1, 0, [b, a]), (-1, 2, [poly([-x, 0, -x]), b, b])])
        check_sum([(1, 0, [poly(spread([x] * 5)), b]), (1, 1, [poly([x] * 5), b])])

    def test_empty_and_zero_terms(self):
        assert sum_of_products([]).poly == LaurentPoly.zero()
        zero = Operand(LaurentPoly.zero())
        some = Operand(poly([3, 0, 1], -2))
        assert sum_of_products([(1, 5, [some, zero]), (-1, 0, [zero])]).poly.is_zero()
        assert sum_of_products([(1, 5, [some, zero]), (1, -1, [some, some])]).poly == \
            (some.poly * some.poly).v_shift(-1)

    def test_sums_that_cancel(self):
        p = poly([7, 0, -3, 0, 2**70], -6)
        q = poly([1, 0, -1], 2)
        assert check_sum([(1, 0, [p, q]), (-1, 0, [q, p])]).poly.is_zero()
        assert check_sum([(1, 0, [p]), (-1, 3, [p, poly([1], -3)])]).poly.is_zero()
        # the low and high ends cancel; the packing starts at the new low end
        one = LaurentPoly.one()
        got = check_sum([(1, 0, [poly([5, 0, 1, 0, 9])]), (-1, 0, [poly([5]), one]),
                         (-1, 4, [poly([9]), one])])
        assert (got.poly.min_exp, got.poly.coeffs) == (2, (1,))
        got = check_sum([(1, 0, [poly([2**64, 0, -3, 0, 8, 0, 1])]),
                         (-1, -2, [poly([2**64], 2), one])])
        assert got.poly.min_exp == 2

    def test_operands_are_packed_once_per_slot(self):
        a = Operand(poly(spread([1, 2, 3]), -2))
        sum_of_products([(1, 0, [a, a]), (1, 2, [a, a, a])])
        # bound 6*6 + 6**3 = 252 needs 2 bytes; stride 2 keys are positive
        assert list(a.packed) == [2]
        first = a.packed[2]
        sum_of_products([(1, 0, [a, a, a]), (-1, 2, [a])])
        assert a.packed == {2: first} and a.packed[2] is first
        # mixed parity adds the full-stride packing beside it
        sum_of_products([(1, 1, [a, a]), (1, 0, [a])])
        assert sorted(a.packed) == [-1, 2]


class TestSumOfProductsEdges:
    """Ends that cancel, signs at the top slot and exact zeros, on word and
    byte slots and at strides 1 and 2, against schoolbook."""

    # the largest magnitude a 4 byte word slot holds, and one that needs a
    # slot wider than 8 bytes
    LIMITS = {"word": 2**31, "byte": 2**100}

    @staticmethod
    def layout(stride):
        """xs * v^(stride * lo) at stride 2 (zeros between) or 1 (dense)."""
        def make(xs, lo=0):
            return poly(spread(xs) if stride == 2 else xs, stride * lo)
        return make

    @staticmethod
    def check(terms, width, stride):
        got = check_sum(terms)
        if got.norm:
            (key,) = got.packed
            assert (abs(key) > 8) == (width == "byte")
            assert (key > 0) == (stride == 2)
        return got

    @pytest.mark.parametrize("width", ["word", "byte"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_lowest_slots_cancel(self, width, stride):
        P, B = self.layout(stride), self.LIMITS[width] // 8
        got = self.check([(1, 0, [P([B, -2 * B, 3, 4, 5 * B])]),
                          (-1, 0, [P([B, -2 * B]), poly([1])])], width, stride)
        assert got.poly.min_exp == 2 * stride

    @pytest.mark.parametrize("width", ["word", "byte"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_highest_slots_cancel(self, width, stride):
        P, B = self.layout(stride), self.LIMITS[width] // 8
        got = self.check([(1, 0, [P([3, 4, 5 * B, -B, 2 * B], -1)]),
                          (-1, stride * 4, [P([-B, 2 * B], -2), poly([1])])],
                         width, stride)
        assert got.poly.max_exp == stride

    @pytest.mark.parametrize("width", ["word", "byte"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("top", [-1, 1])
    def test_top_sign_against_lower_slots(self, width, stride, top):
        # the bound 3B + 2 lies just below the slot limit, the lower slots
        # are all near a third of it and opposite in sign to the top one
        P, B = self.layout(stride), (self.LIMITS[width] - 3) // 3
        lower = -top * B
        got = self.check([(1, 0, [P([lower, lower, lower, 2 * top])]),
                          (-1, 3 * stride, [poly([top]), poly([1])])],
                         width, stride)
        assert got.poly.coeffs[-1] == top
        assert got.norm == 3 * B + 1

    @pytest.mark.parametrize("width", ["word", "byte"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_sum_cancels_to_zero(self, width, stride):
        P, B = self.layout(stride), self.LIMITS[width] // 64
        a, b = P([B, -3, 0, 7, -B], -2), P([2, 0, -B, 1], 1)
        for terms in [
            [(1, 0, [a, b]), (-1, 0, [b, a])],
            [(1, stride, [a, b, b]), (-1, 0, [b, P([1], 1), a, b])],
            [(1, 0, [a]), (1, 0, [P([-1]), a])],
        ]:
            got = self.check(terms, width, stride)
            assert got.poly.is_zero() and got.norm == 0 and not got.packed


def plain_divexact(num, den):
    """Long division touching every divisor term, zeros included."""
    rem = [Fraction(c) for c in num]
    quot = []
    for i in range(len(num) - len(den) + 1):
        q = rem[i] / den[0]
        quot.append(q)
        for j, dv in enumerate(den):
            rem[i + j] -= q * dv
    if any(rem):
        raise NonPolynomialError("remainder")
    return quot


# divisors whose interior has runs of zero coefficients
GAPPED = [
    list(quantum_integer(5).coeffs),
    [1, 0, 0, 0, 0, 0, -1],
    [-1, 0, 3, 0, 0, 2],
    [2, 0, 0, Fraction(1, 3), 0, -5],
    [Fraction(-3, 4), 0, 1],
]


class TestDivexactSparse:
    @pytest.mark.parametrize("den", GAPPED)
    @pytest.mark.parametrize("quot", [
        [1],
        [3, -1, 0, 0, 7, 2**70],
        [Fraction(1, 2), 0, -4, Fraction(5, 3)],
    ])
    def test_matches_plain_loop(self, den, quot):
        num = schoolbook([Fraction(c) for c in quot], [Fraction(c) for c in den])
        got = poly(num, -2).divexact(poly(den, 3))
        expected = poly(plain_divexact(num, den), -5)
        assert got == expected
        assert [type(c) for c in got.coeffs] == [type(c) for c in expected.coeffs]

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=12),
           st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=0, max_size=8),
           st.sampled_from([1, -1, 2, Fraction(2, 3)]),
           st.booleans())
    def test_random_gapped_divisors(self, quot, middle, lead, as_fraction):
        den = [lead] + middle + [1]
        if as_fraction:
            quot = [Fraction(c, 3) for c in quot]
        num = schoolbook(quot, den)
        assert poly(num).divexact(poly(den)) == poly(plain_divexact(num, den))
        off = list(num)
        off[-1] += 1
        with pytest.raises(NonPolynomialError):
            poly(off).divexact(poly(den))


class TestDivexactBinomial:
    """Division by +-1 +- v^s, two terms, in linear time."""

    @pytest.fixture
    def fast_calls(self, monkeypatch):
        calls = []
        fast = exactalg._divexact_binomial

        def spy(*args):
            calls.append(args)
            return fast(*args)

        monkeypatch.setattr(exactalg, "_divexact_binomial", spy)
        return calls

    @pytest.mark.parametrize("s", range(1, 7))
    @pytest.mark.parametrize("lead", [1, -1])
    @pytest.mark.parametrize("last", [1, -1])
    def test_matches_long_division(self, s, lead, last, fast_calls):
        den = [lead] + [0] * (s - 1) + [last]
        for quot in [[1], [3, -1, 0, 2**70, 5, 0, 0, -7, 1], list(range(-6, 7))]:
            num = schoolbook(quot, den)
            calls = len(fast_calls)
            got = poly(num, -2).divexact(poly(den, -s))
            assert len(fast_calls) == calls + 1
            assert got == poly(plain_divexact(num, den), s - 2)
            assert_canonical_int(got)
            for i in [0, len(num) // 2, len(num) - 1]:
                off = list(num)
                off[i] += 1
                with pytest.raises(NonPolynomialError):
                    poly(off, 1).divexact(poly(den))

    def test_fraction_operands_take_the_long_division(self, fast_calls):
        den = [1, 0, 0, -1]
        quot = [Fraction(1, 3), 2, 0, -5]
        num = schoolbook(quot, den)
        got = poly(num).divexact(poly(den))
        assert got == poly(quot)
        assert [type(c) for c in got.coeffs] == [Fraction, int, int, int]
        # neither +-1 at both ends, or more than two terms
        assert poly(schoolbook([1, 2], [2, 0, 1])).divexact(poly([2, 0, 1])) == poly([1, 2])
        assert poly(schoolbook([1, 2], [1, 1, 1])).divexact(poly([1, 1, 1])) == poly([1, 2])
        assert not fast_calls
        # an integral Fraction is stored as an int, so this one takes it
        assert poly(schoolbook([1, 2], den)).divexact(poly([Fraction(1), 0, 0, -1])) \
            == poly([1, 2])
        assert len(fast_calls) == 1


class TestQuantumInteger:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, LaurentPoly.zero()),
            (1, LaurentPoly.one()),
            (2, V + VINV),
            (3, poly([1, 0, 1, 0, 1], -2)),
        ],
    )
    def test_small_values(self, n, expected):
        assert quantum_integer(n) == expected

    @pytest.mark.parametrize("n", range(51))
    def test_defining_identity(self, n):
        lhs = quantum_integer(n) * (V - VINV)
        assert lhs == LaurentPoly.monomial(n) - LaurentPoly.monomial(-n)
        assert quantum_integer(n).eval_at_one() == n


@st.composite
def int_polys(draw):
    """An integer LaurentPoly: half the time a polynomial in q = v^-2 times
    v^k, the shape of every motive (zero at every odd offset), else with
    coefficients at any offset, so the q-Pochhammer pass runs at stride 2
    and at stride 1."""
    coeffs = draw(st.lists(st.integers(-5, 5), max_size=8))
    if draw(st.booleans()):
        coeffs = [c for x in coeffs for c in (x, 0)]
    return LaurentPoly(coeffs, draw(st.integers(-4, 4)))


exponent_lists = st.lists(st.integers(1, 6), max_size=4)


def binomial_product(exps):
    """prod (1 - q^i), q = v^-2, each binomial built and multiplied by ``*``."""
    out = LaurentPoly.one()
    for i in exps:
        out = out * (LaurentPoly.one() - LaurentPoly.monomial(-2 * i))
    return out


def _outcome(f):
    try:
        return f()
    except NonPolynomialError:
        return NonPolynomialError


class TestQPochhammer:
    @given(int_polys(), exponent_lists)
    def test_qpoch_mul_is_the_product(self, p, exps):
        got = qpoch_mul(p, exps)
        assert got == p * binomial_product(exps)
        assert_canonical_int(got)

    @given(int_polys(), exponent_lists)
    def test_qpoch_divexact_undoes_qpoch_mul(self, p, exps):
        got = qpoch_divexact(qpoch_mul(p, exps), exps)
        assert got == p
        assert_canonical_int(got)

    @given(int_polys(), exponent_lists, st.booleans())
    def test_qpoch_divexact_is_the_long_division(self, p, exps, multiple):
        if multiple:
            p = p * binomial_product(exps)
        want = _outcome(lambda: p.divexact(binomial_product(exps)))
        got = _outcome(lambda: qpoch_divexact(p, exps))
        assert got == want
        if got is not NonPolynomialError:
            assert_canonical_int(got)

    @given(int_polys(), st.lists(st.integers(1, 6), min_size=1, max_size=4),
           st.integers(-30, 30))
    def test_qpoch_divexact_refuses_a_non_multiple(self, p, exps, j):
        # a monomial vanishes at no root of unity, so 1 - q^i never divides it
        with pytest.raises(NonPolynomialError):
            qpoch_divexact(qpoch_mul(p, exps) + LaurentPoly.monomial(j), exps)

    @given(int_polys(), st.sampled_from(["a<d", "a=d", "a>d"]), st.integers(1, 8),
           st.integers(1, 8), st.integers(0, 10))
    def test_quantum_ratio_is_product_then_division(self, c, relation, low, gap, k):
        a, d = {"a<d": (low, low + gap), "a=d": (low, low),
                "a>d": (low + gap, low)}[relation]
        if k:  # c [a]_v / [d]_v is a polynomial for k = d, and often else
            c = c * quantum_integer(k)
        want = _outcome(lambda: (c * quantum_integer(a)).divexact(quantum_integer(d)))
        got = _outcome(lambda: quantum_ratio(c, a, d))
        assert got == want
        if got is not NonPolynomialError:
            assert_canonical_int(got)

    @pytest.mark.parametrize("c", [LaurentPoly.one(), poly([2, 0, -1], 3), poly([1, 1], -1)])
    def test_dividend_shorter_than_the_step(self, c):
        # c (1 - q) spans fewer entries than 1 - q^12 steps, at either stride
        assert _outcome(lambda: (c * quantum_integer(1)).divexact(quantum_integer(12))) \
            is NonPolynomialError
        assert _outcome(lambda: quantum_ratio(c, 1, 12)) is NonPolynomialError
        assert _outcome(lambda: qpoch_divexact(c, [12])) is NonPolynomialError

    @pytest.mark.parametrize("exps", [[0], [-3]])
    def test_exponents_below_one_refused(self, exps):
        for f in (qpoch_mul, qpoch_divexact):
            with pytest.raises(ValueError):
                f(LaurentPoly([1, 0, 1]), exps)


@st.composite
def ratfuncs(draw):
    num = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
    den = draw(
        st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(any)
    )
    return RatFunc(
        LaurentPoly(num, draw(st.integers(-2, 2))),
        LaurentPoly(den, draw(st.integers(-2, 2))),
    )


class TestRatFunc:
    def test_inverse_pair(self):
        x = RatFunc(LaurentPoly.one(), V - VINV)
        assert x * (V - VINV) == RatFunc.one()

    def test_same_element_two_presentations(self):
        a = RatFunc(V * V - 1, V)
        b = RatFunc(V - VINV)
        assert a == b
        assert a / b == RatFunc.one()

    def test_den_normalization(self):
        r = RatFunc(LaurentPoly.one(), LaurentPoly([3, 0, -3], -2))
        assert r.den.coeff(0) == 1
        assert r.den.min_exp == 0

    def test_to_laurent(self):
        x = RatFunc(LaurentPoly.monomial(2) - LaurentPoly.monomial(-2), V - VINV)
        assert x.to_laurent() == V + VINV
        assert RatFunc.one().to_laurent() == LaurentPoly.one()
        with pytest.raises(NonPolynomialError):
            RatFunc(LaurentPoly.one(), V + 1).to_laurent()

    def test_round_trip_through_ratfunc(self):
        for p in [quantum_integer(5), V - VINV, LaurentPoly([2, -3, 1], -2)]:
            assert RatFunc.of(p).to_laurent() == p

    @given(ratfuncs(), ratfuncs(), ratfuncs())
    def test_field_axioms(self, x, y, z):
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x + (-x) == RatFunc.zero()
        if not x.is_zero():
            assert x / x == RatFunc.one()
            assert (y / x) * x == y

    @given(ratfuncs())
    def test_json_round_trip(self, x):
        assert RatFunc.from_json(x.to_json()) == x

    @given(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=20),
           st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(any),
           st.integers(-5, 5), st.integers(-5, 5))
    def test_laurent_shortcut_matches_full_normalisation(self, pc, qc, e, k):
        p, q = LaurentPoly(pc, e), LaurentPoly(qc, k)
        # den == 1 (or v^k) takes the shortcut; den == q takes the gcd path
        for fast, slow in [
            (RatFunc(p), RatFunc(p * q, q)),
            (RatFunc(p, V ** 3), RatFunc(p * q, q * V ** 3)),
            (RatFunc(p) + RatFunc(q), RatFunc(p * q + q * q, q)),
            (RatFunc(p) * RatFunc(q), RatFunc(p * q * q, q)),
            (-RatFunc(p), RatFunc(-p * q, q)),
        ]:
            assert fast == slow
            assert hash(fast) == hash(slow)
            assert fast.to_json() == slow.to_json()
            assert fast.is_laurent() and slow.is_laurent()
            assert [type(c) for c in fast.num.coeffs] == \
                [type(c) for c in slow.num.coeffs]

    def test_fraction_numerator_over_one(self):
        p = LaurentPoly([Fraction(1, 3), 2], -1)
        r = RatFunc(p)
        assert r.num == p and r.is_laurent()
        assert r == RatFunc(p * (V + 1), V + 1)
        assert (r + r).num == p * 2

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc.one() / RatFunc.zero()
        with pytest.raises(ZeroDivisionError):
            RatFunc(LaurentPoly.one(), LaurentPoly.zero())
