import gc
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronmot import wallcross
from kronmot.errors import ExactDivisionError, InsufficientBoundError, NonCoprimeError
from kronmot.exactalg import LaurentPoly, Operand, RatFunc, quantum_integer
from kronmot.wallcross import (
    MotiveTable,
    _denominator,
    euler_form,
    framed_via_quotient,
    hn_extract,
    moduli_motive,
    slope_key,
    sym_form,
    verify_dualities,
)

from pointeval import POINTS, PointSeries

V = LaurentPoly.monomial(1)
VINV = LaurentPoly.monomial(-1)


def step2(p):
    """Nonzero-parity coefficient list, paper table style."""
    return list(p.coeffs[::2])


class TestForms:
    def test_euler_form(self):
        assert euler_form(3, (2, 1), (2, 1)) == -1
        assert euler_form(7, (1, 0), (1, 0)) == 1
        assert euler_form(3, (1, 1), (1, 1)) == -1

    def test_antisymmetrization(self):
        for a in [(1, 0), (2, 3), (1, 1)]:
            for b in [(0, 1), (3, 1)]:
                assert sym_form(3, a, b) == euler_form(3, a, b) - euler_form(3, b, a)
                assert sym_form(3, a, b) == -sym_form(3, b, a)


class TestSlopeOrder:
    def test_examples(self):
        assert slope_key((1, 0)) < slope_key((1, 1))
        assert slope_key((1, 1)) == slope_key((2, 2))
        assert slope_key((1, 2)) < slope_key((0, 1))

    @staticmethod
    def reference(D):
        """The slope order as a key of exact rationals, d=0 maximal."""
        d, e = D
        return (1, Fraction(0)) if d == 0 else (0, Fraction(e, d))

    def test_sorts_rays_as_the_fraction_reference(self):
        rays = [(d, e) for d in range(41) for e in range(41) if gcd(d, e) == 1]
        assert (0, 1) in rays and (1, 0) in rays
        assert sorted(rays, key=slope_key) == sorted(rays, key=self.reference)

    def test_compares_as_the_fraction_reference(self):
        # every pair of a grid with negative, non-primitive and d=0 vectors
        grid = [(d, e) for d in range(-4, 5) for e in range(-4, 5)]
        for a in grid:
            ka, ra = slope_key(a), self.reference(a)
            for b in grid:
                kb, rb = slope_key(b), self.reference(b)
                assert (ka < kb, ka == kb, ka > kb) == (ra < rb, ra == rb, ra > rb), (a, b)


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestACoeff:
    def test_denominator_is_the_binomial_product(self):
        # (q;q)_d (q;q)_e, q = v^-2, multiplied out binomial by binomial:
        # 1 - v^(-2i) has coefficients -1, 0, ..., 0, 1 from v^(-2i) up
        for d in range(9):
            for e in range(9):
                coeffs, lo = [1], 0
                for i in [*range(1, d + 1), *range(1, e + 1)]:
                    coeffs = schoolbook(coeffs, [-1] + [0] * (2 * i - 1) + [1])
                    lo -= 2 * i
                got = _denominator(d, e)
                assert (got.min_exp, got.coeffs) == (lo, tuple(coeffs)), (d, e)


# coefficients of x^D in A(x), v^(-<D,D>) / ((q;q)_d (q;q)_e) with q = v^-2,
# written out at m = 3: (q;q)_1 = 1 - q, (q;q)_2 = 1 - q - q^2 + q^3 and
# (q;q)_3 = 1 - q - q^2 + q^4 + q^5 - q^6
A_10 = RatFunc(LaurentPoly.monomial(-1), LaurentPoly([-1, 0, 1], -2))
A_02 = RatFunc(LaurentPoly.monomial(-4), LaurentPoly([1, 0, -1, 0, -1, 0, 1], -6))
A_30 = RatFunc(LaurentPoly.monomial(-9),
               LaurentPoly([-1, 0, 1, 0, 1, 0, 0, 0, -1, 0, -1, 0, 1], -12))


class TestHNExtract:
    def test_lowest_coefficients(self):
        table = hn_extract(3, 5)
        assert A_10 == RatFunc.one() / RatFunc.of(V - VINV)
        assert table.a((1, 0)) == A_10
        assert table.a((0, 2)) == A_02
        assert table.a((0, 0)) == RatFunc.one()

    def test_single_ray_vectors_equal_a_coeff(self):
        # no two-part strictly-ascending decomposition exists on a pure ray,
        # so a_D there is the coefficient of x^D in A(x)
        table = hn_extract(3, 4)
        assert table.a((3, 0)) == A_30
        assert table.a((0, 3)) == A_30

    def test_against_paper_tables(self):
        table = hn_extract(3, 5)
        m21 = (table.a((2, 1)) * RatFunc.of(V - VINV)).to_laurent()
        assert step2(m21) == [1, 1, 1]
        m32 = (table.a((3, 2)) * RatFunc.of(V - VINV)).to_laurent()
        assert step2(m32) == [1, 1, 3, 3, 3, 1, 1]


KRONECKER_M3_TABLES = {
    (1, 0): [1],
    (1, 1): [1, 1, 1],
    (2, 1): [1, 1, 1],
    (3, 2): [1, 1, 3, 3, 3, 1, 1],
    (4, 3): [1, 1, 3, 5, 8, 10, 12, 10, 8, 5, 3, 1, 1],
    (5, 4): [1, 1, 3, 5, 10, 14, 23, 30, 41, 46, 51, 46, 41, 30, 23, 14, 10,
             5, 3, 1, 1],
}


class TestModuliMotive:
    @pytest.mark.parametrize("D,expected", sorted(KRONECKER_M3_TABLES.items()))
    def test_paper_tables(self, D, expected):
        motive = moduli_motive(3, *D)
        assert step2(motive) == expected
        assert motive.is_palindromic()

    def test_exponent_span(self):
        motive = moduli_motive(3, 4, 3)
        dim = 1 - euler_form(3, (4, 3), (4, 3))
        assert (motive.min_exp, motive.max_exp) == (-dim, dim)

    def test_non_coprime_rejected(self):
        with pytest.raises(NonCoprimeError):
            moduli_motive(3, 2, 2)

    def test_empty_moduli_space_is_zero(self):
        # (2,0) is non-coprime; (3,1) at m=3 has no semistables beyond...
        assert moduli_motive(3, 5, 1).is_zero()

    def test_structural_invariants_sweep(self):
        table = hn_extract(3, 8)
        for d in range(9):
            for e in range(9 - d):
                if (d, e) == (0, 0) or gcd(d, e) != 1:
                    continue
                p = table.motive((d, e))
                if p.is_zero():
                    continue
                dim = 1 - euler_form(3, (d, e), (d, e))
                assert p.is_palindromic()
                assert (p.min_exp, p.max_exp) == (-dim, dim)
                assert all(isinstance(c, int) and c >= 0 for c in p.coeffs[::2])
                assert all(c == 0 for c in p.coeffs[1::2])


class TestBoxSweep:
    """moduli_motive sweeps only the box [0..d] x [0..e] below (d,e)."""

    @pytest.mark.parametrize("m", range(1, 6))
    def test_box_equals_triangle(self, m):
        # the uncached function, so every pair really runs its box sweep
        box_motive = moduli_motive.__wrapped__
        for bound in range(1, 13):
            table = MotiveTable(m, bound)
            for d in range(bound + 1):
                e = bound - d
                if gcd(d, e) == 1:
                    assert box_motive(m, d, e) == table.motive((d, e)), (m, d, e)

    def test_repeat_served_from_cache(self):
        first = moduli_motive(4, 5, 3)
        before = moduli_motive.cache_info()
        assert moduli_motive(4, 5, 3) is first
        after = moduli_motive.cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            moduli_motive(3, -1, 2)
        table = hn_extract(3, 4)
        with pytest.raises(ValueError):
            table.motive((2, -1))
        with pytest.raises(ValueError):
            table.a((2, -1))
        with pytest.raises(ValueError):
            MotiveTable.covering(3, [(1, 1), (2, -1)])


TRIANGLE = 10


@lru_cache(maxsize=None)
def triangle_table(m):
    return MotiveTable(m, TRIANGLE)


class TestCovering:
    """MotiveTable.covering sweeps the down-closure of the vectors it is given."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 5),
           vectors=st.lists(st.tuples(st.integers(0, TRIANGLE), st.integers(0, TRIANGLE))
                            .filter(lambda D: sum(D) <= TRIANGLE), max_size=4))
    def test_covering_equals_triangle(self, m, vectors):
        table = MotiveTable.covering(m, vectors)
        triangle = triangle_table(m)
        # one diagonal past the triangle, where nothing is swept
        for d in range(TRIANGLE + 2):
            for e in range(TRIANGLE + 2 - d):
                D = (d, e)
                coprime = gcd(d, e) == 1
                if D == (0, 0) or any(d <= a and e <= b for a, b in vectors):
                    assert table.a(D) == triangle.a(D), (m, D)
                    if coprime:
                        assert table.motive(D) == triangle.motive(D), (m, D)
                    continue
                with pytest.raises(InsufficientBoundError):
                    table.a(D)
                if coprime:
                    with pytest.raises(InsufficientBoundError):
                        table.motive(D)

    def test_invalid_input_rejected_before_sweeping(self, monkeypatch):
        def no_sweep(m, vectors):
            raise AssertionError("swept")

        monkeypatch.setattr(wallcross, "_sweep", no_sweep)
        with pytest.raises(NonCoprimeError):
            moduli_motive(3, 400, 600)
        with pytest.raises(ValueError):
            moduli_motive(3, -1, 400)
        with pytest.raises(ValueError):
            moduli_motive(0, 400, 601)


@lru_cache(maxsize=None)
def _qbinom(n, k):
    """[n choose k] in q = v^(-2) as (q;q)_n / ((q;q)_k (q;q)_(n-k)), a
    formula independent of the Pascal rows the sweep builds."""
    return _denominator(n, 0).divexact(_denominator(k, n - k))


def per_term_sweep(m, vectors):
    """The sweep as it was before the packed sums: one Laurent product per term.

    Kept as an independent reference for ``wallcross._sweep``: every
    correction term a_k * P[D-kD0] * [d, kd0]_q * [e, ke0]_q * v^twist is
    formed with ``LaurentPoly.__mul__`` and the terms are summed one by one;
    the Gaussian binomials come from ``_qbinom`` above.
    """
    from kronmot.wallcross import DimVector, slope_key

    vectors = sorted(vectors, key=lambda D: (D.d + D.e, D.d))
    present = set(vectors)
    P = {D: LaurentPoly.monomial(-euler_form(m, D, D)) for D in vectors}
    anum = {DimVector(0, 0): LaurentPoly.one()}
    rays = sorted((D for D in vectors if D != (0, 0) and gcd(D.d, D.e) == 1),
                  key=slope_key)
    for D0 in rays:
        d0, e0 = D0
        ray = [None]
        kd = D0
        while kd in present:
            ray.append(P[kd])
            anum[kd] = P[kd]
            kd = DimVector(kd.d + d0, kd.e + e0)
        for D in vectors:
            d, e = D
            if d < d0 or e < e0:
                continue
            terms = []
            for k in range(1, min(d // d0 if d0 else e, e // e0 if e0 else d) + 1):
                an = ray[k]
                if an.is_zero():
                    continue
                D2 = DimVector(d - k * d0, e - k * e0)
                p2 = P[D2]
                if p2.is_zero():
                    continue
                rescale = _qbinom(d, k * d0) * _qbinom(e, k * e0)
                twist = sym_form(m, (k * d0, k * e0), D2)
                terms.append((an * p2 * rescale).v_shift(twist))
            if terms:
                P[D] = P[D] - sum(terms[1:], terms[0])
    for D in vectors:
        if D != (0, 0) and not P[D].is_zero():
            raise AssertionError(f"wall-crossing sweep left residue at {D}")
    return anum


def down_closure(vectors):
    """(0,0) and every D' <= D for D in ``vectors``, by enumeration, sorted."""
    from kronmot.wallcross import DimVector

    return sorted({DimVector(a, b) for d, e in [(0, 0), *vectors]
                   for a in range(d + 1) for b in range(e + 1)})


ORACLE_BOUND = 12


def swept(m, emax):
    """``wallcross._sweep`` over the staircase ``emax``, each numerator read
    off the operand the sweep keeps."""
    return {D: op.poly for D, op in wallcross._sweep(m, emax).items()}


class TestSweepOracle:
    """The packed-sum sweep against the per-term reference.

    The reference runs once per m on the triangle d+e <= 12, which holds
    every vector below; a_D does not depend on the down-closed set swept
    (module docstring of ``wallcross``, and ``TestCovering``), so each box
    and triangle inside it is compared vector by vector against that run.
    """

    @pytest.mark.parametrize("m", range(1, 6))
    def test_matches_per_term_sweep(self, m):
        triangle = [(d, ORACLE_BOUND - d) for d in range(ORACLE_BOUND + 1)]
        want = per_term_sweep(m, down_closure(triangle))
        # the staircase MotiveTable(m, bound) sweeps
        assert swept(m, range(ORACLE_BOUND, -1, -1)) == want
        sets = [[(d, e)] for d in range(ORACLE_BOUND + 1)
                for e in range(ORACLE_BOUND + 1 - d)]
        sets += [[(d, b - d) for d in range(b + 1)] for b in range(ORACLE_BOUND + 1)]
        for vectors in sets:
            closure = down_closure(vectors)
            got = swept(m, wallcross._staircase(vectors))
            assert sorted(got) == closure
            for D in closure:
                assert got[D] == want[D], (m, vectors, D)

    # 2-3 vectors with d+e <= 10, at least one on an axis: the down-closure
    # is a staircase with arms along the axes, where the rays (1,0) and
    # (0,1) take the trivial q-binomial [n choose 0]
    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 5),
           axis=st.integers(1, 10).flatmap(
               lambda n: st.sampled_from([(n, 0), (0, n)])),
           others=st.lists(st.integers(0, 10).flatmap(
               lambda s: st.integers(0, s).map(lambda d: (d, s - d))),
               min_size=1, max_size=2))
    def test_staircases_match_per_term_sweep(self, m, axis, others):
        closure = down_closure([axis] + others)
        got = swept(m, wallcross._staircase([axis] + others))
        assert got == per_term_sweep(m, closure)
        assert sorted(got) == closure

    def test_sweep_retains_nothing(self):
        # the q-binomials a sweep needs live as long as the sweep, so a
        # dropped table leaves no memory behind
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            table = MotiveTable(3, 16)
            del table
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert retained < 4096

    def test_wide_slots_match_per_term_sweep(self):
        # some sums of this box need 8 byte slots; the sets with d+e <= 12
        # and m <= 5 above need at most 4
        got = swept(8, wallcross._staircase([(10, 11)]))
        assert got == per_term_sweep(8, down_closure([(10, 11)]))


class TestTableKeepsOperands:
    """The table keeps the operands the sweep returned, and its readers run
    on them without wrapping anything again."""

    @pytest.fixture
    def wraps(self, monkeypatch):
        """The polynomials ``Operand(...)`` wraps while the test runs."""
        made = []
        init = Operand.__init__

        def counting(op, poly):
            made.append(poly)
            init(op, poly)

        monkeypatch.setattr(Operand, "__init__", counting)
        return made

    def test_entries_build_their_polynomial_only_when_read(self):
        table = MotiveTable.covering(3, [(7, 9)])
        table.motive((7, 9))
        table.a((2, 3))
        built = {D for D, op in table._anum.items() if op._poly is not None}
        assert built - {(7, 9)} == {(2, 3)}

    @pytest.mark.parametrize("ray,order", [((1, 1), 12), ((1, 2), 5), ((2, 1), 4),
                                           ((1, 3), 5), ((0, 1), 3)])
    def test_readers_wrap_nothing_but_the_binomial_rows(self, wraps, ray, order):
        table = MotiveTable.covering(4, [(order * ray[0], order * ray[1])])
        wraps.clear()
        rows = wallcross._qbinom_rows(order * max(ray))
        assert wraps == []
        table.framed_series(ray, order)
        # rows n*d0 and n*e0 for n = 1..order, each wrapped once: on the
        # central ray they are one row
        read = {n * x for n in range(1, order + 1) for x in ray}
        assert Counter(wraps) == Counter(c for i in read for c in rows[i])
        wraps.clear()
        table.cleared_series(ray, order)
        table.motive(ray)
        assert wraps == []


class TestSmallQuivers:
    """Cases known in closed form, written down by hand."""

    @staticmethod
    def coprime_pairs(bound):
        return [(d, e) for d in range(bound + 1) for e in range(bound + 1 - d)
                if (d, e) != (0, 0) and gcd(d, e) == 1]

    def test_one_arrow(self):
        # the A2 quiver: the stable representations are the two simples and
        # the one of dimension (1,1); each has a point as moduli space
        table = hn_extract(1, 12)
        for D in self.coprime_pairs(12):
            expected = (LaurentPoly.one() if D in ((0, 1), (1, 0), (1, 1))
                        else LaurentPoly.zero())
            assert table.motive(D) == expected, D

    def test_two_arrows(self):
        # the Kronecker quiver: preprojective and preinjective dimension
        # vectors (|d-e| = 1) have a point as moduli space, (1,1) has P^1
        table = hn_extract(2, 12)
        for d, e in self.coprime_pairs(12):
            if (d, e) == (1, 1):
                expected = V + VINV
            elif abs(d - e) == 1:
                expected = LaurentPoly.one()
            else:
                expected = LaurentPoly.zero()
            assert table.motive((d, e)) == expected, (d, e)


class TestRaySeries:
    def test_constant_term(self):
        table = hn_extract(3, 8)
        A = table.ray_series((1, 1), 4)
        assert A.coeffs[0] == RatFunc.one()
        # a record: the a_D have real denominators
        assert all(type(c) is RatFunc for c in A.coeffs) and not A.coeffs[1].is_laurent()

    def test_first_coefficient_on_axis(self):
        table = hn_extract(3, 4)
        assert table.ray_series((1, 0), 4).coeffs[1] == A_10

    def test_slope_reflection_identity(self):
        # A^(1) = A^(2) at m=3
        table = hn_extract(3, 12)
        assert table.ray_series((1, 1), 4) == table.ray_series((1, 2), 4)

    @pytest.mark.parametrize("ray", [(1, 1), (1, 2), (2, 1), (0, 1), (1, 0)])
    def test_cleared_series_over_its_denominator(self, ray):
        d0, e0 = ray
        table = MotiveTable.covering(4, [(5 * d0, 5 * e0)])
        for order in range(6):
            B, C = table.cleared_series(ray, order)
            assert B.is_integral()
            assert [RatFunc(b, C) for b in B.coeffs] == list(
                table.ray_series(ray, order).coeffs), order

    def test_bound_checked(self):
        table = hn_extract(3, 4)
        with pytest.raises(InsufficientBoundError):
            table.ray_series((1, 1), 3)
        with pytest.raises(InsufficientBoundError):
            table.cleared_series((1, 1), 3)
        with pytest.raises(NonCoprimeError):
            table.cleared_series((2, 2), 1)
        with pytest.raises(NonCoprimeError):
            table.ray_series((2, 2), 1)


class TestFramedQuotient:
    def test_framed_tables(self):
        # an integral series: its coefficients are LaurentPolys
        F = framed_via_quotient(3, (1, 1), 2)
        assert F.is_integral()
        assert F.coeffs[0] == LaurentPoly.one()
        assert step2(F.coeffs[1]) == [1, 1, 1]
        assert step2(F.coeffs[2]) == [1, 2, 3, 3, 3, 2, 1]

    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("ray", [(1, 1), (1, 2), (2, 1), (2, 3), (0, 1), (1, 0)])
    def test_integer_recurrence_matches_series_quotient(self, m, ray):
        # reference: A(v^e0 t) * A(v^-e0 t)^(-1) at each reference point, each
        # a_D evaluated as num(r) / den(r); a truncated quotient is the
        # quotient of the truncations
        d0, e0 = ray
        table = MotiveTable.covering(m, [(5 * d0, 5 * e0)])
        A = table.ray_series(ray, 5)
        for r in POINTS:
            a = PointSeries.of(A, r)
            reference = a.scale_arg(e0) * a.scale_arg(-e0).inverse()
            for order in range(6):
                F = table.framed_series(ray, order)
                assert F.order == order
                assert PointSeries.of(F, r).values == reference.values[: order + 1], order
                assert F.is_integral()
                assert all(type(c) is LaurentPoly for c in F.coeffs)

    def test_non_primitive_ray_rejected(self):
        with pytest.raises(NonCoprimeError):
            MotiveTable.covering(3, [(4, 4)]).framed_series((2, 2), 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_remainder_raises(self, n):
        # adding 1 to num_n adds v^n - v^-n = v^n (1 - q^n) to c_n F_n, which
        # (1 - q)^2 does not divide, while c_n = (q;q)_n^2 has that factor
        table = MotiveTable.covering(3, [(3, 3)])
        table._anum[(n, n)] = Operand(table._anum[(n, n)].poly + LaurentPoly.one())
        with pytest.raises(ExactDivisionError, match=f"n={n}$"):
            table.framed_series((1, 1), 3)


class TestDualities:
    def test_all_pass_small(self):
        report = verify_dualities(3, 5)
        assert report
        assert all(r["status"] == "pass" for r in report)

    def test_point_case_present(self):
        report = verify_dualities(3, 2)
        swaps = {tuple(r["pair"]) for r in report if r["identity"] == "swap"}
        assert (1, 0) in swaps


def test_quantum_affine_relation():
    # x^D x^D' = v^{D,D'} x^(D+D'): the twist used in the sweep is the
    # antisymmetrized form, checked here for the two generators
    assert sym_form(3, (1, 0), (0, 1)) == -3
    assert sym_form(3, (0, 1), (1, 0)) == 3
