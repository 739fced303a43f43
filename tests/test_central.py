import pytest
from hypothesis import given, strategies as st

from kronmot import central, exactalg, qseries, wallcross
from kronmot.central import (
    _framed_motives,
    _functional_rhs,
    extract_G,
    framed_recursion,
    g_series,
    solve_functional_eq,
    verify_corident,
    verify_eqnew,
    verify_funceq,
    verify_main_theorem,
    verify_newduality,
    verify_vdifference,
)
from kronmot.errors import (ExactDivisionError, InsufficientBoundError, NoConvergenceError,
                            NonPolynomialError, NonZeroConstantError)
from kronmot.eulerchar import chi_framed_closed, chi_from_motive
from kronmot.exactalg import LaurentPoly, RatFunc, quantum_integer
from kronmot.exactalg import quantum_ratio as _quantum_ratio
from kronmot.qseries import TruncSeries, delta_invert
from kronmot.wallcross import MotiveTable, framed_via_quotient

from cli_runner import invoke as run
from pointeval import P, POINTS, PointSeries, at, qint


def step2(p):
    return list(p.coeffs[::2])


FRAMED_M3_TABLES = [
    [1],
    [1, 1, 1],
    [1, 2, 3, 3, 3, 2, 1],
    [1, 2, 5, 8, 11, 12, 13, 12, 11, 8, 5, 2, 1],
    [1, 2, 5, 10, 18, 28, 40, 50, 58, 62, 64, 62, 58, 50, 40, 28, 18, 10, 5,
     2, 1],
]


class TestFramedRecursion:
    def test_paper_tables(self):
        F = framed_recursion(3, 4)
        for d, expected in enumerate(FRAMED_M3_TABLES):
            assert step2(F.coeffs[d].to_laurent()) == expected

    def test_coefficients_are_laurent(self):
        # each solver returns a RatFunc record of Laurent-valued coefficients
        for F in (framed_recursion(4, 5), solve_functional_eq(4, 5),
                  framed_via_quotient(4, (1, 1), 5)):
            assert not F.is_integral()
            assert all(type(c) is RatFunc and c.is_laurent() for c in F.coeffs)

    def test_record_has_no_products_inverse_or_delta_invert(self):
        F = framed_recursion(3, 4)
        for op in (lambda: F * framed_recursion(3, 4), F.inverse,
                   lambda: delta_invert(F - 1)):
            with pytest.raises(TypeError):
                op()

    def test_record_has_no_delta_or_nabla(self):
        # delta and nabla act on integral series only, as products do
        F = framed_recursion(3, 4)
        for op in (F.delta, lambda: F.nabla(2)):
            with pytest.raises(TypeError):
                op()

    def test_exponent_span(self):
        # framed dimension (m-2)d^2 + d
        for m in (3, 4, 5):
            F = framed_recursion(m, 4)
            for d in range(1, 5):
                p = F.coeffs[d].to_laurent()
                dim = (m - 2) * d * d + d
                assert (p.min_exp, p.max_exp) == (-dim, dim)
                assert p.is_palindromic()

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            framed_recursion(2, 3)


def _compositions(total, parts):
    """All ordered tuples of `parts` nonnegative integers summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def brute_force_motives(m, order):
    """The coefficient recursion summed over every composition of d-1."""
    motives = [LaurentPoly.one()]
    for d in range(1, order + 1):
        total = LaurentPoly.zero()
        for comp in _compositions(d - 1, m - 1):
            prod = LaurentPoly.one()
            for di in comp:
                prod = prod * motives[di]
            weight = sum((m - 2 * i) * di for i, di in enumerate(comp, start=1))
            total = total + prod.v_shift(weight)
        num = total * quantum_integer((m - 1) * d + 1)
        motives.append(num.divexact(quantum_integer(d)))
    return motives


class TestIndependentOracles:
    @pytest.mark.parametrize("m,order", [(3, 12), (5, 10), (8, 6), (10, 5)])
    def test_recursion_matches_composition_sum(self, m, order):
        F = framed_recursion(m, order)
        assert [c.to_laurent() for c in F.coeffs] == brute_force_motives(m, order)

    # m = 3 builds H from one copy of F, with no doubling node
    @pytest.mark.parametrize("m,order", [(3, 10), (4, 8), (6, 5)] + [
        (m, 8) for m in range(3, 13) if m != 4] + [(3, 24), (12, 12)])
    def test_functional_equation_matches_recursion(self, m, order):
        assert solve_functional_eq(m, order) == framed_recursion(m, order)

    def test_euler_characteristics_match_closed_form(self):
        for m in range(3, 13):
            F = framed_recursion(m, 8)
            for d in range(9):
                chi = chi_from_motive(F.coeffs[d].to_laurent())
                assert chi == chi_framed_closed(m, d), (m, d)


def product_coeff(a, b, n):
    """The t^n coefficient of a * b, for series given as coefficient lists."""
    total = a[n] * b[0]
    for j in range(1, n + 1):
        total = total + a[n - j] * b[j]
    return total


def per_product_framed(m, order):
    """The recursion with one LaurentPoly product per term (``product_coeff``)
    and the prefactor as a product by [(m-1)d+1]_v and a division by [d]_v."""
    motives = [LaurentPoly.one()]
    # scaled[k][j] is the t^j coefficient of F(v^(m-2k-2) t); partial[k] holds
    # the coefficients of prod_{i=1}^{k+1} F(v^(m-2i) t) computed so far
    scaled = [[] for _ in range(m - 1)]
    partial = [[] for _ in range(m - 1)]
    for d in range(1, order + 1):
        n = d - 1
        for k in range(m - 1):
            scaled[k].append(motives[n].v_shift((m - 2 * k - 2) * n))
        partial[0].append(scaled[0][n])
        for k in range(1, m - 1):
            partial[k].append(product_coeff(partial[k - 1], scaled[k], n))
        num = partial[-1][n] * quantum_integer((m - 1) * d + 1)
        motives.append(num.divexact(quantum_integer(d)))
    return tuple(motives)


# the largest order per m in the framed-recursion benchmark pool
POOL_ORDERS = {3: 22, 4: 18, 5: 13, 6: 10, 7: 8, 8: 7, 9: 7, 10: 6}


class TestPackedRecursion:
    @pytest.mark.parametrize("m", sorted(POOL_ORDERS))
    def test_matches_per_product_recursion(self, m):
        reference = per_product_framed(m, POOL_ORDERS[m])
        for order in range(POOL_ORDERS[m] + 1):
            assert _framed_motives(m, order) == reference[:order + 1], order

    def test_matches_on_wide_slots(self, monkeypatch):
        widths = []
        slot = exactalg._slot

        def recording_slot(w):
            widths.append(w)
            return slot(w)

        monkeypatch.setattr(exactalg, "_slot", recording_slot)
        # the uncached solver, so the sums run under the wrapped _slot
        got = _framed_motives.__wrapped__(30, 10)
        monkeypatch.undo()
        assert max(widths) > 8  # the arbitrary-precision byte path
        assert got == per_product_framed(30, 10)

    # coefficients of 77 to 92 bits, so the later packed sums take the
    # arbitrary-precision byte path
    @pytest.mark.parametrize("m,order", [(40, 8), (30, 10), (3, 30)])
    def test_matches_point_evaluation_on_wide_slots(self, m, order):
        motives = _framed_motives(m, order)
        assert max(abs(c) for p in motives for c in p.coeffs).bit_length() > 64
        for r in POINTS:
            assert [at(p, r) for p in motives] == framed_at_point(m, order, r), r


def framed_at_point(m, order, r):
    """m_0..m_order at v = r over F_P: m_d = [(m-1)d+1]_r / [d]_r * c_(d-1),
    with c_(d-1) the t^(d-1) coefficient of prod_{i=1}^{m-1} F(v^(m-2i) t)."""
    values = [1]
    for d in range(1, order + 1):
        F = PointSeries(values, r)
        product = PointSeries([1] + [0] * (d - 1), r)
        for i in range(1, m):
            product = product * F.scale_arg(m - 2 * i)
        values.append(qint((m - 1) * d + 1, r) * pow(qint(d, r), -1, P)
                      * product.values[d - 1] % P)
    return values


@st.composite
def prefactor_cases(draw):
    """(p, a, d): an integer LaurentPoly p, times [k]_v so that p * [a]_v is
    sometimes divisible by [d]_v without p being so, and 1 <= a, d <= 40.
    Half the time p vanishes at every odd offset, as every motive does."""
    coeffs = draw(st.lists(st.integers(-50, 50), max_size=12))
    if draw(st.booleans()):
        coeffs = [c for x in coeffs for c in (x, 0)]
    r = LaurentPoly(coeffs, draw(st.integers(-30, 30)))
    p = r * quantum_integer(draw(st.integers(1, 40)))
    return p, draw(st.integers(1, 40)), draw(st.integers(1, 40))


def _outcome(f):
    try:
        return f()
    except NonPolynomialError:
        return NonPolynomialError


class TestQuantumRatio:
    @given(prefactor_cases())
    def test_matches_product_then_division(self, case):
        p, a, d = case
        want = _outcome(lambda: (p * quantum_integer(a)).divexact(quantum_integer(d)))
        assert _outcome(lambda: _quantum_ratio(p, a, d)) == want

    def test_both_outcomes(self):
        # [6]_v = [2]_v (v^4 + 1 + v^-4)
        p = LaurentPoly([1, 0, 0, 0, 1, 0, 0, 0, 1], -4)
        assert _quantum_ratio(p, 2, 6) == LaurentPoly.one()
        with pytest.raises(NonPolynomialError):
            _quantum_ratio(LaurentPoly.one(), 4, 3)


class TestFunctionalEquation:
    def test_order_zero(self):
        assert solve_functional_eq(3, 0) == TruncSeries([1], 0)

    def test_order_one(self):
        F = solve_functional_eq(3, 1)
        assert F.coeffs[1] == RatFunc.of(quantum_integer(3))

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_matches_recursion(self, m):
        assert solve_functional_eq(m, 4) == framed_recursion(m, 4)


def rhs_by_definition(m, F, r):
    """prod_{i=1}^m (1 - v^(2i-m-1) t prod_{j=1}^{m-2} F(v^(2i-2j-2) t))^(-1),
    term by term as written, at v = r."""
    F = PointSeries.of(F, r)
    one = PointSeries([1] + [0] * (len(F.values) - 1), r)
    result = one
    for i in range(1, m + 1):
        inner = one
        for j in range(1, m - 1):
            inner = inner * F.scale_arg(2 * i - 2 * j - 2)
        factor = one - inner.shift_t(LaurentPoly.monomial(2 * i - m - 1))
        result = result * factor.inverse()
    return result


def integral(F):
    return TruncSeries([c.to_laurent() for c in F.coeffs], F.order)


class TestFunctionalRhs:
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_matches_the_equation_over_ratfunc(self, m):
        for order in range(7):
            F = integral(framed_recursion(m, order))
            # an F off the solution as well, so both sides do real work
            G = TruncSeries(
                [c + LaurentPoly([d, 0, -1], d) for d, c in enumerate(F.coeffs)],
                order)
            for series in (F, G):
                got = _functional_rhs(m, series)
                assert got.is_integral()
                for r in POINTS:
                    assert PointSeries.of(got, r) == rhs_by_definition(m, series, r), \
                        (m, order, r)
            assert _functional_rhs(m, F) == F

    @pytest.mark.parametrize("d", range(6))
    def test_report_catches_a_wrong_coefficient(self, monkeypatch, d):
        recursion = central.framed_recursion

        def perturbed(m, order):
            coeffs = list(recursion(m, order).coeffs)
            coeffs[d] = coeffs[d] + LaurentPoly.monomial(2 * d)
            return TruncSeries(coeffs, order)

        monkeypatch.setattr(central, "framed_recursion", perturbed)
        for m in (3, 5):
            (report,) = verify_funceq(m, 5)
            assert report["status"] == "fail"
            # the t^d coefficient of the right-hand side reads F below d only
            assert report["first_failure_degree"] == d


def _doubling_products(r):
    """Products (``qseries._op_product``) of a doubling with r factors."""
    return r.bit_length() + bin(r).count("1") - 2


@pytest.mark.parametrize("m", range(3, 9))
def test_functional_check_inverts_once_and_multiplies_by_doubling(monkeypatch, m):
    calls = {"inverse": 0, "mul": 0}
    inverse, product = TruncSeries.inverse, qseries._op_product

    def counting_inverse(self):
        calls["inverse"] += 1
        return inverse(self)

    def counting_mul(a, b, c=0):
        calls["mul"] += 1
        return product(a, b, c)

    monkeypatch.setattr(TruncSeries, "inverse", counting_inverse)
    monkeypatch.setattr(qseries, "_op_product", counting_mul)
    solve_functional_eq(m, 6)
    assert calls == {"inverse": 1,
                     "mul": _doubling_products(m - 2) + _doubling_products(m)}


class TestSolveFailsLoudly:
    def test_wrong_online_coefficient_fails_the_check(self, monkeypatch):
        # the check forms its products offline, so a fault in the online
        # product cannot cancel out of it
        push = qseries.OnlineRescaledProduct.push

        def wrong_at_degree_2(self, x):
            out = push(self, x)
            if len(self._base) == 3:
                return exactalg.Operand(out.poly + LaurentPoly.one())
            return out

        monkeypatch.setattr(qseries.OnlineRescaledProduct, "push", wrong_at_degree_2)
        with pytest.raises(NoConvergenceError, match="m=4, degree 3$"):
            solve_functional_eq(4, 5)
        res = run("--no-cache", "framed", "--m", "4", "--d", "5", "--method", "funceq")
        assert (res.exit_code, res.stdout) == (3, "")
        assert res.stderr == "functional-equation check failed at m=4, degree 3\n"

    def test_remainder_in_the_division_raises(self, monkeypatch):
        divexact = central.qpoch_divexact

        def with_remainder_at_degree_3(p, exps):
            if tuple(exps) == (3,):
                p = p + LaurentPoly.monomial(p.max_exp + 2)
            return divexact(p, exps)

        monkeypatch.setattr(central, "qpoch_divexact", with_remainder_at_degree_3)
        with pytest.raises(ExactDivisionError, match="m=4, n=3$"):
            solve_functional_eq(4, 5)

    @pytest.mark.parametrize("m", [3, 4, 7])
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_wrong_coefficient_in_the_checks_h_fails_the_check(self, monkeypatch, m, k):
        # H_k enters E = 1 - v^(1-m) t H at t^(k+1), and so the right-hand side
        rescaled = central.op_rescaled_product

        def wrong_h(x, p, r):
            out = list(rescaled(x, p, r))
            if p == -2:  # H; D doubles with p = 2
                out[k] = exactalg.Operand(out[k].poly + LaurentPoly.one())
            return out

        monkeypatch.setattr(central, "op_rescaled_product", wrong_h)
        with pytest.raises(NoConvergenceError, match=f"m={m}, degree {k + 1}$"):
            solve_functional_eq(m, 5)


class TestExtractG:
    def test_paper_tables(self):
        G = extract_G(3, framed_recursion(3, 5))
        assert G.coeffs[1] == 1
        assert step2(G.coeffs[2]) == [1, 1, 1]
        assert step2(G.coeffs[5]) == [
            1, 1, 3, 5, 10, 14, 23, 30, 41, 46, 51, 46, 41, 30, 23, 14, 10,
            5, 3, 1, 1,
        ]

    def test_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            extract_G(3, TruncSeries([2, 1], 1))

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_matches_wallcross_motives(self, m):
        # g_d = [K_{d,d-1}], read off an independent wall-crossing sweep
        for n in range(7):
            G = extract_G(m, framed_recursion(m, n))
            table = MotiveTable.covering(m, [(n, max(n - 1, 0))])
            assert G.is_integral()
            assert G == g_series(table, 1, -1, n), (m, n)

    def test_integral_and_rejects_non_laurent_f(self):
        F = framed_recursion(4, 5)
        G = extract_G(4, F)
        assert G.is_integral() and G == extract_G(4, central._integral(F))
        v = LaurentPoly.monomial(1)
        # 1 / 2 is no integer Laurent polynomial either
        for bad in (RatFunc(v, v + 2), RatFunc(LaurentPoly.one(), LaurentPoly([2]))):
            with pytest.raises(NonPolynomialError):
                extract_G(3, TruncSeries([1, bad], 1))

    def test_pair_relation(self):
        # m_d = [(m-1)d+1]_v * g_d
        for m in (3, 4):
            F = framed_recursion(m, 4)
            G = extract_G(m, F)
            for d in range(5):
                expected = G.coeffs[d] * RatFunc.of(
                    quantum_integer((m - 1) * d + 1)
                )
                assert F.coeffs[d] == expected


class TestThreeWayAgreement:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_all_methods_agree(self, m):
        a = framed_recursion(m, 4)
        b = solve_functional_eq(m, 4)
        c = framed_via_quotient(m, (1, 1), 4)
        assert a == b == c


def _all_pass(reports):
    assert reports
    for r in reports:
        assert r["status"] == "pass", r
        assert r["first_failure_degree"] is None


class TestIdentities:
    def test_main_theorem(self):
        _all_pass(verify_main_theorem(3, 4))
        _all_pass(verify_main_theorem(4, 3))
        _all_pass(verify_main_theorem(3, 0))

    def test_vdifference(self):
        _all_pass(verify_vdifference(3, 6))
        _all_pass(verify_vdifference(5, 4))
        _all_pass(verify_vdifference(4, 0))

    def test_funceq(self):
        _all_pass(verify_funceq(3, 4))
        _all_pass(verify_funceq(4, 3))

    def test_eqnew(self):
        _all_pass(verify_eqnew(3, 4))
        _all_pass(verify_eqnew(4, 3))

    def test_corident(self):
        _all_pass(verify_corident(3, 1, 4))
        _all_pass(verify_corident(3, 2, 0))
        _all_pass(verify_corident(4, 2, 3))

    @pytest.mark.parametrize("d", range(4))
    def test_corident_quotient_check_catches_a_wrong_coefficient(self, monkeypatch, d):
        framed_series = MotiveTable.framed_series

        def perturbed(table, D0, order):
            coeffs = list(framed_series(table, D0, order).coeffs)
            coeffs[d] = coeffs[d] + 1
            return TruncSeries(coeffs, order)

        monkeypatch.setattr(MotiveTable, "framed_series", perturbed)
        report = {r["identity"]: r for r in verify_corident(4, 2, 3)}
        check = report["corident:F^(k)=A-quotient"]
        assert check["status"] == "fail"
        assert check["first_failure_degree"] == d

    @pytest.mark.parametrize("d,first", [(0, 0), (1, 1), (2, 2), (3, 3)])
    def test_corident_k1_quotient_check_catches_a_wrong_coefficient(
            self, monkeypatch, d, first):
        recursion = central.framed_recursion

        def perturbed(m, order):
            coeffs = list(recursion(m, order).coeffs)
            coeffs[d] = coeffs[d] + LaurentPoly.monomial(2 * d)
            return TruncSeries(coeffs, order)

        monkeypatch.setattr(central, "framed_recursion", perturbed)
        report = {r["identity"]: r for r in verify_corident(3, 1, 4)}
        check = report["corident:F^(k)=A-quotient"]
        assert check["status"] == "fail"
        assert check["first_failure_degree"] == first

    @pytest.mark.parametrize("d,first", [(0, 0), (1, 1), (2, 2), (3, 3)])
    def test_corident_ray_check_catches_a_wrong_coefficient(self, monkeypatch, d, first):
        cleared_series = MotiveTable.cleared_series

        def perturbed(table, D0, order):
            B, C = cleared_series(table, D0, order)
            if D0 != (1, 1):
                return B, C
            # B / C is A^(1), so this adds 1 to its t^d coefficient
            coeffs = list(B.coeffs)
            coeffs[d] = coeffs[d] + C
            return TruncSeries(coeffs, order), C

        monkeypatch.setattr(MotiveTable, "cleared_series", perturbed)
        report = {r["identity"]: r for r in verify_corident(3, 1, 4)}
        check = report["corident:A^(k)=A^(m-k)"]
        assert check["status"] == "fail"
        assert check["first_failure_degree"] == first

    def test_newduality(self):
        _all_pass(verify_newduality(3, 1, 4))
        _all_pass(verify_newduality(4, 1, 3))
        # the smallest nondegenerate case: both sides single factors
        _all_pass(verify_newduality(2, 1, 2))

    def test_k_range_checked(self):
        with pytest.raises(ValueError):
            verify_corident(3, 3, 2)
        with pytest.raises(ValueError):
            verify_newduality(3, 0, 2)
        # k=None with m = 1 leaves no 1 <= k <= m-1 to check
        with pytest.raises(ValueError):
            verify_corident(1, None, 2)
        with pytest.raises(ValueError):
            verify_newduality(1, None, 2)

    @pytest.mark.parametrize("verifier", [verify_corident, verify_newduality])
    def test_k_none_checks_every_k(self, verifier):
        for m in range(2, 6):
            for order in range(5):
                assert verifier(m, None, order) == [
                    r for k in range(1, m) for r in verifier(m, k, order)]


def newduality_by_definition(m, k, order):
    """The newduality report for one k, both products term by term as
    written, at each reference point, reading the G-series through
    ``central.g_series``."""
    table = MotiveTable.covering(m, [(order, order * k + 1)])
    fails = set()
    for r in POINTS:
        g_minus = PointSeries.of(central.g_series(table, k, -1, order), r)
        g_plus = PointSeries.of(central.g_series(table, k, 1, order), r)
        lhs = rhs = PointSeries([1] + [0] * order, r)
        for i in range(1, m - k + 1):
            lhs = lhs * g_minus.scale_arg((m + 1 - k - 2 * i) * k).nabla(m - k)
        for i in range(1, k + 1):
            rhs = rhs * g_plus.scale_arg((m - k) * (k + 1 - 2 * i)).nabla(k)
        fails.update(d for d in range(order + 1) if lhs.values[d] != rhs.values[d])
    first = min(fails, default=None)
    return {"identity": "newduality", "m": m, "k": k, "order": order,
            "status": "pass" if first is None else "fail",
            "first_failure_degree": first}


@pytest.mark.parametrize("m", range(2, 7))
def test_newduality_matches_the_products_by_definition(monkeypatch, m):
    for order in range(6):
        want = [newduality_by_definition(m, k, order) for k in range(1, m)]
        assert verify_newduality(m, None, order) == want
        assert all(r["status"] == "pass" for r in want)
    # a wrong coefficient of G^(k),- at degree 1 shows on the left only
    read = central.g_series

    def perturbed(table, k, sign, order):
        g = read(table, k, sign, order)
        if sign > 0 or order < 1:
            return g
        coeffs = list(g.coeffs)
        coeffs[1] = coeffs[1] + LaurentPoly.monomial(k)
        return TruncSeries(coeffs, order)

    monkeypatch.setattr(central, "g_series", perturbed)
    for order in range(1, 6):
        want = [newduality_by_definition(m, k, order) for k in range(1, m)]
        assert verify_newduality(m, None, order) == want
        assert all(r["first_failure_degree"] == 1 for r in want)


class TestGSeries:
    def test_g_minus_low_terms(self):
        g = g_series(MotiveTable.covering(3, [(3, 2)]), 1, -1, 3)
        assert g.is_integral()
        assert g.coeffs[0] == LaurentPoly.one()
        assert g.coeffs[1] == LaurentPoly.one()
        assert step2(g.coeffs[2]) == [1, 1, 1]

    def test_g_plus_matches_duality(self):
        # [K_{d,d+1}] = [K_{d+1,d}]
        table = MotiveTable.covering(3, [(3, 4), (4, 3)])
        gp = g_series(table, 1, 1, 3)
        gm = g_series(table, 1, -1, 4)
        assert list(gp.coeffs) == list(gm.coeffs[1:])

    def test_reads_only_the_table(self):
        table = MotiveTable.covering(3, [(2, 3)])
        with pytest.raises(InsufficientBoundError):
            g_series(table, 1, 1, 3)
        with pytest.raises(ValueError):
            g_series(table, 1, 0, 2)


@pytest.mark.parametrize("verifier,args", [
    (verify_main_theorem, (3, 4)),
    (verify_eqnew, (4, 3)),
    (verify_corident, (3, 1, 4)),
    (verify_corident, (4, 2, 3)),
    (verify_newduality, (4, 2, 3)),
    (verify_corident, (3, None, 4)),
    (verify_corident, (5, None, 3)),
    (verify_newduality, (4, None, 3)),
], ids=["maintheorem", "eqnew", "corident-k1", "corident-k2", "newduality",
        "corident-m3-every-k", "corident-m5-every-k", "newduality-every-k"])
def test_each_verifier_sweeps_once(monkeypatch, verifier, args):
    calls = []
    sweep = wallcross._sweep

    def counting(m, vectors):
        calls.append(m)
        return sweep(m, vectors)

    monkeypatch.setattr(wallcross, "_sweep", counting)
    _all_pass(verifier(*args))
    assert len(calls) == 1


def test_no_verifier_reduces_a_ratfunc(monkeypatch):
    def no_gcd(a, b):
        raise AssertionError("a RatFunc was reduced")

    monkeypatch.setattr(exactalg, "_poly_gcd_int", no_gcd)
    for m in (3, 4):
        _all_pass(verify_main_theorem(m, 4))
        _all_pass(verify_vdifference(m, 4))
        _all_pass(verify_funceq(m, 4))
        _all_pass(verify_eqnew(m, 4))
        for k in range(1, m):
            _all_pass(verify_corident(m, k, 4))
            _all_pass(verify_newduality(m, k, 4))
        report = wallcross.verify_dualities(m, 4)
        assert report and all(r["status"] == "pass" for r in report)
