"""Central-slope series: the framed-motive recursion, the algebraic
functional equation, the passage between F(t) and G(t), and verifiers for
the series identities relating them.

F(t) collects the framed motives [K_{d,d}^(m),fr]_vir; G(t) collects the
motives [K_{d,d-1}^(m)]_vir one slope below.

The two solvers for F are independent; each implements its own equation
over integer Laurent polynomials:

- ``framed_recursion``: m_d = [(m-1)d+1]_v / [d]_v times the t^(d-1)
  coefficient of prod_{i=1}^{m-1} F(v^(m-2i) t).  The prefactor takes its
  binomial form (``exactalg.quantum_ratio``, where the package's
  q-Pochhammer and quantum-integer arithmetic lives), one pass over the
  coefficient list.
- ``solve_functional_eq``: one online pass over the telescoped form of
  F * prod_{i=1}^m (1 - v^(2i-m-1) t prod_{j=1}^{m-2} F(v^(2i-2j-2) t)) = 1,
  then a check of F against the untelescoped right-hand side evaluated
  directly.  The check runs over integral series: the product of the m
  factors has constant term 1, so its one inverse needs no division, and F
  is lifted to a ``RatFunc`` record only once it has passed.

Each solver extends one product of rescaled copies of F one coefficient per
degree through ``qseries.OnlineRescaledProduct``, which builds it by
doubling, each coefficient one packed sum of products
(``exactalg.sum_of_products``) over operands wrapped once; both cost
O(log m * order^2) Laurent-polynomial products in O(log m * order) packed
sums.  The check forms its two products of rescaled copies offline, by
doubling over ``exactalg.Operand`` lists (``qseries.op_rescaled_product``):
F is wrapped once, and each of the O(log m) products makes one packed sum
per coefficient with the rescaling on the shifts of its terms; only the
second product is lifted to a series, for its one ``TruncSeries.inverse``.

The identity verifiers compare integral series only.  Each call builds one
wall-crossing table (``MotiveTable.covering``), so one sweep, over the
union of the vectors it reads, and reads every series off it: G^(k),+- by
``g_series``, and the A-series cleared of their denominators by
``MotiveTable.cleared_series``.  With ``k=None``, ``verify_corident`` and
``verify_newduality`` check every 1 <= k <= m-1 off that one table.
``framed_recursion``, ``solve_functional_eq`` and
``MotiveTable.framed_series`` return F as a ``RatFunc`` record, which has
no products (``qseries``); the verifiers and ``extract_G`` convert it once
to an integral series, and G is integral.  The coefficients of F are
Laurent-valued, an integer numerator over the denominator 1, so a
coefficient that is not (a quotient such as 1/2 included) makes the
conversion raise ``NonPolynomialError``.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ExactDivisionError, NoConvergenceError, NonPolynomialError
from .exactalg import (LaurentPoly, Operand, RatFunc, qpoch_divexact, quantum_ratio,
                       sum_of_products)
from .qseries import (OnlineRescaledProduct, TruncSeries, delta_invert,
                      op_rescaled_product, rescaled_product)


def _require_central_m(m: int):
    # the inner product over m-2 factors degenerates below m=3
    if m < 3:
        raise ValueError("central-slope series need m >= 3")


@lru_cache(maxsize=None)
def _framed_motives(m: int, order: int) -> tuple[LaurentPoly, ...]:
    """m_0..m_order; m_d reads c_(d-1) off the online product
    prod_{i=1}^{m-1} F(v^(m-2i) t) (``qseries.OnlineRescaledProduct``)."""
    _require_central_m(m)
    motives = [LaurentPoly.one()]
    ops = [Operand(motives[0])]  # ops[j] wraps motives[j]
    # prod_{i<m-1} F(v^(-2i) t), read at v^(m-2) t
    product = OnlineRescaledProduct(-2, m - 1)
    for d in range(1, order + 1):
        c = product.push(ops[d - 1]).poly.v_shift((m - 2) * (d - 1))
        try:
            motives.append(quantum_ratio(c, (m - 1) * d + 1, d))
        except NonPolynomialError as exc:
            raise ExactDivisionError(
                f"prefactor division failed at m={m}, d={d}"
            ) from exc
        ops.append(Operand(motives[d]))
    return tuple(motives)


def framed_recursion(m: int, order: int) -> TruncSeries:
    """F(t) from the coefficient recursion for m_d = [K_{d,d}^(m),fr]_vir.

    m_0 = 1 and m_d = [(m-1)d+1]_v / [d]_v * c_(d-1), where c_(d-1) is the
    t^(d-1) coefficient of prod_{i=1}^{m-1} F(v^(m-2i) t).  That coefficient
    needs m_0..m_(d-1) only, so the product is extended by one coefficient
    per degree, by doubling (``qseries.OnlineRescaledProduct``):
    floor(log2(m-1)) + popcount(m-1) - 1 packed sums per degree, and
    O(log m * order^2) products of integer Laurent polynomials instead of a
    sum over all C(d+m-3, m-2) compositions of d-1.  The prefactor is
    applied as v^(a-d) (1 - v^(-2a)) / (1 - v^(-2d)), a = (m-1)d+1
    (``exactalg.quantum_ratio``): one list subtraction and one two-term
    division over the coefficients at stride 2, where a product by [a]_v
    and a division by [d]_v would cost O(d) per coefficient.  The motives
    are cached per (m, order).  The series returned is a ``RatFunc`` record.
    """
    return TruncSeries(map(RatFunc, _framed_motives(m, order)), order)


def _functional_rhs(m: int, F: TruncSeries) -> TruncSeries:
    """Right-hand side of the algebraic functional equation, evaluated at F.

    inner_i(t) = prod_{j=1}^{m-2} F(v^(2i-2j-2) t) is H(v^(2i-2) t) for
    H(t) = prod_{j=1}^{m-2} F(v^(-2j) t), so factor i is E(v^(2i-2) t) for
    E = 1 - v^(1-m) t H, and the product of the m inverses is the inverse
    of D = prod_{i=0}^{m-1} E(v^(2i) t).  The side runs over
    ``exactalg.Operand`` lists: F is wrapped once, at v^-2 t; H and D are
    each formed by offline doubling (``qseries.op_rescaled_product``), in
    O(log m) products whose rescalings ride on the shifts of their packed
    sums; E is wrapped once from H; and D, whose constant term is 1, is
    lifted to a series for one ``TruncSeries.inverse``, with no division.
    F must be an integral series, and the result is one.
    """
    H = op_rescaled_product(
        [Operand(c.v_shift(-2 * n)) for n, c in enumerate(F.coeffs)], -2, m - 2)
    E = [Operand(LaurentPoly.one())] + [Operand(-h.poly.v_shift(1 - m)) for h in H[:-1]]
    D = op_rescaled_product(E, 2, m)
    return TruncSeries([op.poly for op in D], F.order).inverse()


def solve_functional_eq(m: int, order: int) -> TruncSeries:
    """F(t) solving F = prod_{i=1}^m (1 - v^(2i-m-1) t inner_i(t))^(-1).

    Here inner_i(t) = prod_{j=1}^{m-2} F(v^(2i-2j-2) t) = H(v^(2i-2) t) with
    H(t) = prod_{j=1}^{m-2} F(v^(-2j) t), so F * D = 1 for
    D = prod_{l=0}^{m-1} E(v^(2l) t), E = 1 - v^(1-m) t H.  As
    D(v^2 t) E(t) = D(t) E(v^(2m) t), that holds iff F_0 = 1 and
    F(v^2 t) E(v^(2m) t) = F(t) E(t), whose t^n coefficient (q = v^-2) is
    F_n (1 - q^n) = sum_{k=1}^n F_(n-k) E_k (v^(-2n) - v^(2(m-1)k)).
    E_n = -v^(1-m) H_(n-1) needs F below degree n only, so one online pass
    over integer Laurent polynomials extends H by one coefficient per degree
    (``qseries.OnlineRescaledProduct``, O(log m * order^2) products) and
    reads F_n off one packed sum of 2n products and one exact division by
    1 - q^n (``exactalg.qpoch_divexact``).  E is never formed: the sign and
    the v-shift of E_k ride on the terms of that sum, beside the pushed
    coefficient of H.  1/D solves the telescoped equation for any E with
    E_0 = 1, so a remainder is an arithmetic fault and raises
    ``ExactDivisionError``.  F is then checked, coefficient by
    coefficient, against the untelescoped right-hand side evaluated directly
    over operand lists (``_functional_rhs``: offline doubling and one
    inverse, sharing only ``exactalg.sum_of_products`` and ``Operand`` with
    the pass).  A mismatch raises
    ``NoConvergenceError`` naming the first failing degree; F is lifted to a
    ``RatFunc`` record once it passes.
    """
    _require_central_m(m)
    F = [Operand(LaurentPoly.one())]
    pushed = [None]  # pushed[k] is the k-th push, k >= 1
    H = OnlineRescaledProduct(-2, m - 2)  # H(t) is this product at v^-2 t
    for n in range(1, order + 1):
        pushed.append(H.push(F[n - 1]))
        # E_k = -v^(1-m) H_(k-1) and H_(k-1) is v^(2-2k) pushed[k], so each
        # term of E_k carries the sign -1 and the shift 3 - m - 2k
        S = sum_of_products(
            [(-sign, shift + 3 - m - 2 * k, (F[n - k], pushed[k]))
             for k in range(1, n + 1)
             for sign, shift in ((1, -2 * n), (-1, 2 * (m - 1) * k))])
        try:
            F.append(Operand(qpoch_divexact(S.poly, (n,))))
        except NonPolynomialError as exc:
            raise ExactDivisionError(
                f"functional-equation division failed at m={m}, n={n}"
            ) from exc
    F = TruncSeries([op.poly for op in F], order)
    rhs = _functional_rhs(m, F)
    if rhs != F:
        raise NoConvergenceError("functional-equation check failed at "
                                 f"m={m}, degree {_first_failure(F, rhs)}")
    return TruncSeries(map(RatFunc, F.coeffs), order)


def _scaled_product(m: int, F: TruncSeries) -> TruncSeries:
    """prod_{i=1}^{m-1} F(v^(m-2i) t), in the coefficient ring of F, by
    doubling (``qseries.rescaled_product``) in O(log m) series products."""
    return rescaled_product(F.scale_arg(m - 2), -2, m - 1)


def extract_G(m: int, F: TruncSeries) -> TruncSeries:
    """G(t) with delta(G) = t * prod_i F(v^(m-2i) t) and G(0)=1, integral.

    F, integral or a record, must have integer Laurent coefficients; any other
    coefficient, or a remainder on division by [d]_v, raises
    ``NonPolynomialError`` or ``TypeError``.
    """
    _require_central_m(m)
    F = _integral(F)
    if F.coeffs[0] != 1:
        raise ValueError("F must have constant term 1")
    return delta_invert(_scaled_product(m, F).shift_t())


# -- series assembled from wall-crossing motives ----------------------------


def g_series(table, k: int, sign: int, order: int) -> TruncSeries:
    """G^(k),+- read off ``table``: coefficient d is [K_{d, k*d+sign}]_vir
    for m = table.m, as an integral series."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return TruncSeries(
        [LaurentPoly.one()]
        + [table.motive((d, k * d + sign)) for d in range(1, order + 1)], order)


def _integral(F: TruncSeries) -> TruncSeries:
    """F as an integral series; F may be a record with Laurent-valued
    coefficients, such as F from ``framed_recursion`` or
    ``MotiveTable.framed_series``."""
    if F.is_integral():
        return F
    return TruncSeries([c.to_laurent() for c in F.coeffs], F.order)


# -- identity verifiers -----------------------------------------------------


def _first_failure(lhs: TruncSeries, rhs: TruncSeries):
    """The least degree where the two series differ, or None."""
    for d in range(min(lhs.order, rhs.order) + 1):
        if lhs.coeffs[d] != rhs.coeffs[d]:
            return d
    return None


def _report(identity: str, m: int, k, order: int, lhs: TruncSeries,
            rhs: TruncSeries) -> dict:
    first_fail = _first_failure(lhs, rhs)
    return {
        "identity": identity,
        "m": m,
        "k": k,
        "order": order,
        "status": "pass" if first_fail is None else "fail",
        "first_failure_degree": first_fail,
    }


def verify_main_theorem(m: int, order: int) -> list[dict]:
    """F = nabla^(m-1) G and delta(G) = t * prod F(v^(m-2i) t).

    F comes from the recursion, G from the wall-crossing motives of
    K_{d,d-1}, so the two identities genuinely cross-check the modules.
    """
    from .wallcross import MotiveTable

    F = _integral(framed_recursion(m, order))
    table = MotiveTable.covering(m, [(order, max(order - 1, 0))])
    G = g_series(table, 1, -1, order)
    return [
        _report("maintheorem:F=nabla^(m-1)G", m, None, order, F, G.nabla(m - 1)),
        _report("maintheorem:deltaG=t*prodF", m, None, order, G.delta(),
                _scaled_product(m, F).shift_t()),
    ]


def verify_vdifference(m: int, order: int) -> list[dict]:
    """delta F = nabla^(m-1)(t * prod_i F(v^(m-2i) t))."""
    F = _integral(framed_recursion(m, order))
    return [
        _report("vdifference", m, None, order, F.delta(),
                _scaled_product(m, F).shift_t().nabla(m - 1)),
    ]


def verify_funceq(m: int, order: int) -> list[dict]:
    """F from the recursion satisfies the algebraic functional equation."""
    F = _integral(framed_recursion(m, order))
    return [_report("funceq", m, None, order, F, _functional_rhs(m, F))]


def verify_eqnew(m: int, order: int) -> list[dict]:
    """G^(1),+ = (G^(1),- - 1)/t, i.e. [K_{d,d+1}] = [K_{d+1,d}]."""
    from .wallcross import MotiveTable

    table = MotiveTable.covering(m, [(order, order + 1), (order + 1, order)])
    gplus = g_series(table, 1, 1, order)
    gminus = g_series(table, 1, -1, order + 1)
    shifted = TruncSeries(gminus.coeffs[1:], order)
    return [_report("eqnew", m, None, order, gplus, shifted)]


def _slopes(m: int, k) -> range:
    """The slopes to check: k itself, or every 1 <= k <= m-1 for ``None``."""
    ks = range(1, m) if k is None else range(k, k + 1)
    if not ks or not 1 <= ks[0] <= ks[-1] <= m - 1:
        raise ValueError("need 1 <= k <= m-1")
    return ks


def verify_corident(m: int, k, order: int) -> list[dict]:
    """The four identities relating A^(k), F^(k) and G^(k),+-.

    ``k=None`` checks every 1 <= k <= m-1, in increasing k, off one table
    covering the vectors of every k.  The A-series are compared cleared of
    their denominators: with A^(k) = B_k / C_k
    (``MotiveTable.cleared_series``), A^(k) = A^(m-k) is checked as
    B_k C_(m-k) = B_(m-k) C_k, and F = A(v^k t) / A(v^-k t) as
    F B_k(v^-k t) = B_k(v^k t).  Both sides are multiplied by nonzero
    constants in t, so every degree passes or fails as it would uncleared.
    """
    ks = _slopes(m, k)
    from .wallcross import MotiveTable

    table = MotiveTable.covering(
        m, [D for k in ks for D in ((order, order * k), (order, order * (m - k) + 1))])
    reports = []
    for k in ks:
        B_k, C_k = table.cleared_series((1, k), order)
        B_mk, C_mk = table.cleared_series((1, m - k), order)
        # independent F^(1) exists via the recursion; other k use the quotient
        if k == 1 and m >= 3:
            F_k = framed_recursion(m, order)
        else:
            F_k = table.framed_series((1, k), order)
        F_k = _integral(F_k)
        g_minus = g_series(table, k, -1, order)
        g_plus_mk = g_series(table, m - k, 1, order)
        reports += [
            _report("corident:A^(k)=A^(m-k)", m, k, order, B_k * C_mk, B_mk * C_k),
            # F = A(v^k t) / A(v^-k t) multiplied out; A has constant term 1,
            # so the first failing degree is that of the quotient itself
            _report("corident:F^(k)=A-quotient", m, k, order,
                    F_k * B_k.scale_arg(-k), B_k.scale_arg(k)),
            _report("corident:G^(k),-=G^(m-k),+", m, k, order, g_minus, g_plus_mk),
            _report("corident:F^(k)=nabla G^(m-k),+", m, k, order, F_k,
                    g_plus_mk.nabla(m - k)),
        ]
    return reports


def verify_newduality(m: int, k, order: int) -> list[dict]:
    """The slope duality between the G^(k),- and G^(k),+ product series.

    ``k=None`` checks every 1 <= k <= m-1, in increasing k, off one table
    covering the vectors of every k.
    """
    ks = _slopes(m, k)
    from .wallcross import MotiveTable

    table = MotiveTable.covering(m, [(order, order * k + 1) for k in ks])
    reports = []
    for k in ks:
        g_minus = g_series(table, k, -1, order)
        g_plus = g_series(table, k, 1, order)
        # prod_{i=1}^{m-k} nabla^(m-k) G^(k),-(v^((m+1-k-2i)k) t) and
        # prod_{i=1}^{k} nabla^k G^(k),+(v^((m-k)(k+1-2i)) t); nabla and
        # scale_arg both scale each degree, so they commute
        lhs = rescaled_product(
            g_minus.nabla(m - k).scale_arg((m - k - 1) * k), -2 * k, m - k)
        rhs = rescaled_product(
            g_plus.nabla(k).scale_arg((m - k) * (k - 1)), -2 * (m - k), k)
        reports.append(_report("newduality", m, k, order, lhs, rhs))
    return reports
