"""Wall-crossing for the m-arrow Kronecker quiver.

Computes the coefficients a_D = [R_D^sst]_vir / [G_D]_vir of the
slope-ordered factorization of the quantum-torus series A(x), and from them
the virtual motives of the moduli spaces K_{d,e}^(m) for coprime (d,e).

The extraction works slope by slope: if R is what remains of A(x) after
dividing off all factors of slope < s, the coefficients of R on the ray of
slope s are exactly the a_D there (a sum of vectors of slopes > s has slope
> s, so no cross terms land on the ray).  Dividing R on the left by the
slope-s factor and moving to the next slope yields every a_D by induction
on d+e.

The sweep runs over any down-closed set S of dimension vectors (with D it
holds every D' <= D, component by component).  The span of the x^D with D
outside S is a two-sided ideal of the quantum torus, since x^D x^D' is a
multiple of x^(D+D') and D+D' is outside S whenever D or D' is.  So the
whole factorisation can be taken modulo that ideal: it truncates to S
exactly, and a_D for D in S depends only on the coefficients of A(x) on S.
So every reader sweeps only the down-closure of the vectors it reads (a
staircase of boxes), through ``MotiveTable.covering``: ``moduli_motive(m,
d, e)`` sweeps the box [0..d] x [0..e], a ray series the box below its top
vector.  Only ``hn_extract`` (the ``kronmot hn`` table) sweeps the triangle
d+e <= bound.

Internally each coefficient of R at D=(d,e) is stored as an integer Laurent
polynomial numerator P[D] over the fixed denominator (q;q)_d (q;q)_e,
q = v^-2; the q-binomial rescaling keeps that representation exact
throughout, so no rational-function gcd is needed in the hot loop.
Dividing off the factor of a ray D0 = (d0, e0) replaces every P[D] with
d >= d0 and e >= e0 by

    P[D] - sum_k v^(k*c) a_k P[D - k*D0] [d, k*d0]_q [e, k*e0]_q,

where the twist sym_form(m, k*D0, D - k*D0) is k*c for the one constant
c = m(d*e0 - d0*e) of D.  A down-closed set is a staircase, row d holding
e = 0..emax[d], so P is a list of rows indexed [d][e].  A ray visits its
rows d >= d0 in increasing order and each row in increasing e, so
P[D - k*D0] is already updated when D is; it starts each row at the least
e with c <= 0, since below the ray's slope the earlier rays have already
left every P zero.  Each update is one packed sum
(``exactalg.sum_of_products``):
every operand is packed into a big integer at a slot width that its l1
norms prove wide enough, the products are summed as big integers and the
result is unpacked once.  Each operand keeps its packings for as long as
it is in use, so a numerator, an a_k or a q-binomial is packed at most
once per slot width, and an updated P[D] starts out with the packing its
own sum produced.  The framed motives of ``MotiveTable.framed_series``
solve an equation of the same shape over the same Pascal rows of Gaussian
binomials (``_qbinom_rows``), one packed sum per degree.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cmp_to_key, lru_cache
from itertools import accumulate
from math import gcd

from .errors import (ExactDivisionError, InsufficientBoundError, NonCoprimeError,
                     NonPolynomialError)
from .exactalg import (LaurentPoly, Operand, RatFunc, qpoch_divexact, qpoch_mul,
                       sum_of_products)
from .qseries import TruncSeries


DimVector = namedtuple("DimVector", "d e")


def euler_form(m: int, a, b) -> int:
    """<(d,e),(d',e')> = dd' + ee' - m*d*e' for the m-Kronecker quiver."""
    return a[0] * b[0] + a[1] * b[1] - m * a[0] * b[1]


def sym_form(m: int, a, b) -> int:
    """Antisymmetrization {a,b} = <a,b> - <b,a> = m*(d'e - de')."""
    return m * (b[0] * a[1] - a[0] * b[1])


def _slope_cmp(a, b) -> int:
    """-1, 0 or 1 as the slope e/d of ``a`` is below, equal to or above that
    of ``b``, with d=0 maximal: exact, by cross-multiplication."""
    (d, e), (d2, e2) = a, b
    if d == 0 or d2 == 0:
        return (d == 0) - (d2 == 0)
    diff = e * d2 - e2 * d
    if (d < 0) != (d2 < 0):
        diff = -diff
    return (diff > 0) - (diff < 0)


# sort key realizing the slope order e/d, with d=0 maximal
slope_key = cmp_to_key(_slope_cmp)


@lru_cache(maxsize=256)
def _denominator(d: int, e: int) -> LaurentPoly:
    """(q;q)_d (q;q)_e, (q;q)_n = prod_{i=1}^n (1 - v^(-2i)), the
    denominator of a_(d,e), in one ``exactalg.qpoch_mul`` pass."""
    return qpoch_mul(LaurentPoly.one(), [*range(1, d + 1), *range(1, e + 1)])


def _qbinom_rows(top: int) -> list[list[LaurentPoly]]:
    """Gaussian binomials in q = v^(-2): row n holds [n choose k] for
    k = 0..n, n = 0..top, each row built from the one before by the Pascal
    recursion [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    one = LaurentPoly.one()
    rows = [[one]]
    for n in range(1, top + 1):
        row = rows[-1]
        rows.append([one] + [row[k - 1] + row[k].v_shift(-2 * k) for k in range(1, n)]
                    + [one])
    return rows


def a_coeff(m: int, D) -> RatFunc:
    """Coefficient of x^D in A(x): v^(-<D,D>) / ((q;q)_d (q;q)_e)."""
    d, e = D
    num = LaurentPoly.monomial(-euler_form(m, D, D))
    return RatFunc(num, _denominator(d, e))


def _check_vector(D) -> DimVector:
    D = DimVector(*D)
    if D.d < 0 or D.e < 0:
        raise ValueError(f"dimension vector {tuple(D)} has a negative component")
    return D


def _staircase(vectors) -> list[int]:
    """The down-closure of ``vectors`` and (0,0) (every D' <= D, component
    by component) as a staircase: row d holds e = 0..emax[d], for d up to
    the largest first component."""
    reach = [0]  # reach[d]: the largest e of a vector with first component d
    for d, e in map(_check_vector, vectors):
        reach.extend([0] * (d + 1 - len(reach)))
        reach[d] = max(reach[d], e)
    return list(accumulate(reversed(reach), max))[::-1]


def _sweep(m: int, emax) -> dict[DimVector, LaurentPoly]:
    """Numerators of a_D over (q;q)_d (q;q)_e for every D in the staircase
    ``emax``: row d holds e = 0..emax[d], and emax does not increase with d.

    A staircase is down-closed (with D it holds every D' <= D, compared
    component by component); the factorisation then truncates to it
    exactly, as the module docstring explains.  The final residue check
    covers the whole set.

    P[d][e] is the numerator at (d, e), held as an ``exactalg.Operand``,
    and each update is one ``sum_of_products``; a new operand replaces
    P[d][e], so no packing outlives the value it was made from.  The ray
    of D0 = (d0, e0) visits d >= d0, then e0 <= e <= emax[d] in increasing
    order, so P[D - k*D0] is updated before D.  Its twist is
    sym_form(m, k*D0, D - k*D0) = k * c with c = m(d*e0 - d0*e), one
    constant per D.  When c > 0, D and every D - k*D0 lie below the ray's
    slope, where the earlier rays have already left P zero, so those D are
    skipped.
    """
    P = [[Operand(LaurentPoly.monomial(-euler_form(m, (d, e), (d, e))))
          for e in range(top + 1)] for d, top in enumerate(emax)]
    # qbin[n][j]: [n choose j] in q, wrapped once, for every n a q-binomial
    # is taken of
    qbin = [[Operand(c) for c in row]
            for row in _qbinom_rows(max(len(emax) - 1, emax[0]))]
    anum = {DimVector(0, 0): LaurentPoly.one()}
    rays = sorted(((d, e) for d, top in enumerate(emax)
                   for e in range(top + 1) if gcd(d, e) == 1), key=slope_key)
    for d0, e0 in rays:
        # (k, k*d0, k*e0, a_k) for each multiple of the ray with a_k != 0
        ray = []
        k, kd, ke = 1, d0, e0
        while kd < len(emax) and ke <= emax[kd]:
            an = P[kd][ke]
            anum[DimVector(kd, ke)] = an.poly
            if an.norm:
                ray.append((k, kd, ke, an))
            k, kd, ke = k + 1, kd + d0, ke + e0
        if not ray:
            continue
        # divide off the slope factor on the left: A_s * P_new = P, one
        # packed sum per D
        for d in range(d0, len(emax) if d0 else 1):
            Pd, qd = P[d], qbin[d]
            # the least e >= e0 with c <= 0; for d0 = 0 only d = 0 has one
            e_first = -(-d * e0 // d0) if d0 else e0
            for e in range(e_first, emax[d] + 1):
                c = m * (d * e0 - d0 * e)
                qe = qbin[e]
                terms = []
                for k, kd, ke, an in ray:
                    if kd > d or ke > e:
                        break
                    p2 = P[d - kd][e - ke]
                    if p2.norm:
                        terms.append((-1, k * c, (qd[kd], qe[ke], an, p2)))
                if terms:
                    terms.append((1, 0, (Pd[e],)))
                    Pd[e] = sum_of_products(terms)
    # everything must divide off: the remainder is the constant series 1
    for d, Pd in enumerate(P):
        for e, p in enumerate(Pd):
            if p.norm and (d or e):
                raise AssertionError(
                    f"wall-crossing sweep left residue at {(d, e)}")
    return anum


def _exponents(D0, k: int, n: int) -> list[int]:
    """The i of the binomials 1 - q^i whose product is c_n / c_k, where
    c_n = (q;q)_{n*d0} (q;q)_{n*e0} clears the t^n coefficient of the ray
    series of D0 = (d0, e0)."""
    d0, e0 = D0
    return [*range(k * d0 + 1, n * d0 + 1), *range(k * e0 + 1, n * e0 + 1)]


def _motive(D: DimVector, anum: LaurentPoly) -> LaurentPoly:
    """[K_D]_vir = (v - 1/v) * a_D from the numerator of a_D, D coprime.

    a_D = anum / ((q;q)_d (q;q)_e) and v - 1/v = v (1 - q), while
    (q;q)_n = (1 - q)(1 - q^2)...(1 - q^n).  So [K_D]_vir is v * anum
    divided by the binomials 1 - q^i of (q;q)_d and (q;q)_e, one factor
    1 - q dropped (``exactalg.qpoch_divexact``).
    """
    d, e = sorted(D)
    return qpoch_divexact(anum.v_shift(1), [*range(2, e + 1), *range(1, d + 1)])


class MotiveTable:
    """Wall-crossing coefficients a_D over a down-closed set of vectors, fixed m.

    ``MotiveTable(m, bound)`` holds the triangle d+e <= bound;
    ``MotiveTable.covering(m, vectors)`` holds only the vectors below those
    a caller reads.  A query outside the set raises InsufficientBoundError.
    """

    def __init__(self, m: int, bound: int):
        if bound < 0:
            raise ValueError("need bound >= 0")
        self._fill(m, range(bound, -1, -1))

    @classmethod
    def covering(cls, m: int, vectors) -> "MotiveTable":
        """The table over every D' <= D for D in ``vectors``."""
        table = cls.__new__(cls)
        table._fill(m, _staircase(vectors))
        return table

    def _fill(self, m: int, emax):
        if m < 1:
            raise ValueError("need m >= 1")
        self.m = m
        # numerator of a_D over _denominator(d, e)
        self._anum: dict[DimVector, LaurentPoly] = _sweep(m, emax)

    # -- queries -----------------------------------------------------------

    def _numerator(self, D: DimVector) -> LaurentPoly:
        try:
            return self._anum[D]
        except KeyError:
            raise InsufficientBoundError(
                f"{tuple(D)} is outside the swept vectors") from None

    def a(self, D) -> RatFunc:
        """The reduced wall-crossing coefficient a_D."""
        D = _check_vector(D)
        return RatFunc(self._numerator(D), _denominator(D.d, D.e))

    def motive(self, D) -> LaurentPoly:
        """[K_{d,e}^(m)]_vir = (v - 1/v) * a_D, for coprime (d,e)."""
        D = _check_vector(D)
        if gcd(D.d, D.e) != 1:
            raise NonCoprimeError(f"{tuple(D)} is not coprime")
        return _motive(D, self._numerator(D))

    def ray_series(self, D0, order: int) -> TruncSeries:
        """Series along a primitive ray: coefficient of t^n is a_{n*D0}."""
        d0, e0 = D0
        if gcd(d0, e0) != 1:
            raise NonCoprimeError(f"ray {tuple(D0)} is not primitive")
        return TruncSeries(
            [self.a((k * d0, k * e0)) for k in range(order + 1)], order
        )

    def _ray_numerators(self, D0, order: int) -> list[LaurentPoly]:
        """num_k, the numerator of a_{k*D0} over c_k, for k = 0..order."""
        d0, e0 = D0
        if gcd(d0, e0) != 1:
            raise NonCoprimeError(f"ray {tuple(D0)} is not primitive")
        return [self._numerator(_check_vector((k * d0, k * e0)))
                for k in range(order + 1)]

    def cleared_series(self, D0, order: int) -> tuple[TruncSeries, LaurentPoly]:
        """(B, C): the ray series of D0 through degree ``order`` as an
        integral series B over one integer Laurent polynomial C.

        C = c_order and B_n = num_n * c_order / c_n, with a_{n*D0} = num_n /
        c_n and c_n = (q;q)_{n*d0} (q;q)_{n*e0}, so A = B / C coefficient by
        coefficient.  The ratio c_order / c_n is carried down from n = order,
        where it is 1: c_order / c_n is c_order / c_(n+1) times the binomials
        1 - q^i for i in ``_exponents(D0, n, n+1)``, d0 + e0 passes
        (``exactalg.qpoch_mul``), and B_n is one product num_n * ratio.  At
        n = 0 the ratio is c_order itself.
        """
        num = self._ray_numerators(D0, order)
        B, ratio = [num[order]], LaurentPoly.one()
        for n in reversed(range(order)):
            ratio = qpoch_mul(ratio, _exponents(D0, n, n + 1))
            B.append(num[n] * ratio)
        return TruncSeries(B[::-1], order), ratio

    def framed_series(self, D0, order: int) -> TruncSeries:
        """Framed motives along a ray, via the quotient formula.

        Coefficient of t^n is [K_{n*d0,n*e0}^(m),fr]_vir, the t^n coefficient
        of F = A(v^e0 t) * A(v^-e0 t)^(-1) for the ray series A; framing at
        the sink makes the substitution exponent the e-component of the ray.
        With a_n = num_n / c_n, c_n = (q;q)_{n*d0} (q;q)_{n*e0}, and
        c_n / (c_k c_(n-k)) = [n*d0, k*d0]_q [n*e0, k*e0]_q, Gaussian
        binomials in q = v^-2, the t^n coefficient of F * A(v^-e0 t) =
        A(v^e0 t) multiplied by c_n reads

            c_n F_n = v^(n*e0) num_n - sum_{k=1..n} (c_(n-k) F_(n-k))
                          v^(-k*e0) num_k [n*d0, k*d0]_q [n*e0, k*e0]_q,

        the shape of the sweep's update.  So each cleared c_n F_n is one
        packed sum (``exactalg.sum_of_products``) over integer Laurent
        polynomials wrapped once, and F_n is c_n F_n divided exactly by the
        binomials 1 - q^i of c_n (``exactalg.qpoch_divexact``).  F is
        returned as a ``RatFunc`` record.
        """
        num = [Operand(p) for p in self._ray_numerators(D0, order)]
        d0, e0 = D0
        qbin = _qbinom_rows(order * max(d0, e0))
        cleared = [num[0]]  # cleared[n] wraps c_n F_n
        F = [LaurentPoly.one()]
        for n in range(1, order + 1):
            qd, qe = qbin[n * d0], qbin[n * e0]
            cleared.append(sum_of_products(
                [(1, n * e0, (num[n],))]
                + [(-1, -k * e0, (cleared[n - k], num[k], Operand(qd[k * d0]),
                                  Operand(qe[k * e0])))
                   for k in range(1, n + 1)]))
            try:
                F.append(qpoch_divexact(cleared[n].poly, _exponents(D0, 0, n)))
            except NonPolynomialError as exc:
                raise ExactDivisionError(
                    f"quotient division failed at m={self.m}, n={n}") from exc
        return TruncSeries(map(RatFunc, F), order)


def hn_extract(m: int, bound: int) -> MotiveTable:
    """The table of every a_D with d+e <= bound (the ``kronmot hn`` table)."""
    return MotiveTable(m, bound)


@lru_cache(maxsize=256)
def moduli_motive(m: int, d: int, e: int) -> LaurentPoly:
    """Virtual motive of K_{d,e}^(m) for coprime (d,e).

    a_(d,e) depends only on the coefficients of A(x) at the vectors
    D' <= (d,e), so the sweep covers the box [0..d] x [0..e] only: the
    vectors outside it span a two-sided ideal of the quantum torus, and the
    slope factorisation taken modulo that ideal is exact (module docstring).
    Negative and non-coprime (d,e) are rejected before any sweep.  Results
    are cached.
    """
    D = _check_vector((d, e))
    if gcd(d, e) != 1:
        raise NonCoprimeError(f"({d},{e}) is not coprime")
    return MotiveTable.covering(m, [D]).motive(D)


def framed_via_quotient(m: int, D0, order: int) -> TruncSeries:
    """Framed motive series along a primitive ray, from the quotient formula."""
    d0, e0 = D0
    table = MotiveTable.covering(m, [(order * d0, order * e0)])
    return table.framed_series(D0, order)


def verify_dualities(m: int, bound: int) -> list[dict]:
    """Check [K_{d,e}]=[K_{e,d}] and [K_{d,e}]=[K_{md-e,d}] for e <= md.

    Covers all coprime pairs with d+e <= bound; both sides are computed
    independently through the wall-crossing table.
    """
    pairs = [
        (d, e)
        for d in range(bound + 1)
        for e in range(bound + 1 - d)
        if (d, e) != (0, 0) and gcd(d, e) == 1
    ]
    # the pairs hold every swap (e, d) already
    table = MotiveTable.covering(
        m, pairs + [(m * d - e, d) for d, e in pairs if e <= m * d])
    report = []
    for d, e in pairs:
        lhs = table.motive((d, e))
        status = "pass" if lhs == table.motive((e, d)) else "fail"
        report.append(
            {"identity": "swap", "m": m, "pair": [d, e], "status": status}
        )
        if e <= m * d:
            status = "pass" if lhs == table.motive((m * d - e, d)) else "fail"
            report.append(
                {"identity": "reflection", "m": m, "pair": [d, e], "status": status}
            )
    return report
