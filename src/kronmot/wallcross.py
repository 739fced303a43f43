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
own sum produced.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .errors import (ExactDivisionError, InsufficientBoundError, NonCoprimeError,
                     NonPolynomialError)
from .exactalg import LaurentPoly, Operand, RatFunc, sum_of_products
from .qseries import TruncSeries


class DimVector(NamedTuple):
    d: int
    e: int


def euler_form(m: int, a, b) -> int:
    """<(d,e),(d',e')> = dd' + ee' - m*d*e' for the m-Kronecker quiver."""
    return a[0] * b[0] + a[1] * b[1] - m * a[0] * b[1]


def sym_form(m: int, a, b) -> int:
    """Antisymmetrization {a,b} = <a,b> - <b,a> = m*(d'e - de')."""
    return m * (b[0] * a[1] - a[0] * b[1])


def slope_key(D):
    """Sort key realizing the slope order e/d, with d=0 maximal."""
    d, e = D
    if d == 0:
        return (1, Fraction(0))
    return (0, Fraction(e, d))


def slope_less(a, b) -> bool:
    if a == (0, 0) or b == (0, 0):
        raise ValueError("slope of the zero vector is undefined")
    return slope_key(a) < slope_key(b)


@lru_cache(maxsize=None)
def _poch(n: int) -> LaurentPoly:
    """(q;q)_n = prod_{i=1}^n (1 - v^(-2i)), the [G]_vir-style denominator."""
    if n == 0:
        return LaurentPoly.one()
    return _poch(n - 1) * (LaurentPoly.one() - LaurentPoly.monomial(-2 * n))


def _qbinom_row(prev: list[LaurentPoly]) -> list[LaurentPoly]:
    """Gaussian binomials [n choose k] in q = v^(-2), k = 0..n, from the
    row for n-1 by the Pascal recursion [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    n = len(prev)
    return ([LaurentPoly.one()]
            + [prev[k - 1] + prev[k].v_shift(-2 * k) for k in range(1, n)]
            + [LaurentPoly.one()])


def a_coeff(m: int, D) -> RatFunc:
    """Coefficient of x^D in A(x): v^(-<D,D>) / ((q;q)_d (q;q)_e)."""
    d, e = D
    num = LaurentPoly.monomial(-euler_form(m, D, D))
    return RatFunc(num, _poch(d) * _poch(e))


def _check_vector(D) -> DimVector:
    D = DimVector(*D)
    if D.d < 0 or D.e < 0:
        raise ValueError(f"dimension vector {tuple(D)} has a negative component")
    return D


def _down_closure(vectors) -> list[DimVector]:
    """(0,0) and every D' <= D for D in ``vectors``, component by component."""
    reach = {}  # reach[d]: the largest e of a vector with first component d
    for D in map(_check_vector, vectors):
        reach[D.d] = max(reach.get(D.d, 0), D.e)
    closure, e_max = [], 0
    for d in range(max(reach, default=0), -1, -1):
        e_max = max(e_max, reach.get(d, 0))
        closure.extend(DimVector(d, e) for e in range(e_max + 1))
    return closure


def _sweep(m: int, vectors) -> dict[DimVector, LaurentPoly]:
    """Numerators of a_D over (q;q)_d (q;q)_e for every D in ``vectors``.

    ``vectors`` must be down-closed (with D it holds every D' <= D, compared
    component by component); the factorisation then truncates to it
    exactly, as the module docstring explains.  The final residue check
    covers the whole set.

    A down-closed set is a staircase: row d holds e = 0..emax[d], and emax
    does not increase with d.  P[d][e] is the numerator at (d, e), held as
    an ``exactalg.Operand``, and each update is one ``sum_of_products``; a
    new operand replaces P[d][e], so no packing outlives the value it was
    made from.  The ray of D0 = (d0, e0) visits d >= d0, then
    e0 <= e <= emax[d] in increasing order, so P[D - k*D0] is updated
    before D.  Its twist is sym_form(m, k*D0, D - k*D0) = k * c with
    c = m(d*e0 - d0*e), one constant per D.  When c > 0, D and every
    D - k*D0 lie below the ray's slope, where the earlier rays have
    already left P zero, so those D are skipped.
    """
    emax = []  # emax[d]: the largest e of a vector in row d
    for d, e in vectors:
        emax.extend([-1] * (d + 1 - len(emax)))
        emax[d] = max(emax[d], e)
    P = [[Operand(LaurentPoly.monomial(-euler_form(m, (d, e), (d, e))))
          for e in range(top + 1)] for d, top in enumerate(emax)]
    # Pascal rows of Gaussian binomials, wrapped once: qbin[n][j] is the
    # operand of [n choose j] in q, for every n a q-binomial is taken of
    row = [LaurentPoly.one()]
    qbin = [[Operand(row[0])]]
    while len(qbin) <= max(len(emax) - 1, emax[0]):
        row = _qbinom_row(row)
        qbin.append([Operand(c) for c in row])
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


def _motive(D: DimVector, anum: LaurentPoly) -> LaurentPoly:
    """[K_D]_vir = (v - 1/v) * a_D from the numerator of a_D, D coprime.

    a_D = anum / ((q;q)_d (q;q)_e) and v - 1/v = v (1 - q), while
    (q;q)_n = (1 - q)(1 - q^2)...(1 - q^n).  So [K_D]_vir is v * anum
    divided by the binomials 1 - q^i of (q;q)_d and (q;q)_e, one factor
    1 - q dropped, one exact two-term division at a time (a divisor of an
    exact quotient divides exactly).
    """
    d, e = sorted(D)
    motive = anum.v_shift(1)
    for i in [*range(2, e + 1), *range(1, d + 1)]:
        motive = motive.divexact(LaurentPoly.one() - LaurentPoly.monomial(-2 * i))
    return motive


class MotiveTable:
    """Wall-crossing coefficients a_D over a down-closed set of vectors, fixed m.

    ``MotiveTable(m, bound)`` holds the triangle d+e <= bound;
    ``MotiveTable.covering(m, vectors)`` holds only the vectors below those
    a caller reads.  A query outside the set raises InsufficientBoundError.
    """

    def __init__(self, m: int, bound: int):
        if bound < 0:
            raise ValueError("need bound >= 0")
        self._fill(m, [(d, bound - d) for d in range(bound + 1)])

    @classmethod
    def covering(cls, m: int, vectors) -> "MotiveTable":
        """The table over every D' <= D for D in ``vectors``."""
        table = cls.__new__(cls)
        table._fill(m, vectors)
        return table

    def _fill(self, m: int, vectors):
        if m < 1:
            raise ValueError("need m >= 1")
        self.m = m
        # numerator of a_D over _poch(d)*_poch(e)
        self._anum: dict[DimVector, LaurentPoly] = _sweep(m, _down_closure(vectors))

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
        return RatFunc(self._numerator(D), _poch(D.d) * _poch(D.e))

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

    def framed_series(self, D0, order: int) -> TruncSeries:
        """Framed motives along a ray, via the quotient formula.

        Coefficient of t^n is [K_{n*d0,n*e0}^(m),fr]_vir, the t^n coefficient
        of F = A(v^e0 t) * A(v^-e0 t)^(-1) for the ray series A; framing at
        the sink makes the substitution exponent the e-component of the ray.
        With a_n = num_n / c_n, c_n = (q;q)_{n*d0} (q;q)_{n*e0}, the t^n
        coefficient of F * A(v^-e0 t) = A(v^e0 t) multiplied by c_n reads

            c_n F_n = v^(n*e0) num_n - sum_{k=1..n} F_(n-k) v^(-k*e0) num_k (c_n / c_k),

        where every c_n / c_k is a polynomial.  So F is solved over integer
        Laurent polynomials with one exact division by c_n per degree.

        c_n / c_k is the product of the binomials 1 - q^i, q = v^-2, for i
        in (k*d0, n*d0] and in (k*e0, n*e0]; each is multiplied on as one
        shift and one subtraction, k running down from n.  The division by
        c_n is one exact two-term division per binomial, as in ``_motive``.
        """
        d0, e0 = D0
        if gcd(d0, e0) != 1:
            raise NonCoprimeError(f"ray {tuple(D0)} is not primitive")
        num = [self._numerator(_check_vector((k * d0, k * e0)))
               for k in range(order + 1)]

        def exponents(k, n):
            """The i of the binomials 1 - q^i of c_n / c_k."""
            return [*range(k * d0 + 1, n * d0 + 1), *range(k * e0 + 1, n * e0 + 1)]

        F = [LaurentPoly.one()]
        for n in range(1, order + 1):
            total = num[n].v_shift(n * e0)
            ratio = LaurentPoly.one()  # c_n / c_k
            for k in range(n, 0, -1):
                total = total - F[n - k] * num[k].v_shift(-k * e0) * ratio
                for i in exponents(k - 1, k):
                    ratio = ratio - ratio.v_shift(-2 * i)
            try:
                for i in exponents(0, n):
                    total = total.divexact(LaurentPoly.one() - LaurentPoly.monomial(-2 * i))
            except NonPolynomialError as exc:
                raise ExactDivisionError(
                    f"quotient division failed at m={self.m}, n={n}") from exc
            F.append(total)
        return TruncSeries(F, order)

    def export(self) -> list[dict]:
        """Table records for serialization; motive is null for non-coprime D."""
        records = []
        for D in sorted(self._anum, key=lambda D: (D.d + D.e, D.d)):
            if D == (0, 0):
                motive = LaurentPoly.one()
            elif gcd(D.d, D.e) == 1:
                motive = self.motive(D)
            else:
                motive = None
            records.append(
                {
                    "d": D.d,
                    "e": D.e,
                    "a": self.a(D).to_json(),
                    "motive": motive.to_json() if motive is not None else None,
                }
            )
        return records


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
