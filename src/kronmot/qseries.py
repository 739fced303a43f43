"""Truncated power series in t over one of two coefficient rings.

- ``TruncSeries(coeffs, order)`` lifts every coefficient to ``RatFunc``:
  the ring of returned and serialised series and the tests' reference
  ring; no library path computes in it.
- ``TruncSeries.laurent(polys, order)`` keeps integer ``LaurentPoly``
  coefficients.  ``+``, ``-``, ``*``, ``scale_arg``, ``shift_t``, ``delta``,
  ``nabla`` and ``delta_invert`` of integral series stay integral, and so
  does the inverse of an integral series with constant term 1, which needs
  no division.  A ``RatFunc`` operand or scalar lifts the result to
  ``RatFunc``; so does inverting an integral series with any other constant
  term.  Each coefficient of an integral product or inverse is one packed
  sum of products (``exactalg.sum_of_products``) over coefficients wrapped
  once as ``exactalg.Operand``.

``rescaled_product(x, p, r)`` is the product of the r rescaled copies
x(v^(p*i) t), i < r, formed by doubling in O(log r) series products.
``OnlineRescaledProduct(s, p, r)`` is the product of the copies
x(v^(s+p*i) t) built online, one coefficient of x at a time, for solvers
that learn x as they go; it doubles too, over O(log r) nodes, each
extended by one packed sum per coefficient.  The central-slope products of
rescaled copies of F and of one factor series all take one of these two
shapes.

The two rings compare equal and hash alike coefficient by coefficient, so a
series equals its lift.  Carries the argument rescaling t -> v^p t and the
coefficientwise q-difference operators used throughout the central-slope
identities.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, neg

from .errors import NonZeroConstantError, NotInvertibleError
from .exactalg import (LaurentPoly, Operand, RatFunc, quantum_integer, quantum_ratio,
                       sum_of_products)

_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()


def _integral(x) -> bool:
    """True iff ``x`` is an integer Laurent polynomial."""
    return isinstance(x, LaurentPoly) and x._ints


def _scalar(x, integral: bool):
    """``x`` as a coefficient of a series in the ring ``integral`` names:
    an int or integer LaurentPoly stays in the integral ring, anything else
    is lifted to RatFunc."""
    if integral:
        if type(x) is int:
            return LaurentPoly((x,))
        if _integral(x):
            return x
    return RatFunc.of(x)


class TruncSeries:
    """Power series in t, truncated at a fixed order.

    ``coeffs[d]`` is the coefficient of t^d; binary operations truncate to
    the smaller order of the two operands.  The coefficients are all
    ``RatFunc`` or, for a series made by :meth:`laurent` and the operations
    that keep it integral, all integer ``LaurentPoly``.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [RatFunc.of(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [RatFunc.zero()] * (order + 1 - len(coeffs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs[: order + 1]))

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def _make(cls, coeffs, order: int) -> "TruncSeries":
        """Wrap order+1 coefficients of one ring, unchecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "order", order)
        object.__setattr__(out, "coeffs", tuple(coeffs))
        return out

    @classmethod
    def laurent(cls, polys, order: int) -> "TruncSeries":
        """An integral series: integer ``LaurentPoly`` coefficients, kept
        as they are and padded with zeros up to ``order``."""
        if order < 0:
            raise ValueError("order must be >= 0")
        polys = list(polys)[: order + 1]
        for p in polys:
            if not _integral(p):
                raise TypeError(f"{p!r} is not an integer LaurentPoly")
        return cls._make(polys + [_ZERO] * (order + 1 - len(polys)), order)

    @classmethod
    def constant(cls, c, order: int) -> "TruncSeries":
        return cls([c], order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls.constant(1, order)

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls.constant(0, order)

    def is_integral(self) -> bool:
        """True iff the coefficients are integer ``LaurentPoly``s."""
        return type(self.coeffs[0]) is LaurentPoly

    def _constant_like(self, x) -> "TruncSeries":
        """The constant series x at this order, in this series' ring if x
        belongs to it, else over RatFunc."""
        c = _scalar(x, self.is_integral())
        zero = _ZERO if type(c) is LaurentPoly else RatFunc.zero()
        return TruncSeries._make([c] + [zero] * self.order, self.order)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def truncate(self, order: int) -> "TruncSeries":
        if order >= self.order:
            return self
        return TruncSeries._make(self.coeffs[: order + 1], order)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly, RatFunc)):
            other = self._constant_like(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncSeries._make(map(add, self.coeffs[: n + 1], other.coeffs), n)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._make(map(neg, self.coeffs), self.order)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly, RatFunc)):
            other = self._constant_like(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly, RatFunc)):
            c = _scalar(other, self.is_integral())
            return TruncSeries._make([x * c for x in self.coeffs], self.order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        if self.is_integral() and other.is_integral():
            a = [Operand(c) for c in self.coeffs[: n + 1]]
            b = [Operand(c) for c in other.coeffs[: n + 1]]
            return TruncSeries._make(
                [_dot(1, a[d::-1], b).poly for d in range(n + 1)], n)
        return TruncSeries._make(
            [product_coeff(self.coeffs, other.coeffs, d) for d in range(n + 1)], n)

    __rmul__ = __mul__

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; the constant term must be nonzero.

        An integral series with constant term 1 inverts in the integral
        ring by out[d+1] = -sum_j tail[d-j] out[j], with no division; any
        other series inverts over RatFunc.
        """
        c0 = self.coeffs[0]
        if c0.is_zero():
            raise NotInvertibleError("constant term is zero")
        if type(c0) is LaurentPoly and c0 == _ONE:
            tail = [Operand(c) for c in self.coeffs[1:]]
            out = [Operand(c0)]
            for d in range(self.order):
                out.append(_dot(-1, tail[d::-1], out))
            return TruncSeries._make([op.poly for op in out], self.order)
        inv0 = RatFunc.one() / c0
        out = [inv0]
        tail = self.coeffs[1:]
        for d in range(self.order):
            out.append(-inv0 * product_coeff(tail, out, d))
        return TruncSeries._make(out, self.order)

    def scale_arg(self, p: int) -> "TruncSeries":
        """Substitute t -> v^p t."""
        if p == 0:
            return self
        return TruncSeries._make(
            [c.v_shift(p * d) for d, c in enumerate(self.coeffs)], self.order
        )

    def shift_t(self, scalar=1) -> "TruncSeries":
        """Multiply by scalar * t, truncating at the same order."""
        c = _scalar(scalar, self.is_integral())
        zero = _ZERO if type(c) is LaurentPoly else RatFunc.zero()
        return TruncSeries._make(
            [zero] + [x * c for x in self.coeffs[: self.order]], self.order
        )

    def delta(self) -> "TruncSeries":
        """Coefficient of t^d multiplied by the quantum integer [d]_v."""
        return TruncSeries._make(
            [c * quantum_integer(d) for d, c in enumerate(self.coeffs)], self.order
        )

    def nabla(self, k: int) -> "TruncSeries":
        """Coefficient of t^d multiplied by [kd+1]_v, the motive of P^(kd)."""
        if k < 0:
            raise ValueError("nabla requires k >= 0")
        return TruncSeries._make(
            [c * quantum_integer(k * d + 1) for d, c in enumerate(self.coeffs)],
            self.order,
        )

    def to_json(self) -> dict:
        """The series over RatFunc, whichever ring holds it."""
        return {"order": self.order,
                "coeffs": [RatFunc.of(c).to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "TruncSeries":
        """Inverse of ``to_json``, over RatFunc: an int ``order`` >= 0 and a
        list of exactly order+1 coefficients, else ``TypeError`` or
        ``ValueError``."""
        order, coeffs = obj["order"], obj["coeffs"]
        if type(order) is not int or type(coeffs) is not list:
            raise TypeError("order must be an int and coeffs a list")
        if order < 0 or len(coeffs) != order + 1:
            raise ValueError("a series of order n has n+1 coefficients")
        return cls._make([RatFunc.from_json(c) for c in coeffs], order)

    def __repr__(self):
        return f"TruncSeries(order={self.order}, coeffs={list(self.coeffs)!r})"


def _dot(sign: int, a, b) -> Operand:
    """sign * sum_j a[j] * b[j] over the shorter of two ``Operand`` lists,
    as one packed sum (``exactalg.sum_of_products``)."""
    return sum_of_products([(sign, 0, pair) for pair in zip(a, b)])


def product_coeff(a, b, n: int):
    """The t^n coefficient of a * b, for series given as sequences of at least
    n+1 ring elements (integer Laurent polynomials or RatFunc)."""
    total = a[n] * b[0]
    for j in range(1, n + 1):
        total = total + a[n - j] * b[j]
    return total


def rescaled_product(x: TruncSeries, p: int, r: int) -> TruncSeries:
    """prod_{i=0}^{r-1} x(v^(p*i) t), in the ring of ``x``; 1 for r = 0.

    P_a = prod_{i<a} x(v^(p*i) t) is built by doubling on
    P_(a+b)(t) = P_a(t) * P_b(v^(p*a) t), reading r from its top bit down:
    floor(log2 r) + popcount(r) - 1 series products instead of r - 1.
    """
    if r < 0:
        raise ValueError("rescaled_product needs r >= 0")
    if r == 0:
        return x._constant_like(1)
    out, a = x, 1
    for bit in bin(r)[3:]:
        out, a = out * out.scale_arg(p * a), 2 * a
        if bit == "1":
            out, a = out * x.scale_arg(p * a), a + 1
    return out


class OnlineRescaledProduct:
    """prod_{i=0}^{r-1} x(v^(s+p*i) t), r >= 1, extended one coefficient
    of x at a time: the online form of ``rescaled_product``, built by the
    same doubling.

    ``push(x_n)`` takes the next coefficient of x as an
    ``exactalg.Operand`` and returns the t^n coefficient of the product as
    (shift, operand), meaning v^shift times the operand.  That coefficient
    needs x_0..x_n only.  With P_a = prod_{i<a} x(v^(s+p*i) t), the first
    node is P_1 = x(v^s t), whose t^n coefficient is x_n with shift s*n.
    Reading r from its top bit down, each further node multiplies the node
    before it, P_a, by a rescaled copy Q(v^(p*a) t): Q = P_a doubles it to
    P_2a, and for a set bit Q = x(v^s t) extends it to P_(a+1).  Every node
    keeps its own coefficients, and each push extends each node by one
    packed sum of at most n+1 products (``exactalg.sum_of_products``) whose
    terms carry the v-shifts, so no rescaled copy is formed:
    floor(log2 r) + popcount(r) - 1 sums per push instead of r - 1.  With
    r >= 2 the shift returned is 0.
    """

    __slots__ = ("_s", "_base", "_nodes", "_last")

    def __init__(self, s: int, p: int, r: int):
        if r < 1:
            raise ValueError("OnlineRescaledProduct needs r >= 1")
        self._s = s
        # node: (its coefficients, P_a's, Q's, p*a); coefficients are
        # (shift, operand) pairs
        self._base = last = []
        self._nodes = []
        a = 1
        for bit in bin(r)[3:]:
            node = []
            self._nodes.append((node, last, last, p * a))
            last, a = node, 2 * a
            if bit == "1":
                node = []
                self._nodes.append((node, last, self._base, p * a))
                last, a = node, a + 1
        self._last = last

    def push(self, x: Operand) -> tuple[int, Operand]:
        n = len(self._base)
        self._base.append((self._s * n, x))
        for node, first, second, c in self._nodes:
            node.append((0, sum_of_products(
                [(1, first[n - j][0] + second[j][0] + c * j,
                  (first[n - j][1], second[j][1])) for j in range(n + 1)])))
        return self._last[n]


def delta_invert(b: TruncSeries) -> TruncSeries:
    """The unique G with G(0)=1 and delta(G) == b, in the ring of ``b``.

    Coefficient d is divided by [d]_v: exactly for an integral series, as
    ``exactalg.quantum_ratio(c, 1, d)`` = c (1 - q) v^(1-d) / (1 - q^d),
    linear in the length of c, where a remainder raises
    ``NonPolynomialError``; by ``RatFunc`` division otherwise.
    """
    if not b.coeffs[0].is_zero():
        raise NonZeroConstantError("delta_invert needs vanishing constant term")
    if b.is_integral():
        out = [_ONE] + [quantum_ratio(c, 1, d)
                        for d, c in enumerate(b.coeffs) if d]
    else:
        out = [RatFunc.one()] + [c / quantum_integer(d)
                                 for d, c in enumerate(b.coeffs) if d]
    return TruncSeries._make(out, b.order)
