"""Truncated power series in t with integer Laurent coefficients, and the
``RatFunc`` records the solvers return.

``TruncSeries(coeffs, order)`` chooses its ring from its input:

- ``int`` and integer ``LaurentPoly`` coefficients make an integral series,
  held as ``LaurentPoly``s.  ``+``, ``-``, ``*``, ``scale_arg``,
  ``shift_t``, ``delta``, ``nabla`` and ``delta_invert`` of integral series
  stay integral, and so does the inverse of an integral series with
  constant term 1, which needs no division; any other constant term raises
  ``NotInvertibleError``.  Products and inverses run over lists of
  ``exactalg.Operand``, each coefficient one packed sum of products
  (``exactalg.sum_of_products``); the series methods wrap each coefficient
  once at their edge and read each result's ``poly`` once.  ``delta``,
  ``nabla`` and
  ``delta_invert`` multiply or divide each coefficient by a quantum
  integer in one q-Pochhammer pass (``exactalg.quantum_ratio``), linear in
  the length of the coefficient.
- Any ``RatFunc`` coefficient makes every coefficient a ``RatFunc``: an
  output record, the form the public solvers, ``ray_series`` and
  ``from_json`` return.  Its ``+``, ``-``, scalar ``*``, ``scale_arg`` and
  ``shift_t`` work coefficient by coefficient, and mixing it with an
  integral series in ``+`` or ``-`` gives a record; its products, its
  inverse, ``delta``, ``nabla`` and ``delta_invert`` raise ``TypeError``.

Both are over the integers: a scalar is an ``int``, a ``LaurentPoly`` or a
``RatFunc``, and any other, a ``bool`` or a rational number included,
raises ``TypeError``.

``rescaled_product(x, p, r)`` is the product of the r rescaled copies
x(v^(p*i) t), i < r, formed by doubling in O(log r) products over the
operands of x (``op_rescaled_product``), each rescaling carried by the
shifts of a packed sum's terms, so no rescaled copy is built.  The same
product is built online, one coefficient of x at a time, for solvers that
learn x as they go, in two ways:

- ``OnlineRescaledProduct(p, r)`` doubles too, over
  floor(log2 r) + popcount(r) - 1 nodes, each extended by one packed sum
  per coefficient;
- ``OnlineQDifferenceProduct(p, r)``, for even p != 0 and x_0 = 1, reads
  each coefficient off the product's q-difference equation
  P(v^p t) x(t) = P(t) x(v^(p*r) t): one packed sum of n products and
  one exact division by a q-Pochhammer binomial at t^n, whatever r is.

A product of one operand list by itself, as each doubling step is, passes
its pairs j and n-j as one shared tuple, which ``exactalg.sum_of_products``
multiplies once, so its t^n coefficient costs floor(n/2) + 1 big-integer
products.  The central-slope products of rescaled copies of F and of one
factor series are each one of these at v^s t: a caller puts the factor
v^(s*n) on the t^n coefficient.

A record and an integral series compare equal and hash alike coefficient
by coefficient, so a series equals its lift.  Carries the argument
rescaling t -> v^p t and the coefficientwise q-difference operators used
throughout the central-slope identities.
"""

from __future__ import annotations

from operator import add, neg

from .errors import NonZeroConstantError, NotInvertibleError
from .exactalg import (LaurentPoly, Operand, RatFunc, qpoch, quantum_ratio,
                       sum_of_products)

_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()
_SCALARS = (int, LaurentPoly, RatFunc)


def _integral_only(*series):
    """Refuse a ``RatFunc`` record where the series ring is needed."""
    if not all(s.is_integral() for s in series):
        raise TypeError("a RatFunc series is an output record: it has no "
                        "products, inverse, delta, nabla or delta_invert")


class TruncSeries:
    """Power series in t, truncated at a fixed order.

    ``coeffs[d]`` is the coefficient of t^d; binary operations truncate to
    the smaller order of the two operands.  ``int`` and ``LaurentPoly``
    coefficients are kept as integer ``LaurentPoly``s; if any coefficient
    is a ``RatFunc``, all are lifted to ``RatFunc`` (a record).  Missing
    coefficients up to ``order`` are zeros of that ring.  An ``order`` must
    be an ``int`` (a ``bool`` raises ``TypeError``); ``TruncSeries(coeffs)``
    takes it from ``coeffs``.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [LaurentPoly((c,)) if type(c) is int else c for c in coeffs]
        record = not all(isinstance(c, LaurentPoly) for c in coeffs)
        if record:
            coeffs = [c if type(c) is RatFunc else RatFunc.of(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        elif type(order) is not int:
            raise TypeError("order must be an int")
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) < order + 1:
            zero = RatFunc.zero() if record else _ZERO
            coeffs = coeffs + [zero] * (order + 1 - len(coeffs))
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

    def is_integral(self) -> bool:
        """True iff the coefficients are integer ``LaurentPoly``s."""
        return type(self.coeffs[0]) is LaurentPoly

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = TruncSeries([other], self.order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncSeries._make(map(add, self.coeffs[: n + 1], other.coeffs), n)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._make(map(neg, self.coeffs), self.order)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = TruncSeries([other], self.order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return TruncSeries([x * other for x in self.coeffs], self.order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        _integral_only(self, other)
        n = min(self.order, other.order)
        return _lift(_op_product(_wrap(self, n), _wrap(other, n)))

    __rmul__ = __mul__

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse of an integral series with constant term
        1, by out[n] = -sum_{j<n} a[n-j] out[j], one packed sum each and no
        division; any other constant term raises ``NotInvertibleError``."""
        _integral_only(self)
        if self.coeffs[0] != _ONE:
            raise NotInvertibleError("constant term is not 1")
        a = _wrap(self, self.order)
        out = a[:1]
        for n in range(1, len(a)):
            out.append(sum_of_products([(-1, 0, (a[n - j], out[j])) for j in range(n)]))
        return _lift(out)

    def scale_arg(self, p: int) -> "TruncSeries":
        """Substitute t -> v^p t."""
        if p == 0:
            return self
        return TruncSeries._make(
            [c.v_shift(p * d) for d, c in enumerate(self.coeffs)], self.order
        )

    def shift_t(self) -> "TruncSeries":
        """Multiply by t, truncating at the same order."""
        zero = _ZERO if self.is_integral() else RatFunc.zero()
        return TruncSeries._make((zero, *self.coeffs[: self.order]), self.order)

    def delta(self) -> "TruncSeries":
        """Coefficient of t^d multiplied by the quantum integer [d]_v, for
        an integral series: ``exactalg.quantum_ratio(c, d, 1)``, one pass
        over the coefficient list, and zero at degree 0."""
        _integral_only(self)
        return TruncSeries._make(
            [_ZERO] + [quantum_ratio(c, d, 1) for d, c in enumerate(self.coeffs) if d],
            self.order,
        )

    def nabla(self, k: int) -> "TruncSeries":
        """Coefficient of t^d multiplied by [kd+1]_v, the motive of P^(kd),
        for an integral series: ``exactalg.quantum_ratio(c, k*d + 1, 1)``,
        one pass over the coefficient list."""
        if k < 0:
            raise ValueError("nabla requires k >= 0")
        _integral_only(self)
        return TruncSeries._make(
            [quantum_ratio(c, k * d + 1, 1) for d, c in enumerate(self.coeffs)],
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


def _wrap(x: TruncSeries, n: int) -> list[Operand]:
    """The coefficients of x through t^n, each wrapped once."""
    return [Operand(c) for c in x.coeffs[: n + 1]]


def _lift(ops) -> TruncSeries:
    """The integral series whose coefficients the operands hold."""
    return TruncSeries._make([op.poly for op in ops], len(ops) - 1)


def _product_terms(a, b, c: int, n: int) -> list:
    """The terms of sum_j v^(c*j) a[n-j] b[j], the t^n coefficient of
    a(t) * b(v^c t), for ``exactalg.sum_of_products``.

    When a is b, the pairs j and n-j multiply the same two operands, so
    they are emitted next to each other with one shared tuple, which the
    kernel multiplies once: floor(n/2) + 1 products instead of n + 1.
    """
    if a is not b:
        return [(1, c * j, (a[n - j], b[j])) for j in range(n + 1)]
    terms = []
    for j in range(n // 2 + 1):
        ops = (a[n - j], a[j])
        terms.append((1, c * j, ops))
        if 2 * j != n:
            terms.append((1, c * (n - j), ops))
    return terms


def _op_product(a, b, c: int = 0) -> list[Operand]:
    """a(t) * b(v^c t) over two ``Operand`` lists, truncated to the shorter.

    The t^n coefficient is one packed sum (``exactalg.sum_of_products``)
    whose terms carry the shifts c*j (``_product_terms``), so no rescaled
    copy of b is formed.
    """
    return [sum_of_products(_product_terms(a, b, c, n))
            for n in range(min(len(a), len(b)))]


def op_rescaled_product(x, p: int, r: int) -> list[Operand]:
    """prod_{i=0}^{r-1} x(v^(p*i) t) over an ``Operand`` list, r >= 1.

    P_a = prod_{i<a} x(v^(p*i) t) is built by doubling on
    P_(a+b)(t) = P_a(t) * P_b(v^(p*a) t), reading r from its top bit down:
    floor(log2 r) + popcount(r) - 1 products (``_op_product``) instead of
    r - 1, each rescaling carried by the shifts of its terms.  r < 1
    raises ``ValueError``.
    """
    if r < 1:
        raise ValueError("op_rescaled_product needs r >= 1")
    out, a = x, 1
    for bit in bin(r)[3:]:
        out, a = _op_product(out, out, p * a), 2 * a
        if bit == "1":
            out, a = _op_product(out, x, p * a), a + 1
    return out


def rescaled_product(x: TruncSeries, p: int, r: int) -> TruncSeries:
    """prod_{i=0}^{r-1} x(v^(p*i) t) for an integral ``x``; 1 for r = 0.

    Each coefficient of x is wrapped once and the doubling runs over the
    operands (``op_rescaled_product``).
    """
    if r < 0:
        raise ValueError("rescaled_product needs r >= 0")
    if r == 0:
        return TruncSeries([1], x.order)
    _integral_only(x)
    return _lift(op_rescaled_product(_wrap(x, x.order), p, r))


class OnlineRescaledProduct:
    """prod_{i=0}^{r-1} x(v^(p*i) t), r >= 1, extended one coefficient of
    x at a time: the online form of ``rescaled_product(x, p, r)``, built by
    the same doubling.

    ``push(x_n)`` takes the next coefficient of x as an
    ``exactalg.Operand`` and returns the t^n coefficient of the product as
    an ``Operand``.  That coefficient needs x_0..x_n only.  With
    P_a = prod_{i<a} x(v^(p*i) t), the first node is P_1 = x.  Reading r
    from its top bit down, each further node multiplies the node before
    it, P_a, by a rescaled copy Q(v^(p*a) t): Q = P_a doubles it to P_2a,
    and for a set bit Q = x extends it to P_(a+1).  Every node keeps its
    own coefficients, and each push extends each node by one packed sum of
    at most n+1 products (``exactalg.sum_of_products``) whose terms carry
    the v-shifts, so no rescaled copy is formed:
    floor(log2 r) + popcount(r) - 1 sums per push instead of r - 1.  A
    product of copies x(v^(s+p*i) t) has the t^n coefficient v^(s*n) times
    this one.
    """

    __slots__ = ("_base", "_nodes", "_last")

    def __init__(self, p: int, r: int):
        if r < 1:
            raise ValueError("OnlineRescaledProduct needs r >= 1")
        # node: (its coefficients, P_a's, Q's, p*a)
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

    def push(self, x: Operand) -> Operand:
        n = len(self._base)
        self._base.append(x)
        for node, first, second, c in self._nodes:
            node.append(sum_of_products(_product_terms(first, second, c, n)))
        return self._last[n]


class OnlineQDifferenceProduct:
    """prod_{i=0}^{r-1} x(v^(p*i) t), r >= 1, extended one coefficient of
    x at a time by its q-difference equation: the product
    ``OnlineRescaledProduct(p, r)`` builds, for even p != 0 and x_0 = 1, in
    one packed sum per push whatever r is.

    P(t) = prod_{i<r} x(v^(p*i) t) satisfies P(v^p t) x(t) = P(t)
    x(v^(p*r) t), whose t^n coefficient, with x_0 = 1, is

        P_n (1 - v^(p*n)) = sum_{k<n} P_k x_(n-k) (v^(p*k) - v^(p*r*(n-k))).

    ``push(x_n)`` takes the next coefficient of x as an ``exactalg.Operand``
    and returns P_n as one.  P_0 is x_0; for n >= 1 the right-hand side is
    one packed sum of 2n terms (``exactalg.sum_of_products``), the two
    terms of each k sharing one operand tuple and so one big-integer
    product, and P_n is that sum divided exactly by 1 - q^(|p|n/2),
    q = v^-2, in one pass (``exactalg.qpoch``).  For p > 0,
    1 - v^(p*n) = -v^(p*n) (1 - q^(p*n/2)): the sign rides on the terms and
    the shift on the pass.  An odd p has no such divisor and p = 0 none at
    all, so either raises ``ValueError``, as do r < 1 and, at the first
    push, x_0 != 1.

    Doubling makes floor(log2 r) + popcount(r) - 1 sums per push, one per
    node: a squaring node's n + 1 terms share floor(n/2) + 1 products
    (``_product_terms``), a node that extends by x has n + 1.  At r = 2 the
    one node squares x, about half this sum's products and no division, so
    it is the cheaper; from r = 3 on doubling makes two sums or more.
    """

    __slots__ = ("_p", "_pr", "_x", "_out")

    def __init__(self, p: int, r: int):
        if r < 1:
            raise ValueError("OnlineQDifferenceProduct needs r >= 1")
        if p == 0 or p % 2:
            raise ValueError("OnlineQDifferenceProduct needs an even p != 0")
        self._p, self._pr = p, p * r
        self._x, self._out = [], []  # x_0..x_n and P_0..P_n

    def push(self, x: Operand) -> Operand:
        xs, out = self._x, self._out
        n = len(xs)
        if not n and x.poly != _ONE:
            raise ValueError("OnlineQDifferenceProduct needs x_0 = 1")
        xs.append(x)
        if not n:
            out.append(x)
            return x
        p, pr = self._p, self._pr
        sign, shift = (1, 0) if p < 0 else (-1, -p * n)
        terms = []
        for k in range(n):
            ops = (out[k], xs[n - k])
            terms += [(sign, p * k, ops), (-sign, pr * (n - k), ops)]
        out.append(qpoch(sum_of_products(terms), (), (abs(p) // 2 * n,), shift))
        return out[n]


def delta_invert(b: TruncSeries) -> TruncSeries:
    """The unique integral G with G(0)=1 and delta(G) == b, for an integral
    ``b``.

    Coefficient d is divided by [d]_v exactly, as
    ``exactalg.quantum_ratio(c, 1, d)`` = c (1 - q) v^(1-d) / (1 - q^d),
    linear in the length of c; a remainder raises ``NonPolynomialError``.
    """
    _integral_only(b)
    if not b.coeffs[0].is_zero():
        raise NonZeroConstantError("delta_invert needs vanishing constant term")
    out = [_ONE] + [quantum_ratio(c, 1, d) for d, c in enumerate(b.coeffs) if d]
    return TruncSeries._make(out, b.order)
