"""Truncated power series in t with RatFunc coefficients.

Carries the argument rescaling t -> v^p t and the coefficientwise
q-difference operators used throughout the central-slope identities.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonPolynomialError, NonZeroConstantError, NotInvertibleError
from .exactalg import LaurentPoly, RatFunc, quantum_integer


def _lift(x) -> RatFunc:
    if isinstance(x, (int, Fraction, LaurentPoly)):
        return RatFunc.of(x)
    if isinstance(x, RatFunc):
        return x
    raise TypeError(f"cannot use {x!r} as a series coefficient")


class TruncSeries:
    """Power series in t, truncated at a fixed order.

    ``coeffs[d]`` is the coefficient of t^d; binary operations truncate to
    the smaller order of the two operands.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [_lift(c) for c in coeffs]
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
    def constant(cls, c, order: int) -> "TruncSeries":
        return cls([c], order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls.constant(1, order)

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls.constant(0, order)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def truncate(self, order: int) -> "TruncSeries":
        if order >= self.order:
            return self
        return TruncSeries(list(self.coeffs[: order + 1]), order)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly, RatFunc)):
            other = TruncSeries.constant(other, self.order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncSeries([self.coeffs[d] + other.coeffs[d] for d in range(n + 1)], n)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly, RatFunc)):
            other = TruncSeries.constant(other, self.order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly, RatFunc)):
            c = _lift(other)
            return TruncSeries([x * c for x in self.coeffs], self.order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncSeries(
            [product_coeff(self.coeffs, other.coeffs, d) for d in range(n + 1)], n)

    __rmul__ = __mul__

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; the constant term must be nonzero."""
        c0 = self.coeffs[0]
        if c0.is_zero():
            raise NotInvertibleError("constant term is zero")
        inv0 = RatFunc.one() / c0
        out = [inv0]
        tail = self.coeffs[1:]
        for d in range(self.order):
            out.append(-inv0 * product_coeff(tail, out, d))
        return TruncSeries(out, self.order)

    def scale_arg(self, p: int) -> "TruncSeries":
        """Substitute t -> v^p t."""
        if p == 0:
            return self
        return TruncSeries(
            [c.v_shift(p * d) for d, c in enumerate(self.coeffs)], self.order
        )

    def shift_t(self, scalar=1) -> "TruncSeries":
        """Multiply by scalar * t, truncating at the same order."""
        c = _lift(scalar)
        return TruncSeries(
            [RatFunc.zero()] + [x * c for x in self.coeffs[: self.order]], self.order
        )

    def delta(self) -> "TruncSeries":
        """Coefficient of t^d multiplied by the quantum integer [d]_v."""
        return TruncSeries(
            [c * quantum_integer(d) for d, c in enumerate(self.coeffs)], self.order
        )

    def nabla(self, k: int) -> "TruncSeries":
        """Coefficient of t^d multiplied by [kd+1]_v, the motive of P^(kd)."""
        if k < 0:
            raise ValueError("nabla requires k >= 0")
        return TruncSeries(
            [c * quantum_integer(k * d + 1) for d, c in enumerate(self.coeffs)],
            self.order,
        )

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "TruncSeries":
        return cls([RatFunc.from_json(c) for c in obj["coeffs"]], obj["order"])

    def __repr__(self):
        return f"TruncSeries(order={self.order}, coeffs={list(self.coeffs)!r})"


def product_coeff(a, b, n: int):
    """The t^n coefficient of a * b, for series given as sequences of at least
    n+1 ring elements (integer Laurent polynomials or RatFunc)."""
    total = a[n] * b[0]
    for j in range(1, n + 1):
        total = total + a[n - j] * b[j]
    return total


def delta_invert(b: TruncSeries) -> TruncSeries:
    """The unique G with G(0)=1 and delta(G) == b.

    Divides coefficient d by [d]_v.  A Laurent coefficient that [d]_v
    divides, as in all uses here, takes the exact Laurent division; any
    other coefficient goes through the reducing RatFunc division.
    """
    if not b.coeffs[0].is_zero():
        raise NonZeroConstantError("delta_invert needs vanishing constant term")
    out = [RatFunc.one()]
    for d in range(1, b.order + 1):
        c = b.coeffs[d]
        qd = quantum_integer(d)
        if c.is_laurent():
            try:
                out.append(RatFunc.of(c.to_laurent().divexact(qd)))
                continue
            except NonPolynomialError:
                pass
        out.append(c / RatFunc.of(qd))
    return TruncSeries(out, b.order)
