"""Truncated series in t evaluated at v = r in F_P, P = 2^61 - 1.

Evaluation at v = r is a ring homomorphism from integer Laurent polynomials
to F_P, so every identity of series holds again, coefficient by coefficient,
for the values.  This is the tests' reference for series arithmetic: it
reads only ``coeffs`` and ``min_exp`` of a ``LaurentPoly`` and ``num`` and
``den`` of a ``RatFunc``, and shares no code with kronmot's kernel.
"""

P = 2**61 - 1
# two points of multiplicative order above 10^5, so no [n]_v or (q;q)_n
# used here vanishes at them
POINTS = (3, 12345)


def at(x, r: int) -> int:
    """An int, LaurentPoly or RatFunc at v = r, in F_P; a denominator that
    vanishes at r raises ``ZeroDivisionError``."""
    if type(x) is int:
        return x % P
    if hasattr(x, "den"):
        den = at(x.den, r)
        if not den:
            raise ZeroDivisionError(f"{x!r} has a pole at v = {r} mod P")
        return at(x.num, r) * pow(den, -1, P) % P
    acc = 0
    for c in reversed(x.coeffs):
        acc = (acc * r + c) % P
    return acc * pow(r, x.min_exp, P) % P


def qint(n: int, r: int) -> int:
    """[n]_v = (v^n - v^-n) / (v - v^-1) at v = r."""
    return (pow(r, n, P) - pow(r, -n, P)) * pow(r - pow(r, -1, P), -1, P) % P


class PointSeries:
    """A truncated series over F_P: ``PointSeries.of(s, r)`` is the
    ``TruncSeries`` s at v = r.  Binary operations truncate to the shorter."""

    def __init__(self, values, r: int):
        self.values, self.r = [x % P for x in values], r

    @classmethod
    def of(cls, series, r: int) -> "PointSeries":
        return cls([at(c, r) for c in series.coeffs], r)

    def __eq__(self, other):
        return (self.r, self.values) == (other.r, other.values)

    def __repr__(self):
        return f"PointSeries({self.values}, r={self.r})"

    def _new(self, values) -> "PointSeries":
        return PointSeries(values, self.r)

    def __add__(self, other):
        return self._new(x + y for x, y in zip(self.values, other.values))

    def __neg__(self):
        return self._new(-x for x in self.values)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.values, other.values
        return self._new(sum(a[j] * b[d - j] for j in range(d + 1))
                         for d in range(min(len(a), len(b))))

    def scaled(self, c) -> "PointSeries":
        """Every coefficient times the constant c (an int or a polynomial)."""
        c = at(c, self.r)
        return self._new(x * c for x in self.values)

    def inverse(self) -> "PointSeries":
        a = self.values
        inv0 = pow(a[0], -1, P)
        out = [inv0]
        for d in range(1, len(a)):
            out.append(-inv0 * sum(a[j] * out[d - j] for j in range(1, d + 1)) % P)
        return self._new(out)

    def scale_arg(self, p: int) -> "PointSeries":
        return self._new(x * pow(self.r, p * d, P) for d, x in enumerate(self.values))

    def shift_t(self, c=1) -> "PointSeries":
        return self._new([0] + self.scaled(c).values[:-1])

    def delta(self) -> "PointSeries":
        return self._new(x * qint(d, self.r) for d, x in enumerate(self.values))

    def nabla(self, k: int) -> "PointSeries":
        return self._new(x * qint(k * d + 1, self.r) for d, x in enumerate(self.values))
