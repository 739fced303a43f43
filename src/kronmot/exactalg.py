"""Exact arithmetic foundation: Laurent polynomials in v and rational functions.

Everything here is immutable and exact.  Coefficients are Python ints where
possible and :class:`fractions.Fraction` otherwise; a Fraction that reduces to
an integer is stored as an int so the fast integer multiplication path stays
available.

The integer case is the fast case, because every motive the package computes
is an integer Laurent polynomial:

- ``LaurentPoly`` checks the coefficient types in one pass and normalises
  coefficients one by one only when some coefficient is not an ``int``.
  It records the outcome, so ``*``, ``+``, ``-`` and ``v_shift`` of integer
  polynomials build their results through a trusted constructor without
  checking them again.
- Integer products go through one Kronecker substitution kernel,
  ``sum_of_products``: a sum of products of integer polynomials, each
  product shifted by a power of v, is one signed Kronecker evaluation.
  Each ``Operand`` is packed once per slot width and keeps its packings,
  the big-integer products are summed, and the sum is unpacked once.
  The bit lengths of the sum give its lowest and highest nonzero slots,
  so only those are unpacked, and the ``LaurentPoly`` of a sum is built
  only when it is read.  Every motive is a polynomial in q = v^(-2), so
  its coefficients vanish at odd offsets; when every operand does, only
  the even offsets are packed (stride compaction), which halves each
  product.  Coefficient slots are rounded up to native 1, 2, 4 or 8 byte
  words, so packing and unpacking are C-level ``array``/``memoryview``
  conversions; slots wider than 8 bytes take an arbitrary-precision byte
  path.  An integer ``*`` with a length-1 operand is a scalar multiply,
  one with a short operand is schoolbook, and any other is a one-term
  ``sum_of_products``.
- Exact division of integer polynomials by a two-term divisor
  +-1 +- v^s, such as 1 - q^i, is a linear recurrence along each residue
  class mod s, run as one strided ``itertools.accumulate`` per class, so
  it costs a C-level pass instead of a Python long division.  A remainder
  raises ``NonPolynomialError`` as on the general path.
- Every product and exact quotient by q-Pochhammer binomials 1 - q^i,
  q = v^(-2), is ``qpoch_mul`` or ``qpoch_divexact``, and every c [a]_v
  / [d]_v is ``quantum_ratio``, one of each.  All three are one pass over
  the coefficient list (``_qpoch``), at stride 2 when it vanishes at its
  odd offsets: one list subtraction, or one two-term division, per
  binomial, and no intermediate ``LaurentPoly``.
- A ``RatFunc`` whose denominator is the constant 1 is already in canonical
  form when its numerator has integer coefficients, so constructing it skips
  the gcd and ``Fraction`` work.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import accumulate
from math import gcd as int_gcd
from operator import add, neg, sub

from .errors import NonPolynomialError

Coeff = int | Fraction


_INT = frozenset((int,))


def _int_only(coeffs) -> bool:
    """True iff every coefficient is exactly an ``int`` (no bool, no Fraction)."""
    return _INT.issuperset(map(type, coeffs))


def _norm_coeff(c: Coeff) -> Coeff:
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    return c


_ORDER = sys.byteorder


def _word_slot(size: int, code: str) -> tuple:
    half = 1 << (8 * size - 1)
    return size, code, half.to_bytes(size, _ORDER)


# native signed array typecodes by item size, read off at import
_WORD_CODES = {array(tc).itemsize: tc for tc in "qlihb"}
# slot width in bytes -> the narrowest native word of 1, 2, 4 or 8 bytes
# that holds it, as (size, signed typecode, the offset h = 2**(8*size-1) as
# slot bytes); narrower words come later and overwrite wider ones.
_WORD_SLOTS = {w: _word_slot(size, _WORD_CODES[size])
               for size in (8, 4, 2, 1) if size in _WORD_CODES
               for w in range(1, size + 1)}

# integer operands shorter than this on either side multiply by schoolbook;
# from this length on the one-term packed sum wins on motive products
_KRONECKER_MIN_LEN = 9


def _slot(w: int) -> tuple:
    """The slot for values c with -2**(8w-1) <= c < 2**(8w-1).

    A native word of 1, 2, 4 or 8 bytes when one holds ``w`` bytes
    (``_WORD_SLOTS``), else ``w`` bytes on the arbitrary-precision byte
    path (empty typecode).
    """
    return _WORD_SLOTS.get(w) or _word_slot(w, "")


# Slots hold signed values in offset binary: c is stored as c + h, which
# lies in [0, X) for X = 2**(8*size) and -h <= c < h, so no slot borrows
# from its neighbour.  c + h is the two's complement word of c with its top
# bit flipped, so one XOR with the packed offsets converts a whole string of
# two's complement words (what ``array`` and ``to_bytes(signed=True)``
# write and ``memoryview.cast`` reads) to offset binary and back.


def _pack(xs, slot) -> int:
    """sum_i xs[i] * X**i as a signed integer, X = 2**(8 * slot size)."""
    size, code, offset = slot
    if code:
        data = array(code, xs).tobytes()
    else:
        data = b"".join([x.to_bytes(size, _ORDER, signed=True) for x in xs])
    offsets = int.from_bytes(offset * len(xs), _ORDER)
    return (int.from_bytes(data, _ORDER) ^ offsets) - offsets


def _unpack(value: int, n: int, slot) -> list[int]:
    """The n entries c_i of value = sum_i c_i * X**i, each -h <= c_i < h."""
    size, code, offset = slot
    offsets = int.from_bytes(offset * n, _ORDER)
    data = ((value + offsets) ^ offsets).to_bytes(n * size, _ORDER)
    if code:
        return memoryview(data).cast(code).tolist()
    return [int.from_bytes(data[i:i + size], _ORDER, signed=True)
            for i in range(0, n * size, size)]


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def _divexact_binomial(rem: list, d0: int, d1: int, s: int, qlen: int) -> list:
    """The qlen coefficients of rem / div for div = d0 + d1 v^s, d0 and d1
    each +1 or -1, so div = d0 (1 + c v^s) with c = d0 * d1.

    The quotient obeys q_i = d0 * rem_i - c * q_(i-s), one linear
    recurrence along each residue class of i mod s, which is a running sum
    (c = -1) or a running sum of alternating signs (c = +1); each class is
    one strided ``itertools.accumulate``.  Run over the whole of rem, the
    recurrence leaves q_i = 0 for every i >= qlen exactly when there is no
    remainder, and raises NonPolynomialError otherwise.  rem may be
    overwritten.
    """
    c = d0 * d1
    if d0 < 0:
        rem = list(map(neg, rem))
    for r in range(min(s, len(rem))):
        xs = rem[r::s]
        if c > 0:
            xs[1::2] = map(neg, xs[1::2])
            xs = list(accumulate(xs))
            xs[1::2] = map(neg, xs[1::2])
            rem[r::s] = xs
        else:
            rem[r::s] = accumulate(xs)
    if any(rem[qlen:]):
        raise NonPolynomialError("Laurent division left a remainder")
    return rem[:qlen]


def _store(poly, coeffs, min_exp: int, ints: bool):
    """Set the slots of ``poly`` to coeffs * v^min_exp with zero ends trimmed.

    ``ints`` says whether every coefficient is an ``int``; returns ``poly``.
    """
    lo = 0
    hi = len(coeffs)
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    if lo == hi:
        object.__setattr__(poly, "min_exp", 0)
        object.__setattr__(poly, "coeffs", ())
        object.__setattr__(poly, "_ints", True)
    else:
        object.__setattr__(poly, "min_exp", min_exp + lo)
        object.__setattr__(poly, "coeffs", tuple(coeffs[lo:hi]))
        object.__setattr__(poly, "_ints", ints)
    return poly


class LaurentPoly:
    """Dense Laurent polynomial in a single variable v.

    ``coeffs[i]`` is the coefficient of ``v**(min_exp + i)``.  Canonical form:
    first and last stored coefficients are nonzero; zero is the empty tuple
    with ``min_exp == 0``.
    """

    __slots__ = ("min_exp", "coeffs", "_ints")

    def __init__(self, coeffs, min_exp: int = 0):
        if not isinstance(coeffs, (list, tuple)):
            coeffs = list(coeffs)
        ints = _int_only(coeffs)
        if not ints:
            coeffs = [_norm_coeff(c) for c in coeffs]
            ints = _int_only(coeffs)
        _store(self, coeffs, min_exp, ints)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def _canonical(cls, coeffs: tuple, min_exp: int, ints: bool) -> "LaurentPoly":
        """Wrap coefficients that are already in canonical form, unchecked.

        ``ints`` says whether every coefficient is an ``int``.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "min_exp", min_exp)
        object.__setattr__(out, "coeffs", coeffs)
        object.__setattr__(out, "_ints", ints)
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(())

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, exp: int, coeff: Coeff = 1) -> "LaurentPoly":
        return cls((coeff,), exp)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exp(self) -> int:
        if not self.coeffs:
            return 0
        return self.min_exp + len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly((other,))
        return self.min_exp == other.min_exp and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its coefficient (and zero equals 0), so it
        # hashes as that number
        if not self.coeffs:
            return hash(0)
        if self.min_exp == 0 and len(self.coeffs) == 1:
            return hash(self.coeffs[0])
        return hash((self.min_exp, self.coeffs))

    def coeff(self, exp: int) -> Coeff:
        i = exp - self.min_exp
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly((other,))
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.max_exp, other.max_exp)
        out = [0] * (hi - lo + 1)
        i = self.min_exp - lo
        out[i:i + len(self.coeffs)] = self.coeffs
        i = other.min_exp - lo
        j = i + len(other.coeffs)
        out[i:j] = map(add, out[i:j], other.coeffs)
        if self._ints and other._ints:
            return _store(object.__new__(LaurentPoly), out, lo, True)
        return LaurentPoly(out, lo)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._canonical(tuple(map(neg, self.coeffs)), self.min_exp,
                                      self._ints)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return LaurentPoly.zero()
            return LaurentPoly([c * other for c in self.coeffs], self.min_exp)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return LaurentPoly.zero()
        if self._ints and other._ints:
            a, b = self.coeffs, other.coeffs
            if len(a) > len(b):
                a, b = b, a
            if len(a) >= _KRONECKER_MIN_LEN:
                return sum_of_products([(1, 0, (Operand(self), Operand(other)))]).poly
            # over the integers the product of the nonzero end coefficients
            # is nonzero, so the product is canonical as it stands
            coeffs = map(a[0].__mul__, b) if len(a) == 1 else _schoolbook(a, b)
            return LaurentPoly._canonical(tuple(coeffs), self.min_exp + other.min_exp,
                                          True)
        return LaurentPoly(_schoolbook(self.coeffs, other.coeffs),
                           self.min_exp + other.min_exp)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a LaurentPoly")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def v_shift(self, k: int) -> "LaurentPoly":
        """Multiply by the monomial v**k."""
        if not self.coeffs:
            return self
        return LaurentPoly._canonical(self.coeffs, self.min_exp + k, self._ints)

    def reciprocal(self) -> "LaurentPoly":
        """Substitute v -> 1/v."""
        return LaurentPoly(tuple(reversed(self.coeffs)), -self.max_exp)

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient in the Laurent polynomial ring.

        Raises NonPolynomialError if the division leaves a remainder.
        """
        if not other.coeffs:
            raise ZeroDivisionError("division by zero LaurentPoly")
        if not self.coeffs:
            return LaurentPoly.zero()
        rem = list(self.coeffs)
        div = other.coeffs
        d0 = div[0]
        qlen = len(rem) - len(div) + 1
        if qlen <= 0:
            raise NonPolynomialError("degree of divisor exceeds dividend")
        if (len(div) > 1 and d0 in (1, -1) and div[-1] in (1, -1)
                and self._ints and other._ints and not any(div[1:-1])):
            return LaurentPoly._canonical(
                tuple(_divexact_binomial(rem, d0, div[-1], len(div) - 1, qlen)),
                self.min_exp - other.min_exp, True)
        quot = [0] * qlen
        int_path = d0 in (1, -1) and self._ints and other._ints
        # quantum integers are half zeros; only the nonzero terms do work
        terms = [(j, dv) for j, dv in enumerate(div) if dv]
        for i in range(qlen):
            c = rem[i]
            if c == 0:
                continue
            q = c * d0 if int_path else Fraction(c) / Fraction(d0)
            quot[i] = q
            for j, dv in terms:
                rem[i + j] -= q * dv
        if any(rem):
            raise NonPolynomialError("Laurent division left a remainder")
        return LaurentPoly(quot, self.min_exp - other.min_exp)

    # -- the operations the rest of the package relies on ------------------

    def eval_at_one(self) -> Coeff:
        """Sum of all coefficients (the Euler-characteristic specialization)."""
        return _norm_coeff(sum(self.coeffs, start=Fraction(0)))

    def is_palindromic(self) -> bool:
        """True iff p(v) == p(1/v)."""
        return self == self.reciprocal()

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "min_exp": self.min_exp,
            "coeffs": [str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LaurentPoly":
        """Inverse of ``to_json``: an int ``min_exp`` and a list of numeral
        strings, each written as ``str`` writes its value, with nonzero
        ends.  Anything else raises ``TypeError`` or ``ValueError``."""
        min_exp, strings = obj["min_exp"], obj["coeffs"]
        if type(min_exp) is not int:
            raise TypeError("min_exp must be an int")
        if type(strings) is not list or not all(type(s) is str for s in strings):
            raise TypeError("coeffs must be a list of strings")
        try:
            p = cls([Fraction(s) if "/" in s else int(s) for s in strings],
                    min_exp)
        except ZeroDivisionError as exc:
            raise ValueError("a coefficient has denominator 0") from exc
        if p.to_json() != {"min_exp": min_exp, "coeffs": strings}:
            raise ValueError("not as to_json writes it")
        return p

    def __repr__(self):
        if not self.coeffs:
            return "LaurentPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.min_exp + i
            if e == 0:
                terms.append(f"{c}")
            elif e == 1:
                terms.append(f"{c}*v")
            else:
                terms.append(f"{c}*v^{e}")
        return "LaurentPoly(" + " + ".join(terms) + ")"


_ZERO = LaurentPoly(())
_ONE = LaurentPoly((1,))


class Operand:
    """An integer ``LaurentPoly`` prepared for :func:`sum_of_products`.

    Its lowest exponent, l1 norm and whether it vanishes at every odd
    offset are computed once; its packing is computed once per slot and
    stride and kept for the life of the operand.  ``coeffs`` holds the
    coefficients at the operand's own stride: every second one from the
    lowest when it vanishes at its odd offsets, else all of them.  An
    operand that ``sum_of_products`` returns builds its ``LaurentPoly``
    only when ``poly`` is first read.  ``LaurentPoly`` is immutable, so a
    packing can never go stale.  Besides the solvers' packed sums,
    ``LaurentPoly.__mul__`` wraps both factors of each long integer product.
    """

    __slots__ = ("_poly", "coeffs", "lo", "norm", "even", "packed")

    def __init__(self, poly: LaurentPoly):
        coeffs = poly.coeffs
        self._poly = poly
        self.lo = poly.min_exp
        self.norm = sum(map(abs, coeffs))
        self.even = not any(coeffs[1::2])
        self.coeffs = coeffs[::2] if self.even else coeffs
        # slot size (stride 2) or minus slot size (stride 1) -> packing
        self.packed = {}

    @property
    def poly(self) -> LaurentPoly:
        poly = self._poly
        if poly is None:
            coeffs = self.coeffs
            if self.even and coeffs:
                spread = [0] * (2 * len(coeffs) - 1)
                spread[::2] = coeffs
                coeffs = spread
            poly = self._poly = LaurentPoly._canonical(tuple(coeffs), self.lo, True)
        return poly


def sum_of_products(terms) -> Operand:
    """sum of sign * v^shift * op_1 * ... * op_r over ``terms``, exactly.

    ``terms`` holds triples (sign, shift, ops) with sign +1 or -1 and ops a
    non-empty sequence of :class:`Operand`.  This is signed Kronecker
    evaluation: every operand is packed at one slot base X (once per operand
    and slot), each product is a big-integer product moved to its place in
    the sum by a shift, and the sum is unpacked once.  The packed sum is
    also the packing of the result at that slot, so the returned operand
    starts out with it.  It is the package's one Kronecker kernel:
    ``LaurentPoly.__mul__`` makes each long integer product a one-term sum.

    Slot: every coefficient of the sum is bounded in absolute value by
    sum_terms prod_ops ||op||_1, so a slot of w bytes with that bound below
    h = 2**(8w-1) holds it in offset binary without borrowing (``_unpack``).
    Stride compaction: when every operand vanishes at its odd offsets and
    every term starts at an exponent of the same parity, only even offsets
    are packed; otherwise every offset is.

    Unpacking reads the live slots off the sum itself.  The lowest nonzero
    slot holds the lowest set bit of the sum (each slot value is nonzero
    modulo X), and it is shifted off first.  What is left is
    t = c_0 + c_1 X + ... + c_(n-1) X^(n-1) with c_0, c_(n-1) nonzero and
    sum |c_i| < h = X/2, as the bound holds the l1 norm of the sum.  So
    X^(n-1) / 2 < |t| < h X^(n-1): the bit length of |t| lies in
    [b(n-1), bn - 1] for b = log2 X, and gives n exactly.
    """
    bound = 0
    even = True
    mixed = 0  # the bits in which some term start differs from start0
    spans = []
    for sign, shift, ops in terms:
        norm = 1
        start = shift
        for op in ops:
            norm *= op.norm
            start += op.lo
            if not op.even:
                even = False
        if norm:
            bound += norm
            if spans:
                mixed |= start ^ start0
                if start < lo:
                    lo = start
            else:
                lo = start0 = start
            spans.append((start, sign, ops))
    if not spans:
        return Operand(_ZERO)
    if mixed & 1:
        even = False
    stride = 2 if even else 1
    slot = _slot(bound.bit_length() // 8 + 1)
    size = slot[0]
    key = size if even else -size
    bits = 8 * size
    total = 0
    for start, sign, ops in spans:
        prod = 1
        for op in ops:
            packed = op.packed.get(key)
            if packed is None:
                # at stride 1, an even operand packs its spread coefficients
                packed = op.packed[key] = _pack(
                    op.coeffs if even or not op.even else op.poly.coeffs, slot)
            prod *= packed
        prod <<= bits * ((start - lo) // stride)
        total = total + prod if sign > 0 else total - prod
    if not total:
        return Operand(_ZERO)
    first = ((total & -total).bit_length() - 1) // bits
    if first:
        total >>= bits * first
    coeffs = _unpack(total, abs(total).bit_length() // bits + 1, slot)
    out = object.__new__(Operand)
    out._poly = None
    out.lo = lo + stride * first
    out.norm = sum(map(abs, coeffs))
    if not even:
        even = not any(coeffs[1::2])
        if even:
            coeffs = coeffs[::2]
    out.coeffs = coeffs
    out.even = even
    # the shifted sum is the packing of the result at this slot
    out.packed = {key: total}
    return out


def quantum_integer(n: int) -> LaurentPoly:
    """[n]_v = v^(n-1) + v^(n-3) + ... + v^(1-n); [0]_v = 0."""
    if n < 0:
        raise ValueError("quantum_integer requires n >= 0")
    if n == 0:
        return LaurentPoly.zero()
    coeffs = [0] * (2 * n - 1)
    for i in range(n):
        coeffs[2 * i] = 1
    return LaurentPoly(coeffs, 1 - n)


def _qpoch(p: LaurentPoly, muls, divs, shift: int = 0) -> LaurentPoly:
    """v^shift * p * prod_{i in muls} (1 - q^i) / prod_{i in divs} (1 - q^i),
    q = v^(-2), each i >= 1, in one pass over the coefficient list of p.

    Each factor is 1 - q^i = -v^(-2i) (1 - v^(2i)).  The list is taken at
    stride 2 when p vanishes at its odd offsets, as every motive does, so
    1 - v^(2i) steps i entries, and at stride 1 (2i entries) otherwise.  A
    product by 1 - v^(2i) is one list subtraction, and a quotient one
    ``_divexact_binomial`` at that step (a divisor of an exact quotient
    divides exactly), so a remainder raises ``NonPolynomialError``.  Both
    keep the end coefficients nonzero.  The signs and powers of v are
    applied once, where the list is spread back.
    """
    if not p.coeffs:
        return p
    stride = 1 if any(p.coeffs[1::2]) else 2
    xs = list(p.coeffs[::stride])
    lo = p.min_exp + shift
    sign = 1
    for i in muls:
        if i < 1:
            raise ValueError("q-Pochhammer exponents must be >= 1")
        step = 2 * i // stride
        out = xs + [0] * step
        out[step:] = map(sub, out[step:], xs)
        xs, lo, sign = out, lo - 2 * i, -sign
    for i in divs:
        if i < 1:
            raise ValueError("q-Pochhammer exponents must be >= 1")
        step = 2 * i // stride
        if len(xs) <= step:
            raise NonPolynomialError("degree of divisor exceeds dividend")
        xs = _divexact_binomial(xs, 1, -1, step, len(xs) - step)
        lo, sign = lo + 2 * i, -sign
    if sign < 0:
        xs = list(map(neg, xs))
    if stride == 2:
        spread = [0] * (2 * len(xs) - 1)
        spread[::2] = xs
        xs = spread
    if p._ints:
        return LaurentPoly._canonical(tuple(xs), lo, True)
    return LaurentPoly(xs, lo)


def qpoch_mul(p: LaurentPoly, exps) -> LaurentPoly:
    """p * prod_{i in exps} (1 - q^i), q = v^(-2), each i >= 1: one list
    subtraction per factor (``_qpoch``)."""
    return _qpoch(p, exps, ())


def qpoch_divexact(p: LaurentPoly, exps) -> LaurentPoly:
    """The exact quotient p / prod_{i in exps} (1 - q^i), q = v^(-2), each
    i >= 1: one two-term division per factor (``_qpoch``), so a remainder
    raises ``NonPolynomialError``."""
    return _qpoch(p, (), exps)


def quantum_ratio(c: LaurentPoly, a: int, d: int) -> LaurentPoly:
    """c * [a]_v / [d]_v for a, d >= 1, as an exact Laurent polynomial.

    [a]_v / [d]_v = v^(a-d) (1 - q^a) / (1 - q^d), so this is one list
    subtraction and one two-term division (``_qpoch``), linear in the length
    of c, and raises ``NonPolynomialError`` exactly when c * [a]_v leaves a
    remainder on division by [d]_v.
    """
    return _qpoch(c, (a,), (d,), a - d)


# -- ordinary-polynomial gcd helpers (dense lists, low degree first) --------


def _trim(a: list) -> list:
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _content(a: list[int]) -> int:
    g = 0
    for c in a:
        g = int_gcd(g, abs(c))
        if g == 1:
            break
    return g or 1


def _primitive(a: list[int]) -> list[int]:
    g = _content(a)
    if a[-1] < 0:
        g = -g
    if g != 1:
        a = [c // g for c in a]
    return a


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Fraction-free remainder of a by b (defined up to scaling by lc(b)^k)."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while True:
        a = _trim(a)
        if len(a) - 1 < db or not a:
            return a
        la = a[-1]
        a = [lb * c for c in a]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= la * c
        a = _trim(a)


def _poly_gcd_int(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two nonzero primitive integer polynomials."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, _primitive(r) if r else []
    return _primitive(a)


def _to_int_list(coeffs) -> tuple[list[int], Fraction]:
    """Scale a rational coefficient list to a primitive integer list.

    Returns (primitive list, content) with content * list == original.
    """
    denom = 1
    for c in coeffs:
        if isinstance(c, Fraction):
            denom = denom * c.denominator // int_gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    g = _content(ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [c // g for c in ints]
    return ints, Fraction(g, denom)


class RatFunc:
    """Normalized quotient of two Laurent polynomials in v.

    Canonical form: num and den coprime over the polynomial ring after
    clearing v-powers, den with lowest term 1*v^0.  All v-power content sits
    in the numerator, so equality is structural.  A Laurent-valued RatFunc
    has den == 1; when its numerator has integer coefficients it is built
    without any gcd or Fraction work.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = _ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den.coeffs == (1,) and num._ints:
            # num / v^k is canonical once the v-power moves into num
            object.__setattr__(self, "num", num.v_shift(-den.min_exp))
            object.__setattr__(self, "den", _ONE)
            return
        if num.is_zero():
            object.__setattr__(self, "num", LaurentPoly.zero())
            object.__setattr__(self, "den", LaurentPoly.one())
            return
        shift = num.min_exp - den.min_exp
        n_int, n_cont = _to_int_list(list(num.coeffs))
        d_int, d_cont = _to_int_list(list(den.coeffs))
        if len(n_int) > 1 and len(d_int) > 1:
            g = _poly_gcd_int(n_int, d_int)
            if len(g) > 1:
                g = LaurentPoly(g)
                n_int = LaurentPoly(n_int).divexact(g).coeffs
                d_int = LaurentPoly(d_int).divexact(g).coeffs
        scale = n_cont / (d_cont * d_int[0])
        den_coeffs = [Fraction(c, d_int[0]) for c in d_int]
        num_coeffs = [c * scale for c in n_int]
        object.__setattr__(self, "num", LaurentPoly(num_coeffs, shift))
        object.__setattr__(self, "den", LaurentPoly(den_coeffs, 0))

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def _canonical(cls, num: LaurentPoly, den: LaurentPoly) -> "RatFunc":
        """Wrap a pair that is already in canonical form, unchecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(LaurentPoly.zero())

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(LaurentPoly.one())

    @classmethod
    def of(cls, x) -> "RatFunc":
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(LaurentPoly((x,)))
        if isinstance(x, LaurentPoly):
            return cls(x)
        raise TypeError(f"cannot lift {x!r} to RatFunc")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            if not isinstance(other, (int, Fraction, LaurentPoly)):
                return NotImplemented
            other = RatFunc.of(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a Laurent-valued RatFunc equals its numerator, so hashes as it
        if self.is_laurent():
            return hash(self.num)
        return hash((self.num, self.den))

    def __add__(self, other):
        if not isinstance(other, RatFunc):
            if not isinstance(other, (int, Fraction, LaurentPoly)):
                return NotImplemented
            other = RatFunc.of(other)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        # negating the numerator keeps num and den coprime and den normalized
        return RatFunc._canonical(-self.num, self.den)

    def __sub__(self, other):
        if not isinstance(other, RatFunc):
            if not isinstance(other, (int, Fraction, LaurentPoly)):
                return NotImplemented
            other = RatFunc.of(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            if not isinstance(other, (int, Fraction, LaurentPoly)):
                return NotImplemented
            other = RatFunc.of(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, RatFunc):
            if not isinstance(other, (int, Fraction, LaurentPoly)):
                return NotImplemented
            other = RatFunc.of(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero RatFunc")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFunc.of(other) / self

    def v_shift(self, k: int) -> "RatFunc":
        return RatFunc._canonical(self.num.v_shift(k), self.den)

    def to_laurent(self) -> LaurentPoly:
        """Exact quotient num/den, which must be a Laurent polynomial."""
        if self.is_laurent():
            return self.num
        return self.num.divexact(self.den)

    def is_laurent(self) -> bool:
        # a canonical den is 1 exactly when its only coefficient is 1
        return self.den.coeffs == (1,)

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "RatFunc":
        return cls(LaurentPoly.from_json(obj["num"]),
                   LaurentPoly.from_json(obj["den"]))

    def __repr__(self):
        if self.is_laurent():
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"
