"""Exact scalar arithmetic over Q and over prime-order cyclotomic fields.

Rational scalars are plain ``fractions.Fraction`` values, which already keep
themselves normalized (coprime numerator/denominator, positive denominator).

A :class:`CyclotomicNumber` is an element of the field obtained by adjoining
a primitive p-th root of unity ``z`` to Q, for prime p.  It is stored in the
power basis ``1, z, ..., z^(p-2)`` as a tuple of p-1 integer numerators over
one shared positive integer denominator.  Normalization invariant: the
denominator is positive and the gcd of the denominator and all numerators
is 1 (zero is all-zero numerators over 1).  Together with reduction modulo
``1 + z + ... + z^(p-1)`` this gives every value exactly one
representation, so equality and hashing compare the stored integers.

Products are an integer convolution, the fold ``z^p = 1`` and
``z^(p-1) = -(1 + z + ... + z^(p-2))``, and one gcd; sums and differences
are integer operations.  A rational operand (``int``, ``Fraction`` or a
value with rational coordinates) scales the numerators instead of running
the convolution.  Inverses use the norm: the product of the p-2 nontrivial
Galois conjugates of a value, divided by the (rational) norm.

Values are immutable and all operations are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import add, floordiv, mul, sub

_ZERO = Fraction(0)
_ONE = Fraction(1)

_FIELD_TEXT_RE = re.compile(r"Q\(z@([0-9]+)\)\Z")

#: The largest order p a field descriptor "Q(z@p)" may name.  A Q(z@p)
#: coefficient holds p-1 integers and its inverse is a product of p-2
#: conjugates, so the work per inversion grows like p^3: a dense one with
#: one-digit coordinates took 0.7 s at p=127 and 2.4 s at p=199 (2-core VM,
#: Python 3.11).  Checked before the trial-division primality test, whose
#: own cost grows like sqrt(p).
MAX_FIELD_ORDER = 200


class CoefficientError(ValueError):
    """Invalid scalar construction, mismatched fields, or division by zero."""


@lru_cache(maxsize=256)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _integers(values) -> tuple | None:
    """``values`` as a tuple of ints when each equals its int(), else None.

    A ``bool`` is refused although True == 1: a flag is not a count.
    """
    try:
        raw = tuple(values)
        if set(map(type, raw)) <= {int}:
            return raw
        ints = tuple(map(int, raw))
    except (TypeError, ValueError, OverflowError):
        return None
    return None if ints != raw or bool in map(type, raw) else ints


def _integer(value, low: int, error: type, message: str, high: int | None = None) -> int:
    """``value`` as an int (by the ``_integers`` rule) in low..high, else ``error(message)``."""
    ints = _integers((value,))
    if ints is None or ints[0] < low or (high is not None and ints[0] > high):
        raise error(message)
    return ints[0]


def _power(base, n: int, one):
    """base**n for an int n >= 0 by square-and-multiply; the last squaring is skipped."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def stored_integers(c) -> tuple:
    """The integers a coefficient is stored as: numerators, then denominator."""
    if isinstance(c, CyclotomicNumber):
        return c.integers()
    return (c.numerator, c.denominator)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise CoefficientError(f"expected a rational value, got {value!r}")


# --- integer kernels on numerator tuples of length p-1 --------------------


def _convolve(p: int, a: tuple, b: tuple) -> tuple:
    """Product of two integer coordinate tuples, reduced mod 1 + ... + z^(p-1)."""
    conv = [0] * (2 * p - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    conv[j] += x * y
    # z^p = 1 folds index k + p onto k; then z^(p-1) = -(1 + z + ... + z^(p-2))
    top = conv[p - 1]
    return tuple(conv[t] + conv[t + p] - top for t in range(p - 1))


def _conjugate(p: int, a: tuple, k: int) -> tuple:
    """The Galois image z -> z^k of an integer coordinate tuple."""
    dense = [0] * p
    for i, x in enumerate(a):
        dense[i * k % p] += x
    top = dense[p - 1]
    return tuple(dense[t] - top for t in range(p - 1))


def _is_rational(num: tuple) -> bool:
    return not any(num[1:])


class CyclotomicNumber:
    """Element of the field Q(z) with z a primitive p-th root of unity."""

    __slots__ = ("_p", "_num", "_den")

    def __init__(self, p: int, coeffs) -> None:
        p = CyclotomicField(p).p
        coeffs = [_as_fraction(c) for c in coeffs]
        if len(coeffs) != p - 1:
            raise CoefficientError(
                f"expected {p - 1} coordinates for order {p}, got {len(coeffs)}"
            )
        # the lcm of reduced denominators leaves no common factor behind
        den = lcm(*(c.denominator for c in coeffs))
        self._p = p
        self._num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self._den = den

    @property
    def p(self) -> int:
        """The prime order of the root of unity z."""
        return self._p

    @property
    def coeffs(self) -> tuple:
        """The p-1 coordinates in the power basis, as Fractions."""
        den = self._den
        return tuple(Fraction(n, den) for n in self._num)

    def integers(self) -> tuple:
        """The integer numerators of the coordinates, then their common denominator."""
        return (*self._num, self._den)

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other._p != self._p:
                raise CoefficientError(
                    f"mixed cyclotomic orders {self._p} and {other._p}"
                )
            return other
        if isinstance(other, int):
            return _rational(self._p, other, 1)
        if isinstance(other, Fraction):
            return _rational(self._p, other.numerator, other.denominator)
        return None

    def _scale(self, n: int, d: int) -> CyclotomicNumber:
        """Multiply by the rational n/d (d > 0)."""
        if not n:
            return _rational(self._p, 0, 1)
        if n == 1 and d == 1:
            return self
        num = self._num if n == 1 else tuple(map(mul, self._num, repeat(n)))
        return _reduced(self._p, num, self._den * d)

    def _combine(self, other, op):
        """Apply op (add or sub) coordinatewise over a common denominator."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._num, other._num
        da, db = self._den, other._den
        if da == db:
            return _reduced(self._p, tuple(map(op, a, b)), da)
        num = tuple(map(op, map(mul, a, repeat(db)), map(mul, b, repeat(da))))
        return _reduced(self._p, num, da * db)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _new(self._p, tuple(-x for x in self._num), self._den)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale(other, 1)
        if isinstance(other, Fraction):
            return self._scale(other.numerator, other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._num, other._num
        if _is_rational(b):
            return self._scale(b[0], other._den)
        if _is_rational(a):
            return other._scale(a[0], self._den)
        return _reduced(self._p, _convolve(self._p, a, b), self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> CyclotomicNumber:
        p, a = self._p, self._num
        if not any(a):
            raise CoefficientError("division by zero")
        if _is_rational(a):
            n = a[0]
            return _rational(p, self._den if n > 0 else -self._den, abs(n))
        # a * prod_{k=2}^{p-1} sigma_k(a) is the norm of a: a nonzero integer,
        # and positive, because the conjugates pair up as complex conjugates
        cofactor = _conjugate(p, a, 2)
        for k in range(3, p):
            cofactor = _convolve(p, cofactor, _conjugate(p, a, k))
        norm = _convolve(p, a, cofactor)[0]
        return _reduced(p, tuple(map(mul, cofactor, repeat(self._den))), norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        ints = _integers((n,))
        if ints is None:
            return NotImplemented
        k = _root_exponent(self, self._p)
        if k is not None:  # z^k to any integer power n is z^(k*n mod p)
            return _root(self._p, k * ints[0] % self._p)
        base, n = (self, ints[0]) if ints[0] >= 0 else (self.inverse(), -ints[0])
        return _power(base, n, _rational(self._p, 1, 1))

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            return (
                self._p == other._p
                and self._den == other._den
                and self._num == other._num
            )
        if isinstance(other, int):
            return self._den == 1 and self._num[0] == other and _is_rational(self._num)
        if isinstance(other, Fraction):
            return (
                self._den == other.denominator
                and self._num[0] == other.numerator
                and _is_rational(self._num)
            )
        return NotImplemented

    def __hash__(self):
        if _is_rational(self._num):
            return hash(Fraction(self._num[0], self._den))
        return hash((self._p, self._num, self._den))

    def __bool__(self):
        return any(self._num)

    def is_rational(self) -> bool:
        return _is_rational(self._num)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise CoefficientError(f"value does not lie in Q: {self}")
        return Fraction(self._num[0], self._den)

    def __str__(self) -> str:
        return _cyclotomic_text(self._p, self._num, self._den)

    def __repr__(self):
        return f"CyclotomicNumber({self._p}, {self})"


# --- text: one renderer for signed sums of terms ---------------------------


def _rational_text(n: int, d: int) -> tuple:
    """The rational n/d (n != 0, d > 0, in lowest terms) as (sign, body), as str() prints |n/d|."""
    return (-1 if n < 0 else 1, str(abs(n)) if d == 1 else f"{abs(n)}/{d}")


def _cyclotomic_text(p: int, num: tuple, den: int) -> str:
    """The signed sum of a Q(z@p) value's nonzero coordinates, each reduced by one gcd."""
    sym = f"z@{p}"
    terms = []
    for k, n in enumerate(num):
        if n:
            g = gcd(n, den)
            sign, body = _rational_text(n // g, den // g)
            if k:
                power = sym if k == 1 else f"{sym}^{k}"
                body = power if body == "1" else f"{body}*{power}"
            terms.append((sign, body))
    return _signed_sum(terms)


def _coefficient_text(c) -> tuple:
    """A coefficient as (sign, body), with body "1" for 1 and -1.

    An irrational Q(z@p) coefficient is parenthesized and keeps its own
    signs; a rational one is printed from its numerator and denominator.
    """
    if isinstance(c, CyclotomicNumber):
        num, den = c._num, c._den
        if not _is_rational(num):
            return (1, f"({_cyclotomic_text(c._p, num, den)})")
        return _rational_text(num[0], den)
    return _rational_text(c.numerator, c.denominator)


def _signed_sum(terms) -> str:
    """Join (sign, body) pairs as "a - b + c"; "0" when there are none."""
    out = "".join((" + " if sign > 0 else " - ") + body for sign, body in terms)
    if not out:
        return "0"
    return out[3:] if out[1] == "+" else "-" + out[3:]


# --- trusted constructors: the order is already known to be prime ---------


def _new(p: int, num: tuple, den: int) -> CyclotomicNumber:
    """Wrap numerators and a denominator that already satisfy the invariant."""
    value = object.__new__(CyclotomicNumber)
    value._p = p
    value._num = num
    value._den = den
    return value


def _reduced(p: int, num: tuple, den: int) -> CyclotomicNumber:
    """Normalize integer numerators over a positive denominator."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(map(floordiv, num, repeat(g)))
            den //= g
    return _new(p, num, den)


def _rational(p: int, n: int, d: int) -> CyclotomicNumber:
    """The rational n/d (d > 0) in Q(z@p)."""
    return _reduced(p, (n,) + (0,) * (p - 2), d)


def _root_exponent(c, p: int) -> int | None:
    """k when c is the root power z^k of Q(z@p), 0 <= k < p; else None."""
    if not isinstance(c, CyclotomicNumber) or c._p != p or c._den != 1:
        return None
    num = c._num
    if num.count(1) == 1 and num.count(0) == p - 2:
        return num.index(1)
    # z^(p-1) = -(1 + z + ... + z^(p-2))
    return p - 1 if num.count(-1) == p - 1 else None


def root_of_unity(p: int, i: int) -> CyclotomicNumber:
    """Return the i-th root of unity z^i of prime order p (z^p = 1)."""
    p = CyclotomicField(p).p
    k = _integer(i, 1, CoefficientError, f"root index must lie in 1..{p}, got {i}", p) % p
    return _root(p, k)


def _root(p: int, k: int) -> CyclotomicNumber:
    """z^k in Q(z@p), for a prime p and 0 <= k < p."""
    # z^(p-1) = -(1 + z + ... + z^(p-2))
    num = (-1,) * (p - 1) if k == p - 1 else (0,) * k + (1,) + (0,) * (p - 2 - k)
    return _new(p, num, 1)


@dataclass(frozen=True)
class RationalField:
    """The coefficient field Q; elements are Fraction values."""

    def coerce(self, value) -> Fraction:
        if isinstance(value, CyclotomicNumber):
            return value.rational_value()
        return _as_fraction(value)

    @property
    def zero(self) -> Fraction:
        return _ZERO

    @property
    def one(self) -> Fraction:
        return _ONE

    @property
    def text(self) -> str:
        return "Q"


@dataclass(frozen=True)
class CyclotomicField:
    """The coefficient field Q(z@p) for prime p."""

    p: int

    def __post_init__(self):
        order = _integers((self.p,))
        if order is None or not is_prime(order[0]):
            raise CoefficientError(f"cyclotomic order must be prime, got {self.p}")
        object.__setattr__(self, "p", order[0])

    def coerce(self, value) -> CyclotomicNumber:
        if isinstance(value, CyclotomicNumber):
            if value._p != self.p:
                raise CoefficientError(
                    f"cyclotomic order {value.p} does not match field order {self.p}"
                )
            return value
        value = _as_fraction(value)
        return _rational(self.p, value.numerator, value.denominator)

    @property
    def zero(self) -> CyclotomicNumber:
        return _rational(self.p, 0, 1)

    @property
    def one(self) -> CyclotomicNumber:
        return _rational(self.p, 1, 1)

    @property
    def text(self) -> str:
        return f"Q(z@{self.p})"


QQ = RationalField()


def field_from_text(text: str):
    """Parse a field descriptor: "Q" or "Q(z@p)" for prime p <= MAX_FIELD_ORDER."""
    if text == "Q":
        return QQ
    match = _FIELD_TEXT_RE.match(text)
    if match:
        # compare lengths first, so a huge order is never even parsed
        digits = match.group(1).lstrip("0") or "0"
        if len(digits) > len(str(MAX_FIELD_ORDER)) or int(digits) > MAX_FIELD_ORDER:
            raise CoefficientError(
                f"field order in {text!r} exceeds the limit {MAX_FIELD_ORDER}"
            )
        return CyclotomicField(int(digits))
    raise CoefficientError(f"unknown field descriptor {text!r}")
