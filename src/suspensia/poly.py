"""Sparse multivariate polynomials over an exact coefficient field.

A polynomial stores its terms as a dict from exponent tuples (one entry per
context variable) to nonzero coefficients.  The canonical text form uses
``^`` for powers and ``*`` between factors, with terms in graded-lex order;
it is exactly the format the expression parser reads back.

Polynomials are immutable, and all operations return new values.  The term
dict sits in a private slot that only this module and ``groebner`` read;
``context`` and ``terms`` are read-only properties, and ``terms`` is a
read-only mapping over that dict (``dict(p.terms)`` gives a copy).  With
``groebner``, this is the only module that builds exponent tuples, so the
loops over monomials that others need live here: ``_leibniz``, ``_sum``,
``_occurring``, ``_packed``, ``_unpacked``, and ``_monomial`` for the
parser's running term.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import add, itemgetter, lshift, mul
from types import MappingProxyType

from .coeff import CoefficientError, CyclotomicNumber, _integer, _integers
from .coeff import _coefficient_text, _power, _signed_sum

#: A variable name, and an identifier in expression text: ASCII letters,
#: digits and '_', not starting with a digit.
NAME_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(NAME_PATTERN)


class ContextError(ValueError):
    """Variable or context misuse: unknown names, mixed contexts."""


class PowerCollapseError(ValueError):
    """A root rewrite hit an exponent that the power does not divide."""

    def __init__(self, message: str, witness: str):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Context:
    """A coefficient field together with an ordered tuple of variable names."""

    field: object
    variables: tuple

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        seen = set()
        for name in self.variables:
            if not isinstance(name, str) or not _IDENT_RE.fullmatch(name):
                raise ContextError(f"invalid variable name {name!r}")
            if name in seen:
                raise ContextError(f"duplicate variable name {name!r}")
            seen.add(name)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ContextError(f"unknown variable {name!r}") from None


def monomial_weight(mono, weights) -> int:
    return sum(e * w for e, w in zip(mono, weights) if e)


def monomial_text(context: Context, mono) -> str:
    parts = []
    for name, e in zip(context.variables, mono):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _gradedlex_key(mono):
    return (sum(mono), mono)


class Polynomial:
    __slots__ = ("_context", "_terms")

    def __init__(self, context: Context, terms=None):
        self._context = context
        self._terms = _accumulate({}, _checked_pairs(context, terms) if terms else ())

    @classmethod
    def _raw(cls, context: Context, terms: dict) -> Polynomial:
        # trusted constructor: terms already canonical for this context
        poly = object.__new__(cls)
        poly._context = context
        poly._terms = terms
        return poly

    @property
    def context(self) -> Context:
        return self._context

    @property
    def terms(self) -> MappingProxyType:
        """The terms, exponent tuple -> nonzero coefficient, as a read-only mapping."""
        return MappingProxyType(self._terms)

    @classmethod
    def zero(cls, context: Context) -> Polynomial:
        return cls._raw(context, {})

    @classmethod
    def constant(cls, context: Context, value) -> Polynomial:
        coeff = context.field.coerce(value)
        if not coeff:
            return cls.zero(context)
        return cls._raw(context, {(0,) * context.nvars: coeff})

    @classmethod
    def one(cls, context: Context) -> Polynomial:
        return cls.constant(context, 1)

    @classmethod
    def variable(cls, context: Context, name: str) -> Polynomial:
        exponents = [0] * context.nvars
        exponents[context.index(name)] = 1
        return cls._raw(context, {tuple(exponents): context.field.one})

    @classmethod
    def monomial(cls, context: Context, exponents, coeff=1) -> Polynomial:
        """Build a single term; exponents is a dict name -> exponent or a tuple."""
        if isinstance(exponents, dict):
            exps = [0] * context.nvars
            for name, e in exponents.items():
                exps[context.index(name)] = e
            exponents = tuple(exps)
        return cls(context, {tuple(exponents): coeff})

    # ------------------------------------------------------------------
    # arithmetic

    def _operand(self, other):
        if isinstance(other, Polynomial):
            if other._context != self._context:
                raise ContextError("polynomials from different contexts")
            return other
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return Polynomial.constant(self._context, other)
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return Polynomial._raw(self._context, _accumulate(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        negated = ((m, -c) for m, c in other._terms.items())
        return Polynomial._raw(self._context, _accumulate(dict(self._terms), negated))

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Polynomial._raw(
            self._context, {m: -c for m, c in self._terms.items()}
        )

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return Polynomial._raw(self._context, _product(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = _integer(n, 0, ValueError, "polynomial power must be a non-negative integer")
        if len(self._terms) == 1:
            (mono, coeff), = self._terms.items()
            return Polynomial._raw(self._context, {tuple(map(mul, mono, repeat(n))): coeff**n})
        return _power(self, n, Polynomial.one(self._context))

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self._context == other._context and self._terms == other._terms
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            try:
                return self._terms == self._operand(other)._terms
            except CoefficientError:  # a scalar outside the field equals no polynomial
                return False
        return NotImplemented

    def __bool__(self):
        return bool(self._terms)

    # ------------------------------------------------------------------
    # structure queries

    def is_constant(self) -> bool:
        return all(not any(m) for m in self._terms)

    def constant_value(self):
        if not self._terms:
            return self._context.field.zero
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self.text()}")
        return next(iter(self._terms.values()))

    def degree_in(self, name: str) -> int:
        i = self._context.index(name)
        return max((m[i] for m in self._terms), default=0)

    def coefficient(self, mono):
        return self._terms.get(tuple(mono), self._context.field.zero)

    def diff(self, name: str) -> Polynomial:
        """Formal partial derivative with respect to one variable.

        Lowering one exponent is injective and c*e != 0 over a field of
        characteristic 0, so no two terms merge and none cancels.
        """
        i = self._context.index(name)
        return Polynomial._raw(self._context, {
            mono[:i] + (mono[i] - 1,) + mono[i + 1:]: coeff * mono[i]
            for mono, coeff in self._terms.items() if mono[i]
        })

    # ------------------------------------------------------------------
    # weighted degrees

    def _check_weights(self, weights):
        weights = _integers(weights)
        if weights is None:
            raise ContextError("weights must be integers")
        if len(weights) != self._context.nvars:
            raise ContextError(
                f"weight vector length {len(weights)} does not match "
                f"{self._context.nvars} variables"
            )
        return weights

    def weighted_degree(self, weights):
        """Max weight of the monomials, or None for the zero polynomial."""
        weights = self._check_weights(weights)
        if not self._terms:
            return None
        return max(monomial_weight(m, weights) for m in self._terms)

    def weighted_components(self, weights) -> dict:
        """Split into weight-homogeneous parts, keyed by weighted degree."""
        weights = self._check_weights(weights)
        buckets = {}
        for mono, coeff in self._terms.items():
            buckets.setdefault(monomial_weight(mono, weights), {})[mono] = coeff
        return {
            deg: Polynomial._raw(self._context, part)
            for deg, part in sorted(buckets.items())
        }

    # ------------------------------------------------------------------
    # maps between contexts

    def substitute(self, bindings: dict, into: Context | None = None) -> Polynomial:
        """Image under the evaluation map sending bound variables to polynomials.

        Unbound variables must exist (by name) in the target context, and
        every binding must lie in it, whether or not its variable occurs.
        Within one call, each power image**e is computed the first time a
        monomial needs it and reused by every later monomial.
        """
        target = into if into is not None else self._context
        names = self._context.variables
        images = [bindings[name] if name in bindings else Polynomial.variable(target, name)
                  for name in names]
        for name, g in zip(names, images):
            if not isinstance(g, Polynomial) or g._context != target:
                raise ContextError(f"binding for {name!r} is not in the target context")
        powers = {}

        def term(mono, coeff):
            product = Polynomial.constant(target, coeff)
            for i, e in enumerate(mono):
                if e:
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[(i, e)] = images[i] ** e
                    product = product * power
            return product

        return _sum(target, (term(mono, coeff) for mono, coeff in self._terms.items()))

    def convert(self, into: Context, root: tuple | None = None) -> Polynomial:
        """Reinterpret in another context, mapping variables by name.

        When the fields differ, coefficients are coerced by the target field,
        so Q embeds into any Q(z@p) and a rational-valued cyclotomic
        coefficient descends to Q.  Terms whose images collide are merged.

        ``root = (var, new_var, scale)``, with a positive rational scale, also
        sends var^e to new_var^(e*scale): scale k substitutes var = new_var^k
        and scale 1/k collapses var^k to new_var.  A monomial whose e*scale
        is not an integer raises ``PowerCollapseError`` with it as witness.
        """
        src = self._context
        targets = [into.index(n) if n in into.variables else None for n in src.variables]
        root_index, num, den = None, 1, 1
        if root is not None:
            var, new_var, scale = root
            if scale <= 0:
                raise ValueError("root scale must be positive")
            root_index = src.index(var)
            targets[root_index] = into.index(new_var)
            num, den = scale.numerator, scale.denominator
        # one gather per term: each target slot reads the source exponent that
        # lands on it, and a slot nothing lands on reads a 0 appended to it
        pad = src.nvars
        order = [pad] * into.nvars
        for i, j in enumerate(targets):
            if j is not None and i != root_index:
                order[j] = i
        if root is not None:
            slot = targets[root_index]
            # a root onto a variable already there adds to its exponent
            merge = order[slot] != pad
            if not merge:
                order[slot] = root_index
        padded = pad in order
        pick = itemgetter(*order) if len(order) > 1 else lambda m: tuple(m[i] for i in order)
        # a missing variable and a stray root exponent raise in variable order
        missing = [i for i, j in enumerate(targets) if j is None]
        first = [i for i in missing if root_index is None or i < root_index]
        then = [i for i in missing if i not in first]

        def lost(mono, indices):
            for i in indices:
                if mono[i]:
                    raise ContextError(
                        f"variable {src.variables[i]!r} has no counterpart in the target context"
                    )

        def image(mono):
            if first:
                lost(mono, first)
            exps = pick(mono + (0,) if padded else mono)
            if root_index is not None and mono[root_index]:
                e, stray = divmod(mono[root_index] * num, den)
                if stray:
                    witness = monomial_text(src, mono)
                    message = f"exponent of {var} in {witness} is not divisible by {den}"
                    raise PowerCollapseError(message, witness)
                exps = list(exps)
                exps[slot] = exps[slot] + e if merge else e
                exps = tuple(exps)
            if then:
                lost(mono, then)
            return exps

        coeffs = self._terms.values()
        if into.field != src.field:
            coeffs = map(into.field.coerce, coeffs)
        return Polynomial._raw(into, _accumulate({}, zip(map(image, self._terms), coeffs)))

    # ------------------------------------------------------------------
    # text form

    def sorted_terms(self):
        """Terms in canonical (graded-lex, descending) order."""
        return sorted(
            self._terms.items(), key=lambda kv: _gradedlex_key(kv[0]), reverse=True
        )

    def text(self) -> str:
        """The canonical text form, rendered from the stored integers.

        Within one call, each variable power and each distinct coefficient
        is rendered once; a Q(z@p) coefficient is looked up by its stored
        integers.
        """
        terms = self._terms
        names = self._context.variables
        powers = [{1: name} for name in names]
        coefficients = {}
        pieces = []
        try:
            for mono in sorted(terms, key=_gradedlex_key, reverse=True):
                c = terms[mono]
                key = (c._num, c._den) if isinstance(c, CyclotomicNumber) else c
                piece = coefficients.get(key)
                if piece is None:
                    piece = coefficients[key] = _coefficient_text(c)
                factors = []
                for name, row, e in zip(names, powers, mono):
                    if e:
                        power = row.get(e)
                        if power is None:
                            power = row[e] = f"{name}^{e}"
                        factors.append(power)
                if factors:
                    sign, body = piece
                    mono_text = "*".join(factors)
                    piece = (sign, mono_text if body == "1" else f"{body}*{mono_text}")
                pieces.append(piece)
            return _signed_sum(pieces)
        except ValueError:  # str() of an integer past sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            raise CoefficientError(f"a number has too many digits to print (limit {limit})") from None

    __str__ = text

    def __repr__(self):
        return f"Polynomial({self.text()!r})"


def _accumulate(out: dict, pairs) -> dict:
    """Merge (monomial, coefficient) pairs into ``out`` and return it.

    The one loop that adds a coefficient into a term dict.  Every incoming
    coefficient must be nonzero, so only a collision can cancel, and a sum
    that cancels is dropped.  ``out`` is mutated: pass a dict that no
    polynomial holds yet; a polynomial's stored terms are never written.
    """
    get = out.get
    for mono, coeff in pairs:
        prev = get(mono)
        if prev is None:
            out[mono] = coeff
        else:
            coeff = prev + coeff
            if coeff:
                out[mono] = coeff
            else:
                del out[mono]
    return out


def _product(left: dict, right: dict) -> dict:
    """The term dict of the product of two term dicts, merged row by row.

    A one-term operand c*m shifts the other's exponents by m and scales its
    coefficients by c unless c is 1: no two products collide, so the terms
    keep the merge's order.
    """
    if len(right) != 1:
        if len(left) != 1:
            right = right.items()
            return _accumulate({}, (
                (tuple(map(add, m1, m2)), c1 * c2) for m1, c1 in left.items() for m2, c2 in right
            ))
        left, right = right, left
    (shift, scale), = right.items()
    if scale == 1:
        return {tuple(map(add, m, shift)): c for m, c in left.items()}
    return {tuple(map(add, m, shift)): c * scale for m, c in left.items()}


def _monomial(context: Context, exponents: list, coeff) -> Polynomial:
    """The one-term polynomial coeff * x^exponents, or 0 if coeff is 0.

    Trusted: ``exponents`` holds one non-negative int per variable and
    ``coeff`` lies in the context's field.
    """
    return Polynomial._raw(context, {tuple(exponents): coeff} if coeff else {})


def _sum(context: Context, polys, scalars=None) -> Polynomial:
    """The sum of polynomials of one context, each times its nonzero scalar if given.

    The terms are accumulated into one dict; no scalar past the last is drawn.
    """
    out = {}
    for f, s in zip(polys, repeat(1) if scalars is None else scalars):
        terms = f._terms.items()
        _accumulate(out, terms if s == 1 else ((m, c * s) for m, c in terms))
    return Polynomial._raw(context, out)


def _leibniz(context: Context, f: Polynomial, images) -> Polynomial:
    """The sum over the variables v of (df/dv) * images[v], images in variable order.

    Each product is made in one pass and no partial derivative is built as
    a polynomial: for a v with images[v] != 0 that occurs in f, the terms
    c*m of f with m_v > 0 become (m - e_v, c*m_v), and their pairs with the
    terms of images[v] merge into a fresh dict.  The first nonempty product
    is the running sum and each later one merges into it, so the terms keep
    the order of adding the products one at a time.
    """
    terms = f._terms.items()
    out = {}
    for i, image in enumerate(images):
        image = image._terms
        if not image:
            continue
        lowered = {
            m[:i] + (m[i] - 1,) + m[i + 1:]: c if m[i] == 1 else c * m[i]
            for m, c in terms if m[i]
        }
        if not lowered:
            continue
        partial = _product(lowered, image)
        if out:
            _accumulate(out, partial.items())
        else:
            out = partial
    return Polynomial._raw(context, out)


def _occurring(f: Polynomial) -> set:
    """The indices of the variables that occur in f."""
    return set(chain.from_iterable(map(compress, repeat(range(f._context.nvars)), f._terms)))


def _packed(polys) -> tuple:
    """Fields (offset, mask), one per variable, and each poly's terms with packed monomials.

    A field holds the sum over ``polys`` of their largest exponents in its
    variable, so adding packed monomials, one from each poly, carries nothing.
    """
    fields, offset = [], 0
    for v in range(polys[0]._context.nvars):
        bits = sum(max((m[v] for m in f._terms), default=0) for f in polys).bit_length()
        fields.append((offset, (1 << bits) - 1))
        offset += bits
    offsets = [at for at, _ in fields]
    return fields, [
        [(sum(map(lshift, m, offsets)), c) for m, c in f._terms.items()] for f in polys
    ]


def _unpacked(context: Context, fields, terms: dict) -> Polynomial:
    """The polynomial of a dict from packed monomials to nonzero coefficients."""
    return Polynomial._raw(context, {
        tuple((m >> at) & mask for at, mask in fields): c for m, c in terms.items()
    })


def _checked_pairs(context: Context, terms: dict):
    """The (monomial, coefficient) pairs of a raw term dict, checked and coerced.

    Each exponent vector must hold one non-negative integer per variable;
    coefficients are coerced into the context's field, and a zero is dropped.
    """
    nv = context.nvars
    coerce = context.field.coerce
    for raw, coeff in terms.items():
        mono = _integers(raw)
        if mono is None or len(mono) != nv or min(mono, default=0) < 0:
            raise ContextError(f"bad exponent vector {raw} for {context.variables}")
        coeff = coerce(coeff)
        if coeff:
            yield mono, coeff
