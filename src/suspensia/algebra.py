"""Finitely presented commutative algebras and their integer gradings.

An algebra is K[variables]/I for an ideal I given by relation polynomials.
Coset equality is decided through normal forms against a reduced Groebner
basis, computed once at construction.  A grading is an integer weight matrix
(one row per Z-factor) under which every relation, and every reduced basis
element, must be homogeneous; a ``Grading`` checks that when it is built.

The monomial order is part of an algebra's presentation: it fixes the basis
and so the normal-form representative of each coset.  The ideal, and hence
element equality, does not depend on it.  Two algebras with the same context
and relations are the same algebra whatever their orders, and an element
entering an algebra under another order is reduced again on the way in
(:meth:`PresentedAlgebra.element`), so representatives are only ever
compared under one order.

Algebras and their elements refuse attribute writes (``_Frozen``), and
gradings sit in a read-only mapping, so both are safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .coeff import CyclotomicNumber, _integer, _integers, _power
from .groebner import MonomialOrder, buchberger, grevlex
from .linalg import matmul, rank
from .poly import Context, ContextError, Polynomial, monomial_text


class _Frozen:
    """Refuses attribute writes and deletes; its builders fill each slot once (``_fill``)."""

    __slots__ = ()

    def _fill(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class PresentationError(ValueError):
    """The relations generate the unit ideal (the algebra collapses to 0)."""


class GradingError(ValueError):
    """A weight matrix under which some relation is not homogeneous."""

    def __init__(self, message: str, row: int | None = None, witness: str | None = None):
        super().__init__(message)
        self.row = row
        self.witness = witness


class PresentedAlgebra(_Frozen):
    """K[variables]/(relations), with computable equality via normal forms.

    ``order`` is the monomial order of the basis (grevlex by default) and is
    kept as ``algebra.order``.  It decides which representative each coset
    gets, never which cosets are equal; an order whose lead monomials
    follow the relations' structure saves Buchberger work.  ``gradings``
    maps names to weight matrices; each is validated as a ``Grading`` and
    kept under the same name, in a read-only mapping.
    """

    __slots__ = ("context", "relations", "order", "basis", "gradings")

    def __init__(self, context: Context, relations, order: MonomialOrder | None = None,
                 gradings: dict | None = None):
        relations = tuple(relations)
        for r in relations:
            if not isinstance(r, Polynomial) or r.context != context:
                raise ContextError("every relation must be a polynomial in the algebra context")
        order = order if order is not None else grevlex()
        basis = buchberger(relations, order, context)
        if basis.is_unit_ideal():
            raise PresentationError(
                "inconsistent presentation: 1 lies in the relation ideal"
            )
        self._fill(context=context, relations=relations, order=order, basis=basis)
        self._fill(gradings=MappingProxyType({
            name: Grading(self, matrix) for name, matrix in (gradings or {}).items()
        }))

    @property
    def variables(self) -> tuple:
        return self.context.variables

    @property
    def field(self):
        return self.context.field

    def normal_form(self, f: Polynomial) -> Polynomial:
        return self.basis.normal_form(f)

    def element(self, value) -> AlgebraElement:
        """Wrap a polynomial (or scalar, or element) as a canonical coset.

        An element of the same presentation under another order is reduced
        again, so its representative is this algebra's.
        """
        if isinstance(value, AlgebraElement):
            other = value.algebra
            if other is not self:
                if not self.same_presentation(other):
                    raise ContextError("element belongs to a different algebra")
                if other.order != self.order:
                    return AlgebraElement(self, self.normal_form(value.rep))
            return value
        if isinstance(value, (int, Fraction, CyclotomicNumber)):
            value = Polynomial.constant(self.context, value)
        return AlgebraElement(self, self.normal_form(value))

    def variable(self, name: str) -> AlgebraElement:
        return self.element(Polynomial.variable(self.context, name))

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, Polynomial.zero(self.context))

    def one(self) -> AlgebraElement:
        return self.element(Polynomial.one(self.context))

    def same_presentation(self, other) -> bool:
        return (
            isinstance(other, PresentedAlgebra)
            and self.context == other.context
            and self.relations == other.relations
        )

    def __repr__(self):
        rels = ", ".join(r.text() for r in self.relations)
        return f"PresentedAlgebra({self.field.text}[{', '.join(self.variables)}] / ({rels}))"


class AlgebraElement(_Frozen):
    """A coset, stored through its unique normal-form representative."""

    __slots__ = ("algebra", "rep")

    def __init__(self, algebra: PresentedAlgebra, rep: Polynomial):
        # the slots' own setters: elements are built on every operation
        _set_algebra(self, algebra)
        _set_rep(self, rep)

    def _operand(self, other):
        if isinstance(other, (AlgebraElement, int, Fraction, CyclotomicNumber, Polynomial)):
            return self.algebra.element(other)
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        # normal forms are closed under addition, no re-reduction needed
        return AlgebraElement(self.algebra, self.rep + other.rep)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return AlgebraElement(self.algebra, self.rep - other.rep)

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return AlgebraElement(self.algebra, -self.rep)

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return AlgebraElement(self.algebra, self.algebra.normal_form(self.rep * other.rep))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = _integer(n, 0, ValueError, "element power must be a non-negative integer")
        return _power(self, n, self.algebra.one())

    def __eq__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self.rep == other.rep

    def __bool__(self):
        return bool(self.rep)

    def __str__(self):
        return self.rep.text()

    def __repr__(self):
        return f"AlgebraElement({self.rep.text()!r})"


_set_algebra = AlgebraElement.algebra.__set__
_set_rep = AlgebraElement.rep.__set__


@dataclass(frozen=True, eq=False)
class Grading:
    """An integer grading, one weight row per Z-factor, validated when built.

    Every weight must be an integer (a value equal to its int()), and every
    relation and reduced-basis element must be homogeneous under every row
    (``GradingError`` otherwise); the basis guards against term orders
    mixing degrees behind the relations' backs.
    """

    algebra: PresentedAlgebra
    matrix: tuple

    def __post_init__(self):
        algebra = self.algebra
        rows = tuple(_integers(row) for row in self.matrix)
        if None in rows:
            raise GradingError("weights must be integers")
        object.__setattr__(self, "matrix", rows)
        nv = algebra.context.nvars
        for row in rows:
            if len(row) != nv:
                raise GradingError(
                    f"weight row length {len(row)} does not match {nv} variables"
                )
        for r, weights in enumerate(rows):
            for poly, origin in [(p, "relation") for p in algebra.relations] + [
                (p, "basis element") for p in algebra.basis.generators
            ]:
                comps = poly.weighted_components(weights)
                if len(comps) > 1:
                    degs = sorted(comps)
                    # sorted, not dict, order: a remainder's dict order is not canonical
                    m1 = comps[degs[0]].sorted_terms()[0][0]
                    m2 = comps[degs[-1]].sorted_terms()[0][0]
                    witness = (
                        f"{monomial_text(algebra.context, m1) or '1'} (weight {degs[0]}) vs "
                        f"{monomial_text(algebra.context, m2) or '1'} (weight {degs[-1]})"
                    )
                    raise GradingError(
                        f"{origin} {poly.text()} is not homogeneous under row {r}: {witness}",
                        row=r,
                        witness=witness,
                    )

    @property
    def nrows(self) -> int:
        return len(self.matrix)

    def degree(self, value) -> tuple:
        """The multidegree of a homogeneous element; raises if inhomogeneous."""
        rep = value.rep if isinstance(value, AlgebraElement) else value
        if not rep:
            raise ValueError("the zero element has no degree")
        out = []
        for weights in self.matrix:
            comps = rep.weighted_components(weights)
            if len(comps) != 1:
                raise GradingError(
                    f"element {rep.text()} is not homogeneous", witness=rep.text()
                )
            out.append(next(iter(comps)))
        return tuple(out)

    def components(self, value, row: int) -> dict:
        """Graded pieces of an element along one row, as canonical cosets."""
        row = _integer(row, 0, GradingError, f"row {row} out of range for {self.nrows} rows",
                       self.nrows - 1)
        element = self.algebra.element(value)
        return {
            deg: AlgebraElement(self.algebra, part)
            for deg, part in element.rep.weighted_components(self.matrix[row]).items()
        }


def attach_grading(algebra: PresentedAlgebra, matrix) -> Grading:
    """Validate a weight matrix for ``algebra``: the same as ``Grading(algebra, matrix)``."""
    return Grading(algebra, matrix)


def coarsen_grading(grading: Grading, projection) -> Grading:
    """Push a Z^n grading forward along a full-row-rank integer projection."""
    pi = [_integers(row) for row in projection]
    if not pi or None in pi or any(len(row) != grading.nrows for row in pi):
        raise GradingError(
            f"projection must be an integer matrix with rows of length {grading.nrows}"
        )
    if len(pi) > grading.nrows or rank(pi) != len(pi):
        raise GradingError("projection matrix must have full row rank")
    return Grading(grading.algebra, matmul(pi, grading.matrix))
