"""Buchberger's algorithm, normal forms, ideal membership, and elimination.

This is the quotient-ring engine: a reduced Groebner basis makes equality
modulo an ideal computable through unique remainders.  Plain Buchberger with
the product and chain pair-pruning criteria is enough at the scale this
package targets (a handful of variables and relations).

Every basis element, during Buchberger and in a finished basis, is held as
one ``_Reducer``: its lead monomial, its monic term dict and its tail.

Invariants of a :class:`GroebnerBasis`: it is the reduced basis of its ideal
under its order, its generators are monic and sorted ascending by lead
monomial, and it holds the reducers and the order's key function that
``buchberger`` or ``eliminate`` computed it with, so neither is built again.
It is frozen: reductions against one basis write nothing and may run
concurrently.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import add, itemgetter, le, neg, sub

from .poly import Context, ContextError, Polynomial, _accumulate


class OrderError(ValueError):
    """A monomial order incompatible with the requested operation."""


@dataclass(frozen=True)
class MonomialOrder:
    """A total monomial order compatible with multiplication.

    kind is one of "lex", "grevlex", "elimination"; elimination orders sort
    every monomial containing a block variable above every monomial without,
    with grevlex ties inside each block.
    """

    kind: str
    block: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "block", tuple(self.block))
        if self.kind not in ("lex", "grevlex", "elimination"):
            raise OrderError(f"unknown monomial order kind {self.kind!r}")
        if self.kind != "elimination":
            if self.block:
                raise OrderError(f"a {self.kind} order takes no elimination block")
        elif not self.block:
            raise OrderError("elimination order needs at least one block variable")
        elif len(set(self.block)) != len(self.block):
            raise OrderError("repeated variable in elimination block")

    def renamed(self, var: str, new_var: str) -> MonomialOrder:
        """The same order with var renamed to new_var inside the block."""
        return MonomialOrder(
            self.kind, tuple(new_var if v == var else v for v in self.block)
        )

    def key_for(self, context: Context):
        """Return a key function on exponent tuples; larger key = larger monomial."""
        if self.kind == "lex":
            return lambda m: m
        if self.kind == "grevlex":
            return lambda m: (sum(m), *map(neg, reversed(m)))
        idx = tuple(context.index(v) for v in self.block)
        rest = tuple(i for i in range(context.nvars) if i not in set(idx))
        # one gather puts each block's exponents in reversed order
        gather = idx[::-1] + rest[::-1]
        pick = itemgetter(*gather) if len(gather) > 1 else tuple
        nb = len(idx)

        def key(m):
            v = pick(m)
            b = v[:nb]
            r = v[nb:]
            return (sum(b), *map(neg, b), sum(r), *map(neg, r))

        return key


def lex() -> MonomialOrder:
    return MonomialOrder("lex")


def grevlex() -> MonomialOrder:
    return MonomialOrder("grevlex")


def elimination(*variables: str) -> MonomialOrder:
    return MonomialOrder("elimination", variables)


class _Reducer:
    """A basis element: lead monomial, monic term dict, non-lead term pairs,
    and the lead's nonzero (index, exponent) pairs, its ``support``."""

    __slots__ = ("lm", "terms", "tail", "support")

    def __init__(self, terms: dict, keyf):
        lm = max(terms, key=keyf)
        lc = terms[lm]
        if lc == -1:
            terms = {m: -c for m, c in terms.items()}
        elif lc != 1:
            inv = 1 / lc
            terms = {m: c * inv for m, c in terms.items()}
        self.lm = lm
        self.terms = terms
        self.tail = [(m, c) for m, c in terms.items() if m != lm]
        self.support = tuple((i, e) for i, e in enumerate(lm) if e)


def _divides(a, b) -> bool:
    return all(map(le, a, b))


def _reduce_terms(terms: dict, reducers, keyf) -> dict:
    """The remainder of a term dict; only its contents are canonical, not its order.

    Each term is tested against the leads once, as it enters; only reducible
    ones are keyed and heaped, the largest first, for their first dividing
    reducer.  The rest form the remainder, so a normal form is returned as
    it is after one scan and no key.
    """

    def reducer_of(mono):
        for i, g in enumerate(reducers):
            for j, e in g.support:
                if mono[j] < e:
                    break
            else:
                return i
        return None

    heap = []
    for mono in terms:
        i = reducer_of(mono)
        if i is not None:
            heap.append((tuple(map(neg, keyf(mono))), mono, i))
    if not heap:
        return terms
    work = dict(terms)
    heapq.heapify(heap)
    while heap:
        _, mono, i = heapq.heappop(heap)
        coeff = work.pop(mono, None)
        if coeff is None:
            continue
        reducer = reducers[i]
        shift = tuple(map(sub, mono, reducer.lm))
        for mg, cg in reducer.tail:
            t = tuple(map(add, mg, shift))
            prev = work.get(t)
            if prev is None:
                work[t] = -coeff * cg
                j = reducer_of(t)
                if j is not None:
                    heapq.heappush(heap, (tuple(map(neg, keyf(t))), t, j))
            else:
                val = prev - coeff * cg
                if val:
                    work[t] = val
                else:
                    del work[t]
    return work


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """The S-polynomial of f and g under the given order."""
    if f.context != g.context:
        raise ContextError("polynomials from different contexts")
    keyf = order.key_for(f.context)
    terms = _s_poly_terms(_Reducer(f._terms, keyf), _Reducer(g._terms, keyf))
    return Polynomial._raw(f.context, terms)


def _s_poly_terms(f: _Reducer, g: _Reducer) -> dict:
    """The S-polynomial of two reducers, as a term dict."""
    lcm = tuple(map(max, f.lm, g.lm))
    shift_f = tuple(map(sub, lcm, f.lm))
    out = {tuple(map(add, m, shift_f)): c for m, c in f.terms.items()}
    shift_g = tuple(map(sub, lcm, g.lm))
    return _accumulate(out, ((tuple(map(add, m, shift_g)), -c) for m, c in g.terms.items()))


@dataclass(frozen=True)
class GroebnerBasis:
    """The reduced Groebner basis of an ideal, built from its reducers (module docstring)."""

    context: Context
    order: MonomialOrder
    _reducers: tuple = field(repr=False, compare=False)
    _key: object = field(repr=False, compare=False)
    generators: tuple = field(init=False)

    def __post_init__(self):
        generators = tuple(Polynomial._raw(self.context, r.terms) for r in self._reducers)
        object.__setattr__(self, "generators", generators)

    def normal_form(self, f: Polynomial) -> Polynomial:
        """The unique remainder of f against this basis."""
        if f._context != self.context:
            raise ContextError("polynomial does not live in the basis context")
        if not self._reducers:
            return f
        terms = _reduce_terms(f._terms, self._reducers, self._key)
        return f if terms is f._terms else Polynomial._raw(self.context, terms)

    def is_unit_ideal(self) -> bool:
        return any(g and g.is_constant() for g in self.generators)


def buchberger(
    generators, order: MonomialOrder | None = None, context: Context | None = None
) -> GroebnerBasis:
    """Compute the reduced Groebner basis of the ideal the generators span."""
    generators = list(generators)
    if context is None:
        if not generators:
            raise ContextError("cannot infer a context from no generators")
        context = generators[0].context
    order = order if order is not None else grevlex()
    for g in generators:
        if g.context != context:
            raise ContextError("generators from different contexts")
    keyf = order.key_for(context)
    basis = [_Reducer(g._terms, keyf) for g in generators if g]

    def lcm_of(i, j):
        return tuple(map(max, basis[i].lm, basis[j].lm))

    pairs = {}
    for i in range(len(basis)):
        for j in range(i):
            pairs[(j, i)] = keyf(lcm_of(j, i))

    while pairs:
        (i, j) = min(pairs, key=lambda p: (pairs[p], p))
        del pairs[(i, j)]
        lcm = lcm_of(i, j)
        # product criterion: coprime lead monomials never yield new elements
        if all(a + b == c for a, b, c in zip(basis[i].lm, basis[j].lm, lcm)):
            continue
        # chain criterion: a third element dividing the lcm, with both of its
        # pairs already handled, makes this pair redundant
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not _divides(basis[k].lm, lcm):
                continue
            if (min(i, k), max(i, k)) not in pairs and (min(j, k), max(j, k)) not in pairs:
                skip = True
                break
        if skip:
            continue
        s_terms = _s_poly_terms(basis[i], basis[j])
        remainder = _reduce_terms(s_terms, basis, keyf) if s_terms else {}
        if remainder:
            basis.append(_Reducer(remainder, keyf))
            t = len(basis) - 1
            for k in range(t):
                pairs[(k, t)] = keyf(lcm_of(k, t))

    return GroebnerBasis(context, order, tuple(_reduce_basis(basis, keyf)), keyf)


def _reduce_basis(basis, keyf) -> list:
    """The reduced basis, sorted by lead monomial, from any Groebner basis.

    Reducing an element of a minimal basis against the others never changes
    any lead monomial, so one pass already gives the unique reduced basis.
    Only a smaller lead monomial divides a term below an element's lead, so
    each element is reduced against the (already reduced) ones before it; an
    element that is already reduced is kept as it is.
    """
    minimal = []
    for r in sorted(basis, key=lambda r: keyf(r.lm)):
        if not any(_divides(m.lm, r.lm) for m in minimal):
            minimal.append(r)
    out = []
    for r in minimal:
        terms = _reduce_terms(r.terms, out, keyf)
        out.append(r if terms is r.terms else _Reducer(terms, keyf))
    return out


def eliminate(basis: GroebnerBasis, drop) -> GroebnerBasis:
    """Intersect the ideal with the subring omitting the dropped variables.

    The basis must already be computed under an elimination order whose block
    is exactly the dropped variable set; the retained elements then form a
    reduced basis of the elimination ideal under grevlex.
    """
    drop = tuple(drop)
    if not drop:
        return basis
    for name in drop:
        basis.context.index(name)
    if basis.order.kind != "elimination" or set(basis.order.block) != set(drop):
        raise OrderError(
            "basis must be computed under an elimination order for exactly "
            f"the dropped variables {sorted(drop)}"
        )
    drop_idx = {basis.context.index(v) for v in drop}
    kept = tuple(v for v in basis.context.variables if v not in drop)
    new_ctx = Context(basis.context.field, kept)
    keyf = grevlex().key_for(new_ctx)
    reducers = [
        _Reducer(g.convert(new_ctx)._terms, keyf)
        for g in basis.generators
        if all(m[i] == 0 for m in g._terms for i in drop_idx)
    ]
    reducers.sort(key=lambda r: keyf(r.lm))
    return GroebnerBasis(new_ctx, grevlex(), tuple(reducers), keyf)
