"""Suspension-type extensions of presented algebras.

A suspension adjoins fresh variables y1..ym to an algebra and imposes the
single relation y1^k1 * ... * ym^km = f for a non-constant f.  This module
builds those extensions, reports the gcd criterion on the exponents, equips
multi-variable suspensions with their torus weight matrix, and lifts
certified nilpotent derivations upward.

Root adjunction (var = new_var^k) in both directions, and the transport of
a derivation along it, is one exponent rewrite, ``Polynomial.convert`` with
a root: var^e becomes new_var^(e*k) or new_var^(e/k), with no evaluation.

A lift never certifies nilpotency a second time; it transports the source's
orders.  Both extensions are free modules over the source algebra A, since
their new relation is monic in the new variables: A[u]/(u^k - y) has basis
1, u, ..., u^(k-1), and A[y1..ym]/(y1^k1*...*ym^km - f) has the monomials in
y1..ym not divisible by y1^k1*...*ym^km.  So the inclusion phi of A is
injective.  When D kills y (respectively f), the lift D', which sends the
new variables to zero, satisfies D'(phi a) = phi(D a): both sides are
derivations along phi that agree on the generators.  Hence
D'^n(phi x) = phi(D^n x), and by injectivity every source generator keeps
its order, while each new variable has order 0.  This is the restriction
principle for locally nilpotent derivations (Freudenburg, *Algebraic Theory
of Locally Nilpotent Derivations*, ch. 1).  The argument rests on three
premises: D kills y or f, the source is certified, and the target algebra
is the extension that the root data or the suspension data describe.  The
first two are verified exactly, in that order (``_check_lift``) and before
the target's Groebner basis is computed; the third holds by construction,
since each lift builds its target from those data.

Well-definedness is transported the same way (``_transport``): on
polynomials D'(phi r) = phi(D r), so each source witness (r, D(r), 0)
becomes (phi(r), phi(D(r)), 0), and a suspension's new relation
y1^k1*...*ym^km - f gets (that relation, -phi(D(f)), 0).  So the lift is
built with the unchecked ``Derivation._proved`` and ``LNDCertificate._issue``;
rebuilding it with ``new_derivation``, which checks every relation, is the
tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce

from .algebra import AlgebraElement, PresentedAlgebra
from .coeff import _integer, _integers
from .derivation import (
    Derivation,
    InconclusiveError,
    LNDCertificate,
    RelationCheck,
    WellDefinedness,
)
from .poly import Context, ContextError, Polynomial


class SuspensionError(ValueError):
    """Invalid suspension data: constant function, bad exponents, bad lift."""


@dataclass(frozen=True, eq=False)
class SuspensionSpec:
    """The data of one suspension: base, function, exponents, fresh names."""

    base: PresentedAlgebra
    function: AlgebraElement
    exponents: tuple
    suspension_variables: tuple

    @property
    def gcd(self) -> int:
        return reduce(math.gcd, self.exponents)


class Verdict(Enum):
    RIGIDITY_PRESERVED = "rigidity-preserved"
    COUNTEREXAMPLE_POSSIBLE = "counterexample-possible"


@dataclass(frozen=True)
class CriterionReport:
    """Verdict of the gcd test on suspension exponents; set by the gcd alone."""

    exponents: tuple
    gcd: int
    verdict: Verdict
    explanation: str

    def to_json(self) -> dict:
        return {
            "exponents": list(self.exponents),
            "gcd": self.gcd,
            "verdict": self.verdict.value,
            "explanation": self.explanation,
        }


def _exponents(exponents) -> tuple:
    """The exponents as a tuple of ints; each must be a positive integer."""
    ks = _integers(exponents)
    if not ks or any(k < 1 for k in ks):
        raise SuspensionError("exponents must be positive integers")
    return ks


def gcd_criterion(exponents) -> CriterionReport:
    """Classify suspension exponents by their gcd."""
    ks = _exponents(exponents)
    d = reduce(math.gcd, ks)
    if d == 1:
        return CriterionReport(
            ks,
            d,
            Verdict.RIGIDITY_PRESERVED,
            "coprime exponents: a suspension over a rigid base stays rigid "
            "for every choice of base and function",
        )
    return CriterionReport(
        ks,
        d,
        Verdict.COUNTEREXAMPLE_POSSIBLE,
        f"common factor {d} > 1: rigidity can be lost; a base and function "
        "witnessing this exist (see the bundled counterexample family)",
    )


def suspend(base: PresentedAlgebra, function, exponents, names=None):
    """Adjoin y1..ym with y1^k1*...*ym^km = f over the base algebra.

    Returns the extended algebra together with the suspension data.  The
    function must be non-constant in the quotient; a fresh name that is a
    base variable, repeated or invalid, or a count of names other than one
    per exponent, raises ``ContextError``.
    """
    ks = _exponents(exponents)
    f = base.element(function)
    if f.rep.is_constant():
        raise SuspensionError(
            f"suspension function must be non-constant, got {f.rep.text()}"
        )
    if names is None:
        names = tuple(f"y{i + 1}" for i in range(len(ks)))
    else:
        names = tuple(names)
    if len(names) != len(ks):
        raise ContextError("need exactly one fresh variable per exponent")

    context = Context(base.field, base.variables + names)
    product = Polynomial.monomial(context, dict(zip(names, ks)))
    relations = [r.convert(context) for r in base.relations]
    relations.append(product - f.rep.convert(context))
    return PresentedAlgebra(context, relations), SuspensionSpec(base, f, ks, names)


@dataclass(frozen=True, eq=False)
class TorusAction:
    """Integer weights of the rank m-1 torus acting on a suspension.

    Row i scales y_i by t_i^(km/d) and y_m by t_i^(-ki/d); base variables
    are untouched.  Every defining relation has weight zero in every row.
    """

    algebra: PresentedAlgebra
    rows: tuple


def torus_action(extended: PresentedAlgebra, spec: SuspensionSpec) -> TorusAction:
    """The torus weight matrix of a suspension with at least two variables."""
    m = len(spec.exponents)
    if m < 2:
        raise SuspensionError("the torus is trivial for a single suspension variable")
    d = spec.gcd
    ks = spec.exponents
    names = spec.suspension_variables
    last = extended.context.index(names[-1])
    rows = []
    for i in range(m - 1):
        row = [0] * extended.context.nvars
        row[extended.context.index(names[i])] = ks[-1] // d
        row[last] = -(ks[i] // d)
        rows.append(tuple(row))
    for row_index, weights in enumerate(rows):
        for relation in extended.relations:
            comps = relation.weighted_components(weights)
            if any(deg != 0 for deg in comps):
                raise RuntimeError(
                    f"internal error: relation {relation.text()} has nonzero "
                    f"torus weight in row {row_index}"
                )
    return TorusAction(extended, tuple(rows))


def _check_lift(certificate: LNDCertificate, f, image: AlgebraElement) -> None:
    """Refuse a lift unless D kills f (``image`` is D(f)) and the source is certified.

    The kill is checked first: a D that moves f lifts at no cap.
    """
    if image:
        raise SuspensionError(f"derivation does not kill {f}: its image has normal form {image}")
    if not certificate.certified:
        raise InconclusiveError("cannot lift: source derivation is not certified")


def _transport(certificate: LNDCertificate, target: PresentedAlgebra, root=None, added=()):
    """The certificate of the lift of the certified D to ``target`` (module docstring).

    Images, orders and witnesses go through phi, ``Polynomial.convert`` with
    ``root``; other variables get image 0 and order 0.  ``added`` holds the
    witnesses of the target's relations past the phi(r).
    """
    context = target.context
    images = dict.fromkeys(context.variables, target.zero())
    orders = dict.fromkeys(context.variables, 0)
    for name, image in certificate.derivation.images.items():
        lifted = root[1] if root and name == root[0] else name
        images[lifted] = target.element(image.rep.convert(context, root))
        orders[lifted] = certificate.orders[name]
    zero = Polynomial.zero(context)
    checks = tuple(
        RelationCheck(c.relation.convert(context, root), c.image.convert(context, root), zero)
        for c in certificate.derivation.well_defined.checks
    ) + tuple(added)
    if tuple(c.relation for c in checks) != target.relations:
        raise RuntimeError("internal error: the lifted checks do not match the target's relations")
    derivation = Derivation._proved(target, images, WellDefinedness(checks))
    return LNDCertificate._issue(derivation, certificate.cap, orders)


def lift_lnd(certificate: LNDCertificate, function, exponents, names=None) -> LNDCertificate:
    """Lift a certified nilpotent derivation D of the base A to a suspension.

    Returns the certificate of the lift to ``suspend(A, function, exponents,
    names)``, built once D is known to kill f (else ``SuspensionError``) and
    to be certified (else ``InconclusiveError``): it keeps the base images
    and orders, and each y_i has image 0 and order 0 (module docstring).
    """
    derivation = certificate.derivation
    base = derivation.algebra
    f = base.element(function)
    image = derivation.leibniz_image(f.rep)
    _check_lift(certificate, f, base.element(image))
    target = suspend(base, f, exponents, names)[0]
    ctx = target.context
    added = RelationCheck(target.relations[-1], -image.convert(ctx), Polynomial.zero(ctx))
    return _transport(certificate, target, added=(added,))


def _check_root(context: Context, var: str, new_var: str, power: int) -> int:
    """The power as an int; reject a power below 1, a var the source lacks and new_var = var."""
    power = _integer(power, 1, SuspensionError, "root power must be a positive integer")
    context.index(var)
    if new_var == var:
        raise ContextError(f"variable {new_var!r} is not fresh")
    return power


def _root_algebra(algebra: PresentedAlgebra, var: str, new_var: str, scale) -> PresentedAlgebra:
    """Rename var to the fresh new_var and rewrite var^e as new_var^(e*scale).

    The fresh variable takes var's place in the context and in the order.
    """
    context = algebra.context
    names = list(context.variables)
    names[context.index(var)] = new_var
    new_context = Context(context.field, tuple(names))
    root = (var, new_var, scale)
    relations = tuple(r.convert(new_context, root) for r in algebra.relations)
    return PresentedAlgebra(new_context, relations, algebra.order.renamed(var, new_var))


def adjoin_root(
    algebra: PresentedAlgebra, var: str, new_var: str, power: int
) -> PresentedAlgebra:
    """Substitute var = new_var^power throughout the presentation.

    The forward direction of root adjunction; always valid.  The old variable
    disappears and the fresh one takes its position, in the context and in
    the algebra's monomial order.
    """
    power = _check_root(algebra.context, var, new_var, power)
    return _root_algebra(algebra, var, new_var, power)


def collapse_root(
    algebra: PresentedAlgebra, var: str, new_var: str, power: int
) -> PresentedAlgebra:
    """Rewrite var^power as a fresh variable across all relations.

    The reverse direction of root adjunction; only valid when every relation
    uses var in exponents divisible by the power, which is verified monomial
    by monomial (failures carry the offending monomial).  The fresh variable
    takes var's place in the algebra's monomial order as well.
    """
    scale = Fraction(1, _check_root(algebra.context, var, new_var, power))
    return _root_algebra(algebra, var, new_var, scale)


def lift_along_root(
    certificate: LNDCertificate, var: str, new_var: str, power: int
) -> LNDCertificate:
    """Transport a certified derivation D along the substitution var = new_var^power.

    Returns the certificate of the lift to ``adjoin_root(source, var,
    new_var, power)``, built once D is known to kill var (else
    ``SuspensionError``) and to be certified (else ``InconclusiveError``):
    images are rewritten through the substitution, each generator keeps its
    order and new_var takes var's, 0 (module docstring).
    """
    derivation = certificate.derivation
    source = derivation.algebra
    power = _check_root(source.context, var, new_var, power)
    _check_lift(certificate, var, derivation.images[var])
    target = adjoin_root(source, var, new_var, power)
    return _transport(certificate, target, (var, new_var, power))
