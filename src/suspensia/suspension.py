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
first two are verified exactly, without a Groebner basis.  For a root, the
lift builds the target itself with ``adjoin_root``; for a suspension, the
target ``suspend`` built is compared with the one the suspension data
describe (same context and relations).  Well-definedness of the lift is
still checked relation by relation, as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce

from .algebra import AlgebraElement, PresentedAlgebra
from .derivation import InconclusiveError, LNDCertificate, new_derivation
from .poly import Context, Polynomial


class SuspensionError(ValueError):
    """Invalid suspension data: constant function, name collision, bad lift."""


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
    raw = tuple(exponents)
    try:
        ks = tuple(int(k) for k in raw)
        integral = ks == raw
    except (TypeError, ValueError):
        integral = False
    if not integral or not ks or any(k < 1 for k in ks):
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
    function must be non-constant in the quotient and the fresh names must
    not collide with base variables.
    """
    ks = _exponents(exponents)
    f = base.element(function)
    if not any(any(m) for m in f.rep.terms):
        raise SuspensionError(
            f"suspension function must be non-constant, got {f.rep.text()}"
        )
    if names is None:
        names = tuple(f"y{i + 1}" for i in range(len(ks)))
    else:
        names = tuple(names)
    if len(names) != len(ks):
        raise SuspensionError("need exactly one fresh variable per exponent")
    collisions = [n for n in names if n in base.variables]
    if collisions or len(set(names)) != len(names):
        raise SuspensionError(f"suspension variable name collision: {collisions or names}")

    spec = SuspensionSpec(base, f, ks, names)
    return PresentedAlgebra(*_suspension_presentation(spec)), spec


def _suspension_presentation(spec: SuspensionSpec) -> tuple:
    """The context and relations of the suspension that ``spec`` describes."""
    base = spec.base
    context = Context(base.field, base.variables + spec.suspension_variables)
    product = Polynomial.one(context)
    for name, k in zip(spec.suspension_variables, spec.exponents):
        product = product * Polynomial.variable(context, name) ** k
    relations = [r.convert(context) for r in base.relations]
    relations.append(product - spec.function.rep.convert(context))
    return context, tuple(relations)


@dataclass(frozen=True, eq=False)
class TorusAction:
    """Integer weights of the rank m-1 torus acting on a suspension.

    Row i scales y_i by t_i^(km/d) and y_m by t_i^(-ki/d); base variables
    are untouched.  Every defining relation has weight zero in every row.
    """

    algebra: PresentedAlgebra
    rows: tuple

    @property
    def variables(self) -> tuple:
        return self.algebra.variables

    def to_json(self) -> dict:
        return {"variables": list(self.variables), "rows": [list(r) for r in self.rows]}


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


def _transported_lift(certificate: LNDCertificate, algebra: PresentedAlgebra,
                      images: dict, orders: dict, cap: int | None) -> LNDCertificate:
    """Build the lifted derivation and give it the source's orders.

    ``orders`` maps each generator of ``algebra`` to the order it inherits
    (see the module docstring).  Well-definedness is checked afresh by
    ``new_derivation``; nilpotency is not iterated again.  The cap defaults
    to the source's, and a generator whose order exceeds it is unresolved,
    so the result is exactly what ``certify_lnd`` would give.
    """
    cap = certificate.cap if cap is None else cap
    lifted = LNDCertificate.from_orders(new_derivation(algebra, images), cap, orders)
    if not lifted.certified:
        raise InconclusiveError("lifted derivation did not certify within the cap")
    return lifted


def lift_lnd(
    certificate: LNDCertificate,
    extended: PresentedAlgebra,
    spec: SuspensionSpec,
    cap: int | None = None,
) -> LNDCertificate:
    """Lift a certified nilpotent derivation of the base to the suspension.

    Takes the certificate of the base derivation and returns that of the
    lift, which keeps all base images and sends every suspension variable
    to zero.  Needs the derivation to kill the suspension function f, and
    ``extended`` to be the suspension ``spec`` describes (same context and
    relations as ``suspend`` builds), else ``SuspensionError``.

    The base A embeds in A[y1..ym]/(y1^k1*...*ym^km - f), a free A-module
    because the relation is monic in the y's, and the lift commutes with the
    embedding because D(f) = 0.  So each base generator keeps its order and
    each y_i has order 0; these orders are copied from the certificate, not
    recomputed.  Well-definedness of the lift is checked afresh.
    """
    derivation = certificate.derivation
    base = derivation.algebra
    if not base.same_presentation(spec.base):
        raise SuspensionError("derivation does not live on the suspension base")
    context, relations = _suspension_presentation(spec)
    if extended.context != context or extended.relations != relations:
        raise SuspensionError("extended algebra is not the suspension its data describe")
    if not certificate.certified:
        raise InconclusiveError("cannot lift: source derivation is not certified")
    df = base.normal_form(derivation.leibniz_image(spec.function.rep))
    if df:
        raise SuspensionError(
            f"derivation does not kill the suspension function: image has "
            f"normal form {df.text()}"
        )
    images = {
        name: derivation.images[name].rep.convert(context) for name in base.variables
    }
    orders = dict(certificate.orders)
    for name in spec.suspension_variables:
        images[name] = Polynomial.zero(context)
        orders[name] = 0
    return _transported_lift(certificate, extended, images, orders, cap)


def _check_root(context: Context, var: str, new_var: str, power: int) -> None:
    """Reject a power below 1, a var the source lacks and a new_var it has."""
    if not isinstance(power, int) or power < 1:
        raise SuspensionError("root power must be a positive integer")
    context.index(var)
    if new_var in context.variables:
        raise SuspensionError(f"variable {new_var!r} already exists in the algebra")


def _root_presentation(algebra: PresentedAlgebra, var: str, new_var: str, scale) -> tuple:
    """Rename var to the fresh new_var and rewrite var^e as new_var^(e*scale).

    Returns the context, relations and order; the fresh variable takes
    var's place in the context and in the order.
    """
    context = algebra.context
    names = list(context.variables)
    names[context.index(var)] = new_var
    new_context = Context(context.field, tuple(names))
    root = (var, new_var, scale)
    relations = tuple(r.convert(new_context, root) for r in algebra.relations)
    return new_context, relations, algebra.order.renamed(var, new_var)


def adjoin_root(
    algebra: PresentedAlgebra, var: str, new_var: str, power: int
) -> PresentedAlgebra:
    """Substitute var = new_var^power throughout the presentation.

    The forward direction of root adjunction; always valid.  The old variable
    disappears and the fresh one takes its position, in the context and in
    the algebra's monomial order.
    """
    _check_root(algebra.context, var, new_var, power)
    return PresentedAlgebra(*_root_presentation(algebra, var, new_var, power))


def collapse_root(
    algebra: PresentedAlgebra, var: str, new_var: str, power: int
) -> PresentedAlgebra:
    """Rewrite var^power as a fresh variable across all relations.

    The reverse direction of root adjunction; only valid when every relation
    uses var in exponents divisible by the power, which is verified monomial
    by monomial (failures carry the offending monomial).  The fresh variable
    takes var's place in the algebra's monomial order as well.
    """
    _check_root(algebra.context, var, new_var, power)
    return PresentedAlgebra(*_root_presentation(algebra, var, new_var, Fraction(1, power)))


def lift_along_root(
    certificate: LNDCertificate,
    var: str,
    new_var: str,
    power: int,
    cap: int | None = None,
) -> LNDCertificate:
    """Transport a certified derivation along the substitution var = new_var^power.

    Takes the certificate of the source derivation and returns that of the
    lift, whose algebra is ``adjoin_root(source, var, new_var, power)``,
    built here once the derivation is known to kill var (otherwise the
    substitution does not commute with it, ``SuspensionError``) and to be
    certified.  Images are rewritten through the substitution.

    The source A embeds in A[new_var]/(new_var^power - var), a free A-module
    with basis 1, new_var, ..., new_var^(power-1), and the lift commutes with
    the embedding because D(var) = 0.  So each generator keeps its order and
    new_var takes var's, which is 0; these orders are copied from the
    certificate, not recomputed.  Well-definedness of the lift is checked
    afresh.
    """
    derivation = certificate.derivation
    source = derivation.algebra
    _check_root(source.context, var, new_var, power)
    dvar = derivation.images[var]
    if dvar:
        raise SuspensionError(
            f"derivation must kill {var!r} to lift along the root substitution; "
            f"its image has normal form {dvar.rep.text()}"
        )
    if not certificate.certified:
        raise InconclusiveError("cannot lift: source derivation is not certified")
    lifted_algebra = adjoin_root(source, var, new_var, power)
    root = (var, new_var, power)
    images = {}
    orders = {}
    for name in source.variables:
        target_name = new_var if name == var else name
        images[target_name] = derivation.images[name].rep.convert(
            lifted_algebra.context, root
        )
        orders[target_name] = certificate.orders[name]
    return _transported_lift(certificate, lifted_algebra, images, orders, cap)
