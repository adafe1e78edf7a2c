"""Suspension-type extensions of presented algebras.

A suspension adjoins fresh variables y1..ym to an algebra and imposes the
single relation y1^k1 * ... * ym^km = f for a non-constant f.  This module
builds those extensions, reports the gcd criterion on the exponents, equips
multi-variable suspensions with their torus weight matrix, and lifts
certified nilpotent derivations upward.

Root adjunction (var = new_var^k) in both directions, and the transport of
a derivation along it, is one exponent rewrite, ``Polynomial.convert`` with
a root: var^e becomes new_var^(e*k) or new_var^(e/k), with no evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce

from .algebra import AlgebraElement, PresentedAlgebra
from .derivation import InconclusiveError, LNDCertificate, certify_lnd, new_derivation
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


def gcd_criterion(exponents) -> CriterionReport:
    """Classify suspension exponents by their gcd."""
    ks = tuple(int(k) for k in exponents)
    if not ks or any(k < 1 for k in ks):
        raise SuspensionError("exponents must be positive integers")
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
    ks = tuple(int(k) for k in exponents)
    if not ks or any(k < 1 for k in ks):
        raise SuspensionError("exponents must be positive integers")
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

    context = Context(base.field, base.variables + names)
    product = Polynomial.one(context)
    for name, k in zip(names, ks):
        product = product * Polynomial.variable(context, name) ** k
    relations = [r.convert(context) for r in base.relations]
    relations.append(product - f.rep.convert(context))
    extended = PresentedAlgebra(context, relations)
    return extended, SuspensionSpec(base, f, ks, names)


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


def _certified_lift(certificate: LNDCertificate, algebra: PresentedAlgebra,
                    images: dict, cap: int | None) -> LNDCertificate:
    """Build the lifted derivation and certify it, by default within the source cap."""
    lifted = certify_lnd(
        new_derivation(algebra, images), certificate.cap if cap is None else cap
    )
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
    lift.  Needs the derivation to kill the suspension function; the lift
    keeps all base images and sends every suspension variable to zero.  The
    result is re-certified (well-definedness and nilpotency) from scratch.
    """
    derivation = certificate.derivation
    if not derivation.algebra.same_presentation(spec.base):
        raise SuspensionError("derivation does not live on the suspension base")
    if not certificate.certified:
        raise InconclusiveError("cannot lift: source derivation is not certified")
    df = derivation.apply(spec.function)
    if df:
        raise SuspensionError(
            f"derivation does not kill the suspension function: image has "
            f"normal form {df.rep.text()}"
        )
    images = {
        name: derivation.images[name].rep.convert(extended.context)
        for name in spec.base.variables
    }
    for name in spec.suspension_variables:
        images[name] = Polynomial.zero(extended.context)
    return _certified_lift(certificate, extended, images, cap)


def _check_root(context: Context, var: str, new_var: str, power: int) -> None:
    """Reject a power below 1, a var the source lacks and a new_var it has."""
    if not isinstance(power, int) or power < 1:
        raise SuspensionError("root power must be a positive integer")
    context.index(var)
    if new_var in context.variables:
        raise SuspensionError(f"variable {new_var!r} already exists in the algebra")


def _rewrite_root(
    algebra: PresentedAlgebra, var: str, new_var: str, scale
) -> PresentedAlgebra:
    """Rename var to the fresh new_var and rewrite var^e as new_var^(e*scale).

    The fresh variable takes var's place in the context and in the order.
    """
    context = algebra.context
    names = list(context.variables)
    names[context.index(var)] = new_var
    new_context = Context(context.field, tuple(names))
    root = (var, new_var, scale)
    relations = [r.convert(new_context, root) for r in algebra.relations]
    return PresentedAlgebra(new_context, relations, algebra.order.renamed(var, new_var))


def adjoin_root(
    algebra: PresentedAlgebra, var: str, new_var: str, power: int
) -> PresentedAlgebra:
    """Substitute var = new_var^power throughout the presentation.

    The forward direction of root adjunction; always valid.  The old variable
    disappears and the fresh one takes its position, in the context and in
    the algebra's monomial order.
    """
    _check_root(algebra.context, var, new_var, power)
    return _rewrite_root(algebra, var, new_var, power)


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
    return _rewrite_root(algebra, var, new_var, Fraction(1, power))


def lift_along_root(
    certificate: LNDCertificate,
    lifted_algebra: PresentedAlgebra,
    var: str,
    new_var: str,
    power: int,
    cap: int | None = None,
) -> LNDCertificate:
    """Transport a certified derivation along the substitution var = new_var^power.

    Takes the certificate of the source derivation and returns that of the
    lift.  Requires the derivation to kill var (otherwise the substitution
    does not commute with it); images are rewritten through the substitution
    and the result is re-certified on the new algebra.
    """
    derivation = certificate.derivation
    _check_root(derivation.algebra.context, var, new_var, power)
    dvar = derivation.images[var]
    if dvar:
        raise SuspensionError(
            f"derivation must kill {var!r} to lift along the root substitution; "
            f"its image has normal form {dvar.rep.text()}"
        )
    if not certificate.certified:
        raise InconclusiveError("cannot lift: source derivation is not certified")
    root = (var, new_var, power)
    images = {}
    for name in derivation.algebra.variables:
        target_name = new_var if name == var else name
        images[target_name] = derivation.images[name].rep.convert(
            lifted_algebra.context, root
        )
    return _certified_lift(certificate, lifted_algebra, images, cap)
