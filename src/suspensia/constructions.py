"""The cyclotomic counterexample family and its certification pipeline.

For an odd prime p, the product of the p twisted linear forms
``x0 + e_i*x1*y + e_i^2*x2*y^2 + ... + e_i^(p-1)*x_(p-1)*y^(p-1)`` over the
p-th roots of unity e_1..e_p expands to a polynomial F with rational
coefficients whose y-exponents are all divisible by p.  Two algebras are
built from it: one with the defining equations F = z^2 and y*w = 1, and its
quotient-by-roots partner with G(x, s) = z^2 and s*w^p = 1 where G collapses
y^p into s.  The first carries a nonzero derivation obtained by solving a
Vandermonde system over the roots of unity; the pipeline certifies that it
is well defined and locally nilpotent, and lifts it along y = u^(n/p).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Grading, PresentedAlgebra
from .coeff import CyclotomicField, QQ, is_prime, root_of_unity
from .derivation import DEFAULT_CAP, Derivation, certify_lnd, new_derivation
from .groebner import elimination
from .linalg import solve_linear
from .poly import Context, Polynomial
from .suspension import adjoin_root, lift_along_root

DEFAULT_MAX_PRIME = 7

ENV_MAX_PRIME = "SUSPENSIA_MAX_P"


class ConstructionError(ValueError):
    """Invalid parameters for the counterexample family."""


def prime_ceiling() -> int:
    """Largest admitted prime; expansion size grows like p^p past it."""
    raw = os.environ.get(ENV_MAX_PRIME)
    if raw is None:
        return DEFAULT_MAX_PRIME
    try:
        return int(raw)
    except ValueError:
        raise ConstructionError(f"{ENV_MAX_PRIME} must be an integer, got {raw!r}")


def _check_prime(p: int):
    if not is_prime(p) or p < 3:
        raise ConstructionError(f"need an odd prime, got {p}")
    ceiling = prime_ceiling()
    if p > ceiling:
        raise ConstructionError(
            f"prime {p} exceeds the ceiling {ceiling} (set {ENV_MAX_PRIME} to raise it)"
        )


def x_names(p: int) -> tuple:
    return tuple(f"x{j}" for j in range(p))


def yp_context(p: int) -> Context:
    return Context(CyclotomicField(p), x_names(p) + ("y", "z", "w"))


def xp_context(p: int) -> Context:
    return Context(QQ, x_names(p) + ("s", "z", "w"))


@dataclass(frozen=True)
class LinearForms:
    """The p twisted linear forms; their product is the rational polynomial F."""

    prime: int
    forms: tuple


def linear_forms(p: int) -> LinearForms:
    """Form i is sum_j e_i^j * x_j * y^j with e_i the i-th p-th root of unity."""
    _check_prime(p)
    context = yp_context(p)
    forms = []
    for i in range(1, p + 1):
        eps = root_of_unity(p, i)
        form = Polynomial.zero(context)
        for j in range(p):
            form = form + Polynomial.monomial(
                context, {f"x{j}": 1, "y": j}, eps ** j
            )
        forms.append(form)
    return LinearForms(p, tuple(forms))


def build_F(p: int):
    """Expand the product of the linear forms and collapse its y-powers.

    Returns (F, G) over Q: F in variables x0..x_(p-1), y and G in
    x0..x_(p-1), s with G(x, y^p) = F.  The two conversions check what the
    construction relies on: a coefficient that does not descend to Q raises
    ``CoefficientError`` and a y-exponent that p does not divide raises
    ``PowerCollapseError``.  Either would indicate an arithmetic defect, not
    bad input.
    """
    forms = linear_forms(p)
    product = Polynomial.one(forms.forms[0].context)
    for form in forms.forms:
        product = product * form
    f_ctx = Context(QQ, x_names(p) + ("y",))
    F = product.convert(f_ctx)
    g_ctx = Context(QQ, x_names(p) + ("s",))
    G = F.convert(g_ctx, ("y", "s", Fraction(1, p)))
    return F, G


def build_Yp(p: int, F: Polynomial | None = None) -> PresentedAlgebra:
    """The algebra on x0..x_(p-1), y, z, w with F = z^2 and y*w = 1.

    The basis is taken under the elimination order with block {z}.  Its
    lead monomials are then z^2 and y*w, which are coprime, so by
    Buchberger's first criterion the two relations already form the
    reduced basis.  Under grevlex the lead of F - z^2 is an x-monomial
    sharing y with y*w, and Buchberger has to build a third, large element.
    """
    if F is None:
        F, _ = build_F(p)
    context = yp_context(p)
    Fc = F.convert(context)
    z = Polynomial.variable(context, "z")
    y = Polynomial.variable(context, "y")
    w = Polynomial.variable(context, "w")
    return PresentedAlgebra(context, [Fc - z * z, y * w - 1], order=elimination("z"))


def build_Xp(p: int, G: Polynomial | None = None):
    """The partner algebra with G = z^2 and s*w^p = 1, plus its grading.

    The weights x_j -> 2, z -> p, s -> 0, w -> 0 make both relations
    homogeneous (of degrees 2p and 0); grading rejection here would be an
    internal failure.  As for ``build_Yp``, the block {z} makes the lead
    monomials z^2 and s*w^p coprime, so the relations are the basis.
    """
    if G is None:
        _, G = build_F(p)
    context = xp_context(p)
    Gc = G.convert(context)
    z = Polynomial.variable(context, "z")
    s = Polynomial.variable(context, "s")
    w = Polynomial.variable(context, "w")
    weights = {name: 2 for name in x_names(p)}
    weights.update({"z": p, "s": 0, "w": 0})
    row = tuple(weights[name] for name in context.variables)
    algebra = PresentedAlgebra(
        context,
        [Gc - z * z, s * w ** p - 1],
        order=elimination("z"),
        gradings={"weights": [row]},
    )
    return algebra, algebra.gradings["weights"]


def yp_weight_row(p: int) -> tuple:
    """Weights x_j -> 2, z -> p, y -> 0, w -> 0 in the first algebra's order."""
    weights = {name: 2 for name in x_names(p)}
    weights.update({"y": 0, "z": p, "w": 0})
    return tuple(weights[name] for name in yp_context(p).variables)


def vandermonde_matrix(p: int):
    """Rows (1, e_i, e_i^2, ..., e_i^(p-1)) over the p-th roots of unity."""
    eps = [root_of_unity(p, i) for i in range(1, p + 1)]
    return [[e ** j for j in range(p)] for e in eps]


def build_vandermonde_lnd(p: int, algebra: PresentedAlgebra | None = None) -> Derivation:
    """Solve for the derivation pinned by its values on the linear forms.

    The constraints are: first form maps to 2*z*y^(p-1), the others map to
    zero, and y, w map to zero.  Written on the unknowns d(x_j)*y^j this is
    a linear system whose matrix is the Vandermonde matrix of the distinct
    roots of unity, hence uniquely solvable.  The solved image of x_j is a
    constant times z*y^(p-1-j), a polynomial since 0 <= j <= p-1.  The image
    of z is y^(p-1) times the product of the last p-1 linear forms.
    """
    if algebra is None:
        algebra = build_Yp(p)
    context = algebra.context
    field = context.field
    matrix = vandermonde_matrix(p)
    rhs = [field.coerce(2 if i == 0 else 0) for i in range(p)]
    constants = solve_linear(matrix, rhs)

    images = {"y": Polynomial.zero(context), "w": Polynomial.zero(context)}
    for j in range(p):
        images[f"x{j}"] = Polynomial.monomial(context, {"z": 1, "y": p - 1 - j}, constants[j])
    forms = linear_forms(p).forms
    z_image = Polynomial.monomial(context, {"y": p - 1})
    for form in forms[1:]:
        z_image = z_image * form
    images["z"] = z_image
    return new_derivation(algebra, images)


def build_fmj_pair(k: int):
    """The even-order pair: a rigid cubic-type hypersurface and its root partner.

    Returns the algebras of x^2 + y^2*s^3 + z^3 = 0 and of
    x^2 + y^2*u^(6k) + z^3 = 0.  No certification is attached; the pair is
    provided as data for the even case of the gcd criterion.
    """
    if k < 1:
        raise ConstructionError(f"need k >= 1, got {k}")
    x_ctx = Context(QQ, ("x", "y", "s", "z"))
    x = Polynomial.variable(x_ctx, "x")
    y = Polynomial.variable(x_ctx, "y")
    s = Polynomial.variable(x_ctx, "s")
    z = Polynomial.variable(x_ctx, "z")
    rigid = PresentedAlgebra(x_ctx, [x ** 2 + y ** 2 * s ** 3 + z ** 3])
    y_ctx = Context(QQ, ("x", "y", "u", "z"))
    x = Polynomial.variable(y_ctx, "x")
    y = Polynomial.variable(y_ctx, "y")
    u = Polynomial.variable(y_ctx, "u")
    z = Polynomial.variable(y_ctx, "z")
    flexible = PresentedAlgebra(y_ctx, [x ** 2 + y ** 2 * u ** (6 * k) + z ** 3])
    return rigid, flexible


@dataclass
class YpBundle:
    """Everything the pipeline builds and certifies for one prime."""

    p: int
    n: int
    F: Polynomial
    G: Polynomial
    Yp: PresentedAlgebra
    Xp: PresentedAlgebra
    grading: Grading
    derivation: Derivation
    lifted_algebra: PresentedAlgebra
    lifted_derivation: Derivation
    report: dict


def certify_bundle(p: int, n: int, cap: int = DEFAULT_CAP) -> YpBundle:
    """Run the whole family construction for prime p dividing n.

    Builds both algebras, the solved derivation with its certificates, and
    the lift along y = u^(n/p); emits a JSON-ready report.  Every certificate
    must come back certified for the bundle to report ok.
    """
    _check_prime(p)
    if n < p or n % p:
        raise ConstructionError(f"n must be a multiple of p, got n={n}, p={p}")
    F, G = build_F(p)
    Yp = build_Yp(p, F)
    Xp, grading = build_Xp(p, G)
    derivation = build_vandermonde_lnd(p, Yp)
    lnd = certify_lnd(derivation, cap)

    e = n // p
    lifted_algebra = adjoin_root(Yp, "y", "u", e)
    lifted_lnd = lift_along_root(lnd, lifted_algebra, "y", "u", e, cap=cap)
    lifted = lifted_lnd.derivation

    shared = [name for name in Yp.variables if name != "y"]
    orders_match = all(lifted_lnd.orders[g] == lnd.orders[g] for g in shared)

    y_index = F.context.index("y")
    report = {
        "p": p,
        "n": n,
        "cap": cap,
        "field": Yp.field.text,
        "divisibility": {
            "allYExponentsDivisible": all(
                m[y_index] % p == 0 for m in F.terms
            ),
            "coefficientsRational": True,
        },
        "imageBranches": {f"x{j}": "direct-power" for j in range(p)},
        "wellDefined": derivation.well_defined.to_json(),
        "lnd": lnd.to_json(),
        "grading": {
            "matrix": [list(row) for row in grading.matrix],
            "relationDegrees": [
                next(iter(r.weighted_components(grading.matrix[0])), 0)
                for r in Xp.relations
            ],
        },
        "lift": {
            "power": e,
            "variable": "u",
            "wellDefined": lifted.well_defined.to_json(),
            "lnd": lifted_lnd.to_json(),
            "ordersMatchSource": orders_match,
        },
        "ok": lnd.certified and lifted_lnd.certified and orders_match,
    }
    return YpBundle(
        p, n, F, G, Yp, Xp, grading, derivation, lifted_algebra, lifted, report
    )
