"""The cyclotomic counterexample family and its certification pipeline.

For an odd prime p, the product of the p twisted linear forms
``L_i = x0 + e_i*x1*y + e_i^2*x2*y^2 + ... + e_i^(p-1)*x_(p-1)*y^(p-1)``
over the p-th roots of unity e_1..e_p expands to a polynomial F with
rational coefficients whose y-exponents are all divisible by p.  Two
algebras are built from it: Yp with the defining equations F = z^2 and
y*w = 1, and its quotient-by-roots partner Xp with G(x, s) = z^2 and
s*w^p = 1 where G collapses y^p into s.  Yp carries a nonzero derivation D
obtained by solving a Vandermonde system over the roots of unity; the
pipeline certifies that it is well defined and locally nilpotent, and lifts
it along y = u^(n/p).

The product P = L_2*...*L_p is multiplied out once (``form_products``); F is
L_1*P and D(z) is y^(p-1)*P.  D is certified from its values on the forms,
without expanding a Leibniz image of F or iterating D
(``build_vandermonde_lnd`` checks the premises, ``certify_family_lnd``
draws the orders).  The premises are computed exactly:

* D(L_1) = 2*z*y^(p-1) and D(L_i) = 0 for i >= 2, as polynomials;
* the algebra is Yp as ``build_Yp`` presents it: its relations are
  L_1*P - z^2 and y*w - 1, under the elimination order with block {z};
* D(y) = D(w) = 0, every D(x_j) = c_j*z*y^(p-1-j) with c_j nonzero, and
  D(z) is nonzero and already a normal form.

P is a product of elements of ker D, so D(P) = 0 by the Leibniz rule.
Hence D(L_1*P - z^2) = D(L_1)*P - 2*z*D(z) = 2*z*y^(p-1)*P - 2*z*y^(p-1)*P
= 0 as a polynomial, which is the witness for the first relation, and
D(y*w - 1) = 0 since D kills y and w.  For the orders (Freudenburg,
*Algebraic Theory of Locally Nilpotent Derivations*, ch. 1): y and w are
units killed by D, so nu(y) = nu(w) = 0.  D(z) = y^(p-1)*P is nonzero and
D^2(z) = y^(p-1)*D(P) = 0, so nu(z) = 1.  D(x_j) = c_j*z*y^(p-1-j) has
order at most nu(z) = 1 by the degree-function law nu(fg) <= nu(f) + nu(g),
so nu(x_j) <= 2; D^2(x_j) = c_j*y^(p-1-j)*D(z) is a unit times the nonzero
D(z), and a nonzero D^U(x) has order exactly U, so nu(x_j) = 2.  These are
the laws ``derivation._orbits`` uses; a generator whose order exceeds the
cap is reported inconclusive, as ``certify_lnd`` reports it.

A derivation loaded from a file takes the generic route instead:
``new_derivation`` expands the Leibniz image of every relation and
``certify_lnd`` iterates every generator's orbit.  For the family, that
route is the tests' oracle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Grading, PresentedAlgebra
from .coeff import CyclotomicField, QQ, is_prime, root_of_unity
from .derivation import (
    DEFAULT_CAP,
    Derivation,
    DerivationError,
    LNDCertificate,
    RelationCheck,
    WellDefinedness,
)
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


@dataclass(frozen=True)
class FormProducts:
    """P = L_2*...*L_p and L_1*P over Q(z@p), each multiplied out once.

    ``form_products`` is the only builder.  ``build_F`` descends ``full`` to
    Q, and ``build_vandermonde_lnd`` takes ``tail`` to be the product of the
    forms L_2..L_p and ``full`` to be L_1*tail without multiplying again.
    """

    forms: LinearForms
    tail: Polynomial
    full: Polynomial


def form_products(p: int) -> FormProducts:
    """Multiply the last p-1 linear forms together, then by the first."""
    forms = linear_forms(p)
    tail = Polynomial.one(forms.forms[0].context)
    for form in forms.forms[1:]:
        tail = tail * form
    return FormProducts(forms, tail, forms.forms[0] * tail)


def _products_for(p: int, products: FormProducts | None) -> FormProducts:
    if products is None:
        return form_products(p)
    if products.forms.prime != p:
        raise ConstructionError(
            f"form products of prime {products.forms.prime} given for p={p}"
        )
    return products


def build_F(p: int, products: FormProducts | None = None):
    """Descend the product of the linear forms to Q and collapse its y-powers.

    Returns (F, G) over Q: F = L_1*P in variables x0..x_(p-1), y and G in
    x0..x_(p-1), s with G(x, y^p) = F.  ``products`` shares the expansion
    with the rest of the pipeline.  The two conversions check what the
    construction relies on: a coefficient that does not descend to Q raises
    ``CoefficientError`` and a y-exponent that p does not divide raises
    ``PowerCollapseError``.  Either would indicate an arithmetic defect, not
    bad input.
    """
    products = _products_for(p, products)
    f_ctx = Context(QQ, x_names(p) + ("y",))
    F = products.full.convert(f_ctx)
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


def build_vandermonde_lnd(
    p: int, algebra: PresentedAlgebra | None = None, products: FormProducts | None = None
) -> Derivation:
    """Solve for the derivation pinned by its values on the linear forms.

    The constraints are: first form maps to 2*z*y^(p-1), the others map to
    zero, and y, w map to zero.  Written on the unknowns d(x_j)*y^j this is
    a linear system whose matrix is the Vandermonde matrix of the distinct
    roots of unity, hence uniquely solvable.  The solved image of x_j is a
    constant times z*y^(p-1-j), a polynomial since 0 <= j <= p-1.  The image
    of z is y^(p-1) times P, the product of the last p-1 linear forms.

    The well-definedness witnesses come from the proof in the module
    docstring, whose premises are checked here: ``algebra`` must be Yp(p)
    as ``build_Yp`` presents it (else ``ConstructionError``), and a premise
    on the solved images that fails raises ``DerivationError``.
    """
    products = _products_for(p, products)
    if algebra is None:
        algebra = build_Yp(p, build_F(p, products)[0])
    context = products.full.context
    if algebra.context != context:
        raise ConstructionError(f"algebra is not Yp({p}): its variables or field differ")
    y, z, w = (Polynomial.variable(context, name) for name in ("y", "z", "w"))
    relations = (products.full - z * z, y * w - 1)
    if (algebra.relations, algebra.order) != (relations, elimination("z")):
        raise ConstructionError(
            f"algebra is not Yp({p}): relations or order differ from build_Yp's"
        )

    field = context.field
    rhs = [field.coerce(2 if i == 0 else 0) for i in range(p)]
    constants = solve_linear(vandermonde_matrix(p), rhs)
    if not all(constants):
        raise DerivationError("a solved constant c_j is zero")
    images = {"y": Polynomial.zero(context), "w": Polynomial.zero(context)}
    for j in range(p):
        images[f"x{j}"] = Polynomial.monomial(context, {"z": 1, "y": p - 1 - j}, constants[j])
    images["z"] = Polynomial.monomial(context, {"y": p - 1}) * products.tail
    resolved = {name: algebra.element(images[name]) for name in algebra.variables}
    if not images["z"] or any(resolved[n].rep != images[n] for n in algebra.variables):
        raise DerivationError("an image is zero or not a normal form of Yp")

    derivation = Derivation(algebra, resolved, None)
    forms = products.forms.forms
    first_image = Polynomial.monomial(context, {"z": 1, "y": p - 1}, 2)
    if derivation.leibniz_image(forms[0]) != first_image:
        raise DerivationError("the first linear form does not map to 2*z*y^(p-1)")
    if any(derivation.leibniz_image(form) for form in forms[1:]):
        raise DerivationError("a linear form L_i with i >= 2 does not map to 0")

    zero = Polynomial.zero(context)
    witnesses = WellDefinedness(tuple(RelationCheck(r, zero, zero) for r in relations))
    return Derivation(algebra, resolved, witnesses)


def certify_family_lnd(
    p: int,
    algebra: PresentedAlgebra | None = None,
    cap: int = DEFAULT_CAP,
    products: FormProducts | None = None,
) -> LNDCertificate:
    """The solved derivation of Yp(p) with its nilpotency certificate.

    ``build_vandermonde_lnd`` checks the premises and refuses what fails
    them; the orders x_j -> 2, z -> 1, y, w -> 0 then follow from the proof
    in the module docstring, with no orbit iterated.  A generator whose
    order exceeds ``cap`` is inconclusive, so the certificate equals what
    ``certify_lnd(derivation, cap)`` gives.
    """
    derivation = build_vandermonde_lnd(p, algebra, products)
    orders = {"y": 0, "z": 1, "w": 0, **dict.fromkeys(x_names(p), 2)}
    names = derivation.algebra.variables
    return LNDCertificate(
        derivation,
        cap,
        {name: orders[name] for name in names if orders[name] <= cap},
        tuple(name for name in names if orders[name] > cap),
    )


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

    Builds both algebras, the solved derivation with its certificates (from
    the linear forms, see the module docstring), and the lift along
    y = u^(n/p); emits a JSON-ready report.  Every certificate
    must come back certified for the bundle to report ok.
    """
    _check_prime(p)
    if n < p or n % p:
        raise ConstructionError(f"n must be a multiple of p, got n={n}, p={p}")
    products = form_products(p)
    F, G = build_F(p, products)
    Yp = build_Yp(p, F)
    Xp, grading = build_Xp(p, G)
    lnd = certify_family_lnd(p, Yp, cap, products)
    del products  # P is as large as D(z); free it before the lift copies D(z)
    derivation = lnd.derivation

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
