"""The cyclotomic counterexample family and its certification pipeline.

For an odd prime p, the product of the p twisted linear forms
``L_i = x0 + e_i*x1*y + e_i^2*x2*y^2 + ... + e_i^(p-1)*x_(p-1)*y^(p-1)``
over the p-th roots of unity e_1..e_p expands to a polynomial F with
rational coefficients whose y-exponents are all divisible by p.  Two
algebras are built from it: Yp with the defining equations F = z^2 and
y*w = 1, and its quotient-by-roots partner Xp with G(x, s) = z^2 and
s*w^p = 1 where G collapses y^p into s.  Yp carries a nonzero derivation D
fixed by its values on the forms (a Vandermonde system over the roots of
unity, solved in closed form); the pipeline certifies that it is well
defined and locally nilpotent, and lifts it along y = u^(n/p).

The product P = L_2*...*L_p is multiplied out once (``form_products``); F is
L_1*P and D(z) is y^(p-1)*P.  Every coefficient of a form is a root power
z^k, so the forms are multiplied in the group ring Z[t]/(t^p - 1), each
coefficient packed into one int of p slots, and a coefficient product is a
rotation of the slots (``_root_products``, which shows it exact); ``poly``
packs and unpacks the monomials.
D is certified from its values on the forms, without expanding a Leibniz
image of F or iterating D.
``build_vandermonde_lnd(p)`` builds the forms, P, L_1*P and Yp itself, so Yp
is by construction the algebra with relations L_1*P - z^2 and y*w - 1
(under the elimination order with block {z}), and P is the product of
L_2..L_p.  It checks the remaining premises exactly:

* D(L_1) = 2*z*y^(p-1) and D(L_i) = 0 for i >= 2, as polynomials;
* D(y) = D(w) = 0, every D(x_j) = c_j*z*y^(p-1-j) with c_j nonzero, and
  D(z) is nonzero and already a normal form.

The constants are c_j = (2/p)*e_1^(-j), the inverse discrete Fourier
transform of (2, 0, ..., 0): the sum over j of c_j*e_i^j is 2 for i = 1 and
0 otherwise, which is what the first premise checks.

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
the laws ``derivation._orbits`` uses; ``certify_family_lnd(p, cap)``
reports a generator whose order exceeds the cap inconclusive, as
``certify_lnd`` reports it.

A derivation loaded from a file takes the generic route instead:
``new_derivation`` expands the Leibniz image of every relation and
``certify_lnd`` iterates every generator's orbit.  For the family, that
route is the tests' oracle.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .algebra import Grading, PresentedAlgebra
from .coeff import CyclotomicField, QQ, _integer, _new, _root_exponent, is_prime, root_of_unity
from .derivation import (
    DEFAULT_CAP,
    _BAD_CAP,
    Derivation,
    DerivationError,
    LNDCertificate,
    RelationCheck,
    WellDefinedness,
    certificate_json,
)
from .groebner import elimination
from .parseio import dump_canonical
from .poly import Context, ContextError, Polynomial, _packed, _sum, _unpacked
from .suspension import lift_along_root

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


def _check_prime(p) -> int:
    """p as an int; ``ConstructionError`` unless it is an odd prime within the ceiling."""
    p = _integer(p, 3, ConstructionError, f"need an odd prime, got {p}")
    # compare with the ceiling first, so a huge p is never trial-divided
    ceiling = prime_ceiling()
    if p > ceiling:
        raise ConstructionError(
            f"p = {p} exceeds the ceiling {ceiling} (set {ENV_MAX_PRIME} to raise it)"
        )
    if not is_prime(p):
        raise ConstructionError(f"need an odd prime, got {p}")
    return p


def x_names(p: int) -> tuple:
    return tuple(f"x{j}" for j in range(p))


def yp_context(p: int) -> Context:
    return Context(CyclotomicField(p), x_names(p) + ("y", "z", "w"))


def xp_context(p: int) -> Context:
    return Context(QQ, x_names(p) + ("s", "z", "w"))


def linear_forms(p: int) -> tuple:
    """Form i is sum_j e_i^j * x_j * y^j with e_i the i-th p-th root of unity."""
    p = _check_prime(p)
    context = yp_context(p)
    forms = []
    for i in range(1, p + 1):
        eps = root_of_unity(p, i)
        forms.append(_sum(context, (
            Polynomial.monomial(context, {f"x{j}": 1, "y": j}, eps ** j) for j in range(p)
        )))
    return tuple(forms)


@dataclass(frozen=True)
class FormProducts:
    """P = L_2*...*L_p and L_1*P over Q(z@p), each multiplied out once.

    ``form_products`` is the only builder (see ``_root_products``).
    ``build_F`` descends ``full`` to Q; ``build_vandermonde_lnd`` presents
    Yp from ``full`` and takes D(z) from ``tail``.
    """

    forms: tuple
    tail: Polynomial
    full: Polynomial


def form_products(p: int) -> FormProducts:
    """Multiply the last p-1 linear forms together, then by the first."""
    p = _check_prime(p)
    forms = linear_forms(p)
    return FormProducts(forms, *_root_products(p, forms))


def _root_products(p: int, factors) -> tuple:
    """factors[1]*...*factors[-1], and factors[0] times it, over Q(z@p).

    Every coefficient of every factor must be a root power z^k (0 <= k < p);
    any other raises ``ConstructionError``.  A product is then computed in
    the group ring Z[t]/(t^p - 1), with t standing for z:

    * a coefficient is one int whose p slots of ``width`` bits hold the
      integer multiplicity of t^0..t^(p-1), and z^k starts as 1 << k*width;
    * multiplying by z^k rotates the slots by k (two shifts and a mask), and
      adding two coefficients is one int addition;
    * a monomial is one int with a field per variable (``poly._packed``),
      wide enough for the sum of the factors' largest exponents in it, so
      adding two packed monomials multiplies the monomials without a carry
      between fields.

    Each term product adds +1 to exactly one slot, so no slot exceeds the
    product N of the factors' term counts (an empty factor counted as one
    term), and ``width`` = bitlength(N) + 1 leaves no slot able to overflow
    into the next.  Unpacking maps t^k to z^k and folds
    z^(p-1) = -(1 + ... + z^(p-2)): coordinate t is c_t - c_(p-1).  A
    coefficient whose p slots are all equal is c*(1 + ... + z^(p-1)) = 0 in
    Q(z@p), and is dropped.
    """
    context = factors[0].context
    if any(f.context != context for f in factors):
        raise ContextError("polynomials from different contexts")
    # an empty factors[0] must not shrink the bound for the tail, which omits it
    width = prod(max(len(f.terms), 1) for f in factors).bit_length() + 1
    span = p * width
    ring = (1 << span) - 1
    fields, factor_terms = _packed(factors)

    def rotation(c) -> tuple:
        k = _root_exponent(c, p)
        if k is None:
            raise ConstructionError(f"a factor's coefficient {c} is not a power of z@{p}")
        # z^k: slots move up by k, and the top k wrap round to the bottom
        return k * width, span - k * width

    packed = [[(mono, *rotation(c)) for mono, c in terms] for terms in factor_terms]

    def times(acc: dict, terms: list) -> dict:
        out = {}
        get = out.get
        for m1, c in acc.items():
            for m2, up, down in terms:
                m = m1 + m2
                out[m] = get(m, 0) + (((c << up) & ring) | (c >> down))
        return out

    def unpack(acc: dict) -> Polynomial:
        low = (1 << width) - 1
        ones = ring // low  # 1 in every slot
        below_top = range(0, span - width, width)
        out = {}
        for m, c in acc.items():
            top = c >> (span - width)
            if c != top * ones:
                out[m] = _new(p, tuple(((c >> at) & low) - top for at in below_top), 1)
        return _unpacked(context, fields, out)

    tail = {0: 1}
    for terms in packed[1:]:
        tail = times(tail, terms)
    return unpack(tail), unpack(times(tail, packed[0]))


def build_F(p: int):
    """Descend the product of the linear forms to Q and collapse its y-powers.

    Returns (F, G) over Q: F = L_1*P in variables x0..x_(p-1), y and G in
    x0..x_(p-1), s with G(x, y^p) = F.  The two conversions check what the
    construction relies on: a coefficient that does not descend to Q raises
    ``CoefficientError`` and a y-exponent that p does not divide raises
    ``PowerCollapseError``.  Either would indicate an arithmetic defect, not
    bad input.
    """
    p = _check_prime(p)
    return _descend(p, form_products(p).full)


def _descend(p: int, product: Polynomial):
    """The two conversions of ``build_F``, applied to L_1*P over Q(z@p)."""
    F = product.convert(Context(QQ, x_names(p) + ("y",)))
    G = F.convert(Context(QQ, x_names(p) + ("s",)), ("y", "s", Fraction(1, p)))
    return F, G


def build_Yp(p: int, F: Polynomial | None = None) -> PresentedAlgebra:
    """The algebra on x0..x_(p-1), y, z, w with F = z^2 and y*w = 1.

    The basis is taken under the elimination order with block {z}.  Its
    lead monomials are then z^2 and y*w, which are coprime, so by
    Buchberger's first criterion the two relations already form the
    reduced basis.  Under grevlex the lead of F - z^2 is an x-monomial
    sharing y with y*w, and Buchberger has to build a third, large element.
    """
    p = _check_prime(p)
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
    p = _check_prime(p)
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


def _constants(p: int) -> list:
    """c_j = (2/p)*e_1^(-j): the inverse DFT of (2, 0, ..., 0) over Q(z@p)."""
    eps = root_of_unity(p, 1)
    return [eps ** -j * Fraction(2, p) for j in range(p)]


def build_vandermonde_lnd(p: int) -> Derivation:
    """The derivation of Yp(p) pinned by its values on the linear forms.

    The constraints are: first form maps to 2*z*y^(p-1), the others map to
    zero, and y, w map to zero.  Written on the unknowns d(x_j)*y^j this is
    a linear system whose matrix is the Vandermonde matrix of the distinct
    roots of unity; its solution is d(x_j) = c_j*z*y^(p-1-j) with the
    closed-form ``_constants``.  The image of z is y^(p-1) times P, the
    product of the last p-1 linear forms.

    The forms, their products and Yp are built here, and the
    well-definedness witnesses come from the proof in the module docstring.
    A premise on the images that fails raises ``DerivationError``.
    """
    p = _check_prime(p)
    products = form_products(p)
    algebra = build_Yp(p, products.full)
    context = algebra.context
    constants = _constants(p)
    if not all(constants):
        raise DerivationError("a constant c_j is zero")
    images = {"y": Polynomial.zero(context), "w": Polynomial.zero(context)}
    for j in range(p):
        images[f"x{j}"] = Polynomial.monomial(context, {"z": 1, "y": p - 1 - j}, constants[j])
    images["z"] = Polynomial.monomial(context, {"y": p - 1}) * products.tail
    resolved = {name: algebra.element(images[name]) for name in algebra.variables}
    if not images["z"] or any(resolved[n].rep != images[n] for n in algebra.variables):
        raise DerivationError("an image is zero or not a normal form of Yp")

    zero = Polynomial.zero(context)
    witnesses = WellDefinedness(
        tuple(RelationCheck(r, zero, zero) for r in algebra.relations)
    )
    derivation = Derivation._proved(algebra, resolved, witnesses)
    forms = products.forms
    first_image = Polynomial.monomial(context, {"z": 1, "y": p - 1}, 2)
    if derivation.leibniz_image(forms[0]) != first_image:
        raise DerivationError("the first linear form does not map to 2*z*y^(p-1)")
    if any(derivation.leibniz_image(form) for form in forms[1:]):
        raise DerivationError("a linear form L_i with i >= 2 does not map to 0")
    return derivation


def certify_family_lnd(p: int, cap: int = DEFAULT_CAP) -> LNDCertificate:
    """The solved derivation of Yp(p) with its nilpotency certificate.

    ``build_vandermonde_lnd`` builds Yp and D and refuses what fails a
    premise; the orders x_j -> 2, z -> 1, y, w -> 0 then follow from the
    proof in the module docstring, with no orbit iterated.  A generator
    whose order exceeds ``cap`` is inconclusive, so the orders are those
    ``certify_lnd(derivation, cap)`` gives.
    """
    p = _check_prime(p)
    cap = _integer(cap, 0, DerivationError, _BAD_CAP)
    derivation = build_vandermonde_lnd(p)
    orders = {"y": 0, "z": 1, "w": 0, **dict.fromkeys(x_names(p), 2)}
    return LNDCertificate._issue(derivation, cap, orders)


@dataclass(frozen=True)
class YpBundle:
    """Everything the pipeline builds and certifies for one prime.

    The fields cannot be reassigned.  The bundle keeps its report as
    canonical JSON text, which ``build-yp`` writes as ``certificate.json``;
    ``report`` parses a fresh copy on every read, so editing it changes
    neither the bundle nor the file.
    """

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
    _report: str

    @property
    def report(self) -> dict:
        return json.loads(self._report)


def certify_bundle(p: int, n: int, cap: int = DEFAULT_CAP) -> YpBundle:
    """Run the whole family construction for prime p dividing n.

    Certifies the solved derivation of Yp (from the linear forms, see the
    module docstring), takes F and G from the certified Yp's first relation,
    builds Xp from G, and lifts the derivation along y = u^(n/p); emits a
    JSON-ready report.  Every certificate must come back certified for the
    bundle to report ok.
    """
    p = _check_prime(p)
    message = f"n must be a multiple of p, got n={n}, p={p}"
    n = _integer(n, p, ConstructionError, message)
    if n % p:
        raise ConstructionError(message)
    lnd = certify_family_lnd(p, cap)
    derivation = lnd.derivation
    Yp = derivation.algebra
    F, G = _descend(p, Yp.relations[0] + Polynomial.monomial(Yp.context, {"z": 2}))
    Xp, grading = build_Xp(p, G)

    e = n // p
    lifted_lnd = lift_along_root(lnd, "y", "u", e)
    lifted = lifted_lnd.derivation

    shared = [name for name in Yp.variables if name != "y"]
    orders_match = all(lifted_lnd.orders[g] == lnd.orders[g] for g in shared)

    y_index = F.context.index("y")
    report = {
        "p": p,
        "n": n,
        "cap": lnd.cap,
        "field": Yp.field.text,
        "divisibility": {
            "allYExponentsDivisible": all(m[y_index] % p == 0 for m in F.terms),
            "coefficientsRational": True,
        },
        "imageBranches": {f"x{j}": "direct-power" for j in range(p)},
        **certificate_json(lnd),
        "grading": {
            "matrix": [list(row) for row in grading.matrix],
            "relationDegrees": [grading.degree(r)[0] for r in Xp.relations],
        },
        "lift": {
            "power": e,
            "variable": "u",
            **certificate_json(lifted_lnd),
            "ordersMatchSource": orders_match,
        },
        "ok": lnd.certified and lifted_lnd.certified and orders_match,
    }
    return YpBundle(
        p, n, F, G, Yp, Xp, grading, derivation, lifted.algebra, lifted, dump_canonical(report)
    )
