"""Derivations of presented algebras: certification and structure.

A derivation is fixed by its generator images and extends through the
Leibniz rule.  It descends to the quotient exactly when the extension sends
every relation into the ideal, which is checked (and certified) at
construction.  Nilpotency is certified by iteration on generators; finite
orders on all generators extend to the whole algebra because the induced
order function nu is a degree function: nu(f + g) <= max(nu f, nu g) and
nu(fg) <= nu f + nu g, the latter by the Leibniz formula for D^n(fg), which
holds in every commutative Q-algebra (equality needs a domain).  The same
two laws bound the order of a generator by the orders of the generators in
its image, so iteration stops at a proven bound and the certificate never
relies on sampling.

Certifying nilpotency is semi-decidable: the certifier answers Certified or
Inconclusive (cap reached), never "not locally nilpotent".

Exponentials rest on those two certificates.  For a well-defined locally
nilpotent derivation D of a Q-algebra, exp(tD) is an algebra automorphism
with inverse exp(-tD) (Freudenburg, Algebraic Theory of Locally Nilpotent
Derivations, ch. 1).  ``Derivation(algebra, images)`` certifies
well-definedness itself, so ``exp`` checks a terminating orbit for every
generator and does not push the relations through the images it builds.
The ``Exponential`` it returns pushes an element f, in ``apply`` and
``compose``, as its series: the sum of t^k D^k(f) / k! over the D-orbit of
f, which ends by the bound the certified orders give to f.  Only its
scalars t^k / k! are made here: loops over monomials are ``poly``'s.
``AlgebraMorphism(source, target, images)`` checks every relation and
pushes by substitution.  The unchecked builders are private:
``Derivation._proved`` for the family derivation and the lifts, whose
witnesses come from a proof; ``AlgebraMorphism._trusted`` for composites,
identities and exponentials; and ``LNDCertificate._issue``, the one issuer
of certificates, for ``certify_lnd``, ``certify_family_lnd`` and the lifts.

Derivations, morphisms and certificates refuse attribute writes, and keep
images and orders in read-only mappings; apply/nu/exp are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count
from types import MappingProxyType

from .algebra import AlgebraElement, Grading, GradingError, PresentedAlgebra, _Frozen
from .coeff import _integer, stored_integers
from .poly import Polynomial, _leibniz, _occurring, _sum

#: The order of the zero element (absorbing under addition of orders).
MINUS_INFINITY = float("-inf")

DEFAULT_CAP = 64
_BAD_CAP = "cap must be a non-negative integer"


class DerivationError(ValueError):
    """Invalid derivation construction or use."""


class NotWellDefinedError(DerivationError):
    """The Leibniz extension maps some relation outside the ideal."""

    def __init__(self, message: str, relation: Polynomial, witness: Polynomial):
        super().__init__(message)
        self.relation = relation
        self.witness = witness


class InconclusiveError(DerivationError):
    """Certification hit the iteration cap without reaching zero."""


class MorphismError(ValueError):
    """Proposed images do not send every relation to zero."""


class SizeLimitError(ValueError):
    """A parameter would make numbers larger than an explicit size limit."""


@dataclass(frozen=True)
class RelationCheck:
    """Outcome of pushing one relation through the Leibniz extension."""

    relation: Polynomial
    image: Polynomial
    normal_form: Polynomial

    @property
    def identically_zero(self) -> bool:
        return not self.image

    @property
    def ok(self) -> bool:
        return not self.normal_form

    def to_json(self) -> dict:
        return {
            "relation": self.relation.text(),
            "image": self.image.text(),
            "normalForm": self.normal_form.text(),
            "identicallyZero": self.identically_zero,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class WellDefinedness:
    """Per-relation membership witnesses for the Leibniz extension."""

    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {"ok": self.ok, "relations": [c.to_json() for c in self.checks]}


class LNDCertificate(_Frozen):
    """Nilpotency orders per generator of ``derivation``, or those unresolved."""

    __slots__ = ("derivation", "cap", "orders", "inconclusive")
    justification = (
        "finite nilpotency order on every generator extends to the whole algebra "
        "because the induced order function is a degree function"
    )

    def __init__(self, *args, **kwargs):
        raise TypeError("certificates are issued by certify_lnd, certify_family_lnd and the lifts")

    @classmethod
    def _issue(cls, derivation: Derivation, cap: int, orders: dict) -> LNDCertificate:
        """Unchecked: proven ``orders``; a generator without one up to ``cap`` is inconclusive."""
        cap = _integer(cap, 0, DerivationError, _BAD_CAP)
        names = derivation.algebra.variables
        within = {name: orders[name] for name in names if name in orders and orders[name] <= cap}
        return object.__new__(cls)._fill(
            derivation=derivation, cap=cap, orders=MappingProxyType(within),
            inconclusive=tuple(name for name in names if name not in within),
        )

    @property
    def certified(self) -> bool:
        return not self.inconclusive

    @property
    def status(self) -> str:
        return "certified" if self.certified else "inconclusive"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "cap": self.cap,
            "orders": dict(sorted(self.orders.items())),
            "inconclusiveGenerators": sorted(self.inconclusive),
            "justification": self.justification,
        }

    def __repr__(self):
        return (f"LNDCertificate(cap={self.cap}, orders={dict(self.orders)}, "
                f"inconclusive={self.inconclusive})")


def _images(names: tuple, images: dict, element, error) -> MappingProxyType:
    """One image per name through ``element``, read-only; ``error`` if one is missing or unknown."""
    resolved = {}
    for name in names:
        if name not in images:
            raise error(f"missing image for variable {name!r}")
        resolved[name] = element(images[name])
    for name in images:
        if name not in resolved:
            raise error(f"image given for unknown variable {name!r}")
    return MappingProxyType(resolved)


class Derivation(_Frozen):
    """A derivation of a presented algebra, fixed by its generator images.

    Construction needs one image per variable and applies the Leibniz
    extension to every relation: a nonzero normal form raises
    ``NotWellDefinedError`` with that witness, and the checks that pass are
    kept as ``well_defined``.  ``images`` is a read-only mapping.
    """

    __slots__ = ("algebra", "images", "well_defined")

    def __init__(self, algebra: PresentedAlgebra, images: dict):
        self._fill(algebra=algebra,
                   images=_images(algebra.variables, images, algebra.element, DerivationError))
        checks = []
        for r in algebra.relations:
            raw = self.leibniz_image(r)
            nf = algebra.normal_form(raw)
            if nf:
                raise NotWellDefinedError(
                    f"image of relation {r.text()} is not in the ideal (normal form: {nf.text()})",
                    r, nf,
                )
            checks.append(RelationCheck(r, raw, nf))
        self._fill(well_defined=WellDefinedness(tuple(checks)))

    @classmethod
    def _proved(cls, algebra: PresentedAlgebra, images: dict, witnesses: WellDefinedness):
        """Unchecked: for ``build_vandermonde_lnd`` and the lifts, whose witnesses come from a proof."""
        return object.__new__(cls)._fill(
            algebra=algebra, images=MappingProxyType(dict(images)), well_defined=witnesses
        )

    def leibniz_image(self, f: Polynomial) -> Polynomial:
        """Image of a plain polynomial under the Leibniz extension (no reduction).

        D(f) is the sum over the variables v of (df/dv) * D(v), each product
        made in one pass by ``poly._leibniz``.
        """
        algebra, images = self.algebra, self.images
        return _leibniz(algebra.context, f, [images[name].rep for name in algebra.variables])

    def apply(self, value) -> AlgebraElement:
        a = self.algebra.element(value)
        return self.algebra.element(self.leibniz_image(a.rep))

    def is_zero(self) -> bool:
        return all(not v for v in self.images.values())

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return (
            self.algebra.same_presentation(other.algebra)
            and all(self.images[n] == other.images[n] for n in self.images)
        )

    def __repr__(self):
        imgs = ", ".join(f"{n} -> {e.rep.text()}" for n, e in self.images.items())
        return f"Derivation({imgs})"


def new_derivation(algebra: PresentedAlgebra, images: dict) -> Derivation:
    """Build a derivation from generator images: ``Derivation(algebra, images)``."""
    return Derivation(algebra, images)


def zero_derivation(algebra: PresentedAlgebra) -> Derivation:
    return new_derivation(algebra, {name: 0 for name in algebra.variables})


def nu(derivation: Derivation, value, cap: int = DEFAULT_CAP):
    """The order of an element: least n with the (n+1)-st application zero.

    Returns MINUS_INFINITY for the zero element and None when the cap was
    exhausted without reaching zero (inconclusive).
    """
    cap = _integer(cap, 0, DerivationError, _BAD_CAP)
    element = derivation.algebra.element(value)
    if not element:
        return MINUS_INFINITY
    length = sum(1 for _ in _orbit(derivation, element, cap + 1))
    return length - 1 if length <= cap + 1 else None


def _orbits(derivation: Derivation, cap: int):
    """Yield (generator index, orbit) for every generator, in pick order.

    The orbit is [x, D x, ..., D^order x] when the order of x is at most
    ``cap``, else None.  Generator x is iterated until D^k(x) = 0, which
    gives order k - 1, or until a proven bound.  When every generator v
    occurring in D(x) already has an order o(v), the degree-function laws
    give

        nu(x) <= U(x) = 1 + max over the monomials m of D(x) of sum_v m_v o(v),

    with U(x) = 0 when D(x) = 0.  Iteration then stops at D^U(x): a nonzero
    D^U(x) has order exactly U(x), and D^(U+1)(x) is never computed.  U(x)
    is computed once, from the image D(x).  Generators whose image mentions
    only resolved generators go first, in variable order; when none is left
    (a cycle such as x_j <-> z in Yp(p), or D(x) = c*x), the pending
    generator occurring in the most pending images is iterated directly,
    ties broken by variable order.  A generator resolves only when its order
    is at most ``cap``, even where the bound proves a larger order.

    An orbit starts at the stored image: after x comes ``images[x]``, and D
    is first applied to it.  Every constructor stores images as elements of
    the algebra, so normal forms, and D(x) = D(nf x) since D is well
    defined, also when x is reducible.  A nonzero image has U(x) >= 1.
    """
    cap = _integer(cap, 0, DerivationError, _BAD_CAP)
    algebra = derivation.algebra
    names = algebra.variables
    supports = [_occurring(derivation.images[name].rep) for name in names]
    found = {}
    pending = list(range(len(names)))
    while pending:
        for pick in pending:
            if supports[pick] <= found.keys():
                bounded = True
                break
        else:
            bounded = False
            pick = max(pending, key=lambda i: (sum(i in supports[j] for j in pending), -i))
        pending.remove(pick)
        image = derivation.images[names[pick]].rep
        limit = cap + 1
        if bounded:
            # generators outside the image do not occur in it; weight 0
            weights = [found.get(v, 0) for v in range(len(names))]
            limit = min(limit, 1 + image.weighted_degree(weights)) if image else 0
        orbit = [algebra.variable(names[pick])]
        if image:
            orbit.extend(_orbit(derivation, derivation.images[names[pick]], limit - 1))
        if len(orbit) <= cap + 1:
            found[pick] = len(orbit) - 1
            yield pick, orbit
        else:
            yield pick, None


def certify_lnd(derivation: Derivation, cap: int = DEFAULT_CAP) -> LNDCertificate:
    """Certify local nilpotency generator by generator.

    Each generator's orbit is iterated up to its order or a proven bound
    (see ``_orbits``).  A generator is certified only when its order is at
    most ``cap``, so orders and inconclusive generators are exactly what
    ``nu`` gives with the same cap.  Any survivor makes the certificate
    inconclusive; a "not locally nilpotent" verdict is never produced.  The
    certificate is a value bound to ``derivation``, which is not modified.
    """
    names = derivation.algebra.variables
    orbits = _orbits(derivation, cap)
    orders = {names[i]: len(orbit) - 1 for i, orbit in orbits if orbit is not None}
    return LNDCertificate._issue(derivation, cap, orders)


# ----------------------------------------------------------------------
# homogeneous structure


@dataclass(frozen=True)
class HomogeneousDecomposition:
    """A derivation split into graded pieces along one grading row.

    ``components`` maps each degree shift to its piece, in increasing
    order, and is a read-only mapping.
    """

    derivation: Derivation
    grading: Grading
    row: int
    components: MappingProxyType
    lower: int | None
    upper: int | None


def decompose(derivation: Derivation, grading: Grading, row: int = 0) -> HomogeneousDecomposition:
    """Split a derivation into homogeneous pieces along one grading row.

    Piece i sends x to the (deg x + i)-component of the image of x.  Each
    piece is rebuilt through the certified constructor, so well-definedness
    of every component is established independently rather than inferred.
    """
    algebra = derivation.algebra
    if grading.algebra is not algebra and not algebra.same_presentation(grading.algebra):
        raise DerivationError("grading belongs to a different algebra")
    row = _integer(row, 0, DerivationError, f"row {row} out of range for {grading.nrows} rows",
                   grading.nrows - 1)
    weights = grading.matrix[row]
    per_generator = {}
    for name, weight in zip(algebra.variables, weights):
        comps = derivation.images[name].rep.weighted_components(weights)
        per_generator[name] = {deg - weight: part for deg, part in comps.items()}
    shifts = sorted(set().union(*per_generator.values()))
    zero = Polynomial.zero(algebra.context)
    components = {
        shift: new_derivation(
            algebra, {name: per_generator[name].get(shift, zero) for name in algebra.variables}
        )
        for shift in shifts
    }
    return HomogeneousDecomposition(
        derivation, grading, row, MappingProxyType(components),
        min(shifts, default=None), max(shifts, default=None),
    )


def homogeneous_degree(derivation: Derivation, grading: Grading):
    """The multidegree shift of a homogeneous derivation, or None.

    Each nonzero image must be homogeneous and all images must agree on the
    shift: its degree minus the variable's weights.  The zero derivation
    reports None.
    """
    shifts = set()
    for i, name in enumerate(derivation.algebra.variables):
        image = derivation.images[name]
        if not image:
            continue
        try:
            degree = grading.degree(image)
        except GradingError:
            return None
        shifts.add(tuple(d - weights[i] for d, weights in zip(degree, grading.matrix)))
    return shifts.pop() if len(shifts) == 1 else None


def homogenize_lnd(derivation: Derivation, grading: Grading, cap: int = DEFAULT_CAP):
    """Extract a homogeneous certified-nilpotent derivation from a nilpotent one.

    The input is certified within ``cap`` first.  Row by row, the top graded
    component is taken (extreme components of a nilpotent derivation stay
    nilpotent) and certified within the same cap.  Returns the homogeneous
    derivation together with its multidegree.
    """
    if derivation.is_zero():
        raise DerivationError("cannot homogenize the zero derivation")
    if not certify_lnd(derivation, cap).certified:
        raise InconclusiveError(
            f"homogenization needs a certified derivation; cap {cap} was not enough"
        )
    current = derivation
    for row in range(grading.nrows):
        pieces = decompose(current, grading, row)
        top = pieces.components[pieces.upper]
        if not certify_lnd(top, cap).certified:
            raise InconclusiveError(
                f"extreme component at row {row} did not certify within cap {cap}"
            )
        current = top
    degree = homogeneous_degree(current, grading)
    if degree is None:
        raise DerivationError("homogenization produced an inhomogeneous result")
    return current, degree


def is_diagonal_semisimple(derivation: Derivation):
    """Scaling weights when every generator image is a scalar multiple of it.

    This is only the diagonal-on-generators sufficient condition; a None
    answer does not rule out a semiinvariant basis existing elsewhere.
    """
    algebra = derivation.algebra
    weights = []
    for name in algebra.variables:
        img = derivation.images[name].rep
        if not img:
            weights.append(algebra.field.zero)
            continue
        # a generator in the ideal has image 0 (D is well defined), so gen is nonzero
        gen = algebra.variable(name).rep
        lead = next(iter(gen.terms))
        scale = img.coefficient(lead) / gen.coefficient(lead)
        if img != gen * scale:
            return None
        weights.append(scale)
    return tuple(weights)


# ----------------------------------------------------------------------
# exponentials


class AlgebraMorphism(_Frozen):
    """An algebra map given on generators; relations must map to zero.

    ``AlgebraMorphism(source, target, images)`` takes one image per source
    variable and pushes every relation through them; a missing or unknown
    name, or a nonzero normal form, raises ``MorphismError``.  ``compose``,
    ``identity_morphism`` and ``exp`` build
    through ``_trusted`` instead: their maps are algebra maps by
    construction.  ``apply`` and ``compose`` push elements through one
    hook, ``_push``: here ``Polynomial.substitute`` sends each generator to
    its image, one table of image powers per pushed element;
    ``Exponential`` overrides it to push along D-orbits.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source, target, images: dict):
        self._fill(source=source, target=target,
                   images=_images(source.variables, images, target.element, MorphismError))
        bindings = {name: img.rep for name, img in self.images.items()}
        for r in source.relations:
            nf = target.normal_form(r.substitute(bindings, target.context))
            if nf:
                raise MorphismError(f"relation {r.text()} maps to nonzero {nf.text()}")

    @classmethod
    def _trusted(cls, source, target, images: dict, **fields):
        """Unchecked: for algebra maps by construction; ``fields`` fill a subclass's slots."""
        return object.__new__(cls)._fill(
            source=source, target=target, images=MappingProxyType(dict(images)), **fields
        )

    def _push(self, a: AlgebraElement) -> AlgebraElement:
        """The image in the target of an element of the source."""
        bindings = {name: img.rep for name, img in self.images.items()}
        return self.target.element(a.rep.substitute(bindings, self.target.context))

    def apply(self, value) -> AlgebraElement:
        return self._push(self.source.element(value))

    def compose(self, inner: AlgebraMorphism) -> AlgebraMorphism:
        """The map sending x first through inner, then through this morphism.

        Every image of ``inner`` goes through ``_push``: a substitution, or
        the D-orbit series for an ``Exponential``.
        """
        if not inner.target.same_presentation(self.source):
            raise MorphismError("morphisms do not compose: target/source mismatch")
        images = {
            name: self._push(self.source.element(img)) for name, img in inner.images.items()
        }
        return AlgebraMorphism._trusted(inner.source, self.target, images)

    def agrees_with(self, other: AlgebraMorphism) -> bool:
        return all(self.images[n] == other.images[n] for n in self.images)

    def __repr__(self):
        imgs = ", ".join(f"{n} -> {e.rep.text()}" for n, e in self.images.items())
        return f"AlgebraMorphism({imgs})"


class Exponential(AlgebraMorphism):
    """exp(tD) for a certified derivation D; its ``_push`` sums D-orbit series.

    Holds D, t, the generator orbits x, D x, ..., D^order x that ``exp``
    certified, as tuples in variable order, and their orders as weights in
    variable order.  The images are the series over those orbits, and
    ``_exponential`` sums the same orbits again for another t.  An element
    f goes to the sum of t^k D^k(f) / k! over k <= U(f), where U(f) is the
    weighted degree of f's normal form under those orders: nu is a degree
    function (see the module docstring), so nu(f) <= U(f) and
    D^(U+1)(f) = 0 is never computed.  The orbit also stops at the first
    D^k(f) = 0.  Each term is a normal form, so the sum is one and is not
    reduced again; the cost is linear in the size of the iterates, where a
    substitution multiplies powers of the images.

    Only ``_exponential`` builds one, through ``_trusted``, from orbits
    ``exp`` has certified: they are trusted, and orbits that are too short
    would cut the series short.  The class is not exported.
    """

    __slots__ = ("derivation", "t", "orders", "orbits")

    def _push(self, a: AlgebraElement) -> AlgebraElement:
        bound = a.rep.weighted_degree(self.orders) if a else 0
        orbit = _orbit(self.derivation, a, bound)
        return AlgebraElement(self.target, _series(self.target, orbit, self.t))


def identity_morphism(algebra: PresentedAlgebra) -> AlgebraMorphism:
    return AlgebraMorphism._trusted(
        algebra, algebra, {n: algebra.variable(n) for n in algebra.variables}
    )


def _orbit(derivation: Derivation, a: AlgebraElement, bound: int):
    """a, D a, ..., D^bound a, computed on demand, ending at the first zero."""
    yield a
    for _ in range(bound):
        a = derivation.apply(a)
        if not a:
            return
        yield a


def _series(algebra, orbit, t) -> Polynomial:
    """The sum of t^k f_k / k! over an orbit f_0, f_1 = D f_0, ... of normal forms.

    For t = 0 no term after f_0 is taken, so an orbit computed on demand is
    not iterated.  Scalar multiples and sums of normal forms are normal forms.
    """
    reps = (a.rep for a in orbit)
    if not t:
        return next(reps)
    scalars = accumulate(count(1), lambda s, k: s * t * Fraction(1, k), initial=algebra.field.one)
    return _sum(algebra.context, reps, scalars)


def _check_sizes(t, orbits: tuple, max_digits: int) -> None:
    """Refuse t and orbits whose series could hold integers of max_digits digits.

    t^U is not computed: U * b, with b the bit length of the largest
    integer t is stored as, must stay below the bit length of
    10**max_digits (for a rational t the integers of t^U, below 2^(U * b),
    then stay below 10**max_digits).  The orbit coefficients, computed
    already, are compared with 10**max_digits.
    """
    top = max(map(len, orbits), default=1) - 1
    bits = max(abs(n) for n in stored_integers(t)).bit_length()
    if top * bits >= (10**max_digits).bit_length():
        raise SizeLimitError(f"t^{top} could exceed {max_digits} digits; use a smaller t")
    limit = 10**max_digits
    for orbit in orbits:
        for element in orbit:
            for c in element.rep.terms.values():
                if any(abs(n) >= limit for n in stored_integers(c)):
                    raise SizeLimitError(
                        f"an iterate D^k(x) has a coefficient of {max_digits} digits or more"
                    )


def exp(derivation: Derivation, t, cap: int = DEFAULT_CAP,
        max_digits: int | None = None) -> Exponential:
    """The automorphism sum_j t^j D^j / j!, exact thanks to nilpotency.

    The premise is verified, not assumed: every ``Derivation`` carries
    well-definedness witnesses that hold, and every generator's orbit
    x, D x, ..., D^order x must end within ``cap`` (InconclusiveError
    otherwise).  Each generator's series is summed over that orbit, so the
    sum is finite and lands back in the algebra.  For a well-defined
    locally nilpotent D of a Q-algebra, exp(tD) is an algebra automorphism,
    so the relations map to zero by that theorem and are not substituted
    into the images.  The returned ``Exponential`` keeps the orbits and
    orders it certified here and pushes every element, in ``apply`` and
    ``compose``, along its D-orbit up to the bound those orders give.

    With ``max_digits``, ``SizeLimitError`` is raised once the orbits are
    known and before any series is summed, so before t is raised to any
    power, when t^U (U the largest certified order) or a coefficient of an
    orbit could have an integer of ``max_digits`` digits or more (see
    ``_check_sizes``).

    Composing two exponentials of the same D therefore checks the series
    identity exp(sD) exp(tD) = exp((s+t)D) on the orbits of the images,
    which holds for any linear map whose orbits end where the orders say;
    it does not check that the images are multiplicative.  That rests on
    the theorem above, and on the premise checks here.
    """
    if max_digits is not None:
        max_digits = _integer(max_digits, 1, DerivationError, "max_digits must be positive")
    algebra = derivation.algebra
    t = algebra.field.coerce(t)
    orbits = [None] * len(algebra.variables)
    for i, orbit in _orbits(derivation, cap):
        if orbit is None:
            raise InconclusiveError("cannot exponentiate an inconclusive certificate")
        orbits[i] = tuple(orbit)
    orbits = tuple(orbits)
    if max_digits is not None:
        _check_sizes(t, orbits, max_digits)
    return _exponential(derivation, orbits, t)


def _exponential(derivation: Derivation, orbits: tuple, t) -> Exponential:
    """exp(tD), t in the field, from D's certified generator orbits in variable order."""
    algebra = derivation.algebra
    images = {
        name: AlgebraElement(algebra, _series(algebra, orbit, t))
        for name, orbit in zip(algebra.variables, orbits)
    }
    return Exponential._trusted(algebra, algebra, images, derivation=derivation, t=t,
                                orders=tuple(len(orbit) - 1 for orbit in orbits), orbits=orbits)


def certificate_json(certificate: LNDCertificate) -> dict:
    """The certificate payload: well-definedness and nilpotency."""
    return {
        "wellDefined": certificate.derivation.well_defined.to_json(),
        "lnd": certificate.to_json(),
    }
