"""Polynomials and coefficients refuse writes, and certificates keep what they checked."""

import re
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

import suspensia
from suspensia import Context, Polynomial, QQ, certify_lnd, lift_along_root, parse_expression
from suspensia.coeff import CyclotomicNumber, root_of_unity
from suspensia.constructions import certify_bundle
from suspensia.parseio import load_derivation

FIXTURE = Path(__file__).parent / "fixtures" / "yp3_derivation.json"
QXY = Context(QQ, ("x", "y"))


def _poly():
    return parse_expression("x^2 - 3*y + 1", QXY)


# each write a polynomial must refuse; a read-only mapping has no clear()
WRITES = (
    lambda p: p.terms.clear(),
    lambda p: p.terms.__setitem__((0,) * p.context.nvars, Fraction(5)),
    lambda p: setattr(p, "terms", {}),
    lambda p: delattr(p, "terms"),
    lambda p: setattr(p, "context", Context(QQ, ("a", "b"))),
)


def test_terms_is_a_read_only_view_that_compares_as_a_dict():
    p = _poly()
    assert isinstance(p.terms, MappingProxyType)
    assert p.terms == {(2, 0): 1, (0, 1): -3, (0, 0): 1}
    for write in WRITES:
        with pytest.raises((TypeError, AttributeError)):
            write(p)
    copy = dict(p.terms)
    copy.clear()
    assert p == _poly() and p.context == QXY


def test_the_order_of_a_cyclotomic_number_is_read_only():
    c = root_of_unity(3, 1)
    with pytest.raises(AttributeError):
        c.p = 5
    with pytest.raises(AttributeError):
        del c.p
    assert c.p == 3 and c == root_of_unity(3, 1)


def test_a_certificate_keeps_its_orders_after_an_attempted_write():
    derivation = load_derivation(FIXTURE)
    certificate = certify_lnd(derivation)
    orders = dict(certificate.orders)
    assert certificate.certified and orders["x0"] == 2
    image = derivation.images["x0"].rep
    with pytest.raises(AttributeError):  # a read-only mapping has no clear()
        image.terms.clear()
    assert derivation.images["x0"]
    assert certificate.certified and dict(certificate.orders) == orders
    assert dict(certify_lnd(derivation).orders) == orders


def test_basis_generators_keep_their_terms_after_an_attempted_write():
    algebra = load_derivation(FIXTURE).algebra
    generator = algebra.basis.generators[0]
    before = dict(generator.terms)
    with pytest.raises(AttributeError):
        generator.terms.clear()
    assert generator.terms == before and before
    # a reducer shares its dict with the generator it backs
    assert algebra.basis._reducers[0].terms == before
    assert algebra.normal_form(generator) == 0


def _public_values(obj):
    """The values of obj's public slots and instance attributes (dataclass fields among them)."""
    names = []
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        names.extend([slots] if isinstance(slots, str) else slots)
    names.extend(getattr(obj, "__dict__", {}))
    for name in dict.fromkeys(names):
        if not name.startswith("_") and hasattr(obj, name):
            yield getattr(obj, name)


def _reachable_polynomials(*roots):
    """Every Polynomial reachable from roots through public attributes and containers."""
    seen, found, stack = set(), {}, list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or obj is None or isinstance(obj, (str, int, float, Fraction)):
            continue
        seen.add(id(obj))
        if isinstance(obj, Polynomial):
            found[id(obj)] = obj
        elif isinstance(obj, (dict, MappingProxyType)):
            stack.extend(obj.values())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        elif not callable(obj):
            stack.extend(_public_values(obj))
    return found


def test_every_polynomial_a_certificate_reaches_refuses_writes():
    certificate = certify_lnd(load_derivation(FIXTURE))
    lifted = lift_along_root(certificate, "y", "u", 2)
    bundle = certify_bundle(3, 6)
    found = _reachable_polynomials(certificate, lifted, bundle)

    derivation, check = certificate.derivation, certificate.derivation.well_defined.checks[0]
    expected = [
        derivation.images["x0"].rep,
        derivation.algebra.relations[0],
        derivation.algebra.basis.generators[0],
        check.relation, check.image, check.normal_form,
        lifted.derivation.images["z"].rep,
        lifted.derivation.algebra.basis.generators[-1],
        bundle.F, bundle.G,
        bundle.lifted_derivation.well_defined.checks[0].normal_form,
    ]
    for poly in expected:
        assert id(poly) in found
    coefficients = 0
    for poly in found.values():
        before = list(poly.terms.items())
        for write in WRITES:
            with pytest.raises((TypeError, AttributeError)):
                write(poly)
        for c in poly.terms.values():
            if isinstance(c, CyclotomicNumber):
                coefficients += 1
                with pytest.raises(AttributeError):
                    c.p = 5
        assert list(poly.terms.items()) == before
    assert coefficients
    assert certificate.certified and lifted.certified and bundle.report["ok"]


# the modules that may name each private piece of the term representation,
# and how often: the term dict, the trusted wrap, the merge loop and the
# product of two term dicts
NAMING = {
    "_terms": {"poly.py": None, "groebner.py": None},
    "_raw": {"poly.py": None, "groebner.py": None, "parseio.py": 1},
    "_accumulate": {"poly.py": None, "groebner.py": None, "parseio.py": None},
    "_product": {"poly.py": None},
}


def test_the_term_dict_is_named_only_in_poly_and_groebner():
    # the representation of terms stays behind two modules, so it can change
    # there alone; the parser's one exception is wrapping its running sum
    package = Path(suspensia.__file__).parent
    texts = {path.name: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    for name, allowed in NAMING.items():
        counts = {
            module: len(re.findall(rf"\b{name}\b", text)) for module, text in texts.items()
        }
        assert {module for module, n in counts.items() if n} == allowed.keys(), name
        for module, n in allowed.items():
            assert n is None or counts[module] == n, (name, module, counts[module])
