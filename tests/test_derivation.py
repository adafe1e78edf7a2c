"""Derivation certification: well-definedness, nilpotency, decomposition, exp."""

import dataclasses
import functools
import math
import random
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType, SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suspensia import (
    MINUS_INFINITY,
    AlgebraMorphism,
    Context,
    Derivation,
    DerivationError,
    InconclusiveError,
    LNDCertificate,
    MorphismError,
    NotWellDefinedError,
    Polynomial,
    PresentedAlgebra,
    QQ,
    algebra_from_strings,
    attach_grading,
    build_vandermonde_lnd,
    certify_lnd,
    decompose,
    elimination,
    exp,
    grevlex,
    homogeneous_degree,
    homogenize_lnd,
    identity_morphism,
    is_diagonal_semisimple,
    lex,
    lift_along_root,
    lift_lnd,
    new_derivation,
    nu,
    parse_expression,
    zero_derivation,
)
from suspensia import parseio
from suspensia.cli import main
from suspensia.coeff import CyclotomicField, root_of_unity
from suspensia.derivation import SizeLimitError, _orbits

from helpers import nonzero_random_polynomial, random_polynomial, yp_weight_row

import helpers


def free_xy():
    return algebra_from_strings(QQ, ["x", "y"], [])


def torus_line():
    return algebra_from_strings(QQ, ["y", "w"], ["y*w - 1"])


def D(algebra, **images):
    parsed = {
        name: parse_expression(str(expr), algebra.context)
        for name, expr in images.items()
    }
    return new_derivation(algebra, parsed)


@pytest.fixture(scope="module")
def y3():
    derivation = build_vandermonde_lnd(3)
    return derivation.algebra, derivation


def test_partial_derivative_derivation():
    d = D(free_xy(), x="0", y="x")
    assert d.well_defined.ok
    assert d.images["y"].rep == parse_expression("x", d.algebra.context)


def test_vandermonde_relation_images_identically_zero(y3):
    _, derivation = y3
    assert all(check.identically_zero for check in derivation.well_defined.checks)


def test_ill_defined_rejected_with_witness():
    with pytest.raises(NotWellDefinedError) as info:
        D(torus_line(), y="1", w="0")
    assert info.value.witness.text() == "w"
    # the constructor is the builder: D(xy) = y is not in (xy), so neither a
    # certificate nor an exponential can be issued for x -> 1, y -> 0
    algebra = algebra_from_strings(QQ, ["x", "y"], ["x*y"])
    with pytest.raises(NotWellDefinedError) as info:
        Derivation(algebra, {"x": 1, "y": 0})
    assert info.value.witness.text() == "y"


def test_missing_image_rejected():
    algebra = free_xy()
    with pytest.raises(DerivationError):
        new_derivation(algebra, {"x": parse_expression("0", algebra.context)})


def test_apply_is_leibniz_on_products():
    rng = random.Random(59)
    fixtures = [
        D(free_xy(), x="1", y="0"),
        D(torus_line(), y="y", w="-w"),
    ]
    for d in fixtures:
        for _ in range(200):
            a = d.algebra.element(random_polynomial(rng, d.algebra.context, max_exp=2))
            b = d.algebra.element(random_polynomial(rng, d.algebra.context, max_exp=2))
            assert d.apply(a * b) == a * d.apply(b) + b * d.apply(a)


def test_apply_leibniz_on_torus_product():
    d = D(torus_line(), y="y", w="-w")
    y, w = d.algebra.variable("y"), d.algebra.variable("w")
    assert d.apply(y * w) == y * d.apply(w) + w * d.apply(y)
    assert not d.apply(y * w)


def test_apply_iter_z_twice_vanishes(y3):
    algebra, derivation = y3
    assert not derivation.apply(derivation.apply(algebra.variable("z")))


def test_apply_zero_derivation(y3):
    algebra, _ = y3
    zero = zero_derivation(algebra)
    assert not zero.apply(algebra.variable("x0"))


def test_nu_values(y3):
    algebra, derivation = y3
    assert nu(derivation, algebra.variable("z"), 8) == 1
    assert nu(derivation, algebra.zero(), 8) == MINUS_INFINITY
    assert nu(derivation, algebra.variable("x0"), 8) == 2
    # the same order falls out of iteration in the free ring: the third
    # application of the raw Leibniz extension kills x0 identically
    raw = algebra.variable("x0").rep
    for _ in range(3):
        raw = derivation.leibniz_image(raw)
    assert not raw.terms


def test_certify_vandermonde(y3):
    _, derivation = y3
    certificate = certify_lnd(derivation, 8)
    assert certificate.derivation is derivation
    assert certificate.certified
    assert certificate.orders == {"x0": 2, "x1": 2, "x2": 2, "y": 0, "z": 1, "w": 0}


def test_certify_cap_boundary_vandermonde():
    # orders are z -> 1 and x_j -> 2; the bound 1 + o(z) = 2 proves x_j's
    # order, yet at cap 1 the x_j must stay inconclusive
    derivation = build_vandermonde_lnd(3)
    low = certify_lnd(derivation, 1)
    assert low.inconclusive == ("x0", "x1", "x2")
    assert low.orders == {"y": 0, "z": 1, "w": 0}
    assert not low.certified
    exact = certify_lnd(derivation, 2)
    assert exact.certified
    assert exact.orders == {"x0": 2, "x1": 2, "x2": 2, "y": 0, "z": 1, "w": 0}
    assert list(exact.orders) == list(derivation.algebra.variables)


@st.composite
def _random_free_derivations(draw, triangular=None, field=QQ):
    """A derivation of field[x0..x(n-1)], n in {3, 4}, with a cap in 0..8.

    Unless ``triangular`` is given, most draws are triangular (x_i's image
    only mentions x_j with j < i); the rest may mention any generator, which
    gives cycles and self-loops.  Over Q(z@p) each coefficient is an integer
    times a root of unity.
    """
    n = draw(st.integers(min_value=3, max_value=4))
    if triangular is None:
        triangular = draw(st.integers(min_value=0, max_value=3)) > 0
    names = tuple(f"x{i}" for i in range(n))
    context = Context(field, names)
    images = {}
    for i, name in enumerate(names):
        allowed = range(i) if triangular else range(n)
        terms = {}
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            mono = [0] * n
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                if allowed:
                    mono[draw(st.sampled_from(allowed))] += 1
            coeff = draw(st.integers(min_value=-3, max_value=3).filter(bool))
            if field != QQ:
                coeff = coeff * root_of_unity(field.p, draw(st.integers(1, field.p)))
            terms[tuple(mono)] = coeff
        images[name] = Polynomial(context, terms)
    algebra = PresentedAlgebra(context, [])
    cap = draw(st.integers(min_value=0, max_value=8))
    return new_derivation(algebra, images), cap


@settings(max_examples=120, deadline=None)
@given(_random_free_derivations())
def test_certify_matches_nu_oracle(case):
    derivation, cap = case
    algebra = derivation.algebra
    expected_orders = {}
    expected_inconclusive = []
    for name in algebra.variables:
        order = nu(derivation, algebra.variable(name), cap)
        if order is None:
            expected_inconclusive.append(name)
        else:
            expected_orders[name] = 0 if order == MINUS_INFINITY else order
    certificate = certify_lnd(derivation, cap)
    assert certificate.orders == expected_orders
    assert list(certificate.orders) == [n for n in algebra.variables if n in expected_orders]
    assert certificate.inconclusive == tuple(expected_inconclusive)


def test_certify_euler_inconclusive():
    d = D(free_xy(), x="x", y="0")
    certificate = certify_lnd(d, 12)
    assert not certificate.certified
    assert "x" in certificate.inconclusive


def test_certify_zero_derivation():
    zero = zero_derivation(free_xy())
    certificate = certify_lnd(zero, 4)
    assert certificate.certified
    assert set(certificate.orders.values()) == {0}


def test_zero_image_needs_no_application(monkeypatch):
    # U(x) = 0 when D(x) = 0: order 0 is read off the image.  The orbit of y
    # starts at the stored image D(y) = x, and U(y) = 1 stops it there, so D
    # is never applied
    from suspensia.derivation import Derivation

    applied = []
    apply = Derivation.apply
    monkeypatch.setattr(Derivation, "apply", lambda d, v: applied.append(v) or apply(d, v))
    certificate = certify_lnd(D(free_xy(), x="0", y="x"), 4)
    assert certificate.orders == {"x": 0, "y": 1}
    assert applied == []


def test_yp3_application_counts(monkeypatch, capsys):
    # y and w have image 0.  z breaks the x_j <-> z cycle and is iterated
    # from its stored image D(z) to D^2(z) = 0, and each x_j from D(x_j) to
    # its bound U(x_j) = 2: one application each, 4 in all, where computing
    # each D(x) again made 8.  exp iterates the same orbits; compose pushes
    # each of the six images of exp(D/2) along its own orbit.  The CLI's
    # exp certifies the orbits once, for exp(tD), and sums exp(tD/2) over
    # them: 4 + 11, where iterating them again for exp(tD/2) made 19
    fixture = Path(__file__).parent / "fixtures" / "yp3_derivation.json"
    derivation = parseio.load_derivation(fixture)
    applied = []
    apply = Derivation.apply
    monkeypatch.setattr(Derivation, "apply", lambda d, v: applied.append(v) or apply(d, v))
    assert certify_lnd(derivation).orders == {"x0": 2, "x1": 2, "x2": 2, "y": 0, "z": 1, "w": 0}
    assert len(applied) == 4
    applied.clear()
    half = exp(derivation, Fraction(1, 2))
    assert len(applied) == 4
    applied.clear()
    half.compose(half)
    assert len(applied) == 11
    applied.clear()
    assert main(["exp", str(fixture), "--t=1/2"]) == 0
    assert capsys.readouterr().out.endswith("one-parameter law verified at t/2 + t/2\n")
    assert len(applied) == 15


def test_degree_function_laws_partial_derivative():
    rng = random.Random(61)
    algebra = free_xy()
    d = D(algebra, x="1", y="0")
    for _ in range(200):
        f = algebra.element(nonzero_random_polynomial(rng, algebra.context, max_exp=3))
        g = algebra.element(nonzero_random_polynomial(rng, algebra.context, max_exp=3))
        nf, ng = nu(d, f, 16), nu(d, g, 16)
        assert nu(d, f * g, 32) == nf + ng
        if f + g:
            assert nu(d, f + g, 32) <= max(nf, ng)


def test_degree_function_laws_vandermonde(y3):
    rng = random.Random(67)
    algebra, derivation = y3
    pool = [
        algebra.variable("x0"),
        algebra.variable("x1"),
        algebra.variable("x2"),
        algebra.variable("z"),
        algebra.one(),
    ]
    for _ in range(200):
        f = sum(
            (helpers.random_fraction(rng) * e for e in rng.sample(pool, 2)),
            algebra.zero(),
        )
        g = sum(
            (helpers.random_fraction(rng) * e for e in rng.sample(pool, 2)),
            algebra.zero(),
        )
        if not f or not g:
            continue
        nf, ng = nu(derivation, f, 8), nu(derivation, g, 8)
        assert nu(derivation, f * g, 16) == nf + ng
        if f + g:
            assert nu(derivation, f + g, 16) <= max(nf, ng)


def test_decompose_direct_reading():
    algebra = algebra_from_strings(QQ, ["x"], [])
    d = D(algebra, x="x^2 + 1")
    grading = attach_grading(algebra, [(1,)])
    pieces = decompose(d, grading)
    assert (pieces.lower, pieces.upper) == (-1, 1)
    assert pieces.components[-1].images["x"] == 1
    assert pieces.components[1].images["x"].rep == parse_expression(
        "x^2", algebra.context
    )
    assert -1 in pieces.components and 1 in pieces.components and 0 not in pieces.components


def test_decompose_homogeneous_is_identity(y3):
    algebra, derivation = y3
    grading = attach_grading(algebra, [yp_weight_row(3)])
    pieces = decompose(derivation, grading)
    assert list(pieces.components) == [1]
    assert pieces.components[1] == derivation


def _mixed_y3_lnd(algebra, derivation):
    # (1 + y) times the solved derivation: still nilpotent since y is killed,
    # and inhomogeneous under gradings that weight y
    scale = algebra.one() + algebra.variable("y")
    images = {n: (scale * derivation.images[n]).rep for n in algebra.variables}
    return new_derivation(algebra, images)


def test_decompose_sums_back_and_extremes_certify(y3):
    algebra, derivation = y3
    mixed = _mixed_y3_lnd(algebra, derivation)
    assert certify_lnd(mixed, 8).certified
    grading = attach_grading(algebra, [(0, -1, -2, 1, 0, -1)])
    pieces = decompose(mixed, grading)
    assert len(pieces.components) == 2
    for name in algebra.variables:
        total = algebra.zero()
        for part in pieces.components.values():
            total = total + part.images[name]
        assert total == mixed.images[name]
    for extreme in (pieces.lower, pieces.upper):
        assert certify_lnd(pieces.components[extreme], 8).certified
    assert pieces.components[pieces.lower] == derivation


def test_decompose_zero_derivation():
    algebra = free_xy()
    pieces = decompose(
        zero_derivation(algebra), attach_grading(algebra, [(1, 1)])
    )
    assert pieces.components == {}
    assert pieces.lower is None and pieces.upper is None


def test_derivations_with_different_images_or_algebras_differ():
    # equal needs both the same presentation and the same images
    algebra = free_xy()
    shift = D(algebra, x="0", y="x")
    assert shift == D(free_xy(), x="0", y="x")
    assert shift != D(algebra, x="0", y="2*x") and not shift == D(algebra, x="0", y="2*x")
    assert shift != D(algebra_from_strings(QQ, ["x", "y"], ["x^2"]), x="0", y="x")


def test_decompose_refuses_a_grading_of_another_algebra():
    algebra = free_xy()
    d = D(algebra, x="x^2 + 1", y="0")
    with pytest.raises(DerivationError, match="grading belongs to a different algebra"):
        decompose(d, attach_grading(torus_line(), [(1, -1)]))
    # a grading of an equal algebra built separately is accepted
    twin = free_xy()
    assert twin is not algebra
    pieces = decompose(d, attach_grading(twin, [(1, 0)]))
    assert dict(pieces.components) == dict(decompose(d, attach_grading(algebra, [(1, 0)])).components)
    assert (pieces.lower, pieces.upper) == (-1, 1)


def test_exp_size_guard_refuses_at_the_bit_length_boundary():
    # one orbit x, D(x) = 1, so the largest order is 1 and t^1 is checked:
    # 10**1 has bit length 4, so a t of 4 bits is refused and one of 3 is not
    algebra = algebra_from_strings(QQ, ["x"], [])
    d = D(algebra, x="1")
    assert (10**1).bit_length() == 4
    with pytest.raises(SizeLimitError, match="t\\^1 could exceed 1 digits"):
        exp(d, 8, max_digits=1)
    assert exp(d, 7, max_digits=1).images["x"].rep == parse_expression("x + 7", algebra.context)


def test_homogeneous_degree_vector(y3):
    algebra, derivation = y3
    grading = attach_grading(algebra, [yp_weight_row(3), (0, 0, 0, 0, 0, 0)])
    assert homogeneous_degree(derivation, grading) == (1, 0)


@st.composite
def _graded_derivations(draw):
    """A triangular or diagonal derivation of a free algebra, with a one- or
    two-row grading of weights in -2..2 (any such matrix grades it)."""
    if draw(st.booleans()):
        derivation, _ = draw(_random_free_derivations(triangular=True))
    else:
        n = draw(st.integers(min_value=2, max_value=3))
        context = Context(QQ, tuple(f"x{i}" for i in range(n)))
        images = {
            name: Polynomial.monomial(context, {name: 1}, draw(st.integers(-2, 2)))
            for name in context.variables
        }
        derivation = new_derivation(PresentedAlgebra(context, []), images)
    n = len(derivation.algebra.variables)
    row = st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n)
    matrix = draw(st.lists(row, min_size=1, max_size=2))
    return derivation, attach_grading(derivation.algebra, matrix)


@settings(max_examples=150, deadline=None)
@given(_graded_derivations())
def test_homogeneous_degree_matches_row_by_row_oracle(case):
    derivation, grading = case
    assert homogeneous_degree(derivation, grading) == helpers.homogeneous_degree_oracle(
        derivation, grading
    )


def test_homogeneous_degree_without_rows():
    # the one difference from the row-by-row oracle: a grading with no rows
    # gives the zero derivation no degree, as for every other grading
    algebra = free_xy()
    grading = attach_grading(algebra, [])
    assert homogeneous_degree(D(algebra, x="0", y="x^2 + x"), grading) == ()
    zero = zero_derivation(algebra)
    assert homogeneous_degree(zero, grading) is None
    assert helpers.homogeneous_degree_oracle(zero, grading) == ()


def test_homogenize_already_homogeneous(y3):
    algebra, derivation = y3
    grading = attach_grading(algebra, [yp_weight_row(3)])
    result, degree = homogenize_lnd(derivation, grading, 8)
    assert result == derivation
    assert degree == (1,)


def test_homogenize_takes_top_component():
    algebra = free_xy()
    d = D(algebra, x="0", y="x + x^2")
    grading = attach_grading(algebra, [(1, 1)])
    result, degree = homogenize_lnd(d, grading)
    assert result.images["y"].rep == parse_expression("x^2", algebra.context)
    assert degree == (1,)
    assert certify_lnd(result, 8).certified


def test_homogenize_two_rows():
    algebra = free_xy()
    d = D(algebra, x="0", y="x + x^2")
    grading = attach_grading(algebra, [(1, 1), (1, 2)])
    result, degree = homogenize_lnd(d, grading)
    assert homogeneous_degree(result, grading) == degree
    # homogeneous under both rows
    for row in (0, 1):
        for name in algebra.variables:
            rep = result.images[name].rep
            if rep.terms:
                assert len(rep.weighted_components(grading.matrix[row])) == 1


def test_homogenize_zero_rejected():
    algebra = free_xy()
    grading = attach_grading(algebra, [(1, 1)])
    with pytest.raises(DerivationError):
        homogenize_lnd(zero_derivation(algebra), grading)


def test_diagonal_semisimple():
    d = D(free_xy(), x="x", y="2*y")
    assert is_diagonal_semisimple(d) == (1, 2)
    zero = zero_derivation(free_xy())
    assert is_diagonal_semisimple(zero) == (0, 0)
    # x lies in the ideal, so every well-defined D sends it to 0
    in_ideal = algebra_from_strings(QQ, ["x", "y"], ["x"])
    assert is_diagonal_semisimple(D(in_ideal, x="0", y="3*y")) == (0, 3)
    assert is_diagonal_semisimple(D(in_ideal, x="0", y="1")) is None


def test_diagonal_semisimple_absent(y3):
    _, derivation = y3
    assert is_diagonal_semisimple(derivation) is None
    d = D(free_xy(), x="y", y="0")
    assert is_diagonal_semisimple(d) is None


def test_exp_identity_at_zero():
    algebra = free_xy()
    d = D(algebra, x="0", y="x")
    assert exp(d, 0).agrees_with(identity_morphism(algebra))


def test_exp_triangular():
    algebra = free_xy()
    d = D(algebra, x="0", y="x")
    m = exp(d, Fraction(1))
    assert m.images["y"].rep == parse_expression("x + y", algebra.context)
    assert m.images["x"] == algebra.variable("x")


def test_exp_after_low_cap_certification():
    # a certificate is a value: an inconclusive result at cap 0 leaves the
    # derivation, and its exponential, exactly as they were
    algebra = free_xy()
    d = D(algebra, x="0", y="x")
    assert certify_lnd(d, 8).certified
    assert not certify_lnd(d, 0).certified
    m = exp(d, 1)
    assert m.images["y"].rep == parse_expression("x + y", algebra.context)


def test_exp_inconclusive_within_cap(y3):
    _, derivation = y3
    with pytest.raises(InconclusiveError):
        exp(derivation, 1, cap=1)
    assert exp(derivation, 1, cap=2).images["z"] != derivation.algebra.variable("z")


def test_exp_group_law_triangular():
    rng = random.Random(71)
    algebra = free_xy()
    d = D(algebra, x="0", y="x + x^2")
    for _ in range(20):
        s = helpers.random_fraction(rng)
        t = helpers.random_fraction(rng)
        composed = exp(d, s).compose(exp(d, t))
        assert composed.agrees_with(exp(d, s + t))


def test_exp_vandermonde_maps_relations_into_ideal(y3):
    algebra, derivation = y3
    m = exp(derivation, 1)
    for relation in algebra.relations:
        assert not m.apply(relation)
    roundtrip = exp(derivation, -1).compose(m)
    assert roundtrip.agrees_with(identity_morphism(algebra))


def test_exp_group_law_vandermonde(y3):
    rng = random.Random(73)
    _, derivation = y3
    for _ in range(5):
        s = helpers.random_fraction(rng, span=3)
        t = helpers.random_fraction(rng, span=3)
        assert exp(derivation, s).compose(exp(derivation, t)).agrees_with(
            exp(derivation, s + t)
        )


def test_exp_needs_the_verified_premise(y3):
    algebra, derivation = y3
    # y -> 1 does not descend, so no derivation with these images exists to
    # exponentiate, and none can be handed witnesses it did not earn
    images = dict(derivation.images, y=algebra.element(1))
    with pytest.raises(NotWellDefinedError):
        Derivation(algebra, images)
    with pytest.raises(TypeError):
        Derivation(algebra, images, None)
    # a verified derivation whose orders exceed the cap stays inconclusive
    with pytest.raises(InconclusiveError):
        exp(derivation, 1, cap=1)


def test_exp_images_pass_the_relation_check(y3):
    # the relation check that exp relies on the theorem to skip, as an oracle
    algebra, derivation = y3
    lifted = lift_along_root(certify_lnd(derivation), "y", "u", 2)
    for d in (derivation, lifted.derivation):
        for t in (1, -1, Fraction(1, 2), Fraction(3, 7), root_of_unity(3, 1)):
            AlgebraMorphism(d.algebra, d.algebra, exp(d, t).images)


def test_user_morphism_breaking_a_relation_is_refused(y3):
    algebra, _ = y3
    images = {name: algebra.variable(name) for name in algebra.variables}
    images["w"] = algebra.element(parse_expression("2*w", algebra.context))
    with pytest.raises(MorphismError):
        AlgebraMorphism(algebra, algebra, images)
    # x -> x + 1 sends x - y^2 to 1; no option skips the check
    parabola = algebra_from_strings(QQ, ["x", "y"], ["x - y^2"])
    shifted = {"x": parse_expression("x + 1", parabola.context), "y": parabola.variable("y")}
    with pytest.raises(MorphismError):
        AlgebraMorphism(parabola, parabola, shifted)
    with pytest.raises(TypeError):
        AlgebraMorphism(parabola, parabola, shifted, check=False)
    # an image for a name the source lacks is refused, as Derivation refuses it
    plane = algebra_from_strings(QQ, ["x", "y"], ["x*y"])
    extra = {"x": plane.variable("x"), "y": plane.variable("y"), "q": 1}
    with pytest.raises(MorphismError, match="unknown variable 'q'"):
        AlgebraMorphism(plane, plane, extra)


def test_compose_from_one_table_matches_per_image_apply(y3):
    algebra, derivation = y3
    for s, t in [(1, -1), (Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 7), root_of_unity(3, 1))]:
        inner = exp(derivation, t)
        # a user-built morphism pushes through one table of powers per call,
        # an exponential along D-orbits; both must agree with apply
        for outer in (
            AlgebraMorphism(algebra, algebra, exp(derivation, s).images),
            exp(derivation, s),
        ):
            composed = outer.compose(inner)
            assert composed.images == {
                name: outer.apply(image) for name, image in inner.images.items()
            }


# ----------------------------------------------------------------------
# exponentials against the substitution route

_T_VALUES = (1, -1, Fraction(1, 2), Fraction(3, 7), root_of_unity(3, 1))


@pytest.fixture(scope="module")
def y3_and_lift(y3):
    """The Vandermonde LND of Yp(3) and its lift along y = u^2."""
    algebra, derivation = y3
    lifted = lift_along_root(certify_lnd(derivation), "y", "u", 2)
    return derivation, lifted.derivation


def _substitution_route(derivation, s, t):
    """exp(sD) o exp(tD) with exp(sD) rebuilt as a user morphism, relations checked."""
    algebra = derivation.algebra
    outer = AlgebraMorphism(algebra, algebra, exp(derivation, s).images)
    return outer.compose(exp(derivation, t))


def test_exp_compose_matches_the_substitution_route(y3_and_lift):
    for derivation in y3_and_lift:
        for s, t in zip(_T_VALUES, _T_VALUES[1:] + _T_VALUES[:1]):
            composed = exp(derivation, s).compose(exp(derivation, t))
            assert composed.images == _substitution_route(derivation, s, t).images


def test_exp_apply_matches_the_substitution_route(y3_and_lift):
    rng = random.Random(83)
    for derivation in y3_and_lift:
        algebra = derivation.algebra
        for t in _T_VALUES:
            morphism = exp(derivation, t)
            generic = AlgebraMorphism(algebra, algebra, morphism.images)
            for _ in range(3):
                f = random_polynomial(rng, algebra.context, max_terms=3, max_exp=1)
                assert morphism.apply(f) == generic.apply(f)


@settings(max_examples=40, deadline=None)
@given(
    _random_free_derivations(triangular=True),
    st.sampled_from(_T_VALUES[:4]),
    st.sampled_from(_T_VALUES[:4]),
    st.randoms(use_true_random=False),
)
def test_exp_on_triangular_derivations_matches_the_substitution_route(case, s, t, rng):
    derivation, _ = case
    algebra = derivation.algebra
    outer = exp(derivation, s)
    composed = outer.compose(exp(derivation, t))
    assert composed.images == _substitution_route(derivation, s, t).images
    assert composed.agrees_with(exp(derivation, s + t))
    generic = AlgebraMorphism(algebra, algebra, outer.images)
    f = random_polynomial(rng, algebra.context, max_terms=3, max_exp=2)
    assert outer.apply(f) == generic.apply(f)


def test_exponentials_push_along_orbits_not_by_substitution(y3_and_lift, monkeypatch):
    def refuse(self, bindings, into=None):
        raise AssertionError("an exponential pushed an element by substitution")

    monkeypatch.setattr(Polynomial, "substitute", refuse)
    for derivation in y3_and_lift:
        algebra = derivation.algebra
        half = exp(derivation, Fraction(1, 2))
        assert half.compose(half).agrees_with(exp(derivation, 1))
        f = algebra.variable("x0") * algebra.variable("z")
        assert half.apply(half.apply(f)) == exp(derivation, 1).apply(f)


def test_exponential_push_stops_at_the_order_bound(y3, monkeypatch):
    # orders x_j -> 2, z -> 1, y, w -> 0: x0*z has bound U = 3, and
    # D^4(x0*z) = 0 is never computed
    algebra, derivation = y3
    morphism = exp(derivation, Fraction(1, 2))
    calls = []
    real_apply = Derivation.apply

    def counted(self, value):
        calls.append(value)
        return real_apply(self, value)

    monkeypatch.setattr(Derivation, "apply", counted)
    for text, bound in (("x0", 2), ("x0*z", 3), ("y*w", 0), ("0", 0)):
        calls.clear()
        f = algebra.element(parse_expression(text, algebra.context))
        image = morphism.apply(f)
        assert len(calls) == bound, text
        expected = f
        term = f
        for k in range(1, bound + 1):
            term = real_apply(derivation, term)
            expected = expected + term * (Fraction(1, 2) ** k / math.factorial(k))
        assert image == expected, text


@pytest.fixture(scope="module")
def y5():
    derivation = build_vandermonde_lnd(5)
    return derivation.algebra, derivation


def test_exp_inverse_at_p5(y5):
    # composing the 72-term images by substitution ran past 300 s
    algebra, derivation = y5
    for t in (Fraction(1, 2), root_of_unity(5, 1)):
        with helpers.wall_clock_budget(20):
            roundtrip = exp(derivation, t).compose(exp(derivation, -t))
        assert roundtrip.agrees_with(identity_morphism(algebra))


def test_exp_is_multiplicative_at_p5(y5):
    # composing exponentials checks only the series identity on orbits, so
    # the product rule is checked here, against products of the images
    algebra, derivation = y5
    morphism = exp(derivation, Fraction(1, 2))
    images = morphism.images
    with helpers.wall_clock_budget(20):
        for a, b in (("x0", "x1"), ("x0", "w"), ("x3", "z"), ("y", "w")):
            product = algebra.variable(a) * algebra.variable(b)
            assert morphism.apply(product) == images[a] * images[b], (a, b)


def test_certificate_json_payload(y3):
    from suspensia.derivation import certificate_json

    _, derivation = y3
    payload = certificate_json(certify_lnd(derivation, 8))
    assert payload["wellDefined"]["ok"]
    assert all(r["identicallyZero"] for r in payload["wellDefined"]["relations"])
    assert payload["lnd"]["status"] == "certified"
    assert payload["lnd"]["orders"] == {
        "x0": 2, "x1": 2, "x2": 2, "y": 0, "z": 1, "w": 0
    }


def test_decomposed_components_satisfy_leibniz(y3):
    rng = random.Random(79)
    algebra, derivation = y3
    mixed = _mixed_y3_lnd(algebra, derivation)
    grading = attach_grading(algebra, [(0, -1, -2, 1, 0, -1)])
    pieces = decompose(mixed, grading)
    pool = [algebra.variable(n) for n in ("x0", "x1", "z", "y")]
    for part in pieces.components.values():
        for _ in range(25):
            a, b = rng.sample(pool, 2)
            assert part.apply(a * b) == a * part.apply(b) + b * part.apply(a)


def _state(obj):
    """Every attribute of obj, with a shallow copy of each mapping attribute."""
    if hasattr(obj, "__dict__"):
        attributes = dict(vars(obj))
    else:
        attributes = {name: getattr(obj, name) for name in type(obj).__slots__}
    return {
        name: (value, dict(value) if isinstance(value, (dict, MappingProxyType)) else None)
        for name, value in attributes.items()
    }


def _assert_same_state(before, after):
    assert before.keys() == after.keys()
    for name, (value, contents) in before.items():
        assert after[name][0] is value, name
        assert after[name][1] == contents, name


def test_certification_writes_nothing():
    derivation = build_vandermonde_lnd(3)
    algebra = derivation.algebra
    grading = attach_grading(algebra, [yp_weight_row(3)])
    watched = (derivation, algebra)
    before = [_state(obj) for obj in watched]
    certificate = certify_lnd(derivation, 8)
    exp(derivation, 1)
    homogenize_lnd(derivation, grading, 8)
    lifted = lift_along_root(certificate, "y", "u", 2)
    assert lifted.certified
    for obj, state in zip(watched, before):
        _assert_same_state(state, _state(obj))
    assert not hasattr(derivation, "__dict__")


@pytest.fixture
def checked():
    """Checked values to forge or edit: D(x) = x on Q[x, y] certifies
    inconclusive, and the zero derivation of Q[x, y]/(xy) certifies."""
    free = free_xy()
    context = Context(QQ, ("x", "y"))
    plane = PresentedAlgebra(context, [parse_expression("x*y", context)], gradings={"g": [[1, 1]]})
    zero = zero_derivation(plane)
    return SimpleNamespace(
        free=free, euler=D(free, x="x", y="0"), plane=plane, zero=zero,
        certificate=certify_lnd(zero), morphism=identity_morphism(plane),
        exponential=exp(zero, 1),
    )


def _forged(v):
    return LNDCertificate(v.euler, 8, {"x": 0, "y": 0}, ())


FORGERIES = {
    "certificate": _forged,
    "certificate lifted along a root": lambda v: lift_along_root(_forged(v), "y", "u", 2),
    "certificate lifted to a suspension": lambda v: lift_lnd(_forged(v), v.free.variable("y"), (2,)),
    "replaced certificate": lambda v: dataclasses.replace(v.certificate, derivation=v.euler),
    "certificate orders item": lambda v: v.certificate.orders.__setitem__("x", 5),
    "derivation images item": lambda v: v.zero.images.__setitem__("x", v.plane.element(1)),
    "morphism images item": lambda v: v.morphism.images.__setitem__("x", v.plane.element(1)),
    "algebra gradings item": lambda v: v.plane.gradings.__setitem__("g", None),
    "algebra relations": lambda v: setattr(v.plane, "relations", ()),
    "algebra deletion": lambda v: delattr(v.plane, "basis"),
    "element rep": lambda v: setattr(v.zero.images["x"], "rep", v.plane.one().rep),
    "element algebra": lambda v: setattr(v.plane.one(), "algebra", v.free),
    "image terms": lambda v: v.zero.images["x"].rep.terms.update(v.plane.one().rep.terms),
    "image terms item": lambda v: v.zero.images["x"].rep.terms.__setitem__((0, 0), Fraction(1)),
    "image term dict": lambda v: setattr(v.zero.images["x"].rep, "terms", {(0, 0): Fraction(1)}),
    "relation context": lambda v: setattr(v.plane.relations[0], "context", v.free.context),
    "basis generator terms": lambda v: v.plane.basis.generators[0].terms.clear(),
    "derivation images": lambda v: setattr(v.zero, "images", {}),
    "derivation witnesses": lambda v: setattr(v.zero, "well_defined", None),
    "morphism images": lambda v: setattr(v.morphism, "images", {}),
    "certificate orders": lambda v: setattr(v.certificate, "orders", {"x": 5}),
    "certificate deletion": lambda v: delattr(v.certificate, "inconclusive"),
    "decomposition components item": lambda v: decompose(
        v.euler, attach_grading(v.free, [(1, 1)])).components.__setitem__(0, v.zero),
    "decomposition components": lambda v: setattr(
        decompose(v.euler, attach_grading(v.free, [(1, 1)])), "components", {}),
    "exponential derivation": lambda v: setattr(v.exponential, "derivation", v.euler),
    "exponential t": lambda v: setattr(v.exponential, "t", 2),
    "exponential orders": lambda v: setattr(v.exponential, "orders", (5, 5)),
}


@pytest.mark.parametrize("forge", FORGERIES.values(), ids=FORGERIES.keys())
def test_checked_values_cannot_be_forged_or_edited(checked, forge):
    # each of these gave a certificate that certify_lnd would not issue, or
    # changed a value after its check, until it raised
    with pytest.raises((TypeError, AttributeError)):
        forge(checked)
    assert certify_lnd(checked.euler).status == "inconclusive"
    assert certify_lnd(checked.zero).certified and checked.zero.is_zero()
    assert checked.plane.relations and checked.plane.gradings["g"].matrix == ((1, 1),)


def test_certificate_repr():
    # the repr a dataclass gave, without the derivation
    certificate = certify_lnd(build_vandermonde_lnd(3), 1)
    assert repr(certificate) == (
        "LNDCertificate(cap=1, orders={'y': 0, 'z': 1, 'w': 0}, "
        "inconclusive=('x0', 'x1', 'x2'))"
    )


@settings(max_examples=80, deadline=None)
@given(_random_free_derivations(), st.fractions(min_value=-3, max_value=3, max_denominator=5))
def test_exp_matches_direct_series(case, t):
    derivation, cap = case
    algebra = derivation.algebra
    orders = {name: nu(derivation, algebra.variable(name), cap) for name in algebra.variables}
    if any(order is None for order in orders.values()):
        with pytest.raises(InconclusiveError):
            exp(derivation, t, cap)
        return
    morphism = exp(derivation, t, cap)
    for name, order in orders.items():
        expected = algebra.zero()
        term = algebra.variable(name)
        for j in range(order + 1):
            expected = expected + term * (t ** j / math.factorial(j))
            term = derivation.apply(term)
        assert morphism.images[name] == expected, name


# ----------------------------------------------------------------------
# orbits start at the stored images


def _check_orbits_against_the_oracle(derivation, cap, t):
    """``_orbits``, ``certify_lnd`` and exp(tD) agree with orbits iterated from each generator.

    The oracle applies D from the generator's normal form until a zero, or
    cap + 1 times, so it finds every order up to ``cap`` without the bound
    ``_orbits`` stops at.
    """
    algebra = derivation.algebra
    names = algebra.variables
    oracles = {name: helpers.orbit_oracle(derivation, name, cap + 1) for name in names}
    orders = {}
    for i, orbit in _orbits(derivation, cap):
        oracle = oracles[names[i]]
        if len(oracle) > cap + 1:
            assert orbit is None, names[i]
        else:
            assert orbit == oracle, names[i]
            orders[names[i]] = len(oracle) - 1
    certificate = certify_lnd(derivation, cap)
    assert dict(certificate.orders) == orders
    if not certificate.certified:
        with pytest.raises(InconclusiveError):
            exp(derivation, t, cap)
        return
    images = exp(derivation, t, cap).images
    for name, oracle in oracles.items():
        series, scalar = algebra.zero(), Fraction(1)
        for k, element in enumerate(oracle):
            if k:
                scalar = scalar * t / k
            series = series + element * scalar
        assert images[name] == series, name


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((QQ, CyclotomicField(3))).flatmap(
        lambda field: _random_free_derivations(triangular=True, field=field)
    ),
    st.sampled_from(_T_VALUES[:4]),
)
def test_orbits_of_triangular_derivations_match_the_oracle(case, t):
    derivation, cap = case
    _check_orbits_against_the_oracle(derivation, cap, t)


@functools.cache
def _orbit_cases():
    """Derivations whose orbits start at images stored by each route."""
    yp3 = build_vandermonde_lnd(3)
    algebra = yp3.algebra
    assert algebra.order == elimination("z")
    by_grevlex = PresentedAlgebra(algebra.context, algebra.relations, order=grevlex())
    images = {name: image.rep for name, image in yp3.images.items()}
    # x is reducible: its normal form is y^2, and D(x) = 2*y is stored as given
    parabola_context = Context(QQ, ("x", "y"))
    parabola = PresentedAlgebra(parabola_context, [parse_expression("x - y^2", parabola_context)],
                                order=lex())
    assert parabola.variable("x").rep == parse_expression("y^2", parabola_context)
    return {
        "Yp(3) elimination(z)": yp3,
        "Yp(3) grevlex": new_derivation(by_grevlex, images),
        "Yp(3) lifted along y = u^2": lift_along_root(certify_lnd(yp3), "y", "u", 2).derivation,
        "parabola": D(parabola, x="2*y", y="1"),
    }


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(("Yp(3) elimination(z)", "Yp(3) grevlex", "Yp(3) lifted along y = u^2",
                     "parabola")),
    st.integers(min_value=0, max_value=4),
    st.sampled_from(_T_VALUES[:4]),
)
def test_orbits_from_stored_images_match_the_oracle(name, cap, t):
    _check_orbits_against_the_oracle(_orbit_cases()[name], cap, t)
