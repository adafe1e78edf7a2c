"""Sparse polynomial arithmetic, substitution, and weighted decomposition."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suspensia import (
    Context,
    ContextError,
    Polynomial,
    PowerCollapseError,
    PresentedAlgebra,
    QQ,
    exp,
    grevlex,
    linear_forms,
    new_derivation,
    parse_expression,
    root_of_unity,
    s_polynomial,
)
from suspensia.coeff import CyclotomicField, _power

from helpers import (
    QXY,
    add_oracle,
    brute_force_product,
    convert_oracle,
    diff_oracle,
    leibniz_oracle,
    mul_oracle,
    random_polynomial,
    random_scalar,
    s_polynomial_oracle,
    sub_oracle,
    substitution_oracle,
)


def P(text, ctx):
    return parse_expression(text, ctx)


def test_square_of_sum():
    assert P("(x + y)^2", QXY) == P("x^2 + 2*x*y + y^2", QXY)


def test_product_of_twisted_forms_p3():
    # three factors x0 + e*x1*y + e^2*x2*y^2 over the cube roots of unity
    ctx = Context(CyclotomicField(3), ("x0", "x1", "x2", "y"))
    factors = []
    for i in (1, 2, 3):
        eps = root_of_unity(3, i)
        factors.append(
            Polynomial.monomial(ctx, {"x0": 1})
            + Polynomial.monomial(ctx, {"x1": 1, "y": 1}, eps)
            + Polynomial.monomial(ctx, {"x2": 1, "y": 2}, eps * eps)
        )
    fast = factors[0] * factors[1] * factors[2]
    oracle = brute_force_product(factors)
    assert fast == oracle
    assert all(c.is_rational() for c in fast.terms.values())
    expected = P("x0^3 + x1^3*y^3 + x2^3*y^6 - 3*x0*x1*x2*y^3", ctx)
    assert fast == expected


def test_multiply_by_zero():
    f = P("x^2 - y", QXY)
    assert f * Polynomial.zero(QXY) == 0
    assert not (f - f)


def test_context_mismatch():
    other = Context(QQ, ("x", "z"))
    with pytest.raises(ContextError):
        P("x", QXY) + P("x", other)


def test_no_polynomial_equals_a_scalar_outside_its_field():
    # as for polynomials of different contexts, == is False, not an error
    z3, z5 = root_of_unity(3, 1), root_of_unity(5, 1)
    assert (Polynomial.one(Context(QQ, ("x", "y"))) == z3) is False
    cyclotomic = Polynomial.constant(Context(CyclotomicField(3), ("x",)), z3)
    assert (cyclotomic == z5) is False
    assert cyclotomic != z5 and cyclotomic == z3
    # a rational value of Q(z@p) still equals the constant over Q
    assert Polynomial.one(QXY) == CyclotomicField(5).one


def test_ring_axioms_random():
    rng = random.Random(11)
    contexts = [QXY, Context(CyclotomicField(3), ("x", "y"))]
    for ctx in contexts:
        for _ in range(100):
            a = random_polynomial(rng, ctx)
            b = random_polynomial(rng, ctx)
            c = random_polynomial(rng, ctx)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a


def test_substitute_forms_y_to_u_squared():
    ctx = Context(QQ, ("x0", "x1", "x2", "y"))
    target = Context(QQ, ("x0", "x1", "x2", "u"))
    f = P("x0^3 + x1^3*y^3 + x2^3*y^6 - 3*x0*x1*x2*y^3", ctx)
    image = f.substitute({"y": P("u^2", target)}, into=target)
    assert image == P("x0^3 + x1^3*u^6 + x2^3*u^12 - 3*x0*x1*x2*u^6", target)
    # against the oracle: substitute into each factor first, then expand
    cyc = Context(CyclotomicField(3), ("x0", "x1", "x2", "u"))
    factors = []
    for i in (1, 2, 3):
        eps = root_of_unity(3, i)
        factors.append(
            Polynomial.monomial(cyc, {"x0": 1})
            + Polynomial.monomial(cyc, {"x1": 1, "u": 2}, eps)
            + Polynomial.monomial(cyc, {"x2": 1, "u": 4}, eps * eps)
        )
    assert brute_force_product(factors) == image.convert(cyc)


def test_substitute_identity():
    rng = random.Random(3)
    for _ in range(20):
        f = random_polynomial(rng, QXY)
        assert f.substitute({}) == f
        assert f.substitute({"x": P("x", QXY)}) == f


def test_substitute_raises_each_bound_image_to_each_exponent_once(monkeypatch):
    # x^2 occurs in three terms and y in two: one call squares the image of
    # x once, and raises the image of y to the first and second power once
    f = P("x^2*y + x^2 + x^2*y^2 + 3*y - x", QXY)
    bindings = {"x": P("y + 1", QXY), "y": P("x - y", QXY)}
    raised = []
    power = Polynomial.__pow__
    monkeypatch.setattr(
        Polynomial, "__pow__", lambda g, e: raised.append((g.text(), e)) or power(g, e)
    )
    image = f.substitute(bindings)
    assert sorted(raised) == [("x - y", 1), ("x - y", 2), ("y + 1", 1), ("y + 1", 2)]
    assert_same_terms(image, substitution_oracle(f, bindings, QXY))
    # the table lives in the call: a second call computes its own
    raised.clear()
    assert f.substitute(bindings) == image
    assert len(raised) == 4


def test_substitute_unbound_variable_missing_from_target():
    target = Context(QQ, ("x",))
    with pytest.raises(ContextError):
        P("x + y", QXY).substitute({}, into=target)
    # also when the variable does not occur, and for a binding in another context
    with pytest.raises(ContextError):
        P("x", QXY).substitute({}, into=target)
    with pytest.raises(ContextError):
        P("x", QXY).substitute({"y": P("x", target)})


def test_collapse_power_defining_case():
    ctx = Context(QQ, ("y",))
    target = Context(QQ, ("s",))
    assert P("y^3", ctx).convert(target, ("y", "s", Fraction(1, 3))) == P("s", target)


def test_collapse_power_divisibility_failure():
    ctx = Context(QQ, ("x", "y"))
    with pytest.raises(PowerCollapseError) as info:
        P("y^3 - x", ctx).convert(Context(QQ, ("x", "s")), ("y", "s", Fraction(1, 2)))
    assert info.value.witness == "y^3"
    assert str(info.value) == "exponent of y in y^3 is not divisible by 2"


def test_convert_refuses_the_first_offending_variable():
    # x has no counterpart in the target and y^3 does not collapse: the
    # variable earlier in the source's order decides which error is raised
    target = Context(QQ, ("s",))
    root = ("y", "s", Fraction(1, 2))
    with pytest.raises(ContextError, match="variable 'x' has no counterpart"):
        P("x*y^3", QXY).convert(target, root)
    with pytest.raises(PowerCollapseError) as info:
        P("x*y^3", Context(QQ, ("y", "x"))).convert(target, root)
    assert info.value.witness == "y^3*x"


def test_root_scale_must_be_positive():
    ctx = Context(QQ, ("x", "y"))
    with pytest.raises(ValueError, match="root scale must be positive"):
        P("y - x", ctx).convert(Context(QQ, ("x", "s")), ("y", "s", Fraction(-1, 2)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([QQ, CyclotomicField(5)]),
    st.sampled_from(["x", "y", "w"]),
    st.integers(1, 3),
)
def test_root_rewrite_matches_substitution(seed, field, var, k):
    # the root rewrite against the evaluation oracle, into a target context
    # whose variable order differs from the source's, and back down again
    rng = random.Random(seed)
    src = Context(field, ("x", "y", "w"))
    names = [n for n in src.variables if n != var]
    target = Context(field, (names[1], "u", names[0]))
    f = random_polynomial(rng, src, max_terms=6)
    u = Polynomial.variable(target, "u")
    lifted = f.convert(target, (var, "u", Fraction(k)))
    assert lifted == f.substitute({var: u**k}, into=target)
    assert lifted.convert(src, ("u", var, Fraction(1, k))) == f


def test_weighted_components_total_degree():
    comps = P("x^2 + x*y + y", QXY).weighted_components((1, 1))
    assert set(comps) == {1, 2}
    assert comps[2] == P("x^2 + x*y", QXY)
    assert comps[1] == P("y", QXY)


def test_weighted_components_single_weight_for_graded_relation():
    ctx = Context(QQ, ("x0", "x1", "x2", "y", "z"))
    f = P("x0^3 + x1^3*y^3 + x2^3*y^6 - 3*x0*x1*x2*y^3 - z^2", ctx)
    comps = f.weighted_components((2, 2, 2, 0, 3))
    assert list(comps) == [6]
    assert comps[6] == f


def test_weighted_components_zero():
    assert Polynomial.zero(QXY).weighted_components((1, 1)) == {}


def test_weighted_components_reconstruction_random():
    rng = random.Random(23)
    for _ in range(200):
        f = random_polynomial(rng, QXY, max_terms=6)
        weights = (rng.randint(-3, 3), rng.randint(-3, 3))
        comps = f.weighted_components(weights)
        total = Polynomial.zero(QXY)
        for deg, part in comps.items():
            assert part.weighted_degree(weights) == deg
            assert len(part.weighted_components(weights)) == 1
            total = total + part
        assert total == f


def test_top_degree_multiplicative():
    rng = random.Random(31)
    for _ in range(100):
        f = random_polynomial(rng, QXY, max_terms=4)
        g = random_polynomial(rng, QXY, max_terms=4)
        if not f.terms or not g.terms:
            continue
        weights = (rng.randint(-2, 3), rng.randint(-2, 3))
        assert (f * g).weighted_degree(weights) == f.weighted_degree(
            weights
        ) + g.weighted_degree(weights)


def test_diff():
    f = P("x^3*y + 2*x - 7", QXY)
    assert f.diff("x") == P("3*x^2*y + 2", QXY)
    assert f.diff("y") == P("x^3", QXY)
    assert Polynomial.zero(QXY).diff("x") == 0


def test_convert_embeds_and_descends():
    big = Context(CyclotomicField(3), ("x", "y", "z"))
    f = P("x^2 - 1/2*y", QXY)
    lifted = f.convert(big)
    assert lifted == P("x^2 - 1/2*y", big)
    assert lifted.convert(QXY) == f
    # a genuinely cyclotomic coefficient cannot descend
    g = Polynomial.constant(big, root_of_unity(3, 1))
    with pytest.raises(Exception):
        g.convert(QXY)


def test_negative_weights_allowed():
    f = P("x*y", QXY)
    assert f.weighted_degree((1, -1)) == 0


def test_non_integer_weights_rejected():
    # weights were truncated by int(): (2.7, 1) read as (2, 1) and "3" as 3
    f = P("x*y^2 + 3*x^2", QXY)
    for weights in ((2.7, 1), ("3", 1), (1.9, 1), (Fraction(1, 2), 1)):
        with pytest.raises(ContextError, match="weights must be integers"):
            f.weighted_degree(weights)
        with pytest.raises(ContextError, match="weights must be integers"):
            f.weighted_components(weights)
    # integral values of other types are the integers they equal
    assert f.weighted_degree((2.0, Fraction(1))) == 4
    assert list(f.weighted_components((1.0, 1))) == [2, 3]


def test_invalid_exponents_rejected():
    with pytest.raises(ContextError):
        Polynomial(QXY, {(1,): 1})
    with pytest.raises(ContextError):
        Polynomial(QXY, {(-1, 0): 1})
    with pytest.raises(ContextError):
        Context(QQ, ("x", "x"))
    with pytest.raises(ContextError):
        Context(QQ, ("z@3",))


def assert_same_terms(fast, oracle):
    # equal terms, inserted in the same order
    assert fast.context == oracle.context
    assert list(fast.terms.items()) == list(oracle.terms.items())


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([QQ, CyclotomicField(3)]))
def test_sums_match_the_merge_loop_oracles(seed, field):
    # every sum goes through poly._accumulate; the oracles are the merge
    # loops each operation had of its own
    rng = random.Random(seed)
    ctx = Context(field, ("x", "y", "w"))
    f = random_polynomial(rng, ctx, max_terms=6, max_exp=2)
    raw = dict(random_polynomial(rng, ctx, max_terms=4, max_exp=2).terms)
    for mono, coeff in f.terms.items():  # shared monomials, some cancelling
        if rng.random() < 0.5:
            raw[mono] = rng.choice([coeff, -coeff, coeff * 2])
    g = Polynomial(ctx, raw)
    assert_same_terms(f + g, add_oracle(f, g))
    assert_same_terms(f - g, sub_oracle(f, g))
    assert_same_terms(f * g, mul_oracle(f, g))
    # (f + g)(f - g): the cross terms cancel inside one product
    assert_same_terms((f + g) * (f - g), mul_oracle(add_oracle(f, g), sub_oracle(f, g)))
    for name in ctx.variables:
        assert_same_terms(f.diff(name), diff_oracle(f, name))

    # by name into another order and an extra variable, and into Q(z@3) from Q
    wider = Context(CyclotomicField(3), ("u", "w", "y", "x"))
    assert_same_terms(f.convert(wider), convert_oracle(f, wider))
    # a root onto a variable that is already there: images collide and cancel
    for scale in (Fraction(1), Fraction(2)):
        root = ("y", "x", scale)
        assert_same_terms(f.convert(ctx, root), convert_oracle(f, ctx, root))
    shifted = f.convert(ctx, ("y", "x", Fraction(1))) - f
    assert_same_terms(shifted, sub_oracle(convert_oracle(f, ctx, ("y", "x", Fraction(1))), f))

    target = Context(field, ("x", "y", "w", "u"))
    bindings = {
        "x": random_polynomial(rng, target, max_terms=3, max_exp=2),
        "y": Polynomial.variable(target, "u") - Polynomial.variable(target, "w"),
    }
    assert_same_terms(f.substitute(bindings, target), substitution_oracle(f, bindings, target))
    assert_same_terms(g.substitute(bindings, target), substitution_oracle(g, bindings, target))

    images = {name: random_polynomial(rng, ctx, max_terms=3, max_exp=2) for name in ctx.variables}
    derivation = new_derivation(PresentedAlgebra(ctx, []), images)
    assert_same_terms(derivation.leibniz_image(f), leibniz_oracle(derivation, f))

    if f and g:
        order = grevlex()
        assert_same_terms(s_polynomial(f, g, order), s_polynomial_oracle(f, g, order))


def test_leibniz_image_adds_the_products_one_at_a_time():
    # D(f) = 2y*(-x - y) + (2x + 2y)*(y + 2x).  The second product's first
    # pair 2x*y cancels the first product's -2x*y, and its last pair 2y*2x
    # brings x*y back: summed on its own first, the second product leaves
    # x*y in place, ahead of x^2, where one dict fed by both would not
    x, y = (1, 0), (0, 1)
    f = Polynomial(QXY, {(1, 1): 2, (0, 2): 1})
    images = {"x": Polynomial(QXY, {x: -1, y: -1}), "y": Polynomial(QXY, {y: 1, x: 2})}
    derivation = new_derivation(PresentedAlgebra(QXY, []), images)
    image = derivation.leibniz_image(f)
    assert list(image.terms) == [(1, 1), (2, 0)]
    assert_same_terms(image, leibniz_oracle(derivation, f))


def _summing_calls():
    """Calls that build a sum, with their inputs built already (parsing adds)."""
    ctx = Context(CyclotomicField(3), ("x", "y", "z"))
    f = P("x^2*y + (z@3)*y*z - 3*x + 1", ctx)
    algebra = PresentedAlgebra(ctx, [P("z^2", ctx)])
    nilpotent = new_derivation(algebra, {"x": P("y", ctx), "y": P("z", ctx), "z": P("0", ctx)})
    twisted = new_derivation(
        PresentedAlgebra(ctx, []), {"x": P("y^2 - x", ctx), "y": P("x + z", ctx), "z": f}
    )
    bindings = {"x": P("y + z", ctx), "z": P("x - 1", ctx)}
    automorphism = exp(nilpotent, Fraction(1, 2))
    element = algebra.element(P("x^3 + x*y", ctx))
    return {
        "leibniz_image": lambda: twisted.leibniz_image(f),
        "substitution": lambda: f.substitute(bindings),
        "exp_apply": lambda: automorphism.apply(element).rep,
        "linear_forms": lambda: linear_forms(5)[1],
    }


@pytest.mark.parametrize("call", ["leibniz_image", "substitution", "exp_apply", "linear_forms"])
def test_sums_are_accumulated_not_chained(monkeypatch, call):
    # each of these builds its sum in one dict: none may add or subtract
    # Polynomials, which would copy the partial sum at every step
    run = _summing_calls()[call]

    def refuse(self, other):
        raise AssertionError("a sum was chained with + or -")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(Polynomial, name, refuse)
    assert run().terms


class _OracleProduct:
    """A polynomial whose ``*`` is ``mul_oracle``, for ``coeff._power``."""

    def __init__(self, f):
        self.f = f

    def __mul__(self, other):
        return _OracleProduct(mul_oracle(self.f, other.f))


def _one_term(rng, context):
    """A single term: a shift (sometimes 0) times a scalar (sometimes 1, -1 or a root power)."""
    field = context.field
    mono = tuple(rng.randint(0, 3) for _ in range(context.nvars)) if rng.random() < 0.8 else None
    choices = [field.one, -field.one, random_scalar(rng, field)]
    if isinstance(field, CyclotomicField):
        choices.append(root_of_unity(field.p, rng.randint(1, field.p)))
    coeff = rng.choice(choices) or field.one
    return Polynomial(context, {mono or (0,) * context.nvars: coeff})


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([QQ, CyclotomicField(3)]), st.integers(0, 12))
def test_one_term_powers_match_square_and_multiply(seed, field, n):
    # the exponents are scaled by n and the coefficient raised once
    ctx = Context(field, ("x", "y", "w"))
    term = _one_term(random.Random(seed), ctx)
    oracle = _power(_OracleProduct(term), n, _OracleProduct(Polynomial.one(ctx))).f
    assert_same_terms(term**n, oracle)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([QQ, CyclotomicField(3)]))
def test_one_term_products_match_brute_force(seed, field):
    # a one-term operand on either side shifts and scales the other,
    # keeping the order in which the row-by-row product inserts its terms
    rng = random.Random(seed)
    ctx = Context(field, ("x", "y", "w"))
    term = _one_term(rng, ctx)
    f = random_polynomial(rng, ctx, max_terms=6, max_exp=2)
    for factors in ([term, f], [f, term], [term, term]):
        assert_same_terms(factors[0] * factors[1], brute_force_product(factors))
