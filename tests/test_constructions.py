"""The counterexample family: expansion, algebras, solved derivation, bundle."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suspensia import (
    CoefficientError,
    ConstructionError,
    Context,
    ContextError,
    CyclotomicNumber,
    Derivation,
    DerivationError,
    FormProducts,
    InconclusiveError,
    NotWellDefinedError,
    Polynomial,
    PowerCollapseError,
    QQ,
    build_F,
    build_vandermonde_lnd,
    build_Xp,
    build_Yp,
    certify_bundle,
    certify_family_lnd,
    certify_lnd,
    dump_canonical,
    form_products,
    linear_forms,
    new_derivation,
    parse_expression,
    root_of_unity,
)
from suspensia.cli import main
from suspensia import constructions
from suspensia.coeff import CyclotomicField
from suspensia.constructions import _root_products, yp_context
from suspensia.linalg import SingularMatrixError, solve_linear

from helpers import brute_force_product, root_products_oracle, yp_weight_row


def test_f3_closed_form_against_bruteforce_oracle():
    F, G = build_F(3)
    assert F == parse_expression(
        "x0^3 + x1^3*y^3 + x2^3*y^6 - 3*x0*x1*x2*y^3", F.context
    )
    assert G == parse_expression(
        "x0^3 + x1^3*s + x2^3*s^2 - 3*x0*x1*x2*s", G.context
    )
    forms = linear_forms(3)
    oracle = brute_force_product(list(forms))
    assert oracle == F.convert(oracle.context)


def test_forms_product_reconstructs_f5():
    forms = linear_forms(5)
    product = Polynomial.one(forms[0].context)
    for form in forms:
        product = product * form
    F, _ = build_F(5)
    assert product == F.convert(product.context)


def test_y_degrees_divisible_and_coefficients_rational():
    for p in (3, 5):
        F, _ = build_F(p)
        y_idx = F.context.index("y")
        assert all(m[y_idx] % p == 0 for m in F.terms)
        assert all(isinstance(c, Fraction) for c in F.terms.values())


@pytest.mark.parametrize("p", [3, 5, 7])
def test_form_products_match_object_product_oracle(p):
    products = form_products(p)
    assert (products.tail, products.full) == root_products_oracle(products.forms)


def _root_factor(context, p, terms):
    return Polynomial(context, {mono: root_of_unity(p, i) for mono, i in terms.items()})


@st.composite
def _root_factors(draw):
    """A prime p in {3, 5} and 1-4 factors over Q(z@p) whose coefficients are powers of z."""
    p = draw(st.sampled_from([3, 5]))
    context = Context(CyclotomicField(p), ("x", "y", "w"))
    monomials = st.tuples(*[st.integers(0, 3)] * 3)
    factors = draw(st.lists(
        st.dictionaries(monomials, st.integers(1, p), max_size=5), min_size=1, max_size=4
    ))
    return p, [_root_factor(context, p, terms) for terms in factors]


@settings(max_examples=150, deadline=None)
@given(_root_factors())
def test_root_products_match_repeated_multiplication(case):
    p, factors = case
    assert _root_products(p, factors) == root_products_oracle(factors)


def test_root_products_cancel_a_full_orbit():
    # (x + y)(x + z*y)(x + z^2*y) = x^3 + y^3 at p=3, since 1 + z + z^2 = 0:
    # the x^2*y and x*y^2 slots hold one contribution per power of z
    context = Context(CyclotomicField(3), ("x", "y"))
    factors = [_root_factor(context, 3, {(1, 0): 3, (0, 1): i}) for i in (3, 1, 2)]
    tail, full = _root_products(3, factors)
    assert full == parse_expression("x^3 + y^3", context)
    assert tail == parse_expression("x^2 + (-1)*x*y + y^2", context)


def test_root_products_refuse_other_coefficients():
    context = Context(CyclotomicField(3), ("x", "y"))
    x = Polynomial.variable(context, "x")
    for c in (2, Fraction(1, 2), 1 + root_of_unity(3, 1)):
        factor = x + Polynomial.variable(context, "y") * c
        for factors in ([x, factor], [factor, x]):
            with pytest.raises(ConstructionError, match="not a power of z@3"):
                _root_products(3, factors)
    # a root of unity of another order is no power of z@3 either
    with pytest.raises(ConstructionError):
        _root_products(5, [x])
    # factors from two contexts are refused, as Polynomial.__mul__ refuses them
    other = Polynomial.variable(Context(CyclotomicField(3), ("x", "w")), "x")
    with pytest.raises(ContextError):
        _root_products(3, [x, other])


def test_form_products_build_no_coefficient_objects_per_term_pair(monkeypatch):
    # the forms are multiplied as packed rotations: neither Polynomial.__mul__
    # nor CyclotomicNumber.__mul__ runs (linear_forms raises z to powers, so
    # the forms are built before the products are refused)
    forms = linear_forms(7)
    monkeypatch.setattr(constructions, "linear_forms", lambda p: forms)

    def refuse(*args):
        raise AssertionError("an object product was computed")

    for cls in (Polynomial, CyclotomicNumber):
        monkeypatch.setattr(cls, "__mul__", refuse)
        monkeypatch.setattr(cls, "__rmul__", refuse)
    products = form_products(7)
    monkeypatch.undo()
    assert (products.tail, products.full) == root_products_oracle(forms)


def test_prime_ceiling_and_validation():
    with pytest.raises(ConstructionError):
        build_F(4)
    with pytest.raises(ConstructionError):
        build_F(2)
    with pytest.raises(ConstructionError):
        build_F(11)


def test_prime_ceiling_env_override(monkeypatch):
    monkeypatch.setenv("SUSPENSIA_MAX_P", "5")
    with pytest.raises(ConstructionError):
        build_F(7)
    monkeypatch.setenv("SUSPENSIA_MAX_P", "bogus")
    with pytest.raises(ConstructionError):
        build_F(3)


def test_yp_structure():
    Yp = build_Yp(3)
    assert len(Yp.variables) == 6
    assert len(Yp.relations) == 2
    assert Yp.field.text == "Q(z@3)"


def test_xp_grading_degrees():
    for p, degree in [(3, 6), (5, 10)]:
        Xp, grading = build_Xp(p)
        row = grading.matrix[0]
        first = Xp.relations[0].weighted_components(row)
        second = Xp.relations[1].weighted_components(row)
        assert list(first) == [degree]
        assert list(second) == [0]


def test_vandermonde_images_closed_form():
    # independent oracle: the inverse of the root-of-unity Vandermonde matrix
    # gives d(x_j) = (2/p) * e_1^(-j) * z * y^(p-1-j)
    for p in (3, 5):
        d = build_vandermonde_lnd(p)
        Yp = d.algebra
        eps1 = root_of_unity(p, 1)
        for j in range(p):
            expected = Polynomial.monomial(
                Yp.context,
                {"z": 1, "y": p - 1 - j},
                eps1 ** (-j) * Fraction(2, p),
            )
            assert d.images[f"x{j}"].rep == expected
        assert not d.images["y"]
        assert not d.images["w"]


def test_vandermonde_constraints_hold():
    # the defining constraints themselves: first form maps to 2*z*y^(p-1),
    # the others map to zero
    p = 3
    d = build_vandermonde_lnd(p)
    Yp = d.algebra
    forms = linear_forms(p)
    target = Polynomial.monomial(Yp.context, {"z": 1, "y": p - 1}, 2)
    assert d.leibniz_image(forms[0]) == target
    for form in forms[1:]:
        assert not d.leibniz_image(form).terms


def test_solve_linear_against_closed_form():
    # the Vandermonde system of the roots of unity, solved by elimination,
    # against the closed-form constants the family uses
    for p in (3, 5, 7):
        matrix = [[root_of_unity(p, i) ** j for j in range(p)] for i in range(1, p + 1)]
        field = yp_context(p).field
        rhs = [field.coerce(2 if i == 0 else 0) for i in range(p)]
        solution = solve_linear(matrix, rhs)
        assert solution == constructions._constants(p)
        eps1 = root_of_unity(p, 1)
        for j in range(p):
            assert solution[j] == eps1 ** (-j) * Fraction(2, p)


def test_solve_linear_rejects_singular():
    with pytest.raises(SingularMatrixError):
        solve_linear([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
                     [Fraction(1), Fraction(1)])


def test_second_power_of_z_vanishes_in_free_ring():
    d = build_vandermonde_lnd(3)
    z = Polynomial.variable(d.algebra.context, "z")
    assert not d.leibniz_image(d.leibniz_image(z)).terms


def test_third_power_of_first_form_vanishes_in_free_ring():
    d = build_vandermonde_lnd(3)
    form = linear_forms(3)[0]
    image = form
    for _ in range(3):
        image = d.leibniz_image(image)
    assert not image.terms


def test_relation_images_identically_zero():
    for p in (3, 5):
        d = build_vandermonde_lnd(p)
        assert all(c.identically_zero for c in d.well_defined.checks)


def test_inverse_vandermonde_identity():
    # x_j * y^j = (1/p) * sum_i e_i^(-j) * L_i, the mechanism bounding the
    # nilpotency order of x_j
    for p in (3, 5):
        forms = linear_forms(p)
        context = forms[0].context
        for j in range(p):
            total = Polynomial.zero(context)
            for i in range(1, p + 1):
                eps = root_of_unity(p, i)
                total = total + forms[i - 1] * (eps ** (-j))
            expected = Polynomial.monomial(context, {f"x{j}": 1, "y": j}, p)
            assert total == expected


def test_yp_grading_homogeneous_with_homogeneous_derivation():
    from suspensia import attach_grading, decompose

    d = build_vandermonde_lnd(3)
    certify_lnd(d, 8)
    grading = attach_grading(d.algebra, [yp_weight_row(3)])
    pieces = decompose(d, grading)
    assert list(pieces.components) == [1]
    extreme = pieces.components[pieces.upper]
    assert certify_lnd(extreme, 8).certified


def test_build_F_conversions_catch_a_defective_expansion(monkeypatch):
    # the conversions to Q are what stops a defective product of forms
    forms = linear_forms(3)
    y = Polynomial.variable(forms[0].context, "y")
    for extra, error in ((y, PowerCollapseError), (y**3 * root_of_unity(3, 1), CoefficientError)):
        monkeypatch.setattr(
            constructions, "linear_forms", lambda p, extra=extra: forms + (extra,)
        )
        with pytest.raises(error):
            build_F(3)


def test_certify_bundle_3_6():
    bundle = certify_bundle(3, 6)
    assert bundle.report["ok"]
    # F and G are read off the certified Yp; they equal the standalone build
    assert (bundle.F, bundle.G) == build_F(3)
    assert bundle.Yp is bundle.derivation.algebra
    assert bundle.report["lnd"]["status"] == "certified"
    assert bundle.report["lift"]["lnd"]["status"] == "certified"
    assert bundle.report["lift"]["ordersMatchSource"]
    assert bundle.lifted_algebra.variables == ("x0", "x1", "x2", "u", "z", "w")
    assert bundle.report["imageBranches"] == {
        "x0": "direct-power",
        "x1": "direct-power",
        "x2": "direct-power",
    }
    # the bundle's fields are fixed once built
    with pytest.raises(dataclasses.FrozenInstanceError):
        bundle.derivation = None


def test_bundle_report_is_read_only(monkeypatch, tmp_path):
    # report is a fresh copy of the kept JSON text: editing it changes
    # neither the bundle nor the certificate.json that build-yp writes
    bundle = certify_bundle(3, 6)
    expected = dump_canonical(bundle.report)
    bundle.report["ok"] = False
    bundle.report["lnd"]["status"] = "forged"
    assert bundle.report["ok"]
    assert bundle.report["lnd"]["status"] == "certified"
    report = bundle.report
    report["ok"] = False
    assert bundle.report is not report and bundle.report["ok"]
    monkeypatch.setattr(constructions, "certify_bundle", lambda p, n, cap: bundle)
    assert main(["build-yp", "--p", "3", "--n", "6", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "certificate.json").read_text(encoding="utf-8") == expected


def test_certify_bundle_never_evaluates(monkeypatch):
    # root adjunction and the lift along it rewrite exponents, never substitute
    def refuse(*args, **kwargs):
        raise AssertionError("Polynomial.substitute was called")

    monkeypatch.setattr(Polynomial, "substitute", refuse)
    bundle = certify_bundle(3, 6)
    assert bundle.report["ok"]
    assert bundle.report["lift"]["lnd"]["status"] == "certified"


def test_certify_bundle_identity_substitution():
    bundle = certify_bundle(3, 3)
    assert bundle.report["ok"]
    assert bundle.report["lift"]["power"] == 1
    assert bundle.lifted_algebra.variables == ("x0", "x1", "x2", "u", "z", "w")
    # power one is a pure rename of y
    u = Polynomial.variable(bundle.lifted_algebra.context, "u")
    renamed = bundle.Yp.relations[0].substitute(
        {"y": u}, into=bundle.lifted_algebra.context
    )
    assert bundle.lifted_algebra.relations[0] == renamed


def test_certify_bundle_rejects_bad_n():
    with pytest.raises(ConstructionError):
        certify_bundle(3, 7)
    with pytest.raises(ConstructionError):
        certify_bundle(3, 0)


def test_certify_bundle_5_10_within_budget():
    import time

    start = time.perf_counter()
    bundle = certify_bundle(5, 10)
    elapsed = time.perf_counter() - start
    assert bundle.report["ok"]
    assert elapsed < 90.0, f"took {elapsed:.1f}s"
    assert bundle.lifted_algebra.relations[1].degree_in("u") == 2


def _generic_route(algebra, p, cap):
    """The family's derivation certified the way a loaded file is: the oracle.

    The images come from the closed form c_j = (2/p)*e_1^(-j) and from
    multiplying the forms here; ``new_derivation`` expands the Leibniz image
    of every relation and ``certify_lnd`` iterates every orbit.
    """
    context = algebra.context
    eps1 = root_of_unity(p, 1)
    images = {"y": 0, "w": 0}
    for j in range(p):
        images[f"x{j}"] = Polynomial.monomial(
            context, {"z": 1, "y": p - 1 - j}, eps1 ** (-j) * Fraction(2, p)
        )
    z_image = Polynomial.monomial(context, {"y": p - 1})
    for form in linear_forms(p)[1:]:
        z_image = z_image * form
    images["z"] = z_image
    return certify_lnd(new_derivation(algebra, images), cap)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_family_certificate_matches_generic_route(p):
    yp = build_Yp(p)
    for cap in range(4):
        certificate = certify_family_lnd(p, cap)
        algebra = certificate.derivation.algebra
        assert algebra.same_presentation(yp) and algebra.order == yp.order
        oracle = _generic_route(algebra, p, cap)
        assert certificate.to_json() == oracle.to_json()
        assert (
            certificate.derivation.well_defined.to_json()
            == oracle.derivation.well_defined.to_json()
        )
        assert certificate.derivation == oracle.derivation


@pytest.mark.parametrize("p", [3, 5, 7])
def test_certify_bundle_matches_generic_route(p, monkeypatch):
    def outcomes():
        found = []
        for cap in range(4):
            try:
                found.append(certify_bundle(p, 2 * p, cap).report)
            except InconclusiveError as exc:
                found.append(str(exc))
        return found

    proven = outcomes()
    assert [isinstance(o, dict) for o in proven] == [False, False, True, True]
    monkeypatch.setattr(
        constructions,
        "certify_family_lnd",
        lambda p, cap: _generic_route(build_Yp(p), p, cap),
    )
    assert outcomes() == proven


def test_family_certificate_iterates_no_orbit(monkeypatch):
    # the orders are proven from the linear forms; D is never applied
    def refuse(*args, **kwargs):
        raise AssertionError("Derivation.apply was called")

    monkeypatch.setattr(Derivation, "apply", refuse)
    bundle = certify_bundle(5, 10)
    assert bundle.report["ok"]
    assert bundle.report["lnd"]["orders"] == {
        **{f"x{j}": 2 for j in range(5)}, "y": 0, "z": 1, "w": 0
    }


@pytest.mark.parametrize(
    "perturb",
    [
        lambda c, e: [c[0], 2 * c[1], *c[2:]],
        lambda c, e: [c[0], 0 * c[1], *c[2:]],
        # keeps D(L_1) = 2*z*y^2, since 1*e - e*1 = 0, and breaks D(L_2)
        lambda c, e: [c[0] + e, c[1] - 1, *c[2:]],
        # keeps D(L_i) = 0 for i >= 2 and breaks D(L_1)
        lambda c, e: [2 * x for x in c],
    ],
)
def test_perturbed_constant_is_refused(perturb, monkeypatch, tmp_path):
    # a wrong c_j breaks a premise; no witness or certificate is issued
    constants = constructions._constants
    monkeypatch.setattr(
        constructions, "_constants", lambda p: perturb(constants(p), root_of_unity(3, 1))
    )
    with pytest.raises(DerivationError):
        build_vandermonde_lnd(3)
    with pytest.raises(DerivationError):
        certify_family_lnd(3, cap=8)
    with pytest.raises(DerivationError):
        certify_bundle(3, 6)
    out = tmp_path / "yp3"
    assert main(["build-yp", "--p", "3", "--n", "6", "--out", str(out)]) == 1
    assert not out.exists()


def test_tail_that_is_not_a_nonzero_normal_form_is_refused(monkeypatch):
    # D(z) = y^2*tail must be a nonzero normal form of Yp; the proof takes
    # tail from form_products, and the check still holds against others
    products = form_products(3)
    z = Polynomial.variable(products.full.context, "z")
    for tail in (Polynomial.zero(z.context), products.tail + z * z):
        forged = FormProducts(products.forms, tail, products.full)
        monkeypatch.setattr(constructions, "form_products", lambda p, forged=forged: forged)
        with pytest.raises(DerivationError):
            certify_family_lnd(3)


def test_certifiers_take_no_caller_built_algebra_or_products():
    # a caller's products with tail L_2*L_3 + x0 would pass every premise on
    # the images, though D(F - z^2) then has normal form -2*x0*y^2*z
    products = form_products(3)
    Y3 = build_Yp(3, products.full)
    x0 = Polynomial.variable(Y3.context, "x0")
    forged = FormProducts(products.forms, products.tail + x0, products.full)
    calls = [
        lambda: certify_family_lnd(3, Y3, 64, forged),
        lambda: certify_family_lnd(3, algebra=Y3),
        lambda: certify_family_lnd(3, products=forged),
        lambda: build_vandermonde_lnd(3, Y3),
        lambda: build_vandermonde_lnd(3, Y3, forged),
        lambda: build_vandermonde_lnd(3, products=forged),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()
    # the forged images are not a derivation of Yp at all
    d = build_vandermonde_lnd(3)
    images = {name: d.images[name].rep for name in Y3.variables}
    images["z"] = Polynomial.monomial(Y3.context, {"y": 2}) * forged.tail
    with pytest.raises(NotWellDefinedError):
        new_derivation(Y3, images)


@pytest.mark.parametrize("cap", [True, -1, 2.5])
def test_a_bad_cap_is_refused_before_any_work(monkeypatch, cap):
    def refuse(p):
        raise AssertionError("form_products ran for a bad cap")

    monkeypatch.setattr(constructions, "form_products", refuse)
    with pytest.raises(DerivationError, match="^cap must be a non-negative integer$"):
        certify_family_lnd(3, cap)
    with pytest.raises(DerivationError, match="^cap must be a non-negative integer$"):
        certify_bundle(3, 6, cap)
