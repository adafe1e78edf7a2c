"""Suspensions, the gcd criterion, torus weights, lifting, root adjunction."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suspensia import (
    Context,
    ContextError,
    Derivation,
    InconclusiveError,
    Polynomial,
    PowerCollapseError,
    PresentedAlgebra,
    QQ,
    SuspensionError,
    Verdict,
    adjoin_root,
    algebra_from_strings,
    build_vandermonde_lnd,
    build_Xp,
    build_Yp,
    buchberger,
    certify_bundle,
    certify_family_lnd,
    certify_lnd,
    collapse_root,
    eliminate,
    elimination,
    gcd_criterion,
    grevlex,
    lift_along_root,
    lift_lnd,
    new_derivation,
    parse_expression,
    suspend,
    torus_action,
    zero_derivation,
)
from suspensia import derivation as derivation_module
from suspensia import suspension as suspension_module

from helpers import assert_lift_matches_oracle


def test_classical_plane_suspension():
    X = algebra_from_strings(QQ, ["x"], [])
    Y, spec = suspend(X, parse_expression("x", X.context), (1, 1))
    assert Y.variables == ("x", "y1", "y2")
    assert [r.text() for r in Y.relations] == ["y1*y2 - x"]
    assert spec.gcd == 1


def test_single_exponent_one_recovers_base():
    X = algebra_from_strings(QQ, ["x", "t"], ["x^2*t - t - 1"])
    Y, spec = suspend(X, parse_expression("x + t", X.context), (1,))
    block = buchberger(list(Y.relations), elimination("y1"), context=Y.context)
    dropped = eliminate(block, ["y1"])
    base = buchberger(list(X.relations), context=X.context)
    assert dropped.context == X.context
    assert dropped.generators == base.generators


def test_suspension_over_x3_base():
    X3, _ = build_Xp(3)
    Y, spec = suspend(X3, X3.variable("s"), (2, 3))
    assert len(Y.variables) == 8
    assert Y.variables[-2:] == ("y1", "y2")
    expected = parse_expression("y1^2*y2^3 - s", Y.context)
    assert any(r == expected for r in Y.relations)
    assert all(
        any(r == base_r.convert(Y.context) for r in Y.relations)
        for base_r in X3.relations
    )


def test_constant_function_rejected():
    X = algebra_from_strings(QQ, ["x"], [])
    for constant in ("2", "0"):
        with pytest.raises(SuspensionError):
            suspend(X, parse_expression(constant, X.context), (1, 1))
    # constant modulo the relations is rejected too
    T = algebra_from_strings(QQ, ["y", "w"], ["y*w - 1"])
    with pytest.raises(SuspensionError):
        suspend(T, parse_expression("y*w", T.context), (2, 2))


def test_name_collision_rejected():
    X = algebra_from_strings(QQ, ["y1"], [])
    with pytest.raises(ContextError, match="duplicate variable name 'y1'"):
        suspend(X, parse_expression("y1", X.context), (1, 1))
    with pytest.raises(ContextError, match="duplicate variable name 'u'"):
        suspend(X, parse_expression("y1", X.context), (1, 1), names=("u", "u"))
    with pytest.raises(ContextError, match="invalid variable name '9a'"):
        suspend(X, parse_expression("y1", X.context), (1, 1), names=("9a", "u"))
    # a wrong count of names is malformed input too, not a suspension defect
    for names in (("u",), ("u", "v", "t")):
        with pytest.raises(ContextError, match="one fresh variable per exponent"):
            suspend(X, parse_expression("y1", X.context), (1, 1), names=names)
    X2 = algebra_from_strings(QQ, ["x"], [])
    Y, _ = suspend(X2, parse_expression("x", X2.context), (1, 1), names=("u", "v"))
    assert Y.variables == ("x", "u", "v")


def test_gcd_criterion_values():
    assert gcd_criterion((2, 3)).gcd == 1
    assert gcd_criterion((2, 3)).verdict is Verdict.RIGIDITY_PRESERVED
    assert gcd_criterion((4, 6)).gcd == 2
    assert gcd_criterion((4, 6)).verdict is Verdict.COUNTEREXAMPLE_POSSIBLE
    assert gcd_criterion((1,)).gcd == 1
    assert gcd_criterion((2, 2)).gcd == 2
    assert gcd_criterion((2, 3, 5)).gcd == 1


def test_gcd_criterion_pure_function_of_exponents():
    rng = random.Random(83)
    for _ in range(25):
        ks = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 4)))
        once = gcd_criterion(ks)
        again = gcd_criterion(ks)
        assert once == again
        shuffled = list(ks)
        rng.shuffle(shuffled)
        assert gcd_criterion(tuple(shuffled)).gcd == once.gcd
        assert gcd_criterion(tuple(shuffled)).verdict is once.verdict


def test_gcd_criterion_rejects_bad_exponents():
    with pytest.raises(SuspensionError):
        gcd_criterion(())
    with pytest.raises(SuspensionError):
        gcd_criterion((0, 2))


def test_boolean_exponent_is_refused():
    # True == 1, but a flag is not an exponent: (True, 2) built y1*y2^2 - x
    X = algebra_from_strings(QQ, ["x"], [])
    x = parse_expression("x", X.context)
    for exponents in ((True, 2), (2, True)):
        with pytest.raises(SuspensionError, match="positive integers"):
            suspend(X, x, exponents)
        with pytest.raises(SuspensionError):
            gcd_criterion(exponents)
    assert str(suspend(X, x, (1, 2))[0].relations[-1]) == "y1*y2^2 - x"


def test_non_integral_exponents_rejected():
    # int() would truncate these to (2, 4) and (2, 3)
    with pytest.raises(SuspensionError, match="positive integers"):
        gcd_criterion((2.5, 4.9))
    X = algebra_from_strings(QQ, ["x"], [])
    with pytest.raises(SuspensionError, match="positive integers"):
        suspend(X, parse_expression("x", X.context), (2.7, 3))
    with pytest.raises(SuspensionError, match="positive integers"):
        suspend(X, parse_expression("x", X.context), ("2", 3))
    # int() of an infinity raises OverflowError, which is not an exponent error
    with pytest.raises(SuspensionError, match="positive integers"):
        gcd_criterion((float("inf"), 2))
    # integral values of other types are still exponents
    assert gcd_criterion((Fraction(4), 6.0)).exponents == (4, 6)


def test_torus_weights():
    X = algebra_from_strings(QQ, ["x"], [])
    cases = {
        (1, 1): ((1, -1),),
        (2, 3): ((3, -2),),
        (2, 2): ((1, -1),),
        (2, 3, 5): ((5, 0, -2), (0, 5, -3)),
    }
    for ks, expected in cases.items():
        Y, spec = suspend(X, parse_expression("x", X.context), ks)
        action = torus_action(Y, spec)
        got = tuple(tuple(w for w, v in zip(row, Y.variables) if v != "x") for row in action.rows)
        assert got == expected
        # base variable x carries weight zero in every row
        x_idx = Y.context.index("x")
        assert all(row[x_idx] == 0 for row in action.rows)


def test_torus_weight_zero_on_all_relations():
    X3, _ = build_Xp(3)
    for ks in [(1, 1), (2, 3), (2, 2), (2, 3, 5)]:
        Y, spec = suspend(X3, X3.variable("s"), ks)
        action = torus_action(Y, spec)
        for row in action.rows:
            for relation in Y.relations:
                assert list(relation.weighted_components(row)) == [0]


def test_torus_requires_two_variables():
    X = algebra_from_strings(QQ, ["x"], [])
    Y, spec = suspend(X, parse_expression("x", X.context), (3,))
    with pytest.raises(SuspensionError):
        torus_action(Y, spec)


def test_lift_zero_derivation():
    X = algebra_from_strings(QQ, ["x"], [])
    x = parse_expression("x", X.context)
    Y, _ = suspend(X, x, (2, 2))
    lifted = lift_lnd(certify_lnd(zero_derivation(X), 4), x, (2, 2))
    assert lifted.certified
    assert lifted.derivation.is_zero()
    assert lifted.derivation.algebra.same_presentation(Y)
    assert lifted.derivation.algebra.context == Y.context


def test_lift_requires_killing_the_function():
    X = algebra_from_strings(QQ, ["x", "t"], [])
    d = X  # derivation x -> 0, t -> x does not kill x + t
    from suspensia import new_derivation

    d = new_derivation(
        X, {"x": parse_expression("0", X.context), "t": parse_expression("x", X.context)}
    )
    with pytest.raises(SuspensionError) as info:
        lift_lnd(certify_lnd(d, 4), parse_expression("x + t", X.context), (2, 2))
    assert "x" in str(info.value)


def _assert_matches_oracle(lifted, oracle):
    assert lifted.derivation == oracle.derivation
    assert lifted.cap == oracle.cap
    assert lifted.orders == oracle.orders
    assert list(lifted.orders) == list(oracle.orders)
    assert lifted.inconclusive == oracle.inconclusive == ()
    assert lifted.to_json() == oracle.to_json()


def test_lift_lnd_over_suspension_of_y3():
    # the solved derivation kills y, so it lifts to any suspension with f = y
    d = build_vandermonde_lnd(3)
    Y3 = d.algebra
    source_cert = certify_lnd(d, 8)
    cert = lift_lnd(source_cert, Y3.variable("y"), (2, 3), names=("u1", "u2"))
    assert cert.certified and cert.cap == 8
    for name in Y3.variables:
        assert cert.orders[name] == source_cert.orders[name]
    assert cert.orders["u1"] == 0 and cert.orders["u2"] == 0
    # the oracle iterates the lifted derivation on the algebra suspend builds
    Y, _ = suspend(Y3, Y3.variable("y"), (2, 3), names=("u1", "u2"))
    assert cert.derivation.algebra.same_presentation(Y)
    images = {name: d.images[name].rep.convert(Y.context) for name in Y3.variables}
    images.update(u1=Polynomial.zero(Y.context), u2=Polynomial.zero(Y.context))
    oracle = certify_lnd(new_derivation(Y, images), source_cert.cap)
    _assert_matches_oracle(cert, oracle)


def test_lifts_keep_the_lowest_cap_that_certifies_the_source():
    # Yp(3)'s x_j have order 2, so cap 2 is the least that certifies it
    source = certify_family_lnd(3, 2)
    assert source.certified and max(source.orders.values()) == 2
    Y3 = source.derivation.algebra
    by_root = lift_along_root(source, "y", "u", 3)
    by_suspension = lift_lnd(source, Y3.variable("y"), (2, 3))
    for lifted in (by_root, by_suspension):
        assert lifted.certified and lifted.cap == 2
        assert lifted.to_json() == certify_lnd(lifted.derivation, 2).to_json()
    with pytest.raises(InconclusiveError, match="source derivation is not certified"):
        lift_lnd(certify_family_lnd(3, 1), Y3.variable("y"), (2, 3))


@st.composite
def _root_lift_cases(draw):
    """A derivation over Q that kills y, with a root power in 1..3 and a cap.

    The algebra is Q[t0..t(n-1), y, c], n in 1..3, perhaps modulo one
    nonconstant relation in y and c.  D kills y and c, so it kills every
    such relation, and D(t_i) mentions only t_j (j < i), y and c, so D is
    locally nilpotent.  The cap, at which the source is certified, is the
    default or 1..8; orders reach 7, so a drawn cap can leave the source
    uncertified, and then the lift must refuse it.
    """
    n = draw(st.integers(min_value=1, max_value=3))
    names = tuple(f"t{i}" for i in range(n)) + ("y", "c")
    context = Context(QQ, names)
    kernel = [n, n + 1]

    def polynomial(allowed):
        terms = {}
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            mono = [0] * len(names)
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                mono[draw(st.sampled_from(allowed))] += 1
            terms[tuple(mono)] = draw(st.integers(min_value=-3, max_value=3).filter(bool))
        return Polynomial(context, terms)

    images = {f"t{i}": polynomial(list(range(i)) + kernel) for i in range(n)}
    images["y"] = images["c"] = Polynomial.zero(context)
    relations = []
    if draw(st.booleans()):
        relation = polynomial(kernel)
        if any(any(m) for m in relation.terms):
            relations.append(relation)
    derivation = new_derivation(PresentedAlgebra(context, relations), images)
    power = draw(st.integers(min_value=1, max_value=3))
    cap = draw(st.none() | st.integers(min_value=1, max_value=8))
    return derivation, power, cap


@settings(max_examples=60, deadline=None)
@given(_root_lift_cases())
def test_lift_along_root_matches_certify_oracle(case):
    derivation, power, cap = case
    source = certify_lnd(derivation) if cap is None else certify_lnd(derivation, cap)
    if not source.certified:
        with pytest.raises(InconclusiveError, match="source derivation is not certified"):
            lift_along_root(source, "y", "u", power)
        return
    lifted = adjoin_root(derivation.algebra, "y", "u", power)
    result = lift_along_root(source, "y", "u", power)
    assert result.derivation.algebra.same_presentation(lifted)
    # images through evaluation, not through the exponent rewrite
    bindings = {"y": Polynomial.variable(lifted.context, "u") ** power}
    images = {
        ("u" if name == "y" else name): derivation.images[name].rep.substitute(
            bindings, into=lifted.context
        )
        for name in derivation.algebra.variables
    }
    oracle = certify_lnd(new_derivation(lifted, images), source.cap)
    _assert_matches_oracle(result, oracle)
    assert_lift_matches_oracle(result, source, lifted, ("y", "u", power))


@settings(max_examples=60, deadline=None)
@given(
    _root_lift_cases(),
    st.sampled_from(["y", "c", "y*c + 2", "y^2 - c"]),
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
)
def test_lift_lnd_matches_transport_oracle(case, function, exponents):
    derivation, _, cap = case
    source = certify_lnd(derivation) if cap is None else certify_lnd(derivation, cap)
    base = derivation.algebra
    f = parse_expression(function, base.context)
    if not any(any(m) for m in base.element(f).rep.terms):
        return  # f is a constant of the base, which suspend refuses
    if not source.certified:
        with pytest.raises(InconclusiveError, match="source derivation is not certified"):
            lift_lnd(source, f, exponents)
        return
    result = lift_lnd(source, f, exponents)
    assert_lift_matches_oracle(result, source, suspend(base, f, exponents)[0])


def _nilpotent_witness_case():
    """D(t) = c on Q[t, y, c]/(c^2, t*c, y^3 - c*y): D(t*c) = c^2 is a nonzero member."""
    X = algebra_from_strings(QQ, ["t", "y", "c"], ["c^2", "t*c", "y^3 - c*y"])
    images = {"t": "c", "y": "0", "c": "0"}
    d = new_derivation(X, {n: parse_expression(e, X.context) for n, e in images.items()})
    assert [c.image.text() for c in d.well_defined.checks] == ["0", "c^2", "0"]
    return certify_lnd(d, 4)


def test_lifts_transport_nonzero_witnesses():
    source = _nilpotent_witness_case()
    X = source.derivation.algebra
    by_root = lift_along_root(source, "y", "u", 2)
    assert_lift_matches_oracle(by_root, source, adjoin_root(X, "y", "u", 2), ("y", "u", 2))
    assert by_root.derivation.well_defined.checks[1].image.text() == "c^2"
    # D(t^2 + y) = 2*t*c is a nonzero member too, so the new relation's
    # witness image -D(f) is not 0
    f = parse_expression("t^2 + y", X.context)
    by_suspension = lift_lnd(source, f, (2, 2), names=("v1", "v2"))
    target = suspend(X, f, (2, 2), names=("v1", "v2"))[0]
    assert_lift_matches_oracle(by_suspension, source, target)
    assert by_suspension.derivation.well_defined.checks[-1].image.text() == "-2*t*c"


@pytest.mark.parametrize("p", [3, 5, 7])
def test_family_lifts_match_transport_oracle(p):
    source = certify_family_lnd(p)
    Yp = source.derivation.algebra
    by_root = lift_along_root(source, "y", "u", 2)
    assert_lift_matches_oracle(by_root, source, adjoin_root(Yp, "y", "u", 2), ("y", "u", 2))
    y = Yp.variable("y")
    by_suspension = lift_lnd(source, y, (2, 3))
    assert_lift_matches_oracle(by_suspension, source, suspend(Yp, y, (2, 3))[0])


def test_lift_along_root_expands_no_leibniz_image(monkeypatch):
    source = certify_family_lnd(7)
    calls = []
    real = Derivation.leibniz_image

    def counted(self, f):
        calls.append(f)
        return real(self, f)

    monkeypatch.setattr(Derivation, "leibniz_image", counted)
    assert lift_along_root(source, "y", "u", 2).certified
    assert calls == []


def test_transport_refuses_checks_that_do_not_line_up():
    source = _nilpotent_witness_case()
    X = source.derivation.algebra
    target = adjoin_root(X, "y", "u", 2)
    shuffled = PresentedAlgebra(target.context, target.relations[::-1], target.order)
    with pytest.raises(RuntimeError, match="internal error"):
        suspension_module._transport(source, shuffled, ("y", "u", 2))


@pytest.mark.parametrize("p", [3, 5])
def test_bundle_lift_matches_certify_oracle(p):
    bundle = certify_bundle(p, 2 * p)
    lifted = bundle.lifted_derivation
    # the bundle's lift is transported: rebuild it through new_derivation,
    # which checks every relation, and certify that by iteration
    rebuilt = new_derivation(
        bundle.lifted_algebra, {n: e.rep for n, e in lifted.images.items()}
    )
    assert rebuilt == lifted
    assert rebuilt.well_defined.to_json() == lifted.well_defined.to_json()
    assert bundle.report["lift"]["wellDefined"] == rebuilt.well_defined.to_json()
    oracle = certify_lnd(rebuilt, bundle.report["cap"])
    assert oracle.certified
    assert bundle.report["lift"]["lnd"] == oracle.to_json()
    assert bundle.report["lift"]["ordersMatchSource"]


def test_lifts_never_iterate_the_derivation(monkeypatch):
    source = certify_lnd(build_vandermonde_lnd(3), 8)
    Y3 = source.derivation.algebra

    def refuse(*args, **kwargs):
        raise AssertionError("a lift iterated the derivation")

    monkeypatch.setattr(derivation_module, "certify_lnd", refuse)
    monkeypatch.setattr(derivation_module, "_orbits", refuse)
    monkeypatch.setattr(suspension_module, "certify_lnd", refuse, raising=False)
    monkeypatch.setattr(Derivation, "apply", refuse)
    by_root = lift_along_root(source, "y", "u", 2)
    by_suspension = lift_lnd(source, Y3.variable("y"), (2, 3), names=("u1", "u2"))
    assert by_root.certified and by_suspension.certified
    assert by_root.orders["u"] == 0 and by_suspension.orders["u1"] == 0
    assert by_root.orders["x0"] == by_suspension.orders["x0"] == source.orders["x0"]


def test_adjoin_root_forward():
    Y3 = build_Yp(3)
    Y = adjoin_root(Y3, "y", "u", 2)
    assert Y.variables == ("x0", "x1", "x2", "u", "z", "w")
    expected = parse_expression(
        "x0^3 + x1^3*u^6 + x2^3*u^12 - 3*x0*x1*x2*u^6 - z^2", Y.context
    )
    assert Y.relations[0] == expected
    assert Y.relations[1] == parse_expression("u^2*w - 1", Y.context)


def test_adjoin_root_power_one_is_rename():
    X = algebra_from_strings(QQ, ["x", "y"], ["y^2 - x"])
    renamed = adjoin_root(X, "y", "t", 1)
    assert renamed.variables == ("x", "t")
    assert renamed.relations[0] == parse_expression("t^2 - x", renamed.context)


def test_root_adjunction_carries_the_order():
    lifted = adjoin_root(build_Yp(3), "y", "u", 2)
    assert lifted.order == elimination("z")
    assert len(lifted.basis.generators) == 2
    X = algebra_from_strings(QQ, ["x", "y", "z"], ["z^2 - x*y^2"])
    by_yz = PresentedAlgebra(X.context, X.relations, order=elimination("y", "z"))
    assert adjoin_root(by_yz, "y", "u", 2).order == elimination("u", "z")
    assert collapse_root(by_yz, "y", "s", 2).order == elimination("s", "z")
    assert adjoin_root(by_yz, "x", "t", 2).order == elimination("y", "z")
    assert adjoin_root(X, "y", "u", 2).order == grevlex()


def test_lift_along_root_preserves_orders():
    source = certify_lnd(build_vandermonde_lnd(3), 8)
    cert = lift_along_root(source, "y", "u", 2)
    assert cert.certified
    Y = adjoin_root(source.derivation.algebra, "y", "u", 2)
    assert cert.derivation.algebra.same_presentation(Y)
    assert cert.derivation.algebra.order == Y.order
    assert cert.orders["u"] == 0
    for name in ("x0", "x1", "x2", "z", "w"):
        assert cert.orders[name] == source.orders[name]


def test_lift_along_root_requires_killed_variable():
    X = algebra_from_strings(QQ, ["x", "y"], [])
    from suspensia import new_derivation

    d = new_derivation(
        X, {"x": parse_expression("y", X.context), "y": parse_expression("1", X.context)}
    )
    with pytest.raises(SuspensionError):
        lift_along_root(certify_lnd(d, 4), "y", "u", 2)


def _chain(x_image):
    """D on Q[x, s, t]: x -> x_image, s -> x, t -> s; t has order 2 or more."""
    X = algebra_from_strings(QQ, ["x", "s", "t"], [])
    images = {"x": x_image, "s": "x", "t": "s"}
    return new_derivation(X, {n: parse_expression(e, X.context) for n, e in images.items()})


@pytest.mark.parametrize("cap", [1, 8])
def test_lifts_check_the_kill_before_the_certificate(cap):
    # a D that moves f (or var) lifts at no cap, so both lifts refuse it
    # with one message whether or not the source is certified
    moving = certify_lnd(_chain("1"), cap)
    assert moving.certified == (cap == 8)
    f = parse_expression("x + t", moving.derivation.algebra.context)
    message = "derivation does not kill x + t: its image has normal form s + 1"
    with pytest.raises(SuspensionError, match=f"^{re.escape(message)}$"):
        lift_lnd(moving, f, (2, 3))
    message = "derivation does not kill x: its image has normal form 1"
    with pytest.raises(SuspensionError, match=f"^{re.escape(message)}$"):
        lift_along_root(moving, "x", "u", 2)
    # a D that kills f (and var) but is not certified is inconclusive
    killing = certify_lnd(_chain("0"), cap)
    x = parse_expression("x", killing.derivation.algebra.context)
    if cap == 1:
        assert not killing.certified
        for lift in (lambda: lift_lnd(killing, x, (2, 3)),
                     lambda: lift_along_root(killing, "x", "u", 2)):
            with pytest.raises(InconclusiveError, match="source derivation is not certified"):
                lift()
    else:
        assert lift_lnd(killing, x, (2, 3)).certified
        assert lift_along_root(killing, "x", "u", 2).certified


def test_lift_along_root_rejects_unknown_variable():
    source = certify_lnd(build_vandermonde_lnd(3), 8)
    with pytest.raises(ContextError):
        lift_along_root(source, "q", "u", 2)


def test_lift_along_root_rejects_existing_new_variable():
    # a new_var the source already has would merge two images into one
    X = algebra_from_strings(QQ, ["x", "y"], [])
    d = new_derivation(
        X, {"x": parse_expression("y^2", X.context), "y": parse_expression("0", X.context)}
    )
    with pytest.raises(ContextError, match="duplicate variable name 'x'"):
        lift_along_root(certify_lnd(d, 4), "y", "x", 2)
    with pytest.raises(ContextError, match="not fresh"):
        lift_along_root(certify_lnd(d, 4), "y", "y", 2)


def test_lift_along_root_checks_power_first():
    source = certify_lnd(build_vandermonde_lnd(3), 8)
    for power in (0, -1):
        with pytest.raises(SuspensionError, match="root power must be a positive integer"):
            lift_along_root(source, "y", "u", power)


def test_collapse_root_on_prepared_relations():
    # square the unit relation first so every y-exponent divides 3
    ctx_vars = ["x0", "x1", "x2", "y", "z", "w"]
    Y3_cubed = algebra_from_strings(
        QQ,
        ctx_vars,
        [
            "x0^3 + x1^3*y^3 + x2^3*y^6 - 3*x0*x1*x2*y^3 - z^2",
            "y^3*w^3 - 1",
        ],
    )
    X = collapse_root(Y3_cubed, "y", "s", 3)
    assert X.variables == ("x0", "x1", "x2", "s", "z", "w")
    assert X.relations[0] == parse_expression(
        "x0^3 + x1^3*s + x2^3*s^2 - 3*x0*x1*x2*s - z^2", X.context
    )
    assert X.relations[1] == parse_expression("s*w^3 - 1", X.context)


def test_collapse_root_divisibility_failure():
    X = algebra_from_strings(QQ, ["x", "y"], ["y^3 - x"])
    with pytest.raises(PowerCollapseError) as info:
        collapse_root(X, "y", "s", 2)
    assert info.value.witness == "y^3"


def test_suspension_d1_isomorphism_fixtures():
    fixtures = [
        algebra_from_strings(QQ, ["x"], []),
        algebra_from_strings(QQ, ["x", "t"], ["x^2 - t^3"]),
        algebra_from_strings(QQ, ["y", "w"], ["y*w - 1"]),
        algebra_from_strings(QQ, ["a", "b", "c"], ["a*b - c^2", "a^2 - b*c"]),
        build_Xp(3)[0],
    ]
    functions = ["x", "x + t", "y + w", "a + b + c", "s"]
    for X, expr in zip(fixtures, functions):
        f = parse_expression(expr, X.context)
        Y, spec = suspend(X, f, (1,), names=("v",))
        block = buchberger(list(Y.relations), elimination("v"), context=Y.context)
        dropped = eliminate(block, ["v"])
        base = buchberger(list(X.relations), context=X.context)
        assert dropped.context == X.context
        assert dropped.generators == base.generators
