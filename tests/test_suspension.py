"""Suspensions, the gcd criterion, torus weights, lifting, root adjunction."""

import random

import pytest

from suspensia import (
    ContextError,
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
    with pytest.raises(SuspensionError):
        suspend(X, parse_expression("2", X.context), (1, 1))
    # constant modulo the relations is rejected too
    T = algebra_from_strings(QQ, ["y", "w"], ["y*w - 1"])
    with pytest.raises(SuspensionError):
        suspend(T, parse_expression("y*w", T.context), (2, 2))


def test_name_collision_rejected():
    X = algebra_from_strings(QQ, ["y1"], [])
    with pytest.raises(SuspensionError):
        suspend(X, parse_expression("y1", X.context), (1, 1))
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
    Y, spec = suspend(X, parse_expression("x", X.context), (2, 2))
    lifted = lift_lnd(certify_lnd(zero_derivation(X), 4), Y, spec)
    assert lifted.certified
    assert lifted.derivation.is_zero()
    assert lifted.derivation.algebra is Y


def test_lift_requires_killing_the_function():
    X = algebra_from_strings(QQ, ["x", "t"], [])
    d = X  # derivation x -> 0, t -> x does not kill x + t
    from suspensia import new_derivation

    d = new_derivation(
        X, {"x": parse_expression("0", X.context), "t": parse_expression("x", X.context)}
    )
    Y, spec = suspend(X, parse_expression("x + t", X.context), (2, 2))
    with pytest.raises(SuspensionError) as info:
        lift_lnd(certify_lnd(d, 4), Y, spec)
    assert "x" in str(info.value)


def test_lift_lnd_over_suspension_of_y3():
    # the solved derivation kills y, so it lifts to any suspension with f = y
    Y3 = build_Yp(3)
    d = build_vandermonde_lnd(3, Y3)
    source_cert = certify_lnd(d, 8)
    Y, spec = suspend(Y3, Y3.variable("y"), (2, 3), names=("u1", "u2"))
    cert = lift_lnd(source_cert, Y, spec)
    assert cert.certified
    for name in Y3.variables:
        assert cert.orders[name] == source_cert.orders[name]
    assert cert.orders["u1"] == 0 and cert.orders["u2"] == 0


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
    Y3 = build_Yp(3)
    d = build_vandermonde_lnd(3, Y3)
    source = certify_lnd(d, 8)
    Y = adjoin_root(Y3, "y", "u", 2)
    cert = lift_along_root(source, Y, "y", "u", 2)
    assert cert.certified
    assert cert.derivation.algebra is Y
    assert cert.orders["u"] == 0
    for name in ("x0", "x1", "x2", "z", "w"):
        assert cert.orders[name] == source.orders[name]


def test_lift_along_root_requires_killed_variable():
    X = algebra_from_strings(QQ, ["x", "y"], [])
    from suspensia import new_derivation

    d = new_derivation(
        X, {"x": parse_expression("y", X.context), "y": parse_expression("1", X.context)}
    )
    target = adjoin_root(X, "y", "u", 2)
    with pytest.raises(SuspensionError):
        lift_along_root(certify_lnd(d, 4), target, "y", "u", 2)


def test_lift_along_root_rejects_unknown_variable():
    Y3 = build_Yp(3)
    source = certify_lnd(build_vandermonde_lnd(3, Y3), 8)
    with pytest.raises(ContextError):
        lift_along_root(source, adjoin_root(Y3, "y", "u", 2), "q", "u", 2)


def test_lift_along_root_rejects_existing_new_variable():
    # a new_var the source already has would merge two images into one
    X = algebra_from_strings(QQ, ["x", "y"], [])
    d = new_derivation(
        X, {"x": parse_expression("y^2", X.context), "y": parse_expression("0", X.context)}
    )
    target = algebra_from_strings(QQ, ["x"], [])
    with pytest.raises(SuspensionError, match="already exists"):
        lift_along_root(certify_lnd(d, 4), target, "y", "x", 2)


def test_lift_along_root_checks_power_first():
    Y3 = build_Yp(3)
    source = certify_lnd(build_vandermonde_lnd(3, Y3), 8)
    lifted = adjoin_root(Y3, "y", "u", 2)
    for power in (0, -1):
        with pytest.raises(SuspensionError, match="root power must be a positive integer"):
            lift_along_root(source, lifted, "y", "u", power)


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
