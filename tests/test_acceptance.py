"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``).  All
comparisons are exact; the only tolerances are wall-clock budgets, asserted
with time.perf_counter around the relevant computation.
"""

import functools
import hashlib
import json
import random
import time
from fractions import Fraction

from suspensia import (
    CyclotomicField,
    Polynomial,
    QQ,
    algebra_from_strings,
    attach_grading,
    buchberger,
    build_F,
    build_vandermonde_lnd,
    build_Xp,
    certify_lnd,
    coarsen_grading,
    decompose,
    eliminate,
    elimination,
    exp,
    gcd_criterion,
    homogeneous_degree,
    lift_along_root,
    linear_forms,
    new_derivation,
    nu,
    parse_expression,
    root_of_unity,
    suspend,
    torus_action,
    zero_derivation,
)
from suspensia.cli import main
from suspensia.constructions import yp_context

from helpers import brute_force_product, random_fraction, random_polynomial


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL  {description}")
                raise
            print(f"ACCEPTANCE {number:2d} PASS  {description}")

        return wrapper

    return decorate


@criterion(1, "product of (t - e_i) over all p-th roots equals t^p - 1, p in {3,5,7}")
def test_symmetric_function_identities():
    start = time.perf_counter()
    for p in (3, 5, 7):
        context = yp_context(p)
        ctx = context  # roots live in the same field; t is a fresh context
        from suspensia import Context

        tctx = Context(CyclotomicField(p), ("t",))
        t = Polynomial.variable(tctx, "t")
        product = Polynomial.one(tctx)
        for i in range(1, p + 1):
            product = product * (t - root_of_unity(p, i))
        assert product == t ** p - 1, p
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@criterion(2, "every y-exponent of F divisible by p and coefficients rational, p in {3,5}")
def test_divisibility_lemma():
    budgets = {3: 1.0, 5: 30.0}
    for p, budget in budgets.items():
        start = time.perf_counter()
        forms = linear_forms(p)
        product = Polynomial.one(forms[0].context)
        for form in forms:
            product = product * form
        y_index = product.context.index("y")
        for mono, coeff in product.terms.items():
            assert mono[y_index] % p == 0
            assert coeff.is_rational()
        F, _ = build_F(p)
        assert F.convert(product.context) == product
        elapsed = time.perf_counter() - start
        assert elapsed < budget, f"p={p} took {elapsed:.2f}s"


@criterion(3, "closed form of F for p=3 against the brute-force expansion oracle")
def test_f3_closed_form():
    F, _ = build_F(3)
    assert F == parse_expression(
        "x0^3 + x1^3*y^3 + x2^3*y^6 - 3*x0*x1*x2*y^3", F.context
    )
    oracle = brute_force_product(list(linear_forms(3)))
    assert F.convert(oracle.context) == oracle


@criterion(4, "solved derivation certified: exact zero images, orders y,w:0 z:1 x_j:2")
def test_vandermonde_certificates():
    budgets = {3: 5.0, 5: 90.0}
    for p, budget in budgets.items():
        start = time.perf_counter()
        derivation = build_vandermonde_lnd(p)
        algebra = derivation.algebra
        assert all(c.identically_zero for c in derivation.well_defined.checks)
        unit_relation = algebra.relations[1]
        assert not derivation.leibniz_image(unit_relation).terms
        assert not derivation.apply(derivation.apply(algebra.variable("z")))
        for j in range(p):
            image = algebra.variable(f"x{j}")
            for _ in range(3):
                image = derivation.apply(image)
            assert not image
        certificate = certify_lnd(derivation, 8)
        assert certificate.certified
        expected = {f"x{j}": 2 for j in range(p)}
        expected.update({"y": 0, "w": 0, "z": 1})
        assert certificate.orders == expected
        elapsed = time.perf_counter() - start
        assert elapsed < budget, f"p={p} took {elapsed:.2f}s"


@criterion(5, "grading x_i:2 z:p s,w:0 accepted with relation degrees (2p, 0), p in {3,5}")
def test_grading_acceptance():
    for p in (3, 5):
        algebra, grading = build_Xp(p)
        row = grading.matrix[0]
        assert list(algebra.relations[0].weighted_components(row)) == [2 * p]
        assert list(algebra.relations[1].weighted_components(row)) == [0]


def _leibniz_cases(part, pool, rng, cases=200):
    for _ in range(cases):
        a, b = rng.sample(pool, 2)
        assert part.apply(a * b) == a * part.apply(b) + b * part.apply(a)


@criterion(6, "decomposition suite: 11 derivations / 4 graded algebras reconstruct; "
             "components Leibniz-true; extremes of certified LNDs certify")
def test_decomposition_suite():
    rng = random.Random(101)

    def build_fixtures():
        a1 = algebra_from_strings(QQ, ["x"], [])
        g1 = attach_grading(a1, [(1,)])
        a2 = algebra_from_strings(QQ, ["x", "y"], [])
        g2 = attach_grading(a2, [(1, 0), (0, 1)])
        a3 = algebra_from_strings(QQ, ["y", "w"], ["y*w - 1"])
        g3 = attach_grading(a3, [(1, -1)])
        vdm = build_vandermonde_lnd(3)
        a4 = vdm.algebra
        g4 = attach_grading(a4, [(0, -1, -2, 1, 0, -1)])
        mixed_scale = a4.one() + a4.variable("y")
        mixed = new_derivation(
            a4, {n: (mixed_scale * vdm.images[n]).rep for n in a4.variables}
        )

        def D(algebra, **imgs):
            return new_derivation(
                algebra,
                {k: parse_expression(v, algebra.context) for k, v in imgs.items()},
            )

        return [
            (g1, D(a1, x="x^2 + 1"), False),  # decomposes but is not nilpotent
            (g1, D(a1, x="1"), True),
            (g1, D(a1, x="x"), False),  # semisimple: no certificate expected
            (g2, D(a2, x="1", y="0"), True),
            (g2, D(a2, x="0", y="x + x^2"), True),
            (g2, D(a2, x="y^2", y="0"), True),
            (g2, D(a2, x="y", y="0"), True),
            (g3, zero_derivation(a3), True),
            (g3, D(a3, y="y", w="-w"), False),
            (g4, vdm, True),
            (g4, mixed, True),
        ]

    fixtures = build_fixtures()
    assert len(fixtures) == 11
    pools = {}
    for grading, derivation, expect_lnd in fixtures:
        algebra = derivation.algebra
        key = id(algebra)
        if key not in pools:
            gens = [algebra.variable(n) for n in algebra.variables]
            extras = [algebra.one() + gens[0], gens[0] * gens[-1] + 1]
            pools[key] = gens + extras
        pool = pools[key]
        certified = expect_lnd and certify_lnd(derivation, 8).certified
        if expect_lnd:
            assert certified, "fixture expected to certify"
        for row in range(grading.nrows):
            pieces = decompose(derivation, grading, row)
            for name in algebra.variables:
                total = algebra.zero()
                for part in pieces.components.values():
                    total = total + part.images[name]
                assert total == derivation.images[name]
            for part in pieces.components.values():
                _leibniz_cases(part, pool, rng, cases=200)
            if certified and pieces.components:
                for extreme in {pieces.lower, pieces.upper}:
                    assert certify_lnd(pieces.components[extreme], 8).certified


@criterion(7, "nu is a degree function: 200 random pairs on Q[x,y] and on the p=3 algebra")
def test_degree_function_laws():
    rng = random.Random(103)
    algebra = algebra_from_strings(QQ, ["x", "y"], [])
    ddx = new_derivation(
        algebra,
        {"x": Polynomial.one(algebra.context), "y": Polynomial.zero(algebra.context)},
    )
    checked = 0
    while checked < 200:
        f = algebra.element(random_polynomial(rng, algebra.context, max_exp=3))
        g = algebra.element(random_polynomial(rng, algebra.context, max_exp=3))
        if not f or not g:
            continue
        checked += 1
        nf, ng = nu(ddx, f, 16), nu(ddx, g, 16)
        assert nu(ddx, f * g, 32) == nf + ng
        if f + g:
            assert nu(ddx, f + g, 32) <= max(nf, ng)

    vdm = build_vandermonde_lnd(3)
    y3 = vdm.algebra
    pool = [y3.variable(n) for n in ("x0", "x1", "x2", "z")] + [y3.one()]
    checked = 0
    while checked < 200:
        f = sum((random_fraction(rng) * e for e in rng.sample(pool, 2)), y3.zero())
        g = sum((random_fraction(rng) * e for e in rng.sample(pool, 2)), y3.zero())
        if not f or not g:
            continue
        checked += 1
        nf, ng = nu(vdm, f, 8), nu(vdm, g, 8)
        assert nu(vdm, f * g, 16) == nf + ng
        if f + g:
            assert nu(vdm, f + g, 16) <= max(nf, ng)


@criterion(8, "coarsening: 20 random bihomogeneous derivations stay homogeneous "
             "with degree pi(f0) along 5 random full-rank projections")
def test_coarsening_pushforward():
    rng = random.Random(107)
    algebra = algebra_from_strings(QQ, ["x", "y"], [])
    grading = attach_grading(algebra, [(1, 0), (0, 1)])

    def random_projection():
        while True:
            k = rng.randint(1, 2)
            pi = [
                (rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(k)
            ]
            try:
                return pi, coarsen_grading(grading, pi)
            except Exception:
                continue

    built = 0
    while built < 20:
        i = rng.randint(0, 3)
        j = rng.randint(0, 3)
        if i == 0 and rng.random() < 0.5:
            continue
        images = {
            "x": Polynomial.monomial(algebra.context, {"x": i, "y": j}, random_fraction(rng) or 1),
            "y": Polynomial.monomial(algebra.context, {"x": i - 1, "y": j + 1}, random_fraction(rng) or 1)
            if i >= 1
            else Polynomial.zero(algebra.context),
        }
        derivation = new_derivation(algebra, images)
        degree = homogeneous_degree(derivation, grading)
        if degree is None:
            continue
        built += 1
        assert degree == (i - 1, j)
        for _ in range(5):
            pi, coarse = random_projection()
            expected = tuple(
                sum(c * d for c, d in zip(row, degree)) for row in pi
            )
            assert homogeneous_degree(derivation, coarse) == expected


@criterion(9, "suspension mechanics: exponent-1 suspensions eliminate back to the base; "
             "torus weights vanish on relations; gcd verdicts match")
def test_suspension_mechanics():
    fixtures = [
        (algebra_from_strings(QQ, ["x"], []), "x"),
        (algebra_from_strings(QQ, ["x", "t"], ["x^2 - t^3"]), "x + t"),
        (algebra_from_strings(QQ, ["y", "w"], ["y*w - 1"]), "y + w"),
        (algebra_from_strings(QQ, ["a", "b", "c"], ["a*b - c^2", "a^2 - b*c"]), "a + b"),
        (build_Xp(3)[0], "s"),
    ]
    for base, expr in fixtures:
        f = parse_expression(expr, base.context)
        extended, spec = suspend(base, f, (1,), names=("v",))
        block = buchberger(
            list(extended.relations), elimination("v"), context=extended.context
        )
        dropped = eliminate(block, ["v"])
        reference = buchberger(list(base.relations), context=base.context)
        assert dropped.context == base.context
        assert dropped.generators == reference.generators

    X = algebra_from_strings(QQ, ["x"], [])
    for ks in [(1, 1), (2, 3), (2, 2), (2, 3, 5)]:
        extended, spec = suspend(X, parse_expression("x", X.context), ks)
        action = torus_action(extended, spec)
        assert len(action.rows) == len(ks) - 1
        for row in action.rows:
            for relation in extended.relations:
                assert list(relation.weighted_components(row)) == [0]
        report = gcd_criterion(ks)
        import math
        from functools import reduce

        expected_gcd = reduce(math.gcd, ks)
        assert report.gcd == expected_gcd
        assert (report.verdict.value == "rigidity-preserved") == (expected_gcd == 1)


@criterion(10, "lift along y = u^2 re-certifies with unchanged generator orders")
def test_lift_preserves_orders():
    start = time.perf_counter()
    source = certify_lnd(build_vandermonde_lnd(3), 8)
    certificate = lift_along_root(source, "y", "u", 2)
    assert certificate.certified
    for name in ("x0", "x1", "x2", "z", "w"):
        assert certificate.orders[name] == source.orders[name]
    assert certificate.orders["u"] == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


@criterion(11, "exponential group law on 20 random rational pairs, both fixtures")
def test_exponential_group_law():
    rng = random.Random(109)
    triangular_algebra = algebra_from_strings(QQ, ["x", "y"], [])
    triangular = new_derivation(
        triangular_algebra,
        {
            "x": Polynomial.zero(triangular_algebra.context),
            "y": parse_expression("x", triangular_algebra.context),
        },
    )
    vdm = build_vandermonde_lnd(3)
    y3 = vdm.algebra
    for derivation in (triangular, vdm):
        for _ in range(20):
            s = random_fraction(rng, span=4)
            t = random_fraction(rng, span=4)
            lhs = exp(derivation, s).compose(exp(derivation, t))
            assert lhs.agrees_with(exp(derivation, s + t))


@criterion(12, "two pipeline runs produce byte-identical artifacts")
def test_end_to_end_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["build-yp", "--p", "3", "--n", "6", "--out", str(out1)]) == 0
    assert main(["build-yp", "--p", "3", "--n", "6", "--out", str(out2)]) == 0
    names = ("Xp.json", "Yp.json", "derivation.json", "certificate.json")
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# SHA-256 of the artifacts of build-yp --p 7 --n 14.  Artifacts are exact and
# canonical, so no change to the arithmetic may alter a byte of them.
P7_DIGESTS = {
    "Xp.json": "7f43beb5a3bccc88ca756389729a8ae7e0a5c23b11f47f2ba3f0c07a0d346031",
    "Yp.json": "857d47d0b5f154398bb986a056c7b63fb5fb29b1c76f727a9c406114baffe96a",
    "derivation.json": "488b4b2f942581b1f80a7f24392eae9e33b9c7ce301598df45e77788158d1625",
    "certificate.json": "212949a639bda2a13acd203b080802922b5029829f5fd23cf69e4f91f26a52a4",
}


@criterion(13, "p=7 pipeline: orders x_j:2 z:1 y,w:0 and unchanged artifact digests")
def test_p7_pipeline(tmp_path):
    out = tmp_path / "p7"
    start = time.perf_counter()
    assert main(["build-yp", "--p", "7", "--n", "14", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    report = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
    expected = {f"x{j}": 2 for j in range(7)}
    expected.update({"z": 1, "y": 0, "w": 0})
    assert report["lnd"]["orders"] == expected
    for name, digest in P7_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
