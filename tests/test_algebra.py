"""Presented algebras, element equality, gradings, and coarsening."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suspensia import (
    Context,
    Grading,
    GradingError,
    Polynomial,
    PresentationError,
    PresentedAlgebra,
    QQ,
    algebra_from_strings,
    attach_grading,
    build_Xp,
    build_Yp,
    buchberger,
    coarsen_grading,
    elimination,
    grevlex,
    parse_expression,
)
from suspensia.linalg import matmul

from helpers import random_polynomial


def torus_line():
    return algebra_from_strings(QQ, ["y", "w"], ["y*w - 1"])


def test_torus_line_algebra():
    algebra = torus_line()
    assert algebra.variables == ("y", "w")
    assert algebra.element(parse_expression("y*w", algebra.context)) == algebra.one()


def test_yp3_presentation_shape():
    algebra = build_Yp(3)
    assert algebra.variables == ("x0", "x1", "x2", "y", "z", "w")
    assert len(algebra.relations) == 2
    z2 = algebra.variable("z") ** 2
    F = algebra.element(algebra.relations[0] + parse_expression("z^2", algebra.context))
    assert F == z2


YP3 = build_Yp(3)
YP3_GREVLEX = buchberger(YP3.relations, grevlex())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["ideal", "random"]))
def test_z_ordered_equality_matches_grevlex_oracle(seed, kind):
    """Equality in the z-ordered Yp(3) is membership of a - b in the ideal,
    decided here against a separately computed grevlex basis."""
    rng = random.Random(seed)
    ctx = YP3.context
    a = random_polynomial(rng, ctx, max_terms=4, max_exp=3)
    b = random_polynomial(rng, ctx, max_terms=3, max_exp=2)
    if kind == "ideal":
        for r in YP3.relations:
            b = b + random_polynomial(rng, ctx, max_terms=2, max_exp=2) * r
        b = a + b - YP3_GREVLEX.normal_form(b)
    expected = not YP3_GREVLEX.normal_form(a - b)
    assert (YP3.element(a) == YP3.element(b)) == expected
    if kind == "ideal":
        assert expected


def test_order_is_part_of_the_presentation():
    ctx = Context(QQ, ("x", "z"))
    relations = [parse_expression("z^2 - x^3", ctx)]
    by_z = PresentedAlgebra(ctx, relations, order=elimination("z"))
    plain = PresentedAlgebra(ctx, relations)
    assert plain.order == grevlex() and by_z.order == elimination("z")
    assert by_z.same_presentation(plain)
    # z^2 is its own representative under grevlex, x^3 is under block {z}
    assert str(plain.variable("z") ** 2) != str(by_z.variable("z") ** 2)
    assert plain.variable("z") ** 2 == by_z.variable("z") ** 2
    assert by_z.variable("z") ** 2 == plain.variable("z") ** 2
    assert not (plain.variable("z") ** 2 - by_z.variable("z") ** 2)
    moved = plain.element(by_z.variable("z") ** 2)
    assert moved.algebra is plain and moved.rep == (plain.variable("z") ** 2).rep


def test_unit_ideal_rejected():
    with pytest.raises(PresentationError):
        algebra_from_strings(QQ, ["x"], ["x", "x - 1"])


def test_element_equality_in_free_algebra():
    algebra = algebra_from_strings(QQ, ["x", "y"], [])
    assert algebra.variable("x") != algebra.variable("y")


def test_element_arithmetic_reduces():
    algebra = torus_line()
    y, w = algebra.variable("y"), algebra.variable("w")
    assert y * w == 1
    assert (y * w + w) == w + 1
    assert (y + w) ** 2 == y ** 2 + 2 + w ** 2


def test_element_power_matches_repeated_multiplication():
    rng = random.Random(17)
    algebra = build_Yp(3)
    base = algebra.variable("x0") + algebra.variable("y") * 2 + algebra.variable("w")
    expected = algebra.one()
    for n in range(8):
        assert base ** n == expected, n
        expected = expected * base
    for _ in range(10):
        f = algebra.element(random_polynomial(rng, algebra.context, max_terms=3, max_exp=2))
        assert f ** 0 == algebra.one()
        assert f ** 3 == f * f * f


def test_gradings_given_at_construction():
    ctx = Context(QQ, ("x", "y"))
    relation = parse_expression("x^2 - y^2", ctx)
    algebra = PresentedAlgebra(ctx, [relation], gradings={"std": [[1, 1]]})
    assert algebra.gradings["std"].matrix == ((1, 1),)
    assert algebra.gradings["std"].algebra is algebra
    with pytest.raises(GradingError):
        PresentedAlgebra(ctx, [relation], gradings={"bad": [[1, 2]]})


def test_attach_grading_x3():
    algebra, grading = build_Xp(3)
    assert grading.matrix == ((2, 2, 2, 0, 3, 0),)
    degrees = [
        next(iter(r.weighted_components(grading.matrix[0])))
        for r in algebra.relations
    ]
    assert degrees == [6, 0]


def test_attach_grading_rejects_bad_weights():
    algebra, _ = build_Xp(3)
    # z -> 2 breaks homogeneity of the first relation
    with pytest.raises(GradingError) as info:
        attach_grading(algebra, [(2, 2, 2, 0, 2, 0)])
    assert info.value.row == 0
    assert info.value.witness is not None
    # recompute the witness degrees independently
    weights = (2, 2, 2, 0, 2, 0)
    comps = algebra.relations[0].weighted_components(weights)
    assert len(comps) > 1


def test_grading_witness_does_not_depend_on_term_order():
    # the same relation with its terms inserted in two orders: the witness
    # takes each component's first term in sorted order, not in dict order
    context = Context(QQ, ("x", "y"))
    terms = {(2, 0): 1, (0, 2): 1, (1, 0): 1}
    texts = set()
    for order in (list(terms), list(terms)[::-1]):
        relation = Polynomial(context, {m: terms[m] for m in order})
        algebra = PresentedAlgebra(context, [relation])
        with pytest.raises(GradingError) as info:
            Grading(algebra, [[1, 1]])
        texts.add((str(info.value), info.value.witness))
    assert texts == {(
        "relation x^2 + y^2 + x is not homogeneous under row 0: x (weight 1) vs x^2 (weight 2)",
        "x (weight 1) vs x^2 (weight 2)",
    )}


def test_grading_validates_when_built():
    # x - y^2 is homogeneous under (2, 1) only; the constructor refuses
    # (1, 1) as attach_grading does, so no unchecked Grading exists
    algebra = algebra_from_strings(QQ, ["x", "y"], ["x - y^2"])
    for build in (Grading, attach_grading):
        with pytest.raises(GradingError) as info:
            build(algebra, ((1, 1),))
        assert info.value.row == 0
    assert Grading(algebra, [[2, 1]]).matrix == ((2, 1),)
    # a weight must equal its int(): int() would read 2.7 as 2 and "2" as 2
    for row in ((2.7, 1), ("2", 1), (float("inf"), 1), (float("nan"), 1)):
        with pytest.raises(GradingError, match="integers"):
            Grading(algebra, [row])
    assert Grading(algebra, [[2.0, Fraction(1)]]).matrix == ((2, 1),)


def test_boolean_grading_weight_is_refused():
    # True == 1 and False == 0, but a flag is not a weight: (True, False)
    # was read as the row (1, 0), which grades xy
    algebra = algebra_from_strings(QQ, ["x", "y"], ["x*y"])
    for row in ((True, False), (1, False)):
        with pytest.raises(GradingError, match="integers"):
            Grading(algebra, [row])
    assert Grading(algebra, [[1, 0]]).matrix == ((1, 0),)


def test_zero_matrix_is_trivial_grading():
    algebra, _ = build_Xp(3)
    grading = attach_grading(algebra, [(0,) * 6])
    assert grading.matrix == ((0, 0, 0, 0, 0, 0),)


def test_grading_acceptance_equivalent_to_homogeneous_basis():
    # independent cross-check: acceptance iff every reduced basis element is
    # homogeneous
    algebra, grading = build_Xp(3)
    for weights in grading.matrix:
        for g in algebra.basis.generators:
            assert len(g.weighted_components(weights)) == 1
    bad = (2, 2, 2, 0, 2, 0)
    assert any(
        len(g.weighted_components(bad)) > 1 for g in algebra.basis.generators
    )
    with pytest.raises(GradingError):
        attach_grading(algebra, [bad])


def test_graded_components_well_defined_on_cosets():
    rng = random.Random(41)
    algebra, grading = build_Xp(3)
    row = 0
    for _ in range(25):
        f = random_polynomial(rng, algebra.context, max_terms=5, max_exp=2)
        direct = grading.components(algebra.element(f), row)
        raw = f.weighted_components(grading.matrix[row])
        for deg in set(direct) | set(raw):
            lhs = direct.get(deg, algebra.zero())
            rhs = algebra.element(raw.get(deg, Polynomial.zero(algebra.context)))
            assert lhs == rhs


def test_coarsen_sum_of_rows():
    algebra = algebra_from_strings(QQ, ["x", "y"], [])
    grading = attach_grading(algebra, [(1, 0), (0, 1)])
    coarse = coarsen_grading(grading, [(1, 1)])
    assert coarse.matrix == ((1, 1),)


def test_coarsen_identity():
    algebra = algebra_from_strings(QQ, ["x", "y"], [])
    grading = attach_grading(algebra, [(1, 0), (0, 1)])
    same = coarsen_grading(grading, [(1, 0), (0, 1)])
    assert same.matrix == grading.matrix


def test_coarsen_rejects_rank_deficiency():
    algebra = algebra_from_strings(QQ, ["x", "y"], [])
    grading = attach_grading(algebra, [(1, 0), (0, 1)])
    with pytest.raises(GradingError):
        coarsen_grading(grading, [(1, 1), (2, 2)])
    with pytest.raises(GradingError):
        coarsen_grading(grading, [(0, 0)])
    with pytest.raises(GradingError, match="integer"):
        coarsen_grading(grading, [(1.5, 1)])


def test_coarsen_keeps_relations_at_weight_zero():
    # torus grading rows keep every defining relation at weight 0; any
    # projection of those rows does too
    rng = random.Random(43)
    algebra = algebra_from_strings(
        QQ, ["x", "y1", "y2", "y3"], ["y1^2*y2^3*y3^5 - x"]
    )
    rows = ((0, 5, 0, -2), (0, 0, 5, -3))
    grading = attach_grading(algebra, rows)
    for _ in range(10):
        pi = [(rng.randint(-3, 3), rng.randint(-3, 3))]
        if pi[0] == (0, 0):
            continue
        coarse = coarsen_grading(grading, pi)
        assert coarse.matrix == tuple(tuple(r) for r in matmul(pi, rows))
        for relation in algebra.relations:
            assert list(relation.weighted_components(coarse.matrix[0])) == [0]


def test_grading_degree_of_element():
    algebra, grading = build_Xp(3)
    assert grading.degree(algebra.variable("z")) == (3,)
    assert grading.degree(algebra.variable("x0") ** 2) == (4,)
    with pytest.raises(ValueError):
        grading.degree(algebra.zero())
