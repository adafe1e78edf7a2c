"""Buchberger, normal forms, membership, and elimination."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suspensia import (
    Context,
    CyclotomicField,
    CyclotomicNumber,
    OrderError,
    Polynomial,
    QQ,
    buchberger,
    eliminate,
    elimination,
    grevlex,
    lex,
    parse_expression,
    root_of_unity,
    s_polynomial,
)
from suspensia import groebner
from suspensia.constructions import build_vandermonde_lnd, build_Xp, build_Yp

from helpers import QXY, nonzero_random_polynomial, random_polynomial, reduce_terms_oracle


def P(text, ctx):
    return parse_expression(text, ctx)


def _assert_is_groebner(basis):
    """Independent check: all S-polynomials reduce to zero."""
    gens = basis.generators
    for i in range(len(gens)):
        for j in range(i):
            s = s_polynomial(gens[i], gens[j], basis.order)
            assert not basis.normal_form(s), (gens[i].text(), gens[j].text())


def _assert_is_reduced(basis):
    """Independent check of the reduced form: every generator is monic, no
    monomial of any generator is divisible by another generator's lead
    monomial, and the generators are sorted ascending by lead monomial."""
    key = basis.order.key_for(basis.context)
    leads = [max(g.terms, key=key) for g in basis.generators]
    for g, lead in zip(basis.generators, leads):
        assert g.terms[lead] == 1, g.text()
    for i, g in enumerate(basis.generators):
        for j, lead in enumerate(leads):
            if i == j:
                continue
            for mono in g.terms:
                assert not all(a <= b for a, b in zip(lead, mono)), (
                    g.text(),
                    basis.generators[j].text(),
                )
    assert [key(m) for m in leads] == sorted(key(m) for m in leads)


def test_single_generator_already_basis():
    ctx = Context(QQ, ("y", "w"))
    g = P("y*w - 1", ctx)
    basis = buchberger([g])
    assert basis.generators == (g,)
    _assert_is_groebner(basis)
    _assert_is_reduced(basis)


def test_lex_example():
    basis = buchberger([P("x^2 - y", QXY), P("y^2 - x", QXY)], lex())
    expected = [P("x - y^2", QXY), P("y^4 - y", QXY)]
    assert len(basis.generators) == 2
    assert all(any(g == e for e in expected) for g in basis.generators)
    # the inputs are members and the Buchberger criterion holds
    assert not basis.normal_form(P("x^2 - y", QXY))
    assert not basis.normal_form(P("y^2 - x", QXY))
    _assert_is_groebner(basis)
    _assert_is_reduced(basis)


def test_unit_ideal():
    basis = buchberger([Polynomial.one(QXY)])
    assert basis.generators == (Polynomial.one(QXY),)
    assert basis.is_unit_ideal()
    basis2 = buchberger([P("x", QXY), P("x - 1", QXY)])
    assert basis2.is_unit_ideal()


def test_normal_form_torus_line():
    ctx = Context(QQ, ("y", "w"))
    basis = buchberger([P("y*w - 1", ctx)])
    assert basis.normal_form(P("y*w", ctx)) == 1
    assert not basis.normal_form(P("y*w - 1", ctx))
    assert basis.normal_form(P("y", ctx))


def test_normal_form_is_linear_and_idempotent():
    rng = random.Random(5)
    basis = buchberger([P("x^2 - y", QXY), P("y^2 - x", QXY)])
    for _ in range(100):
        f = random_polynomial(rng, QXY, max_terms=5)
        g = random_polynomial(rng, QXY, max_terms=5)
        nf = basis.normal_form
        assert nf(f + g) == nf(nf(f) + nf(g))
        assert nf(nf(f)) == nf(f)


def test_generators_reduce_to_zero_against_output():
    gens = [P("x^2*y - 1", QXY), P("x*y^2 - x", QXY)]
    basis = buchberger(gens)
    for g in gens:
        assert not basis.normal_form(g)
    _assert_is_groebner(basis)
    _assert_is_reduced(basis)


def test_reduced_basis_is_canonical():
    # same ideal, generators given in different forms and orders
    g1 = [P("x^2 - y", QXY), P("y^2 - x", QXY)]
    g2 = [P("y^2 - x", QXY), P("3*x^2 - 3*y", QXY), P("x^2 - y + y^2 - x", QXY)]
    assert buchberger(g1).generators == buchberger(g2).generators


def test_eliminate_graph_of_function():
    basis = buchberger([P("y - x^2", QXY)], elimination("y"))
    dropped = eliminate(basis, ["y"])
    assert dropped.generators == ()
    assert dropped.context.variables == ("x",)


def test_eliminate_recovers_base_ideal():
    # adjoining y = f to a hypersurface and eliminating y gives the original
    ctx = Context(QQ, ("x", "t", "y"))
    base_ctx = Context(QQ, ("x", "t"))
    relation = P("x^2*t - t - 1", ctx)
    graph = P("y - x^2 - t", ctx)
    basis = buchberger([relation, graph], elimination("y"))
    dropped = eliminate(basis, ["y"])
    expected = buchberger([P("x^2*t - t - 1", base_ctx)])
    assert dropped.generators == expected.generators


def test_eliminate_nothing_is_identity():
    basis = buchberger([P("x^2 - y", QXY)])
    assert eliminate(basis, []) is basis


def test_eliminate_requires_matching_block():
    basis = buchberger([P("x^2 - y", QXY)], grevlex())
    with pytest.raises(OrderError):
        eliminate(basis, ["y"])
    block = buchberger([P("x^2 - y", QXY)], elimination("x"))
    with pytest.raises(OrderError):
        eliminate(block, ["y"])


def test_empty_generators_zero_ideal():
    basis = buchberger([], context=QXY)
    f = P("x^2 - y", QXY)
    assert basis.normal_form(f) == f


@pytest.mark.parametrize(
    "kind, block, message",
    [
        ("deglex", (), "unknown monomial order kind 'deglex'"),
        ("lex", ("x",), "a lex order takes no elimination block"),
        ("grevlex", ("x",), "a grevlex order takes no elimination block"),
        ("elimination", (), "elimination order needs at least one block variable"),
        ("elimination", ("x", "y", "x"), "repeated variable in elimination block"),
    ],
)
def test_monomial_order_is_checked_when_built(kind, block, message):
    # each was accepted when built; the kind and repeats were refused only
    # by key_for, and a block on lex or grevlex never
    with pytest.raises(OrderError, match=message):
        groebner.MonomialOrder(kind, block)


def test_monomial_order_stores_its_block_as_a_tuple():
    # a list block made an order unequal to elimination("z"), and unhashable
    order = groebner.MonomialOrder("elimination", ["z"])
    assert order == elimination("z") and hash(order) == hash(elimination("z"))
    with pytest.raises(OrderError, match="at least one block variable"):
        elimination()


def test_elimination_order_sorts_block_first():
    key = elimination("y").key_for(QXY)
    y = (0, 1)
    x_cubed = (3, 0)
    assert key(y) > key(x_cubed)


def _elimination_key_formula(idx, rest, m):
    b = [m[i] for i in idx]
    r = [m[i] for i in rest]
    return (sum(b), *(-e for e in reversed(b)), sum(r), *(-e for e in reversed(r)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_elimination_key_matches_formula(data):
    """The elimination key equals the block-wise grevlex formula: block
    degree, reversed negated block exponents, then the same for the rest."""
    nvars = data.draw(st.integers(1, 5))
    names = tuple(f"v{i}" for i in range(nvars))
    block = data.draw(
        st.lists(st.sampled_from(names), min_size=1, max_size=min(2, nvars), unique=True)
    )
    idx = tuple(names.index(v) for v in block)
    rest = tuple(i for i in range(nvars) if i not in idx)
    key = elimination(*block).key_for(Context(QQ, names))
    for m in data.draw(
        st.lists(st.tuples(*[st.integers(0, 6)] * nvars), min_size=1, max_size=10)
    ):
        assert key(m) == _elimination_key_formula(idx, rest, m)


@pytest.mark.parametrize("p", [3, 5])
def test_yp_relations_form_the_basis(p):
    # under elimination("z") the leads z^2 and y*w (s*w^p) are coprime
    for algebra in (build_Yp(p), build_Xp(p)[0]):
        assert algebra.order == elimination("z")
        basis = algebra.basis
        key = basis.order.key_for(algebra.context)
        monic = [r * (1 / r.terms[max(r.terms, key=key)]) for r in algebra.relations]
        assert len(basis.generators) == 2
        assert all(any(g == m for g in basis.generators) for m in monic)
        _assert_is_groebner(basis)
        _assert_is_reduced(basis)


@pytest.mark.parametrize("p", [3, 5])
def test_basis_over_cyclotomic_field_on_yp(p):
    basis = buchberger(build_Yp(p).relations, grevlex())
    _assert_is_groebner(basis)
    _assert_is_reduced(basis)
    assert all(
        isinstance(c, CyclotomicNumber) for g in basis.generators for c in g.terms.values()
    )


def test_basis_of_random_rational_ideals_in_cyclotomic_field():
    rng = random.Random(23)
    qctx = Context(QQ, ("x", "y", "z"))
    zctx = Context(CyclotomicField(5), ("x", "y", "z"))
    for trial in range(30):
        gens = [
            nonzero_random_polynomial(rng, qctx, max_terms=3, max_exp=2).convert(zctx)
            for _ in range(rng.randint(1, 3))
        ]
        for order in (grevlex(), lex()):
            basis = buchberger(gens, order, zctx)
            for g in gens:
                assert not basis.normal_form(g), trial
            _assert_is_groebner(basis)
            _assert_is_reduced(basis)


def test_non_rational_generators_form_a_basis():
    zctx = Context(CyclotomicField(5), ("x", "y"))
    twisted = [
        P("x^2 - y", zctx),
        P("y^2 - x", zctx),
        P("x", zctx) * root_of_unity(5, 1) - P("y", zctx),
    ]
    basis = buchberger(twisted)
    for g in twisted:
        assert not basis.normal_form(g)
    _assert_is_groebner(basis)
    _assert_is_reduced(basis)


def test_basis_is_immutable():
    basis = buchberger([P("x^2 - y", QXY), P("y^2 - x", QXY)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.generators = ()
    before = dict(vars(basis))
    basis.normal_form(P("x^3 + y^3", QXY))
    assert vars(basis) == before


_ORDERS = {"grevlex": grevlex(), "lex": lex(), "elimination": elimination("x")}


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([QQ, CyclotomicField(3)]),
    st.sampled_from(sorted(_ORDERS)),
)
def test_reduce_terms_matches_heap_oracle(seed, field, order_name):
    rng = random.Random(seed)
    context = Context(field, ("x", "y", "z"))
    gens = [
        nonzero_random_polynomial(rng, context, max_terms=3, max_exp=2)
        for _ in range(rng.randint(1, 3))
    ]
    basis = buchberger(gens, _ORDERS[order_name], context)
    reducers, key = basis._reducers, basis._key
    for _ in range(3):
        f = random_polynomial(rng, context, max_terms=6, max_exp=4)
        for g in (f, f * gens[0], f + gens[-1]):
            remainder = groebner._reduce_terms(g.terms, reducers, key)
            assert remainder == reduce_terms_oracle(g.terms, reducers, key)
            assert basis.normal_form(g).terms == remainder


def _counting(key):
    calls = []

    def counted(mono):
        calls.append(mono)
        return key(mono)

    return counted, calls


def test_a_normal_form_is_reduced_with_no_key_call():
    basis = buchberger([P("x^2 - y", QXY), P("y^2 - x", QXY)], grevlex())
    f = basis.normal_form(P("x^3*y + 3*x*y^5 + 2", QXY))
    assert f.terms
    key, calls = _counting(basis._key)
    # the private routine takes the stored dict, which it returns uncopied
    assert groebner._reduce_terms(f._terms, basis._reducers, key) is f._terms
    assert calls == []
    assert basis.normal_form(f) is f
    # a reducible input keys only its reducible terms and those reductions create
    g = f + P("x^2", QXY)
    remainder = groebner._reduce_terms(g.terms, basis._reducers, key)
    assert remainder == reduce_terms_oracle(g.terms, basis._reducers, basis._key)
    assert calls == [(2, 0)]


@pytest.mark.parametrize("p", [3, 5])
def test_family_image_of_z_is_checked_with_no_key_call(p):
    # D(z) = y^(p-1)*P is a normal form of Yp: none of its terms is divisible
    # by z^2 or y*w, so checking it is one scan
    derivation = build_vandermonde_lnd(p)
    basis = derivation.algebra.basis
    image = derivation.images["z"].rep
    key, calls = _counting(basis._key)
    assert groebner._reduce_terms(image._terms, basis._reducers, key) is image._terms
    assert calls == []
