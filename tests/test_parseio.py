"""Expression round trips, error locations, and description-file loading."""

import json
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from suspensia import (
    CoefficientError,
    Context,
    CyclotomicNumber,
    ParseError,
    Polynomial,
    QQ,
    SchemaError,
    build_vandermonde_lnd,
    build_Yp,
    elimination,
    grevlex,
    load_algebra,
    load_derivation,
    parse_expression,
)
from suspensia import parseio
from suspensia.cli import main
from suspensia.coeff import CyclotomicField, field_from_text, root_of_unity
from suspensia.parseio import (
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_TERMS,
    algebra_from_data,
    algebra_to_data,
    derivation_to_data,
    dump_canonical,
    save_json,
)

from helpers import (
    QXY,
    parse_oracle,
    random_polynomial,
    refuse_large_powers,
    text_oracle,
    wall_clock_budget,
)

FIXTURES = Path(__file__).parent / "fixtures"
QXY3 = Context(QQ, ("x", "y", "w"))


def test_basic_expression():
    ctx = Context(QQ, ("x0", "x1", "x2", "y"))
    f = parse_expression("x0^3 - 3*x0*x1*x2*y^3", ctx)
    assert len(f.terms) == 2
    assert f.coefficient((3, 0, 0, 0)) == 1
    assert f.coefficient((1, 1, 1, 3)) == -3


def test_cyclotomic_coefficient_matches_field_arithmetic():
    ctx = Context(CyclotomicField(3), ("x1",))
    f = parse_expression("(-1 - z@3)*x1", ctx)
    eps2 = root_of_unity(3, 2)
    assert f == Polynomial.monomial(ctx, {"x1": 1}, eps2)


def test_error_position():
    with pytest.raises(ParseError) as info:
        parse_expression("x0 +", Context(QQ, ("x0",)))
    assert info.value.line == 1
    assert info.value.column == 5


def test_unknown_identifier():
    with pytest.raises(ParseError) as info:
        parse_expression("x + q", QXY)
    assert "q" in str(info.value)
    assert info.value.column == 5


def test_malformed_exponent():
    with pytest.raises(ParseError):
        parse_expression("x^y", QXY)
    with pytest.raises(ParseError):
        parse_expression("x^-1", QXY)
    with pytest.raises(ParseError):
        parse_expression("x^2^3", QXY)


@pytest.mark.parametrize(
    "text, message, column",
    [
        ("x^²", "unexpected character '²'", 3),
        ("١٢", "unexpected character '١'", 1),
        ("x é", "unexpected character 'é'", 3),
        ("x +\u00a0y*z@٣", "expected a prime after 'z@'", 9),
    ],
    ids=["superscript-two", "arabic-indic-digits", "latin-letter", "no-break-space"],
)
def test_non_ascii_characters_are_located(text, message, column):
    # digits are ASCII 0-9 and names ASCII letters, digits and '_', while any
    # Unicode space separates tokens; '²' once reached int() and raised a
    # bare ValueError, and '١٢' parsed as 12
    with pytest.raises(ParseError, match=message) as info:
        parse_expression(text, Context(CyclotomicField(3), ("x", "y")))
    assert (info.value.line, info.value.column) == (1, column)


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("x +\n  q", "unknown identifier 'q'", 2, 3),
        ("x\n\n é", "unexpected character 'é'", 3, 2),
        ("x +\n\n", "expected a number, variable, or '\\('", 3, 1),
        ("x\n  +z@", "expected a prime after 'z@'", 2, 6),
        ("\n\n  (x))", "unexpected '\\)'", 3, 6),
        ("x y\n  2^3^4", "chained '\\^' is not allowed", 2, 6),
        ("x + + é", "expected a number, variable, or '\\('", 1, 5),
        ("q é", "unknown identifier 'q'", 1, 1),
        ("x^y é", "malformed exponent", 1, 3),
        ("x é z@", "unexpected character 'é'", 1, 3),
        ("1/0\n q@3", "zero denominator", 1, 3),
    ],
)
def test_the_first_error_left_to_right_is_located(text, message, line, column):
    with pytest.raises(ParseError, match=message) as info:
        parse_expression(text, QXY)
    assert (info.value.line, info.value.column) == (line, column)


def test_a_parse_keeps_no_per_token_state():
    # 5,000 summands of 9 tokens each, cancelling in pairs: only the running
    # sum and the current token are held, never a list of tokens
    text = "x" + " + 2*x*y^2 - 2*y^2*x" * 5000
    tracemalloc.start()
    try:
        value = parse_expression(text, QXY)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == Polynomial.variable(QXY, "x")
    assert peak < 1024 * 1024


def test_exponent_limit():
    assert parse_expression(f"x^{MAX_EXPONENT}", QXY) == Polynomial.monomial(
        QXY, {"x": MAX_EXPONENT}
    )
    with pytest.raises(ParseError, match="exceeds the limit") as info:
        parse_expression(f"x^{MAX_EXPONENT + 1}", QXY)
    assert info.value.column == 3


def test_literal_digit_limit():
    assert parse_expression("9" * MAX_DIGITS, QXY) == int("9" * MAX_DIGITS)
    for text in ("1" * (MAX_DIGITS + 1), "x^" + "1" * 5000):
        with pytest.raises(ParseError, match="digits exceeds the limit"):
            parse_expression(text, QXY)
    with pytest.raises(ParseError, match="digits exceeds the limit"):
        parse_expression("z@" + "1" * 5000, Context(CyclotomicField(3), ("x",)))


def test_limits_trigger_without_allocating(monkeypatch):
    # 2^100000000 alone would take 12.5 MB and a 5000-digit literal a
    # conversion; the parser refuses both before either happens
    refuse_large_powers(monkeypatch)
    texts = ["2^100000000", "2^100000", "1" * 5000, "(x + y)^" + "9" * 5000]
    tracemalloc.start()
    try:
        for text in texts:
            with pytest.raises(ParseError, match="exceeds the limit"):
                parse_expression(text, QXY)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_constant_digit_limit():
    nines = "9" * MAX_DIGITS
    assert parse_expression(f"{nines} - 1 + 1", QXY) == int(nines)
    assert parse_expression("9^1000", QXY) == 9**1000  # 955 digits
    ctx3 = Context(CyclotomicField(3), ("x",))
    too_large = [
        (f"{nines} + 1", QXY),
        (f"{nines[1:]}*10*10", QXY),
        (f"1/{nines} + 1/{nines[:-1]}8", QXY),  # coprime denominators
        ("10^1000", QXY),
        (f"x*{nines}*z@3*10 + 1", ctx3),
        (f"({nines[1:]}*z@3)^2", ctx3),
    ]
    for text, context in too_large:
        with pytest.raises(ParseError, match="digits exceeds the limit"):
            parse_expression(text, context)


def test_constant_limit_refuses_powers_before_computing(monkeypatch):
    # (10^1000 - 1)^1000 alone takes 0.8 s and 415 kB; a rational vertex
    # coefficient of the base shows the power past the limit beforehand
    def refuse(base, n):
        raise AssertionError(f"power {n} computed")

    # every base, of one term or several, is raised by Polynomial.__pow__
    monkeypatch.setattr(Polynomial, "__pow__", refuse)
    # in Q(z@p) a rational coefficient is a CyclotomicNumber, bounded the same way
    nines = "9" * MAX_DIGITS
    ctx3 = Context(CyclotomicField(3), ("x", "y"))
    for text in (f"({nines})^1000", f"(x + 1/{nines})^2", f"({nines}*x*y + y)^1000"):
        for context in (QXY, ctx3):
            with pytest.raises(ParseError, match="digits exceeds the limit"):
                parse_expression(text, context)


def test_constant_limit_stops_products_and_sums_early():
    # checked only at the end, the product of 2000 factors 9^1000 (955
    # digits each) took 31 s to build before it was refused
    product = "9^1000*" * 2000 + "1"
    with pytest.raises(ParseError, match="digits exceeds the limit") as info:
        parse_expression(product, QXY)
    assert info.value.column == len("9^1000*") + 1
    sum_of_powers = " + ".join(f"(1/{k})^300" for k in range(2, 2000))
    start = time.perf_counter()
    with pytest.raises(ParseError, match="digits exceeds the limit"):
        parse_expression(sum_of_powers, QXY)
    assert time.perf_counter() - start < 1.0


def test_term_limit_refuses_products_and_powers_before_computing(monkeypatch):
    # (x0+x1+x2+y+z+w)^15 took 6.5 s to make 15,504 terms; ^1000 would
    # have about 8*10^12 and passed every other limit
    refuse_large_powers(monkeypatch)
    context = Context(CyclotomicField(3), ("x0", "x1", "x2", "y", "z", "w"))
    with wall_clock_budget(1):
        with pytest.raises(ParseError, match=f"more than {MAX_TERMS} terms") as info:
            parse_expression("(x0+x1+x2+y+z+w)^1000", context)
    assert info.value.column == 18
    assert len(parse_expression("(x0+x1+x2+y+z+w)^10", context).terms) == 3003
    # a product is bounded by its term pairs: 100*100 is at the limit
    assert len(parse_expression("(x+y)^99*(x-y)^99", QXY).terms) == 100
    with pytest.raises(ParseError, match=f"more than {MAX_TERMS} terms") as info:
        parse_expression("(x+y)^99*(x-y)^100", QXY)
    assert info.value.column == 10


def test_cyclo_symbol_needs_matching_field():
    with pytest.raises(ParseError):
        parse_expression("z@3", QXY)
    ctx5 = Context(CyclotomicField(5), ("x",))
    with pytest.raises(ParseError):
        parse_expression("z@3*x", ctx5)


def test_implicit_multiplication_and_rationals():
    assert parse_expression("2x", QXY) == parse_expression("2*x", QXY)
    assert parse_expression("x(x + y)", QXY) == parse_expression("x^2 + x*y", QXY)
    assert parse_expression("1/2*x", QXY) * 2 == parse_expression("x", QXY)
    with pytest.raises(ParseError):
        parse_expression("1/0", QXY)
    with pytest.raises(ParseError):
        parse_expression("x/2", QXY)


def test_unary_minus_precedence():
    assert parse_expression("-x^2", QXY) == -parse_expression("x^2", QXY)
    assert parse_expression("--x", QXY) == parse_expression("x", QXY)


def test_roundtrip_random():
    rng = random.Random(17)
    contexts = [QXY, Context(CyclotomicField(3), ("a", "b")), Context(CyclotomicField(5), ("u",))]
    for ctx in contexts:
        for _ in range(200):
            f = random_polynomial(rng, ctx, max_terms=5, max_exp=4)
            assert parse_expression(f.text(), ctx) == f


def test_load_algebra_torus_line(tmp_path):
    path = tmp_path / "torus.json"
    save_json(path, {"field": "Q", "variables": ["y", "w"], "relations": ["y*w - 1"]})
    algebra = load_algebra(path)
    assert algebra.variables == ("y", "w")


def test_reserved_variable_name_rejected(tmp_path):
    path = tmp_path / "bad.json"
    save_json(path, {"field": "Q(z@5)", "variables": ["z@5"], "relations": []})
    with pytest.raises(SchemaError):
        load_algebra(path)


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "bad.json"
    save_json(path, {"field": "Q", "variables": ["x"], "relations": [], "extra": 1})
    with pytest.raises(SchemaError):
        load_algebra(path)


def test_yp3_fixture_matches_pipeline():
    algebra = load_algebra(FIXTURES / "yp3.json")
    built = build_Yp(3)
    assert algebra.context == built.context
    assert list(algebra.relations) == list(built.relations)
    assert algebra.same_presentation(built)


def test_fixture_mixes_with_z_ordered_pipeline():
    # the file has no order key, so it loads under grevlex; build_Yp orders by {z}
    loaded = load_algebra(FIXTURES / "yp3.json")
    built = build_Yp(3)
    assert loaded.order == grevlex() and built.order == elimination("z")
    assert loaded.variable("z") ** 2 == built.variable("z") ** 2
    assert built.variable("z") ** 2 == loaded.variable("z") ** 2
    assert not (loaded.variable("z") ** 2 - built.variable("z") ** 2)


def test_fixture_derivation_equals_pipeline_derivation():
    loaded = load_derivation(FIXTURES / "yp3_derivation.json")
    built = build_vandermonde_lnd(3)
    assert loaded.algebra.order != built.algebra.order
    assert built == loaded
    assert loaded == built


def test_fixture_derivation_loads_and_certifies():
    derivation = load_derivation(FIXTURES / "yp3_derivation.json")
    assert derivation.well_defined.ok
    assert all(c.identically_zero for c in derivation.well_defined.checks)


def test_emit_load_emit_is_byte_stable(tmp_path):
    algebra = build_Yp(3)
    data = algebra_to_data(algebra)
    first = dump_canonical(data)
    path = tmp_path / "yp.json"
    path.write_text(first, encoding="utf-8")
    again = dump_canonical(algebra_to_data(load_algebra(path)))
    assert first == again
    assert first.endswith("\n")
    assert "\r" not in first


@pytest.fixture(scope="module")
def family_artifacts(tmp_path_factory):
    """The four files build-yp writes for p = 3, 5 and 7, by p."""
    root = tmp_path_factory.mktemp("family")
    for p in (3, 5, 7):
        out = str(root / f"p{p}")
        assert main(["build-yp", "--p", str(p), "--n", str(2 * p), "--out", out]) == 0
    return {p: root / f"p{p}" for p in (3, 5, 7)}


@pytest.mark.parametrize("artifact", ["Xp.json", "Yp.json", "derivation.json"])
def test_emit_load_emit_is_byte_stable_at_p5(family_artifacts, artifact):
    # the p = 5 derivation images have coefficients with several
    # coordinates over a common denominator, such as (-2/5 - 2/5*z@5 - ...)
    path = family_artifacts[5] / artifact
    if artifact == "derivation.json":
        data = {"algebra": "Yp.json", **derivation_to_data(load_derivation(path))}
    else:
        data = algebra_to_data(load_algebra(path))
    assert dump_canonical(data).encode("utf-8") == path.read_bytes()


def _expressions(path):
    """The context of an artifact and every expression it holds."""
    data = json.loads(path.read_text(encoding="utf-8"))
    if "images" in data:
        texts = list(data["images"].values())
        data = json.loads((path.parent / data["algebra"]).read_text(encoding="utf-8"))
    else:
        texts = data["relations"]
    return Context(field_from_text(data["field"]), tuple(data["variables"])), texts


@pytest.mark.parametrize("p", [3, 5, 7])
def test_artifacts_parse_as_the_oracle_parses(family_artifacts, p):
    for artifact in ("Xp.json", "Yp.json", "derivation.json"):
        context, texts = _expressions(family_artifacts[p] / artifact)
        for text in texts:
            parsed = parse_expression(text, context)
            assert list(parsed.terms.items()) == list(parse_oracle(text, context).terms.items())
            assert parsed.text() == text


def test_artifacts_parse_as_shifts_without_chained_sums(family_artifacts, monkeypatch):
    # each summand of the family's text merges into the running sum in
    # place, so no sum goes through a Polynomial operator; its products and
    # powers all have a one-term operand, so each is an exponent shift or scale
    def refuse(*args):
        raise AssertionError("a sum was chained with + or -")

    real_mul, real_pow = Polynomial.__mul__, Polynomial.__pow__

    def shift(f, g):
        assert len(f.terms) == 1 or len(g.terms) == 1, "a product of two sums"
        return real_mul(f, g)

    def scale(f, n):
        assert len(f.terms) == 1, "a power of a sum"
        return real_pow(f, n)

    expected = {}
    for artifact in ("Yp.json", "derivation.json"):
        context, texts = _expressions(family_artifacts[5] / artifact)
        expected[artifact] = [parse_oracle(text, context) for text in texts]
    for method in ("__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(Polynomial, method, refuse)
    monkeypatch.setattr(Polynomial, "__mul__", shift)
    monkeypatch.setattr(Polynomial, "__pow__", scale)
    for artifact, oracles in expected.items():
        context, texts = _expressions(family_artifacts[5] / artifact)
        for text, oracle in zip(texts, oracles):
            assert list(parse_expression(text, context).terms.items()) == list(oracle.terms.items())


@pytest.mark.parametrize(
    "text",
    [
        "(x + y)*(w + 1)",
        "2*x*(x + y)*3*(y - w)^2*w",
        "(x + y)^2*-(w + 1)*(x - 1/2)",
        "-x*(y + 1)*0*(x + w)",
        "(x + y)^0*x^2*(x*y)^3*(1/2*w)^2",
    ],
)
def test_products_with_sums_give_the_oracle_terms(text):
    # a running term meets a sum, and a product of sums takes each later factor
    assert _outcome(parse_expression, text, QXY3) == _outcome(parse_oracle, text, QXY3)


@pytest.mark.parametrize(
    "field, text",
    [
        (CyclotomicField(5), "(1 + z@5)*x + (1 + z@5)*y^2 - (1 + z@5)*(x + y) + (1 + z@5)^2*w"),
        (CyclotomicField(5), "(2 - z@5^2)*(x + w)*(2 - z@5^2) - x*(2 - z@5^2)*(2 - z@5^2)*y"),
        (CyclotomicField(3), "(-1 - z@3)*x - -(-1 - z@3) + (x - x)*y - (x - x) + (-1 - z@3)^0"),
        (QQ, "(1/2 - 3)*x*(1/2 - 3) + (1/2 - 3)*(x + y)^2 + ( 1/2 - 3 )*w + (1/2 -3)"),
    ],
)
def test_a_repeated_constant_gives_the_oracle_terms(field, text):
    context = Context(field, QXY3.variables)
    assert _outcome(parse_expression, text, context) == _outcome(parse_oracle, text, context)


@pytest.mark.parametrize("outer", [98, 99])
def test_a_repeated_constant_nested_deeper_is_read_again(outer):
    # "(-1)" takes two levels: read first at the top, its copy inside 98
    # parentheses reaches level 100 and parses, inside 99 it reaches 101
    text = "(-1)*x + " + "(" * outer + "(-1)" + ")" * outer
    ours = _outcome(parse_expression, text, QXY)
    assert ours == _outcome(parse_oracle, text, QXY)
    if outer == 99:
        assert ours == f"expression nested too deeply (line 1, column {len('(-1)*x + ') + 101})"
    else:
        assert ours == [((1, 0), -1), ((0, 0), -1)]


def test_each_distinct_constant_of_the_p5_image_is_parsed_once(family_artifacts, monkeypatch):
    context, texts = _expressions(family_artifacts[5] / "derivation.json")
    text = max(texts, key=len)  # D(z)
    constants = re.findall(r"\([^()]*\)", text)
    assert len(constants) > 2 * len(set(constants)) > 0
    read = []
    real_expr = parseio._Parser.expr

    def expr(parser):
        if parser.depth:
            read.append(parser.start)
        return real_expr(parser)

    monkeypatch.setattr(parseio._Parser, "expr", expr)
    parsed = parse_expression(text, context)
    opened = [text.rindex("(", 0, at) for at in read]
    assert sorted({text[at:text.index(")", at) + 1] for at in opened}) == sorted(set(constants))
    assert len(read) == len(set(constants))
    monkeypatch.undo()
    assert list(parsed.terms.items()) == list(parse_oracle(text, context).terms.items())


_FIELDS = [QQ, CyclotomicField(3), CyclotomicField(5), CyclotomicField(7)]
_RATIONALS = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@st.composite
def _polynomials(draw):
    """A polynomial in x, y, w over Q or Q(z@p), p = 3, 5, 7.

    Terms may repeat a monomial, constants and the zero polynomial occur,
    and most Q(z@p) coordinates are 0, so rational values and roots of
    unity are common.
    """
    field = draw(st.sampled_from(_FIELDS))
    context = Context(field, ("x", "y", "w"))
    if isinstance(field, CyclotomicField):
        coordinate = st.one_of(st.just(0), st.just(0), st.sampled_from([1, -1]), _RATIONALS)
        scalar = st.lists(coordinate, min_size=field.p - 1, max_size=field.p - 1).map(
            lambda coords: CyclotomicNumber(field.p, coords)
        )
    else:
        scalar = _RATIONALS
    monomial = st.tuples(*[st.integers(0, 3)] * 3)
    terms = draw(st.lists(st.tuples(monomial, scalar), max_size=6))
    return Polynomial(context, dict(terms))


@settings(max_examples=200, deadline=None)
@given(_polynomials())
def test_text_matches_the_oracle_and_parses_back(f):
    text = f.text()
    assert text == text_oracle(f)
    parsed = parse_expression(text, f.context)
    assert list(parsed.terms.items()) == list(parse_oracle(text, f.context).terms.items())
    assert parsed == f


def test_text_of_a_number_too_long_to_print_is_the_oracle_error():
    digits = sys.get_int_max_str_digits() + 1
    huge = Fraction(10**digits + 1, 3)
    ctx5 = Context(CyclotomicField(5), ("x",))
    for f in (
        Polynomial.constant(QXY, huge) + Polynomial.variable(QXY, "x"),
        Polynomial.monomial(ctx5, (2,), CyclotomicNumber(5, [0, huge, 0, 1])),
    ):
        with pytest.raises(CoefficientError) as ours:
            f.text()
        with pytest.raises(CoefficientError) as oracle:
            text_oracle(f)
        assert str(ours.value) == str(oracle.value)


def _atoms(field):
    roots = [f"z@{field.p}", f"z@{field.p}^2", f"z@{field.p}^{field.p + 1}"] if field != QQ else []
    return ["x", "y", "w", "0", "1", "3", "5/6", "12/8"] + roots


@st.composite
def _texts(draw):
    """A field and expression text for it: either well formed, by a small
    grammar with powers, unary minus, implicit and explicit products, sums
    and differences, or pieces joined at random, which is mostly malformed.

    The random pieces add an unknown name, a foreign field constant, a zero
    denominator, stray operators, a bad ``z@`` and ``q@3``, and characters
    no token takes; they are joined by spaces or newlines, so a number never
    runs into a long exponent, and a text with several errors shows which
    one, and on which line, is reported.
    """
    field = draw(st.sampled_from(_FIELDS))
    atoms = st.sampled_from(_atoms(field))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.lists(inner, min_size=2, max_size=3).map("*".join),
            st.lists(inner, min_size=2, max_size=3).map(" ".join),
            st.lists(inner, min_size=2, max_size=4).map(" + ".join),
            st.tuples(inner, inner).map(" - ".join),
            inner.map(lambda text: f"-{text}"),
        )

    pieces = _atoms(field) + [
        "q", "1/0", "2x", "x(y", "x^2", "z@5", "/", "^", "^2", "+", "-", "*", "(", "(", ")", ")",
        "é", "²", "q@3", "z@",
    ]
    separator = st.sampled_from([" ", " ", "\n"])
    random_pieces = st.lists(st.tuples(separator, st.sampled_from(pieces)), max_size=16).map(
        lambda pairs: "".join(sep + piece for sep, piece in pairs)
    )
    return field, draw(st.one_of(st.recursive(atoms, extend, max_leaves=8), random_pieces))


def _outcome(parse, text, context):
    try:
        return list(parse(text, context).terms.items())
    except ParseError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_texts())
@example((QQ, f"(x + 1/{'9' * MAX_DIGITS})^2"))
@example((CyclotomicField(5), f"({'9' * (MAX_DIGITS - 1)}*z@5)^2 - x"))
@example((QQ, "9^1000*9^1000*x"))
@example((QQ, "(x+y+w+1)^40"))
@example((CyclotomicField(7), "(z@7^3)^5*x - (2*z@7)^0 + -(-x)^3 + (x - x)^0 - 0^0"))
@example((QQ, "((" * 60 + "x" + ")" * 60))
def test_parsers_agree_on_random_text(case):
    field, text = case
    context = Context(field, ("x", "y", "w"))
    assert _outcome(parse_expression, text, context) == _outcome(parse_oracle, text, context)


def test_derivation_loading_by_name(tmp_path):
    path = tmp_path / "alg.json"
    save_json(
        path,
        {
            "field": "Q",
            "variables": ["x", "y"],
            "relations": [],
            "derivations": {
                "shift": {"x": "0", "y": "x"},
                "scale": {"x": "x", "y": "2*y"},
            },
        },
    )
    shift = load_derivation(path, name="shift")
    assert shift.images["y"].rep == parse_expression("x", shift.algebra.context)
    with pytest.raises(SchemaError):
        load_derivation(path)  # ambiguous without a name
    with pytest.raises(SchemaError):
        load_derivation(path, name="absent")


def test_standalone_derivation_file_has_no_names():
    standalone = FIXTURES / "yp3_derivation.json"
    assert load_derivation(standalone, name=None).well_defined.ok
    with pytest.raises(SchemaError, match="no derivation named 'main'"):
        load_derivation(standalone, name="main")


def test_grading_attached_on_load(tmp_path):
    path = tmp_path / "graded.json"
    save_json(
        path,
        {
            "field": "Q",
            "variables": ["x", "y"],
            "relations": [],
            "gradings": {"std": [[1, 1], [0, 1]]},
        },
    )
    algebra = load_algebra(path)
    assert algebra.gradings["std"].matrix == ((1, 1), (0, 1))


def test_algebra_from_data_requires_keys():
    with pytest.raises(SchemaError):
        algebra_from_data({"field": "Q", "variables": ["x"]})
    with pytest.raises(SchemaError):
        algebra_from_data({"field": "Z", "variables": ["x"], "relations": []})
