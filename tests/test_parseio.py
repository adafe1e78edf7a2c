"""Expression round trips, error locations, and description-file loading."""

import random
import time
import tracemalloc
from pathlib import Path

import pytest

from suspensia import (
    Context,
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
from suspensia.coeff import CyclotomicField, root_of_unity
from suspensia.parseio import (
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_TERMS,
    algebra_from_data,
    algebra_to_data,
    dump_canonical,
    save_json,
)

from helpers import random_polynomial, refuse_large_powers, wall_clock_budget, QXY

FIXTURES = Path(__file__).parent / "fixtures"


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
    def refuse(self, n):
        raise AssertionError(f"power {n} computed")

    monkeypatch.setattr(Polynomial, "__pow__", refuse)
    nines = "9" * MAX_DIGITS
    for text in (f"({nines})^1000", f"(x + 1/{nines})^2", f"({nines}*x*y + y)^1000"):
        with pytest.raises(ParseError, match="digits exceeds the limit"):
            parse_expression(text, QXY)


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
