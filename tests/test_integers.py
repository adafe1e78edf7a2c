"""One rule for every integer argument: exponents, powers, caps, rows and primes.

Each entry point reads an integer argument as ``Grading`` reads a weight: an
int, or a value equal to its int(), and never a bool.  A refused value
raises the entry point's own error class with its own message, and an
accepted one is kept as an int.
"""

from functools import lru_cache
from typing import NamedTuple

import pytest

from suspensia import (
    CoefficientError,
    ConstructionError,
    ContextError,
    CyclotomicField,
    CyclotomicNumber,
    DerivationError,
    GradingError,
    Polynomial,
    QQ,
    SuspensionError,
    adjoin_root,
    algebra_from_strings,
    attach_grading,
    build_F,
    build_vandermonde_lnd,
    build_Xp,
    build_Yp,
    certify_bundle,
    certify_family_lnd,
    certify_lnd,
    collapse_root,
    decompose,
    exp,
    form_products,
    lift_along_root,
    linear_forms,
    nu,
    root_of_unity,
)

from helpers import QXY, yp_weight_row

X = Polynomial.variable(QXY, "x")
FREE = algebra_from_strings(QQ, ["x", "y"], [])
# t = x^2, so t has a square root (x) to collapse and a root u to adjoin
ROOTED = algebra_from_strings(QQ, ["x", "t"], ["x^2 - t"])


@lru_cache(maxsize=None)
def yp3():
    """The Vandermonde derivation of Yp(3), its certificate and a 3-row grading."""
    derivation = build_vandermonde_lnd(3)
    zeros = (0,) * len(derivation.algebra.variables)
    grading = attach_grading(derivation.algebra, [zeros, zeros, yp_weight_row(3)])
    return derivation, certify_lnd(derivation), grading


def _x0():
    return yp3()[0].algebra.variable("x0")


class Entry(NamedTuple):
    name: str
    call: object  # value -> result
    good: int
    out_of_range: tuple
    error: type
    message: object  # value -> the error message
    read: object  # result -> the int (or tuple of ints) the value became


def _exponent_message(value):
    return f"bad exponent vector {(value, 0)} for ('x', 'y')"


def _odd_prime_message(value):
    return f"need an odd prime, got {value}"


def _cap_message(value):
    return "cap must be a non-negative integer"


def _root_message(value):
    return "root power must be a positive integer"


def _row_message(value):
    return f"row {value} out of range for 3 rows"


def _order_message(value):
    return f"cyclotomic order must be prime, got {value}"


ENTRIES = [
    Entry("Polynomial exponent", lambda v: Polynomial(QXY, {(v, 0): 1}), 2, (-1,),
          ContextError, _exponent_message, lambda r: r.degree_in("x")),
    Entry("Polynomial.monomial exponent", lambda v: Polynomial.monomial(QXY, {"x": v}), 2, (-1,),
          ContextError, _exponent_message, lambda r: r.degree_in("x")),
    Entry("Polynomial power", lambda v: X ** v, 2, (-1,), ValueError,
          lambda v: "polynomial power must be a non-negative integer",
          lambda r: r.degree_in("x")),
    Entry("AlgebraElement power", lambda v: FREE.variable("x") ** v, 2, (-1,), ValueError,
          lambda v: "element power must be a non-negative integer",
          lambda r: r.rep.degree_in("x")),
    # every int is a power of a nonzero scalar, so only the type is refused
    Entry("CyclotomicNumber power", lambda v: root_of_unity(5, 1) ** v, 2, (), TypeError,
          lambda v: ("unsupported operand type(s) for ** or pow(): "
                     f"'CyclotomicNumber' and '{type(v).__name__}'"),
          lambda r: r.integers().index(1)),
    Entry("CyclotomicField order", CyclotomicField, 7, (4,), CoefficientError, _order_message,
          lambda r: r.p),
    Entry("CyclotomicNumber order", lambda v: CyclotomicNumber(v, [1, 0]), 3, (1,),
          CoefficientError, _order_message, lambda r: r.p),
    Entry("root_of_unity order", lambda v: root_of_unity(v, 1), 3, (9,), CoefficientError,
          _order_message, lambda r: r.p),
    Entry("root_of_unity index", lambda v: root_of_unity(5, v), 2, (0, 6), CoefficientError,
          lambda v: f"root index must lie in 1..5, got {v}", lambda r: r.integers().index(1)),
    Entry("adjoin_root power", lambda v: adjoin_root(ROOTED, "t", "u", v), 2, (0,),
          SuspensionError, _root_message, lambda r: r.relations[0].degree_in("u")),
    Entry("collapse_root power", lambda v: collapse_root(ROOTED, "x", "s", v), 2, (0,),
          SuspensionError, _root_message, lambda r: r.relations[0].degree_in("s")),
    Entry("lift_along_root power", lambda v: lift_along_root(yp3()[1], "y", "u", v), 2, (0,),
          SuspensionError, _root_message,
          lambda r: r.derivation.algebra.relations[1].degree_in("u")),
    Entry("certify_lnd cap", lambda v: certify_lnd(yp3()[0], v), 2, (-1,), DerivationError,
          _cap_message, lambda r: r.cap),
    Entry("nu cap", lambda v: nu(yp3()[0], _x0(), v), 2, (-1,), DerivationError, _cap_message,
          lambda r: r),
    Entry("exp cap", lambda v: exp(yp3()[0], 1, v), 2, (-1,), DerivationError, _cap_message,
          lambda r: r.orders),
    Entry("exp max_digits", lambda v: exp(yp3()[0], 1, max_digits=v), 2, (0,), DerivationError,
          lambda v: "max_digits must be positive", lambda r: r.orders),
    Entry("certify_family_lnd cap", lambda v: certify_family_lnd(3, v), 2, (-1,),
          DerivationError, _cap_message, lambda r: r.cap),
    Entry("certify_bundle cap", lambda v: certify_bundle(3, 6, v), 2, (-1,), DerivationError,
          _cap_message, lambda r: (r.report["cap"], r.report["lift"]["lnd"]["cap"])),
    Entry("decompose row", lambda v: decompose(yp3()[0], yp3()[2], v), 2, (-1, 3),
          DerivationError, _row_message, lambda r: (r.row, *r.components)),
    Entry("Grading.components row", lambda v: yp3()[2].components(_x0(), v), 2, (-1, 3),
          GradingError, _row_message, lambda r: tuple(r)),
    Entry("linear_forms p", linear_forms, 3, (2,), ConstructionError, _odd_prime_message,
          lambda r: r[0].context.field.p),
    Entry("form_products p", form_products, 3, (2,), ConstructionError, _odd_prime_message,
          lambda r: r.full.context.field.p),
    Entry("build_F p", build_F, 3, (2,), ConstructionError, _odd_prime_message,
          lambda r: r[1].degree_in("s")),
    Entry("build_Yp p", build_Yp, 3, (2,), ConstructionError, _odd_prime_message,
          lambda r: r.field.p),
    Entry("build_Xp p", build_Xp, 3, (2,), ConstructionError, _odd_prime_message,
          lambda r: r[1].matrix[0]),
    Entry("build_vandermonde_lnd p", build_vandermonde_lnd, 3, (2,), ConstructionError,
          _odd_prime_message, lambda r: r.algebra.field.p),
    Entry("certify_family_lnd p", certify_family_lnd, 3, (2,), ConstructionError,
          _odd_prime_message, lambda r: r.derivation.algebra.field.p),
    Entry("certify_bundle p", lambda v: certify_bundle(v, 6), 3, (2,), ConstructionError,
          _odd_prime_message, lambda r: (r.p, r.report["p"])),
    Entry("certify_bundle n", lambda v: certify_bundle(3, v), 6, (0,), ConstructionError,
          lambda v: f"n must be a multiple of p, got n={v}, p=3",
          lambda r: (r.n, r.report["n"], r.report["lift"]["power"])),
]


REFUSED = [
    pytest.param(entry, value, id=f"{entry.name}-{value!r}")
    for entry in ENTRIES
    # a bool, a fraction, digits as text, and every integer out of range
    for value in (True, entry.good + 0.5, str(entry.good), *entry.out_of_range)
]


@pytest.mark.parametrize("entry, value", REFUSED)
def test_entry_point_refuses_a_value_that_is_not_an_admitted_integer(entry, value):
    with pytest.raises(entry.error) as caught:
        entry.call(value)
    assert type(caught.value) is entry.error
    assert str(caught.value) == entry.message(value)


@pytest.mark.parametrize("entry", [pytest.param(e, id=e.name) for e in ENTRIES])
def test_entry_point_reads_an_integral_float_as_its_int(entry):
    want = entry.read(entry.call(entry.good))
    got = entry.read(entry.call(float(entry.good)))
    assert got == want
    for value in got if isinstance(got, tuple) else (got,):
        assert type(value) is int


def test_a_cyclotomic_field_keeps_its_order_as_an_int():
    assert type(CyclotomicField(7.0).p) is int
    assert CyclotomicField(7.0) == CyclotomicField(7)


# Each of these was accepted, or failed with a bare IndexError, before every
# integer argument went through one rule.
REGRESSIONS = [
    ("Polynomial exponent 1.5", lambda: Polynomial(QXY, {(1.5, 0): 1}),
     ContextError, "bad exponent vector (1.5, 0) for ('x', 'y')"),
    ("Polynomial exponent '2'", lambda: Polynomial(QXY, {("2", 0): 1}),
     ContextError, "bad exponent vector ('2', 0) for ('x', 'y')"),
    ("Polynomial.monomial exponent 2.7", lambda: Polynomial.monomial(QXY, {"x": 2.7}),
     ContextError, "bad exponent vector (2.7, 0) for ('x', 'y')"),
    ("lift_along_root power True", lambda: lift_along_root(yp3()[1], "y", "u", True),
     SuspensionError, "root power must be a positive integer"),
    ("certify_lnd cap True", lambda: certify_lnd(yp3()[0], True),
     DerivationError, "cap must be a non-negative integer"),
    ("decompose row -1", lambda: decompose(yp3()[0], _one_row(), -1),
     DerivationError, "row -1 out of range for 1 rows"),
    ("decompose row 2", lambda: decompose(yp3()[0], _one_row(), 2),
     DerivationError, "row 2 out of range for 1 rows"),
]


def _one_row():
    return attach_grading(yp3()[0].algebra, [yp_weight_row(3)])


@pytest.mark.parametrize(
    "call, error, message", [pytest.param(*r[1:], id=r[0]) for r in REGRESSIONS]
)
def test_inputs_once_read_wrongly_are_refused(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
