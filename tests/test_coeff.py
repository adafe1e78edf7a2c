"""Exact cyclotomic arithmetic against an independent reduction oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from suspensia import (
    CoefficientError,
    Context,
    CyclotomicField,
    CyclotomicNumber,
    Polynomial,
    QQ,
    field_from_text,
    is_prime,
    root_of_unity,
)
from suspensia import coeff

from helpers import (
    cyclo_from_power_oracle,
    cyclotomic_text_oracle,
    random_scalar,
    reduce_cyclotomic_oracle,
)


def test_root_of_unity_power_p_is_one():
    assert root_of_unity(3, 3) == 1
    assert root_of_unity(5, 5) == 1


def test_roots_sum_to_zero():
    for p in (2, 3, 5, 7):
        total = sum(root_of_unity(p, i) for i in range(1, p + 1))
        assert total == 0


def test_product_of_roots_reduces_via_oracle():
    # z * z^2 = z^3 = 1 for p = 3; frozen via oracle reduction of z^3
    expected = CyclotomicNumber(3, reduce_cyclotomic_oracle(3, [0, 0, 0, 1]))
    assert root_of_unity(3, 1) * root_of_unity(3, 2) == expected
    assert expected == 1


def test_non_prime_order_rejected():
    with pytest.raises(CoefficientError):
        root_of_unity(4, 1)
    with pytest.raises(CoefficientError):
        root_of_unity(1, 1)
    with pytest.raises(CoefficientError):
        CyclotomicField(6)


def test_root_index_range():
    with pytest.raises(CoefficientError):
        root_of_unity(3, 0)
    with pytest.raises(CoefficientError):
        root_of_unity(3, 4)


def test_inverse_of_primitive_root():
    z = root_of_unity(3, 1)
    inv = z.inverse()
    # z^2 = -1 - z by the oracle
    assert inv == cyclo_from_power_oracle(3, 2)
    assert inv == CyclotomicNumber(3, [-1, -1])
    assert z * inv == 1


def test_identity_and_zero():
    z = root_of_unity(5, 2)
    one = CyclotomicField(5).coerce(1)
    assert z * one == z
    assert z + 0 == z
    assert not (z - z)
    with pytest.raises(CoefficientError):
        (z - z).inverse()


def test_mixed_orders_rejected():
    with pytest.raises(CoefficientError):
        root_of_unity(3, 1) + root_of_unity(5, 1)


def test_product_of_all_roots_is_elementary_symmetric_sign():
    # the product of all p-th roots of unity is (-1)^(p+1)
    for p in (2, 3, 5, 7):
        prod = CyclotomicField(p).coerce(1)
        for i in range(1, p + 1):
            prod = prod * root_of_unity(p, i)
        assert prod == (-1) ** (p + 1)


def test_power_sums_vanish():
    for p in (2, 3, 5, 7):
        for k in range(1, p):
            total = sum(root_of_unity(p, i) ** k for i in range(1, p + 1))
            assert total == 0, (p, k)


def test_elementary_symmetric_by_expanding_product():
    # expand prod (t - e_i) as dense lists over the cyclotomic field and
    # compare with t^p - 1
    for p in (2, 3, 5, 7):
        field = CyclotomicField(p)
        poly = [field.one]
        for i in range(1, p + 1):
            eps = root_of_unity(p, i)
            out = [field.zero] * (len(poly) + 1)
            for d, c in enumerate(poly):
                out[d + 1] = out[d + 1] + c
                out[d] = out[d] - eps * c
            poly = out
        expected = [field.zero] * (p + 1)
        expected[0] = field.coerce(-1)
        expected[p] = field.one
        assert poly == expected


def test_field_axioms_random():
    rng = random.Random(7)
    for p in (3, 5):
        field = CyclotomicField(p)
        for _ in range(100):
            a = random_scalar(rng, field)
            b = random_scalar(rng, field)
            c = random_scalar(rng, field)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            if a:
                assert a * a.inverse() == 1
                assert (a * b) / a == b


def test_power_with_negative_exponent():
    z = root_of_unity(5, 3)
    assert z ** -1 == z.inverse()
    assert z ** -2 == (z * z).inverse()
    assert z ** 0 == 1


def test_rational_detection_and_hash():
    r = CyclotomicField(3).coerce(Fraction(2, 3))
    assert r.is_rational()
    assert r.rational_value() == Fraction(2, 3)
    assert hash(r) == hash(Fraction(2, 3))
    z = root_of_unity(3, 1)
    assert not z.is_rational()
    with pytest.raises(CoefficientError):
        z.rational_value()


def test_text_rendering():
    assert str(root_of_unity(3, 2)) == "-1 - z@3"
    assert str(root_of_unity(3, 1)) == "z@3"
    assert str(CyclotomicField(5).coerce(0)) == "0"
    assert str(CyclotomicNumber(5, [Fraction(1, 2), 0, 3, 0])) == "1/2 + 3*z@5^2"


def test_field_descriptors():
    assert field_from_text("Q") is QQ
    assert field_from_text("Q(z@7)") == CyclotomicField(7)
    with pytest.raises(CoefficientError):
        field_from_text("Q(z@8)")
    with pytest.raises(CoefficientError):
        field_from_text("R")
    assert QQ.coerce(3) == Fraction(3)
    with pytest.raises(CoefficientError):
        QQ.coerce(root_of_unity(3, 1))
    assert QQ.coerce(CyclotomicField(3).coerce(2)) == 2


def test_field_order_limit_triggers_before_primality(monkeypatch):
    limit = coeff.MAX_FIELD_ORDER
    largest = max(p for p in range(limit + 1) if is_prime(p))
    smallest_over = next(p for p in range(limit + 1, 2 * limit + 2) if is_prime(p))
    assert field_from_text(f"Q(z@{largest})") == CyclotomicField(largest)
    assert field_from_text("Q(z@007)") == CyclotomicField(7)

    def refuse(n):
        raise AssertionError("the order reached the primality test")

    monkeypatch.setattr(coeff, "is_prime", refuse)
    for order in (str(limit + 1), str(smallest_over), "1000000000000000003", "9" * 5000):
        with pytest.raises(CoefficientError, match="exceeds the limit"):
            field_from_text(f"Q(z@{order})")


def _oracle_product(p, a, b):
    dense = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            dense[i + j] += x * y
    return reduce_cyclotomic_oracle(p, dense)


_rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@st.composite
def _coordinate_pairs(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    coords = st.lists(_rationals, min_size=p - 1, max_size=p - 1)
    return p, draw(coords), draw(coords)


@st.composite
def _text_cases(draw):
    """An order p in {3, 5, 7} and p-1 coordinates, often 0 or +-1."""
    p = draw(st.sampled_from([3, 5, 7]))
    coordinate = st.one_of(st.just(Fraction(0)), st.sampled_from([Fraction(1), Fraction(-1)]),
                           _rationals)
    return p, draw(st.lists(coordinate, min_size=p - 1, max_size=p - 1))


@settings(max_examples=200, deadline=None)
@given(_text_cases())
@example((3, [Fraction(-1), Fraction(-1)]))
@example((5, [Fraction(-7, 2), Fraction(0), Fraction(1), Fraction(-1)]))
@example((7, [Fraction(0)] * 6))
def test_text_matches_term_by_term_oracle(case):
    p, coords = case
    c = CyclotomicNumber(p, coords)
    expected = cyclotomic_text_oracle(c)
    assert str(c) == expected
    # a polynomial prints a constant through the same renderer
    context = Context(CyclotomicField(p), ("x",))
    shown = expected if c.is_rational() else f"({expected})"
    assert Polynomial.constant(context, c).text() == shown


@settings(max_examples=150, deadline=None)
@given(_coordinate_pairs(), st.integers(min_value=2, max_value=30), _rationals)
def test_integer_kernel_agrees_with_oracle(case, k, q):
    p, a, b = case
    x, y = CyclotomicNumber(p, a), CyclotomicNumber(p, b)
    assert x.coeffs == tuple(a) and y.coeffs == tuple(b)
    assert (x + y).coeffs == reduce_cyclotomic_oracle(p, [s + t for s, t in zip(a, b)])
    assert (x - y).coeffs == reduce_cyclotomic_oracle(p, [s - t for s, t in zip(a, b)])
    assert (x * y).coeffs == _oracle_product(p, a, b)
    assert (x * q).coeffs == _oracle_product(p, a, [q])
    assert (x == y) == (tuple(a) == tuple(b))
    if x == y:
        assert hash(x) == hash(y)
    if x:
        one = (1,) + (0,) * (p - 2)
        assert _oracle_product(p, a, x.inverse().coeffs) == one
    # one value reached through differently scaled inputs
    scaled = CyclotomicNumber(p, [c * k for c in a])
    split = CyclotomicNumber(p, [c - Fraction(1, k) for c in a]) + CyclotomicNumber(
        p, [Fraction(1, k)] * (p - 1)
    )
    for same in (scaled / k, scaled * Fraction(1, k), split, x * y / y if y else x):
        assert same == x
        assert hash(same) == hash(x)
        assert str(same) == str(x)
    # a rational value hashes like its Fraction, however it was reached
    for rational in (
        CyclotomicField(p).coerce(q),
        x + q - x,
        CyclotomicNumber(p, [q] + [0] * (p - 2)),
    ):
        assert rational.is_rational() and rational == q
        assert hash(rational) == hash(q)


_PRIMES_TO_199 = [p for p in range(2, 200) if is_prime(p)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_PRIMES_TO_199), st.data())
@example(199, None)
def test_root_powers_to_negative_exponents_match_the_inverse(p, data):
    # z^k ** n is the root z^(k*n mod p), with no inverse computed; the
    # oracle inverts z^k and raises the inverse by square-and-multiply
    if data is None:  # the densest root power, z^(p-1), at the largest order
        i, n = p - 1, -(2 * p + 3)
    else:
        i, n = data.draw(st.integers(1, p)), data.draw(st.integers(-3 * p, -1))
    root = root_of_unity(p, i)
    expected = coeff._power(root.inverse(), -n, CyclotomicField(p).one)
    assert root**n == expected
    assert root**n == root_of_unity(p, i * n % p or p)
