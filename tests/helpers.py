"""Shared oracles, random generators and a wall-clock budget for the test suite.

The oracles deliberately take different computational routes than the
library: cyclotomic reduction by long division instead of index folding,
products by enumerating all cross terms instead of pairwise dict merging.
The merge-loop oracles (``add_oracle`` to ``s_polynomial_oracle``) give
each operation its own hand-written merge and build sums by chaining,
where the library merges every sum through ``poly._accumulate``.  The text
oracles (``text_oracle``, ``parse_oracle``) print through ``Fraction``s and
read back through ``Polynomial`` arithmetic, where the library works on
stored integers and term dicts; ``parse_oracle`` reads its tokens through
a lexer of its own, which counts lines as it goes.
"""

import heapq
import math
import re
import signal
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product as iter_product
from operator import add, le, neg, sub

from suspensia import Context, CyclotomicNumber, Polynomial, QQ, new_derivation
from suspensia import parseio
from suspensia.coeff import CoefficientError, CyclotomicField, root_of_unity, stored_integers
from suspensia.constructions import x_names, yp_context
from suspensia.parseio import ParseError
from suspensia.poly import NAME_PATTERN, ContextError


def reduce_cyclotomic_oracle(p, dense):
    """Reduce a dense coefficient list (little-endian powers of z) mod
    1 + z + ... + z^(p-1) by plain long division; returns p-1 coordinates."""
    work = [Fraction(c) for c in dense]
    while len(work) >= p:
        lead = work.pop()
        base = len(work) - (p - 1)
        for k in range(p - 1):
            work[base + k] -= lead
    return tuple(work + [Fraction(0)] * (p - 1 - len(work)))


def cyclo_from_power_oracle(p, k):
    """z^k reduced by the oracle."""
    dense = [0] * (k + 1)
    dense[k] = 1
    return CyclotomicNumber(p, reduce_cyclotomic_oracle(p, dense))


def cyclotomic_text_oracle(c):
    """The text of a Q(z@p) value, rendered term by term from its coordinates.

    A separate renderer from the library's: each nonzero coordinate becomes
    one piece with its own sign, and a leading '-' turns into ' - ' when the
    pieces are joined.
    """
    sym = f"z@{c.p}"
    parts = []
    for k, q in enumerate(c.coeffs):
        if not q:
            continue
        if k == 0:
            parts.append(str(q))
            continue
        mono = sym if k == 1 else f"{sym}^{k}"
        if q == 1:
            parts.append(mono)
        elif q == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{q}*{mono}")
    if not parts:
        return "0"
    out = parts[0]
    for piece in parts[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def _term_text_oracle(coeff, mono):
    """One term as (sign, body), its rational coefficient read as a Fraction."""
    if isinstance(coeff, CyclotomicNumber):
        if not coeff.is_rational():
            body = f"({cyclotomic_text_oracle(coeff)})"
            return (1, f"{body}*{mono}" if mono else body)
        coeff = coeff.rational_value()
    n, d = coeff.numerator, coeff.denominator
    body = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
    if mono:
        body = mono if body == "1" else f"{body}*{mono}"
    return (-1 if n < 0 else 1, body)


def text_oracle(f):
    """The canonical text of f, each term's monomial and coefficient rendered on its own."""
    pieces = []
    try:
        descending = sorted(f.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        for mono, coeff in descending:
            factors = [
                name if e == 1 else f"{name}^{e}" for name, e in zip(f.context.variables, mono) if e
            ]
            pieces.append(_term_text_oracle(coeff, "*".join(factors)))
    except ValueError:  # str() of an integer past sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise CoefficientError(f"a number has too many digits to print (limit {limit})") from None
    out = "".join((" + " if sign > 0 else " - ") + body for sign, body in pieces)
    if not out:
        return "0"
    return out[3:] if out[1] == "+" else "-" + out[3:]


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


#: The token classes of ``parseio._TOKEN_RE``, with '\n' a class of its own
#: so that the lexer counts lines as it goes.
_TOKEN_RE = re.compile(
    r"(?P<newline>\n)|(?P<int>[0-9]+)"
    rf"|(?P<cyclo>{NAME_PATTERN}@[0-9]*)|(?P<ident>{NAME_PATTERN})"
    r"|(?P<op>[-+*/^()])|(?P<other>\S)"
)


def _integer_oracle(digits, line, column):
    if len(digits) > parseio.MAX_DIGITS:
        raise ParseError(
            f"integer literal of {len(digits)} digits exceeds the limit of {parseio.MAX_DIGITS}",
            line,
            column,
        )
    return int(digits)


def _lex_oracle(text):
    """The tokens of ``text``, one ``_Token`` each, made as they are asked for.

    Lines are counted at each '\n' and columns from the line's start, where
    the library works both out from an offset only when it raises.  A
    lexical error is raised when its token is reached, so the parser's
    errors come left to right.
    """
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
        kind, value = match.lastgroup, match.group()
        column = match.start() - line_start + 1
        if kind == "op":
            yield _Token(value, value, line, column)
        elif kind == "ident":
            yield _Token("ident", value, line, column)
        elif kind == "int":
            yield _Token("int", _integer_oracle(value, line, column), line, column)
        elif kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "cyclo":
            name, _, digits = value.partition("@")
            at = column + len(name)
            if name != "z":
                raise ParseError(f"unexpected '@' after {name!r}", line, at)
            if not digits:
                raise ParseError("expected a prime after 'z@'", line, at + 1)
            yield _Token("cyclo", _integer_oracle(digits, line, at + 1), line, column)
        else:
            raise ParseError(f"unexpected character {value!r}", line, column)
    yield _Token("end", None, line, len(text) - line_start + 1)


class _ParserOracle:
    """The expression parser on ``Polynomial`` values: every sum, product,
    negation and power is a ``Polynomial`` operation, and ``z@p^k`` is a
    square-and-multiply.  The limits are checked at the library's points.
    It reads a token from ``tokens`` only when it looks at it."""

    def __init__(self, tokens, context):
        self.tokens = tokens
        self.current = None  # the token looked at and not yet taken
        self.context = context
        self.depth = 0

    def peek(self):
        if self.current is None:
            self.current = next(self.tokens)
        return self.current

    def take(self):
        tok = self.peek()
        self.current = None
        return tok

    def fail(self, message, token=None):
        token = token or self.peek()
        raise ParseError(message, token.line, token.column)

    def nested(self, parse):
        tok = self.take()
        self.depth += 1
        if self.depth > parseio._MAX_NESTING:
            self.fail("expression nested too deeply", tok)
        value = parse()
        self.depth -= 1
        return value

    def check_constants(self, value, token, monomials=None):
        terms = value.terms
        for mono in terms if monomials is None else monomials:
            c = terms.get(mono)
            limit = parseio._CONSTANT_LIMIT
            if c is not None and any(abs(n) >= limit for n in stored_integers(c)):
                self.refuse_constant(token)

    def refuse_constant(self, token):
        self.fail(f"a constant of more than {parseio.MAX_DIGITS} digits exceeds the limit", token)

    def refuse_terms(self, token):
        limit = parseio.MAX_TERMS
        message = f"a product or power that could have more than {limit} terms exceeds the limit"
        self.fail(message, token)

    def parse(self):
        value = self.expr()
        if self.peek().kind != "end":
            self.fail(f"unexpected {self.peek().value!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            tok = self.peek()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
            self.check_constants(value, tok, rhs.terms)
        return value

    def term(self):
        value = self.factor()
        while True:
            kind = self.peek().kind
            if kind == "*":
                self.take()
            elif kind not in parseio._ATOM_STARTS:
                return value
            tok = self.peek()
            rhs = self.factor()
            if len(value.terms) * len(rhs.terms) > parseio.MAX_TERMS:
                self.refuse_terms(tok)
            value = value * rhs
            self.check_constants(value, tok)

    def factor(self):
        if self.peek().kind == "-":
            return -self.nested(self.factor)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.take()
            tok = self.peek()
            if tok.kind != "int":
                self.fail("malformed exponent: expected a non-negative integer")
            if tok.value > parseio.MAX_EXPONENT:
                self.fail(f"exponent {tok.value} exceeds the limit {parseio.MAX_EXPONENT}", tok)
            self.take()
            base = self.power_of(base, tok)
            if self.peek().kind == "^":
                self.fail("malformed exponent: chained '^' is not allowed")
        return base

    def power_of(self, base, tok):
        e = tok.value
        t = len(base.terms)
        if t > 1 and math.comb(t + e - 1, e) > parseio.MAX_TERMS:
            self.refuse_terms(tok)
        for mono in (min(base.terms), max(base.terms)) if base.terms else ():
            c = base.terms[mono]
            bits = max(abs(c.numerator), c.denominator).bit_length() if isinstance(c, Fraction) else 0
            if e * (bits - 1) >= parseio._CONSTANT_LIMIT_BITS:
                self.refuse_constant(tok)
        power = base**e
        self.check_constants(power, tok)
        return power

    def atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            value = Fraction(tok.value)
            if self.peek().kind == "/":
                self.take()
                denom = self.peek()
                if denom.kind != "int":
                    self.fail("expected an integer denominator")
                self.take()
                if denom.value == 0:
                    self.fail("zero denominator", denom)
                value = Fraction(tok.value, denom.value)
            return Polynomial.constant(self.context, value)
        if tok.kind == "ident":
            self.take()
            try:
                return Polynomial.variable(self.context, tok.value)
            except ContextError:
                self.fail(f"unknown identifier {tok.value!r}", tok)
        if tok.kind == "cyclo":
            self.take()
            field = self.context.field
            if not isinstance(field, CyclotomicField) or field.p != tok.value:
                self.fail(
                    f"field constant z@{tok.value} is not available in {field.text}",
                    tok,
                )
            return Polynomial.constant(self.context, root_of_unity(tok.value, 1))
        if tok.kind == "(":
            value = self.nested(self.expr)
            if self.peek().kind != ")":
                self.fail("expected ')'")
            self.take()
            return value
        self.fail("expected a number, variable, or '('")


def parse_oracle(text, context):
    """``parse_expression`` through ``Polynomial`` arithmetic, on the oracle's own tokens."""
    return _ParserOracle(_lex_oracle(text), context).parse()


def brute_force_product(factors):
    """Expand a product of polynomials by enumerating every cross term."""
    context = factors[0].context
    terms = {}
    for combo in iter_product(*[list(f.terms.items()) for f in factors]):
        mono = tuple(sum(parts) for parts in zip(*[m for m, _ in combo]))
        coeff = combo[0][1]
        for _, c in combo[1:]:
            coeff = coeff * c
        terms[mono] = terms.get(mono, context.field.zero) + coeff
    return Polynomial(context, {m: c for m, c in terms.items() if c})


def _merge_oracle(out, mono, coeff):
    """Add coeff into out[mono]: a zero adds nothing, and a sum that cancels is dropped."""
    prev = out.get(mono)
    if prev is None:
        if coeff:
            out[mono] = coeff
    else:
        val = prev + coeff
        if val:
            out[mono] = val
        else:
            del out[mono]


def add_oracle(f, g):
    """f + g: a copy of f's terms, with g's merged in one at a time."""
    out = dict(f.terms)
    for mono, coeff in g.terms.items():
        _merge_oracle(out, mono, coeff)
    return Polynomial._raw(f.context, out)


def sub_oracle(f, g):
    """f - g: a copy of f's terms, with g's subtracted one at a time."""
    out = dict(f.terms)
    for mono, coeff in g.terms.items():
        prev = out.get(mono)
        if prev is None:
            out[mono] = -coeff
        else:
            val = prev - coeff
            if val:
                out[mono] = val
            else:
                del out[mono]
    return Polynomial._raw(f.context, out)


def mul_oracle(f, g):
    """f * g: every term pair merged in row order, a zero product skipped."""
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            _merge_oracle(out, tuple(map(add, m1, m2)), c1 * c2)
    return Polynomial._raw(f.context, out)


def diff_oracle(f, name):
    """The partial derivative of f, merging terms whose lowered monomials meet."""
    i = f.context.index(name)
    out = {}
    for mono, coeff in f.terms.items():
        e = mono[i]
        if e:
            _merge_oracle(out, mono[:i] + (e - 1,) + mono[i + 1:], coeff * e)
    return Polynomial._raw(f.context, out)


def convert_oracle(f, into, root=None):
    """f mapped into another context by names, every coefficient coerced."""
    src = f.context
    targets = [into.index(n) if n in into.variables else None for n in src.variables]
    root_index, scale = None, Fraction(1)
    if root is not None:
        var, new_var, scale = root
        root_index = src.index(var)
        targets[root_index] = into.index(new_var)
    out = {}
    for mono, coeff in f.terms.items():
        exps = [0] * into.nvars
        for i, e in enumerate(mono):
            if e:
                if i == root_index:
                    e = e * scale
                    assert e.denominator == 1, "exponent does not collapse"
                exps[targets[i]] += int(e)
        _merge_oracle(out, tuple(exps), into.field.coerce(coeff))
    return Polynomial._raw(into, out)


def substitution_oracle(f, bindings, target):
    """The image of f under a substitution: each term's power products, summed one by one."""
    result = Polynomial.zero(target)
    for mono, coeff in f.terms.items():
        term = Polynomial.constant(target, coeff)
        for name, e in zip(f.context.variables, mono):
            if e:
                image = bindings.get(name, Polynomial.variable(target, name))
                power = Polynomial.one(target)
                for _ in range(e):
                    power = mul_oracle(power, image)
                term = mul_oracle(term, power)
        result = add_oracle(result, term)
    return result


def leibniz_oracle(derivation, f):
    """sum over the variables of (df/dv) * D(v), added one product at a time."""
    out = Polynomial.zero(derivation.algebra.context)
    for name in derivation.algebra.variables:
        rep = derivation.images[name].rep
        if rep.terms:
            df = diff_oracle(f, name)
            if df.terms:
                out = add_oracle(out, mul_oracle(df, rep))
    return out


def orbit_oracle(derivation, name, bound):
    """x, D x, ..., D^bound x for the generator x, D applied at every step from x's normal form.

    The orbit ends at the first zero, as ``derivation._orbit`` does.
    """
    element = derivation.algebra.variable(name)
    orbit = [element]
    for _ in range(bound):
        element = derivation.apply(element)
        if not element:
            break
        orbit.append(element)
    return orbit


def s_polynomial_oracle(f, g, order):
    """The S-polynomial of f and g: both lead coefficients are 1 after scaling."""
    keyf = order.key_for(f.context)
    lead_f, lead_g = max(f.terms, key=keyf), max(g.terms, key=keyf)
    lcm = tuple(map(max, lead_f, lead_g))
    shift_f, shift_g = tuple(map(sub, lcm, lead_f)), tuple(map(sub, lcm, lead_g))
    inv_f, inv_g = 1 / f.terms[lead_f], 1 / g.terms[lead_g]
    out = {tuple(map(add, m, shift_f)): c * inv_f for m, c in f.terms.items()}
    for m, c in g.terms.items():
        _merge_oracle(out, tuple(map(add, m, shift_g)), -(c * inv_g))
    return Polynomial._raw(f.context, out)


def root_products_oracle(factors):
    """factors[1]*...*factors[-1], and factors[0] times it, by ``Polynomial.__mul__``.

    One coefficient object per term pair, against the library's packed
    rotations in Z[t]/(t^p - 1).
    """
    tail = Polynomial.one(factors[0].context)
    for factor in factors[1:]:
        tail = tail * factor
    return tail, factors[0] * tail


def reduce_terms_oracle(terms, reducers, keyf):
    """The remainder of a term dict against a list of ``groebner._Reducer``s.

    Every term, and every term a reduction creates, gets an order key and
    a heap entry; the largest is popped, and the first reducer whose lead
    divides it (tested at the pop) cancels it, or it moves to the
    remainder.  The library tests and keys only the reducible terms.
    """
    work = dict(terms)
    heap = [(tuple(map(neg, keyf(m))), m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        _, mono = heapq.heappop(heap)
        coeff = work.pop(mono, None)
        if coeff is None:
            continue
        reducer = next((g for g in reducers if all(map(le, g.lm, mono))), None)
        if reducer is None:
            remainder[mono] = coeff
            continue
        shift = tuple(map(sub, mono, reducer.lm))
        for mg, cg in reducer.tail:
            t = tuple(map(add, mg, shift))
            prev = work.get(t)
            if prev is None:
                work[t] = -coeff * cg
                heapq.heappush(heap, (tuple(map(neg, keyf(t))), t))
            else:
                val = prev - coeff * cg
                if val:
                    work[t] = val
                else:
                    del work[t]
    return remainder


def lift_oracle(certificate, target, root=None):
    """The lift of a certified D to ``target``, checked relation by relation.

    Each source image goes through ``Polynomial.convert`` with ``root``,
    each other variable of the target gets image 0, and ``new_derivation``
    expands and reduces the Leibniz image of every relation of the target,
    where the library transports the source's witnesses.  Returns the
    derivation and the orders the lift should report.
    """
    context = target.context
    images = dict.fromkeys(context.variables, Polynomial.zero(context))
    orders = dict.fromkeys(context.variables, 0)
    for name, image in certificate.derivation.images.items():
        lifted = root[1] if root and name == root[0] else name
        images[lifted] = image.rep.convert(context, root)
        orders[lifted] = certificate.orders[name]
    return new_derivation(target, images), orders


def assert_lift_matches_oracle(lifted, certificate, target, root=None):
    """``lifted`` (a lift's certificate) against ``lift_oracle`` on ``target``."""
    derivation, orders = lift_oracle(certificate, target, root)
    assert lifted.derivation.algebra.same_presentation(target)
    assert lifted.derivation.well_defined.to_json() == derivation.well_defined.to_json()
    assert lifted.derivation.well_defined.checks == derivation.well_defined.checks
    assert list(lifted.derivation.images) == list(derivation.images)
    assert lifted.derivation == derivation
    assert dict(lifted.orders) == orders
    assert lifted.cap == certificate.cap


def yp_weight_row(p):
    """The weights x_j -> 2, z -> p, y -> 0, w -> 0, in the order of Yp's variables."""
    weights = {name: 2 for name in x_names(p)}
    weights.update({"y": 0, "z": p, "w": 0})
    return tuple(weights[name] for name in yp_context(p).variables)


def random_fraction(rng, span=6):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_scalar(rng, field, span=6):
    if isinstance(field, CyclotomicField):
        return CyclotomicNumber(
            field.p, [random_fraction(rng, span) for _ in range(field.p - 1)]
        )
    return random_fraction(rng, span)


def random_polynomial(rng, context, max_terms=4, max_exp=3, span=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(context.nvars))
        terms[mono] = random_scalar(rng, context.field, span)
    return Polynomial(context, terms)


def nonzero_random_polynomial(rng, context, **kwargs):
    while True:
        f = random_polynomial(rng, context, **kwargs)
        if f.terms:
            return f


QXY = Context(QQ, ("x", "y"))


def homogeneous_degree_oracle(derivation, grading):
    """The shift of a homogeneous derivation, found row by row, or None.

    Reads each image's weighted components itself instead of going through
    ``Grading.degree``.  On a grading with no rows it gives () even for the
    zero derivation, where the library gives None.
    """
    result = []
    for weights in grading.matrix:
        shift = None
        for i, name in enumerate(derivation.algebra.variables):
            rep = derivation.images[name].rep
            if not rep.terms:
                continue
            comps = rep.weighted_components(weights)
            if len(comps) != 1:
                return None
            this = next(iter(comps)) - weights[i]
            if shift is None:
                shift = this
            elif shift != this:
                return None
        if shift is None:
            return None
        result.append(shift)
    return tuple(result)


def refuse_large_powers(monkeypatch):
    """Fail the test if a power past the parser's limits is computed.

    The limits are the exponent (``MAX_EXPONENT``) and, for a base of t > 1
    terms, the C(t+n-1, n) terms its n-th power can have (``MAX_TERMS``).
    The parser raises every base, of one term or several, by
    ``Polynomial.__pow__``, which is guarded.
    """
    from suspensia.parseio import MAX_EXPONENT, MAX_TERMS

    real_pow = Polynomial.__pow__

    def guarded(self, n):
        assert n <= MAX_EXPONENT, f"power {n} computed"
        t = len(self.terms)
        assert t < 2 or math.comb(t + n - 1, n) <= MAX_TERMS, f"power {n} of {t} terms computed"
        return real_pow(self, n)

    monkeypatch.setattr(Polynomial, "__pow__", guarded)


class BudgetExceeded(Exception):
    """Raised into the computation when its wall-clock budget runs out."""


@contextmanager
def wall_clock_budget(seconds):
    """Fail once ``seconds`` of wall time have passed, rather than hang.

    A timer signal interrupts the computation in the main thread, so a
    regression that would run for minutes fails at the budget; the elapsed
    time is asserted too, for platforms without SIGALRM.
    """

    def expire(signum, frame):
        raise BudgetExceeded(f"wall-clock budget of {seconds} s exceeded")

    timed = hasattr(signal, "SIGALRM")
    if timed:
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.perf_counter()
    try:
        yield
    finally:
        if timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f} s, budget {seconds} s"
