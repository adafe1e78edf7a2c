"""Expression parsing and the JSON description-file layer.

Grammar (standard precedence, unary minus binding looser than powers):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' factor) | factor)*      -- '*' is optional
    factor := '-' factor | power
    power  := atom ('^' INTEGER)?
    atom   := INTEGER ('/' INTEGER)? | IDENT | 'z@p' | '(' expr ')'

INTEGER is ASCII digits ``0-9`` and IDENT is ``[A-Za-z_][A-Za-z0-9_]*``
(``poly.NAME_PATTERN``, the pattern variable names obey).  Identifiers are
ring variables; ``z@p`` is the field constant of Q(z@p) and is rejected as a
ring variable name.  Whitespace separates tokens; any other character, a
Unicode digit such as '²' included, is an error.  Errors carry 1-based
line/column.  Values are built by ``Polynomial``'s own operators; the one
term dict the parser keeps is a sum's running total (``_Parser``).

Description files are JSON objects with keys ``field``, ``variables``,
``relations`` and optional ``gradings`` (name -> weight matrix) and
``derivations`` (name -> variable -> expression).  The canonical dump is
byte-stable: sorted keys, two-space indent, LF endings.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

from .algebra import PresentedAlgebra
from .coeff import CyclotomicField, _root, field_from_text
from .coeff import stored_integers
from .derivation import Derivation, new_derivation
from .poly import NAME_PATTERN, Context, ContextError, Polynomial, _accumulate


class ParseError(ValueError):
    """A lexical or syntactic defect, located by line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SchemaError(ValueError):
    """A description file violating the expected JSON shape."""


# ----------------------------------------------------------------------
# lexer

#: Longest integer literal, in digits.  Longer literals are refused before
#: they are converted, which keeps every literal, and its square, under the
#: 4300 digits that Python will convert to and from text.
MAX_DIGITS = 1000

#: Every integer in a parsed constant, a numerator or a denominator, stays
#: below 10**MAX_DIGITS.  A sum, product or power that makes one larger is
#: refused, by comparing sizes, never by converting to text, and as soon as
#: it is computed, so ``9^1000*9^1000*...`` stops at its second factor and
#: a value of ``--t`` and its square stay printable.
_CONSTANT_LIMIT = 10**MAX_DIGITS
_CONSTANT_LIMIT_BITS = _CONSTANT_LIMIT.bit_length()

#: Largest exponent after '^'.  The largest exponent in the family
#: artifacts is n(p-1): 84 for p=7, n=14 and 220 for p=11, n=22.  A larger
#: exponent is refused before any power is computed, so ``2^100000000``
#: costs no time and no memory.
MAX_EXPONENT = 1000

#: Most terms a parsed product or power may have, refused before it is
#: computed: ``(x0+x1+x2+y+z+w)^1000`` would have about 8*10^12.  A
#: product a*b is bounded by its term pairs and a power of t > 1 terms by
#: the C(t+e-1, e) monomials of degree e in t variables.  Sums are not
#: bounded: the text bounds them.  Every family artifact relation is a sum
#: of products of one-term factors.
MAX_TERMS = 10_000


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


#: One alternative per token class, tried in order.  The search skips
#: whitespace other than '\n', which starts a new line; any other character
#: that no token class takes is an error.
_TOKEN_RE = re.compile(
    r"(?P<newline>\n)|(?P<int>[0-9]+)"
    rf"|(?P<cyclo>{NAME_PATTERN}@[0-9]*)|(?P<ident>{NAME_PATTERN})"
    r"|(?P<op>[-+*/^()])|(?P<other>\S)"
)


def _integer(digits: str, line: int, column: int) -> int:
    if len(digits) > MAX_DIGITS:
        raise ParseError(
            f"integer literal of {len(digits)} digits exceeds the limit of {MAX_DIGITS}",
            line,
            column,
        )
    return int(digits)


def _lex(text: str):
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
        kind, value = match.lastgroup, match.group()
        column = match.start() - line_start + 1
        if kind == "op":
            tokens.append(_Token(value, value, line, column))
        elif kind == "ident":
            tokens.append(_Token("ident", value, line, column))
        elif kind == "int":
            tokens.append(_Token("int", _integer(value, line, column), line, column))
        elif kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "cyclo":
            name, _, digits = value.partition("@")
            at = column + len(name)
            if name != "z":
                raise ParseError(f"unexpected '@' after {name!r}", line, at)
            if not digits:
                raise ParseError("expected a prime after 'z@'", line, at + 1)
            tokens.append(_Token("cyclo", _integer(digits, line, at + 1), line, column))
        else:
            raise ParseError(f"unexpected character {value!r}", line, column)
    tokens.append(_Token("end", None, line, len(text) - line_start + 1))
    return tokens


# ----------------------------------------------------------------------
# parser

_ATOM_STARTS = {"int", "ident", "cyclo", "("}


# Deepest nesting of '(' and unary '-' accepted: the parser recurses once per
# level, so deeper input is refused before it exhausts the interpreter stack.
_MAX_NESTING = 100


class _Parser:
    """A recursive-descent parser whose values are polynomials.

    Atoms are ``Polynomial.constant`` and ``.variable`` values combined by
    ``-``, ``*`` and ``**``.  The one term dict it owns is an ``expr``'s
    running sum, merged in place through ``poly._accumulate`` and wrapped once.
    """

    def __init__(self, tokens, context: Context):
        self.tokens = tokens
        self.pos = 0
        self.context = context
        self.depth = 0
        self.variables = {}  # name -> its Polynomial, filled as names appear

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, token: _Token | None = None):
        token = token or self.peek()
        raise ParseError(message, token.line, token.column)

    def nested(self, parse):
        """Take the token opening one nesting level, then parse its body."""
        tok = self.take()
        self.depth += 1
        if self.depth > _MAX_NESTING:
            self.fail("expression nested too deeply", tok)
        value = parse()
        self.depth -= 1
        return value

    def check_constants(self, coefficients, token: _Token):
        """Refuse the coefficients if one is too large."""
        for c in coefficients:
            ints = stored_integers(c)
            if max(ints) >= _CONSTANT_LIMIT or -min(ints) >= _CONSTANT_LIMIT:
                self.refuse_constant(token)

    def refuse_constant(self, token: _Token):
        self.fail(f"a constant of more than {MAX_DIGITS} digits exceeds the limit", token)

    def refuse_terms(self, token: _Token):
        self.fail(
            f"a product or power that could have more than {MAX_TERMS} terms exceeds the limit",
            token,
        )

    def parse(self) -> Polynomial:
        value = self.expr()
        if self.peek().kind != "end":
            self.fail(f"unexpected {self.peek().value!r}")
        return value

    def expr(self) -> Polynomial:
        value = self.term()
        if self.peek().kind not in ("+", "-"):
            return value
        out = _accumulate({}, value.terms.items())
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            tok = self.peek()
            rhs = self.term().terms
            _accumulate(out, rhs.items() if op == "+" else ((m, -c) for m, c in rhs.items()))
            # only the coefficients at rhs's monomials changed; a cancelled one is gone
            self.check_constants(filter(None, map(out.get, rhs)), tok)
        return Polynomial._raw(self.context, out)

    def term(self) -> Polynomial:
        value = self.factor()
        while True:
            kind = self.peek().kind
            if kind == "*":
                self.take()
            elif kind not in _ATOM_STARTS:
                return value
            tok = self.peek()
            rhs = self.factor()
            if len(value.terms) * len(rhs.terms) > MAX_TERMS:
                self.refuse_terms(tok)
            value = value * rhs
            self.check_constants(value.terms.values(), tok)

    def factor(self) -> Polynomial:
        if self.peek().kind == "-":
            return -self.nested(self.factor)
        return self.power()

    def power(self) -> Polynomial:
        """An atom, or atom ** e with its term count and constants checked first.

        A base of t > 1 terms is refused if base**e could have more than
        ``MAX_TERMS`` terms.  Under any monomial order the extreme terms of
        base**e are those of base to the e, with coefficients c**e, and
        |c**e| >= 2**(e*(bits(c) - 1)), so a rational c there shows a power
        too large before it is computed; the power is checked after.
        """
        base = self.atom()
        if self.peek().kind != "^":
            return base
        self.take()
        tok = self.peek()
        if tok.kind != "int":
            self.fail("malformed exponent: expected a non-negative integer")
        e = tok.value
        if e > MAX_EXPONENT:
            self.fail(f"exponent {e} exceeds the limit {MAX_EXPONENT}", tok)
        self.take()
        terms = base.terms
        if len(terms) > 1 and math.comb(len(terms) + e - 1, e) > MAX_TERMS:
            self.refuse_terms(tok)
        for c in map(terms.get, (min(terms), max(terms))) if terms else ():
            bits = max(abs(c.numerator), c.denominator).bit_length() if isinstance(c, Fraction) else 0
            if e * (bits - 1) >= _CONSTANT_LIMIT_BITS:
                self.refuse_constant(tok)
        power = base**e
        self.check_constants(power.terms.values(), tok)
        if self.peek().kind == "^":
            self.fail("malformed exponent: chained '^' is not allowed")
        return power

    def atom(self) -> Polynomial:
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
            variable = self.variables.get(tok.value)
            if variable is None:
                try:
                    variable = Polynomial.variable(self.context, tok.value)
                except ContextError:
                    self.fail(f"unknown identifier {tok.value!r}", tok)
                self.variables[tok.value] = variable
            return variable
        if tok.kind == "cyclo":
            self.take()
            field = self.context.field
            if not isinstance(field, CyclotomicField) or field.p != tok.value:
                self.fail(
                    f"field constant z@{tok.value} is not available in {field.text}",
                    tok,
                )
            return Polynomial.constant(self.context, _root(tok.value, 1))
        if tok.kind == "(":
            value = self.nested(self.expr)
            if self.peek().kind != ")":
                self.fail("expected ')'")
            self.take()
            return value
        self.fail("expected a number, variable, or '('")


def parse_expression(text: str, context: Context) -> Polynomial:
    """Parse the canonical text form in the given variable/field context."""
    return _Parser(_lex(text), context).parse()


# ----------------------------------------------------------------------
# description files

_ALGEBRA_KEYS = {"field", "variables", "relations", "gradings", "derivations"}
_DERIVATION_KEYS = {"algebra", "images"}


def _expect(condition: bool, message: str):
    if not condition:
        raise SchemaError(message)


def algebra_from_data(data: dict) -> PresentedAlgebra:
    """Build an algebra (with attached gradings) from decoded JSON data."""
    _expect(isinstance(data, dict), "top level must be a JSON object")
    unknown = set(data) - _ALGEBRA_KEYS
    _expect(not unknown, f"unknown keys {sorted(unknown)}")
    for key in ("field", "variables", "relations"):
        _expect(key in data, f"missing required key {key!r}")
    _expect(isinstance(data["field"], str), "'field' must be a string")
    try:
        field = field_from_text(data["field"])
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    variables = data["variables"]
    _expect(
        isinstance(variables, list) and all(isinstance(v, str) for v in variables),
        "'variables' must be a list of names",
    )
    try:
        context = Context(field, tuple(variables))
    except ContextError as exc:
        raise SchemaError(f"bad variable list: {exc}") from None
    relations = data["relations"]
    _expect(
        isinstance(relations, list) and all(isinstance(r, str) for r in relations),
        "'relations' must be a list of expression strings",
    )
    parsed = [parse_expression(r, context) for r in relations]
    gradings = data.get("gradings", {})
    _expect(isinstance(gradings, dict), "'gradings' must be an object")
    for name, matrix in gradings.items():
        _expect(
            isinstance(matrix, list)
            and all(isinstance(row, list) and len(row) == len(variables) for row in matrix)
            and all(type(w) is int for row in matrix for w in row),  # bool is not a weight
            f"grading {name!r} must be a list of integer rows of length {len(variables)}",
        )
    algebra = PresentedAlgebra(context, parsed, gradings=gradings)
    derivations = data.get("derivations", {})
    _expect(isinstance(derivations, dict), "'derivations' must be an object")
    for name, images in derivations.items():
        _expect(isinstance(images, dict), f"derivation {name!r} must map variables to expressions")
    return algebra


def derivation_from_data(images: dict, algebra: PresentedAlgebra) -> Derivation:
    """Build (and certify) a derivation from a name -> expression map."""
    _expect(
        isinstance(images, dict)
        and all(isinstance(k, str) and isinstance(v, str) for k, v in images.items()),
        "derivation images must map variable names to expression strings",
    )
    parsed = {
        name: parse_expression(expr, algebra.context) for name, expr in images.items()
    }
    return new_derivation(algebra, parsed)


def read_json(path) -> dict:
    """Read a JSON file, converting decode errors to located ParseErrors.

    Nesting deep enough to exhaust the decoder's recursion, and an integer
    too long for the interpreter to convert, are reported at the start of
    the file.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"invalid UTF-8: {exc.reason}",
            data.count(b"\n", 0, exc.start) + 1,
            exc.start - line_start + 1,
        ) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", 1, 1) from None
    except ValueError:
        # the only other ValueError json raises: an integer too long for the
        # interpreter's text conversion
        raise ParseError("invalid JSON: integer too long to convert", 1, 1) from None


def load_algebra(path) -> PresentedAlgebra:
    """Load an algebra description file."""
    return algebra_from_data(read_json(path))


def load_derivation(path, name: str | None = None) -> Derivation:
    """Load a derivation, either standalone ('images' + algebra reference)
    or embedded under 'derivations' in an algebra file."""
    data = read_json(path)
    _expect(isinstance(data, dict), "top level must be a JSON object")
    if "images" in data:
        unknown = set(data) - _DERIVATION_KEYS
        _expect(not unknown, f"unknown keys {sorted(unknown)}")
        _expect(
            name is None, f"no derivation named {name!r}: the file holds one unnamed derivation"
        )
        _expect(
            isinstance(data.get("algebra"), str),
            "standalone derivation files need an 'algebra' path",
        )
        algebra = load_algebra(Path(path).parent / data["algebra"])
        return derivation_from_data(data["images"], algebra)
    if "derivations" in data:
        algebra = algebra_from_data(data)
        table = data["derivations"]
        _expect(isinstance(table, dict) and table, "no derivations in file")
        if name is None:
            _expect(len(table) == 1, "several derivations present; pick one by name")
            name = next(iter(table))
        _expect(name in table, f"no derivation named {name!r}")
        return derivation_from_data(table[name], algebra)
    raise SchemaError("file contains neither 'images' nor 'derivations'")


def algebra_to_data(algebra: PresentedAlgebra, derivations: dict | None = None) -> dict:
    """Serialize an algebra (with its gradings and optional derivations)."""
    data = {
        "field": algebra.field.text,
        "variables": list(algebra.variables),
        "relations": [r.text() for r in algebra.relations],
    }
    if algebra.gradings:
        data["gradings"] = {
            name: [list(row) for row in grading.matrix]
            for name, grading in algebra.gradings.items()
        }
    if derivations:
        data["derivations"] = {
            name: {v: d.images[v].rep.text() for v in d.algebra.variables}
            for name, d in derivations.items()
        }
    return data


def derivation_to_data(derivation: Derivation) -> dict:
    """The images of a standalone derivation file; the file's writer adds its 'algebra' path."""
    return {
        "images": {
            name: derivation.images[name].rep.text()
            for name in derivation.algebra.variables
        }
    }


def dump_canonical(data) -> str:
    """Byte-stable JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def save_json(path, data):
    Path(path).write_text(dump_canonical(data), encoding="utf-8", newline="\n")


def algebra_from_strings(field, variables, relations) -> PresentedAlgebra:
    """Convenience constructor: relations given in canonical text form."""
    context = Context(field, tuple(variables))
    return PresentedAlgebra(context, [parse_expression(r, context) for r in relations])
