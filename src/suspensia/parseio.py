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
Unicode digit such as '²' included, is an error.  The text is read in one
pass, and of several errors the first, reading left to right, is raised,
with its 1-based line/column.  A term is one running term while its
factors have one term each, and only a factor of several terms goes
through ``Polynomial``'s operators; the one term dict the parser keeps is
a sum's running total (``_Parser``).

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
from .poly import NAME_PATTERN, Context, ContextError, Polynomial, _accumulate, _monomial


class ParseError(ValueError):
    """A lexical or syntactic defect, located by line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SchemaError(ValueError):
    """A description file violating the expected JSON shape."""


# ----------------------------------------------------------------------
# parser

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


#: One alternative per token class, tried in order.  The search skips
#: whitespace, '\n' included; any other character that no token class
#: takes is an error.
_TOKEN_RE = re.compile(
    r"(?P<int>[0-9]+)"
    rf"|(?P<cyclo>{NAME_PATTERN}@[0-9]*)|(?P<ident>{NAME_PATTERN})"
    r"|(?P<op>[-+*/^()])|(?P<other>\S)"
)

_ATOM_STARTS = {"int", "ident", "cyclo", "("}


# Deepest nesting of '(' and unary '-' accepted: the parser recurses once per
# level, so deeper input is refused before it exhausts the interpreter stack.
_MAX_NESTING = 100


class _Parser:
    """A recursive-descent parser that reads its text in one pass.

    It holds only the current token's kind, value and offset, and checks each
    token before it reads the next, so of several errors the first, left to
    right, is raised; its line and column are worked out from the offset then.

    A term is one running term, its exponents in a list and one coefficient,
    while its factors have one term each; it becomes a ``Polynomial`` once,
    when it ends, and ``Polynomial`` ``*`` runs only from the first factor
    of several terms on.  An ``expr``'s running sum is one term dict, merged
    in place through ``poly._accumulate`` and wrapped once.  Each distinct
    atom is built once per parse, and so is each parenthesized constant with
    no '(' inside: a later copy of its text takes the first one's value.
    """

    def __init__(self, text: str, context: Context):
        self.text = text
        self.matches = _TOKEN_RE.finditer(text)
        self.context = context
        self.one = context.field.one
        self.depth = 0
        self.atoms = {}  # (kind, value) -> a variable's index or a number's coefficient
        self.constants = {}  # "(...)" -> (its coefficient, the nesting it takes)
        self.advance()

    def advance(self):
        """Read the next token into ``kind``, ``value`` and ``start``."""
        match = next(self.matches, None)
        if match is None:
            self.kind, self.value, self.start = "end", None, len(self.text)
            return
        kind, value, start = match.lastgroup, match.group(), match.start()
        if kind == "op":
            kind = value
        elif kind == "int":
            value = self.integer(value, start)
        elif kind == "cyclo":
            name, _, digits = value.partition("@")
            at = start + len(name)
            if name != "z":
                self.fail(f"unexpected '@' after {name!r}", at)
            if not digits:
                self.fail("expected a prime after 'z@'", at + 1)
            value = self.integer(digits, at + 1)
        elif kind == "other":
            self.fail(f"unexpected character {value!r}", start)
        self.kind, self.value, self.start = kind, value, start

    def integer(self, digits: str, start: int) -> int:
        if len(digits) > MAX_DIGITS:
            message = f"integer literal of {len(digits)} digits exceeds the limit of {MAX_DIGITS}"
            self.fail(message, start)
        return int(digits)

    def fail(self, message: str, start: int | None = None):
        """Raise at offset ``start`` of the text, by default the current token's."""
        start = self.start if start is None else start
        text = self.text
        raise ParseError(message, text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start))

    def nested(self, parse, *args):
        """Take the token opening one nesting level, then parse its body."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            self.fail("expression nested too deeply")
        self.advance()
        value = parse(*args)
        self.depth -= 1
        return value

    def check_constants(self, coefficients, start: int):
        """Refuse the coefficients if one is too large."""
        for c in coefficients:
            ints = stored_integers(c)
            if max(ints) >= _CONSTANT_LIMIT or -min(ints) >= _CONSTANT_LIMIT:
                self.refuse_constant(start)

    def refuse_constant(self, start: int | None = None):
        self.fail(f"a constant of more than {MAX_DIGITS} digits exceeds the limit", start)

    def refuse_terms(self, start: int | None = None):
        self.fail(
            f"a product or power that could have more than {MAX_TERMS} terms exceeds the limit",
            start,
        )

    def parse(self) -> Polynomial:
        value = self.expr()
        if self.kind != "end":
            self.fail(f"unexpected {self.value!r}")
        return value

    def expr(self) -> Polynomial:
        value = self.term()
        if self.kind not in ("+", "-"):
            return value
        out = _accumulate({}, value.terms.items())
        while self.kind in ("+", "-"):
            op = self.kind
            self.advance()
            start = self.start
            rhs = self.term().terms
            _accumulate(out, rhs.items() if op == "+" else ((m, -c) for m, c in rhs.items()))
            # only the coefficients at rhs's monomials changed; a cancelled one is gone
            self.check_constants(filter(None, map(out.get, rhs)), start)
        return Polynomial._raw(self.context, out)

    def term(self) -> Polynomial:
        """A product of factors, each checked as it is multiplied in.

        ``value`` is the running term's coefficient, its exponents in
        ``exps``, until a factor of several terms makes it a ``Polynomial``.
        """
        context = self.context
        exps = [0] * context.nvars
        value = self.factor(exps)
        while True:
            if self.kind == "*":
                self.advance()
            elif self.kind not in _ATOM_STARTS:
                return value if isinstance(value, Polynomial) else _monomial(context, exps, value)
            start = self.start
            if isinstance(value, Polynomial):
                shift = [0] * context.nvars
                rhs = self.factor(shift)
                if not isinstance(rhs, Polynomial):
                    rhs = _monomial(context, shift, rhs)
            else:
                rhs = self.factor(exps)
                if not isinstance(rhs, Polynomial):
                    if rhs is not self.one:
                        value = value * rhs
                        self.check_constants((value,), start)
                    continue
                value = _monomial(context, exps, value)
            if len(value.terms) * len(rhs.terms) > MAX_TERMS:
                self.refuse_terms(start)
            value = value * rhs
            self.check_constants(value.terms.values(), start)

    def factor(self, exps: list):
        """A signed factor: its coefficient, with its exponents added into
        ``exps``, or, for a factor of several terms, its ``Polynomial``."""
        if self.kind == "-":
            return -self.nested(self.factor, exps)
        return self.power(exps)

    def power(self, exps: list):
        """An atom, or atom ** e with its term count and constants checked first.

        A variable or a one-term value adds its exponents, times e, into
        ``exps``; the coefficient, or a value of several terms, is raised.
        A base of t > 1 terms is refused if base**e could have more than
        ``MAX_TERMS`` terms.  Under any monomial order the extreme terms of
        base**e are those of base to the e, with coefficients c**e, and
        |c**e| >= 2**(e*(bits(c) - 1)), so a rational c there shows a power
        too large before it is computed; the power is checked after.
        """
        base = self.atom()
        e = None
        if self.kind == "^":
            self.advance()
            if self.kind != "int":
                self.fail("malformed exponent: expected a non-negative integer")
            e = self.value
            if e > MAX_EXPONENT:
                self.fail(f"exponent {e} exceeds the limit {MAX_EXPONENT}")
        if isinstance(base, int):  # a variable's index
            exps[base] += 1 if e is None else e
            base = self.one
        else:
            if isinstance(base, Polynomial) and len(base.terms) == 1:
                (mono, base), = base.terms.items()
                for i, k in enumerate(mono):
                    exps[i] += k if e is None else k * e
            if e is not None:
                base = self.raised(base, e)
        if e is not None:
            self.advance()
            if self.kind == "^":
                self.fail("malformed exponent: chained '^' is not allowed")
        return base

    def raised(self, base, e: int):
        """A coefficient, or a Polynomial of several terms, to the power e; the
        current token is the exponent."""
        if isinstance(base, Polynomial):
            terms = base.terms
            if math.comb(len(terms) + e - 1, e) > MAX_TERMS:
                self.refuse_terms()
            extremes = map(terms.get, (min(terms), max(terms)))
        else:
            extremes = (base,)
        for c in extremes:
            rational = isinstance(c, Fraction) or c.is_rational()
            bits = max(map(abs, stored_integers(c))).bit_length() if rational else 0
            if e * (bits - 1) >= _CONSTANT_LIMIT_BITS:
                self.refuse_constant()
        power = base**e
        coefficients = power.terms.values() if isinstance(power, Polynomial) else (power,)
        self.check_constants(coefficients, self.start)
        return power

    def atom(self):
        """A variable's index, a number's coefficient, or a parenthesized value."""
        kind, value = self.kind, self.value
        if kind == "(":
            return self.parenthesized()
        if kind not in _ATOM_STARTS:
            self.fail("expected a number, variable, or '('")
        if kind == "int":
            self.advance()
            if self.kind != "/":
                return self.atom_of(kind, value)
            self.advance()
            if self.kind != "int":
                self.fail("expected an integer denominator")
            if self.value == 0:
                self.fail("zero denominator")
            kind, value = "/", (value, self.value)
        atom = self.atom_of(kind, value)
        self.advance()
        return atom

    def atom_of(self, kind: str, value):
        """The atom's value, built on its first use; an error is the current token's."""
        atom = self.atoms.get((kind, value))
        if atom is not None:
            return atom
        context = self.context
        if kind == "ident":
            try:
                atom = context.index(value)
            except ContextError:
                self.fail(f"unknown identifier {value!r}")
        elif kind == "cyclo":
            field = context.field
            if not isinstance(field, CyclotomicField) or field.p != value:
                self.fail(f"field constant z@{value} is not available in {field.text}")
            atom = _root(value, 1)
        else:
            atom = context.field.coerce(Fraction(*value) if kind == "/" else value)
        self.atoms[kind, value] = atom
        return atom

    def parenthesized(self):
        """'(' expr ')': a constant's coefficient, else its Polynomial.

        A constant whose text has no '(' inside is kept by its text, and a
        later copy of that text takes its value without being read again,
        unless the copy could nest past ``_MAX_NESTING``: '(' and each '-'
        in it may open a level.  Such a copy is read, and raises where the
        text does.
        """
        text, start = self.text, self.start
        key = text[start:text.find(")", start) + 1]
        known = self.constants.get(key)
        if known is not None and self.depth + known[1] <= _MAX_NESTING:
            self.matches = _TOKEN_RE.finditer(text, start + len(key))
            self.advance()
            return known[0]
        value = self.nested(self.expr)
        if self.kind != ")":
            self.fail("expected ')'")
        terms = value.terms
        if len(terms) < 2 and not any(next(iter(terms), ())):
            value = next(iter(terms.values()), self.context.field.zero)
            if self.start == start + len(key) - 1:  # the first ')' closes it
                self.constants[key] = (value, 1 + key.count("-"))
        self.advance()
        return value


def parse_expression(text: str, context: Context) -> Polynomial:
    """Parse the canonical text form in the given variable/field context."""
    return _Parser(text, context).parse()


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
    for name in algebra.variables:
        _expect(name in images, f"missing image for variable {name!r}")
    for name in images:
        _expect(name in algebra.variables, f"image given for unknown variable {name!r}")
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
