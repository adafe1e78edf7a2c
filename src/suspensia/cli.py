"""Command-line surface: validation, bases, certificates, suspensions.

Exit codes: 0 all checks passed / certificates certified; 1 a check failed
(the witness is printed); 2 a certification was inconclusive (cap reached);
3 malformed input (parse or schema error, with location when available,
or a variable name that is unknown, invalid or already taken) or a file
path that cannot be read or written.

Artifacts are canonical JSON (sorted keys, LF endings, no timestamps), so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import constructions, parseio, suspension
from .algebra import GradingError, PresentationError
from .coeff import CoefficientError
from .derivation import (
    DEFAULT_CAP,
    DerivationError,
    InconclusiveError,
    MorphismError,
    NotWellDefinedError,
    SizeLimitError,
    certificate_json,
    certify_lnd,
    decompose,
    exp,
    homogenize_lnd,
)
from .poly import ContextError, PowerCollapseError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3


class UsageError(ValueError):
    """Bad command-line arguments."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    """Argument type for --cap, --power and each --k entry: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="suspensia",
        description="Exact certificates for derivations on presented algebras.",
    )
    parser.add_argument(
        "--cap",
        type=_positive_int,
        default=DEFAULT_CAP,
        help=f"iteration cap for nilpotency certification (default {DEFAULT_CAP})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and check a description file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("groebner", help="print the reduced basis of an algebra")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_groebner)

    p = sub.add_parser("certify-derivation", help="certify a derivation as LND")
    p.add_argument("file")
    p.add_argument("--derivation", help="name when the file has several")
    p.add_argument("--out", help="write the certificate JSON here")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("decompose", help="split a derivation along a grading row")
    p.add_argument("file")
    p.add_argument("--derivation")
    p.add_argument("--grading", required=True)
    p.add_argument("--row", type=int, default=0)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("homogenize", help="extract a homogeneous LND")
    p.add_argument("file")
    p.add_argument("--derivation")
    p.add_argument("--grading", required=True)
    p.set_defaults(handler=_cmd_homogenize)

    p = sub.add_parser("suspend", help="build a suspension over an algebra")
    p.add_argument("file")
    p.add_argument("--f", required=True, help="suspension function (expression)")
    p.add_argument("--k", required=True, help="comma-separated positive exponents")
    p.add_argument("--names", help="comma-separated fresh variable names")
    p.add_argument("--out", help="directory for suspension.json / torus.json / criterion.json")
    p.set_defaults(handler=_cmd_suspend)

    p = sub.add_parser("torus", help="print the torus weights of a suspension")
    p.add_argument("file")
    p.add_argument("--f", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--names")
    p.set_defaults(handler=_cmd_torus)

    p = sub.add_parser("lift", help="lift a derivation along var = new^power")
    p.add_argument("file")
    p.add_argument("--derivation")
    p.add_argument("--var", required=True)
    p.add_argument("--new", required=True, dest="new_var")
    p.add_argument("--power", type=_positive_int, required=True)
    p.add_argument("--out", help="write the lifted algebra + derivation here")
    p.set_defaults(handler=_cmd_lift)

    p = sub.add_parser("build-yp", help="run the counterexample-family pipeline")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=".", help="output directory (default: cwd)")
    p.set_defaults(handler=_cmd_build_yp)

    p = sub.add_parser("exp", help="exponentiate a certified derivation")
    p.add_argument("file")
    p.add_argument("--derivation")
    p.add_argument("--t", default="1", help="scalar parameter (expression)")
    p.set_defaults(handler=_cmd_exp)

    return parser


def _cmd_validate(args) -> int:
    data = parseio.read_json(args.file)
    algebra = parseio.algebra_from_data(data)
    print(
        f"algebra ok: {len(algebra.variables)} variables, "
        f"{len(algebra.relations)} relations, basis size {len(algebra.basis.generators)}"
    )
    for name in sorted(algebra.gradings):
        print(f"grading {name!r} ok: {len(algebra.gradings[name].matrix)} rows")
    for name in sorted(data.get("derivations", {})):
        parseio.derivation_from_data(data["derivations"][name], algebra)
        print(f"derivation {name!r} ok: well defined")
    return EXIT_OK


def _cmd_groebner(args) -> int:
    algebra = parseio.load_algebra(args.file)
    for g in algebra.basis.generators:
        print(g.text())
    return EXIT_OK


def _cmd_certify(args) -> int:
    derivation = parseio.load_derivation(args.file, args.derivation)
    certificate = certify_lnd(derivation, args.cap)
    for name in derivation.algebra.variables:
        order = certificate.orders.get(name)
        shown = order if order is not None else "inconclusive"
        print(f"order({name}) = {shown}")
    print(f"status: {certificate.status} (cap {certificate.cap})")
    if args.out:
        parseio.save_json(args.out, certificate_json(certificate))
        print(f"wrote {args.out}")
    return EXIT_OK if certificate.certified else EXIT_INCONCLUSIVE


def _pick_grading(algebra, name):
    if name not in algebra.gradings:
        raise UsageError(f"no grading named {name!r} in the file")
    return algebra.gradings[name]


def _cmd_decompose(args) -> int:
    derivation = parseio.load_derivation(args.file, args.derivation)
    algebra = derivation.algebra
    grading = _pick_grading(algebra, args.grading)
    if not 0 <= args.row < grading.nrows:
        raise UsageError(f"row {args.row} out of range for {grading.nrows} rows")
    pieces = decompose(derivation, grading, args.row)
    if not pieces.components:
        print("zero derivation: no components")
        return EXIT_OK
    print(f"degrees {pieces.lower}..{pieces.upper}")
    for degree, part in pieces.components.items():
        images = ", ".join(
            f"{n} -> {part.images[n].rep.text()}" for n in algebra.variables
        )
        print(f"degree {degree}: {images}")
    return EXIT_OK


def _cmd_homogenize(args) -> int:
    derivation = parseio.load_derivation(args.file, args.derivation)
    algebra = derivation.algebra
    grading = _pick_grading(algebra, args.grading)
    result, degree = homogenize_lnd(derivation, grading, args.cap)
    print(f"homogeneous degree: {list(degree)}")
    for name in algebra.variables:
        print(f"{name} -> {result.images[name].rep.text()}")
    return EXIT_OK


def _parse_exponents(raw: str):
    try:
        return tuple(_positive_int(part) for part in raw.split(","))
    except argparse.ArgumentTypeError:
        raise UsageError(f"bad exponent list {raw!r}; expected e.g. 2,3")


def _build_suspension(args):
    algebra = parseio.load_algebra(args.file)
    function = parseio.parse_expression(args.f, algebra.context)
    ks = _parse_exponents(args.k)
    names = tuple(args.names.split(",")) if args.names else None
    return suspension.suspend(algebra, function, ks, names)


def _cmd_suspend(args) -> int:
    extended, spec = _build_suspension(args)
    report = suspension.gcd_criterion(spec.exponents)
    print(f"suspension over {len(spec.base.variables)} base variables: "
          f"{len(extended.variables)} variables, {len(extended.relations)} relations")
    print(f"gcd = {report.gcd}: {report.verdict.value}")
    if len(spec.exponents) >= 2:
        action = suspension.torus_action(extended, spec)
        rows = action.rows
    else:
        rows = ()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        parseio.save_json(out / "suspension.json", parseio.algebra_to_data(extended))
        parseio.save_json(
            out / "torus.json",
            {"variables": list(extended.variables), "rows": [list(r) for r in rows]},
        )
        parseio.save_json(out / "criterion.json", report.to_json())
        print(f"wrote {out}/suspension.json, torus.json, criterion.json")
    return EXIT_OK


def _cmd_torus(args) -> int:
    extended, spec = _build_suspension(args)
    action = suspension.torus_action(extended, spec)
    for row in action.rows:
        print(" ".join(str(w) for w in row))
    return EXIT_OK


def _cmd_lift(args) -> int:
    derivation = parseio.load_derivation(args.file, args.derivation)
    source = certify_lnd(derivation, args.cap)
    certificate = suspension.lift_along_root(source, args.var, args.new_var, args.power)
    lifted_algebra = certificate.derivation.algebra
    print(f"lifted along {args.var} = {args.new_var}^{args.power}: {certificate.status}")
    for name in lifted_algebra.variables:
        print(f"order({name}) = {certificate.orders.get(name, 'inconclusive')}")
    if args.out:
        data = parseio.algebra_to_data(
            lifted_algebra, derivations={"lifted": certificate.derivation}
        )
        parseio.save_json(args.out, data)
        print(f"wrote {args.out}")
    return EXIT_OK if certificate.certified else EXIT_INCONCLUSIVE


def _cmd_build_yp(args) -> int:
    bundle = constructions.certify_bundle(args.p, args.n, cap=args.cap)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    parseio.save_json(out / "Xp.json", parseio.algebra_to_data(bundle.Xp))
    parseio.save_json(out / "Yp.json", parseio.algebra_to_data(bundle.Yp))
    parseio.save_json(
        out / "derivation.json",
        parseio.derivation_to_data(bundle.derivation, algebra_ref="Yp.json"),
    )
    parseio.save_json(out / "certificate.json", bundle.report)
    status = bundle.report["lnd"]["status"]
    lifted_status = bundle.report["lift"]["lnd"]["status"]
    print(f"p={args.p} n={args.n}: derivation {status}, lift {lifted_status}")
    print(f"wrote {out}/Xp.json, Yp.json, derivation.json, certificate.json")
    if not bundle.report["ok"]:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_exp(args) -> int:
    derivation = parseio.load_derivation(args.file, args.derivation)
    algebra = derivation.algebra
    scalar_poly = parseio.parse_expression(args.t, algebra.context)
    if not scalar_poly.is_constant():
        raise UsageError(f"--t must be a constant, got {args.t!r}")
    scalar = scalar_poly.constant_value()
    morphism = exp(derivation, scalar, args.cap, max_digits=parseio.MAX_DIGITS)
    for name in algebra.variables:
        print(f"{name} -> {morphism.images[name].rep.text()}")
    half = exp(derivation, algebra.field.coerce(scalar) * Fraction(1, 2), args.cap)
    one_param = half.compose(half)
    if not one_param.agrees_with(morphism):
        raise MorphismError("one-parameter law failed (internal error)")
    print("one-parameter law verified at t/2 + t/2")
    return EXIT_OK


_parser = None


def main(argv=None) -> int:
    """Run one command and return its exit code (see the module docstring).

    ``argv`` defaults to ``sys.argv[1:]``.  May be called any number of
    times in one process: the parser is built on the first call and kept
    for the rest, and each call parses into a fresh namespace, so nothing
    carries over from one call to the next.  ``--help`` prints the usage
    and raises ``SystemExit(0)``, as argparse does.
    """
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.handler(args)
    except (parseio.ParseError, parseio.SchemaError, UsageError, CoefficientError,
            SizeLimitError, constructions.ConstructionError, ContextError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (NotWellDefinedError, DerivationError,
            GradingError, PresentationError, MorphismError, PowerCollapseError,
            suspension.SuspensionError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
