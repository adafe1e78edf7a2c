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
    _exponential,
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
    # each argument shared by several commands is declared once, on a parent parser
    file = argparse.ArgumentParser(add_help=False)
    file.add_argument("file")
    derivation = argparse.ArgumentParser(add_help=False, parents=[file])
    derivation.add_argument("--derivation", help="name when the file has several")
    graded = argparse.ArgumentParser(add_help=False, parents=[derivation])
    graded.add_argument("--grading", required=True)
    suspension_data = argparse.ArgumentParser(add_help=False, parents=[file])
    suspension_data.add_argument("--f", required=True, help="suspension function (expression)")
    suspension_data.add_argument("--k", required=True, help="comma-separated positive exponents")
    suspension_data.add_argument("--names", help="comma-separated fresh variable names")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, parent=None):
        p = sub.add_parser(name, help=summary, parents=[parent] if parent else [])
        p.set_defaults(handler=handler)
        return p

    command("validate", _cmd_validate, "parse and check a description file", file)
    command("groebner", _cmd_groebner, "print the reduced basis of an algebra", file)
    p = command("certify-derivation", _cmd_certify, "certify a derivation as LND", derivation)
    p.add_argument("--out", help="write the certificate JSON here")
    p = command("decompose", _cmd_decompose, "split a derivation along a grading row", graded)
    p.add_argument("--row", type=int, default=0)
    command("homogenize", _cmd_homogenize, "extract a homogeneous LND", graded)
    p = command("suspend", _cmd_suspend, "build a suspension over an algebra", suspension_data)
    p.add_argument("--out", help="directory for suspension.json / torus.json / criterion.json")
    command("torus", _cmd_torus, "print the torus weights of a suspension", suspension_data)
    p = command("lift", _cmd_lift, "lift a derivation along var = new^power", derivation)
    p.add_argument("--var", required=True)
    p.add_argument("--new", required=True, dest="new_var")
    p.add_argument("--power", type=_positive_int, required=True)
    p.add_argument("--out", help="write the lifted algebra + derivation here")
    p = command("build-yp", _cmd_build_yp, "run the counterexample-family pipeline")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=".", help="output directory (default: cwd)")
    p = command("exp", _cmd_exp, "exponentiate a certified derivation", derivation)
    p.add_argument("--t", default="1", help="scalar parameter (expression)")
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


def _print_orders(certificate) -> None:
    """One line ``order(x) = n`` per generator, in variable order."""
    for name in certificate.derivation.algebra.variables:
        print(f"order({name}) = {certificate.orders.get(name, 'inconclusive')}")


def _image_lines(images) -> list:
    """``x -> image`` for each generator; ``images`` is in variable order."""
    return [f"{name} -> {image.rep.text()}" for name, image in images.items()]


def _cmd_certify(args) -> int:
    derivation = parseio.load_derivation(args.file, args.derivation)
    certificate = certify_lnd(derivation, args.cap)
    _print_orders(certificate)
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
    grading = _pick_grading(derivation.algebra, args.grading)
    if not 0 <= args.row < grading.nrows:
        raise UsageError(f"row {args.row} out of range for {grading.nrows} rows")
    pieces = decompose(derivation, grading, args.row)
    if not pieces.components:
        print("zero derivation: no components")
        return EXIT_OK
    print(f"degrees {pieces.lower}..{pieces.upper}")
    for degree, part in pieces.components.items():
        print(f"degree {degree}: {', '.join(_image_lines(part.images))}")
    return EXIT_OK


def _cmd_homogenize(args) -> int:
    derivation = parseio.load_derivation(args.file, args.derivation)
    grading = _pick_grading(derivation.algebra, args.grading)
    result, degree = homogenize_lnd(derivation, grading, args.cap)
    print(f"homogeneous degree: {list(degree)}")
    for line in _image_lines(result.images):
        print(line)
    return EXIT_OK


def _parse_exponents(raw: str):
    """The --k entries: positive integers, none past ``parseio.MAX_EXPONENT``.

    Each entry is an exponent of the suspension's relation, so a larger one
    would be written to a file that the reader refuses.
    """
    try:
        ks = tuple(_positive_int(part) for part in raw.split(","))
    except argparse.ArgumentTypeError:
        raise UsageError(f"bad exponent list {raw!r}; expected e.g. 2,3")
    if max(ks) > parseio.MAX_EXPONENT:
        raise UsageError(f"--k entry {max(ks)} exceeds the exponent limit {parseio.MAX_EXPONENT}")
    return ks


def _check_root_power(derivation, var: str, power: int) -> None:
    """Refuse a --power that would write an exponent past ``parseio.MAX_EXPONENT``.

    The lift writes var^e of the source's relations and images as
    new^(e * power).  An unknown var is left to ``lift_along_root``.
    """
    algebra = derivation.algebra
    if var not in algebra.variables:
        return
    polys = (*algebra.relations, *(image.rep for image in derivation.images.values()))
    top = power * max(f.degree_in(var) for f in polys)
    if top > parseio.MAX_EXPONENT:
        raise UsageError(f"--power {power} would write an exponent {top} of the new variable, "
                         f"past the limit {parseio.MAX_EXPONENT}")


def _build_suspension(args):
    ks = _parse_exponents(args.k)
    algebra = parseio.load_algebra(args.file)
    function = parseio.parse_expression(args.f, algebra.context)
    names = tuple(args.names.split(",")) if args.names else None
    return suspension.suspend(algebra, function, ks, names)


def _cmd_suspend(args) -> int:
    extended, spec = _build_suspension(args)
    report = suspension.gcd_criterion(spec.exponents)
    print(f"suspension over {len(spec.base.variables)} base variables: "
          f"{len(extended.variables)} variables, {len(extended.relations)} relations")
    print(f"gcd = {report.gcd}: {report.verdict.value}")
    rows = suspension.torus_action(extended, spec).rows if len(spec.exponents) > 1 else ()
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
    if len(_parse_exponents(args.k)) < 2:
        raise UsageError("a torus needs at least two --k exponents")
    for row in suspension.torus_action(*_build_suspension(args)).rows:
        print(" ".join(str(w) for w in row))
    return EXIT_OK


def _cmd_lift(args) -> int:
    derivation = parseio.load_derivation(args.file, args.derivation)
    _check_root_power(derivation, args.var, args.power)
    source = certify_lnd(derivation, args.cap)
    certificate = suspension.lift_along_root(source, args.var, args.new_var, args.power)
    lifted = certificate.derivation
    print(f"lifted along {args.var} = {args.new_var}^{args.power}: {certificate.status}")
    _print_orders(certificate)
    if args.out:
        data = parseio.algebra_to_data(lifted.algebra, derivations={"lifted": lifted})
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
        {"algebra": "Yp.json", **parseio.derivation_to_data(bundle.derivation)},
    )
    (out / "certificate.json").write_text(bundle._report, encoding="utf-8", newline="\n")
    report = bundle.report
    status = report["lnd"]["status"]
    lifted_status = report["lift"]["lnd"]["status"]
    print(f"p={args.p} n={args.n}: derivation {status}, lift {lifted_status}")
    print(f"wrote {out}/Xp.json, Yp.json, derivation.json, certificate.json")
    return EXIT_OK if report["ok"] else EXIT_INCONCLUSIVE


def _cmd_exp(args) -> int:
    derivation = parseio.load_derivation(args.file, args.derivation)
    algebra = derivation.algebra
    scalar_poly = parseio.parse_expression(args.t, algebra.context)
    if not scalar_poly.is_constant():
        raise UsageError(f"--t must be a constant, got {args.t!r}")
    scalar = scalar_poly.constant_value()
    morphism = exp(derivation, scalar, args.cap, max_digits=parseio.MAX_DIGITS)
    for line in _image_lines(morphism.images):
        print(line)
    half = _exponential(derivation, morphism.orbits, morphism.t * Fraction(1, 2))
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
        if any(value in ([], "--") for value in vars(args).values()):  # "--t=--": [] or "--"
            raise UsageError("an option's value may not be '--'")
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
