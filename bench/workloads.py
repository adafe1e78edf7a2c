"""The benchmark's seeded workloads.

Each workload is a set-up function ``setup(sx, rng, workdir) -> [Job]``.  It
draws every input from ``rng`` (seeded from the command line), writes any
input files under ``workdir`` and returns a fixed job list.  A job's ``call``
is the timed work: calls into the library, which receives only the
generated inputs.  Its ``check`` compares the outcome with an answer known
by construction and runs untimed.

Library entry points are looked up on the module objects at call time
(``sx.cli.main``, ``sx.certify_lnd``), so the tracer's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
BROKEN_FIXTURE = ROOT / "tests" / "fixtures" / "broken.json"


@dataclass(frozen=True)
class Job:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def _run_cli(sx, argv):
    """cli.main in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = sx.cli.main(argv)
    return code, out.getvalue()


# ----------------------------------------------------------------------
# family_p7: the headline pipeline, build-yp at p=7, n=14

# SHA-256 of the artifacts written by build-yp --p 7 --n 14 on the seed commit.
P7_DIGESTS = {
    "Xp.json": "7f43beb5a3bccc88ca756389729a8ae7e0a5c23b11f47f2ba3f0c07a0d346031",
    "Yp.json": "857d47d0b5f154398bb986a056c7b63fb5fb29b1c76f727a9c406114baffe96a",
    "derivation.json": "488b4b2f942581b1f80a7f24392eae9e33b9c7ce301598df45e77788158d1625",
    "certificate.json": "212949a639bda2a13acd203b080802922b5029829f5fd23cf69e4f91f26a52a4",
}
P7_ORDERS = {**{f"x{j}": 2 for j in range(7)}, "z": 1, "y": 0, "w": 0}
_Y_POWER = re.compile(r"(?<![\w@])y(?:\^(\d+))?(?!\w)")


def setup_family_p7(sx, rng, workdir: Path):
    out = workdir / "p7"
    argv = ["build-yp", "--p", "7", "--n", "14", "--out", str(out)]

    def check(outcome):
        code, _ = outcome
        if code != 0:
            return False
        if any(hashlib.sha256((out / name).read_bytes()).hexdigest() != digest
               for name, digest in P7_DIGESTS.items()):
            return False
        report = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
        lifted = report["lift"]["lnd"]["orders"]
        expected_lift = {("u" if g == "y" else g): k for g, k in P7_ORDERS.items()}
        relation = json.loads((out / "Yp.json").read_text(encoding="utf-8"))["relations"][0]
        y_exponents = [int(e or 1) for e in _Y_POWER.findall(relation)]
        return (
            report["lnd"]["orders"] == P7_ORDERS
            and lifted == expected_lift
            and report["lift"]["ordersMatchSource"]
            and bool(y_exponents)
            and all(e % 7 == 0 for e in y_exponents)
        )

    return [Job("build-yp", lambda: _run_cli(sx, argv), check)]


# ----------------------------------------------------------------------
# desk_q: a few hundred small jobs over Q, answers known by construction

DESK_MIX = {"ideal": 80, "triangular": 50, "diagonal": 40, "suspend": 50, "root": 40}
_XYZ = ("x", "y", "z")


def _fraction(rng, span=5):
    return Fraction(rng.randint(-span, span) or 1, rng.randint(1, span))


def _terms(rng, nvars, count, max_degree, constant=True):
    """A plain {exponents: Fraction} dict with up to `count` distinct terms."""
    terms = {}
    for _ in range(count):
        degree = rng.randint(0 if constant else 1, max_degree)
        mono = [0] * nvars
        for _ in range(degree):
            mono[rng.randrange(nvars)] += 1
        terms[tuple(mono)] = _fraction(rng)
    return terms


def _weight(mono, row):
    return sum(e * w for e, w in zip(mono, row))


def _ideal_job(sx, rng, i):
    gens = [_terms(rng, 3, 2 + i // 2 % 2, 2, constant=False) for _ in range(1 + i % 2)]
    multipliers = [_terms(rng, 3, 2, 2) for _ in gens]
    f_terms = _terms(rng, 3, 4, 3)
    g_terms = _terms(rng, 3, 3, 2)

    def call():
        ctx = sx.Context(sx.QQ, _XYZ)
        polys = [sx.Polynomial(ctx, t) for t in gens]
        algebra = sx.PresentedAlgebra(ctx, polys)
        r = sx.Polynomial.zero(ctx)
        for gen, mult in zip(polys, multipliers):
            r = r + sx.Polynomial(ctx, mult) * gen
        f = sx.Polynomial(ctx, f_terms)
        g = sx.Polynomial(ctx, g_terms)
        return (not algebra.normal_form(r).terms,
                algebra.normal_form(f + g * r) == algebra.normal_form(f))

    return Job("ideal", call, lambda outcome: outcome == (True, True))


def _triangular_job(sx, rng, i):
    # D(x1) = 0, D(x2) = a(x1), D(x3) = b(x1, x2): orders 0, 1, deg_x2(b) + 1,
    # with a of two terms and b of one term per x2-degree up to top
    top = 1 + i % 3
    a_terms = {(0, 0, 0): _fraction(rng), (rng.randint(1, 2), 0, 0): _fraction(rng)}
    b_terms = {(rng.randint(0, 2), k, 0): _fraction(rng) for k in range(top + 1)}
    expected = {"x1": 0, "x2": 1, "x3": top + 1}
    s, t = _fraction(rng), _fraction(rng)
    grading = [[rng.randint(1, 3) for _ in range(3)], [rng.randint(0, 2) for _ in range(3)]]
    names = ("x1", "x2", "x3")

    def call():
        algebra = sx.algebra_from_strings(sx.QQ, names, [])
        ctx = algebra.context
        d = sx.new_derivation(algebra, {
            "x1": sx.Polynomial.zero(ctx),
            "x2": sx.Polynomial(ctx, a_terms),
            "x3": sx.Polynomial(ctx, b_terms),
        })
        certificate = sx.certify_lnd(d, 64)
        law = sx.exp(d, s).compose(sx.exp(d, t)).agrees_with(sx.exp(d, s + t))
        homogeneous, degree = sx.homogenize_lnd(d, sx.attach_grading(algebra, grading))
        images = {n: dict(homogeneous.images[n].rep.terms) for n in names}
        return certificate, law, images, degree

    def check(outcome):
        certificate, law, images, degree = outcome
        shifts = {
            tuple(_weight(mono, row) - row[k] for row in grading)
            for k, n in enumerate(names) for mono in images[n]
        }
        return (certificate.certified and certificate.orders == expected and law
                and shifts == {tuple(degree)})

    return Job("triangular", call, check)


def _diagonal_job(sx, rng, i):
    scales = [rng.choice([0, rng.randint(-4, 4) or 1]) for _ in range(3)]
    scales[rng.randrange(3)] = rng.randint(1, 4)
    names = ("x1", "x2", "x3")
    unresolved = tuple(n for n, c in zip(names, scales) if c)

    def call():
        algebra = sx.algebra_from_strings(sx.QQ, names, [])
        d = sx.new_derivation(algebra, {
            n: sx.Polynomial.monomial(algebra.context, {n: 1}, c) for n, c in zip(names, scales)
        })
        return sx.certify_lnd(d, 3), sx.is_diagonal_semisimple(d)

    def check(outcome):
        certificate, weights = outcome
        return (certificate.status == "inconclusive"
                and certificate.inconclusive == unresolved
                and list(weights) == scales)

    return Job("diagonal", call, check)


def _suspend_job(sx, rng, i):
    ks = [rng.randint(1, 6) for _ in range(2 + i % 2)]
    relation = ({(2, 0): 1, (0, 3): -1},) if i // 2 % 2 else ()
    f_terms = _terms(rng, 2, 3, 2, constant=False)
    f_terms[(1, 0)] = 1  # x never vanishes in the base, so f stays non-constant
    gcd = reduce(math.gcd, ks)

    def call():
        ctx = sx.Context(sx.QQ, ("x", "t"))
        base = sx.PresentedAlgebra(ctx, [sx.Polynomial(ctx, r) for r in relation])
        extended, spec = sx.suspend(base, sx.Polynomial(ctx, f_terms), ks)
        action = sx.torus_action(extended, spec)
        relations = [dict(r.terms) for r in extended.relations]
        return action.rows, relations, sx.gcd_criterion(ks)

    def check(outcome):
        rows, relations, report = outcome
        weights_zero = all(_weight(mono, row) == 0
                           for row in rows for terms in relations for mono in terms)
        rigid = report.verdict.value == "rigidity-preserved"
        return (len(rows) == len(ks) - 1 and weights_zero
                and report.gcd == gcd and rigid == (gcd == 1))

    return Job("suspend", call, check)


def _root_job(sx, rng, i):
    relations = [_terms(rng, 3, rng.randint(2, 3), 3, constant=False) for _ in range(1 + i % 2)]
    var = rng.choice(_XYZ)
    power = 2 + i // 2 % 2

    def call():
        ctx = sx.Context(sx.QQ, _XYZ)
        algebra = sx.PresentedAlgebra(ctx, [sx.Polynomial(ctx, t) for t in relations])
        lifted = sx.adjoin_root(algebra, var, "u", power)
        back = sx.collapse_root(lifted, "u", var, power)
        return algebra, back

    def check(outcome):
        algebra, back = outcome
        return (back.same_presentation(algebra)
                and back.variables == _XYZ
                and [dict(r.terms) for r in back.relations]
                == [dict(r.terms) for r in algebra.relations])

    return Job("root", call, check)


_DESK_BUILDERS = {
    "ideal": _ideal_job,
    "triangular": _triangular_job,
    "diagonal": _diagonal_job,
    "suspend": _suspend_job,
    "root": _root_job,
}


def setup_desk_q(sx, rng, workdir: Path):
    # The i-th job of a kind fixes the shape (generator count, degree, power)
    # and the seed draws the rest, so every seed gives the same mix of sizes.
    jobs = [_DESK_BUILDERS[kind](sx, rng, i)
            for kind, count in DESK_MIX.items() for i in range(count)]
    rng.shuffle(jobs)
    return jobs


# ----------------------------------------------------------------------
# cli_yp3: the file-driven CLI on the p=3 artifacts

# exp costs ~30 times the other jobs and takes most of a pass.  A pass of 52
# jobs lasts about 1.5 s at full speed, so each job is sampled 10 or more
# times in a 30 s run; the p75 job is a lift.
CLI_MIX = {
    "exp": 6, "certify": 6, "lift": 8, "validate": 6, "groebner": 6,
    "suspend": 7, "torus": 7, "cap1-certify": 2, "cap1-exp": 2, "broken": 2,
}
_XP3_FUNCTIONS = ("x0", "x1", "x2", "z", "x0 + x1", "x1*x2 + z", "x2^2 - x0")


def _expect(code, *lines):
    def check(outcome):
        got, text = outcome
        return got == code and all(line in text.splitlines() for line in lines)
    return check


def setup_cli_yp3(sx, rng, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    code, _ = _run_cli(sx, ["build-yp", "--p", "3", "--n", "6", "--out", str(workdir)])
    if code != 0:
        raise RuntimeError(f"build-yp --p 3 exited with {code}")
    derivation = str(workdir / "derivation.json")
    yp, xp = str(workdir / "Yp.json"), str(workdir / "Xp.json")
    validated = ["algebra ok: 6 variables, 2 relations, basis size 3"]
    orders = ["order(x0) = 2", "order(x1) = 2", "order(x2) = 2",
              "order(z) = 1", "order(w) = 0"]

    def job(kind, argv, check):
        return Job(kind, lambda: _run_cli(sx, argv), check)

    # As in desk_q, the i-th job of a kind fixes what sets its cost (lift
    # power, suspension function and first exponent, the height of t).
    def make(kind, i):
        if kind == "exp":
            t = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), 7)
            return job(kind, ["exp", derivation, f"--t={t}"],
                       _expect(0, "one-parameter law verified at t/2 + t/2"))
        if kind == "certify":
            argv = ["certify-derivation", derivation]
            if i % 2:
                argv += ["--out", str(workdir / "cert.json")]
            return job(kind, argv, _expect(0, "status: certified (cap 64)", *orders))
        if kind == "lift":
            k = 2 + i % 4
            return job(kind, ["lift", derivation, "--var", "y", "--new", "u", "--power", str(k)],
                       _expect(0, f"lifted along y = u^{k}: certified", "order(u) = 0", *orders))
        if kind == "validate":
            if i % 2:
                return job(kind, ["validate", xp],
                           _expect(0, *validated, "grading 'weights' ok: 1 rows"))
            return job(kind, ["validate", yp], _expect(0, *validated))
        if kind == "groebner":
            return job(kind, ["groebner", (yp, xp)[i % 2]],
                       lambda outcome: outcome[0] == 0 and len(outcome[1].splitlines()) >= 2)
        if kind in ("suspend", "torus"):
            ks = (1 + i % 6, rng.randint(1, 6))
            d = math.gcd(*ks)
            function = _XP3_FUNCTIONS[i % len(_XP3_FUNCTIONS)]
            argv = [kind, xp, "--f", function, "--k", f"{ks[0]},{ks[1]}"]
            if kind == "suspend":
                verdict = "rigidity-preserved" if d == 1 else "counterexample-possible"
                return job(kind, argv, _expect(0, f"gcd = {d}: {verdict}"))
            return job(kind, argv, _expect(0, f"0 0 0 0 0 0 {ks[1] // d} {-(ks[0] // d)}"))
        if kind == "cap1-certify":
            return job(kind, ["--cap", "1", "certify-derivation", derivation],
                       _expect(2, "status: inconclusive (cap 1)"))
        if kind == "cap1-exp":
            return job(kind, ["--cap", "1", "exp", derivation, "--t=1"], _expect(2))
        if kind == "broken":
            return job(kind, ["validate", str(BROKEN_FIXTURE)], _expect(3))
        raise ValueError(kind)

    kinds = [(kind, i) for kind, count in CLI_MIX.items() for i in range(count)]
    rng.shuffle(kinds)
    return [make(kind, i) for kind, i in kinds]


WORKLOADS = {
    "family_p7": setup_family_p7,
    "desk_q": setup_desk_q,
    "cli_yp3": setup_cli_yp3,
}
