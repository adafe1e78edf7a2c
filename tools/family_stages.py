"""Time the counterexample family's pipeline stage by stage, in one process.

    PYTHONPATH=src python3 tools/family_stages.py --p 7

Runs each stage ``--repeat`` times (default 1), in this order, and prints
its fastest wall time (``time.perf_counter``) with the process's peak
resident set size so far (``getrusage``, so a later stage never reads lower
than an earlier one):

* ``linear_forms(p)``;
* ``form_products(p)``, which builds the forms again;
* ``certify_family_lnd(p)``, which builds the forms and their products again;
* ``_descend`` + ``build_Xp`` on the certified Yp's first relation;
* ``lift_along_root`` of the certificate along y = u^2 (n = 2p);
* the whole ``certify_bundle(p, 2p)``, which repeats every stage above;
* the text ``build-yp`` writes from that bundle: ``algebra_to_data`` of Xp
  and Yp, ``derivation_to_data``, and ``dump_canonical`` of each;
* ``parse_expression`` of every relation and image in that text, in its
  algebra's context.

The script exits 1 unless the bundle's report is ok and every parsed text
equals the bundle's polynomial it was written from.

``SUSPENSIA_MAX_P`` is set to p in this process only, so a prime past the
library's default ceiling can be timed.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
from time import perf_counter


def peak_rss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, required=True, help="an odd prime")
    parser.add_argument("--repeat", type=int, default=1, help="runs per stage; the fastest is shown")
    args = parser.parse_args()
    p = args.p
    os.environ["SUSPENSIA_MAX_P"] = str(p)

    from suspensia import Polynomial, certify_bundle, certify_family_lnd, lift_along_root
    from suspensia.constructions import _descend, build_Xp, form_products, linear_forms
    from suspensia.parseio import (
        algebra_to_data, derivation_to_data, dump_canonical, parse_expression,
    )

    def stage(name, run):
        best = float("inf")
        for _ in range(max(args.repeat, 1)):
            result = None  # so a repeat's peak RSS does not hold the last result
            start = perf_counter()
            result = run()
            best = min(best, perf_counter() - start)
        print(f"{name:<26} {best:9.4f} s   peak RSS {peak_rss_mb():8.1f} MB", flush=True)
        return result

    print(f"p = {p}, n = {2 * p}, fastest of {max(args.repeat, 1)}, Python {sys.version.split()[0]}")
    stage("linear_forms", lambda: linear_forms(p))
    products = stage("form_products", lambda: form_products(p))
    print(f"{'':<26} P has {len(products.tail.terms)} terms, L_1*P has {len(products.full.terms)}")
    lnd = stage("certify_family_lnd", lambda: certify_family_lnd(p))
    Yp = lnd.derivation.algebra
    first = Yp.relations[0] + Polynomial.monomial(Yp.context, {"z": 2})
    stage("_descend + build_Xp", lambda: build_Xp(p, _descend(p, first)[1]))
    stage("lift_along_root", lambda: lift_along_root(lnd, "y", "u", 2))
    bundle = stage("certify_bundle", lambda: certify_bundle(p, 2 * p))

    def artifact_texts():
        data = (
            algebra_to_data(bundle.Xp),
            algebra_to_data(bundle.Yp),
            {"algebra": "Yp.json", **derivation_to_data(bundle.derivation)},
        )
        return data, [dump_canonical(d) for d in data]

    (xp_data, yp_data, derivation_data), texts = stage("artifact text", artifact_texts)
    print(f"{'':<26} Xp, Yp and derivation.json hold {sum(map(len, texts)):,} characters")

    # (text, context, the polynomial it was written from) for every expression
    Yp = bundle.Yp
    written = [
        *((text, bundle.Xp.context, r) for text, r in zip(xp_data["relations"], bundle.Xp.relations)),
        *((text, Yp.context, r) for text, r in zip(yp_data["relations"], Yp.relations)),
        *((derivation_data["images"][v], Yp.context, bundle.derivation.images[v].rep)
          for v in Yp.variables),
    ]
    parsed = stage("parse back", lambda: [parse_expression(t, c) for t, c, _ in written])
    mismatched = sum(f != expected for f, (_, _, expected) in zip(parsed, written))
    print(f"{'':<26} {len(written)} texts parsed, {mismatched} differ from the bundle")
    return 0 if bundle.report["ok"] and not mismatched else 1


if __name__ == "__main__":
    sys.exit(main())
