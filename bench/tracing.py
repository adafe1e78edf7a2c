"""Tracing from outside the library: spans and counters around public calls.

The tracer wraps the calls into each module of ``suspensia`` without
changing any file under ``src/``:

* class methods are replaced on the class, so every caller is caught;
* module-level functions are rebound in every ``suspensia`` module that
  holds them, which covers the defining module (its own global lookups)
  and each module that imported them by name (``buchberger`` in
  ``algebra``, ``certify_lnd`` in ``constructions``, ``suspension`` and
  ``cli``, ``new_derivation`` in ``constructions``, ``parseio`` and
  ``suspension``, ``adjoin_root`` and ``lift_along_root`` in
  ``constructions``) as well as the package namespace.

A span is (name, start, end, parent), and every span also counts its
calls under its name.  Spans stay in memory until the run ends.  The coefficient layer gets counters only: it is called millions of
times per run and spans there would swamp the timings.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

# span name -> the (module, function) pairs it wraps
SPAN_FUNCTIONS = {
    "groebner.buchberger": [("groebner", "buchberger")],
    "derivation.new": [("derivation", "new_derivation")],
    "derivation.certify": [("derivation", "certify_lnd")],
    "derivation.exp": [("derivation", "exp")],
    "suspension.adjoin": [("suspension", "adjoin_root")],
    "suspension.lift": [("suspension", "lift_along_root"), ("suspension", "lift_lnd")],
    "suspension.torus": [("suspension", "torus_action")],
    "constructions.build_F": [("constructions", "build_F")],
    "constructions.vandermonde": [("constructions", "build_vandermonde_lnd")],
    "linalg.solve": [("linalg", "solve_linear")],
    "parseio.load": [
        ("parseio", "read_json"),
        ("parseio", "load_algebra"),
        ("parseio", "load_derivation"),
        ("parseio", "algebra_from_data"),
        ("parseio", "derivation_from_data"),
    ],
    "parseio.parse": [("parseio", "parse_expression")],
    "parseio.dump": [
        ("parseio", "save_json"),
        ("parseio", "dump_canonical"),
        ("parseio", "algebra_to_data"),
        ("parseio", "derivation_to_data"),
    ],
    "cli.main": [("cli", "main")],
}

# span name -> (module, class, method names)
SPAN_METHODS = {
    "poly.mul": ("poly", "Polynomial", ("__mul__", "__rmul__")),
    "poly.substitute": ("poly", "Polynomial", ("substitute",)),
    "groebner.nf": ("groebner", "GroebnerBasis", ("normal_form",)),
    "algebra.new": ("algebra", "PresentedAlgebra", ("__init__",)),
    "derivation.leibniz": ("derivation", "Derivation", ("leibniz_image",)),
    "derivation.morphism_check": ("derivation", "AlgebraMorphism", ("__init__",)),
}

# counter name -> (module, class, method names); counted, never spanned
COUNTED_METHODS = {
    "coeff.cyclo_new": ("coeff", "CyclotomicNumber", ("__init__",)),
    "coeff.cyclo_mul": ("coeff", "CyclotomicNumber", ("__mul__", "__rmul__")),
    "coeff.cyclo_inv": ("coeff", "CyclotomicNumber", ("inverse",)),
    "poly.diff": ("poly", "Polynomial", ("diff",)),
    "algebra.element": ("algebra", "PresentedAlgebra", ("element",)),
    "derivation.apply": ("derivation", "Derivation", ("apply",)),
}


def _term_count(value) -> int:
    terms = getattr(value, "terms", None)
    if terms is not None:
        return len(terms)
    return 1 if value else 0


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.stack = [-1]
        self.counts = Counter()
        self._restore = []

    # -- recording ----------------------------------------------------

    def reset(self):
        self.names.clear()
        del self.starts[:], self.ends[:], self.parents[:]
        self.stack[:] = [-1]
        self.counts.clear()

    def _span(self, name, fn, before=None, after=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counts = self.stack, self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(counts, args)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def _counter(self, name, fn, extra=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if extra is not None:
                extra(counts)
            return fn(*args, **kwargs)

        return wrapper

    def inside(self, span_name: str) -> bool:
        """True when a span of this name is open on the stack."""
        names = self.names
        return any(names[i] == span_name for i in self.stack[1:])

    # -- installing ---------------------------------------------------

    def install(self):
        """Wrap the library's public calls; undo with uninstall()."""
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in sys.modules.items()
            if name.startswith("suspensia.")
        }
        library = [mod for name, mod in sys.modules.items()
                   if name == "suspensia" or name.startswith("suspensia.")]
        hooks = _span_hooks()

        for span, targets in SPAN_FUNCTIONS.items():
            for module_name, attr in targets:
                original = getattr(modules[module_name], attr)
                before, after = hooks.get(span, (None, None))
                wrapped = self._span(span, original, before, after)
                for mod in library:
                    if getattr(mod, attr, None) is original:
                        self._set(mod, attr, wrapped)

        for span, (module_name, cls_name, methods) in SPAN_METHODS.items():
            cls = getattr(modules[module_name], cls_name)
            before, after = hooks.get(span, (None, None))
            for method in methods:
                self._set(cls, method, self._span(span, cls.__dict__[method], before, after))

        def certify_applies(counts):
            if self.inside("derivation.certify"):
                counts["derivation.certify_applies"] += 1

        for counter, (module_name, cls_name, methods) in COUNTED_METHODS.items():
            cls = getattr(modules[module_name], cls_name)
            extra = certify_applies if counter == "derivation.apply" else None
            for method in methods:
                self._set(cls, method, self._counter(counter, cls.__dict__[method], extra))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading ------------------------------------------------------

    def self_seconds(self) -> Counter:
        """Self time per span name: duration minus what child spans cover."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[idx]
        out = Counter()
        for name, dur, covered in zip(self.names, durations, child):
            out[name] += dur - covered
        return out

    def write_spans(self, path):
        """One span per line: index, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, s, e, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                fh.write(f"{idx}\t{name}\t{s:.9f}\t{e:.9f}\t{parent}\n")


def _span_hooks():
    """Counters beyond a span's call count, recorded at its boundaries:
    span name -> (before(counts, args), after(counts, args, result))."""

    def poly_mul(counts, args):
        counts["poly.mul_term_pairs"] += len(args[0].terms) * _term_count(args[1])

    def buchberger(counts, args, result):
        counts["groebner.basis_terms"] += sum(len(g.terms) for g in result.generators)

    def nf(counts, args, result):
        counts["groebner.nf_in_terms"] += len(args[1].terms)
        if not result.terms:
            counts["groebner.nf_zero"] += 1

    return {
        "poly.mul": (poly_mul, None),
        "groebner.buchberger": (None, buchberger),
        "groebner.nf": (None, nf),
    }
