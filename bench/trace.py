"""Per-layer tracing installed from the benchmark's side.

The tracer rebinds library functions to wrappers, in every `blueforge.*`
module namespace that binds the same function object (modules import each
other's functions with `from .core import ...`, so rebinding `core` alone
would miss their calls). Backend methods are wrapped on the class. Layer
entry points become spans; the hot backend primitives only count calls
(`divide` also accumulates its time), so tracing costs little per call.

A span records name, start, end, parent span and query id, in memory. Self
time is a span's duration minus the durations of its child spans; time in
counted primitives stays in the enclosing span's self time. A target that
no longer exists in the library is reported as missing, not raised.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# metric prefix -> (module, attribute); "Class.method" wraps on the class.
SPANS = {
    "core.derive": ("core", "derive"),
    "core.explore": ("core", "_explore"),
    "core.improper_pair": ("core", "improper_pair"),
    "core.quotient_by_ideal": ("core", "quotient_by_ideal"),
    "core.additive_closure": ("core", "additive_closure"),
    "core.is_prime_ideal": ("core", "is_prime_ideal"),
    "core.enumerate_morphisms": ("core", "enumerate_morphisms"),
    "spectra.spec": ("spectra", "spec"),
    "spectra.rank_of_point": ("spectra", "rank_of_point"),
    "spectra.weyl_extension": ("spectra", "weyl_extension"),
    "spectra.order_build": ("spectra", "SpecSpace.__init__"),
    "spectra.covers": ("spectra", "SpecSpace.covers"),
    "schemes.proj": ("schemes", "proj"),
    "schemes.fq_points_of_scheme": ("schemes", "fq_points_of_scheme"),
    "complexes.coxeter_complex": ("complexes", "coxeter_complex"),
    "complexes.tilde_complex": ("complexes", "tilde_complex"),
    "complexes.building_type_a": ("complexes", "building_type_a"),
    "complexes.is_isomorphic_typed": ("complexes", "is_isomorphic_typed"),
    "counting.fq_points": ("counting", "fq_points"),
    "counting.projective_fq_points": ("counting", "projective_fq_points"),
    "counting.interpolate": ("counting", "_interpolate"),
    "quivergrass.subrep_count_fq": ("quivergrass", "subrep_count_fq"),
    "quivergrass.chi_via_interpolation": ("quivergrass",
                                          "chi_via_interpolation"),
    "snf.hnf": ("snf", "hnf_with_transform"),
    "snf.smith": ("snf", "smith_normal_form"),
    "congruence.is_congruence": ("congruence", "is_congruence"),
    "congruence.cspec": ("congruence", "cspec"),
    "kzero.enumerate_modules": ("kzero", "enumerate_modules"),
    "kzero.module_derive": ("kzero", "module_derive"),
    "kzero.modules_isomorphic": ("kzero", "modules_isomorphic"),
    "cli.main": ("cli", "main"),
    "jsonio.dumps": ("jsonio", "dumps"),
}

COUNTERS = {
    "core.normalize": [("core", "FiniteTable.normalize"),
                       ("core", "MonomialBackend.normalize")],
    "core.mul": [("core", "FiniteTable.mul"), ("core", "MonomialBackend.mul")],
    "core.divide": [("core", "FiniteTable.divide"),
                    ("core", "MonomialBackend.divide")],
    "core.monomial_divides": [("core", "_monomial_divides")],
    "complexes.rref_subspaces": [("complexes", "_rref_subspaces")],
    "quivergrass.rref_bases": [("quivergrass", "_rref_bases")],
    "kzero.complete_action": [("kzero", "_complete_action")],
}
TIMED_COUNTERS = {"core.divide"}

# The per-layer metrics, in output order: (name, unit).
METRICS = [
    ("core.normalize.calls", "count"), ("core.mul.calls", "count"),
    ("core.divide.calls", "count"), ("core.divide.s", "s"),
    ("core.rewrites.steps", "count"), ("core.rewrites.steps_per_s", "1/s"),
    ("core.explore.calls", "count"), ("core.explore.s", "s"),
    ("core.explore.truncated_ratio", "ratio"),
    ("core.derive.calls", "count"), ("core.derive.s", "s"),
    ("core.derive.proved_ratio", "ratio"),
    ("core.improper_pair.calls", "count"), ("core.improper_pair.s", "s"),
    ("core.quotient_by_ideal.s", "s"), ("spectra.rank_of_point.s", "s"),
    ("spectra.weyl_extension.s", "s"),
    ("core.additive_closure.calls", "count"),
    ("core.additive_closure.s", "s"),
    ("core.additive_closure.truncated_ratio", "ratio"),
    ("core.is_prime_ideal.calls", "count"), ("core.is_prime_ideal.s", "s"),
    ("core.monomial_divides.calls", "count"),
    ("spectra.spec.calls", "count"), ("spectra.spec.s", "s"),
    ("spectra.order_build.s", "s"), ("spectra.covers.s", "s"),
    ("spectra.points", "count"),
    ("schemes.proj.calls", "count"), ("schemes.proj.s", "s"),
    ("complexes.coxeter_complex.s", "s"), ("complexes.tilde_complex.s", "s"),
    ("complexes.building_type_a.s", "s"),
    ("complexes.is_isomorphic_typed.s", "s"),
    ("complexes.rref_subspaces.calls", "count"),
    ("core.enumerate_morphisms.calls", "count"),
    ("core.enumerate_morphisms.s", "s"),
    ("core.enumerate_morphisms.candidates", "count"),
    ("core.enumerate_morphisms.found", "count"),
    ("core.enumerate_morphisms.hit_ratio", "ratio"),
    ("counting.fq_points.calls", "count"), ("counting.fq_points.s", "s"),
    ("counting.projective_fq_points.s", "s"),
    ("schemes.fq_points_of_scheme.s", "s"),
    ("counting.interpolate.calls", "count"), ("counting.interpolate.s", "s"),
    ("quivergrass.subrep_count_fq.calls", "count"),
    ("quivergrass.subrep_count_fq.s", "s"),
    ("quivergrass.rref_bases.calls", "count"),
    ("quivergrass.chi_via_interpolation.s", "s"),
    ("snf.hnf.calls", "count"), ("snf.hnf.s", "s"),
    ("snf.smith.calls", "count"), ("snf.smith.s", "s"),
    ("congruence.is_congruence.calls", "count"),
    ("congruence.is_congruence.s", "s"),
    ("congruence.is_congruence.accept_ratio", "ratio"),
    ("congruence.cspec.s", "s"),
    ("kzero.enumerate_modules.s", "s"),
    ("kzero.complete_action.calls", "count"),
    ("kzero.modules_enumerated", "count"),
    ("kzero.module_derive.calls", "count"), ("kzero.module_derive.s", "s"),
    ("kzero.module_derive.false_ratio", "ratio"),
    ("kzero.modules_isomorphic.s", "s"),
    ("cli.main.calls", "count"), ("cli.main.s", "s"),
    ("jsonio.dumps.s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def _candidates(args):
    """|F_q|^k for enumerate_morphisms(bp, target): the assignments it
    tries, computed from its arguments (not counted inside the library)."""
    bp, target = args[0], args[1]
    q = len(target.backend.symbols)
    backend = bp.backend
    if backend.kind == "finite":
        return q ** (len(backend.symbols) - 2)
    coeff_free = len(backend.coeff.backend.symbols) - 2
    out = q ** coeff_free
    for name in backend.gens:
        out *= q - 1 if name in backend.inverted else q
    return out


def _on_result(name, tally, args, result):
    if name == "core.explore" and result[2]:
        tally["core.explore.truncated"] += 1
    elif name == "core.derive" and result == "Proved":
        tally["core.derive.proved"] += 1
    elif name == "core.additive_closure" and result.saturated == "truncated":
        tally["core.additive_closure.truncated"] += 1
    elif name == "core.enumerate_morphisms":
        tally["core.enumerate_morphisms.found"] += len(result)
        tally["core.enumerate_morphisms.candidates"] += _candidates(args)
    elif name == "spectra.spec":
        tally["spectra.points"] += len(result)
    elif name == "congruence.is_congruence" and result == "Proved":
        tally["congruence.is_congruence.accepted"] += 1
    elif name == "kzero.enumerate_modules":
        tally["kzero.modules_enumerated"] += len(result)
    elif name == "kzero.module_derive" and result is False:
        tally["kzero.module_derive.false"] += 1


class Tracer:
    """Installs and removes the wrappers; holds spans and counters."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, query id]
        self.tally = Counter()   # calls of counters, derived counts
        self.timed = Counter()   # seconds inside timed counters
        self.qid = None
        self.missing = []
        self._stack = []
        self._undo = []

    # -- wrappers -----------------------------------------------------------
    def _span(self, name, fn):
        spans, stack, tally = self.spans, self._stack, self.tally

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.qid])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            _on_result(name, tally, args, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        tally, timed = self.tally, self.timed
        key = name + ".calls"
        if name in TIMED_COUNTERS:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tally[key] += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    timed[name] += perf_counter() - t0
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tally[key] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _steps(self, fn):
        tally = self.tally

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tally["core.rewrites.steps"] += 1
                yield item
        return wrapper

    # -- installation -------------------------------------------------------
    def _rebind(self, modname, attr, make):
        try:
            mod = importlib.import_module("blueforge." + modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, make(orig))
                return
            orig = getattr(mod, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{modname}.{attr}")
            return
        wrapper = make(orig)
        for m in list(sys.modules.values()):
            name = getattr(m, "__name__", "")
            if (name == "blueforge" or name.startswith("blueforge.")) and \
                    getattr(m, attr, None) is orig:
                self._undo.append((m, attr, orig))
                setattr(m, attr, wrapper)

    def install(self):
        for name, (mod, attr) in SPANS.items():
            self._rebind(mod, attr, functools.partial(self._span, name))
        for name, targets in COUNTERS.items():
            for mod, attr in targets:
                self._rebind(mod, attr, functools.partial(self._counter, name))
        self._rebind("core", "_rewrites", self._steps)
        self.missing = sorted(set(self.missing))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ------------------------------------------------------------
    def self_times(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def metrics(self, overhead_ratio):
        """The per-layer metrics; a metric whose target is missing from the
        library is left out (and named in `missing`)."""
        st, tally = self.self_times(), self.tally
        missing_prefixes = {p for p, (m, a) in SPANS.items()
                            if f"{m}.{a}" in self.missing}
        missing_prefixes |= {p for p, ts in COUNTERS.items()
                             if any(f"{m}.{a}" in self.missing for m, a in ts)}
        if "core._rewrites" in self.missing:
            missing_prefixes.add("core.rewrites")

        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for name, _unit in METRICS:
            prefix, _, leaf = name.rpartition(".")
            calls, incl, self_s = st.get(prefix, (0, 0.0, 0.0))
            if leaf == "calls":
                v = calls if prefix in SPANS else tally[name]
            elif leaf == "s":
                v = self.timed[prefix] if prefix in TIMED_COUNTERS else self_s
            elif leaf == "truncated_ratio":
                v = ratio(tally[prefix + ".truncated"], calls)
            elif leaf == "proved_ratio":
                v = ratio(tally[prefix + ".proved"], calls)
            elif leaf == "accept_ratio":
                v = ratio(tally[prefix + ".accepted"], calls)
            elif leaf == "false_ratio":
                v = ratio(tally[prefix + ".false"], calls)
            elif leaf == "hit_ratio":
                v = ratio(tally[prefix + ".found"],
                          tally[prefix + ".candidates"])
            elif name == "core.rewrites.steps_per_s":
                v = ratio(tally["core.rewrites.steps"], st["core.explore"][1])
            elif name == "trace.overhead_ratio":
                v = overhead_ratio
            else:
                v = tally[name]
            if prefix in missing_prefixes:
                continue
            values[name] = v
        return values

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query"],
                       "spans": self.spans, "missing": self.missing}, fh)
