"""Layer trace of the nahilb modules, recorded from outside the program.

`Tracer.install()` replaces public functions with wrappers at every
``nahilb`` module that holds them (``nahilb.localization.integrate_localization``
and ``nahilb.cli.integrate_localization`` alike), and two methods on
`FactoredRational`.  Each call becomes a span (name, start, end, parent,
job id) kept in memory; `end_job()` folds a job's spans into per-name
call counts and self times, where self time is a span's duration minus
its children's.  `restore()` puts every original attribute back.

Counter bookkeeping runs after a span closes, so it lands in the parent
span's self time; the trace overhead metric bounds that cost.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from nahilb import algebra

_LOCALIZATION_SPANS = ("localization.integrate", "localization.contribution")


def _chains(tracer, rec, args, result):
    tracer.counts["partitions.chains"] += len(result)


def _enumerations(tracer, rec, args, result):
    tracer.counts["partitions.enumerations"] += len(result)


def _tangent(tracer, rec, args, result):
    # one tangent multiset per chain the localization engine evaluates
    if tracer.parent_name(rec) in _LOCALIZATION_SPANS:
        tracer.counts["localization.chains_in"] += 1


def _restrict(tracer, rec, args, result):
    # restrict_class runs only for chains that passed the fixed-rank gate
    if tracer.parent_name(rec) in _LOCALIZATION_SPANS:
        tracer.counts["localization.gate_passed"] += 1


def _euler(tracer, rec, args, result):
    tracer.counts["weights.euler_class.factors"] += len(result.factors)


def _divide(tracer, rec, args, result):
    tracer.counts["algebra.exact_divide_linear.succeeded"] += result is not None
    tracer.counts["algebra.exact_divide_linear.dividend_terms"] += len(args[0].terms)


def _sum(tracer, rec, args, result):
    # every caller in nahilb passes a list, so the items are still here
    needed = {}
    summands = 0
    for r in args[0]:
        if r.is_zero():
            continue
        summands += 1
        for form, exp in r.factors:
            if exp < 0:
                needed[form] = max(needed.get(form, 0), -exp)
    c = tracer.counts
    c["algebra.sum_factored.summands"] += summands
    c["algebra.sum_factored.denominator_forms"] += len(needed)
    c["algebra.sum_factored.denominator_degree"] += sum(needed.values())


def _residue(tracer, rec, args, result):
    form = args[0]
    c = tracer.counts
    c["residues.form.z_count"] += form.z_count
    c["residues.form.factors"] += len(form.factors)
    c["residues.form.deferred"] += len(form.deferred)
    c["residues.form.numerator_terms"] += len(form.numerator.terms)
    c["residues.result_terms"] += len(result.terms)


# (module, attribute, span name, counter hook)
TARGETS = (
    ("partitions", "enumerate_nested", "partitions.enumerate_nested", _chains),
    ("partitions", "canonical_enumeration", "partitions.canonical_enumeration", None),
    ("partitions", "all_enumerations", "partitions.all_enumerations", _enumerations),
    ("partitions", "is_nilfil", "partitions.filters", None),
    ("partitions", "is_admissible", "partitions.filters", None),
    ("partitions", "in_flag_fiber", "partitions.filters", None),
    ("weights", "fixed_ranks", "weights.fixed_ranks", None),
    ("weights", "tangent_class", "weights.multiset", _tangent),
    ("weights", "tangent_class_punctual", "weights.multiset", _tangent),
    ("weights", "obstruction_class", "weights.multiset", None),
    ("weights", "fiber_tangent_class", "weights.multiset", None),
    ("weights", "epunct_class", "weights.multiset", None),
    ("weights", "euler_class", "weights.euler_class", _euler),
    ("localization", "integrate_localization", "localization.integrate", None),
    ("localization", "contribution", "localization.contribution", None),
    ("localization", "restrict_class", "localization.restrict_class", _restrict),
    ("algebra", "sum_factored", "algebra.sum_factored", _sum),
    ("algebra", "exact_divide_linear", "algebra.exact_divide_linear", _divide),
    ("residues", "iterated_residue", "residues.iterated_residue", _residue),
    ("cli", "main", "cli.main", None),
    ("cli", "parse_class_spec", "cli.parse_class_spec", None),
    ("serialize", "integral_result_to_json", "serialize", None),
    ("serialize", "rational_to_json", "serialize", None),
    ("serialize", "nested_to_json", "serialize", None),
    ("serialize", "poly_to_json", "serialize", None),
)

# FactoredRational methods, wrapped on the class itself
METHODS = (("simplify", "algebra.simplify"), ("build", "algebra.build"))

LAYERS = ("partitions", "weights", "localization", "algebra", "residues",
          "cli", "serialize")

# Per-layer metrics of one pass over a job list: (name, unit, better).
METRICS = (
    ("partitions.enumerate_nested.calls", "count", "lower"),
    ("partitions.enumerate_nested.self_s", "s", "lower"),
    ("partitions.chains", "count", "lower"),
    ("partitions.canonical_enumeration.self_s", "s", "lower"),
    ("partitions.all_enumerations.self_s", "s", "lower"),
    ("partitions.enumerations", "count", "lower"),
    ("partitions.filters.self_s", "s", "lower"),
    ("weights.fixed_ranks.calls", "count", "lower"),
    ("weights.fixed_ranks.self_s", "s", "lower"),
    ("weights.multiset.self_s", "s", "lower"),
    ("weights.euler_class.calls", "count", "lower"),
    ("weights.euler_class.self_s", "s", "lower"),
    ("weights.euler_class.factors", "count", "lower"),
    ("localization.integrate.self_s", "s", "lower"),
    ("localization.contribution.calls", "count", "lower"),
    ("localization.contribution.self_s", "s", "lower"),
    ("localization.restrict_class.calls", "count", "lower"),
    ("localization.restrict_class.self_s", "s", "lower"),
    ("localization.chains_in", "count", "lower"),
    ("localization.gate_pass_ratio", "ratio", "higher"),
    ("algebra.sum_factored.calls", "count", "lower"),
    ("algebra.sum_factored.self_s", "s", "lower"),
    ("algebra.sum_factored.summands", "count", "lower"),
    ("algebra.sum_factored.denominator_forms", "count", "lower"),
    ("algebra.sum_factored.denominator_degree", "count", "lower"),
    ("algebra.simplify.calls", "count", "lower"),
    ("algebra.simplify.self_s", "s", "lower"),
    ("algebra.exact_divide_linear.tried", "count", "lower"),
    ("algebra.exact_divide_linear.succeeded", "count", "lower"),
    ("algebra.exact_divide_linear.self_s", "s", "lower"),
    ("algebra.exact_divide_linear.dividend_terms", "count", "lower"),
    ("algebra.build.calls", "count", "lower"),
    ("algebra.build.self_s", "s", "lower"),
    ("residues.iterated_residue.calls", "count", "lower"),
    ("residues.iterated_residue.self_s", "s", "lower"),
    ("residues.form.z_count", "count", "lower"),
    ("residues.form.factors", "count", "lower"),
    ("residues.form.deferred", "count", "lower"),
    ("residues.form.numerator_terms", "count", "lower"),
    ("residues.result_terms", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.parse_class_spec.self_s", "s", "lower"),
    ("serialize.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
) + tuple((f"{layer}.self_share", "ratio", "lower") for layer in LAYERS) + (
    ("unattributed.self_share", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, job id]
        self._stack = [-1]
        self._saved: list = []  # (owner, attribute, original value)
        self.job = None
        self.reset()

    def reset(self) -> None:
        """Drop the totals, keeping the wrappers installed."""
        self.counts = defaultdict(int)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)

    def parent_name(self, rec) -> str | None:
        parent = rec[3]
        return self.spans[parent][0] if parent >= 0 else None

    def _wrap(self, fn, name: str, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1], self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, rec, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for module, attr, name, hook in TARGETS:
            fn = getattr(sys.modules[f"nahilb.{module}"], attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, name, hook))
        sites = [m for key, m in list(sys.modules.items())
                 if key == "nahilb" or key.startswith("nahilb.")]
        try:
            for module in sites:
                for attr, value in list(vars(module).items()):
                    found = wrappers.get(id(value))
                    if found is not None and found[0] is value:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, found[1])
            cls = algebra.FactoredRational
            for attr, name in METHODS:
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, name, None))
                else:
                    wrapped = self._wrap(original, name, None)
                setattr(cls, attr, wrapped)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def end_job(self) -> None:
        """Fold the finished job's spans into the totals and drop them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            self.calls[name] += 1
            self.self_s[name] += end - start - child[i]
        spans.clear()

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Every metric in METRICS for the pass folded since `reset()`."""
        chains = self.counts["localization.chains_in"]
        layer_s = defaultdict(float)
        for span, seconds in self.self_s.items():
            layer_s[span.split(".")[0]] += seconds
        derived = {
            "localization.gate_pass_ratio": (
                self.counts["localization.gate_passed"] / chains if chains else 0.0),
            "unattributed.self_share": 1.0 - sum(layer_s.values()) / traced_wall,
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        }
        for layer in LAYERS:
            derived[f"{layer}.self_share"] = layer_s[layer] / traced_wall
        out = {}
        for name, _, _ in METRICS:
            span, _, field = name.rpartition(".")
            if name in derived:
                out[name] = derived[name]
            elif field == "self_s":
                out[name] = self.self_s[span]
            elif field in ("calls", "tried"):
                out[name] = self.calls[span]
            else:
                out[name] = self.counts[name]
        return out
