"""Spans around calls into forcelab's layers, recorded from the benchmark.

A traced round wraps the public functions listed in WRAPPED, in memory,
wherever a forcelab module holds them: the defining module, the package
namespace, and any module that imported the function by name (forcing
imports `generic_filters`, for example).  Methods and `eval_formula` are
timed where the benchmark itself calls them, through `Tracer.call`.

Each span is (name, start, end, parent).  Spans stay in memory until the
round ends; `write` puts them out once.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import gc
import sys
import time

# (module, function) -> span name.  Several functions may share a span name.
WRAPPED = {
    ("poset", "generic_filters"): "poset.generic_filters",
    ("forcing", "atomic_forcing"): "forcing.atomic_forcing",
    ("forcing", "extension"): "forcing.extension",
    ("forcing", "forces"): "forcing.forces",
    ("forcing", "truth_lemma_check"): "forcing.truth_lemma_check",
    ("forcing", "truth_name"): "forcing.truth_name",
    ("forcing", "star_translate"): "forcing.star_translate",
    ("forcing", "boolean_completion"): "forcing.boolean",
    ("forcing", "boolean_values"): "forcing.boolean",
    ("forcing", "audit_boolean_algebra"): "forcing.boolean",
    ("forcing", "audit_forcing_relation"): "forcing.audit_forcing_relation",
    ("forcing", "atomic_recursion_instance"): "forcing.atomic_recursion_instance",
    ("truth", "tarski_truth"): "truth.tarski_truth",
    ("truth", "forcing_truth"): "truth.forcing_truth",
    ("truth", "invariance_check"): "truth.invariance_check",
    ("etr", "etr_solve"): "etr.etr_solve",
    ("etr", "verify_solution"): "etr.verify_solution",
    ("games", "truth_telling_game"): "games.truth_telling_game",
    ("games", "zermelo_solve"): "games.zermelo_solve",
    ("games", "verify_strategy"): "games.verify_strategy",
}

# Spans opened by the benchmark around its own calls.
CALL_SITE_SPANS = (
    "truth.forcing_truth_holds",
    "truth.iterated_holds",
    "truth.stage_translate",
    "truth.eval_formula",
    "corpus.inputs",
)

SPAN_NAMES = tuple(dict.fromkeys([*WRAPPED.values(), *CALL_SITE_SPANS]))


def _atomic_entries(args, kwargs, result):
    eager = kwargs.get("eager", args[3] if len(args) > 3 else True)
    return len(result.notion) * len(result.universe) ** 2 * 3 if eager else 0


def _steps(args, kwargs, result):
    inst = args[0]
    return inst.length * len(inst.domain)


# span name -> (counter name, count(args, kwargs, result)) for work counted
# at the same boundary as the span.
COUNTERS = {
    "poset.generic_filters": ("poset.filters", lambda a, k, res: len(res)),
    "forcing.atomic_forcing": ("forcing.atomic_entries", _atomic_entries),
    "forcing.extension": ("forcing.extension.calls", lambda a, k, res: 1),
    "forcing.forces": ("forcing.forces.calls", lambda a, k, res: 1),
    "truth.forcing_truth": ("truth.collapse_conditions", lambda a, k, res: len(res.fa)),
    "etr.etr_solve": ("etr.steps", _steps),
    "etr.verify_solution": ("etr.steps", _steps),
    "games.truth_telling_game": ("games.tt_nodes", lambda a, k, res: len(res)),
    "games.zermelo_solve": ("games.nodes_solved", lambda a, k, res: len(a[0])),
}

# Counters the workloads add themselves, from their own call sites.
CALL_SITE_COUNTERS = ("truth.tarski_instances", "truth.stage_queries")

# Hash-consed classes whose live instances are the intern tables' sizes.
INTERNED = {"hfset.interned": ("HFSet",), "names.interned": ("PName",),
            "formulas.interned": ("Formula", "Term")}

COUNTER_NAMES = tuple(dict.fromkeys(
    [c for c, _ in COUNTERS.values()] + list(CALL_SITE_COUNTERS) + list(INTERNED)))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)

    def call(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, fl):
        """Replace every forcelab binding of each WRAPPED function."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "forcelab" or n.startswith("forcelab."))]
        for (module, attr), name in WRAPPED.items():
            original = getattr(getattr(fl, module), attr)
            traced = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def write(self, path):
        """Put the spans out once, as tab-separated id, parent, name, start, end."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\n")


class Untraced:
    """The same interface with no spans, for plain rounds."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def interned_counts(fl) -> dict[str, int]:
    """Live instances of the hash-consed classes; interned values are never
    freed, so this is the size of each intern table."""
    classes = {metric: tuple(getattr(fl, c) for c in names) for metric, names in INTERNED.items()}
    out = dict.fromkeys(INTERNED, 0)
    for obj in gc.get_objects():
        for metric, cls in classes.items():
            if isinstance(obj, cls):
                out[metric] += 1
    return out
