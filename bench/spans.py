"""Spans around the public functions of each bootperc layer, from outside.

`Tracer.install()` replaces each traced function with a wrapper wherever a
caller looks the name up: in its own module, in every bootperc module that
brought it in with `from ... import`, and on the class for methods.  Each
call records [name, start, end, parent, counters] in memory; `uninstall()`
puts the originals back.  A span's self time is its duration minus the time
its child spans cover.
"""

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, counters of one call or None).  Counters
# take (args, kwargs, result) and return a dict of counts.
_FUNCTIONS = [
    ("bootperc.cli", "main", "cli", None),
    ("bootperc.experiments", "sample_gnp_marked", "experiments.sample_marked", None),
    ("bootperc.experiments", "estimate_Pki", "experiments.entry", None),
    ("bootperc.experiments", "seed_edge_sweep", "experiments.entry", None),
    ("bootperc.experiments", "susceptibility_sweep", "experiments.entry", None),
    ("bootperc.branching", "trial_rng", "branching.rng", None),
    ("bootperc.branching", "simulate_walk", "branching.walk",
     lambda a, kw, out: {
         "steps": out.steps,
         "hard_cap": out.truncation_reason == "hard_cap",
         "policy_survival": out.truncation_reason == "policy_survival",
     }),
    ("bootperc.branching", "simulate_generations", "branching.generations",
     lambda a, kw, out: {"steps": _generation_draws(a, kw, out)}),
    ("bootperc.branching", "survival_probability_mc", "branching.mc", None),
    ("bootperc.branching", "hitting_frequency_mc", "branching.mc", None),
    ("bootperc.branching", "hitting_probability_exact", "branching.exact", None),
    ("bootperc.counting", "build_count_table", "counting.table",
     lambda a, kw, out: {
         "entries": len(out.entries),
         "bytes": sum(v.__sizeof__() for v in out.entries.values()),
     }),
    ("bootperc.spectral", "companion_psi", "spectral.companion", None),
    ("bootperc.spectral", "perron", "spectral.perron",
     lambda a, kw, out: {"iterations": out.iterations}),
    ("bootperc.spectral", "dlambda_report", "spectral.dlambda",
     lambda a, kw, out: {"outer_iterations": out["outer_iterations"]}),
    ("bootperc.thresholds", "verify_inequalities", "thresholds.verify",
     lambda a, kw, out: {
         "grid_points": sum(c["grid_size"] for c in out["claims"])}),
]

# (module, class, method, span name, counters); the first argument is self.
_METHODS = [
    ("bootperc.experiments", "PeelingKernel", "run", "experiments.kernel",
     lambda a, kw, out: {
         "rounds": len(out[0]) - 1,
         "infected": out[0][-1][0],
         "truncated": bool(out[1]),
         "spanning": out[0][-1][0] == a[0].graph.n,
     }),
]
_CLASSMETHODS = [
    ("bootperc.engine", "Graph", "from_arrays", "engine.csr",
     lambda a, kw, out: {"edges": out.m}),
]


def _generation_draws(args, kwargs, path) -> int:
    """Poisson draws of one simulate_generations call: one per step taken,
    plus the draw of 0 that ended an extinct path below the cap."""
    if "k_cap" in kwargs:
        k_cap = kwargs["k_cap"]
    elif len(args) > 3:
        k_cap = args[3]
    else:
        k_cap = sys.modules["bootperc.branching"].DEFAULT_K_CAP
    return len(path) - 1 + int(path[-1][0] < k_cap)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "bootperc" or key.startswith("bootperc.")]
        for mod_name, attr, name, count in _FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            traced = self._wrap(name, orig, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, traced)
        for mod_name, cls_name, attr, name, count in _METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig, count))
        for mod_name, cls_name, attr, name, count in _CLASSMETHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, classmethod(self._wrap(name, orig.__func__, count)))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def write(self, path) -> None:
        """One JSON list per line: name, start, end, parent index, counters."""
        with open(path, "w") as fp:
            for span in self.spans:
                fp.write(json.dumps(span) + "\n")

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for idx, (name, start, end, _, counters) in enumerate(self.spans):
            acc = out[name]
            acc["calls"] += 1
            acc["s"] += end - start
            acc["self_s"] += end - start - child[idx]
            for key, value in (counters or {}).items():
                acc[key] += value
        return out


# Per-layer metrics: (metric, span name, field, unit).
LAYER_METRICS = [
    ("engine.csr.s", "engine.csr", "s", "s"),
    ("engine.csr.calls", "engine.csr", "calls", "count"),
    ("engine.csr.edges", "engine.csr", "edges", "count"),
    ("experiments.sample_marked.s", "experiments.sample_marked", "s", "s"),
    ("experiments.sample_marked.calls", "experiments.sample_marked", "calls", "count"),
    ("experiments.self_s", "experiments.entry", "self_s", "s"),
    ("experiments.kernel.s", "experiments.kernel", "s", "s"),
    ("experiments.kernel.runs", "experiments.kernel", "calls", "count"),
    ("experiments.kernel.rounds", "experiments.kernel", "rounds", "count"),
    ("experiments.kernel.infected", "experiments.kernel", "infected", "count"),
    ("experiments.kernel.truncated", "experiments.kernel", "truncated", "count"),
    ("experiments.kernel.spanning", "experiments.kernel", "spanning", "count"),
    ("branching.rng.s", "branching.rng", "s", "s"),
    ("branching.rng.calls", "branching.rng", "calls", "count"),
    ("branching.walk.self_s", "branching.walk", "self_s", "s"),
    ("branching.walk.calls", "branching.walk", "calls", "count"),
    ("branching.walk.steps", "branching.walk", "steps", "count"),
    ("branching.walk.hard_cap", "branching.walk", "hard_cap", "count"),
    ("branching.walk.policy_survival", "branching.walk", "policy_survival", "count"),
    ("branching.generations.self_s", "branching.generations", "self_s", "s"),
    ("branching.generations.calls", "branching.generations", "calls", "count"),
    ("branching.generations.steps", "branching.generations", "steps", "count"),
    ("counting.table.s", "counting.table", "s", "s"),
    ("counting.table.entries", "counting.table", "entries", "count"),
    ("counting.table.bytes", "counting.table", "bytes", "bytes"),
    ("spectral.companion.s", "spectral.companion", "s", "s"),
    ("spectral.perron.s", "spectral.perron", "s", "s"),
    ("spectral.perron.calls", "spectral.perron", "calls", "count"),
    ("spectral.perron.iterations", "spectral.perron", "iterations", "count"),
    ("spectral.dlambda.s", "spectral.dlambda", "s", "s"),
    ("spectral.dlambda.outer_iterations", "spectral.dlambda", "outer_iterations", "count"),
    ("thresholds.verify.s", "thresholds.verify", "s", "s"),
    ("thresholds.verify.grid_points", "thresholds.verify", "grid_points", "count"),
    ("cli.self_s", "cli", "self_s", "s"),
]


def layer_metrics(totals: dict) -> dict:
    """Every per-layer metric but trace.overhead_s; 0 where a layer did not run."""
    metrics = {}
    for metric, span, field, unit in LAYER_METRICS:
        value = totals[span][field] if span in totals else 0.0
        metrics[metric] = {"value": value if unit == "s" else int(value), "unit": unit}
    kernel = totals.get("experiments.kernel")
    ratio = kernel["spanning"] / kernel["calls"] if kernel else 0.0
    metrics["experiments.kernel.spanning_per_run"] = {"value": ratio, "unit": "ratio"}
    return metrics
