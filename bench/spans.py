"""Span tracing at fragkit's module boundaries, from outside the package.

``Tracer.install`` replaces each boundary function with a wrapper at the
name its caller looks up (module attributes such as ``rng.node_stream``,
class attributes such as ``ReproductionLaw.psi``), records one span per
call in memory and restores every original on ``uninstall``.  Spans are
plain lists ``[name, start, end, parent_id, pass_id]``; counters attached
to results (children per draw, series bits, product K, ...) accumulate per
pass.  ``layer_metrics`` turns one pass's spans into the per-layer numbers
the benchmark reports, using self time = span duration minus the duration
of its direct children (calls are sequential, so children never overlap).
"""

import collections
import csv
import functools
import gzip
import inspect
import time

NAME, START, END, PARENT, PASS = range(5)

#: class methods wrapped on every reproduction-law class that defines them
LAW_METHODS = ("sample_offspring", "phi_mp", "psi")


def _children(tracer, result):
    tracer.count("laws.sample_offspring.children", result.sizes.size)


def _series(tracer, result):
    tracer.count("analytics.m_series.bits", result.working_precision_bits)
    tracer.count("analytics.m_series.terms", result.terms_used)


def _integro(tracer, result):
    tracer.count("analytics.m_integro.steps", len(result.ts) - 1)
    tracer.count("analytics.m_integro.quad_nodes", result.quad_nodes)


def _product(tracer, result):
    tracer.count("analytics.gamma_z.K", result.truncation_K)


#: (module, attribute, span name, result hook) for module-level functions
MODULE_BOUNDARIES = (
    ("cli", "main", "cli.main", None),
    ("rng", "node_stream", "rng.node_stream", None),
    ("rng", "stream", "rng.stream", None),
    ("simulate", "run", "simulate.run", None),
    ("simulate", "run_replicates", "simulate.run_replicates", None),
    ("simulate", "generation_martingale", "simulate.generation_martingale", None),
    ("simulate", "estimate_m_infinity_moments", "simulate.estimate_m_infinity_moments", None),
    ("laws", "malthusian_exponent", "laws.malthusian_exponent", None),
    # bound into analytics by ``from .laws import malthusian_exponent``
    ("analytics", "malthusian_exponent", "laws.malthusian_exponent", None),
    ("analytics", "m_series", "analytics.m_series", _series),
    ("analytics", "m_integro", "analytics.m_integro", _integro),
    ("analytics", "gamma_z", "analytics.gamma_z", _product),
    ("analytics", "asymptotic_coefficient", "analytics.asymptotic_coefficient", None),
)

_LAW_HOOKS = {"sample_offspring": _children}


class Tracer:
    """In-memory span recorder that patches fragkit's boundaries while installed."""

    def __init__(self):
        self.spans = []
        self.counters = collections.defaultdict(float)  # (pass_id, key) -> value
        self.pass_id = 0
        self._stack = []
        self._patches = []

    def count(self, key, value):
        self.counters[(self.pass_id, key)] += value

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.pass_id]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    def _patch(self, owner, attr, name, hook=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hook))

    def install(self, modules):
        """Wrap every boundary; ``modules`` maps short names to fragkit modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod, attr, name, hook in MODULE_BOUNDARIES:
            self._patch(modules[mod], attr, name, hook)
        est = modules["estimators"]
        for attr, fn in list(vars(est).items()):
            if inspect.isfunction(fn) and fn.__module__ == est.__name__ and not attr.startswith("_"):
                self._patch(est, attr, f"estimators.{attr}")
        for cls in _law_classes(modules["laws"].ReproductionLaw):
            for meth in LAW_METHODS:
                if meth in cls.__dict__:
                    self._patch(cls, meth, f"laws.{meth}", _LAW_HOOKS.get(meth))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Spans as gzipped CSV (name, start, end, parent_id, pass_id)."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent_id", "pass_id"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s[NAME], repr(s[START]), repr(s[END]), s[PARENT], s[PASS]])


def unit_of(name):
    """Unit of a per-layer metric, from its name's suffix."""
    suffix = name.rsplit(".", 1)[-1]
    return {"s": "s", "self_s": "s", "us_per_call": "us", "self_us_per_split": "us",
            "bits": "bits", "useful_ratio": "ratio", "overhead_frac": "frac"}.get(suffix, "count")


def _law_classes(base):
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def self_times(spans):
    """Per-span (duration, self time); ``spans`` is the full list (ids = indices)."""
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def _has_ancestor(spans, i, pred):
    p = spans[i][PARENT]
    while p >= 0:
        if pred(spans[p][NAME]):
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans, counters):
    """Per-layer metrics of every traced pass: {pass_id: {metric: value}}.

    Times are in seconds unless the name says otherwise; ``.s`` is inclusive
    time, ``.self_s`` excludes the spans of wrapped callees.
    """
    dur, own = self_times(spans)
    is_est = lambda n: n.startswith("estimators.")
    acc = {}
    for i, s in enumerate(spans):
        if s[PASS] not in acc:
            acc[s[PASS]] = {"calls": collections.Counter(), "incl": collections.defaultdict(float),
                            "self": collections.defaultdict(float), "phi_in_series": 0,
                            "estimators": 0.0}
        a = acc[s[PASS]]
        name = s[NAME]
        a["calls"][name] += 1
        a["incl"][name] += dur[i]
        a["self"][name] += own[i]
        if name == "laws.phi_mp" and _has_ancestor(spans, i, lambda n: n == "analytics.m_series"):
            a["phi_in_series"] += 1
        if is_est(name) and not _has_ancestor(spans, i, is_est):
            a["estimators"] += dur[i]
    return {p: _pass_metrics(a, counters, p) for p, a in acc.items()}


def _pass_metrics(a, counters, pass_id):
    calls, incl, selft = a["calls"], a["incl"], a["self"]

    def ctr(key):
        return counters.get((pass_id, key), 0.0)

    def per_call_us(name):
        return 1e6 * incl[name] / calls[name] if calls[name] else 0.0

    splits = calls["rng.node_stream"]
    terms = ctr("analytics.m_series.terms")
    return {
        "rng.node_stream.calls": calls["rng.node_stream"],
        "rng.node_stream.s": incl["rng.node_stream"],
        "rng.node_stream.us_per_call": per_call_us("rng.node_stream"),
        "rng.stream.calls": calls["rng.stream"],
        "rng.stream.s": incl["rng.stream"],
        "laws.sample_offspring.calls": calls["laws.sample_offspring"],
        "laws.sample_offspring.children": ctr("laws.sample_offspring.children"),
        "laws.sample_offspring.s": incl["laws.sample_offspring"],
        "laws.sample_offspring.us_per_call": per_call_us("laws.sample_offspring"),
        "simulate.run.calls": calls["simulate.run"],
        "simulate.run.self_s": selft["simulate.run"],
        "simulate.self_us_per_split": 1e6 * selft["simulate.run"] / splits if splits else 0.0,
        "simulate.generation_martingale.s": incl["simulate.generation_martingale"],
        "simulate.estimate_m_infinity_moments.s": incl["simulate.estimate_m_infinity_moments"],
        "laws.phi_mp.calls": calls["laws.phi_mp"],
        "laws.phi_mp.s": incl["laws.phi_mp"],
        "analytics.m_series.self_s": selft["analytics.m_series"],
        "analytics.m_series.bits": ctr("analytics.m_series.bits"),
        "analytics.m_series.terms": terms,
        "analytics.m_series.useful_ratio": terms / a["phi_in_series"] if a["phi_in_series"] else 0.0,
        "analytics.m_integro.s": incl["analytics.m_integro"],
        "analytics.m_integro.steps": ctr("analytics.m_integro.steps"),
        "analytics.m_integro.quad_nodes": ctr("analytics.m_integro.quad_nodes"),
        "laws.psi.calls": calls["laws.psi"],
        "analytics.gamma_z.s": incl["analytics.gamma_z"],
        "analytics.gamma_z.K": ctr("analytics.gamma_z.K"),
        "cli.main.self_s": selft["cli.main"],
        "estimators.s": a["estimators"],
    }
