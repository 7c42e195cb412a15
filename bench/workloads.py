"""The benchmark's three closed-loop workloads, driven through fragkit's public API.

Each workload is built from the run's seed, computes its reference values
once in ``prepare`` (untimed, untraced), and then runs passes: ``run_pass``
times its stages on a ``clock.PassClock`` and returns the outputs, ``check``
turns outputs into named pass/fail checks, and ``stage_metrics`` turns the
stage times (at reference speed) into the workload's own end-to-end rates
and latencies.  Sizes are fixed here, so a pass always does the same work
for a given seed.
"""

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from fragkit import analytics, cli, estimators, laws, simulate


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _se(x):
    return float(np.std(x, ddof=1) / math.sqrt(len(x)))


def _z(name, values, target):
    """3-SE z-test of the sample mean through fragkit's own estimator check."""
    values = np.asarray(values, dtype=float)
    res = estimators.z_check(name, float(values.mean()), target, _se(values))
    return Check(name, res.passed, f"mean {res.estimate:.6g} vs {target:.6g}, z={res.z:+.2f}")


def _rel(a, b):
    return abs(a - b) / abs(b)


class Workload:
    """Common pass bookkeeping: outputs must be identical across passes."""

    name = ""
    law_doc = None

    def __init__(self):
        self._first_digest = None

    def prepare(self, seed, workdir):
        raise NotImplementedError

    def run_pass(self, clock):
        raise NotImplementedError

    def check(self, outputs):
        digest = self.digest(outputs)
        checks = []
        if self._first_digest is None:
            self._first_digest = digest
        else:
            same = digest == self._first_digest
            checks.append(Check("outputs identical across passes", same, digest[:16]))
        return checks + self.check_outputs(outputs)

    def digest(self, outputs):
        raise NotImplementedError

    def check_outputs(self, outputs):
        raise NotImplementedError

    def stage_metrics(self, outputs, stages):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sim-binary: criterion 13's CLI simulation, in process
# ---------------------------------------------------------------------------

class SimBinary(Workload):
    """``fragkit simulate`` for the binary law, alpha=1, t=30 (criterion 13)."""

    name = "sim-binary"
    law_doc = {"kind": "BinaryUniformConservative", "params": {}}
    replicates = 1000
    t = 30.0

    def prepare(self, seed, workdir):
        self.master_seed = 2030 + seed
        self.spec = os.path.join(workdir, "binary.json")
        with open(self.spec, "w", encoding="utf-8") as fh:
            json.dump(self.law_doc, fh)
        law = laws.from_spec(self.law_doc)
        self.expected_n = analytics.m_series(law, self.t, 0.0, 1.0).value

    def run_pass(self, clock):
        argv = ["simulate", "--law", self.spec, "--alpha", "1", "--tmax", repr(self.t),
                "--snapshots", repr(self.t), "--replicates", str(self.replicates),
                "--seed", str(self.master_seed), "--threads", "1"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = clock.timed("simulate", cli.main, argv)
        if rc != 0:
            raise RuntimeError(f"fragkit simulate exited with {rc}")
        return {"csv": buf.getvalue()}

    def digest(self, outputs):
        return hashlib.sha256(outputs["csv"].encode()).hexdigest()

    def check_outputs(self, outputs):
        lines = outputs["csv"].splitlines()[1:]
        rows = [r for r in (line.split(",") for line in lines) if len(r) == 5]
        worst = max((abs(float(r[3]) + float(r[4]) - 1.0) for r in rows), default=math.inf)
        mass_ok = len(lines) == len(rows) == self.replicates and worst <= 1e-12
        return [
            Check("every row: |M_beta_star + frozen - 1| <= 1e-12", mass_ok,
                  f"{len(rows)} of {len(lines)} rows well formed, worst {worst:.1e}"),
            _z("mean n_particles vs m(30, 0)", [int(r[2]) for r in rows], self.expected_n),
        ]

    def stage_metrics(self, outputs, stages):
        return {"replicates_per_s": (self.replicates / stages["simulate"], "1/s")}


# ---------------------------------------------------------------------------
# martingale-stick: criteria 08/09 at smaller size
# ---------------------------------------------------------------------------

class MartingaleStick(Workload):
    """Lossy stick-breaking: natural-time martingale, generation engine, M_inf moments."""

    name = "martingale-stick"
    law_doc = {"kind": "StickBreakingLossy", "params": {}}
    replicates = 500
    times = (1.0, 5.0, 20.0)
    depth = 12
    gen_trees = 1000  # one batch of the generation engine
    minf_trees = 4000

    def prepare(self, seed, workdir):
        self.seed = seed
        self.law = laws.from_spec(self.law_doc)
        self.bs = analytics.beta_star_of(self.law)
        self.oracle = estimators.m_infinity_second_moment_oracle(self.law, self.bs)
        self.config = simulate.SimulationConfig(
            alpha=1.0, t_max=self.times[-1], snapshot_times=self.times, master_seed=808 + seed)

    def run_pass(self, clock):
        reps = clock.timed("natural", simulate.run_replicates, self.config, self.law,
                      self.replicates, beta_star=self.bs)
        natural = np.array([
            [simulate.snapshot_power_sum(s, self.bs) + s.frozen_beta_mass_bound for s in snaps]
            for snaps in reps
        ])
        gen = clock.timed("generation", simulate.generation_martingale, self.law, self.bs,
                     depth=self.depth, eps_prune=1e-4, n_trees=self.gen_trees,
                     master_seed=810 + self.seed)
        minf = clock.timed("m_infinity", simulate.estimate_m_infinity_moments, self.law,
                      self.bs, n_trees=self.minf_trees, master_seed=909 + self.seed)
        return {"natural": natural, "m_tilde": gen.m_tilde, "minf": minf}

    def digest(self, outputs):
        h = hashlib.sha256(outputs["natural"].tobytes())
        h.update(outputs["m_tilde"].tobytes())
        h.update(repr(outputs["minf"]).encode())
        return h.hexdigest()

    def check_outputs(self, outputs):
        checks = [_z(f"E[M(t,b*) + frozen] = 1 at t={t:g}", outputs["natural"][:, i], 1.0)
                  for i, t in enumerate(self.times)]
        gen = [_z(f"n={n}", outputs["m_tilde"][:, n], 1.0) for n in range(1, self.depth + 1)]
        failed = [f"{c.name}: {c.detail}" for c in gen if not c.ok]
        checks.append(Check(f"generation m_tilde mean = 1 for n <= {self.depth}", not failed,
                            "; ".join(failed) or "all |z| <= 3"))
        mc = outputs["minf"]
        z = (mc.second_moment - self.oracle.value) / math.hypot(mc.second_moment_se,
                                                                 self.oracle.se)
        checks.append(Check("M_inf second moment vs fixed-point oracle",
                            abs(z) <= 3.0 and mc.converged,
                            f"{mc.second_moment:.4f} vs {self.oracle.value:.4f}, z={z:+.2f}, "
                            f"converged={mc.converged}"))
        return checks

    def stage_metrics(self, outputs, stages):
        # the M_inf run's depth is chosen by its pilot batch
        gens = self.gen_trees * self.depth + self.minf_trees * outputs["minf"].n_generations
        return {
            "replicates_per_s": (self.replicates / stages["natural"], "1/s"),
            "tree_generations_per_s": (gens / (stages["generation"] + stages["m_infinity"]),
                                       "1/s"),
        }


# ---------------------------------------------------------------------------
# analytics-series: big-float analytics, no simulation
# ---------------------------------------------------------------------------

SERIES_TIMES = (10.0, 200.0, 1000.0)
#: criterion 02's grid, FilippovPower(2, 1), alpha = 1
GAMMA_GRID = tuple((z, beta) for beta in (1.3, 2.6) for z in (0.3, 1.7, 0.5 + 1.0j))
#: criterion 04's comparison times for the integro-differential oracle
INTEGRO_GRID = (0.25, 0.5, 1.0, 2.0, 3.5, 5.0, 7.5, 10.0)


class AnalyticsSeries(Workload):
    """m_series at t = 10/200/1000, m_integro to t=10, gamma_z grid, one big-float C(beta).

    The inputs are fixed; the seed only labels the run.
    """

    name = "analytics-series"
    law_doc = {"kind": "FilippovPower", "params": {"lam": 2.0, "theta": 0.8}}

    def prepare(self, seed, workdir):
        self.fil = laws.from_spec(self.law_doc)
        self.stick = laws.StickBreakingLossy()
        self.fil21 = laws.FilippovPower(2.0, 1.0)
        # (label, law, alpha, beta) at beta* + 1
        self.series_cases = (
            ("stick", self.stick, 1.0, analytics.beta_star_of(self.stick) + 1.0),
            ("filippov", self.fil, 1.3, analytics.beta_star_of(self.fil) + 1.0),
        )
        self.asym_beta = analytics.beta_star_of(self.fil) + 0.3
        self.refs = self._references()

    def _references(self):
        """Closed forms: 1F1 (power law), 2F2 (lossy stick), gamma ratios, C(beta)."""
        refs = {}
        with mp.workdps(40):
            for label, law, alpha, beta in self.series_cases:
                for t in SERIES_TIMES:
                    if label == "filippov":
                        a = (beta - analytics.beta_star_of(law)) / alpha
                        b = (beta + law.theta) / alpha
                        val = mp.hyp1f1(a, b, -t)
                    else:
                        # psi = (b - r1)(b - r2) / (b (b + 1)), r1,2 = (-1 +- sqrt 5)/2
                        r1 = (mp.sqrt(5) - 1) / 2
                        r2 = -(mp.sqrt(5) + 1) / 2
                        bm = mp.mpf(beta)
                        val = mp.hyper([bm - r1, bm - r2], [bm, bm + 1], -t)
                    refs[("series", label, t)] = float(val)
        for t in INTEGRO_GRID:
            refs[("integro", t)] = analytics.m_series(self.fil21, t, 1.5, 1.0, rel_tol=1e-13).value
        for z, beta in GAMMA_GRID:
            refs[("gamma", z, beta)] = analytics.filippov_gamma_closed_form(z, beta, 2.0, 1.0)
        refs["asym"] = analytics.filippov_asymptotic_coefficient(2.0, 0.8, 1.3, self.asym_beta)
        return refs

    def run_pass(self, clock):
        series = {}
        for t in SERIES_TIMES:
            for label, law, alpha, beta in self.series_cases:
                ev = clock.timed(f"mseries_t{t:g}", analytics.m_series, law, t, beta, alpha)
                series[(label, t)] = ev.value
        sol = clock.timed("integro", analytics.m_integro, self.fil21, 10.0, 1.5, 1.0)
        integro = {t: float(sol(t)) for t in INTEGRO_GRID}
        gamma = {}
        for z, beta in GAMMA_GRID:
            gamma[(z, beta)] = clock.timed(f"gamma_{z}_{beta}", analytics.gamma_z, self.fil21,
                                           z, beta, 1.0, tol=1e-12).value
        asym = clock.timed("asym", analytics.asymptotic_coefficient, self.fil, self.asym_beta,
                           1.3, tol=1e-22, precision_bits=240)
        return {"series": series, "integro": integro, "gamma": gamma, "asym": float(asym)}

    def digest(self, outputs):
        return hashlib.sha256(repr(sorted(outputs.items())).encode()).hexdigest()

    def check_outputs(self, outputs):
        refs = self.refs
        checks = []
        for label, closed in (("filippov", "1F1"), ("stick", "2F2")):
            for t in SERIES_TIMES:
                err = _rel(outputs["series"][(label, t)], refs[("series", label, t)])
                checks.append(Check(f"{label} m_series vs {closed} at t={t:g}", err <= 1e-10,
                                    f"rel {err:.1e} (<= 1e-10)"))
        err = max(_rel(v, refs[("integro", t)]) for t, v in outputs["integro"].items())
        checks.append(Check("m_integro vs m_series on t <= 10", err <= 1e-6,
                            f"rel {err:.1e} (<= 1e-6)"))
        err = max(_rel(v, refs[("gamma",) + k]) for k, v in outputs["gamma"].items())
        checks.append(Check("gamma_z vs Filippov closed form", err <= 1e-8,
                            f"rel {err:.1e} (<= 1e-8)"))
        err = _rel(outputs["asym"], refs["asym"])
        checks.append(Check("big-float C(beta) vs Filippov closed form", err <= 1e-10,
                            f"rel {err:.1e} (<= 1e-10)"))
        return checks

    def stage_metrics(self, outputs, stages):
        out = {f"mseries_t{t:g}_ms": (1e3 * stages[f"mseries_t{t:g}"], "ms")
               for t in SERIES_TIMES}
        out["integro_t10_ms"] = (1e3 * stages["integro"], "ms")
        grid = [stages[f"gamma_{z}_{beta}"] for z, beta in GAMMA_GRID]
        out["gamma_z_ms"] = (1e3 * float(np.median(grid)), "ms")
        return out


WORKLOADS = {w.name: w for w in (SimBinary, MartingaleStick, AnalyticsSeries)}
