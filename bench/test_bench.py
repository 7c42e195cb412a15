"""Self-tests of the benchmark: span arithmetic, output checks, metric coverage.

    python3 -m pytest bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import clock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fragkit import analytics, cli, estimators, laws, rng, simulate  # noqa: E402

MODULES = {"analytics": analytics, "cli": cli, "estimators": estimators, "laws": laws,
           "rng": rng, "simulate": simulate}


def _span(name, start, end, parent, pass_id=0):
    return [name, start, end, parent, pass_id]


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def test_self_time_on_synthetic_tree():
    tree = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("simulate.run", 1.0, 7.0, 0),
        _span("rng.node_stream", 2.0, 3.0, 1),
        _span("laws.sample_offspring", 3.5, 4.0, 1),
        _span("rng.node_stream", 5.0, 6.5, 1),
        _span("estimators.z_check", 8.0, 9.0, 0),
        _span("estimators.mean_power_sum_test", 9.0, 9.5, 5),
    ]
    _, own = spans.self_times(tree)
    assert own == pytest.approx([10 - 6 - 1, 6 - 1 - 0.5 - 1.5, 1.0, 0.5, 1.5, 0.5, 0.5])
    m = spans.layer_metrics(tree, {})[0]
    assert m["rng.node_stream.calls"] == 2
    assert m["rng.node_stream.s"] == pytest.approx(2.5)
    assert m["rng.node_stream.us_per_call"] == pytest.approx(1.25e6)
    assert m["simulate.run.self_s"] == pytest.approx(3.0)
    assert m["simulate.self_us_per_split"] == pytest.approx(1.5e6)
    assert m["cli.main.self_s"] == pytest.approx(3.0)
    # nested estimator spans are counted once, through the outermost
    assert m["estimators.s"] == pytest.approx(1.0)


def test_metrics_are_split_by_pass_and_phi_counted_inside_series():
    tree = [
        _span("analytics.m_series", 0.0, 4.0, -1, pass_id=1),
        _span("laws.phi_mp", 0.5, 1.0, 0, pass_id=1),
        _span("laws.phi_mp", 1.0, 1.5, 0, pass_id=1),
        _span("laws.phi_mp", 1.5, 2.0, 0, pass_id=1),
        _span("laws.phi_mp", 5.0, 5.5, -1, pass_id=1),
        _span("analytics.m_series", 10.0, 11.0, -1, pass_id=3),
    ]
    counters = {(1, "analytics.m_series.terms"): 2.0, (3, "analytics.m_series.terms"): 7.0}
    by_pass = spans.layer_metrics(tree, counters)
    assert set(by_pass) == {1, 3}
    assert by_pass[1]["laws.phi_mp.calls"] == 4
    assert by_pass[1]["analytics.m_series.self_s"] == pytest.approx(2.5)
    assert by_pass[1]["analytics.m_series.useful_ratio"] == pytest.approx(2.0 / 3.0)
    assert by_pass[3]["analytics.m_series.terms"] == 7.0
    assert by_pass[3]["analytics.m_series.useful_ratio"] == 0.0


def test_tracer_nests_real_calls_and_restores_originals():
    originals = {
        "node_stream": rng.node_stream,
        "bs_import": analytics.malthusian_exponent,
        "psi": laws.ReproductionLaw.__dict__["psi"],
        "sample": laws.BinaryUniformConservative.__dict__["sample_offspring"],
        "z_check": estimators.z_check,
    }
    tracer = spans.Tracer()
    tracer.install(MODULES)
    try:
        config = simulate.SimulationConfig(alpha=1.0, t_max=3.0, snapshot_times=(3.0,),
                                           master_seed=1)
        simulate.run_replicates(config, laws.BinaryUniformConservative(), 3)
        analytics.gamma_z(laws.FilippovPower(2.0, 1.0), 0.3, 1.3, 1.0)
    finally:
        tracer.uninstall()
    assert rng.node_stream is originals["node_stream"]
    assert analytics.malthusian_exponent is originals["bs_import"]
    assert laws.ReproductionLaw.__dict__["psi"] is originals["psi"]
    assert laws.BinaryUniformConservative.__dict__["sample_offspring"] is originals["sample"]
    assert estimators.z_check is originals["z_check"]

    names = [s[spans.NAME] for s in tracer.spans]
    assert names.count("simulate.run") == 3
    for s in tracer.spans:
        if s[spans.NAME] == "rng.node_stream":
            assert tracer.spans[s[spans.PARENT]][spans.NAME] == "simulate.run"
    m = spans.layer_metrics(tracer.spans, tracer.counters)[0]
    assert m["rng.node_stream.calls"] == m["laws.sample_offspring.calls"] > 0
    assert m["laws.sample_offspring.children"] == 2 * m["laws.sample_offspring.calls"]
    assert m["analytics.gamma_z.K"] > 0 and m["laws.psi.calls"] > 0
    # the law's beta* was solved through the from-imported name or the laws module
    assert "laws.malthusian_exponent" in names


def test_pass_clock_scales_stages_by_the_calibration_around_them():
    cals = iter([0.05, 0.05, 0.10, 0.10, 0.10])
    pass_clock = clock.PassClock(calibrate=lambda: next(cals), reference=0.025)
    pass_clock.start()
    busy = lambda s: time.sleep(s)
    pass_clock.timed("a", busy, 0.3)  # sampled after it: mean cal 0.05
    pass_clock.timed("b", busy, 0.01)  # pending until the next sample
    pass_clock.timed("b", busy, 0.3)  # sampled after it: mean cal (0.05 + 0.10) / 2
    raw, scaled = pass_clock.stop()  # the rest: mean cal 0.10
    st = pass_clock.stages
    assert pass_clock.scaled["a"] == pytest.approx(st["a"] / 2)
    assert pass_clock.scaled["b"] == pytest.approx(st["b"] / 3)
    rest = raw - st["a"] - st["b"]
    assert scaled == pytest.approx(st["a"] / 2 + st["b"] / 3 + rest / 4)
    assert pass_clock.cals == [0.05, 0.05, 0.10, 0.10]
    assert pass_clock.speed() == pytest.approx(0.025 / 0.075)


# ---------------------------------------------------------------------------
# output checks fail on perturbed values
# ---------------------------------------------------------------------------

def _prepared(cls, tmp_path_factory, **sizes):
    wl = cls()
    for k, v in sizes.items():
        setattr(wl, k, v)
    wl.prepare(0, str(tmp_path_factory.mktemp(cls.name)))
    pass_clock = clock.PassClock()
    pass_clock.start()
    outputs = wl.run_pass(pass_clock)
    assert all(c.ok for c in wl.check(outputs)), wl.check(outputs)
    return wl, outputs


def _failing(wl, outputs):
    return {c.name for c in wl.check_outputs(outputs) if not c.ok}


def _edit_rows(csv, fn):
    head, *rows = csv.splitlines()
    rows = [r.split(",") for r in rows]
    rows = fn(rows)
    return "\n".join([head] + [",".join(r) for r in rows]) + "\n"


@pytest.fixture(scope="module")
def sim_binary(tmp_path_factory):
    return _prepared(workloads.SimBinary, tmp_path_factory, replicates=300)


def _bump(rows, col, delta, first_only=False):
    for r in rows[:1] if first_only else rows:
        r[col] = repr(float(r[col]) + delta) if col != 2 else str(int(r[col]) + delta)
    return rows


def test_sim_binary_checks_fail_on_perturbation(sim_binary):
    wl, out = sim_binary
    mass = "every row: |M_beta_star + frozen - 1| <= 1e-12"
    mean = "mean n_particles vs m(30, 0)"
    bad_m = {"csv": _edit_rows(out["csv"], lambda rows: _bump(rows, 3, 1e-9, first_only=True))}
    assert _failing(wl, bad_m) == {mass}
    missing = {"csv": _edit_rows(out["csv"], lambda rows: rows[:-1])}
    assert _failing(wl, missing) == {mass}
    more = {"csv": _edit_rows(out["csv"], lambda rows: _bump(rows, 2, 3))}
    assert _failing(wl, more) == {mean}
    garbled = {"csv": out["csv"] + "1,30.0\n"}
    assert _failing(wl, garbled) == {mass}
    reordered = {"csv": _edit_rows(out["csv"], lambda rows: rows[::-1])}
    changed = wl.check(reordered)
    assert [c.name for c in changed if not c.ok] == ["outputs identical across passes"]


@pytest.fixture(scope="module")
def martingale_stick(tmp_path_factory):
    return _prepared(workloads.MartingaleStick, tmp_path_factory, replicates=300,
                     gen_trees=300, minf_trees=1000)


def test_martingale_stick_checks_fail_on_perturbation(martingale_stick):
    wl, out = martingale_stick
    for i, t in enumerate(wl.times):
        natural = out["natural"].copy()
        natural[:, i] += 0.5
        assert _failing(wl, dict(out, natural=natural)) == {
            f"E[M(t,b*) + frozen] = 1 at t={t:g}"}
    m_tilde = out["m_tilde"].copy()
    m_tilde[:, 7] *= 1.5
    assert _failing(wl, dict(out, m_tilde=m_tilde)) == {"generation m_tilde mean = 1 for n <= 12"}
    minf = "M_inf second moment vs fixed-point oracle"
    high = dataclasses.replace(out["minf"], second_moment=out["minf"].second_moment + 1.0)
    assert _failing(wl, dict(out, minf=high)) == {minf}
    unconverged = dataclasses.replace(out["minf"], converged=False)
    assert _failing(wl, dict(out, minf=unconverged)) == {minf}


@pytest.fixture(scope="module")
def analytics_series(tmp_path_factory):
    return _prepared(workloads.AnalyticsSeries, tmp_path_factory)


def test_analytics_series_checks_fail_on_perturbation(analytics_series):
    wl, out = analytics_series
    for label, closed in (("filippov", "1F1"), ("stick", "2F2")):
        for t in workloads.SERIES_TIMES:
            series = dict(out["series"])
            series[(label, t)] *= 1 + 1e-8
            assert _failing(wl, dict(out, series=series)) == {
                f"{label} m_series vs {closed} at t={t:g}"}
    integro = dict(out["integro"])
    integro[5.0] *= 1 + 1e-5
    assert _failing(wl, dict(out, integro=integro)) == {"m_integro vs m_series on t <= 10"}
    gamma = dict(out["gamma"])
    gamma[workloads.GAMMA_GRID[2]] *= 1 + 1e-7
    assert _failing(wl, dict(out, gamma=gamma)) == {"gamma_z vs Filippov closed form"}
    asym = out["asym"] * (1 + 1e-8)
    assert _failing(wl, dict(out, asym=asym)) == {"big-float C(beta) vs Filippov closed form"}


# ---------------------------------------------------------------------------
# the command: every metric present in one short run
# ---------------------------------------------------------------------------

STAGE_METRICS = {
    "sim-binary": {"replicates_per_s"},
    "martingale-stick": {"replicates_per_s", "tree_generations_per_s"},
    "analytics-series": {"mseries_t10_ms", "mseries_t200_ms", "mseries_t1000_ms",
                         "integro_t10_ms", "gamma_z_ms"},
}


def _bench_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(STAGE_METRICS))
def test_short_run_reports_every_metric(workload, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _bench_spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    shown = {line.split()[0] for line in lines[:-1]}
    if not trace:
        assert STAGE_METRICS[workload] | {"check_fail_frac"} <= shown
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sim-binary",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
