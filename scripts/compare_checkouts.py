"""Compare the numbers two fragkit source trees produce for the same inputs.

Usage:
    python3 scripts/compare_checkouts.py REFERENCE_SRC [CANDIDATE_SRC]

Each tree runs the same probe in its own interpreter (``PYTHONPATH`` set to
the tree's ``src`` directory; the candidate defaults to this checkout's).
For the power laws FilippovPower(2,1), (1.5,1) and (2,0.8) the probe
records offspring draws, natural-time snapshots, generation-martingale
values, the size-biased tilt and its samplers, the limit variable Y and
tagged-fragment sizes, and the closed forms ``filippov_gamma_closed_form``
and ``filippov_asymptotic_coefficient``; for one spec of every kind it records
the bytes ``fragkit law inspect`` prints and the general analytics paths:
``gamma_z``, ``asymptotic_coefficient``, ``rho_moment`` for k <= 4 and
``m_series`` at t = 1 and 30 (a FragkitError is recorded by its class name),
and the stdout and ``--dump`` bytes of ``fragkit simulate`` at alpha = 0.5, 1
and 2 (a spec with no sampler records its error class name instead).  Every
spec with a sampler also records ``sample_offspring`` draws at the floors 0.2
and 1e-12, the generation martingale's raw values and corrections, and the
terminal-martingale moments of ``estimate_m_infinity_moments``.
The report gives, per quantity, the largest
relative deviation between the trees and the bound it must stay within
(0 means bit-identical).  Exit status 1 if any bound is exceeded.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

POWER_LAWS = ((2.0, 1.0), (1.5, 1.0), (2.0, 0.8))

SPECS = {
    "binary": {"kind": "BinaryUniformConservative", "params": {}},
    "stick-lossy": {"kind": "StickBreakingLossy", "params": {}},
    "stick-conservative": {"kind": "StickBreakingConservative", "params": {}},
    "filippov-2-1": {"kind": "FilippovPower", "params": {"lam": 2.0, "theta": 1.0}},
    "filippov-2-0.8": {"kind": "FilippovPower", "params": {"lam": 2.0, "theta": 0.8}},
    "filippov-analytic": {"kind": "FilippovPower", "params": {"lam": 1.0, "theta": -0.3}},
    "dirichlet": {"kind": "DirichletPolynomial", "params": {"terms": [[1.2, 0.7], [0.9, 2.0]]}},
    "dirichlet-signed": {"kind": "DirichletPolynomial",
                         "params": {"terms": [[2.0, 1.0], [-0.1, 3.0]]}},
    "atomic": {"kind": "UserAtomic", "params": {"groups": [
        {"prob": 0.6, "sizes": [0.5, 0.5]}, {"prob": 0.4, "sizes": [0.7, 0.2, 0.1]}]}},
    "atomic-grid": {"kind": "UserAtomic", "params": {"groups": [
        {"prob": 1.0, "sizes": [0.5, 0.25, 0.125]}]}},
    "poisson-power": {"kind": "UserPoisson", "params": {
        "sigma1": {"kind": "power", "theta": 1.0},
        "sigma2": {"kind": "power", "mass": 1.0, "theta": 1.0}}},
    "poisson-atoms": {"kind": "UserPoisson", "params": {
        "sigma1": {"kind": "atoms", "atoms": [[0.6, 1.0]]},
        "sigma2": {"kind": "atoms", "atoms": [[0.5, 0.7], [0.25, 0.4]]}}},
    "override": {"kind": "FilippovPower", "params": {"lam": 2.0, "theta": 1.0},
                 "beta_a": -0.5, "arithmetic_flag": True},
}

#: (quantity prefix, relative bound); 0.0 demands identical bits
BOUNDS = (
    ("children", 0.0),
    ("snapshot_sizes", 0.0),
    ("m_tilde", 0.0),
    ("m_infinity", 0.0),
    ("child_truncation", 1e-13),
    ("snapshot_frozen", 1e-13),
    ("eta", 1e-15),
    ("eta_first", 1e-15),
    ("eta_cdf", 1e-15),
    ("sample_Y", 1e-15),
    ("tagged_final", 1e-15),
    ("inspect", 0.0),
    ("simulate_stdout", 0.0),
    ("simulate_dump", 0.0),
    ("gamma_z", 0.0),
    ("asymptotic_coefficient", 0.0),
    ("rho_moment", 0.0),
    ("m_series", 0.0),
    ("filippov_gamma", 1e-14),
    ("filippov_coefficient", 1e-14),
)


def _analytics_probe(rec, name, law):
    """General analytics paths at alpha = 1 and 0.7, beta = beta* + 0.7."""
    from fragkit import analytics
    from fragkit.errors import FragkitError

    def record(key, f):
        try:
            rec[key] = np.array([complex(v) for v in f()]).view(float)
        except FragkitError as exc:
            rec[key] = np.frombuffer(type(exc).__name__.encode(), dtype=np.uint8)

    bs = analytics.beta_star_of(law)
    for alpha in (1.0, 0.7):
        tag = f"{name} alpha={alpha:g}"
        record(f"gamma_z {tag}", lambda: [
            analytics.gamma_z(law, z, bs + 0.7, alpha).value for z in (0.4, 0.5 + 1.0j)])
        record(f"asymptotic_coefficient {tag}",
               lambda: [analytics.asymptotic_coefficient(law, bs + 0.7, alpha)])
        record(f"rho_moment {tag}",
               lambda: [analytics.rho_moment(law, k, alpha) for k in range(1, 5)])
        record(f"m_series {tag}",
               lambda: [analytics.m_series(law, t, bs + 0.7, alpha).value for t in (1.0, 30.0)])


def _sampler_probe(rec, name, law):
    """Offspring draws and generation-engine output of a law with a sampler."""
    from fragkit import analytics, simulate
    from fragkit.rng import stream

    rng = stream(8, "compare-sampler")
    kids, cut = [], []
    for i in range(2000):
        s = law.sample_offspring(rng, floor=0.2 if i % 4 == 0 else 1e-12)
        kids.append(s.sizes)
        cut.append(s.truncated_beta_mass_bound)
    rec[f"children {name}"] = np.concatenate(kids)
    rec[f"child_truncation {name}"] = np.array(cut)
    bs = analytics.beta_star_of(law)
    gen = simulate.generation_martingale(law, bs, depth=8, eps_prune=1e-4, n_trees=300,
                                         master_seed=9)
    rec[f"m_tilde {name}"] = np.concatenate([gen.m_hat, gen.correction])
    est = simulate.estimate_m_infinity_moments(law, bs, n_trees=1500, max_depth=10,
                                               master_seed=10)
    rec[f"m_infinity {name}"] = np.array([est.mean, est.mean_se, est.second_moment,
                                          est.second_moment_se, est.n_generations,
                                          est.converged])


def _simulate_probe(rec, name, path, workdir):
    """Bytes of ``fragkit simulate`` (stdout and --dump) at alpha = 0.5, 1, 2."""
    import contextlib
    import io

    from fragkit import cli
    from fragkit.errors import FragkitError

    for alpha in ("0.5", "1", "2"):
        tag = f"{name} alpha={alpha}"
        dump = os.path.join(workdir, f"{name}-{alpha}.csv")
        args = cli._build_parser().parse_args([
            "simulate", "--law", path, "--alpha", alpha, "--tmax", "5",
            "--snapshots", "0.5,2,5", "--replicates", "20", "--seed", "11",
            "--floor", "1e-4", "--dump", dump])
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                args.func(args)
        except FragkitError as exc:
            rec[f"simulate_stdout {tag}"] = np.frombuffer(type(exc).__name__.encode(),
                                                          dtype=np.uint8)
            continue
        rec[f"simulate_stdout {tag}"] = np.frombuffer(buf.getvalue().encode(), dtype=np.uint8)
        with open(dump, "rb") as fh:
            rec[f"simulate_dump {tag}"] = np.frombuffer(fh.read(), dtype=np.uint8)


def probe(out_path):
    """Record every compared quantity of the tree on sys.path into an .npz file."""
    import contextlib
    import io

    from fragkit import analytics, cli, laws, simulate
    from fragkit.rng import stream

    rec = {}
    for lam, theta in POWER_LAWS:
        law = laws.FilippovPower(lam, theta)
        tag = f"{lam:g}-{theta:g}"
        rng = stream(1, "compare-children")
        kids, cut = [], []
        for i in range(20000):
            # every fourth draw at a coarse floor, so some children are dropped
            s = law.sample_offspring(rng, floor=0.2 if i % 4 == 0 else 1e-12)
            kids.append(s.sizes)
            cut.append(s.truncated_beta_mass_bound)
        rec[f"children {tag}"] = np.concatenate(kids)
        rec[f"child_truncation {tag}"] = np.array(cut)
        cfg = simulate.SimulationConfig(alpha=1.0, t_max=5.0, snapshot_times=(1.0, 5.0),
                                        child_floor=1e-3, master_seed=2)
        reps = simulate.run_replicates(cfg, law, 200)
        rec[f"snapshot_sizes {tag}"] = np.concatenate([s.sizes for r in reps for s in r])
        rec[f"snapshot_frozen {tag}"] = np.array([s.frozen_beta_mass_bound
                                                  for r in reps for s in r])
        gen = simulate.generation_martingale(law, lam - theta, depth=8, eps_prune=1e-4,
                                             n_trees=300, master_seed=3)
        rec[f"m_tilde {tag}"] = gen.m_tilde
        bs = laws.malthusian_exponent(law, tol=1e-12)
        tilt = law.tagged(bs)
        rec[f"eta {tag}"] = tilt.sample_eta(stream(4, "compare-eta"), 100000)
        rec[f"eta_first {tag}"] = tilt.sample_eta_first(stream(5, "compare-eta0"), 100000)
        rec[f"eta_cdf {tag}"] = tilt.eta_cdf(np.linspace(0.0, 1.0, 1001))
        rec[f"sample_Y {tag}"] = simulate.sample_Y(law, 1.0, 20000, master_seed=6).values
        rec[f"tagged_final {tag}"] = simulate.tagged_final_sizes(law, 1.0, 10.0, 20000,
                                                                 master_seed=7)
        for alpha in (1.0, 0.7):
            rec[f"filippov_gamma {tag} alpha={alpha:g}"] = np.array([
                analytics.filippov_gamma_closed_form(z, b, lam, theta, alpha)
                for z in (0.3, 1.7, 0.5 + 1.0j) for b in (0.4, 1.3, 2.6)]).view(float)
            rec[f"filippov_coefficient {tag} alpha={alpha:g}"] = np.array([
                analytics.filippov_asymptotic_coefficient(lam, theta, alpha, b)
                for b in (0.0, 1.3, 2.6)])
    with tempfile.TemporaryDirectory() as d:
        for name, doc in SPECS.items():
            path = os.path.join(d, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli.main(["law", "inspect", path])
            rec[f"inspect {name}"] = np.frombuffer(buf.getvalue().encode(), dtype=np.uint8)
            _simulate_probe(rec, name, path, d)
            law = laws.from_spec(doc)
            _analytics_probe(rec, name, law)
            if law.has_sampler:
                _sampler_probe(rec, name, law)
    np.savez(out_path, **rec)


def _run_probe(src, out_path):
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, __file__, "--probe", str(out_path)], env=env, check=True)


def _deviation(a, b):
    """Largest relative deviation; inf when shapes differ."""
    if a.shape != b.shape:
        return float("inf")
    if a.dtype == np.uint8:
        return 0.0 if np.array_equal(a, b) else float("inf")
    a, b = a.astype(float), b.astype(float)
    if np.array_equal(a, b):
        return 0.0
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    return float(np.max(np.where(scale > 0, diff / np.where(scale > 0, scale, 1.0), diff)))


def main(argv):
    if len(argv) == 3 and argv[1] == "--probe":
        probe(argv[2])
        return 0
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 1
    ref_src = pathlib.Path(argv[1]).resolve()
    new_src = pathlib.Path(argv[2] if len(argv) == 3 else
                           pathlib.Path(__file__).resolve().parents[1] / "src").resolve()
    with tempfile.TemporaryDirectory() as d:
        ref_file, new_file = pathlib.Path(d, "ref.npz"), pathlib.Path(d, "new.npz")
        _run_probe(ref_src, ref_file)
        _run_probe(new_src, new_file)
        ref, new = np.load(ref_file), np.load(new_file)
        bound_of = dict(BOUNDS)
        bad = 0
        print(f"{'quantity':<52} {'max rel deviation':>18} {'bound':>8}  ok")
        for key in sorted(ref.files, key=lambda k: ([p for p, _ in BOUNDS].index(k.split()[0]), k)):
            dev = _deviation(ref[key], new[key]) if key in new.files else float("inf")
            bound = bound_of[key.split()[0]]
            ok = dev <= bound
            bad += not ok
            print(f"{key:<52} {dev:>18.3g} {bound:>8.0g}  {'yes' if ok else 'NO'}")
        print(f"{len(ref.files) - bad} of {len(ref.files)} quantities within their bounds")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
