"""Compare the numbers two fragkit source trees produce for the same inputs.

Usage:
    python3 scripts/compare_checkouts.py REFERENCE_SRC [CANDIDATE_SRC]

Each tree runs the same probe in its own interpreter (``PYTHONPATH`` set to
the tree's ``src`` directory; the candidate defaults to this checkout's).
For the power laws FilippovPower(2,1), (1.5,1) and (2,0.8) the probe
records offspring draws, natural-time snapshots, generation-martingale
values and the closed forms ``filippov_gamma_closed_form`` and
``filippov_asymptotic_coefficient``; for them and for one spec of every kind
it records the size-biased tilt's draws and CDF, the limit variable Y and
tagged-fragment sizes (``_tilt_probe``).  For every spec it also records
the bytes ``fragkit law inspect`` prints and the general analytics paths:
``gamma_z``, ``asymptotic_coefficient`` (also at beta* - 0.3), ``rho_moment``
for k <= 4 and ``m_series`` at t = 1 and 30 (a FragkitError is recorded by its
class name), the Mellin data phi, psi' and ``phi_mp`` and what reads them
beyond doubles (``_mellin_probe``: C(beta) and ``gamma_z`` at the integers z = 0
and 2 at 240 bits; ``m_series_mp`` also at the benchmark's alpha = 1.3 series of
FilippovPower(2,0.8)),
and the stdout and ``--dump`` bytes of ``fragkit simulate`` at alpha = 0.5, 1
and 2 (a spec with no sampler records its error class name instead).
``m_integro`` runs to t = 5 at beta* + 0.5 (grid values and derivatives) for
FilippovPower(2,1), the lossy stick and one ``UserAtomic``, at alpha = 0.5
and 1.  ``gamma_z`` in doubles also runs where psi is continued left of the
abscissa (FilippovPower(2,1) at z = -100.5 and -7.3 + 0.4i) and for a
``DensityLaw``, whose psi is a quadrature (``_gamma_probe``).  A doubles
``gamma_z`` at a complex z or on a law with atoms, and the doubles C(beta) of
a law with atoms, are recorded as ``gamma_z_numpy`` and
``asymptotic_coefficient_numpy``: the ladder evaluates psi with numpy, whose
complex division and x**s round apart from Python's scalar arithmetic.
Every spec with a sampler also records ``sample_offspring`` draws at
the floors 0.2 and 1e-12, the generation martingale's raw values and
corrections, and the terminal-martingale moments of
``estimate_m_infinity_moments``.
The report gives, per quantity, the largest
relative deviation between the trees, against a scale floored at 1e-15, and
the bound it must stay within (0 means bit-identical).  Bytes (the CLI's
output, an error's class name) deviate by 0 or inf; an mpmath value is kept
exactly, as mantissa and exponent, so its deviation is the exact relative
difference whatever precision either tree worked at.  Exit status 1 if any bound is exceeded.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile
from fractions import Fraction

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
    "poisson-mixed": {"kind": "UserPoisson", "params": {
        "sigma1": {"kind": "power", "theta": 1.0},
        "sigma2": {"kind": "atoms", "atoms": [[0.5, 0.6], [0.3, 0.3]]}}},
    "override": {"kind": "FilippovPower", "params": {"lam": 2.0, "theta": 1.0},
                 "beta_a": -0.5, "arithmetic_flag": True},
}

#: the benchmark's series at alpha != 1: (spec, alpha, beta - beta*, times)
BENCH_SERIES = ("filippov-2-0.8", 1.3, 1.0, (10.0, 200.0, 1000.0))

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
    ("gamma_z_numpy", 1e-13),
    ("asymptotic_coefficient", 0.0),
    ("asymptotic_coefficient_numpy", 1e-13),
    ("rho_moment", 0.0),
    ("m_series", 0.0),
    ("m_integro", 1e-13),
    ("mellin", 0.0),
    ("filippov_gamma", 1e-14),
    ("filippov_coefficient", 1e-14),
)


def _or_error(f):
    """f(), or the class name of the FragkitError it raises, as bytes."""
    from fragkit.errors import FragkitError

    try:
        return f()
    except FragkitError as exc:
        return np.frombuffer(type(exc).__name__.encode(), dtype=np.uint8)


def _analytics_probe(rec, name, law):
    """General analytics paths at alpha = 1 and 0.7, beta = beta* + 0.7."""
    from fragkit import analytics

    def record(key, f):
        rec[key] = _or_error(lambda: np.array([complex(v) for v in f()]).view(float))

    bs = analytics.beta_star_of(law)
    # the doubles gamma_z evaluates psi with numpy, whose complex division and x**s
    # round apart from Python's: a complex z, or a law with atoms, takes the _numpy bound
    atoms = "_numpy" if law.atoms is not None else ""
    for alpha in (1.0, 0.7):
        tag = f"{name} alpha={alpha:g}"
        record(f"gamma_z{atoms} {tag}", lambda: [analytics.gamma_z(law, 0.4, bs + 0.7, alpha).value])
        record(f"gamma_z_numpy {tag} z=0.5+1i",
               lambda: [analytics.gamma_z(law, 0.5 + 1.0j, bs + 0.7, alpha).value])
        record(f"asymptotic_coefficient{atoms} {tag}",
               lambda: [analytics.asymptotic_coefficient(law, bs + 0.7, alpha)])
        record(f"asymptotic_coefficient{atoms} {tag} beta=b*-0.3",
               lambda: [analytics.asymptotic_coefficient(law, bs - 0.3, alpha)])
        record(f"rho_moment {tag}",
               lambda: [analytics.rho_moment(law, k, alpha) for k in range(1, 5)])
        record(f"m_series {tag}",
               lambda: [analytics.m_series(law, t, bs + 0.7, alpha).value for t in (1.0, 30.0)])


def _mp_exact(values):
    """mpmath numbers, doubles and integers as exact strings "m e" (the value m * 2^e),
    an mpc's real and imaginary parts apart; ``_deviation`` compares them exactly."""
    out = []
    for v in values:
        if isinstance(v, float):
            man, den = v.as_integer_ratio()  # den is a power of two
            out.append(f"{man} {1 - den.bit_length()}")
            continue
        for sign, man, exp, _ in getattr(v, "_mpc_", None) or [getattr(v, "_mpf_", None)
                                                                 or (v < 0, abs(v), 0, 0)]:
            out.append(f"{-man if sign else man} {exp}")
    return np.array(out)


def _mellin_probe(rec, name, law):
    """phi, psi' and phi_mp right of the abscissa, and what reads them past doubles.

    phi and psi' at five real and complex beta; phi_mp at 53, 113 and 320
    bits; the square mean E (sum xi^beta*)^2 of a law with a sampler; C(beta)
    at 240 bits, at alpha = 1 and, with tol 1e-22, at alpha = 1.3 and beta* +
    0.3 and beta* + 1.3 (z0 = 1 where beta* + 1.3 - beta* is 1.3 exactly);
    g(0, beta* + 0.7) and g(2, beta* + 0.7) at 240 bits; and m_series'
    bits, terms and mp_value at t = 0.5, 10, 200 (alpha = 1, beta* + 0.7),
    and for the spec of ``BENCH_SERIES`` also at its alpha, beta and times.
    A FragkitError is recorded by its class name.
    """
    import mpmath as mp

    from fragkit import analytics

    def record(key, f):
        rec[f"mellin {key} {name}"] = _or_error(f)

    bs = analytics.beta_star_of(law)
    betas = [bs + 0.05, bs + 0.7, bs + 2.5, bs + 0.7 + 1.5j, bs + 0.3 - 0.8j]

    def phi_mp(bits):
        with mp.workprec(bits):
            return _mp_exact([law.phi_mp(b) for b in betas])

    def series(alpha, offset, times):
        evs = [analytics.m_series(law, t, bs + offset, alpha) for t in times]
        return _mp_exact([x for ev in evs
                          for x in (ev.working_precision_bits, ev.terms_used, ev.mp_value)])

    record("phi", lambda: np.array([complex(law.phi(b)) for b in betas]).view(float))
    record("psi_prime", lambda: np.array([complex(law.psi_prime(b)) for b in betas]).view(float))
    for bits in (53, 113, 320):
        record(f"phi_mp bits={bits}", lambda: phi_mp(bits))
    if law.has_sampler:
        record("square_mean", lambda: np.array([law.offspring_square_mean(bs)], dtype=float))
    record("coefficient_mp", lambda: _mp_exact(
        [analytics.asymptotic_coefficient(law, bs + 0.7, 1.0, precision_bits=240)]))
    record("coefficient_mp alpha=1.3", lambda: _mp_exact(
        [analytics.asymptotic_coefficient(law, bs + d, 1.3, tol=1e-22, precision_bits=240)
         for d in (0.3, 1.3)]))
    record("gamma_z_mp z=0,2", lambda: _mp_exact(
        [analytics.gamma_z(law, z, bs + 0.7, 1.0, precision_bits=240).value for z in (0, 2)]))
    record("m_series_mp", lambda: series(1.0, 0.7, (0.5, 10.0, 200.0)))
    spec, alpha, offset, times = BENCH_SERIES
    if name == spec:
        record(f"m_series_mp alpha={alpha:g}", lambda: series(alpha, offset, times))


def _tilt_probe(rec, name, law):
    """The tilt's eta and first-factor draws and CDF, Y and tagged-fragment sizes.

    A tree whose ``tagged`` still takes beta* is passed the law's.  A
    FragkitError is recorded by its class name.
    """
    import inspect

    from fragkit import laws, simulate
    from fragkit.rng import stream

    def tilt():
        if inspect.signature(law.tagged).parameters:
            return law.tagged(laws.malthusian_exponent(law))
        return law.tagged()

    probes = {
        "eta": lambda: tilt().sample_eta(stream(4, "compare-eta"), 100000),
        "eta_first": lambda: tilt().sample_eta_first(stream(5, "compare-eta0"), 100000),
        "eta_cdf": lambda: tilt().eta_cdf(np.linspace(0.0, 1.0, 1001)),
        "sample_Y": lambda: simulate.sample_Y(law, 1.0, 20000, master_seed=6).values,
        "tagged_final": lambda: simulate.tagged_final_sizes(law, 1.0, 10.0, 20000,
                                                            master_seed=7),
    }
    for quantity, f in probes.items():
        rec[f"{quantity} {name}"] = _or_error(f)


def _gamma_probe(rec):
    """Doubles gamma_z with psi continued left of the abscissa, and for a DensityLaw."""
    from fragkit import analytics, laws

    fil21 = laws.from_spec(SPECS["filippov-2-1"])
    rec["gamma_z continued filippov-2-1"] = np.array(
        [complex(analytics.gamma_z(fil21, -100.5, 1.3, 1.0).value)]).view(float)
    rec["gamma_z_numpy continued filippov-2-1 z=-7.3+0.4i"] = np.array(
        [complex(analytics.gamma_z(fil21, -7.3 + 0.4j, 1.3, 1.0).value)]).view(float)
    # sigma(dx) = 2 dx, FilippovPower(2,1)'s measure, as a density
    density = laws.DensityLaw(density=lambda x: 2.0, beta_a_value=-1.0)
    rec["gamma_z density"] = np.array(
        [complex(analytics.gamma_z(density, z, 1.3, a).value)
         for z in (0.4, 0.5 + 1.0j) for a in (1.0, 0.7)]).view(float)


def _integro_probe(rec):
    """m_integro's grid values and derivatives to t = 5 at beta* + 0.5."""
    from fragkit import analytics, laws

    for name in ("filippov-2-1", "stick-lossy", "atomic"):
        law = laws.from_spec(SPECS[name])
        bs = analytics.beta_star_of(law)
        for alpha in (0.5, 1.0):
            sol = analytics.m_integro(law, 5.0, bs + 0.5, alpha)
            rec[f"m_integro {name} alpha={alpha:g}"] = np.concatenate([sol.values,
                                                                      sol.derivatives])


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
        _tilt_probe(rec, tag, law)
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
            _mellin_probe(rec, name, law)
            _tilt_probe(rec, name, law)
            if law.has_sampler:
                _sampler_probe(rec, name, law)
    _gamma_probe(rec)
    _integro_probe(rec)
    np.savez(out_path, **rec)


def _run_probe(src, out_path):
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, __file__, "--probe", str(out_path)], env=env, check=True)


#: smallest scale a deviation is measured against.  A quantity that is 0 up to
#: rounding, such as the standard error of a deterministic law's M_inf, picks
#: up noise near 1e-17 from the O(1) values it is computed from; relative to
#: its own size that noise would read as a full move of 1
SCALE_FLOOR = 1e-15


def _exact(text):
    """The Fraction an ``_mp_exact`` string denotes."""
    man, exp = map(int, text.split())
    return Fraction(man) * Fraction(2) ** exp


def _deviation(a, b):
    """Largest relative deviation, scales floored at SCALE_FLOOR; inf when shapes differ.

    Bytes deviate by 0 or inf; the exact values of ``_mp_exact`` deviate by
    their exact relative difference, whatever precision each tree used.
    """
    if a.shape != b.shape or (a.dtype.kind == "U") != (b.dtype.kind == "U"):
        return float("inf")
    if a.dtype == np.uint8:
        return 0.0 if np.array_equal(a, b) else float("inf")
    if a.dtype.kind == "U":
        floor = Fraction(SCALE_FLOOR)
        return max(float(abs(x - y) / max(abs(x), abs(y), floor))
                   for x, y in zip(map(_exact, a), map(_exact, b)))
    a, b = a.astype(float), b.astype(float)
    if np.array_equal(a, b):
        return 0.0
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), SCALE_FLOOR)
    return float(np.max(np.abs(a - b) / scale))


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
