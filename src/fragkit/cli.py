"""fragkit command line: law inspection, analytics, simulation, validation.

Output conventions: CSV on stdout for bulk numerics, JSON for scalar
reports (every JSON report embeds the build version).  All randomness is
controlled by --seed (replicate r's draws depend on the seed and r only,
results emitted in replicate order).  ``--threads`` is accepted and ignored:
replicates run serially, in the vectorised blocks of the natural-time
engine.  Every command uses the one correctly rounded beta*.  Counts must
be >= 1, and commands that print standard errors need 2 replicates.  Exit
codes: 0 success, 1 usage/configuration error (also a JSON result past the
range of a double), 2 validation-suite failure (some 3-standard-error check
failed).

The module imports ``laws`` and ``simulate`` only; a command that needs
``analytics`` or ``estimators`` imports it when it runs, so ``simulate``,
``tagged``, ``sample-y``, ``malthus`` and ``law inspect`` on a law without
atoms never load mpmath.
"""

import argparse
import cmath
import json
import math
import sys

import numpy as np

from . import __version__, laws, simulate
from .errors import DomainError, FragkitError, NoClosedForm

_PROBE_OFFSETS = (0.5, 1.0, 2.0)
_THREADS_HELP = "accepted for compatibility; has no effect (replicates run serially)"


def _fmt(x):
    """Shortest round-trip decimal; deterministic across runs and platforms."""
    return repr(float(x))


def _seed(text):
    """argparse type: a master seed in [0, 2^63), so validate's seed + 5 still
    fits the 8 unsigned bytes a stream key encodes it in."""
    if not (text.isdecimal() and int(text) < 2**63):
        raise argparse.ArgumentTypeError(f"seed must be an integer in [0, 2^63), got {text!r}")
    return int(text)


def _count(text):
    """argparse type: a number of replicates, paths, samples, moments or bins."""
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _need_two_replicates(args):
    if args.replicates < 2:  # checked when the command runs, not by the parser
        raise ValueError(f"--replicates must be >= 2 for a standard error, got {args.replicates}")


def _parse_complex(s):
    try:
        return float(s)
    except ValueError:
        return complex(s.replace("i", "j"))


def _load_law(path):
    try:
        return laws.load_spec(path)
    except (OSError, json.JSONDecodeError, FragkitError) as exc:
        raise SystemExit(f"fragkit: cannot load law spec {path}: {exc}")


def _emit_json(doc):
    doc["version"] = __version__
    print(json.dumps(doc, sort_keys=True))


def _num_or_parts(v):
    """v for a JSON report: a float, or {"re", "im"} for a complex.  DomainError
    if v is inf or NaN, which JSON cannot hold: a result past the doubles."""
    if not cmath.isfinite(v):
        raise DomainError(f"the result {v} overflows a double, and JSON has no inf or NaN")
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return float(v)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_law(args):
    if args.action != "inspect":
        raise SystemExit("fragkit law: only 'inspect' is supported")
    law = _load_law(args.spec)
    doc = {
        "kind": law.kind,
        "beta_a": None if math.isinf(law.beta_a) else law.beta_a,
        "beta_a_estimated": bool(law.beta_a_estimated),
        "arithmetic": bool(law.arithmetic),
        "atom_mass_at_one": float(law.atom_mass_at_one),
        "conservative": bool(law.conservative),
        "has_sampler": bool(law.has_sampler),
    }
    try:
        bs = laws.malthusian_exponent(law)
        doc["beta_star"] = bs
        doc["phi_probes"] = {
            _fmt(bs + d): _num_or_parts(law.phi(bs + d)) for d in _PROBE_OFFSETS
        }
    except FragkitError as exc:
        doc["beta_star"] = None
        doc["beta_star_error"] = str(exc)
    _emit_json(doc)
    return 0


def _cmd_malthus(args):
    law = _load_law(args.law)
    print(_fmt(laws.malthusian_exponent(law)))
    return 0


def _cmd_mseries(args):
    from . import analytics

    law = _load_law(args.law)
    ev = analytics.m_series(law, args.t, _parse_complex(args.beta), args.alpha,
                            rel_tol=args.rel_tol)
    _emit_json(
        {
            "value": _num_or_parts(ev.value),
            "precision_bits": ev.working_precision_bits,
            "terms": ev.terms_used,
            "digits_lost": ev.cancellation_digits_lost,
        }
    )
    return 0


def _cmd_gamma(args):
    from . import analytics

    law = _load_law(args.law)
    g = analytics.gamma_z(law, _parse_complex(args.z), _parse_complex(args.beta),
                          args.alpha, tol=args.tol)
    _emit_json(
        {
            "value": _num_or_parts(g.value),
            "truncation_K": g.truncation_K,
            "tail_estimate": g.tail_estimate,
        }
    )
    return 0


def _cmd_asym_coeff(args):
    from . import analytics

    law = _load_law(args.law)
    c = analytics.asymptotic_coefficient(law, _parse_complex(args.beta), args.alpha)
    bs = laws.malthusian_exponent(law)
    _emit_json(
        {
            "value": _num_or_parts(c),
            "beta_star": bs,
            "exponent": (bs - np.real(_parse_complex(args.beta))) / args.alpha,
        }
    )
    return 0


def _cmd_rho_moments(args):
    from . import analytics

    law = _load_law(args.law)
    moments = analytics.rho_moments(law, args.kmax, args.alpha).moments
    print("k,moment")
    for k, m in enumerate(moments, 1):
        print(f"{k},{_fmt(m)}")
    return 0


def _cmd_simulate(args):
    law = _load_law(args.law)
    times = tuple(float(x) for x in args.snapshots.split(","))
    if not all(0 <= t <= args.tmax for t in times):
        raise ValueError(f"--snapshots must lie in [0, --tmax] = [0, {args.tmax:g}]; "
                         f"got {args.snapshots}")
    cfg = simulate.SimulationConfig(
        alpha=args.alpha,
        t_max=max(times) if times else 0.0,
        snapshot_times=times,
        child_floor=args.floor,
        master_seed=args.seed,
    )
    bs = laws.malthusian_exponent(law)
    pops = simulate.natural_replicates(cfg, law, args.replicates, beta_star=bs)
    # per snapshot: its time and, per replicate, count, M(t, beta*) and frozen mass
    cols = [(_fmt(p.t), p.counts.tolist(), p.power_sums(bs).tolist(), p.frozen.tolist())
            for p in pops]
    rows = ["replicate,t,n_particles,M_beta_star,frozen_bound"]
    for r in range(args.replicates):
        rows.extend(f"{r},{t},{n[r]},{_fmt(m[r])},{_fmt(f[r])}" for t, n, m, f in cols)
    print("\n".join(rows))
    if args.dump:
        # per snapshot: its time and each replicate's sizes
        segments = [(_fmt(p.t), np.split(p.sizes, np.cumsum(p.counts)[:-1])) for p in pops]
        lines = ["replicate,t,size"]
        for r in range(args.replicates):
            for t, xs in segments:
                lines.extend(f"{r},{t},{_fmt(x)}" for x in xs[r])
        with open(args.dump, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_tagged(args):
    from . import estimators

    law = _load_law(args.law)
    sizes = simulate.tagged_final_sizes(law, args.alpha, args.tmax, args.paths,
                                        master_seed=args.seed)
    scaled = estimators.scaled_sizes(args.tmax, args.alpha, sizes) if args.alpha > 0 else sizes
    print("path,final_size,scaled_size")
    for i, (x, y) in enumerate(zip(sizes, scaled)):
        print(f"{i},{_fmt(x)},{_fmt(y)}")
    return 0


def _cmd_sample_y(args):
    law = _load_law(args.law)
    res = simulate.sample_Y(law, args.alpha, args.n, master_seed=args.seed,
                            eps_tail=args.eps_tail)
    print("index,y")
    for i, y in enumerate(res.values):
        print(f"{i},{_fmt(y)}")
    print(f"# tail_mean_bound,{_fmt(res.tail_mean_bound)}")
    return 0


def _cmd_rho_empirical(args):
    _need_two_replicates(args)
    law = _load_law(args.law)
    bs = laws.malthusian_exponent(law)
    measure = _measure(law, bs, args.alpha, args.t, args.replicates, master_seed=args.seed,
                       child_floor=args.floor)
    edges, mass = measure.histogram(n_bins=args.bins)
    with open(args.hist, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bin_left,bin_right,mass\n")
        for i in range(mass.size):
            fh.write(f"{_fmt(edges[i])},{_fmt(edges[i + 1])},{_fmt(mass[i])}\n")
    print("k,moment_estimate,se")
    for k in (1, 2, 3):
        mo, se = measure.moment(k)
        print(f"{k},{_fmt(mo)},{_fmt(se)}")
    return 0


def _measure(law, bs, alpha, t, replicates, **config):
    """Weighted empirical measure of the engine's replicates at time t."""
    from . import estimators

    cfg = simulate.SimulationConfig(alpha=alpha, t_max=t, snapshot_times=(t,), **config)
    pop, = simulate.natural_replicates(cfg, law, replicates, beta_star=bs)
    return estimators.empirical_weighted_measure(pop, alpha, bs)


def _validate_suite(law, args):
    from . import analytics, estimators

    alpha = args.alpha
    bs = laws.malthusian_exponent(law)
    report = estimators.ValidationReport()
    run_all = args.suite == "all"

    if run_all or args.suite == "moments":
        t = args.t
        measure = _measure(law, bs, alpha, t, args.replicates, master_seed=args.seed)
        for k in (1, 2):
            est, se = measure.moment(k)
            target = t**k * analytics.m_series(law, t, bs + alpha * k, alpha).value
            report.add(estimators.z_check(
                f"weighted moment k={k} at t={t:g} vs t^k m(t, b*+k a)", est, target, se,
                note=f"limit value {analytics.rho_moment(law, k, alpha):.6g}",
            ))

    if run_all or args.suite == "martingale":
        times = tuple(tt for tt in (1.0, 5.0, 20.0) if tt <= args.t) or (args.t,)
        cfg = simulate.SimulationConfig(alpha=alpha, t_max=max(times),
                                        snapshot_times=times, master_seed=args.seed + 1)
        for pop in simulate.natural_replicates(cfg, law, args.replicates, beta_star=bs):
            vals = pop.power_sums(bs) + pop.frozen
            report.add(estimators.z_check(
                f"E M(t,b*) = 1 at t={pop.t:g}", vals.mean(), 1.0,
                vals.std(ddof=1) / math.sqrt(vals.size)))
        gen = simulate.generation_martingale(law, bs, depth=8, n_trees=args.replicates,
                                             master_seed=args.seed + 2)
        mt = gen.m_tilde
        for n in (4, 8):
            report.add(estimators.z_check(
                f"E M_n = 1 at generation {n}", mt[:, n].mean(), 1.0,
                mt[:, n].std(ddof=1) / math.sqrt(mt.shape[0])))

    if run_all or args.suite == "l2":
        sub = estimators.l2_functional_test(
            law, alpha, estimators.exp_decay(), (args.t / 4, args.t),
            n_replicates=args.replicates, master_seed=args.seed + 3,
        )
        report.checks.extend(sub.checks)

    if run_all or args.suite == "cdf":
        measure = _measure(law, bs, alpha, args.t, args.replicates, master_seed=args.seed + 4)
        try:
            analytics.rho_cdf(law, alpha, 1.0)  # NoClosedForm unless psi has one pole
            target = lambda x: analytics.rho_cdf(law, alpha, x)
            tag = "closed-form gamma-type CDF"
        except NoClosedForm:
            ys = simulate.sample_Y(law, alpha, 200_000, master_seed=args.seed + 5)
            samples = np.sort(ys.values ** (1.0 / alpha))
            target = lambda x: np.searchsorted(samples, x, side="right") / samples.size
            tag = "empirical CDF of Y^(1/alpha) samples"
        d = estimators.cdf_distance(measure, target)
        report.add(estimators.CheckResult(
            f"Kolmogorov distance to {tag} at t={args.t:g}", d, 0.0, 0.0,
            0.0, bool(d < args.cdf_threshold), note=f"threshold {args.cdf_threshold:g}",
        ))
    return report


def _cmd_validate(args):
    _need_two_replicates(args)
    law = _load_law(args.law)
    report = _validate_suite(law, args)
    print(report.table())
    doc = {
        "law": args.law,
        "suite": args.suite,
        "replicates": args.replicates,
        "seed": args.seed,
        "all_pass": report.all_pass,
        "checks": [
            {
                "name": c.name,
                "estimate": c.estimate,
                "target": c.target,
                "se": c.se,
                "z": c.z,
                "passed": c.passed,
                "note": c.note,
            }
            for c in report.checks
        ],
    }
    if args.report:
        doc["version"] = __version__
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        _emit_json(doc)
    return 0 if report.all_pass else 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (code 2 is reserved for validation failures)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    p = _Parser(
        prog="fragkit",
        description="Self-similar fragmentation: simulation, analytics, validation",
    )
    p.add_argument("--version", action="version", version=f"fragkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    # the flags several commands share, each defined once as a parent parser
    law, alpha, seed, threads = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    law.add_argument("--law", required=True)
    alpha.add_argument("--alpha", type=float, required=True)
    seed.add_argument("--seed", type=_seed, default=0)
    threads.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    command = lambda name, text, *parents: sub.add_parser(name, help=text, parents=parents)

    q = command("law", "inspect a JSON law spec (flags, beta*, phi probes)")
    q.add_argument("action", choices=["inspect"])
    q.add_argument("spec")
    q.set_defaults(func=_cmd_law)

    q = command("malthus", "print the correctly rounded Malthusian exponent beta*", law)
    q.set_defaults(func=_cmd_malthus)

    q = command("mseries", "mean power sum m(t, beta) via the series", law, alpha)
    q.add_argument("--beta", required=True)
    q.add_argument("--t", type=float, required=True)
    q.add_argument("--rel-tol", type=float, default=1e-12)
    q.set_defaults(func=_cmd_mseries)

    q = command("gamma", "extrapolated product g(z, beta)", law, alpha)
    q.add_argument("--z", required=True)
    q.add_argument("--beta", required=True)
    q.add_argument("--tol", type=float, default=1e-11)
    q.set_defaults(func=_cmd_gamma)

    q = command("asym-coeff", "leading asymptotic coefficient C(beta)", law, alpha)
    q.add_argument("--beta", required=True)
    q.set_defaults(func=_cmd_asym_coeff)

    q = command("rho-moments", "CSV of limit-measure power moments", law, alpha)
    q.add_argument("--kmax", type=_count, required=True)
    q.set_defaults(func=_cmd_rho_moments)

    q = command("simulate", "natural-time simulation to CSV", law, alpha, seed, threads)
    q.add_argument("--tmax", type=float, required=True)
    q.add_argument("--snapshots", required=True, help="comma-separated times")
    q.add_argument("--replicates", type=_count, default=100)
    q.add_argument("--floor", type=float, default=1e-9)
    q.add_argument("--dump", help="also write per-particle sizes CSV here")
    q.set_defaults(func=_cmd_simulate)

    q = command("tagged", "tagged-fragment chain final sizes", law, alpha, seed)
    q.add_argument("--tmax", type=float, required=True)
    q.add_argument("--paths", type=_count, default=1000)
    q.set_defaults(func=_cmd_tagged)

    q = command("sample-y", "samples of the limit variable Y", law, alpha, seed)
    q.add_argument("--n", type=_count, default=1000)
    q.add_argument("--eps-tail", type=float, default=1e-12)
    q.set_defaults(func=_cmd_sample_y)

    q = command("rho-empirical", "weighted empirical measure histogram", law, alpha, seed, threads)
    q.add_argument("--t", type=float, required=True)
    q.add_argument("--replicates", type=_count, default=1000)
    q.add_argument("--floor", type=float, default=1e-9)
    q.add_argument("--bins", type=_count, default=40)
    q.add_argument("--hist", required=True, help="output CSV (bin_left,bin_right,mass)")
    q.set_defaults(func=_cmd_rho_empirical)

    q = command("validate", "statistical validation suites", law, alpha, seed, threads)
    q.add_argument("--suite", choices=["moments", "martingale", "l2", "cdf", "all"],
                   default="all")
    q.add_argument("--replicates", type=_count, default=2000)
    q.add_argument("--t", type=float, default=20.0)
    q.add_argument("--cdf-threshold", type=float, default=0.05)
    q.add_argument("--report", help="write the JSON report to this path")
    q.set_defaults(func=_cmd_validate)
    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except FragkitError as exc:
        print(f"fragkit: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"fragkit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
