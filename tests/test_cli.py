"""Command-line contract: formats, determinism, exit codes."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

FRAGKIT = [sys.executable, "-m", "fragkit.cli"]


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    paths = {}
    for name, doc in {
        "stick": {"kind": "StickBreakingLossy", "params": {}},
        "filippov": {"kind": "FilippovPower", "params": {"lam": 2.0, "theta": 1.0}},
        "binary": {"kind": "BinaryUniformConservative", "params": {}},
        "atomic": {"kind": "UserAtomic", "params": {"groups": [{"prob": 1.0,
                                                                "sizes": [0.5, 0.5]}]}},
    }.items():
        p = d / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def run_cli(*args, check=True, timeout=None):
    proc = subprocess.run(FRAGKIT + list(args), capture_output=True, text=True, timeout=timeout)
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


def test_version_flag():
    out = run_cli("--version").stdout
    assert out.startswith("fragkit ")


def test_malthus_prints_golden_ratio(specs):
    out = run_cli("malthus", "--law", specs["stick"]).stdout.strip()
    assert abs(float(out) - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-10
    assert out.startswith("0.6180339887")


def test_law_inspect_fields(specs):
    doc = json.loads(run_cli("law", "inspect", specs["filippov"]).stdout)
    assert doc["kind"] == "FilippovPower"
    assert doc["beta_star"] == pytest.approx(1.0, abs=1e-10)
    assert doc["beta_a"] == -1.0
    assert doc["has_sampler"] is True
    assert doc["version"]
    assert doc["phi_probes"]


def test_rho_moments_csv(specs):
    lines = run_cli(
        "rho-moments", "--law", specs["filippov"], "--alpha", "1", "--kmax", "3"
    ).stdout.strip().splitlines()
    assert lines[0] == "k,moment"
    vals = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    for k, ref in ((1, 2.0), (2, 6.0), (3, 24.0)):
        assert vals[k] == pytest.approx(ref, rel=1e-12)


def test_mseries_at_zero_is_one(specs):
    doc = json.loads(
        run_cli("mseries", "--law", specs["filippov"], "--alpha", "1", "--beta", "1.3",
                "--t", "0").stdout
    )
    assert doc["value"] == 1.0


def test_gamma_matches_closed_form(specs):
    doc = json.loads(
        run_cli("gamma", "--law", specs["filippov"], "--alpha", "1", "--z", "0.5+1i",
                "--beta", "1.3").stdout
    )
    from fragkit import analytics as an

    ref = an.filippov_gamma_closed_form(0.5 + 1.0j, 1.3, 2.0, 1.0)
    got = complex(doc["value"]["re"], doc["value"]["im"])
    assert abs(got - ref) < 1e-9 * abs(ref)


def test_simulate_deterministic_across_threads(specs):
    args = ["simulate", "--law", specs["binary"], "--alpha", "1", "--tmax", "6",
            "--snapshots", "2,6", "--replicates", "30", "--seed", "9"]
    a = run_cli(*args, "--threads", "1").stdout
    b = run_cli(*args, "--threads", "4").stdout
    c = run_cli(*args, "--threads", "1").stdout
    assert a == b == c
    header, first = a.splitlines()[0], a.splitlines()[1]
    assert header == "replicate,t,n_particles,M_beta_star,frozen_bound"
    assert first.startswith("0,2.0,")


def test_simulate_dump_sizes(specs, tmp_path):
    dump = tmp_path / "sizes.csv"
    out = run_cli(
        "simulate", "--law", specs["binary"], "--alpha", "1", "--tmax", "4",
        "--snapshots", "4", "--replicates", "5", "--seed", "2", "--dump", str(dump)
    ).stdout
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "replicate,t,size"
    n_expected = sum(int(l.split(",")[2]) for l in out.strip().splitlines()[1:])
    assert len(lines) - 1 == n_expected
    sizes = [float(l.split(",")[2]) for l in lines[1:]]
    assert all(0 < s <= 1 for s in sizes)


def test_tagged_path_ends_at_size_zero(specs):
    # at alpha = 0 the rate stays 1 after a size underflows to 0.0; the path
    # must end there instead of jumping on until t = 1e7
    out = run_cli("tagged", "--law", specs["binary"], "--alpha", "0", "--tmax", "1e7",
                  "--paths", "3", timeout=30).stdout.splitlines()
    assert out == ["path,final_size,scaled_size", "0,0.0,0.0", "1,0.0,0.0", "2,0.0,0.0"]


def test_tagged_at_huge_alpha_warns_nothing(specs):
    # past the first split every rate x^alpha underflows to 0: each path
    # waits for ever, and no numpy warning reaches stderr
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *FRAGKIT[1:],
                           "tagged", "--law", specs["stick"], "--alpha", "1e300",
                           "--tmax", "5", "--paths", "3"], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == 4


#: ``fragkit simulate`` rows of a law whose replicates die out: half the
#: splits leave no child, and the floor 0.5 freezes every lineage by its
#: seventh generation (0.9^7 < 0.5)
EXTINCT_LAW = {"kind": "UserAtomic", "params": {"groups": [
    {"prob": 0.5, "sizes": []}, {"prob": 0.5, "sizes": [0.9, 0.9, 0.9]}]}}
EXTINCT_ROWS = [
    "replicate,t,n_particles,M_beta_star,frozen_bound",
    "0,2.0,0,0.0,0.0", "0,40.0,0,0.0,0.0", "1,2.0,0,0.0,0.0", "1,40.0,0,0.0,0.0",
    "2,2.0,0,0.0,0.0", "2,40.0,0,0.0,0.0", "3,2.0,0,0.0,0.0", "3,40.0,0,0.0,0.0",
    "4,2.0,10,2.4444444444444446,0.0", "4,40.0,0,0.0,4.038408779149528",
    "5,2.0,0,0.0,0.0", "5,40.0,0,0.0,0.0",
    "6,2.0,18,5.06172839506173,0.0", "6,40.0,0,0.0,6.49657064471881",
    "7,2.0,3,1.1851851851851853,0.0", "7,40.0,0,0.0,0.0",
]


def test_simulate_extinct_rows(tmp_path, capsys):
    # an extinct replicate has M = 0.0 and keeps the frozen mass of its lineages
    from fragkit import cli, laws, simulate

    law = laws.from_spec(EXTINCT_LAW)
    bs = laws.malthusian_exponent(law)
    cfg = simulate.SimulationConfig(alpha=1.0, t_max=40.0, snapshot_times=(2.0, 40.0),
                                    child_floor=0.5, master_seed=5)
    early, late = simulate.natural_replicates(cfg, law, 8, beta_star=bs)
    assert late.counts.tolist() == [0] * 8 and late.power_sums(bs).tolist() == [0.0] * 8
    dead_early = (early.counts == 0).tolist()
    assert [m for m, dead in zip(early.power_sums(bs).tolist(), dead_early) if dead] == [0.0] * 5
    assert late.frozen[4] > 0 and late.frozen[6] > 0
    path = tmp_path / "extinct.json"
    path.write_text(json.dumps(EXTINCT_LAW))
    assert cli.main(["simulate", "--law", str(path), "--alpha", "1", "--tmax", "40",
                     "--snapshots", "2,40", "--replicates", "8", "--seed", "5",
                     "--floor", "0.5"]) == 0
    assert capsys.readouterr().out.splitlines() == EXTINCT_ROWS


def test_tagged_and_sample_y_csv(specs):
    out = run_cli("tagged", "--law", specs["filippov"], "--alpha", "1", "--tmax", "5",
                  "--paths", "4", "--seed", "1").stdout.strip().splitlines()
    assert out[0] == "path,final_size,scaled_size"
    assert len(out) == 5
    out2 = run_cli("sample-y", "--law", specs["filippov"], "--alpha", "1", "--n", "4",
                   "--seed", "1").stdout.strip().splitlines()
    assert out2[0] == "index,y"
    assert out2[-1].startswith("# tail_mean_bound,")
    assert all(float(l.split(",")[1]) > 0 for l in out2[1:-1])


def test_tilt_of_an_atomic_poisson_law(tmp_path, capsys):
    # sigma made of atoms alone, as a UserAtomic's is: the tilt comes from the
    # declared measure, whatever the law's kind
    from fragkit import cli

    path = tmp_path / "atoms.json"
    path.write_text(json.dumps({"kind": "UserPoisson", "params": {
        "sigma1": {"kind": "atoms", "atoms": [[0.6, 1.0]]},
        "sigma2": {"kind": "atoms", "atoms": [[0.5, 0.7], [0.25, 0.4]]}}}))
    for argv, header in ((["tagged", "--alpha", "1", "--tmax", "5", "--paths", "4"],
                          "path,final_size,scaled_size"),
                         (["sample-y", "--alpha", "1", "--n", "4"], "index,y")):
        assert cli.main([argv[0], "--law", str(path), *argv[1:], "--seed", "3"]) == 0
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert rows[0] == header and len(rows) == 5 + (argv[0] == "sample-y")
        values = [float(v) for row in rows[1:] for v in row.split(",")[1:]]
        assert all(math.isfinite(v) and v > 0 for v in values), rows
        assert captured.err == ""


def test_rho_empirical_histogram(specs, tmp_path):
    hist = tmp_path / "hist.csv"
    out = run_cli(
        "rho-empirical", "--law", specs["binary"], "--alpha", "1", "--t", "12",
        "--replicates", "300", "--seed", "5", "--hist", str(hist), "--bins", "16"
    ).stdout.strip().splitlines()
    assert out[0] == "k,moment_estimate,se"
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "bin_left,bin_right,mass"
    mass = sum(float(l.split(",")[2]) for l in lines[1:])
    # conservative law: total weight per replicate is 1; tails clipped at quantiles
    assert 0.9 < mass <= 1.0 + 1e-9


def test_validate_suite_exit_codes(specs, tmp_path):
    rep = tmp_path / "report.json"
    proc = run_cli(
        "validate", "--law", specs["binary"], "--alpha", "1", "--suite", "martingale",
        "--replicates", "200", "--seed", "3", "--t", "6", "--report", str(rep),
        check=False,
    )
    assert proc.returncode == 0
    doc = json.loads(rep.read_text())
    assert doc["all_pass"] is True and doc["checks"]
    # an absurdly strict distance threshold fails the cdf suite -> exit 2
    proc2 = run_cli(
        "validate", "--law", specs["binary"], "--alpha", "1", "--suite", "cdf",
        "--replicates", "150", "--seed", "3", "--t", "6", "--cdf-threshold", "1e-9",
        check=False,
    )
    assert proc2.returncode == 2


def test_usage_and_config_errors_exit_one(specs, tmp_path):
    assert run_cli("no-such-command", check=False).returncode == 1
    assert run_cli("malthus", "--law", "/nonexistent.json", check=False).returncode == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "FilippovPower", "params": {"lam": 2.0}}))
    assert run_cli("malthus", "--law", str(bad), check=False).returncode == 1
    unreachable = tmp_path / "noroot.json"
    unreachable.write_text(json.dumps(
        {"kind": "FilippovPower", "params": {"lam": 2.0, "theta": 1.0}, "beta_a": 1.5}
    ))
    # beta_a override above beta*: the solver cannot bracket -> config error
    assert run_cli("malthus", "--law", str(unreachable), check=False).returncode == 1


def test_simulate_zero_floor_stick_exits_one(specs):
    # infinitely many children per split: a zero floor used to loop forever
    proc = run_cli("simulate", "--law", specs["stick"], "--alpha", "1", "--tmax", "5",
                   "--snapshots", "5", "--replicates", "2", "--floor", "0",
                   check=False, timeout=60)
    assert proc.returncode == 1
    assert "floor" in proc.stderr


def test_simulate_population_cap_exits_one(specs, monkeypatch, capsys):
    import functools

    from fragkit import cli, simulate

    monkeypatch.setattr(simulate, "SimulationConfig",
                        functools.partial(simulate.SimulationConfig, max_particles=8))
    # the cap counts one replicate's particles: a short run stays under it
    assert cli.main(["simulate", "--law", specs["binary"], "--alpha", "1", "--tmax", "0.2",
                     "--snapshots", "0.2", "--replicates", "2"]) == 0
    capsys.readouterr()
    code = cli.main(["simulate", "--law", specs["binary"], "--alpha", "1", "--tmax", "30",
                     "--snapshots", "30", "--replicates", "2"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no CSV of a truncated population
    assert "more than 8 particles" in captured.err


def test_simulate_snapshot_beyond_tmax_exits_one(specs, capsys):
    from fragkit import cli

    code = cli.main(["simulate", "--law", specs["binary"], "--alpha", "1", "--tmax", "1",
                     "--snapshots", "5", "--replicates", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "--snapshots must lie in [0, --tmax]" in captured.err


def test_sample_y_refuses_an_alpha_it_cannot_finish(specs, tmp_path):
    # r = E eta^alpha rounds to 1 at alpha = 1e-300, so the series would never end;
    # at 1e-4 it would take about 5.5e5 rounds (6 s for three samples)
    for alpha in ("1e-300", "0.0001"):
        proc = run_cli("sample-y", "--law", specs["filippov"], "--alpha", alpha, "--n", "3",
                       check=False, timeout=30)
        assert proc.returncode == 1 and proc.stdout == ""
        assert f"alpha = {alpha} with eps_tail = 1e-12" in proc.stderr
        assert "rounds" in proc.stderr
    rows = run_cli("sample-y", "--law", specs["filippov"], "--alpha", "1", "--n", "3",
                   timeout=30).stdout.splitlines()
    assert rows[0] == "index,y" and len(rows) == 5
    # an atomic law's E eta^alpha underflows to 0 at alpha = 1e300: one round ends Y
    atomic = tmp_path / "atomic.json"
    atomic.write_text(json.dumps({"kind": "UserAtomic", "params": {"groups": [
        {"prob": 0.6, "sizes": [0.5, 0.5]}, {"prob": 0.4, "sizes": [0.7, 0.2, 0.1]}]}}))
    rows = run_cli("sample-y", "--law", str(atomic), "--alpha", "1e300", "--n", "2",
                   timeout=30).stdout.splitlines()
    assert rows == ["index,y", "0,0.0", "1,0.0", "# tail_mean_bound,0.0"]


#: inputs that would loop forever or print NaN sizes unless rejected
_UNENDING_OR_NAN = (
    ("sample-y", "--alpha", "1", "--n", "2", "--eps-tail", "0"),
    ("sample-y", "--alpha", "1", "--n", "2", "--eps-tail", "-1"),
    ("tagged", "--alpha", "1", "--tmax", "inf", "--paths", "2"),
    ("tagged", "--alpha", "1", "--tmax", "nan", "--paths", "2"),
    # a path reaches size 0 in finite time, where its rate x^alpha is infinite
    ("tagged", "--alpha", "-1", "--tmax", "100", "--paths", "3"),
    ("simulate", "--alpha", "1", "--tmax", "1", "--snapshots", "nan", "--replicates", "1"),
)


def test_unending_or_nan_inputs_exit_one(specs):
    # one interpreter runs every command, under a timeout that catches a hang
    argvs = [[cmd, "--law", specs["binary"], *rest] for cmd, *rest in _UNENDING_OR_NAN]
    script = ("import json\nfrom fragkit import cli\n"
              f"print(json.dumps([cli.main(argv) for argv in {argvs!r}]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.stdout.splitlines() == [json.dumps([1] * len(argvs))], proc.stderr
    assert proc.stderr.count("fragkit: ") == len(argvs)


#: the arguments each seeded subcommand needs besides --law and --seed
_SEEDED = {
    "simulate": ("--alpha", "1", "--tmax", "1", "--snapshots", "1", "--replicates", "1"),
    "tagged": ("--alpha", "1", "--tmax", "1", "--paths", "1"),
    "sample-y": ("--alpha", "1", "--n", "1"),
    "rho-empirical": ("--alpha", "1", "--t", "1", "--replicates", "1", "--hist", "h.csv"),
    "validate": ("--alpha", "1", "--replicates", "2", "--t", "1"),
}


@pytest.mark.parametrize("command", _SEEDED)
def test_seed_outside_key_range_is_a_usage_error(specs, command, capsys):
    from fragkit import cli

    # stream keys encode the seed in 8 unsigned bytes, and validate adds up to 5
    argv = [command, "--law", specs["binary"], *_SEEDED[command], "--seed"]
    for seed in ("-1", str(2**63), "1.5", "x"):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [seed])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: fragkit {command}")
        assert "seed must be an integer in [0, 2^63)" in err
    assert cli._build_parser().parse_args(argv + [str(2**63 - 1)]).seed == 2**63 - 1


#: counts below one, which the parser refuses
_BELOW_ONE = {
    "simulate-replicates": ("simulate", "--alpha", "1", "--tmax", "1", "--snapshots", "1",
                            "--replicates", "-1"),
    "tagged-paths": ("tagged", "--alpha", "1", "--tmax", "1", "--paths", "0"),
    "sample-y-n": ("sample-y", "--alpha", "1", "--n", "0"),
    "rho-moments-kmax": ("rho-moments", "--alpha", "1", "--kmax", "0"),
    "rho-empirical-bins": ("rho-empirical", "--alpha", "1", "--t", "1", "--bins", "0",
                           "--hist", "h.csv"),
    "validate-replicates": ("validate", "--alpha", "1", "--replicates", "0"),
}


@pytest.mark.parametrize("argv", _BELOW_ONE.values(), ids=_BELOW_ONE.keys())
def test_counts_below_one_are_usage_errors(specs, argv, capsys):
    from fragkit import cli

    with pytest.raises(SystemExit) as exc:
        cli.main([argv[0], "--law", specs["binary"], *argv[1:]])
    assert exc.value.code == 1
    assert "must be an integer >= 1" in capsys.readouterr().err


#: inputs that parse but have no answer: one replicate has no standard
#: error, the series and both simulations need a finite alpha >= 0 and the
#: series a finite beta, and the asymptotics, rho and Y need a finite alpha > 0
_NO_ANSWER = {
    "rho-empirical-one-replicate": ("rho-empirical", "--alpha", "1", "--t", "1",
                                    "--replicates", "1", "--hist", "{hist}"),
    "validate-one-replicate": ("validate", "--alpha", "1", "--replicates", "1", "--t", "1"),
    "rho-moments-alpha-0": ("rho-moments", "--alpha", "0", "--kmax", "2"),
    "asym-coeff-alpha-0": ("asym-coeff", "--alpha", "0", "--beta", "2"),
    "asym-coeff-alpha-negative": ("asym-coeff", "--alpha", "-1", "--beta", "2"),
    "rho-empirical-alpha-0": ("rho-empirical", "--alpha", "0", "--t", "1",
                              "--replicates", "10", "--hist", "{hist}"),
    # 171! is beyond the doubles: the moments from k = 172 on are not finite
    "rho-moments-kmax-200": ("rho-moments", "--alpha", "1", "--kmax", "200"),
    # t^(1/alpha) is past the doubles at small alpha, and so are the scaled sizes
    "tagged-alpha-1e-3": ("tagged", "--alpha", "1e-3", "--tmax", "1e7", "--paths", "3"),
    "rho-empirical-alpha-1e-3": ("rho-empirical", "--alpha", "1e-3", "--t", "10",
                                 "--replicates", "5", "--hist", "{hist}"),
    "mseries-alpha-nan": ("mseries", "--alpha", "nan", "--beta", "1.5", "--t", "3"),
    "mseries-alpha-inf": ("mseries", "--alpha", "inf", "--beta", "1.5", "--t", "3"),
    "mseries-beta-nan": ("mseries", "--alpha", "1", "--beta", "nan", "--t", "3"),
    # psi(beta + alpha n) would be read left of the abscissa
    "mseries-alpha-negative": ("mseries", "--alpha", "-0.7", "--beta", "1.5", "--t", "3"),
    "rho-moments-alpha-inf": ("rho-moments", "--alpha", "inf", "--kmax", "2"),
    "rho-empirical-alpha-inf": ("rho-empirical", "--alpha", "inf", "--t", "3",
                                "--replicates", "5", "--hist", "{hist}"),
    "sample-y-alpha-nan": ("sample-y", "--alpha", "nan", "--n", "2"),
    "sample-y-alpha-inf": ("sample-y", "--alpha", "inf", "--n", "2"),
    "simulate-alpha-inf": ("simulate", "--alpha", "inf", "--tmax", "1", "--snapshots", "1",
                           "--replicates", "2"),
    "tagged-alpha-inf": ("tagged", "--alpha", "inf", "--tmax", "1", "--paths", "2"),
}


@pytest.mark.parametrize("argv", _NO_ANSWER.values(), ids=_NO_ANSWER.keys())
def test_inputs_without_an_answer_exit_one(specs, argv, tmp_path, capsys):
    from fragkit import cli

    hist = tmp_path / "h.csv"
    argv = [a.format(hist=hist) for a in argv]
    assert cli.main([argv[0], "--law", specs["filippov"], *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not hist.exists()
    assert captured.err.startswith("fragkit: ") and "Traceback" not in captured.err


#: inputs whose error must name the bad input, not a later symptom of it
_NAMED_INPUT = {
    "mseries-stick-alpha-negative": ("stick", ("mseries", "--alpha", "-0.5", "--beta", "1.5",
                                               "--t", "3"), "alpha must be finite and >= 0"),
    "gamma-alpha-nan": ("filippov", ("gamma", "--alpha", "nan", "--z", "0.5", "--beta", "1.5"),
                        "alpha must be finite and >= 0"),
    "asym-coeff-beta-nan": ("filippov", ("asym-coeff", "--alpha", "1", "--beta", "nan"),
                            "beta must be finite"),
    "asym-coeff-alpha-inf": ("filippov", ("asym-coeff", "--alpha", "inf", "--beta", "2"),
                             "alpha must be finite and > 0"),
    # a NaN tolerance used to double K to 262144 before the product failed
    "gamma-tol-nan": ("filippov", ("gamma", "--alpha", "1", "--z", "0.5", "--beta", "1.5",
                                   "--tol", "nan"), "tol must be > 0"),
    # doubles cannot meet it: K doubles to its cap and the error names tol
    "gamma-tol-1e-20": ("filippov", ("gamma", "--alpha", "1", "--z", "0.5", "--beta", "1.5",
                                     "--tol", "1e-20"), "not stable to tol = 1e-20"),
    # C(200) = 200! and m(300, -0.99) near 1e1000 are past the doubles, and
    # g(5000, -0.99) at alpha = 1e-3 overflows on its way: JSON has no inf or NaN
    "asym-coeff-beta-200": ("filippov", ("asym-coeff", "--alpha", "1", "--beta", "200"),
                            "overflows a double"),
    "asym-coeff-beta-200+1i": ("filippov", ("asym-coeff", "--alpha", "1", "--beta", "200+1i"),
                               "overflows a double"),
    "mseries-overflow": ("filippov", ("mseries", "--alpha", "1e-3", "--beta", "-0.99",
                                      "--t", "300"), "overflows a double"),
    "gamma-overflow": ("filippov", ("gamma", "--alpha", "1e-3", "--z", "5000", "--beta",
                                    "-0.99"), "overflows a double"),
    # beta + alpha z = -1 is a pole of phi
    "gamma-at-a-pole-of-phi": ("filippov", ("gamma", "--alpha", "1", "--z", "-2.5", "--beta",
                                            "1.5"), "phi has a pole"),
    # continued far left of the abscissa, 0.5^s overflows the doubles
    "gamma-psi-past-the-doubles": ("atomic", ("gamma", "--alpha", "1", "--z", "-1100.5",
                                              "--beta", "1.3"), "is not finite in doubles"),
}


@pytest.mark.parametrize("spec, argv, message", _NAMED_INPUT.values(), ids=_NAMED_INPUT.keys())
def test_errors_name_the_bad_input(specs, spec, argv, message):
    proc = run_cli(argv[0], "--law", specs[spec], *argv[1:], check=False, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("fragkit: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_one_beta_star_everywhere(tmp_path, capsys):
    # the CLI, analytics, the simulator and the stick sampler's truncation
    # bound all use one double for beta*
    from fragkit import analytics, cli, laws, simulate
    from fragkit.rng import stream

    stick = {"kind": "StickBreakingLossy", "params": {}}
    dirichlet = {"kind": "DirichletPolynomial", "params": {"terms": [[1.2, 0.7], [0.9, 2.0]]}}
    for doc in (stick, dirichlet):
        path = tmp_path / "law.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["malthus", "--law", str(path)]) == 0
        printed = float(capsys.readouterr().out)
        assert cli.main(["law", "inspect", str(path)]) == 0
        inspected = json.loads(capsys.readouterr().out)["beta_star"]
        bs = analytics.beta_star_of(laws.from_spec(doc))
        frozen = simulate._frozen_mass_exponent(laws.from_spec(doc), None, 1e-9)
        assert printed == inspected == bs == frozen, doc["kind"]
        if doc is stick:
            stick_bs = bs
    # the lossy stick's bound: residual^b*/b* plus the b*-mass of dropped children
    floor = 0.05
    sampled, replay = stream(3, "one-beta"), stream(3, "one-beta")
    for _ in range(200):
        s = laws.StickBreakingLossy().sample_offspring(sampled, floor=floor)
        kids, residual = [], replay.random()
        while residual >= floor:
            u = replay.random()
            kids.append((1.0 - u) * residual)
            residual *= u
        bound = residual**stick_bs / stick_bs + sum(k**stick_bs for k in kids if k < floor)
        assert s.truncated_beta_mass_bound == bound


def _run_fresh(script, *args):
    """Run ``script`` in a fresh interpreter on this checkout's src; its JSON stdout."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
from fragkit import analytics, cli, laws

assert laws.malthusian_exponent(laws.BinaryUniformConservative()) == 1.0
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["simulate", "--law", sys.argv[1], "--alpha", "1", "--tmax", "30",
                     "--snapshots", "30", "--replicates", "50", "--seed", "0"])
loaded = sorted(k for k in sys.modules if k.startswith("scipy"))

# the call sites that need scipy import it on first use
fil = laws.FilippovPower(2.0, 1.0)
cdf = analytics.rho_cdf(fil, 1.0, 1.0)
integro = float(analytics.m_integro(fil, 1.0, 1.5, 1.0)(1.0))
series = analytics.m_series(fil, 1.0, 1.5, 1.0).value
phi = laws.DensityLaw(density=lambda x: 2.0, beta_a_value=-1.0).phi(1.0)
print(json.dumps({"code": code, "rows": len(out.getvalue().splitlines()), "loaded": loaded,
                  "cdf": cdf, "integro": integro, "series": series, "phi": phi}))
"""


def test_cli_path_never_loads_scipy(specs):
    # numpy carries beta*, the simulation and its CSV; scipy is imported
    # only inside the quadrature, Gauss-Jacobi and gamma call sites
    doc = _run_fresh(_NO_SCIPY_SCRIPT, specs["binary"])
    assert doc["code"] == 0 and doc["rows"] == 51
    assert doc["loaded"] == []
    # rho is the Gamma(2, 1) law here: P(G <= 1) = 1 - 2/e
    assert doc["cdf"] == pytest.approx(1.0 - 2.0 / math.e, rel=1e-12)
    assert doc["integro"] == pytest.approx(doc["series"], rel=1e-6)
    assert doc["phi"] == pytest.approx(1.0, rel=1e-9)


def _loaded(modules):
    return sorted(k for k in modules if k.split(".")[0] in ("fragkit", "mpmath"))


_IMPORT_SCRIPT = """
import json, sys
import fragkit

loaded = {}
for doc in json.loads(sys.argv[1]):
    law = fragkit.from_spec(doc)
    loaded[doc["kind"]] = [fragkit.malthusian_exponent(law),
                           sorted(k for k in sys.modules if k.split(".")[0] in ("fragkit", "mpmath"))]
print(json.dumps(loaded))
"""

#: one spec of every built-in kind whose measure has power terms only
_POWER_SPECS = [
    {"kind": "BinaryUniformConservative"},
    {"kind": "StickBreakingLossy"},
    {"kind": "StickBreakingConservative"},
    {"kind": "FilippovPower", "params": {"lam": 2.0, "theta": 0.8}},
    {"kind": "DirichletPolynomial", "params": {"terms": [[1.2, 0.7], [0.9, 2.0]]}},
    {"kind": "UserPoisson", "params": {"sigma1": {"kind": "power", "theta": 1.0},
                                       "sigma2": {"kind": "power", "mass": 1.0, "theta": 1.0}}},
]


def test_import_and_beta_star_load_only_errors_and_laws():
    # the beta* solve of a power-term law runs in exact rationals: no mpmath
    doc = _run_fresh(_IMPORT_SCRIPT, json.dumps(_POWER_SPECS))
    assert list(doc) == [d["kind"] for d in _POWER_SPECS]
    for kind, (bs, loaded) in doc.items():
        assert bs > 0, kind
        assert loaded == ["fragkit", "fragkit.errors", "fragkit.laws"], kind


_SIM_SCRIPT = """
import contextlib, io, json, sys
from fragkit import cli

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main([sys.argv[1], "--law", sys.argv[2], "--alpha", "1", "--tmax", "5",
                     *sys.argv[3:]])
print(json.dumps({"code": code, "rows": len(out.getvalue().splitlines()),
                  "loaded": sorted(k for k in sys.modules if k.startswith(("fragkit", "mpmath")))}))
"""


@pytest.mark.parametrize("argv", [("simulate", "--snapshots", "5", "--replicates", "20"),
                                  ("tagged", "--paths", "20")], ids=["simulate", "tagged"])
def test_simulate_and_tagged_never_load_mpmath(specs, argv):
    doc = _run_fresh(_SIM_SCRIPT, argv[0], specs["stick"], *argv[1:])
    assert doc["code"] == 0 and doc["rows"] == 21
    assert not [k for k in doc["loaded"] if k.startswith("mpmath")]
    assert "fragkit.analytics" not in doc["loaded"]


#: every public name ``import fragkit`` gave when it imported every submodule eagerly
_EXPORTS = (
    "ArithmeticLaw AtomComponent BinaryUniformConservative CheckResult DensityLaw "
    "DirichletPolynomial DomainError EmptySnapshot FilippovPower FragkitError "
    "GammaExtrapolation GenerationMartingaleResult IntegroSolution InvalidIntensity "
    "LawSpecError MInftyEstimate NoClosedForm NoMalthusianExponent NoQuadrature "
    "OffspringSample OracleValue PoleError Population PopulationSnapshot PowerComponent "
    "PrecisionExhausted ReproductionLaw RhoMoments RootFindingFailure SecondMomentInfinite "
    "SeriesEvaluation SimulationConfig SingularBeta StickBreakingConservative "
    "StickBreakingLossy TaggedLaw TreeSizeExceeded UnsupportedRepresentation "
    "UnsupportedSampler UnsupportedTilt UserAtomic UserPoisson ValidationReport "
    "WeightedEmpiricalMeasure YSampleResult analytics arithmetic_check "
    "asymptotic_coefficient beta_star_of cdf_distance derivative_identity_check "
    "empirical_weighted_measure errors estimate_m_infinity_moments estimators exp_decay "
    "filippov_asymptotic_coefficient filippov_gamma_closed_form from_spec gamma_n gamma_z "
    "generation_martingale homogeneous_m integral_f_rho l2_functional_test laws load_spec "
    "m_infinity_second_moment_oracle m_integro m_series malthusian_exponent "
    "mean_power_sum_test natural_replicates no_malthusian_example rational_coefficient "
    "rational_gamma rational_m rational_rho_moment rho_cdf rho_moment rho_moments rng run "
    "run_replicates sample_Y simulate snapshot_power_sum tagged_final_sizes z_check"
).split()

_EXPORTS_SCRIPT = """
import json, sys
import fragkit

listed = set(dir(fragkit))  # before any name resolves
names = json.loads(sys.argv[1])
missing = [n for n in names if n not in listed]
unresolved = [n for n in names if getattr(fragkit, n, None) is None]
print(json.dumps({"missing": missing, "unresolved": unresolved, "all": fragkit.__all__}))
"""


def test_every_export_still_resolves():
    doc = _run_fresh(_EXPORTS_SCRIPT, json.dumps(_EXPORTS))
    assert doc["missing"] == [] and doc["unresolved"] == []
    assert set(_EXPORTS) <= set(doc["all"])
    import fragkit
    from fragkit import analytics, estimators, simulate

    for module in (analytics, estimators, simulate):
        for name in _EXPORTS:
            if hasattr(module, name) and name not in ("laws", "rng"):
                assert getattr(fragkit, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        fragkit.nonexistent


def test_beta_a_override_left_of_the_abscissa_exits_one(tmp_path):
    # phi = 2/(1 + beta) has its pole at -1: an override at -5 would let the
    # series run through it (a ZeroDivisionError at beta = -1, a wrong sum at -1.5)
    spec = tmp_path / "override.json"
    spec.write_text(json.dumps({"kind": "FilippovPower", "params": {"lam": 2.0, "theta": 1.0},
                                "beta_a": -5}))
    for beta in ("-1", "-1.5"):
        proc = run_cli("mseries", "--law", str(spec), "--alpha", "1", "--beta", beta,
                       "--t", "1", check=False)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "override -5" in proc.stderr and "abscissa -1" in proc.stderr
    # at or right of the abscissa the override stands
    spec.write_text(json.dumps({"kind": "FilippovPower", "params": {"lam": 2.0, "theta": 1.0},
                                "beta_a": -1}))
    doc = json.loads(run_cli("law", "inspect", str(spec)).stdout)
    assert doc["beta_a"] == -1.0 and doc["beta_star"] == 1.0
