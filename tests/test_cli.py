"""Command-line contract: formats, determinism, exit codes."""

import json
import math
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
    code = cli.main(["simulate", "--law", specs["binary"], "--alpha", "1", "--tmax", "30",
                     "--snapshots", "30", "--replicates", "2"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no CSV of a truncated population
    assert "more than 8 particles" in captured.err


#: inputs that would loop forever or print NaN sizes unless rejected
_UNENDING_OR_NAN = (
    ("sample-y", "--alpha", "1", "--n", "2", "--eps-tail", "0"),
    ("sample-y", "--alpha", "1", "--n", "2", "--eps-tail", "-1"),
    ("tagged", "--alpha", "1", "--tmax", "inf", "--paths", "2"),
    ("tagged", "--alpha", "1", "--tmax", "nan", "--paths", "2"),
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
