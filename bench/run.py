"""fragkit benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 bench/run.py --workload sim-binary --seed 0 --seconds 20 --trace 0

Run from anywhere; fragkit is imported from the ``src/`` next to ``bench/``.
Set-up time is the median of SETUP_PROBES fresh child interpreters; the
workload runs closed-loop passes in one more child (so its peak RSS is its
own).  Times are at reference speed (see ``clock.py``), which cancels the
host's speed drift.  Prints one ``name value unit`` line per metric (raw
times too), the failed output
checks, and last a JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Exits 1 without that line if fragkit or a child fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import unit_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 5
#: the whole command must end within this many seconds
DEADLINE_S = 170.0


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one process, one thread: keep numpy's BLAS pool from starting workers
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(args, deadline):
    """Run ``worker.py args``, killed at ``deadline`` (monotonic); its JSON result."""
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args[:3])} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def _median(values):
    return float(statistics.median(values))


def end_to_end(setup, doc):
    """Gated metrics, plus the raw times and the workload's own rates (shown only)."""
    plain = [p for p in doc["passes"] if not p["traced"]]
    metrics = {
        "setup_s": (_median([s["setup_s"] for s in setup]), "s"),
        "wall_s": (_median([p["wall_s"] for p in plain]), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }
    shown = {k: (_median([p["stages"][k][0] for p in plain]), u)
             for k, (_, u) in plain[0]["stages"].items()}
    shown["setup_raw_s"] = (_median([s["setup_raw_s"] for s in setup]), "s")
    shown["wall_raw_s"] = (_median([p["wall_raw_s"] for p in plain]), "s")
    shown["cal_s"] = (_median([p["cal_s"] for p in plain]), "s")
    return metrics, shown


def per_layer(setup, doc):
    traced = [p for p in doc["passes"] if p["traced"]]
    plain = [p for p in doc["passes"] if not p["traced"]]
    metrics = {k: (_median([p["layers"][k] for p in traced]), unit_of(k))
               for k in traced[0]["layers"]}
    metrics["import.s"] = (_median([s["import_s"] for s in setup]), "s")
    metrics["laws.malthusian_exponent.s"] = (_median([s["beta_star_s"] for s in setup]), "s")
    wall = lambda ps: _median([p["wall_s"] for p in ps])
    metrics["trace.overhead_frac"] = (wall(traced) / wall(plain) - 1.0, "frac")
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description="fragkit benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "fragkit" / "__init__.py").is_file():
        print(f"bench: no fragkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = [_child(["setup", "--workload", args.workload], deadline)
                 for _ in range(SETUP_PROBES)]
        doc = _child(["run", "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", repr(args.seconds), "--trace", str(args.trace),
                      "--out", str(OUT)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    checks = doc["checks"]
    failed = [c for c in checks if not c["ok"]]
    n_plain = sum(not q["traced"] for q in doc["passes"])
    print(f"workload {args.workload}  seed {args.seed}  passes {n_plain} untraced, "
          f"{len(doc['passes']) - n_plain} traced  setup probes {SETUP_PROBES}")
    if args.trace:
        metrics = per_layer(setup, doc)
        print(f"spans {doc['trace_file']}")
    else:
        metrics, shown = end_to_end(setup, doc)
        for name, (value, unit) in shown.items():
            print(f"{name} {value:.6g} {unit}")
        print(f"check_fail_frac {len(failed) / len(checks):.6g} frac")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for c in failed:
        print(f"CHECK FAILED pass {c['pass']}: {c['name']}: {c['detail']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
