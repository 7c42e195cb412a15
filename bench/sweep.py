"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 bench/sweep.py --seeds 0-9 --seconds 20 [--workloads sim-binary,...]
                           [--trace 0|1] [--out summary.json]

Runs ``bench/run.py`` once per (workload, seed), one after another, and
reports per metric the median, the quartiles (``statistics.quantiles``, n=4)
and the spread (q3 - q1) / median.  The JSON summary also records the
environment: git commit when available, nproc, and the Python, numpy, scipy
and mpmath versions.  Compare two commits only with the same seeds,
seconds and benchmark code.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sim-binary", "martingale-stick", "analytics-series")


def _seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _metrics(stdout):
    """(JSON result, {name: (value, unit)} from the human-readable lines)."""
    lines = stdout.strip().splitlines()
    shown = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            try:
                shown[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return json.loads(lines[-1]), shown


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def environment():
    import mpmath
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"commit": commit, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "machine": platform.machine()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    seeds = _seeds(args.seeds)
    doc = {"environment": environment(), "seeds": seeds, "seconds": args.seconds,
           "trace": args.trace, "workloads": {}}
    for wl in args.workloads.split(","):
        runs = {}
        for seed in seeds:
            proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", wl,
                                   "--seed", str(seed), "--seconds", repr(args.seconds),
                                   "--trace", str(args.trace)], capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{wl} seed {seed} failed:\n{proc.stderr}")
            result, shown = _metrics(proc.stdout)
            if not result["correct"]:
                print(f"{wl} seed {seed}: {result['failed']} checks failed", file=sys.stderr)
            for name, (value, unit) in shown.items():
                runs.setdefault(name, {"unit": unit, "values": []})["values"].append(value)
            for name, m in result["metrics"].items():  # full digits where the JSON has them
                runs[name]["values"][-1] = m["value"]
        summary = {name: dict(summarise(r["values"]), unit=r["unit"], values=r["values"])
                   for name, r in runs.items()}
        doc["workloads"][wl] = summary
        for name, s in summary.items():
            print(f"{wl:18s} {name:40s} median {s['median']:.6g} {s['unit']:6s} "
                  f"spread {s['spread']:.3f}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
