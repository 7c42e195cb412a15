"""Child process of the benchmark; prints one JSON object as its last stdout line.

    python3 bench/worker.py setup --workload W
        fresh-interpreter set-up: ``import fragkit``, build the workload's law
        from its JSON spec, solve beta*; then one calibration.
    python3 bench/worker.py run --workload W --seed N --seconds S --trace 0|1 --out DIR
        closed-loop passes of one workload for S seconds (at least MIN_PASSES
        of each kind); with --trace 1, untraced and traced passes alternate
        and the spans are written to DIR.

Times are at reference speed (see ``clock.py``); ``_raw`` times are not.
fragkit's ``src/`` must be on PYTHONPATH; ``bench/run.py`` arranges that.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

from clock import REFERENCE_CAL_S, PassClock, calibrate

MIN_PASSES = 3
#: how a quantity scales with the reference-speed factor, by unit
_TIME_POWER = {"s": 1, "us": 1}


def _setup(workload):
    t0 = time.perf_counter()
    import fragkit

    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    doc = WORKLOADS[workload].law_doc
    t1 = time.perf_counter()
    law = fragkit.from_spec(doc)
    t2 = time.perf_counter()
    fragkit.malthusian_exponent(law, tol=1e-12)
    t3 = time.perf_counter()
    cal = calibrate()
    speed = REFERENCE_CAL_S / cal
    setup = import_s + (t3 - t1)
    return {"setup_s": setup * speed, "import_s": import_s * speed,
            "beta_star_s": (t3 - t2) * speed, "setup_raw_s": setup, "cal_s": cal}


def _run(workload, seed, seconds, trace, out):
    from fragkit import analytics, cli, estimators, laws, rng, simulate
    from spans import Tracer, layer_metrics, unit_of
    from workloads import WORKLOADS

    modules = {"analytics": analytics, "cli": cli, "estimators": estimators, "laws": laws,
               "rng": rng, "simulate": simulate}
    os.makedirs(out, exist_ok=True)
    wl = WORKLOADS[workload]()
    wl.prepare(seed, out)
    tracer = Tracer() if trace else None
    passes, checks = [], []
    layer_speed = {}
    clock = PassClock()
    start = time.perf_counter()
    while True:
        i = len(passes)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.pass_id = i
            tracer.install(modules)
        clock.start()
        try:
            outputs = wl.run_pass(clock)
            pass_checks = wl.check(outputs)
        finally:
            if traced:
                tracer.uninstall()
        raw, wall = clock.stop()
        if traced:
            layer_speed[i] = clock.speed()
        passes.append({"traced": traced, "wall_s": wall, "wall_raw_s": raw,
                       "cal_s": statistics.mean(clock.cals),
                       "stages": wl.stage_metrics(outputs, clock.scaled)})
        checks += [{"pass": i, "name": c.name, "ok": c.ok, "detail": c.detail}
                   for c in pass_checks]
        n_traced = sum(p["traced"] for p in passes)
        if (time.perf_counter() - start >= seconds and len(passes) - n_traced >= MIN_PASSES
                and (tracer is None or n_traced >= MIN_PASSES)):
            break
    doc = {"passes": passes, "checks": checks,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        layers = layer_metrics(tracer.spans, tracer.counters)
        for i, speed in layer_speed.items():
            passes[i]["layers"] = {k: v * speed**_TIME_POWER.get(unit_of(k), 0)
                                   for k, v in layers[i].items()}
        doc["trace_file"] = os.path.join(out, f"trace-{workload}-seed{seed}.csv.gz")
        tracer.write(doc["trace_file"])
    return doc


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=["setup", "run"])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", default="out")
    args = p.parse_args(argv)
    if args.mode == "setup":
        doc = _setup(args.workload)
    else:
        doc = _run(args.workload, args.seed, args.seconds, args.trace, args.out)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
