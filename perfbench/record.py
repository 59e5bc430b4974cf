"""Record the benchmark's baseline on this machine in ``baseline.json``.

    python3 perfbench/record.py

Runs ``run.py`` once per workload and seed in ``SEEDS`` without tracing,
then ``TRACE_RUNS`` times per workload traced with seed ``TRACE_SEED``, one
run at a time.  For each workload it records the median and quartiles of
every end-to-end metric over the seeds and their spread, (q3 - q1) /
median, which is what the bounds in ``BENCHMARK.json`` are checked against;
the op latency percentiles and the wall time before speed scaling, which
are printed by ``run.py`` but not gated; and the median of each per-layer
metric over the traced runs, whose counts must repeat exactly.
``trace.overhead_frac`` of one traced run compares one traced with one
untraced pass, so it resolves no more than the few percent by which two
passes differ.  ``predictions.json`` lists the
end-to-end metrics each layer metric should move.  Exits 1 if a run fails,
a spread exceeds its bound or a count differs between the traced runs.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BASELINE = os.path.join(HERE, "baseline.json")
SEEDS = list(range(11, 21))
TRACE_SEED = 7
TRACE_RUNS = 3


def run_once(name, seed, seconds, trace):
    """One ``run.py`` process; returns its result record for ``name``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{name} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    path = os.path.join(run.OUT, f"{name}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)["workloads"][name]


def op_percentiles(name, op_ms):
    """The op latency percentiles ``run.py`` prints as defined."""
    label = "hit" if name == "cli-cache" else "op"
    tail = run.tail_percentile(len(op_ms))
    return {f"{label}_p{p}_ms": run.percentile(op_ms, p)
            for p in (50, 90) if tail is not None and p <= tail}


def summary(values, unit):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"unit": unit, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "runs": len(values)}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    seconds = bench["run_seconds"]
    out = {"machine": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                       "python": platform.python_version()},
           "git_rev": run.git_rev(), "src_lines": run.src_lines(),
           "run_seconds": seconds, "seeds": SEEDS, "trace_seed": TRACE_SEED,
           "trace_runs": TRACE_RUNS, "workloads": {}}
    ok = True
    for name in workloads.NAMES:
        runs = [run_once(name, s, seconds, 0) for s in SEEDS]
        e2e = {k: summary([r["metrics"][k] for r in runs], unit)
               for k, unit in run.END_TO_END.items()}
        ops = [op_percentiles(name, r["op_ms"]) for r in runs]
        ungated = {k: summary([o[k] for o in ops], "ms") for k in ops[0]}
        ungated["raw_wall_s"] = summary([r["raw_wall_s"] for r in runs], "s")
        traced = [run_once(name, TRACE_SEED, seconds, 1)["metrics"]
                  for _ in range(TRACE_RUNS)]
        per_layer = {k: statistics.median(t[k] for t in traced)
                     for k in tracing.PER_LAYER}
        varying = [k for k, unit in tracing.PER_LAYER.items()
                   if unit == "count" and len({t[k] for t in traced}) > 1]
        out["workloads"][name] = {
            "op_unit": workloads.OP_UNITS[name],
            "ops_per_pass": runs[0]["attempted"] // runs[0]["passes"],
            "why": why[name], "end_to_end": e2e, "ungated": ungated,
            "per_layer": per_layer,
            "overhead_frac_runs": [t["trace.overhead_frac"] for t in traced]}
        for k in varying:
            ok = False
            print(f"{name:<13} {k} differs between traced runs: "
                  f"{[t[k] for t in traced]}", flush=True)
        for k, s in {**e2e, **ungated}.items():
            bound = bounds.get(k)
            verdict = ""
            if bound is not None:
                ok &= s["spread"] <= bound
                verdict = ("over bound" if s["spread"] > bound else
                           "over a third of bound" if s["spread"] > bound / 3
                           else "ok")
            print(f"{name:<13} {k:<12} median {s['median']:11.4f} "
                  f"{s['unit']:<3} spread {s['spread']:.3f} "
                  f"bound {bound} {verdict}", flush=True)
    with open(BASELINE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
