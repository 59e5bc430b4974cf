"""The qbases benchmark: cold-process workloads, end-to-end timings, a
traced per-layer split, and a correctness gate on every output.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from the root of a checkout that holds ``src/qbases``.  Each pass of
a workload runs its fixed call list in a fresh child process (``child.py``),
one child at a time.  Before each pass the parent times set-up alone in a
few children; it repeats that round while another fits in ``--seconds`` (by
default ``run_seconds`` of ``BENCHMARK.json``), fills the rest with set-up
children, and reports medians.  Every time is in reference seconds of
``speed.py``: the host's speed, sampled throughout each child, is taken out
of it, because on a shared host that speed drifts by tens of percent within
a run.  ``--trace 1`` instead runs one untraced and one traced pass and
reports the per-layer metrics; ``trace.overhead_frac`` compares the two
passes in reference seconds.  The last line of standard output is one
JSON object; the exit code is 0 only if every output matched its pinned
digest and no op failed.  A result file goes to ``.perfbench_out/``.
``record.py`` writes the recorded baseline to ``baseline.json``;
``predictions.json`` says which end-to-end metric each layer metric should
move.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_BATCH = 3          # set-up-only children before each pass: at least
SETUP_BATCH_S = 1.5      # this many, and for at least this long
PASS_SLACK = 0.1         # a pass may end a run this share past its budget
CHILD_TIMEOUT_S = 150
CACHE_ENV = "QBASES_CACHE"

# The end-to-end metrics of the result line.  Op latency percentiles are
# printed too, but the op order the seed picks decides which op pays for a
# shared table, so their run-to-run spread is too wide to bound them.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PERCENTILES = (99.9, 99, 95, 90, 75, 50)


# -- statistics

def percentile(values, p):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest of ``PERCENTILES`` with at least 10 of ``n`` samples
    beyond it, or None."""
    for p in PERCENTILES:
        if n * (100 - p) / 100.0 >= 10 - 1e-9:
            return p
    return None


def failed_frac(failed, attempted):
    return failed / attempted if attempted else 1.0


# -- children

def _env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop(CACHE_ENV, None)
    env.update(extra or {})
    return env


def _child(args, result_path, env=None):
    """Run one child to completion; returns (result dict or None, stdout
    bytes, seconds from spawn to exit, error text)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, CHILD] + args,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env or _env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, b"", time.perf_counter() - t0, "child timed out"
    elapsed = time.perf_counter() - t0
    result = None
    if os.path.exists(result_path):
        with open(result_path) as fh:
            result = json.load(fh)
        os.remove(result_path)
    err = None
    if result is None:
        err = (f"child exited {proc.returncode}: "
               + proc.stderr.decode(errors="replace")[-600:])
    return result, proc.stdout, elapsed, err


def _pins():
    with open(os.path.join(HERE, "pins.json")) as fh:
        return json.load(fh)


class Pass:
    """What one pass measured."""

    def __init__(self):
        self.wall_s = None
        self.raw_wall_s = None
        self.setup_s = []
        self.op_ms = []
        self.rss = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.trace = []


def in_process_pass(name, seed, k, traced, work):
    """One pass of an in-process workload; ``k`` numbers the pass, so each
    pass of a run takes its own op order from the seed."""
    p = Pass()
    res_path = os.path.join(work, f"pass{k}.json")
    args = ["pass", name, str(seed * 1000 + k), "1" if traced else "0",
            res_path]
    if traced:
        args.append(os.path.join(work, f"spans-{name}.json"))
    res, _, _, err = _child(args, res_path)
    if res is None:
        p.attempted, p.failed, p.errors = 1, 1, [err]
        return p
    p.wall_s, p.raw_wall_s = res["wall_s"], res["raw_wall_s"]
    p.setup_s = [res["setup_s"]]
    p.op_ms = res["op_ms"]
    p.rss = [res["peak_rss_mb"]]
    p.attempted, p.failed, p.errors = (res["attempted"], res["failed"],
                                       list(res["errors"]))
    pinned = _pins()[name]
    if res["digest"] != pinned:
        p.failed = p.attempted
        p.errors.append(f"output digest {res['digest']} != pinned {pinned}")
    if traced:
        p.trace.append(res["trace"])
    return p


def setup_children(name, work, setups, rss, count=0, until=None):
    """Set-up-only children: ``count`` of them, then more until the clock
    reaches ``until``; appends their set-up times and peak RSS."""
    res_path = os.path.join(work, "setup.json")
    n = 0
    while n < count or (until is not None and time.perf_counter() < until):
        res, _, _, err = _child(["setup", name, res_path], res_path)
        if res is None:
            raise RuntimeError(err)
        setups.append(res["setup_s"])
        rss.append(res["peak_rss_mb"])
        n += 1


def cli_pass(seed, k, traced, work):
    """One pass of ``cli-cache``: for each command (in the order the seed
    picks) a miss in json, then hits in each format, each in a fresh child
    with a fresh cache directory per pass."""
    p = Pass()
    pins = _pins()["cli-cache"]
    cache = os.path.join(work, f"cache{k}")
    shutil.rmtree(cache, ignore_errors=True)
    os.makedirs(cache)
    env = _env({CACHE_ENV: cache})
    res_path = os.path.join(work, "cli.json")
    commands = list(workloads.CLI_COMMANDS)
    random.Random(seed * 1000 + k).shuffle(commands)
    counts = {"cli.cache_hits": 0, "cli.cache_misses": 0, "cli.bytes_out": 0}
    wall_s = raw_wall_s = 0.0
    for n, command in enumerate(commands):
        miss_bytes = None
        for h, fmt in enumerate(("json",) + workloads.CLI_HIT_FORMATS):
            args = ["cli", "1" if traced else "0", res_path]
            if traced:
                args.append(os.path.join(work, f"spans-cli-{n}-{h}.json"))
            args += ["--"] + list(command) + ["--format", fmt]
            before = set(os.listdir(cache))
            res, out, elapsed, err = _child(args, res_path, env)
            created = len(set(os.listdir(cache)) - before)
            raw_wall_s += elapsed
            if res is not None:  # in the child's reference seconds
                elapsed = (elapsed - res["ref_spent_s"]) * res["ref_factor"]
            wall_s += elapsed
            p.attempted += 1
            is_hit = h > 0
            if is_hit:
                p.op_ms.append(elapsed * 1e3)
            counts["cli.cache_misses" if created else "cli.cache_hits"] += 1
            counts["cli.bytes_out"] += len(out)
            problems = []
            if res is None:
                problems.append(err)
            else:
                p.setup_s.append(res["setup_s"])
                p.rss.append(res["peak_rss_mb"])
                if res["exit"] != 0:
                    problems.append(f"exit code {res['exit']}")
                if traced:
                    p.trace.append(res["trace"])
            key = workloads.cli_key(command, fmt)
            digest = hashlib.sha256(out).hexdigest()
            if digest != pins[key]:
                problems.append(f"{key}: digest {digest} != pinned")
            if is_hit == bool(created):
                problems.append(f"{key}: expected a cache "
                                f"{'hit' if is_hit else 'miss'}")
            if fmt == "json":
                if miss_bytes is None:
                    miss_bytes = out
                elif out != miss_bytes:
                    problems.append(f"{key}: json hit differs from miss")
            if problems:
                p.failed += 1
                p.errors.extend(problems)
    p.wall_s, p.raw_wall_s = wall_s, raw_wall_s
    if traced:
        p.trace.append(counts)
    shutil.rmtree(cache, ignore_errors=True)
    return p


def one_pass(name, seed, k, traced, work):
    if name == "cli-cache":
        return cli_pass(seed, k, traced, work)
    return in_process_pass(name, seed, k, traced, work)


# -- runs

def measure(name, seed, seconds, work):
    """Untraced run: rounds of a batch of set-up-only children (in-process
    workloads only) and a pass, while another round as long as the last is
    expected to end within ``seconds`` plus ``PASS_SLACK`` of it (at least
    one round); then set-up-only children until ``seconds`` have gone by."""
    t0 = time.perf_counter()
    setups, rss, passes = [], [], []
    in_process = name != "cli-cache"
    last = 0.0
    while (not passes or time.perf_counter() - t0 + last
           <= seconds * (1 + PASS_SLACK)):
        t_round = time.perf_counter()
        if in_process:
            setup_children(name, work, setups, rss, count=SETUP_BATCH,
                           until=time.perf_counter() + SETUP_BATCH_S)
        passes.append(one_pass(name, seed, len(passes), False, work))
        if passes[-1].wall_s is None:
            break
        last = time.perf_counter() - t_round
    if in_process and passes[-1].wall_s is not None:
        setup_children(name, work, setups, rss, until=t0 + seconds)
    ops = [x for p in passes for x in p.op_ms]
    setups += [x for p in passes for x in p.setup_s]
    rss += [x for p in passes for x in p.rss]
    walls = [p.wall_s for p in passes if p.wall_s is not None]
    raw_walls = [p.raw_wall_s for p in passes if p.wall_s is not None]
    out = {
        "passes": len(passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": [e for p in passes for e in p.errors][:10],
        "op_ms": ops,
        "samples": {"wall_s": len(walls), "setup_s": len(setups),
                    "op_ms": len(ops), "peak_rss_mb": len(rss)},
    }
    if walls and ops:
        out["metrics"] = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(rss),
        }
        out["raw_wall_s"] = statistics.median(raw_walls)
    return out


def measure_traced(name, seed, work):
    """Traced run: one untraced pass for the overhead base, then one
    traced pass whose spans give the per-layer metrics."""
    base = one_pass(name, seed, 0, False, work)
    traced = one_pass(name, seed, 0, True, work)
    totals = tracing.merge(traced.trace)
    out = {"passes": 2, "attempted": base.attempted + traced.attempted,
           "failed": base.failed + traced.failed,
           "errors": (base.errors + traced.errors)[:10]}
    if base.wall_s and traced.wall_s:
        totals["trace.overhead_frac"] = traced.wall_s / base.wall_s - 1
        out["metrics"] = tracing.derive(totals)
    return out


# -- reporting

def src_lines():
    total = 0
    pkg = os.path.join(SRC, "qbases")
    for fn in sorted(os.listdir(pkg)):
        if fn.endswith(".py"):
            with open(os.path.join(pkg, fn), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def print_end_to_end(name, r):
    """Every end-to-end metric with its unit and sample count; op latency
    at p50, p90 and the highest percentile with 10 samples beyond it."""
    m, n, ops = r.get("metrics", {}), r["samples"], r["op_ms"]
    print(f"== {name}  ({r['passes']} passes; op = one "
          f"{workloads.OP_UNITS[name]})")
    for key, how in (("wall_s", "median"), ("setup_s", "median"),
                     ("peak_rss_mb", "max")):
        if key in m:
            print(f"  {key:<12} {m[key]:12.4f} {END_TO_END[key]:<4} "
                  f"{how} of n={n[key]}")
    if "raw_wall_s" in r:
        print(f"  {'(raw wall_s':<12} {r['raw_wall_s']:12.4f} s    "
              "median, before speed scaling)")
    label = "hit" if name == "cli-cache" else "op"
    tail = tail_percentile(len(ops))
    for p in sorted({50, 90, tail or 50}):
        key = f"{label}_p{p:g}_ms"
        if tail is not None and p <= tail:
            print(f"  {key:<12} {percentile(ops, p):12.4f} ms   n={len(ops)}")
        else:
            print(f"  {key:<12}          n/a      n={len(ops)} leaves fewer "
                  f"than 10 samples beyond p{p:g}")
    frac = failed_frac(r["failed"], r["attempted"])
    print(f"  {'failed_frac':<12} {frac:12.4f}      "
          f"{r['failed']} of {r['attempted']} ops")


def print_per_layer(name, r):
    print(f"== {name}  (traced)")
    for key, value in r.get("metrics", {}).items():
        print(f"  {key:<32} {value:14.6g} {tracing.PER_LAYER[key]}")
    frac = failed_frac(r["failed"], r["attempted"])
    print(f"  {'failed_frac':<32} {frac:14.6g}   "
          f"{r['failed']} of {r['attempted']} ops")


def run_workload(name, seed, seconds, traced):
    work = os.path.join(OUT, f"work-{name}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if traced:
        r = measure_traced(name, seed, work)
        print_per_layer(name, r)
        units = tracing.PER_LAYER
    else:
        r = measure(name, seed, seconds, work)
        print_end_to_end(name, r)
        units = END_TO_END
    for e in r["errors"]:
        print(f"  error: {e}", file=sys.stderr)
    r["correct"] = r["failed"] == 0 and "metrics" in r
    r["units"] = {k: units[k] for k in r.get("metrics", {})}
    return r


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring budget (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    if not os.path.isfile(os.path.join(SRC, "qbases", "__init__.py")):
        print(f"error: no qbases sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    os.makedirs(OUT, exist_ok=True)
    # compile the package once, so no timed child pays for bytecode
    warm = subprocess.run([sys.executable, "-c", "import qbases.cli"],
                          env=_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if warm.returncode != 0:
        print("error: cannot import qbases", file=sys.stderr)
        return 2
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    record = {"workloads": results, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "src_lines": src_lines(), "git_rev": git_rev(),
              "python": platform.python_version(), "cpus": os.cpu_count()}
    tag = args.workload if len(names) == 1 else "all"
    with open(os.path.join(OUT, f"{tag}-seed{args.seed}-trace{args.trace}"
                                ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    correct = all(r["correct"] for r in results.values())
    metrics = {n: {k: {"value": v, "unit": r["units"][k]}
                   for k, v in r.get("metrics", {}).items()}
               for n, r in results.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics[names[0]] if len(names) == 1 else metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
