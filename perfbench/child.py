"""One cold process of the benchmark.  Started by ``run.py``, never by hand:

    child.py pass  <workload> <seed> <trace> <result.json> [<spans.json>]
    child.py setup <workload> <result.json>
    child.py cli   <trace> <result.json> [<spans.json>] -- <qbases argv...>

``pass`` sets the workload up, runs its calls once in the order the seed
picks and writes timings, the output digest and failures to the result
file.  ``setup`` only sets up.  ``cli`` runs one ``qbases`` command line,
whose report goes to standard output.  With trace 1 the wrappers of
``tracing`` are installed before set-up and the spans are written out at
the end.  A ``speed.Sampler`` runs from the start of the process, and every
time written out is in its reference seconds (raw ones are kept beside
them); a ``cli`` child writes the sampler's factor and the time the sampler
took, so the parent can scale the time it measured around the child.
"""

import json
import os
import random
import resource
import sys
import time

T_START = time.perf_counter()

import speed  # noqa: E402  (the benchmark's own files only)
import tracing  # noqa: E402
import workloads  # noqa: E402

SAMPLER = speed.Sampler().start()


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _start_trace(traced):
    if not traced:
        return None, None
    tracer = tracing.Tracer()
    return tracer, tracing.install(tracer)


def _finish_trace(tracer, patched, spans_path, result):
    if tracer is None:
        return
    tracing.restore(patched)
    result["trace"] = tracing.layer_totals(tracer)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "leaf_calls": tracer.leaf_calls,
                   "leaf_s": tracer.leaf_s}, fh)


def run_pass(name, seed, traced, spans_path):
    tracer, patched = _start_trace(traced)
    wl = workloads.IN_PROCESS[name]()
    wl.setup()
    setup_s = SAMPLER.setup_scaled(T_START)
    t0 = time.perf_counter()
    if hasattr(wl, "prelude"):
        wl.prelude()
    ops = wl.plan()
    random.Random(seed).shuffle(ops)
    records, spans, errors = [], [], []
    for key, op in ops:
        t = time.perf_counter()
        try:
            records.extend(op())
        except Exception as e:  # an op that raises counts as failed
            errors.append(f"{key}: {type(e).__name__}: {e}"[:300])
        spans.append((t, time.perf_counter()))
    t1 = time.perf_counter()
    SAMPLER.stop()
    op_ms = [SAMPLER.scaled(a, b) * 1e3 for a, b in spans]
    result = {"setup_s": setup_s, "wall_s": SAMPLER.scaled(t0, t1),
              "raw_wall_s": t1 - t0, "op_ms": op_ms,
              "attempted": len(ops), "failed": len(errors),
              "errors": errors[:5], "digest": wl.digest(records)}
    _finish_trace(tracer, patched, spans_path, result)
    result["peak_rss_mb"] = _peak_rss_mb()
    return result


def run_setup(name):
    workloads.IN_PROCESS[name]().setup()
    return {"setup_s": SAMPLER.setup_scaled(T_START),
            "peak_rss_mb": _peak_rss_mb()}


def run_cli(traced, spans_path, argv):
    from qbases import cli
    setup_s = SAMPLER.setup_scaled(T_START)
    tracer, patched = _start_trace(traced)
    code = cli.execute(argv)
    sys.stdout.flush()
    SAMPLER.stop()
    result = {"setup_s": setup_s, "exit": code,
              "ref_factor": SAMPLER.factor(), "ref_spent_s": SAMPLER.spent()}
    _finish_trace(tracer, patched, spans_path, result)
    result["peak_rss_mb"] = _peak_rss_mb()
    return result


def main(argv):
    mode = argv[0]
    if mode == "pass":
        name, seed, traced, out = argv[1], int(argv[2]), argv[3] == "1", \
            argv[4]
        result = run_pass(name, seed, traced, argv[5] if traced else None)
    elif mode == "setup":
        out = argv[2]
        result = run_setup(argv[1])
    elif mode == "cli":
        split = argv.index("--")
        traced, out = argv[1] == "1", argv[2]
        result = run_cli(traced, argv[3] if traced else None,
                         argv[split + 1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    SAMPLER.stop()
    tmp = out + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, out)


if __name__ == "__main__":
    main(sys.argv[1:])
