"""Self-tests of the benchmark's own logic (no timed runs):

    python3 -m pytest -q perfbench/tests
"""

import importlib
import io
import json
import os
import signal
import sys
import time
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- self time and outermost spans

def test_self_time_on_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 1.0],   # children cover 2..5 and 4..8
        ["a", 2.0, 5.0, 0, 0.5],        # child covers 3..4
        ["b", 4.0, 8.0, 0, 0.0],        # overlaps a: union is 2..8
        ["c", 3.0, 4.0, 1, 0.0],
        ["d", 9.0, 12.0, 0, 0.0],       # runs past root's end: clipped
    ]
    assert tracing.self_times(spans) == [10 - 6 - 1 - 1.0, 3 - 1 - 0.5,
                                         4.0, 1.0, 3.0]


def test_outermost_skips_nested_spans_of_the_set():
    spans = [
        ["g", 0.0, 9.0, -1, 0.0],
        ["x", 1.0, 2.0, 0, 0.0],
        ["g", 3.0, 5.0, 0, 0.0],
        ["g", 3.5, 4.0, 2, 0.0],
        ["g", 6.0, 7.0, -1, 0.0],
    ]
    assert tracing.outermost(spans, {"g"}) == [0, 4]
    assert tracing.outermost(spans, {"x"}) == [1]


# -- the percentile rule

def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(99) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(128) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10000) == 99.9


def test_percentile_interpolates():
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile(list(range(101)), 90) == 90


def test_report_prints_tail_with_count():
    r = {"passes": 1, "samples": {"wall_s": 1, "setup_s": 4, "op_ms": 128,
                                  "peak_rss_mb": 4},
         "op_ms": [float(x) for x in range(128)], "attempted": 128,
         "failed": 0, "metrics": {"wall_s": 1.0, "setup_s": 0.1,
                                  "peak_rss_mb": 30.0}}
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.print_end_to_end("cluster-a2", r)
    text = buf.getvalue()
    assert "op_p90_ms" in text and "n=128" in text
    assert "op_p95_ms" not in text
    r["op_ms"] = r["op_ms"][:24]
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.print_end_to_end("cli-cache", r)
    assert "hit_p90_ms            n/a      n=24" in buf.getvalue()


# -- reference seconds

def _sampler(samples):
    s = speed.Sampler()
    s.samples = list(samples)
    return s


def test_scaled_weights_by_speed_and_drops_sample_time():
    ref = speed.REF_S
    # kernels took ref and 2 * ref: half the time at full speed and half
    # at half speed is 3/4 of the window in reference seconds
    s = _sampler([(1.0, ref), (1.5, 2 * ref), (9.0, 5 * ref)])
    assert abs(s.scaled(1.0, 2.0) - (1.0 - 3 * ref) * 0.75) < 1e-12


def test_window_without_samples_uses_its_neighbours():
    ref = speed.REF_S
    s = _sampler([(1.0, ref), (3.0, 4 * ref)])
    assert abs(s.scaled(2.0, 2.5) - 0.5 * (1 + 0.25) / 2) < 1e-12
    assert s.scaled(5.0, 6.0) == 0.25
    assert _sampler([]).scaled(0.0, 2.0) == 2.0


def test_sampler_ticks_and_restores_the_signal():
    s = speed.Sampler().start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.2:
        speed.kernel()
    s.stop()
    setup = s.setup_scaled(t0)
    assert len(s.samples) >= 2 and setup > 0
    assert s.spent() == s.burst_s + sum(d for _, d in s.samples)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- failure counting

def _fake_child(result):
    def child(args, result_path, env=None):
        return dict(result), b"", 0.0, None
    return child


def test_failed_frac_counts_op_failures(monkeypatch):
    monkeypatch.setattr(run, "_pins", lambda: {"basis-build": "ok"})
    monkeypatch.setattr(run, "_child", _fake_child({
        "wall_s": 1.0, "raw_wall_s": 0.9, "setup_s": 0.1,
        "op_ms": [1.0] * 10,
        "peak_rss_mb": 10.0, "attempted": 10, "failed": 2,
        "errors": ["x", "y"], "digest": "ok"}))
    p = run.in_process_pass("basis-build", 0, 0, False, "unused")
    assert (p.attempted, p.failed) == (10, 2)
    assert run.failed_frac(p.failed, p.attempted) == 0.2


def test_digest_mismatch_fails_every_op(monkeypatch):
    monkeypatch.setattr(run, "_pins", lambda: {"basis-build": "pinned"})
    monkeypatch.setattr(run, "_child", _fake_child({
        "wall_s": 1.0, "raw_wall_s": 0.9, "setup_s": 0.1,
        "op_ms": [1.0] * 10,
        "peak_rss_mb": 10.0, "attempted": 10, "failed": 0, "errors": [],
        "digest": "other"}))
    p = run.in_process_pass("basis-build", 0, 0, False, "unused")
    assert run.failed_frac(p.failed, p.attempted) == 1.0
    assert any("digest" in e for e in p.errors)


def test_dead_child_counts_as_failed(monkeypatch):
    monkeypatch.setattr(run, "_child",
                        lambda *a, **k: (None, b"", 0.0, "child exited 1"))
    p = run.in_process_pass("basis-build", 0, 0, False, "unused")
    assert (p.attempted, p.failed, p.wall_s) == (1, 1, None)


# -- wrapping and restoring

def _snapshot():
    out = {}
    for owner, _ in tracing.LEAVES + tracing.SPANS:
        obj = tracing._resolve(owner)
        out[owner] = (obj, dict(vars(obj)))
    for m in tracing.MODULES:
        mod = importlib.import_module(f"qbases.{m}")
        out[m] = (mod, dict(vars(mod)))
    return out


ALIASES = [("pbwalg", "solve", "linalg"), ("cluster", "solve", "linalg"),
           ("preproj", "rank", "linalg"), ("preproj", "nullspace", "linalg"),
           ("preproj", "inverse", "linalg"), ("preproj", "rref", "linalg"),
           ("pbwalg", "root_vectors", "braid"),
           ("pbwalg", "pbw_monomial", "braid"),
           ("pbwalg", "weight_basis", "wordalg"),
           ("canonical", "root_vectors", "braid"),
           ("canonical", "pbw_monomial", "braid"),
           ("cli", "verify_conjecture", "cluster")]


def test_install_patches_imported_names_and_restore_is_exact():
    before = _snapshot()
    patched = tracing.install(tracing.Tracer())
    try:
        for user, name, home in ALIASES:
            mod = importlib.import_module(f"qbases.{user}")
            src = importlib.import_module(f"qbases.{home}")
            assert getattr(mod, name) is getattr(src, name)
            assert getattr(mod, name) is not before[home][1][name]
        assert len({(id(o), a) for o, a, _ in patched}) == len(patched)
    finally:
        tracing.restore(patched)
    after = _snapshot()
    for key, (obj, attrs) in before.items():
        now = after[key][1]
        assert now.keys() == attrs.keys(), key
        for attr, value in attrs.items():
            assert now[attr] is value, (key, attr)


def test_predictions_cover_every_layer_metric_once():
    with open(os.path.join(BENCH, "predictions.json")) as fh:
        layers = json.load(fh)["layers"]
    named = [m for group in layers for m in group["metrics"]]
    assert sorted(named) == sorted(tracing.PER_LAYER)
    printed = set(run.END_TO_END) | {"op_p50_ms", "op_p90_ms", "hit_p50_ms"}
    for group in layers:
        for ref in group["moves"] + group["unchanged"]:
            name, metric = ref.split(":")
            assert name in workloads.NAMES and metric in printed, ref


def test_traced_arithmetic_is_counted_and_unchanged():
    from qbases.laurent import RatFunc
    tr = tracing.Tracer()
    patched = tracing.install(tr)
    try:
        x = (RatFunc(3) + RatFunc(4)) * RatFunc(2)
        y = 2 * (1 + RatFunc(3))    # reflected: __rmul__, __radd__
    finally:
        tracing.restore(patched)
    assert x == RatFunc(14) and y == RatFunc(8)
    assert tr.leaf_calls["laurent.RatFunc.__add__"] == 2
    assert tr.leaf_calls["laurent.RatFunc.__mul__"] == 2
    tot = tracing.layer_totals(tr)
    assert tot["laurent.ratfunc_calls"] >= 4
    assert tracing.derive(tot).keys() == tracing.PER_LAYER.keys()
