"""Traced mode: wrappers installed from outside around the public calls of
each ``qbases`` module, spans kept in memory, and the per-layer metrics
computed from them.

A span is ``[name, start, end, parent, leaf_s]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``leaf_s`` the time spent in
Laurent/RatFunc arithmetic while the span was the innermost open one.
Those arithmetic calls run in the hundreds of thousands, so they get no
span of their own: each function keeps one count and one total time.
A span's self time is its duration minus the part covered by its child
spans and minus its ``leaf_s``.
"""

import functools
import importlib
import time

PACKAGE = "qbases"
MODULES = ("laurent", "linalg", "wordalg", "braid", "pbwalg", "canonical",
           "cluster", "preproj", "cli")

# (owner, attribute) pairs; owner is "module" or "module.Class".  The layer
# of a span is the module part of its name.
LEAVES = (
    [("laurent.RatFunc", a) for a in ("__add__", "__sub__", "__rsub__",
                                      "__mul__", "__truediv__",
                                      "__rtruediv__", "inverse")]
    + [("laurent.LaurentPoly", a) for a in ("__mul__", "__add__", "bar",
                                            "exact_div")])
SPANS = (
    [("linalg", f) for f in ("solve", "rank", "rref", "nullspace", "inverse",
                             "mat_mul")]
    + [("wordalg", "weight_basis"), ("wordalg.WordElement", "pairing"),
       ("wordalg.WordElement", "coproduct"),
       ("wordalg.TensorElement", "pairing")]
    + [("braid", f) for f in ("root_vectors", "pbw_monomial",
                              "braid_word_apply")]
    + [("pbwalg.PBWContext", f) for f in ("straighten", "mul", "gram", "bar",
                                          "kashiwara_components", "etilde",
                                          "ftilde", "eprime", "star")]
    + [("canonical.CanonicalTable", "__init__")]
    + [("canonical.CanonicalContext", f) for f in (
        "canonical_basis", "structure_constants", "expand_dual", "identify",
        "etilde", "ftilde", "epsilon", "star", "saito_reflection",
        "bw_contains")]
    + [("cluster", f) for f in ("reachable_seeds", "_mutate_logged",
                                "cluster_monomial", "dual_product",
                                "divide_right", "verify_conjecture")]
    + [("preproj", f) for f in ("enumerate_modules", "is_isomorphic",
                                "hom_dim", "hom_basis", "is_rigid",
                                "is_open_orbit", "mutate_rigid",
                                "components")]
    + [("cli", f) for f in ("execute", "emit_report")])


def _span_name(owner, attr):
    return f"{owner}.{attr}"


class Tracer:
    """Spans and leaf counters of one process.  Record-only: every
    number reported is derived from it by ``layer_totals``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.leaf_calls = {}
        self.leaf_s = {}
        self.leaf_depth = 0
        self.counts = {}
        self._seen = {}

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def seen_before(self, kind, key):
        """True if ``key`` was already passed to ``kind`` in this run."""
        seen = self._seen.setdefault(kind, set())
        if key in seen:
            return True
        seen.add(key)
        return False

    def span(self, name, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                note(self, args, result)
            return result
        return wrapper

    def leaf(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        calls, totals = self.leaf_calls, self.leaf_s
        calls[name] = 0
        totals[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if self.leaf_depth:
                return fn(*args, **kwargs)
            self.leaf_depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.leaf_depth = 0
                totals[name] += dt
                if stack:
                    spans[stack[-1]][4] += dt
        return wrapper


# -- counting hooks, keyed by span name

def _note_straighten(tr, args, result):
    ctx, seq = args[0], tuple(args[1])
    if tr.seen_before("straighten", (ctx.datum.name, ctx.word, seq)):
        tr.count("pbwalg.straighten_repeats")


def _note_table(tr, args, result):
    tr.count("canonical.tables_built")
    tr.count("canonical.table_dim_sum", len(args[3]))


def _note_sc(tr, args, result):
    ctx, l1, l2 = args[0], tuple(args[1]), tuple(args[2])
    if tr.seen_before("sc", (ctx.datum.name, ctx.word, l1, l2)):
        tr.count("canonical.sc_repeats")


def _note_iso(tr, args, result):
    if result:
        tr.count("preproj.iso_true")


NOTES = {
    "pbwalg.PBWContext.straighten": _note_straighten,
    "canonical.CanonicalTable.__init__": _note_table,
    "canonical.CanonicalContext.structure_constants": _note_sc,
    "preproj.is_isomorphic": _note_iso,
}


def _resolve(owner):
    mod, _, cls = owner.partition(".")
    obj = importlib.import_module(f"{PACKAGE}.{mod}")
    return getattr(obj, cls) if cls else obj


def install(tracer):
    """Wrap every target and every other name bound to it: for a module
    function, the names ``qbases`` modules imported it under; for a method,
    the class's aliases such as ``__radd__ = __add__``.  Returns the list
    of ``(owner_object, attribute, original)`` needed by ``restore``."""
    modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
    patched = []
    for kind, targets in (("leaf", LEAVES), ("span", SPANS)):
        for owner, attr in targets:
            obj = _resolve(owner)
            original = vars(obj)[attr]
            name = _span_name(owner, attr)
            if kind == "leaf":
                wrapper = tracer.leaf(name, original)
            else:
                wrapper = tracer.span(name, original, NOTES.get(name))
            for scope in ([obj] if "." in owner else modules):
                for alias, value in list(vars(scope).items()):
                    if value is original:
                        setattr(scope, alias, wrapper)
                        patched.append((scope, alias, original))
    return patched


def restore(patched):
    for obj, attr, original in reversed(patched):
        setattr(obj, attr, original)


# -- from spans to per-layer metrics

def self_times(spans):
    """Self time of each span: duration, minus the union of its direct
    children's intervals clipped to it, minus its leaf time."""
    children = [[] for _ in spans]
    for k, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(k)
    out = []
    for k, (_, start, end, _, leaf) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[k], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered - leaf)
    return out


def outermost(spans, names):
    """Indices of the spans named in ``names`` with no ancestor named in
    ``names`` (parents precede children in the list)."""
    inside = [False] * len(spans)
    out = []
    for k, s in enumerate(spans):
        p = s[3]
        if p >= 0:
            inside[k] = inside[p] or spans[p][0] in names
        if s[0] in names and not inside[k]:
            out.append(k)
    return out


def _layer(name):
    return name.split(".", 1)[0]


def _named(owner, attrs):
    return {_span_name(owner, a) for a in attrs}


PBW_CRYSTAL = _named("pbwalg.PBWContext", ("kashiwara_components", "etilde",
                                           "ftilde", "eprime", "star"))
CANONICAL_CRYSTAL = _named("canonical.CanonicalContext", (
    "etilde", "ftilde", "epsilon", "star", "saito_reflection", "bw_contains"))


def layer_totals(tracer):
    """Additive per-layer totals of one process: counts and seconds,
    plus the numerators of the ratios ``derive`` forms."""
    spans = tracer.spans
    selfs = self_times(spans)
    tot = {}

    def add(key, v):
        tot[key] = tot.get(key, 0) + v

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def seconds(names):
        return sum(spans[k][2] - spans[k][1] for k in outermost(spans, names))

    for name, n in tracer.leaf_calls.items():
        kind = "ratfunc" if ".RatFunc." in name else "poly"
        add(f"laurent.{kind}_calls", n)
        add(f"laurent.{kind}_s", tracer.leaf_s[name])
    for s, st in zip(spans, selfs):
        add(f"{_layer(s[0])}.self_s", st)
    by_layer = {}
    for owner, attr in SPANS:
        by_layer.setdefault(_layer(owner), set()).add(_span_name(owner, attr))
    for layer in ("linalg", "wordalg", "braid"):
        add(f"{layer}.calls", len(outermost(spans, by_layer[layer])))
    add("linalg.s", seconds(by_layer["linalg"]))
    add("pbwalg.straighten_calls", calls("pbwalg.PBWContext.straighten"))
    add("pbwalg.mul_calls", calls("pbwalg.PBWContext.mul"))
    add("pbwalg.gram_s", seconds({"pbwalg.PBWContext.gram"}))
    add("pbwalg.bar_s", seconds({"pbwalg.PBWContext.bar"}))
    add("pbwalg.crystal_s", seconds(PBW_CRYSTAL))
    add("canonical.sc_calls",
        calls("canonical.CanonicalContext.structure_constants"))
    crystal = outermost(spans, CANONICAL_CRYSTAL)
    add("canonical.crystal_calls", len(crystal))
    add("canonical.crystal_s",
        sum(spans[k][2] - spans[k][1] for k in crystal))
    add("cluster.mutations", calls("cluster._mutate_logged"))
    add("cluster.dual_product_calls", calls("cluster.dual_product"))
    add("cluster.divide_right_s", seconds({"cluster.divide_right"}))
    add("preproj.iso_calls", calls("preproj.is_isomorphic"))
    add("preproj.iso_s", seconds({"preproj.is_isomorphic"}))
    add("preproj.hom_calls",
        calls("preproj.hom_dim") + calls("preproj.hom_basis"))
    add("cli.execute_s", seconds({"cli.execute"}))
    add("cli.emit_s", seconds({"cli.emit_report"}))
    for key, n in tracer.counts.items():
        add(key, n)
    return tot


def merge(totals):
    """Sum the per-process totals of one pass."""
    out = {}
    for t in totals:
        for k, v in t.items():
            out[k] = out.get(k, 0) + v
    return out


def _frac(num, den):
    return num / den if den else 0.0


def derive(tot):
    """Per-layer metrics from merged totals; every metric is present on
    every workload (0 where a layer does not run)."""
    get = tot.get
    out = {}
    for k in PER_LAYER:
        out[k] = get(k, 0)
    out["pbwalg.straighten_repeat_frac"] = _frac(
        get("pbwalg.straighten_repeats", 0), get("pbwalg.straighten_calls", 0))
    out["canonical.sc_repeat_frac"] = _frac(
        get("canonical.sc_repeats", 0), get("canonical.sc_calls", 0))
    out["preproj.iso_true_frac"] = _frac(get("preproj.iso_true", 0),
                                         get("preproj.iso_calls", 0))
    return out


# name -> unit, in the order they are reported
PER_LAYER = {
    "laurent.ratfunc_calls": "count", "laurent.ratfunc_s": "s",
    "laurent.poly_calls": "count", "laurent.poly_s": "s",
    "linalg.calls": "count", "linalg.s": "s",
    "wordalg.calls": "count", "wordalg.self_s": "s",
    "braid.calls": "count", "braid.self_s": "s",
    "pbwalg.straighten_calls": "count", "pbwalg.straighten_repeat_frac": "1",
    "pbwalg.mul_calls": "count", "pbwalg.gram_s": "s", "pbwalg.bar_s": "s",
    "pbwalg.crystal_s": "s", "pbwalg.self_s": "s",
    "canonical.tables_built": "count", "canonical.table_dim_sum": "count",
    "canonical.sc_calls": "count", "canonical.sc_repeat_frac": "1",
    "canonical.crystal_calls": "count", "canonical.crystal_s": "s",
    "canonical.self_s": "s",
    "cluster.mutations": "count", "cluster.dual_product_calls": "count",
    "cluster.divide_right_s": "s", "cluster.self_s": "s",
    "preproj.iso_calls": "count", "preproj.iso_true_frac": "1",
    "preproj.iso_s": "s", "preproj.hom_calls": "count",
    "preproj.self_s": "s",
    "cli.cache_hits": "count", "cli.cache_misses": "count",
    "cli.execute_s": "s", "cli.emit_s": "s", "cli.bytes_out": "bytes",
    "trace.overhead_frac": "1",
}
