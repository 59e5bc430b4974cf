"""The benchmark's workloads, run inside a fresh child process.

Each workload is a fixed list of calls into the public API of ``qbases``.
``setup`` imports the package and builds what the calls need (presets and
contexts); ``plan`` returns the call list in its natural order as
``(key, op)`` pairs, where ``op()`` returns a list of JSON-ready output
records or raises.  ``prelude`` (optional) is timed with the ops but is
not an op.  ``digest`` turns every record of a pass into the sha256 that
is pinned in ``pins.json``; records are sorted first, so the digest does
not depend on the op order the seed picks.

The ``cli-cache`` workload is driven from the parent (one child per CLI
invocation), so only its command list lives here.
"""

import hashlib
import itertools
import json


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def sorted_digest(records):
    return sha256_text("\n".join(sorted(json.dumps(r, sort_keys=True)
                                        for r in records)))


# -- cluster-a2: the paper's headline check, read-heavy on `canonical`

CLUSTER_PRESET, CLUSTER_DEPTH, CLUSTER_EXP = "A2", 2, 3


def dedup_monomials(records):
    """The de-duplication and order ``verify_conjecture`` applies to its
    per-(seed, exponents) reports."""
    dedup = {}
    for r in records:
        key = (tuple(r["exponents"]), tuple(r["label"] or ()),
               r["q_power"] if r["q_power"] is not None else 0, r["status"])
        dedup[key] = r
    return [dedup[k] for k in sorted(dedup)]


class ClusterA2:
    name = "cluster-a2"
    op_unit = "monomial"

    def setup(self):
        from qbases import cluster
        from qbases.canonical import get_canonical
        from qbases.quiver import load_preset
        self.cluster = cluster
        box = load_preset(CLUSTER_PRESET)
        self.ctx = get_canonical(box["datum"], box["longest_word"])

    def prelude(self):
        seeds, log = self.cluster.reachable_seeds(CLUSTER_PRESET,
                                                  CLUSTER_DEPTH)
        bad = [e for e in log if e["status"] != "pass"]
        if bad:
            raise AssertionError(f"exchange log not all pass: {bad[0]}")
        self.seeds = seeds
        self.word = seeds[0].word

    def plan(self):
        ops = []
        for n, s in enumerate(self.seeds):
            for exps in itertools.product(range(CLUSTER_EXP + 1),
                                          repeat=s.size()):
                ops.append(((n,) + exps, self._op(s, exps)))
        return ops

    def _op(self, seed, exps):
        def op():
            cl = self.cluster
            rep = cl.cluster_monomial(seed, exps)
            if rep.passed() and not self.ctx.bw_contains(self.word,
                                                         rep.label):
                rep = cl.ClusterMonomialReport(
                    exps, rep.label, rep.q_power,
                    "fail: label outside the crystal subset of the word")
            if not rep.passed():
                raise AssertionError(f"monomial {exps}: {rep.status}")
            return [rep.to_json()]
        return op

    @staticmethod
    def digest(records):
        return sha256_text(json.dumps(dedup_monomials(records),
                                      sort_keys=True))


# -- basis-build: write-heavy on `canonical`, no crystal and no cluster code

BASIS_HEIGHTS = (("A2", 8), ("A3", 6), ("D4", 4))


class BasisBuild:
    name = "basis-build"
    op_unit = "weight"

    def setup(self):
        from qbases.canonical import get_canonical, weights_up_to_height
        from qbases.quiver import load_preset
        self.weights_up_to_height = weights_up_to_height
        self.contexts = []
        for preset, height in BASIS_HEIGHTS:
            datum = load_preset(preset)["datum"]
            self.contexts.append((preset, height, get_canonical(datum)))

    def plan(self):
        ops = []
        for preset, height, ctx in self.contexts:
            for wt in self.weights_up_to_height(ctx.datum.rank, height):
                ops.append(((preset,) + tuple(wt), self._op(preset, ctx, wt)))
        return ops

    @staticmethod
    def _op(preset, ctx, wt):
        def op():
            return [{"type": preset,
                     "table": ctx.canonical_basis(wt).to_json()}]
        return op

    digest = staticmethod(sorted_digest)


# -- preproj-enum: Fraction linear algebra in `preproj`, no Laurent/PBW code

PREPROJ_TYPES = ("A2", "A3", "A4")
COMPONENTS_DIM = (2, 2)


class PreprojEnum:
    name = "preproj-enum"
    op_unit = "dimension vector"

    def setup(self):
        from qbases import preproj
        from qbases.quiver import load_preset
        self.pp = preproj
        self.boxes = {t: load_preset(t) for t in PREPROJ_TYPES}
        self.preset = preproj.preproj_preset("A2")

    def plan(self):
        ops = []
        for t in PREPROJ_TYPES:
            box = self.boxes[t]
            for dim in self.pp.all_dims_up_to(self.pp.ENUM_BOUNDS[t]):
                ops.append(((t,) + dim, self._enum_op(t, box, dim)))
        ops.append((("mutate",), self._mutate_op))
        ops.append((("components",) + COMPONENTS_DIM, self._components_op))
        return ops

    def _enum_op(self, t, box, dim):
        def op():
            pp = self.pp
            out = []
            for m in pp.enumerate_modules(box["datum"], box["orientation"],
                                          dim):
                obj = m.to_json()
                obj.update(type=t, rigid=pp.is_rigid(m),
                           open_orbit=pp.is_open_orbit(m))
                if obj["rigid"] != obj["open_orbit"]:
                    raise AssertionError(f"rigid != open orbit at {obj}")
                out.append(obj)
            return out
        return op

    def _mutate_op(self):
        pp = self.pp
        start = self.preset["collection"]
        once, (tprime, tsecond) = pp.mutate_rigid(start, 1)
        twice, _ = pp.mutate_rigid(once, 1)
        for a, b in zip(twice.modules, start.modules):
            if not pp.is_isomorphic(a, b):
                raise AssertionError("mutation is not involutive")
        return [{"mutation": [m.to_json() for m in once.modules],
                 "pair": [tprime.to_json(), tsecond.to_json()]}]

    def _components_op(self):
        box = self.boxes["A2"]
        comps = self.pp.components(box["datum"], box["orientation"],
                                   COMPONENTS_DIM)
        return [{"components": sorted(json.dumps(m.to_json(), sort_keys=True)
                                      for m in comps)}]

    digest = staticmethod(sorted_digest)


# -- cli-cache: one child per CLI invocation, misses then hits

CLI_COMMANDS = (
    ("basis", "--type", "A3", "--height", "5"),
    ("crystal", "--type", "A3", "--height", "4"),
    ("bw", "--type", "A3", "--word", "1,2,3", "--height", "5"),
    ("ss-bound", "--type", "A2", "--label", "1,0,0", "--height", "6"),
    ("preproj", "--type", "A4"),
    ("cluster-verify", "--preset", "A2-w0", "--depth", "2", "--exp", "2"),
)
CLI_HIT_FORMATS = ("json", "csv", "tex", "json")


def cli_key(command, fmt):
    return f"{command[0]}.{fmt}"


IN_PROCESS = {w.name: w for w in (ClusterA2, BasisBuild, PreprojEnum)}
NAMES = tuple(IN_PROCESS) + ("cli-cache",)
OP_UNITS = {w.name: w.op_unit for w in IN_PROCESS.values()}
OP_UNITS["cli-cache"] = "CLI invocation"
