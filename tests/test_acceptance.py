"""Go/no-go acceptance suite.

Ten end-to-end checks: convention gate, canonical-basis integrity,
three-route crystal subsets, duality of structure constants, the A2 and
A3 cluster verification harnesses, the preprojective suite,
cross-module coherence, the component and epsilon desk checks, and
byte-level determinism of a rerun from cold caches.  Each test is one
pass/fail line under -v; wall-clock ceilings are asserted where they
are part of the contract.
"""

import json
import time
from fractions import Fraction

from qbases import canonical, pbwalg, preproj
from qbases.braid import TriangularElement, braid_word_apply
from qbases.canonical import get_canonical, weights_up_to_height
from qbases.cluster import reachable_seeds, verify_conjecture
from qbases.laurent import RatFunc
from qbases.preproj import (ENUM_BOUNDS, PreprojModule, all_dims_up_to,
                            components_containing, direct_sum,
                            enumerate_modules, ext1_dim, is_isomorphic,
                            is_open_orbit, is_rigid, module_label,
                            mutate_rigid, preproj_preset, simple_module)
from qbases.quiver import load_preset
from oracles import pairing, ref_structure_constants
from test_pbw import ref_gram

A2 = load_preset("A2")
A3 = load_preset("A3")
ONE = [[Fraction(1)]]

_DIGESTS = {}


def _normalized(payload):
    return json.loads(json.dumps(payload))


def _digest(num, build):
    if num not in _DIGESTS:
        _DIGESTS[num] = _normalized(build())
    return _DIGESTS[num]


def _bytes(payload):
    return json.dumps(payload, sort_keys=True).encode()


def _gens(d):
    unit = lambda i: tuple(1 if j == i else 0 for j in range(1, d.rank + 1))
    out = []
    for i in range(1, d.rank + 1):
        out.append(TriangularElement.f_gen(d, i))
        out.append(TriangularElement.e_gen(d, i))
        out.append(TriangularElement.k_power(d, unit(i)))
    return out


# -- 1. convention gate

def _build_convention():
    braid_checks = 0
    for p in (A2, A3):
        d = p["datum"]
        for i in range(1, d.rank + 1):
            for j in range(i + 1, d.rank + 1):
                a = d.bilinear(d.simple_root(i), d.simple_root(j))
                lhs_w = (i, j, i) if a == -1 else (i, j)
                rhs_w = (j, i, j) if a == -1 else (j, i)
                for g in _gens(d):
                    lhs = braid_word_apply(lhs_w, g)
                    rhs = braid_word_apply(rhs_w, g)
                    assert (lhs - rhs).is_zero_in_algebra(), (d.name, i, j)
                    braid_checks += 1
    vec_weights = {}
    for p in (A2, A3):
        d, w0 = p["datum"], p["longest_word"]
        weights = []
        for pos in range(1, len(w0) + 1):
            img = braid_word_apply(w0[:pos - 1],
                                   TriangularElement.f_gen(d, w0[pos - 1]))
            # raises if the image leaves the negative half
            x = img.to_word_element()
            beta = d.act(w0[:pos - 1], d.simple_root(w0[pos - 1]))
            assert x.weight == beta
            weights.append(list(beta))
        vec_weights[d.name] = weights
    ortho = {}
    congruent = {}
    for p, ht in ((A2, 8), (A3, 6)):
        ctx = get_canonical(p["datum"])
        n = 0
        pairs = 0
        for wt in weights_up_to_height(p["datum"].rank, ht):
            tab = ctx.canonical_basis(wt)
            k = len(tab.indices)
            # the closed-form Gram against the e' recursion
            inds, ref = ref_gram(ctx.ctx, wt)
            assert inds == tab.indices and tab.pbw_gram == ref, wt
            for a in range(k):
                assert tab.transition[a][a].is_one()
                assert ref[a][a], (wt, a)
                for b in range(k):
                    if a == b:
                        continue
                    assert not ref[a][b], (wt, a, b)
                    pairs += 1
                    entry = tab.transition[a][b]
                    if entry:
                        # b(c) = L(c) + q-divisible PBW corrections
                        assert min(entry.c) >= 1, (wt, a, b)
            n += k
        ortho[p["datum"].name] = pairs
        congruent[p["datum"].name] = n
    return {"braid_checks": braid_checks, "root_vector_weights": vec_weights,
            "orthogonality_pairs": ortho, "congruent_elements": congruent}


def test_criterion_01_convention_gate():
    t0 = time.time()
    dig = _digest(1, _build_convention)
    elapsed = time.time() - t0
    assert dig["congruent_elements"] == {"A2": 95, "A3": 217}
    assert elapsed < 300
    print(f"criterion 1 convention gate: PASS ({elapsed:.1f}s)")


# -- 2. canonical-basis integrity

def _build_integrity():
    out = {}
    for p, ht in ((A2, 8), (A3, 6)):
        d = p["datum"]
        ctx = get_canonical(d)
        tables = {}
        for wt in weights_up_to_height(d.rank, ht):
            tab = ctx.canonical_basis(wt)
            k = len(tab.indices)
            coords = [tab.canonical_coords(c) for c in tab.indices]
            for a in range(k):
                assert ctx.ctx.bar(coords[a]) == coords[a], (wt, a)
                for b in range(k):
                    if a == b:
                        continue
                    entry = tab.transition[a][b]
                    if entry:
                        assert min(entry.c) >= 1, (wt, a, b)
                        assert all(co.denominator == 1
                                   for co in entry.c.values()), (wt, a, b)
                for b in range(a, k):
                    diff = pairing(ctx.ctx, coords[a], coords[b]) - (
                        RatFunc(1) if a == b else RatFunc(0))
                    if diff:
                        assert diff.regular_at_zero(), (wt, a, b)
                        assert diff.at_zero() == 0, (wt, a, b)
            tables[",".join(map(str, wt))] = [
                [row[c].to_json() for c in range(k)]
                for row in tab.transition]
        out[d.name] = tables
    return out


def test_criterion_02_canonical_integrity():
    t0 = time.time()
    dig = _digest(2, _build_integrity)
    elapsed = time.time() - t0
    assert len(dig["A2"]) and len(dig["A3"])
    assert elapsed < 300
    print(f"criterion 2 canonical integrity: PASS ({elapsed:.1f}s)")


# -- 3. crystal subsets attached to Weyl elements, three routes

def _extend_to_longest(datum, word):
    """A reduced word of the longest element that starts with the word."""
    while len(word) < len(datum.positive_roots()):
        word = next(word + (i,) for i in range(1, datum.rank + 1)
                    if datum.is_reduced(word + (i,)))
    return word


def _build_bw_routes():
    out = {}
    for p in (A2, A3):
        d = p["datum"]
        ctx = get_canonical(d)
        words = d.weyl_elements()
        labels = ctx.labels_up_to_height(6)
        per_word = {}
        for w in words:
            via_pbw = ctx.bw_members_pbw(w, 6)
            via_crystal = ctx.bw_members_crystal(w, 6)
            # third route: b is in B(w) iff its label along a reduced
            # word of w0 extending w vanishes past position l(w)
            full = _extend_to_longest(d, w)
            via_transport = frozenset(
                c for c in labels
                if not any(ctx.transport(c, full)[len(w):]))
            assert via_pbw == via_crystal == via_transport, w
            per_word[",".join(map(str, w)) or "e"] = sorted(
                list(c) for c in via_pbw)
        out[d.name] = per_word
    return out


def test_criterion_03_bw_route_agreement():
    t0 = time.time()
    dig = _digest(3, _build_bw_routes)
    elapsed = time.time() - t0
    assert len(dig["A2"]) == 6 and len(dig["A3"]) == 24
    assert elapsed < 600
    print(f"criterion 3 route agreement: PASS ({elapsed:.1f}s)")


# -- 4. duality of structure constants, two routes

def _build_duality():
    out = {}
    for p, hmax in ((A2, 5), (A3, 4)):
        d = p["datum"]
        ctx = get_canonical(d)
        monomials, layers = {}, {}
        for wt in weights_up_to_height(d.rank, hmax - 1):
            if sum(wt) >= 1:
                layers.setdefault(sum(wt), []).append(wt)
        constants = {}
        for h1 in sorted(layers):
            for h2 in sorted(layers):
                if h1 + h2 > hmax:
                    continue
                for wt1 in layers[h1]:
                    for wt2 in layers[h2]:
                        for l1 in ctx.canonical_basis(wt1).indices:
                            for l2 in ctx.canonical_basis(wt2).indices:
                                a = ctx.structure_constants(l1, l2)
                                b = ref_structure_constants(ctx, l1, l2,
                                                            monomials)
                                assert a == b, (l1, l2)
                                key = f"{list(l1)}*{list(l2)}"
                                constants[key] = {
                                    str(list(l3)): v.to_json()
                                    for l3, v in sorted(a.items())}
        out[d.name] = constants
    return out


def test_criterion_04_duality_consistency():
    dig = _digest(4, _build_duality)
    assert len(dig["A2"]) == 144 and len(dig["A3"]) == 223
    print("criterion 4 duality consistency: PASS "
          f"({len(dig['A2']) + len(dig['A3'])} products)")


# -- 5. cluster harness at the A2 longest word

def _build_harness_a2():
    seeds, _ = reachable_seeds("A2", 2)
    assert len(seeds) == 2
    report = verify_conjecture("A2", 2, 4)
    assert all(m["status"] == "pass" for m in report["monomials"])
    assert all(e["status"] == "pass" for e in report["exchange_log"])
    return report


def test_criterion_05_a2_cluster_monomials():
    t0 = time.time()
    dig = _digest(5, _build_harness_a2)
    elapsed = time.time() - t0
    assert len(dig["monomials"]) == 225
    assert elapsed < 120
    print(f"criterion 5 A2 harness: PASS ({len(dig['monomials'])} "
          f"monomials, {elapsed:.1f}s)")


# -- 6. cluster harness at the A3 longest word

def _build_harness_a3():
    seeds, _ = reachable_seeds("A3", 8)
    assert len(seeds) == 14
    variables = {v for s in seeds for v in s.label_set()}
    report = verify_conjecture("A3", 8, 1)
    assert all(m["status"] == "pass" for m in report["monomials"])
    assert all(e["status"] == "pass" for e in report["exchange_log"])
    singles = {tuple(m["label"]) for m in report["monomials"]
               if sum(m["exponents"]) == 1}
    assert singles == variables and len(variables) == 12
    return report


def test_criterion_06_a3_cluster_variables():
    t0 = time.time()
    dig = _digest(6, _build_harness_a3)
    elapsed = time.time() - t0
    assert elapsed < 900
    print(f"criterion 6 A3 harness: PASS ({len(dig['monomials'])} "
          f"monomials, {elapsed:.1f}s)")


# -- 7. preprojective suite

def _build_preproj():
    counts = {}
    for p in (A2, A3):
        d, om = p["datum"], p["orientation"]
        rows = []
        for dim in all_dims_up_to(ENUM_BOUNDS[d.name]):
            mods = enumerate_modules(d, om, dim)
            n_rigid = 0
            for m in mods:
                rigid = is_rigid(m)
                assert rigid == is_open_orbit(m), (d.name, dim)
                n_rigid += rigid
            rows.append([list(dim), len(mods), n_rigid])
        counts[d.name] = rows
    d, om = A2["datum"], A2["orientation"]
    s1, s2 = simple_module(d, om, 1), simple_module(d, om, 2)
    p1 = PreprojModule(d, om, (1, 1), {(1, 2): ONE})
    p2 = PreprojModule(d, om, (1, 1), {(2, 1): ONE})
    assert ext1_dim(s1, s2) == 1
    pre = preproj_preset("A2")
    new, (tp, ts) = mutate_rigid(pre["collection"], 1)
    assert is_isomorphic(new.modules[0], s2)
    assert is_isomorphic(tp, p2) and is_isomorphic(ts, p1)
    twice, _ = mutate_rigid(new, 1)
    for a, b in zip(twice.modules, pre["collection"].modules):
        assert is_isomorphic(a, b)
    return {"enumeration": counts, "ext1_s1_s2": 1,
            "mutation": {"new": "S2", "pair": ["P2", "P1"]}}


def test_criterion_07_preprojective_suite():
    t0 = time.time()
    dig = _digest(7, _build_preproj)
    elapsed = time.time() - t0
    assert elapsed < 120
    print(f"criterion 7 preprojective suite: PASS ({elapsed:.1f}s)")


# -- 8. cross-module coherence

def _build_coherence():
    pre = preproj_preset("A2")
    _, (tp, ts) = mutate_rigid(pre["collection"], 1)
    ctx = get_canonical(pre["datum"], pre["word"])
    module_pair = {module_label(ctx, tp), module_label(ctx, ts)}
    _, log = reachable_seeds("A2", 1)
    cluster_pair = {tuple(p) for p in log[0]["pair"]}
    assert module_pair == cluster_pair == {(0, 1, 0), (1, 0, 1)}
    return {"pair": sorted(list(p) for p in cluster_pair)}


def test_criterion_08_cross_module_pair():
    dig = _digest(8, _build_coherence)
    print(f"criterion 8 cross-module pair: PASS ({dig['pair']})")


# -- 9. component containment and epsilon-bound desk checks

def _build_desk_checks():
    d, om = A2["datum"], A2["orientation"]
    s1, s2 = simple_module(d, om, 1), simple_module(d, om, 2)
    p1 = PreprojModule(d, om, (1, 1), {(1, 2): ONE})
    p2 = PreprojModule(d, om, (1, 1), {(2, 1): ONE})
    comps = components_containing(d, om, (1, 1), direct_sum(s1, s2))
    assert len(comps) == 2
    hits = sorted("P1" if is_isomorphic(c, p1) else
                  "P2" if is_isomorphic(c, p2) else "?" for c in comps)
    assert hits == ["P1", "P2"]
    ctx = get_canonical(d)
    labels = ctx.labels_up_to_height(6)
    for lab in labels:
        assert lab in ctx.epsilon_bound_set(lab, sum(
            ctx.label_weight(lab)))
    base = (1, 0, 0)
    bound = ctx.epsilon_bound_set(base, 6)
    cut = {lab for lab in labels if ctx.epsilon(1, lab) >= 1}
    assert bound == cut
    return {"components": hits,
            "cut_members": sorted(list(c) for c in bound)}


def test_criterion_09_desk_checks():
    dig = _digest(9, _build_desk_checks)
    assert len(dig["cut_members"]) > 0
    print(f"criterion 9 desk checks: PASS ({len(dig['cut_members'])} "
          "labels in the cut)")


# -- 10. determinism of a rerun from cold caches

_BUILDERS = {1: _build_convention, 2: _build_integrity, 3: _build_bw_routes,
             4: _build_duality, 5: _build_harness_a2, 6: _build_harness_a3,
             7: _build_preproj, 8: _build_coherence, 9: _build_desk_checks}


def test_criterion_10_cold_rerun_determinism(monkeypatch):
    base = {num: _bytes(_digest(num, build))
            for num, build in _BUILDERS.items()}
    # the rebuild starts from cold caches, so it recomputes every context,
    # table and enumeration instead of reading back the first run's
    monkeypatch.setattr(pbwalg, "_CONTEXTS", {})
    monkeypatch.setattr(canonical, "_CANONICAL", {})
    monkeypatch.setattr(preproj, "_ENUM_CACHE", {})
    monkeypatch.setattr(preproj, "_INDEC_CACHE", {})
    for num, build in _BUILDERS.items():
        redo = _bytes(_normalized(build()))
        assert base[num] == redo, \
            f"criterion {num} output differs on a cold rerun"
    print("criterion 10 determinism: PASS (9 digests byte-identical "
          "on a cold rerun)")
