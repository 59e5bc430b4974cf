"""Preprojective-algebra desk suite: moment map, Hom/Ext, rigidity,
enumeration, isomorphism certificates, mutation, the component-containment
lemma check, and components against crystal labels."""

from fractions import Fraction

import pytest

from qbases import preproj
from qbases.canonical import get_canonical
from qbases.linalg import inverse, mat_mul
from qbases.quiver import load_preset
from qbases.preproj import (ENUM_BOUNDS, PreprojModule, RigidCollection,
                            all_dims_up_to, ambient_dim, components,
                            components_containing, direct_sum,
                            enumerate_modules, ext1_dim, hom_basis, hom_dim,
                            hom_leq, indecomposables, is_isomorphic,
                            is_module, is_open_orbit, is_rigid,
                            maximal_rigid_check, module_label,
                            moment_residual, mutate_rigid, orbit_dim,
                            preproj_preset, simple_module, zero_module)
from qbases.wordalg import kostant_dimension

ONE = [[Fraction(1)]]


@pytest.fixture(scope="module")
def a2():
    p = load_preset("A2")
    d, om = p["datum"], p["orientation"]
    return {
        "datum": d, "orientation": om,
        "s1": simple_module(d, om, 1),
        "s2": simple_module(d, om, 2),
        "p1": PreprojModule(d, om, (1, 1), {(1, 2): ONE}),
        "p2": PreprojModule(d, om, (1, 1), {(2, 1): ONE}),
    }


@pytest.fixture(scope="module")
def a3():
    p = load_preset("A3")
    return {"datum": p["datum"], "orientation": p["orientation"]}


def test_shape_mismatch_rejected(a2):
    with pytest.raises(ValueError, match="shape"):
        PreprojModule(a2["datum"], a2["orientation"], (1, 1),
                      {(1, 2): [[1, 0], [0, 1]]})


def test_moment_residual_examples(a2):
    res = moment_residual(a2["p1"])
    assert all(all(not x for row in m for x in row) for m in res.values())
    bad = PreprojModule(a2["datum"], a2["orientation"], (1, 1),
                        {(1, 2): ONE, (2, 1): ONE})
    assert not is_module(bad)
    assert any(any(x for row in m for x in row)
               for m in moment_residual(bad).values())
    assert is_module(zero_module(a2["datum"], a2["orientation"]))


def test_hom_dims(a2):
    assert hom_dim(a2["s1"], a2["s1"]) == 1
    assert hom_dim(a2["s1"], a2["s2"]) == 0
    assert hom_dim(a2["p1"], a2["s1"]) == 1
    assert hom_dim(a2["p1"], a2["s2"]) == 0
    assert hom_dim(a2["s2"], a2["p1"]) == 1


def test_ext_examples(a2):
    assert ext1_dim(a2["s1"], a2["s1"]) == 0
    assert ext1_dim(a2["s1"], a2["s2"]) == 1
    z = zero_module(a2["datum"], a2["orientation"])
    assert ext1_dim(z, a2["p1"]) == 0


def test_rigid_and_open_orbit(a2):
    assert is_rigid(a2["p1"]) and is_open_orbit(a2["p1"])
    ss = direct_sum(a2["s1"], a2["s2"])
    assert not is_rigid(ss) and not is_open_orbit(ss)
    assert is_rigid(zero_module(a2["datum"], a2["orientation"]))
    assert orbit_dim(a2["p1"]) == 1 == ambient_dim(
        a2["datum"], a2["orientation"], (1, 1))


def test_enumerate_examples(a2):
    d, om = a2["datum"], a2["orientation"]
    assert len(enumerate_modules(d, om, (1, 1))) == 3
    assert len(enumerate_modules(d, om, (1, 0))) == 1
    assert len(enumerate_modules(d, om, (0, 1))) == 1
    found = enumerate_modules(d, om, (1, 1))
    ss = direct_sum(a2["s1"], a2["s2"])
    assert any(is_isomorphic(m, ss) for m in found)


def test_enumerate_bound_and_type_errors(a2):
    with pytest.raises(ValueError, match="bound"):
        enumerate_modules(a2["datum"], a2["orientation"], (3, 0))
    p = load_preset("D4")
    with pytest.raises(ValueError, match="unsupported"):
        enumerate_modules(p["datum"], p["orientation"], (1, 0, 0, 0))


def test_enumeration_deterministic_across_workers(a2):
    d, om = a2["datum"], a2["orientation"]
    key = (d.cartan, tuple(tuple(h) for h in om), (2, 1))
    preproj._ENUM_CACHE.pop(key, None)
    seq = enumerate_modules(d, om, (2, 1), workers=1)
    preproj._ENUM_CACHE.pop(key, None)
    par = enumerate_modules(d, om, (2, 1), workers=4)
    assert [m.to_json() for m in seq] == [m.to_json() for m in par]


def _conjugate(module):
    """The module moved by the base change g_i = J + i*I at vertex i
    (J all ones): the arrow a -> b becomes g_b B g_a^{-1}."""
    g = {i: [[Fraction(1 + (r == c) * i) for c in range(d)]
             for r in range(d)] for i, d in enumerate(module.dim, start=1)}
    ginv = {i: inverse(m, Fraction(1), Fraction(0)) for i, m in g.items()}
    arrows = {(a, b): mat_mul(mat_mul(g[b], [list(r) for r in mat]), ginv[a])
              for (a, b), mat in module.arrows.items() if mat and mat[0]}
    return PreprojModule(module.datum, module.orientation, module.dim,
                         arrows)


@pytest.mark.parametrize("name", sorted(ENUM_BOUNDS))
def test_is_isomorphic_two_routes(name):
    # the invariant-first test and the raw intertwiner search agree on
    # every enumerated class against every other and against a conjugate
    p = load_preset(name)
    d, om = p["datum"], p["orientation"]
    for dim in all_dims_up_to(ENUM_BOUNDS[name]):
        classes = enumerate_modules(d, om, dim)
        for j, m in enumerate(classes):
            for n in classes[j + 1:]:
                assert not is_isomorphic(m, n), (name, dim)
                assert not preproj._intertwiner_search(
                    m, n, hom_basis(m, n)), (name, dim)
            c = _conjugate(m)
            assert is_module(c)
            assert is_isomorphic(m, c), (name, dim)
            assert preproj._intertwiner_search(
                m, c, hom_basis(m, c)), (name, dim)


def test_is_isomorphic_raises_when_schedule_misses(a2, monkeypatch):
    d, om = a2["datum"], a2["orientation"]
    classes = enumerate_modules(d, om, (2, 2))
    wide = [(m, n) for j, m in enumerate(classes) for n in classes[j + 1:]
            if len(hom_basis(m, n)) > 4]
    assert wide
    monkeypatch.setattr(preproj, "_coefficient_schedule", lambda n: [])
    # non-isomorphism is certified without the schedule, even where the
    # grid {-2..2}^n is not used
    for m, n in wide:
        assert not preproj._intertwiner_search(m, n, hom_basis(m, n))
    scaled = PreprojModule(d, om, (1, 1), {(1, 2): [[2]]})
    with pytest.raises(ValueError,
                       match=r"\(1, 1\) and \(1, 1\).* n = 1 Hom"):
        is_isomorphic(a2["p1"], scaled)


def test_det_vanishes_examples():
    # [[c1, c2], [c1, c2]] cancels to zero; [[c1, c2], [c2, c1]] does not
    assert preproj._det_vanishes([[[1, 0], [1, 0]], [[0, 1], [0, 1]]], 2)
    assert not preproj._det_vanishes([[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
                                     2)
    # every 3x3 skew-symmetric matrix is singular, with no entry forced 0
    skew = [[[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, -1, 0]]]
    assert preproj._det_vanishes(skew, 3)
    corner = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert not preproj._det_vanishes(skew + [corner], 3)


def test_components_match_crystal_labels():
    # geometric crystal: one component per Kostant partition, and the
    # module labels of the components are exactly the weight's labels
    seen = 0
    for name in sorted(ENUM_BOUNDS):
        p = load_preset(name)
        d, om = p["datum"], p["orientation"]
        ctx = get_canonical(d)
        for dim in all_dims_up_to(ENUM_BOUNDS[name]):
            comps = components(d, om, dim)
            assert len(comps) == kostant_dimension(d, dim), (name, dim)
            labels = sorted(module_label(ctx, m) for m in comps)
            assert labels == sorted(ctx.labels_of_weight(dim)), (name, dim)
            seen += 1
    assert seen == 30


def test_indecomposables_a2(a2):
    ind = indecomposables(a2["datum"], a2["orientation"])
    assert len(ind) == 4
    assert sorted(m.dim for m in ind) == [(0, 1), (1, 0), (1, 1), (1, 1)]


def test_rigid_iff_open_exhaustive(a2, a3):
    for box in (a2, a3):
        d, om = box["datum"], box["orientation"]
        for dim in all_dims_up_to(ENUM_BOUNDS[d.name]):
            for m in enumerate_modules(d, om, dim):
                assert is_rigid(m) == is_open_orbit(m)


def test_ext_symmetric_on_enumerated(a2):
    ind = indecomposables(a2["datum"], a2["orientation"])
    for a in ind:
        for b in ind:
            assert ext1_dim(a, b) == ext1_dim(b, a)


def test_ext_bilinear_on_sums(a2):
    mods = [a2["s1"], a2["s2"], a2["p1"], a2["p2"]]
    for a in mods:
        for b in mods:
            for c in mods:
                assert (ext1_dim(direct_sum(a, b), c)
                        == ext1_dim(a, c) + ext1_dim(b, c))


def test_collection_validation(a2):
    with pytest.raises(ValueError, match="basic"):
        RigidCollection([a2["s1"], a2["s1"]], [False, False])
    with pytest.raises(ValueError, match="rigid"):
        RigidCollection([a2["s1"], a2["s2"]], [False, False])


def test_maximal_rigid_examples(a2):
    pre = preproj_preset("A2")
    assert maximal_rigid_check(pre["collection"])
    assert not maximal_rigid_check(
        RigidCollection([a2["p1"], a2["p2"]], [True, True]))
    assert not maximal_rigid_check(
        RigidCollection([], []), a2["datum"], a2["orientation"])


def test_maximal_rigid_general_w_unsupported(a2):
    pre = preproj_preset("A2")
    with pytest.raises(NotImplementedError, match="C_w"):
        maximal_rigid_check(pre["collection"], word=(1,))


def test_mutation_example(a2):
    pre = preproj_preset("A2")
    new, (tp, ts) = mutate_rigid(pre["collection"], 1)
    assert is_isomorphic(new.modules[0], a2["s2"])
    flags = {is_isomorphic(tp, a2["p1"]), is_isomorphic(tp, a2["p2"])}
    assert flags == {True, False}
    assert is_isomorphic(ts, a2["p1"]) != is_isomorphic(tp, a2["p1"])
    # sequence direction: T' is the middle over the submodule S1
    assert is_isomorphic(tp, a2["p2"])
    assert is_isomorphic(ts, a2["p1"])


def test_mutation_involutive(a2):
    pre = preproj_preset("A2")
    once, _ = mutate_rigid(pre["collection"], 1)
    twice, _ = mutate_rigid(once, 1)
    for a, b in zip(twice.modules, pre["collection"].modules):
        assert is_isomorphic(a, b)


def test_mutation_frozen_error(a2):
    pre = preproj_preset("A2")
    with pytest.raises(ValueError, match="frozen"):
        mutate_rigid(pre["collection"], 2)


def test_mutation_requires_maximal(a2):
    bad = RigidCollection([a2["p1"], a2["p2"]], [False, True])
    with pytest.raises(ValueError, match="maximal"):
        mutate_rigid(bad, 1)


def test_component_lemma_desk_check(a2):
    # at dim (1,1), both components through the split point are the
    # closures of the exchange-pair orbits
    d, om = a2["datum"], a2["orientation"]
    origin = direct_sum(a2["s1"], a2["s2"])
    comps = components_containing(d, om, (1, 1), origin)
    assert len(comps) == 2
    hits = {("p1" if is_isomorphic(c, a2["p1"]) else
             "p2" if is_isomorphic(c, a2["p2"]) else "?") for c in comps}
    assert hits == {"p1", "p2"}
    assert len(components(d, om, (1, 1))) == 2


def test_hom_semicontinuity_along_family(a2):
    # t -> (B_12 = t, B_21 = 0) at t in {0, 1}
    d, om = a2["datum"], a2["orientation"]
    m0 = PreprojModule(d, om, (1, 1))
    m1 = a2["p1"]
    probes = indecomposables(d, om)
    for n in probes:
        assert hom_dim(m0, n) >= hom_dim(m1, n)
        assert hom_dim(n, m0) >= hom_dim(n, m1)
    assert hom_leq(m0, m1, probes)
    assert not hom_leq(m1, m0, probes)


def test_module_json_roundtrip(a2):
    d, om = a2["datum"], a2["orientation"]
    m = PreprojModule(d, om, (2, 1),
                      {(1, 2): [[Fraction(1, 2), Fraction(0)]]})
    obj = m.to_json()
    assert obj["dim"] == [2, 1]
    assert obj["arrows"] == {"1->2": [["1/2", "0"]]}
    back = PreprojModule.from_json(d, om, obj)
    assert back == m


def test_half_dimension_identity(a2):
    # dim E_V is half of dim(E_V + E_V^*) and rigid orbits fill it
    d, om = a2["datum"], a2["orientation"]
    for dim in all_dims_up_to((2, 2)):
        e = ambient_dim(d, om, dim)
        both = sum(dim[a - 1] * dim[b - 1]
                   for a, b in list(om) + [(b, a) for a, b in om])
        assert both == 2 * e
        for m in enumerate_modules(d, om, dim):
            if is_rigid(m):
                assert orbit_dim(m) == e
