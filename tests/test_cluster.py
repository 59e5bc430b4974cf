"""Quantum seeds: initial data, quasi-commutation, mutation by exact
division, monomial normalization, and the verification harness."""

import copy
import itertools
import json
import random

import pytest

from qbases import canonical, cluster, pbwalg
from qbases.laurent import LaurentPoly
from qbases.quiver import load_preset
from qbases.canonical import get_canonical
from qbases.preproj import mutate_rigid, module_label, preproj_preset
from qbases.cluster import (QuantumSeed, cluster_monomial, divide_right,
                            dual_product, initial_seed, mutate,
                            quasi_commutation, reachable_seeds,
                            verify_conjecture, _unit_coords)


@pytest.fixture(scope="module")
def a2():
    return initial_seed("A2")


@pytest.fixture(scope="module")
def a3():
    return initial_seed("A3")


def test_initial_seed_a2(a2):
    assert a2.word == (1, 2, 1)
    assert a2.labels == ((1, 0, 0), (0, 1, 0), (1, 0, 1))
    assert a2.mutable == (1,)
    assert a2.bmat == ((0,), (-1,), (1,))
    assert not a2.is_mutable(2) and not a2.is_mutable(3)


def test_initial_seed_accepts_suffix():
    seed = initial_seed("A2-w0")
    assert seed.labels == ((1, 0, 0), (0, 1, 0), (1, 0, 1))
    with pytest.raises(ValueError, match="unknown preset"):
        initial_seed("A2-nw")


def test_initial_seed_word_checks():
    p = load_preset("A2")
    with pytest.raises(ValueError, match="not reduced"):
        initial_seed(p["datum"], (1, 1, 2))
    with pytest.raises(ValueError, match="longest"):
        initial_seed(p["datum"], (1, 2))


def test_initial_seed_a3(a3):
    assert a3.word == (1, 2, 3, 1, 2, 1)
    assert a3.mutable == (1, 2, 4)
    assert a3.labels[0] == (1, 0, 0, 0, 0, 0)
    assert a3.labels[5] == (1, 0, 0, 1, 0, 1)
    rows = [a3.bmat[k - 1] for k in a3.mutable]
    for i in range(3):
        for j in range(3):
            assert rows[i][j] == -rows[j][i]


def test_initial_seed_a4():
    # validation checks all 45 pairs of the 10 variables quasi-commute
    seed = initial_seed("A4")
    assert seed.size() == 10
    assert seed.word == (1, 2, 3, 4, 1, 2, 3, 1, 2, 1)
    assert seed.mutable == (1, 2, 3, 5, 6, 8)
    for k in range(10):
        for l in range(10):
            assert seed.lam[k][l] == -seed.lam[l][k]


def test_seed_validation_failure(a2):
    ctx = a2.context
    with pytest.raises(ValueError, match="seed validation failed"):
        QuantumSeed(ctx, a2.word, [(1, 0, 0), (0, 0, 1)], (), [(), ()])


def test_quasi_commutation(a2):
    ctx = a2.context
    assert quasi_commutation(ctx, (1, 0, 0), (1, 0, 0)) == 0
    with pytest.raises(ValueError, match="not quasi-commuting"):
        quasi_commutation(ctx, (1, 0, 0), (0, 0, 1))
    assert a2.lam[0][1] == 1
    assert a2.lam[1][2] == 0
    for k in range(3):
        for l in range(3):
            assert a2.lam[k][l] == -a2.lam[l][k]


def test_divide_right_examples(a2):
    ctx = a2.context
    r = dual_product(ctx, _unit_coords((0, 0, 1)), _unit_coords((1, 0, 0)))
    assert r == {(0, 1, 0): LaurentPoly.one(),
                 (1, 0, 1): LaurentPoly.q_power(1)}
    z = divide_right(ctx, r, (1, 0, 0))
    assert z.coords == {(0, 0, 1): LaurentPoly.one()}
    u = divide_right(ctx, r, (0, 0, 0))
    assert u.coords == r
    with pytest.raises(ValueError, match="no solution"):
        divide_right(ctx, _unit_coords((1, 0, 1)), (0, 0, 1))


def test_mutation_a2(a2):
    new = mutate(a2, 1)
    assert new.labels == ((0, 0, 1), (0, 1, 0), (1, 0, 1))
    assert new.bmat == ((0,), (1,), (-1,))
    assert new.history == (1,)
    back = mutate(new, 1)
    assert back.labels == a2.labels and back.bmat == a2.bmat


def test_mutation_frozen(a2):
    with pytest.raises(ValueError, match="frozen"):
        mutate(a2, 2)


def test_exchange_identity_symbolic(a2):
    # f2^up f1^up = q (q^{-1} (f2f1)^up + (f1f2)^up)
    sc = a2.context.structure_constants((0, 0, 1), (1, 0, 0))
    assert sc == {(0, 1, 0): LaurentPoly.one(),
                  (1, 0, 1): LaurentPoly.q_power(1)}


def test_cluster_monomial_reports(a2):
    unit = cluster_monomial(a2, (0, 0, 0))
    assert unit.passed() and unit.label == (0, 0, 0) and unit.q_power == 0
    single = cluster_monomial(a2, (1, 0, 0))
    assert single.passed() and single.label == (1, 0, 0)
    assert single.q_power == 0
    square = cluster_monomial(a2, (2, 0, 0))
    assert square.passed() and square.label == (2, 0, 0)
    assert square.q_power == 1
    obj = square.to_json()
    assert obj == {"exponents": [2, 0, 0], "label": [2, 0, 0],
                   "q_power": 1, "status": "pass"}


def test_cluster_monomial_guards(a2):
    with pytest.raises(ValueError, match="length"):
        cluster_monomial(a2, (1, 0))
    with pytest.raises(ValueError, match="negative"):
        cluster_monomial(a2, (-1, 0, 0))
    with pytest.raises(ValueError, match="height bound"):
        cluster_monomial(a2, (9, 9, 9))


def _two_routes(seed, exps):
    via_certificate = cluster_monomial(seed, exps).to_json()
    via_constants = cluster._structure_constant_report(seed, exps).to_json()
    assert via_certificate == via_constants, (seed.history, exps)


def test_monomial_two_routes_a2():
    seeds, _ = reachable_seeds("A2", 2)
    checked = 0
    for seed in seeds:
        for exps in itertools.product(range(4), repeat=seed.size()):
            _two_routes(seed, exps)
            checked += 1
    assert checked == 128


def test_monomial_two_routes_a3_sample():
    seeds, _ = reachable_seeds("A3", 8)
    jobs = [(s, e) for s in seeds
            for e in itertools.product(range(2), repeat=s.size())]
    assert len(jobs) == 896
    for seed, exps in random.Random(7).sample(jobs, 40):
        _two_routes(seed, exps)


def test_certificate_builds_no_product_table(monkeypatch):
    monkeypatch.setattr(pbwalg, "_CONTEXTS", {})
    monkeypatch.setattr(canonical, "_CANONICAL", {})
    seed = initial_seed("A2")
    ctx = seed.context
    built = set(ctx._tables)
    rep = cluster_monomial(seed, (3, 2, 3))
    assert rep.passed() and ctx.label_weight(rep.label) == (8, 5)
    assert (8, 5) not in built
    assert set(ctx._tables) == built


def test_shifted_lambda_is_caught(a2):
    seed = mutate(a2, 1)
    broken = copy.copy(seed)
    lam = [list(r) for r in seed.lam]
    lam[0][1] += 1
    lam[1][0] -= 1
    broken.lam = tuple(tuple(r) for r in lam)
    assert cluster_monomial(seed, (1, 1, 0)).passed()
    with pytest.raises(AssertionError,
                       match=r"not the sigma-invariant one at seed history "
                             r"\[1\], exponents \[1, 1, 0\]"):
        cluster_monomial(broken, (1, 1, 0))


def test_route_disagreement_is_loud(a2, monkeypatch):
    monkeypatch.setattr(cluster, "_certificate", lambda seed, exps: None)
    with pytest.raises(AssertionError, match="routes disagree"):
        cluster_monomial(a2, (1, 1, 0))


def test_reachable_seeds_a2(a2):
    seeds, log = reachable_seeds("A2", 2)
    assert len(seeds) == 2
    assert {frozenset(s.label_set()) for s in seeds} == {
        frozenset({(1, 0, 0), (0, 1, 0), (1, 0, 1)}),
        frozenset({(0, 0, 1), (0, 1, 0), (1, 0, 1)})}
    assert len(log) == 2
    assert all(e["status"] == "pass" for e in log)
    assert all(e["pair"] == [[0, 1, 0], [1, 0, 1]] for e in log)
    assert all(e["q_power"] == 1 for e in log)


def test_exchange_pair_matches_preprojective(a2):
    # same pair through the module mutation, independently
    pre = preproj_preset("A2")
    _, (tprime, tsecond) = mutate_rigid(pre["collection"], 1)
    ctx = get_canonical(pre["datum"], pre["word"])
    module_pair = {module_label(ctx, tprime), module_label(ctx, tsecond)}
    _, log = reachable_seeds("A2", 1)
    cluster_pair = {tuple(p) for p in log[0]["pair"]}
    assert module_pair == cluster_pair == {(0, 1, 0), (1, 0, 1)}


def test_verify_conjecture_a2_small():
    rep = verify_conjecture("A2", 2, 2)
    assert rep["preset"] == "A2"
    assert rep["depth"] == 2
    assert len(rep["monomials"]) == 45
    assert all(m["status"] == "pass" for m in rep["monomials"])
    assert len(rep["exchange_log"]) == 2
    assert set(rep) == {"preset", "depth", "monomials", "exchange_log"}


def test_verify_depth_zero():
    rep = verify_conjecture("A2", 0, 1)
    assert all(m["status"] == "pass" for m in rep["monomials"])
    assert rep["exchange_log"] == []


def test_verify_rejects_negative_bounds():
    with pytest.raises(ValueError, match="nonnegative"):
        verify_conjecture("A2", -1, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        verify_conjecture("A2", 0, -1)


def test_verify_deterministic_across_workers(monkeypatch):
    r1 = verify_conjecture("A2", 2, 2, workers=1)
    # the second run starts from cold PBW and canonical caches
    monkeypatch.setattr(pbwalg, "_CONTEXTS", {})
    monkeypatch.setattr(canonical, "_CANONICAL", {})
    r3 = verify_conjecture("A2", 2, 2, workers=3)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r3, sort_keys=True)


def test_a3_mutations(a3):
    new = mutate(a3, 2)
    assert new.labels[1] == (1, 0, 0, 0, 1, 0)
    back = mutate(new, 2)
    assert back.label_set() == a3.label_set()


def test_seed_json_shape(a2):
    obj = a2.to_json()
    assert obj["word"] == [1, 2, 1]
    assert obj["labels"] == [[1, 0, 0], [0, 1, 0], [1, 0, 1]]
    assert obj["mutable"] == [1]
    assert obj["b_matrix"] == [[0], [-1], [1]]
    assert obj["history"] == []
