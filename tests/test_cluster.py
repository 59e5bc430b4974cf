"""Quantum seeds: initial data, quasi-commutation, mutation by exact
division, monomial normalization, and the verification harness."""

import copy
import itertools
import json
import random
import re
import time

import pytest

from qbases import canonical, cluster, pbwalg
from qbases.laurent import LaurentPoly, RatFunc, accumulate
from qbases.linalg import solve
from qbases.quiver import load_preset
from qbases.canonical import get_canonical
from qbases.preproj import mutate_rigid, module_label, preproj_preset
from qbases.cluster import (QuantumSeed, cluster_monomial, divide_right,
                            dual_product, initial_seed, mutate,
                            quasi_commutation, reachable_seeds,
                            verify_conjecture, _unit_coords)

from oracles import ref_certificate, ref_sigma_exponent


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


def test_initial_seed_datum_needs_word():
    p = load_preset("A2")
    with pytest.raises(ValueError, match="CartanDatum .* needs the word"):
        initial_seed(p["datum"])


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


def test_quasi_commutation(a2, monkeypatch):
    ctx = a2.context
    assert quasi_commutation(ctx, (1, 0, 0), (1, 0, 0)) == 0
    with pytest.raises(ValueError, match="not quasi-commuting"):
        quasi_commutation(ctx, (1, 0, 0), (0, 0, 1))
    assert a2.lam[0][1] == 1
    assert a2.lam[1][2] == 0
    for k in range(3):
        for l in range(3):
            assert a2.lam[k][l] == -a2.lam[l][k]
    # Y1 Y2 = (1 + q) Y2 Y1 over E*: same support and lowest exponents,
    # but the ratio is not a q-power; the products and verdict memos start
    # empty, so the patched dual_mul is the one that runs
    monkeypatch.setattr(ctx, "_products", {})
    monkeypatch.setattr(ctx, "_commutes", {})
    monkeypatch.setattr(pbwalg.PBWContext, "dual_mul", lambda self, f, g: {
        (1, 0, 1): LaurentPoly({0: 1, 1: 1}) if (1, 0, 0) in f
        else LaurentPoly.one()})
    with pytest.raises(ValueError, match="not quasi-commuting"):
        quasi_commutation(ctx, (1, 0, 0), (0, 0, 1))


def test_pair_verdicts_are_memoized(a2, monkeypatch):
    """quasi_commutation decides each ordered label pair once per
    context: a second seed with the same pairs builds no product, a
    refused pair is refused again, and seed validation still names the
    variables of the seed it checks."""
    ctx, word = a2.context, a2.word
    monkeypatch.setattr(ctx, "_commutes", {})
    calls = []
    ordered = cluster._ordered_product

    def counted(c, factors):
        calls.append(factors)
        return ordered(c, factors)

    monkeypatch.setattr(cluster, "_ordered_product", counted)
    first = QuantumSeed(ctx, word, a2.labels, a2.mutable, a2.bmat)
    assert first.lam == a2.lam and calls
    calls.clear()
    # the last two variables, now variables 1 and 2
    pair = QuantumSeed(ctx, word, a2.labels[1:], (), [(), ()])
    assert pair.lam == ((0, a2.lam[1][2]), (a2.lam[2][1], 0))
    assert calls == []
    with pytest.raises(ValueError, match="variables 1 and 2 do not") as e:
        QuantumSeed(ctx, word, [(1, 0, 0), (0, 0, 1)], (), [(), ()])
    assert calls and "not quasi-commuting" in str(e.value.__cause__)
    calls.clear()
    # the same refused pair, now variables 1 and 3
    with pytest.raises(ValueError, match="variables 1 and 3 do not"):
        QuantumSeed(ctx, word, [(1, 0, 0), (1, 0, 1), (0, 0, 1)], (),
                    [(), (), ()])
    with pytest.raises(ValueError, match="not quasi-commuting"):
        quasi_commutation(ctx, (1, 0, 0), (0, 0, 1))
    assert calls == []


def test_reachable_seeds_checks_involutivity(monkeypatch):
    # memoized pair verdicts do not stand in for the check that mutating
    # back returns the seed
    monkeypatch.setattr(cluster, "mutate", lambda seed, k: seed)
    with pytest.raises(AssertionError, match="not involutive"):
        reachable_seeds("A2", 1)


def _assert_bz_compatible(seeds):
    """Berenstein-Zelevinsky compatibility (Adv. Math. 2005) of every
    seed, B~^T Lambda = 2 (I | 0) up to the order of the columns:
    sum_p b_pj lam_pl is 2 when l is the j-th mutable index, 0 otherwise."""
    for seed in seeds:
        n = seed.size()
        for j, k in enumerate(seed.mutable):
            row = [sum(seed.bmat[p][j] * seed.lam[p][l] for p in range(n))
                   for l in range(n)]
            assert row == [2 if l + 1 == k else 0 for l in range(n)], (
                seed.history, k)


@pytest.mark.parametrize("preset, depth, count", [("A2", 2, 2),
                                                  ("A3", 8, 14)])
def test_closure_is_bz_compatible(preset, depth, count):
    seeds, _ = reachable_seeds(preset, depth)
    assert len(seeds) == count
    _assert_bz_compatible(seeds)


def test_a4_closure():
    """The exchange graph of C[N] for A4 (cluster type D6, BFZ 2005)
    closes at 672 seeds over 40 labels; each of its 4,032 exchanges
    passes, and reachable_seeds has checked that each is involutive.
    Every seed is BZ compatible, and of the 780 pairs of variables
    exactly the 480 that share a cluster q-commute."""
    seeds, log = reachable_seeds("A4", 30)
    assert len(seeds) == 672
    labels = sorted({label for s in seeds for label in s.labels})
    assert len(labels) == 40
    assert len(log) == 4032
    assert all(entry["status"] == "pass" for entry in log)
    _assert_bz_compatible(seeds)
    together = {frozenset(pair) for s in seeds
                for pair in itertools.combinations(s.labels, 2)}
    commuting = set()
    for pair in itertools.combinations(labels, 2):
        try:
            quasi_commutation(seeds[0].context, *pair)
        except ValueError:
            continue
        commuting.add(frozenset(pair))
    assert len(together) == 480
    assert commuting == together


def test_seed_forms_are_memoized(a3, monkeypatch):
    """The forms (w_k, w_l) are read per weight pair from the context: a
    second seed over the same labels calls no bilinear form, and the
    forms equal the form of the label weights."""
    ctx = a3.context
    monkeypatch.setattr(ctx, "_forms", {})
    calls = []
    form = ctx.datum.bilinear
    monkeypatch.setattr(ctx.datum, "bilinear",
                        lambda v, w: calls.append((v, w)) or form(v, w))
    first = QuantumSeed(ctx, a3.word, a3.labels, a3.mutable, a3.bmat)
    assert calls
    calls.clear()
    again = QuantumSeed(ctx, a3.word, a3.labels, a3.mutable, a3.bmat)
    assert calls == []
    weights = [ctx.label_weight(label) for label in a3.labels]
    assert first.forms == again.forms == a3.forms == tuple(
        tuple(form(v, w) for w in weights) for v in weights)


def _lam_via_constants(ctx, y1, y2):
    """The reference route of quasi_commutation: both products expanded
    in the dual canonical basis through the structure constants."""
    a, b = _unit_coords(y1), _unit_coords(y2)
    p12, p21 = dual_product(ctx, a, b), dual_product(ctx, b, a)
    assert p12 and set(p12) == set(p21), (y1, y2)
    (lam,) = {v.min_exp() - p21[d].min_exp() for d, v in p12.items()}
    assert all(v == p21[d] * LaurentPoly.q_power(lam)
               for d, v in p12.items()), (y1, y2)
    return lam


@pytest.mark.parametrize("preset, depth, count", [
    ("A2", 2, 2), ("A3", 8, 14), ("A4", 0, 1)])
def test_quasi_commutation_two_routes(preset, depth, count):
    """q-commutation on E*-coordinates equals the structure-constant
    route on every variable pair of every seed of the graph."""
    seeds, _ = reachable_seeds(preset, depth)
    assert len(seeds) == count
    for seed in seeds:
        ctx = seed.context
        for k, l in itertools.combinations(range(seed.size()), 2):
            y1, y2 = seed.labels[k], seed.labels[l]
            lam = quasi_commutation(ctx, y1, y2)
            assert lam == seed.lam[k][l]
            assert lam == _lam_via_constants(ctx, y1, y2), (seed.history,
                                                            k, l)


def test_dual_side_constructs_no_ratfunc(a3, monkeypatch):
    """Once the seed's tables and straightening memos are warm,
    quasi_commutation, structure_constants and expand_dual run in
    Z[q, q^-1] only: recomputing them constructs no RatFunc."""
    ctx = a3.context
    pairs = list(itertools.combinations(range(a3.size()), 2))
    want = {(k, l): ctx.structure_constants(a3.labels[k], a3.labels[l])
            for k, l in pairs}
    monkeypatch.setattr(ctx, "_sc", {})
    monkeypatch.setattr(ctx, "_products", {})
    monkeypatch.setattr(ctx, "_commutes", {})
    monkeypatch.setattr(ctx.ctx._k, "dual_sc", {})

    def refuse(*args, **kwargs):
        raise AssertionError("RatFunc constructed on the dual side")

    # every RatFunc is built by __init__, _raw or shift
    for name in ("__init__", "_raw", "shift"):
        monkeypatch.setattr(RatFunc, name, refuse)
    for k, l in pairs:
        y1, y2 = a3.labels[k], a3.labels[l]
        assert quasi_commutation(ctx, y1, y2) == a3.lam[k][l]
        assert ctx.structure_constants(y1, y2) == want[k, l]
        assert (ctx.expand_dual(ctx.dual_estar_coords(y1)).coords
                == {y1: LaurentPoly.one()})


@pytest.fixture(scope="module", params=["A2", "A3", "A4", "D4"])
def fresh_seed(request):
    """(seed, tables built, seconds) of the initial seed built on empty
    PBW and canonical caches."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pbwalg, "_CONTEXTS", {})
        mp.setattr(canonical, "_CANONICAL", {})
        t0 = time.time()
        seed = initial_seed(request.param)
        elapsed = time.time() - t0
        yield seed, set(seed.context._tables), elapsed


def test_initial_seed_tables_only_at_variable_weights(fresh_seed):
    seed, tables, _ = fresh_seed
    assert tables == {seed.context.label_weight(l) for l in seed.labels}


def test_initial_lambda_closed_form(fresh_seed):
    """Second route for the initial seed's Lambda: for k < l,
    lam_kl = (wt_k, wt_l) - 2 (wt_k)_{i_l}, wt_k the weight of variable
    k and (wt)_i its alpha_i coefficient; minus the quantum-minor
    formula (varpi_{i_k} - w_{<=k} varpi_{i_k},
    varpi_{i_l} + w_{<=l} varpi_{i_l}) of GLS."""
    seed, _, elapsed = fresh_seed
    form = seed.context.datum.bilinear
    wt = [seed.context.label_weight(l) for l in seed.labels]
    n = seed.size()
    for k in range(n):
        for l in range(k + 1, n):
            i_l = seed.word[l]
            assert seed.lam[k][l] == (form(wt[k], wt[l])
                                      - 2 * wt[k][i_l - 1]), (k, l)
    assert elapsed < 30


def ref_divide_right(ctx, r, y):
    """Reference route of divide_right: Z * Y = R solved as one linear
    system over Q(q) on the whole quotient weight space of E*-coordinates,
    then checked Laurent; result in dual canonical coordinates."""
    rc, yc = cluster._coords_of(r), cluster._coords_of(y)
    if not yc:
        raise ValueError("no solution")
    if not rc:
        return canonical.DualElement((0,) * ctx.datum.rank, {})
    pbw = ctx.ctx
    try:
        wr, wy = pbw.element_weight(rc), pbw.element_weight(yc)
    except ValueError as e:
        raise ValueError("no solution") from e
    wz = tuple(a - b for a, b in zip(wr, wy))
    if any(x < 0 for x in wz):
        raise ValueError("no solution")
    yp = cluster._estar_coords(ctx, yc)
    rp = cluster._estar_coords(ctx, rc)
    unknowns = ctx.labels_of_weight(wz)
    support = ctx.labels_of_weight(wr)
    columns = [pbw.dual_mul({c: LaurentPoly.one()}, yp) for c in unknowns]
    zero = LaurentPoly.zero()
    mat = [[RatFunc(col.get(d, zero)) for col in columns] for d in support]
    rhs = [RatFunc(rp.get(d, zero)) for d in support]
    try:
        z = solve(mat, rhs)
    except ValueError as e:
        if "underdetermined" in str(e):
            raise ValueError("non-unique solution") from e
        raise ValueError("no solution") from e
    for c, v in zip(unknowns, z):
        if not v.is_laurent():
            raise AssertionError(f"right quotient not Laurent at E*{c}: {v}")
    return ctx.expand_dual({c: v.to_laurent() for c, v in zip(unknowns, z)
                            if v})


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
    # the same answers from the Q(q) solve
    assert ref_divide_right(ctx, r, (1, 0, 0)) == z
    assert ref_divide_right(ctx, r, (0, 0, 0)) == u
    with pytest.raises(ValueError, match="no solution"):
        ref_divide_right(ctx, _unit_coords((1, 0, 1)), (0, 0, 1))


@pytest.mark.parametrize("exponents,label,q_power", [
    ((21, 0, 0), (21, 0, 0), 210), ((24, 0, 0), (24, 0, 0), 276),
    ((8, 4, 4), (12, 4, 4), 88)])
def test_cluster_monomials_up_to_the_cap(monkeypatch, exponents, label,
                                         q_power):
    """x_1^21 ends in E*(20,0,0) E*(1,0,0), whose leaf (21,0,0) passes
    the first digit width of the packed kernel; every monomial up to
    the height cap still normalizes, with its label and q-power."""
    monkeypatch.setattr(pbwalg, "_CONTEXTS", {})
    monkeypatch.setattr(canonical, "_CANONICAL", {})
    report = cluster_monomial(initial_seed("A2"), exponents)
    assert report.to_json() == {"exponents": list(exponents),
                                "label": list(label), "q_power": q_power,
                                "status": "pass"}


@pytest.mark.parametrize("break_lead", [
    lambda out, top: out.update({top: out[top] * LaurentPoly({0: 1, 1: 1})}),
    lambda out, top: out.pop(top),
    lambda out, top: out.clear()], ids=["coefficient", "term", "all-terms"])
def test_division_lead_check_is_loud(a2, monkeypatch, break_lead):
    """A product E*(d) Y whose lex-largest term is not a q-power at
    d + lead Y stops the division with an AssertionError naming d; it is
    never read as "no solution"."""
    ctx = a2.context
    r = ctx.structure_constants((0, 0, 1), (1, 0, 0))
    original = pbwalg.PBWContext._dual_packed

    # dual_mul reads the packed constants: break them decoded, then repack
    def broken(self, k, a, b):
        out = k.decode(original(self, k, a, b), (a, b))
        break_lead(out, max(out))
        return {c: k.pack(v) for c, v in out.items()}

    monkeypatch.setattr(ctx, "_products", {})
    monkeypatch.setattr(pbwalg.PBWContext, "_dual_packed", broken)
    with pytest.raises(AssertionError,
                       match=re.escape("E*(0, 0, 1) Y does not lead")):
        divide_right(ctx, r, (1, 0, 0))


def ref_mutate_logged(seed, k):
    """Reference route of a mutation: exchange monomials expanded through
    the structure constants, the quotient from ref_divide_right, and the
    exchange identity re-expanded through the structure constants.
    Returns the new seed, the exchange entry and the two right-hand
    sides R, one per placement."""
    ctx = seed.context
    col = seed.mutable.index(k)

    def monomial(sign):
        out = _unit_coords((0,) * seed.size())
        for label, row in zip(seed.labels, seed.bmat):
            for _ in range(max(sign * row[col], 0)):
                out = dual_product(ctx, out, _unit_coords(label))
        (label, v), = out.items()
        assert v == LaurentPoly.q_power(v.min_exp())
        return label

    plus, minus = monomial(1), monomial(-1)
    qinv = LaurentPoly.q_power(-1)
    sides = {"plus": accumulate({plus: qinv}, _unit_coords(minus)),
             "minus": accumulate(_unit_coords(plus), {minus: qinv})}
    found = []
    for placement, r in sides.items():
        try:
            z = ref_divide_right(ctx, r, seed.labels[k - 1])
        except ValueError:
            continue
        if len(z.coords) == 1:
            (label, v), = z.coords.items()
            if v == LaurentPoly.q_power(v.min_exp()):
                found.append((placement, label, v.min_exp(), r))
    (placement, new_label, m, r), = found
    check = ctx.structure_constants(new_label, seed.labels[k - 1])
    assert {d: v * LaurentPoly.q_power(m) for d, v in check.items()} == r
    labels = list(seed.labels)
    labels[k - 1] = new_label
    b = seed.bmat
    bmat = [[-b[p][j] if k in (p + 1, kj) else
             b[p][j] + (abs(b[p][col]) * b[k - 1][j]
                        + b[p][col] * abs(b[k - 1][j])) // 2
             for j, kj in enumerate(seed.mutable)] for p in range(len(b))]
    new = QuantumSeed(ctx, seed.word, labels, seed.mutable, bmat,
                      seed.history + (k,))
    entry = {"labels": [list(l) for l in seed.labels], "k": k,
             "new_label": list(new_label), "q_power": -m,
             "pair": [list(p) for p in sorted((plus, minus))],
             "placement": placement}
    return new, entry, sides


@pytest.mark.parametrize("preset, depth, sources, exchanges", [
    ("A2", 2, None, 2), ("A3", 8, None, 42), ("A4", 1, 1, 6)])
def test_mutation_two_routes(preset, depth, sources, exchanges):
    """Mutation by long division on E*-coordinates equals the reference
    route (structure constants, Q(q) solve) on every exchange: same
    entry, same seed, and the same right quotient for both placements.
    The seeds of the graph all take the q^-1 on M-; each exchange is
    run again with the exchange matrix negated, which swaps M+ and M-
    and so the placement, but not the new variable."""
    seeds, _ = reachable_seeds(preset, depth)
    placements = []
    for seed in seeds[:sources]:
        ctx = seed.context
        flipped = QuantumSeed(ctx, seed.word, seed.labels, seed.mutable,
                              [[-b for b in row] for row in seed.bmat],
                              seed.history)
        for k in seed.mutable:
            for s in (seed, flipped):
                new, entry = cluster._mutate_logged(s, k)
                ref, want, sides = ref_mutate_logged(s, k)
                assert entry == want, (s.history, k)
                assert new.to_json() == ref.to_json(), (s.history, k)
                for r in sides.values():
                    try:
                        z = ref_divide_right(ctx, r, s.labels[k - 1])
                    except ValueError:
                        with pytest.raises(ValueError, match="no solution"):
                            divide_right(ctx, r, s.labels[k - 1])
                        continue
                    assert divide_right(ctx, r, s.labels[k - 1]) == z
                placements.append(entry["placement"])
            assert new.labels == mutate(seed, k).labels
    assert placements == ["minus", "plus"] * exchanges


def test_quotient_not_dual_canonical_is_logged(a2, monkeypatch):
    """A quotient that is not a q-power of one dual canonical element
    fails the exchange, naming the quotient's support; it is logged."""
    exact = cluster._divide_estar
    monkeypatch.setattr(cluster, "_divide_estar", lambda pbw, r, y: {
        d: v * LaurentPoly({0: 1, 1: 1}) for d, v in exact(pbw, r, y).items()})
    with pytest.raises(cluster.ExchangeFailure,
                       match=re.escape("quotient support [(0, 0, 1)]")):
        mutate(a2, 1)
    _, log = reachable_seeds(a2, 1)
    assert log[0]["status"] == ("fail: result not dual canonical: quotient "
                                "support [(0, 0, 1)]")


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


@pytest.mark.parametrize("preset, depth, exp, jobs", [
    ("A2", 2, 3, 128), ("A3", 8, 1, 896)])
def test_certificate_two_routes(monkeypatch, preset, depth, exp, jobs):
    """The certificate read from the memo of ordered products equals the
    rebuild-from-unit route on every monomial, in shuffled order from an
    empty memo, and costs one dual_mul per product with a nonempty
    prefix: each product is its parent's times one variable."""
    seeds, _ = reachable_seeds(preset, depth)
    ctx = seeds[0].context
    todo = [(s, e) for s in seeds
            for e in itertools.product(range(exp + 1), repeat=s.size())]
    assert len(todo) == jobs
    random.Random(23).shuffle(todo)
    monkeypatch.setattr(ctx, "_products", {})
    calls = []
    original = pbwalg.PBWContext.dual_mul

    def counted(self, f, g):
        calls.append(1)
        return original(self, f, g)

    monkeypatch.setattr(pbwalg.PBWContext, "dual_mul", counted)
    for seed, exps in todo:
        fast = cluster._certificate(seed, exps)
        assert fast == ref_certificate(seed, exps), (seed.history, exps)
        calls.clear()
        assert cluster._certificate(seed, exps) == fast
        assert not calls, "a repeated monomial recomputed its product"
    monkeypatch.setattr(ctx, "_products", {})
    for seed, exps in todo:
        cluster._certificate(seed, exps)
    assert len(calls) == sum(sum(e for _, e in f) > 1 for f in ctx._products)


@pytest.mark.parametrize("preset, depth, exp, count", [
    ("A2", 2, 3, 2), ("A3", 8, 1, 14), ("D4", 1, 1, 9)])
def test_sigma_exponent_two_routes(preset, depth, exp, count):
    """The sigma exponent read from the seed's kept forms equals the
    label_weight and bilinear route at every seed of the graph and every
    exponent vector up to the bound (sigma builds no product)."""
    seeds, _ = reachable_seeds(preset, depth)
    assert len(seeds) == count
    for seed in seeds:
        for exps in itertools.product(range(exp + 1), repeat=seed.size()):
            assert cluster._sigma_exponent(seed, exps) == \
                ref_sigma_exponent(seed, exps), (seed.history, exps)


def test_warm_monomial_pass_rechecks_nothing(monkeypatch):
    """The 128 A2 monomials with their bw_contains, as the cluster-a2
    benchmark runs them: every bw_contains checks its label once, also
    from an empty membership memo, and a second pass computes no weight
    and reads no label_weight."""
    seeds, _ = reachable_seeds("A2", 2)
    ctx = seeds[0].context
    word = seeds[0].word
    todo = [(s, e) for s in seeds
            for e in itertools.product(range(4), repeat=s.size())]
    assert len(todo) == 128
    cls = canonical.CanonicalContext
    checks, reads, per_entry, stored = [], [], [], []
    check, read, bw = cls._check_label, cls.label_weight, cls.bw_contains

    def counted_check(self, label):
        checks.append(1)
        return check(self, label)

    def counted_read(self, label):
        reads.append(1)
        return read(self, label)

    def counted_bw(self, w, label):
        before = len(checks)
        out = bw(self, w, label)
        per_entry.append(len(checks) - before)
        return out

    class Memo(dict):
        def __setitem__(self, key, value):
            stored.append(key)
            super().__setitem__(key, value)

    monkeypatch.setattr(cls, "_check_label", counted_check)
    monkeypatch.setattr(cls, "label_weight", counted_read)
    monkeypatch.setattr(cls, "bw_contains", counted_bw)
    monkeypatch.setattr(ctx, "_bw", {})

    def run():
        for seed, exps in todo:
            rep = cluster_monomial(seed, exps)
            assert rep.passed() and ctx.bw_contains(word, rep.label), \
                (seed.history, exps)

    run()
    assert per_entry == [1] * 128
    monkeypatch.setattr(ctx.ctx, "_weights", Memo(ctx.ctx._weights))
    per_entry.clear()
    reads.clear()
    run()
    assert per_entry == [1] * 128
    assert not stored, "the warm pass recomputed a weight"
    assert not reads, "the warm pass read label_weight"


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


def test_exchange_monomial_route_disagreement_is_loud(a2, monkeypatch):
    """A certificate rejecting an exchange monomial that the structure
    constants accept stops the mutation; nothing is logged as a failed
    exchange."""
    monkeypatch.setattr(cluster, "_certificate", lambda seed, exps: None)
    with pytest.raises(AssertionError, match="routes disagree.*exponents "
                                             r"\[0, 0, 1\]"):
        mutate(a2, 1)
    with pytest.raises(AssertionError, match="routes disagree"):
        reachable_seeds(a2, 1)


def test_exchange_monomial_rejection_is_logged(a2, monkeypatch):
    """When both routes reject an exchange monomial, the exchange is
    logged as failed, with the explainer's report."""
    monkeypatch.setattr(cluster, "_certificate", lambda seed, exps: None)
    monkeypatch.setattr(
        cluster, "_structure_constant_report",
        lambda seed, exps: cluster.ClusterMonomialReport(
            exps, None, None, "fail: planted"))
    _, log = reachable_seeds(a2, 1)
    assert log == [{"labels": [[1, 0, 0], [0, 1, 0], [1, 0, 1]], "k": 1,
                    "status": "fail: result not dual canonical: exchange "
                              "monomial (0, 0, 1): fail: planted"}]


@pytest.mark.parametrize("preset, depth, count", [
    ("A2", 2, 3), ("A3", 8, 7), ("A4", 1, 9)])
def test_mutation_builds_tables_only_at_variable_weights(
        monkeypatch, preset, depth, count):
    """From cold caches, walking the exchange graph (mutations and their
    involutivity checks) builds canonical tables exactly at the seeds'
    variable weights: none at an exchange monomial's or R's weight."""
    monkeypatch.setattr(pbwalg, "_CONTEXTS", {})
    monkeypatch.setattr(canonical, "_CANONICAL", {})
    seeds, _ = reachable_seeds(preset, depth)
    ctx = seeds[0].context
    weights = {ctx.label_weight(l) for s in seeds for l in s.labels}
    assert set(ctx._tables) == weights
    assert len(weights) == count


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


def test_reachable_seeds_rejects_negative_depth():
    with pytest.raises(ValueError, match="nonnegative, got -3"):
        reachable_seeds("A2", -3)


def test_verify_deterministic_on_cold_rerun(monkeypatch):
    r1 = verify_conjecture("A2", 2, 2)
    # the second run starts from cold PBW and canonical caches
    monkeypatch.setattr(pbwalg, "_CONTEXTS", {})
    monkeypatch.setattr(canonical, "_CANONICAL", {})
    r2 = verify_conjecture("A2", 2, 2)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


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
