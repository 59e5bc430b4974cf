"""Tests for the PBW straightening engine."""

import random

import pytest

from qbases import pbwalg
from qbases.braid import pbw_monomial
from qbases.laurent import LaurentPoly, RatFunc
from qbases.linalg import solve
from qbases.quiver import load_preset
from qbases.wordalg import WordElement, kostant_dimension, weight_basis
from qbases.pbwalg import (PBWContext, get_context, accumulate, pbw_norm,
                           scaled)
from qbases.canonical import weights_up_to_height

A2 = load_preset("A2")
A3 = load_preset("A3")
D4 = load_preset("D4")


def ctx_a2():
    return get_context(A2["datum"], A2["longest_word"])


def ctx_a3():
    return get_context(A3["datum"], A3["longest_word"])


def q(k=1, c=1):
    return RatFunc(LaurentPoly.q_power(k, c))


def unit(c):
    return {tuple(c): RatFunc(1)}


# -- bookkeeping


def test_rejects_non_reduced():
    with pytest.raises(ValueError):
        PBWContext(A2["datum"], (1, 1))


def test_roots_follow_inversion_sequence():
    ctx = ctx_a2()
    assert ctx.roots == ((1, 0), (1, 1), (0, 1))
    assert ctx.simple_pos == {1: 0, 2: 2}


def test_indices_sorted_and_counted():
    ctx = ctx_a2()
    inds = ctx.indices((1, 1))
    assert inds == ((0, 1, 0), (1, 0, 1))
    assert list(inds) == sorted(inds)
    for wt in [(2, 1), (2, 2), (3, 2), (4, 3)]:
        assert len(ctx.indices(wt)) == kostant_dimension(A2["datum"], wt)
    ctx3 = ctx_a3()
    for wt in [(1, 1, 1), (2, 1, 1), (1, 2, 1)]:
        assert len(ctx3.indices(wt)) == kostant_dimension(A3["datum"], wt)
    d4 = D4["datum"]
    ctx4 = get_context(d4, D4["longest_word"])
    weights = weights_up_to_height(d4.rank, 4)
    assert len(weights) == 70
    for wt in weights:
        assert len(ctx4.indices(wt)) == kostant_dimension(d4, wt), wt


def test_weight_of_and_element_weight():
    ctx = ctx_a2()
    assert ctx.weight_of((1, 2, 0)) == (3, 2)
    assert ctx.element_weight(unit((1, 2, 0))) == (3, 2)
    with pytest.raises(ValueError):
        ctx.element_weight({(1, 0, 0): RatFunc(1), (0, 0, 1): RatFunc(1)})


# -- the word-level bridge: orthogonality against the Gram solve


def ref_coords(ctx, x):
    """PBW coordinates by the Gram solve: a greedy word basis of the
    weight, the Gram of its words against every L(d), then a linear
    solve.  Independent of the orthogonality route and its norm."""
    if x.weight is None:
        return {}
    weight = tuple(x.weight)
    words, _ = weight_basis(ctx.datum, weight)
    inds = ctx.indices(weight)
    probes = [WordElement.monomial(ctx.datum, w) for w in words]
    monos = [pbw_monomial(ctx.datum, ctx.word, d, vectors=ctx.vectors)
             for d in inds]
    amat = [[probe.pairing(m) for m in monos] for probe in probes]
    rhs = [probe.pairing(x) for probe in probes]
    return {d: v for d, v in zip(inds, solve(amat, rhs)) if v}


def random_element(datum, weight, rng):
    """A few words of the weight with small Laurent coefficients."""
    words = []
    rest = list(weight)
    while any(rest):
        i = rng.choice([t for t, r in enumerate(rest) if r])
        rest[i] -= 1
        words.append(i + 1)
    terms = {}
    for _ in range(3):
        rng.shuffle(words)
        terms[tuple(words)] = LaurentPoly.q_power(rng.randrange(-2, 3),
                                                  rng.choice((-2, -1, 1, 3)))
    return WordElement(datum, terms)


@pytest.mark.parametrize("preset,height", [("A2", 6), ("A3", 5), ("D4", 4)])
def test_coords_two_routes(preset, height):
    box = load_preset(preset)
    datum = box["datum"]
    ctx = get_context(datum, box["longest_word"])
    ht = [sum(beta) for beta in ctx.roots]
    checked = 0
    # every straightening relation E_x E_y, x > y, within the height
    for x in range(ctx.n):
        for y in range(x):
            if ht[x] + ht[y] <= height:
                prod = ctx.vectors[x] * ctx.vectors[y]
                want = ref_coords(ctx, prod)
                assert ctx.coords_of_word_element(prod) == want, (x, y)
                assert ctx._relation(x, y) == want, (x, y)
                checked += 1
    # every bar, star and e' letter within the height
    for p in range(ctx.n):
        if ht[p] > height:
            continue
        vec = ctx.vectors[p]
        barred = WordElement(datum, {w: c.bar() for w, c in vec.terms.items()})
        assert ctx.bar_letter(p) == ref_coords(ctx, barred), p
        assert ctx.star_letter(p) == ref_coords(ctx, vec.star()), p
        for i in range(1, datum.rank + 1):
            xe = vec.eprime(i)
            want = {} if xe.is_algebra_zero() else ref_coords(ctx, xe)
            assert ctx.eprime_letter(i, p) == want, (i, p)
        checked += 1
    # a seeded random element at every weight within the height
    rng = random.Random(height)
    for wt in weights_up_to_height(datum.rank, height):
        if any(wt):
            x = random_element(datum, wt, rng)
            assert ctx.coords_of_word_element(x) == ref_coords(ctx, x), wt
    assert checked


@pytest.mark.parametrize("preset,height,labels",
                         [("A2", 6, 50), ("A3", 4, 62), ("D4", 3, 53)])
def test_closed_form_norm_matches_gram(preset, height, labels):
    box = load_preset(preset)
    ctx = get_context(box["datum"], box["longest_word"])
    seen = 0
    for wt in weights_up_to_height(box["datum"].rank, height):
        inds, mat = ctx.gram(wt)
        for k, c in enumerate(inds):
            assert pbw_norm(c, sum(wt)) == mat[k][k], (wt, c)
            seen += 1
    assert seen == labels


def test_wrong_norm_fails_reconstruction(monkeypatch):
    right = pbw_norm
    monkeypatch.setattr(pbwalg, "pbw_norm",
                        lambda c, height: right(c, height) * (1 - q(2)))
    ctx = PBWContext(A2["datum"], A2["longest_word"])
    prod = ctx.vectors[2] * ctx.vectors[0]
    with pytest.raises(AssertionError, match=r"weight \(1, 1\)"):
        ctx.coords_of_word_element(prod)


# -- straightening


def test_straighten_frozen_a2_descent():
    # E_2 E_0 = f_2 f_1 and f_2 f_1 = (f_2 f_1 - q f_1 f_2) + q f_1 f_2,
    # read off from T_1 f_2 = f_2 f_1 - q f_1 f_2
    ctx = ctx_a2()
    assert ctx.straighten((2, 0)) == {(0, 1, 0): RatFunc(1),
                                      (1, 0, 1): q(1)}


def test_straighten_sorted_sequence_collects_factorials():
    ctx = ctx_a2()
    out = ctx.straighten((0, 0, 2))
    assert set(out) == {(2, 0, 1)}
    assert out[(2, 0, 1)] == RatFunc(LaurentPoly.q_power(1)
                                     + LaurentPoly.q_power(-1))


def test_straighten_matches_word_level():
    datum = A2["datum"]
    ctx = ctx_a2()
    seqs = [(2, 0), (2, 1), (1, 0), (2, 1, 0), (2, 2, 0), (1, 0, 0),
            (2, 0, 2, 0)]
    for seq in seqs:
        prod = WordElement.one(datum)
        for p in seq:
            prod = prod * ctx.vectors[p]
        assert ctx.straighten(seq) == ctx.coords_of_word_element(prod), seq


def test_straighten_matches_word_level_a3():
    datum = A3["datum"]
    ctx = ctx_a3()
    rng = random.Random(7)
    for _ in range(6):
        seq = tuple(rng.choices(range(6), k=3))
        prod = WordElement.one(datum)
        for p in seq:
            prod = prod * ctx.vectors[p]
        assert ctx.straighten(seq) == ctx.coords_of_word_element(prod), seq


# -- products


def test_mul_matches_word_level():
    ctx = ctx_a2()
    pairs = [(((0, 1, 0),), ((1, 0, 1),)),
             (((1, 0, 1),), ((0, 1, 0),)),
             (((2, 0, 1),), ((0, 1, 1),))]
    for (a,), (b,) in pairs:
        xa = ctx.monomial_word_element(a)
        xb = ctx.monomial_word_element(b)
        assert ctx.mul(unit(a), unit(b)) == \
            ctx.coords_of_word_element(xa * xb)


def test_mul_of_sorted_factors_is_unit_coefficient():
    ctx = ctx_a2()
    assert ctx.mul(unit((4, 8, 0)), unit((0, 0, 5))) == unit((4, 8, 5))


def test_divided_power_of_generator():
    ctx = ctx_a2()
    assert ctx.divided_power(unit((1, 0, 0)), 3) == unit((3, 0, 0))


# -- bar involution


def test_bar_frozen_middle_root():
    ctx = ctx_a2()
    assert ctx.bar(unit((0, 1, 0))) == {(0, 1, 0): RatFunc(1),
                                        (1, 0, 1): q(1) - q(-1)}


def test_bar_fixes_pure_generator_powers():
    ctx = ctx_a2()
    for c in [(1, 0, 0), (3, 0, 0), (0, 0, 2)]:
        assert ctx.bar(unit(c)) == unit(c)


def test_bar_is_an_involution():
    for ctx, cs in [(ctx_a2(), [(0, 1, 0), (1, 1, 0), (1, 1, 1), (2, 1, 2)]),
                    (ctx_a3(), [(0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 0)])]:
        for c in cs:
            f = unit(c)
            assert ctx.bar(ctx.bar(f)) == f, c


def test_bar_matches_word_level():
    ctx = ctx_a2()
    for c in [(0, 1, 0), (1, 1, 0), (0, 1, 1)]:
        x = ctx.monomial_word_element(c)
        barred = WordElement(x.datum,
                             {w: cf.bar() for w, cf in x.terms.items()})
        assert ctx.bar(unit(c)) == ctx.coords_of_word_element(barred)


# -- derivations and Kashiwara operators


def test_eprime_kills_braid_image():
    ctx = ctx_a2()
    assert ctx.eprime(1, unit((0, 1, 0))) == {}


def test_eprime_matches_word_level():
    ctx = ctx_a2()
    for i in (1, 2):
        for c in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1), (2, 0, 1)]:
            x = ctx.monomial_word_element(c)
            xe = x.eprime(i)
            want = {} if xe.is_algebra_zero() else \
                ctx.coords_of_word_element(xe)
            assert ctx.eprime(i, unit(c)) == want, (i, c)


def test_fmult_matches_word_level():
    ctx = ctx_a2()
    datum = A2["datum"]
    for i in (1, 2):
        for c in [(0, 1, 0), (1, 0, 1), (1, 1, 0)]:
            x = ctx.monomial_word_element(c)
            want = ctx.coords_of_word_element(
                WordElement.generator(datum, i) * x)
            assert ctx.f_mult(i, unit(c)) == want, (i, c)


def test_kashiwara_components_frozen():
    # f_2 f_1 = L(010) + q L(101): components along i = 1 are
    # {0: L(010), 1: q L(001)}
    ctx = ctx_a2()
    f = {(0, 1, 0): RatFunc(1), (1, 0, 1): q(1)}
    comps = ctx.kashiwara_components(1, f)
    assert comps == {0: unit((0, 1, 0)), 1: {(0, 0, 1): q(1)}}


def test_epsilon_counts_divided_power():
    ctx = ctx_a2()
    assert ctx.epsilon(1, unit((3, 0, 0))) == 3
    assert ctx.epsilon(1, unit((0, 1, 0))) == 0
    assert ctx.epsilon(1, unit((1, 0, 1))) == 1
    with pytest.raises(ValueError):
        ctx.epsilon(1, {})


def test_ftilde_etilde_on_labels():
    ctx = ctx_a2()
    assert ctx.ftilde(1, ctx.one()) == unit((1, 0, 0))
    assert ctx.ftilde(1, unit((0, 0, 1))) == unit((1, 0, 1))
    assert ctx.etilde(1, unit((1, 0, 1))) == unit((0, 0, 1))
    up = ctx.ftilde(2, unit((2, 0, 0)))
    down = ctx.etilde(2, up)
    assert down == unit((2, 0, 0))


def test_star_matches_word_level_and_involutive():
    ctx = ctx_a2()
    for c in [(0, 1, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]:
        x = ctx.monomial_word_element(c)
        assert ctx.star(unit(c)) == ctx.coords_of_word_element(x.star()), c
        assert ctx.star(ctx.star(unit(c))) == unit(c), c


# -- the bilinear form


def test_gram_frozen_a2():
    ctx = ctx_a2()
    inds, mat = ctx.gram((1, 1))
    assert inds == ((0, 1, 0), (1, 0, 1))
    assert mat[0][0] == RatFunc(1) - q(2)
    assert mat[1][1] == RatFunc(1)
    assert not mat[0][1] and not mat[1][0]


def test_gram_matches_word_level():
    ctx = ctx_a2()
    for wt in [(2, 1), (2, 2), (3, 2)]:
        inds, mat = ctx.gram(wt)
        for a, ca in enumerate(inds):
            for b, cb in enumerate(inds):
                xa = ctx.monomial_word_element(ca)
                xb = ctx.monomial_word_element(cb)
                assert xa.pairing(xb) == mat[a][b], (wt, ca, cb)


def test_gram_diagonal_a3():
    ctx = ctx_a3()
    for wt in [(1, 1, 0), (1, 1, 1), (2, 1, 1)]:
        inds, mat = ctx.gram(wt)
        for a in range(len(inds)):
            for b in range(len(inds)):
                if a != b:
                    assert not mat[a][b], (wt, inds[a], inds[b])
            assert mat[a][a], (wt, inds[a])


def test_pairing_at_height_twenty_norm_positive_at_zero():
    ctx = ctx_a2()
    f = unit((4, 8, 0))
    val = ctx.pairing(f, f)
    assert val.regular_at_zero() and val.at_zero() == 1


def test_pairing_symmetric_random():
    ctx = ctx_a2()
    rng = random.Random(11)
    inds = ctx.indices((2, 2))
    for _ in range(4):
        f = {}
        g = {}
        for c in inds:
            if rng.random() < 0.7:
                accumulate(f, {c: q(rng.randrange(-2, 3),
                                    rng.randrange(1, 4))})
            if rng.random() < 0.7:
                accumulate(g, {c: q(rng.randrange(-2, 3),
                                    rng.randrange(1, 4))})
        assert ctx.pairing(f, g) == ctx.pairing(g, f)


def test_scaled_prunes_zeros():
    out = scaled({(1, 0, 0): RatFunc(1)}, RatFunc(0))
    assert out == {}
