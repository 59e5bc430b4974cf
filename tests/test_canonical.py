"""Canonical/dual-canonical tables, crystal labels, Saito reflections,
and the routes to the subsets attached to Weyl group elements."""

import random
import re

import pytest

from qbases.laurent import LaurentPoly, RatFunc
from qbases.quiver import load_preset
from qbases.wordalg import WordElement
from qbases import canonical
from qbases.canonical import (CanonicalContext, braid_moves, get_canonical,
                              move_label, pbw_indices, weights_up_to_height)
from oracles import (pairing, ref_bw_contains, ref_label_weight, ref_mul,
                     ref_saito_reflection, ref_structure_constants,
                     ref_table)

Q = LaurentPoly({1: 1})
RQ = RatFunc({1: 1})


@pytest.fixture(scope="module")
def a2():
    p = load_preset("A2")
    return get_canonical(p["datum"], p["longest_word"])


@pytest.fixture(scope="module")
def a3():
    p = load_preset("A3")
    return get_canonical(p["datum"], p["longest_word"])


def _l_coords(ctx, label):
    """b^up(label) over L(d), derived from its E*-coordinates:
    E*(d) = L(d) / (L(d), L(d))."""
    return {d: RatFunc(v) / ctx.ctx.norm(d)
            for d, v in ctx.dual_estar_coords(label).items()}


def test_get_canonical_shared(a2):
    p = load_preset("A2")
    assert get_canonical(p["datum"], p["longest_word"]) is a2


def test_labelling_word_must_be_longest():
    p = load_preset("A2")
    with pytest.raises(ValueError):
        CanonicalContext(p["datum"], (1, 2))


def test_pbw_indices_short_word(a2):
    roots = a2.datum.inversion_sequence
    assert pbw_indices(roots((1, 2)), (1, 1)) == ((0, 1),)
    assert pbw_indices(roots((1, 2)), (2, 1)) == ((1, 1),)
    assert pbw_indices(roots((1,)), (0, 1)) == ()
    assert pbw_indices(roots(()), (0, 0)) == ((),)


def test_weights_up_to_height_order():
    ws = weights_up_to_height(2, 2)
    assert ws == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))


def test_canonical_table_weight_zero(a2):
    t = a2.canonical_basis((0, 0))
    assert t.indices == ((0, 0, 0),)
    assert t.transition == [[LaurentPoly.one()]]
    assert t.canonical[0] == WordElement.one(a2.datum)


def test_canonical_table_a2_middle(a2):
    # weight alpha1 + alpha2: b(010) = L(010) + q L(101), b(101) = L(101)
    t = a2.canonical_basis((1, 1))
    assert t.indices == ((0, 1, 0), (1, 0, 1))
    assert a2.canonical_coords((0, 1, 0)) == {(0, 1, 0): RatFunc(1),
                                              (1, 0, 1): RQ}
    assert a2.canonical_coords((1, 0, 1)) == {(1, 0, 1): RatFunc(1)}
    d = a2.datum
    f1 = WordElement.generator(d, 1)
    f2 = WordElement.generator(d, 2)
    assert t.canonical[0] == f2 * f1
    assert t.canonical[1] == f1 * f2


def test_canonical_table_a2_divided_powers(a2):
    # weight 2 alpha1 + alpha2: the elements are f1^(2) f2 and f2 f1^(2),
    # up to the Serre relation (so compare in the algebra, not word by word)
    t = a2.canonical_basis((2, 1))
    d = a2.datum
    f2 = WordElement.generator(d, 2)
    dp = WordElement.divided_power(d, 1, 2)
    assert t.indices == ((1, 1, 0), (2, 0, 1))
    assert t.canonical[0].equals(f2 * dp)
    assert t.canonical[1].equals(dp * f2)


def test_canonical_is_bar_invariant(a2):
    for wt in [(1, 1), (2, 1), (2, 2)]:
        for c in a2.labels_of_weight(wt):
            coords = a2.canonical_coords(c)
            assert a2.ctx.bar(coords) == coords


def test_transition_unitriangular_in_qzq(a2, a3):
    for cc, wt in [(a2, (2, 2)), (a2, (3, 2)), (a3, (1, 1, 1))]:
        t = cc._table(wt)
        dim = len(t.indices)
        for a in range(dim):
            for b in range(dim):
                v = t.transition[a][b]
                if a == b:
                    assert v.is_one()
                elif v:
                    assert a > b
                    assert min(v.c) >= 1


def test_congruent_to_pbw_mod_q(a2):
    # b(c) = L(c) + (q Z[q] combination)
    for c in a2.labels_up_to_height(4):
        for d, v in a2.canonical_coords(c).items():
            assert v.regular_at_zero()
            assert v.at_zero() == (1 if d == c else 0)


def test_canonical_basis_height_cap(a2):
    with pytest.raises(ValueError):
        a2.canonical_basis((10, 10))


def test_identify_roundtrip(a2):
    x = a2.canonical_word_element((0, 1, 0))
    label, rem = a2.identify(x)
    assert label == (0, 1, 0)
    assert rem == WordElement.zero(a2.datum)


def test_identify_pbw_monomial_remainder(a2):
    # L(c) = b(c) - q-correction, so identify returns c and the remainder
    # has coordinates in q Z[q]
    label, rem = a2.identify_coords({(0, 1, 0): RatFunc(1)})
    assert label == (0, 1, 0)
    assert rem == {(1, 0, 1): RatFunc(LaurentPoly({1: -1}))}


def test_identify_rejects_q_multiple(a2):
    with pytest.raises(ValueError, match="not congruent to a basis vector"):
        a2.identify_coords({(0, 1, 0): RQ})


def test_identify_rejects_non_lattice(a2):
    bad = RatFunc(1) / RQ
    with pytest.raises(ValueError, match="not a lattice element"):
        a2.identify_coords({(0, 1, 0): bad})


def test_dual_pairs_to_delta(a2):
    for wt in [(1, 1), (2, 1), (2, 2)]:
        for c in a2.labels_of_weight(wt):
            up = _l_coords(a2, c)
            for d in a2.labels_of_weight(wt):
                v = pairing(a2.ctx, up, a2.canonical_coords(d))
                assert v == RatFunc(1 if c == d else 0)


def test_dual_basis_unit_coordinates(a2):
    duals = a2.dual_basis((1, 1))
    assert [sorted(x.coords) for x in duals] == [[(0, 1, 0)], [(1, 0, 1)]]
    for x in duals:
        assert all(v.is_one() for v in x.coords.values())


def test_structure_constants_examples(a2):
    f1, f2 = (1, 0, 0), (0, 0, 1)
    r = a2.structure_constants(f1, f2)
    assert r[(1, 0, 1)] == LaurentPoly.one()    # b(f1 f2)
    assert r[(0, 1, 0)] == Q                    # b(f2 f1)
    r = a2.structure_constants(f2, f1)
    assert r[(1, 0, 1)] == Q
    assert r[(0, 1, 0)] == LaurentPoly.one()
    unit = a2.unit_label()
    assert a2.structure_constants((0, 1, 0), unit) == {(0, 1, 0): LaurentPoly.one()}
    assert a2.structure_constants(unit, (0, 1, 0)) == {(0, 1, 0): LaurentPoly.one()}


def test_structure_constants_both_routes(a2):
    pairs = [((1, 0, 0), (0, 0, 1)), ((0, 0, 1), (1, 0, 0)),
             ((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (0, 1, 0)),
             ((2, 0, 0), (0, 0, 1))]
    for l1, l2 in pairs:
        assert (a2.structure_constants(l1, l2)
                == ref_structure_constants(a2, l1, l2))


def test_structure_constants_both_routes_a3(a3):
    # simple generator labels from the context's simple positions
    labels = []
    for i in (1, 2, 3):
        pos = a3.ctx.simple_pos[i]
        labels.append(tuple(1 if k == pos else 0 for k in range(6)))
    for l1 in labels:
        for l2 in labels:
            assert (a3.structure_constants(l1, l2)
                    == ref_structure_constants(a3, l1, l2))


@pytest.mark.parametrize("name, height, count", [
    ("A2", 6, 399), ("A3", 4, 346), ("D4", 3, 225)])
def test_dual_mul_two_routes(name, height, count):
    """E*(d) = L(d) / (L(d), L(d)): the Laurent product on E*-coordinates
    equals the rational product on L-coordinates rescaled by the norm,
    for every pair of dual canonical elements with ht(a) + ht(b) <= height."""
    p = load_preset(name)
    ctx = get_canonical(p["datum"], p["longest_word"])
    pbw = ctx.ctx
    labels = ctx.labels_up_to_height(height)
    ht = {c: sum(ctx.label_weight(c)) for c in labels}
    pairs = 0
    for a in labels:
        for b in labels:
            if ht[a] + ht[b] > height:
                continue
            fast = pbw.dual_mul(ctx.dual_estar_coords(a),
                                ctx.dual_estar_coords(b))
            slow = ref_mul(pbw, _l_coords(ctx, a), _l_coords(ctx, b))
            assert all(isinstance(v, LaurentPoly) for v in fast.values())
            assert ({d: RatFunc(v) for d, v in fast.items()}
                    == {d: v * pbw.norm(d) for d, v in slow.items()}), (a, b)
            pairs += 1
    assert pairs == count


def test_epsilon_counts_crystal_steps(a2):
    # element-level decompositions overcount: eps1 of b(f2 f1) is 0
    assert a2.epsilon(1, (0, 1, 0)) == 0
    assert a2.epsilon(2, (0, 1, 0)) == 1
    assert a2.epsilon(1, (3, 0, 0)) == 3
    assert a2.epsilon(1, a2.unit_label()) == 0


def test_epsilon_first_letter_reads_label(a2, a3):
    for cc, ht in [(a2, 5), (a3, 4)]:
        i1 = cc.word[0]
        for c in cc.labels_up_to_height(ht):
            assert cc.epsilon(i1, c) == c[0]


def test_ftilde_first_letter_bumps_label(a2):
    i1 = a2.word[0]
    for c in a2.labels_up_to_height(3):
        out = a2.ftilde(i1, c)
        assert out == (c[0] + 1,) + c[1:]


def test_star_is_involutive_on_labels(a2):
    assert a2.star((0, 1, 0)) == (1, 0, 1)
    assert a2.star((1, 0, 1)) == (0, 1, 0)
    for c in a2.labels_up_to_height(4):
        assert a2.star(a2.star(c)) == c


def test_phi_minus_epsilon_is_weight_pairing(a2):
    d = a2.datum
    for c in a2.labels_up_to_height(4):
        nu = a2.label_weight(c)
        for i in (1, 2):
            pair = d.bilinear(d.simple_root(i), nu)
            assert a2.phi(i, c) - a2.epsilon(i, c) == -pair


def test_saito_fixes_unit(a2):
    u = a2.unit_label()
    assert a2.saito_reflection(1, u) == u
    assert a2.saito_reflection(2, u, "inverse") == u


def test_saito_spec_example(a2):
    # Lambda_1 b(f2) = b(f2 f1)
    assert a2.saito_reflection(1, (0, 0, 1)) == (0, 1, 0)
    assert a2.saito_reflection(1, (0, 1, 0), "inverse") == (0, 0, 1)


def test_saito_rejects_bad_domain(a2):
    with pytest.raises(ValueError, match=r"epsilon\*_1\(b\) = 0, got 1"):
        a2.saito_reflection(1, (1, 0, 0))
    with pytest.raises(ValueError, match=r"epsilon_1\(b\) = 0, got 1"):
        a2.saito_reflection(1, (1, 0, 0), "inverse")
    with pytest.raises(ValueError):
        a2.saito_reflection(1, (0, 0, 0), "sideways")


def test_saito_forward_inverse_roundtrip(a2):
    for c in a2.labels_up_to_height(4):
        for i in (1, 2):
            if a2.epsilon_star(i, c) == 0:
                img = a2.saito_reflection(i, c)
                assert a2.epsilon(i, img) == 0
                assert a2.saito_reflection(i, img, "inverse") == c


def test_bw_identity_and_simple(a2):
    u = a2.unit_label()
    assert a2.bw_members_pbw((), 3) == {u}
    assert a2.bw_members_crystal((), 3) == {u}
    s1 = a2.bw_members_pbw((1,), 3)
    assert s1 == {(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)}
    assert a2.bw_members_crystal((1,), 3) == s1


def test_bw_excludes_other_generator(a2):
    s12 = a2.bw_members_pbw((1, 2), 3)
    assert (0, 0, 1) not in s12
    assert (1, 0, 0) in s12
    assert s12 == a2.bw_members_crystal((1, 2), 3)


def test_bw_rejects_non_reduced(a2):
    with pytest.raises(ValueError):
        a2.bw_members_pbw((1, 1), 2)
    with pytest.raises(ValueError):
        a2.bw_members_crystal((2, 2), 2)


def test_bw_longest_word_is_everything(a2):
    ht = 4
    everything = frozenset(a2.labels_up_to_height(ht))
    assert a2.bw_members_pbw((1, 2, 1), ht) == everything
    assert a2.bw_members_crystal((2, 1, 2), ht) == everything


def test_bw_routes_agree_all_a2(a2):
    for w in a2.datum.weyl_elements():
        assert a2.bw_members_pbw(w, 4) == a2.bw_members_crystal(w, 4)


def test_bw_routes_agree_a3_sample(a3):
    for w in [(1,), (2,), (1, 3), (2, 1, 3), (1, 2, 3)]:
        assert a3.bw_members_pbw(w, 3) == a3.bw_members_crystal(w, 3)


def test_bw_routes_agree_d4():
    p = load_preset("D4")
    cc = get_canonical(p["datum"], p["longest_word"])
    word = (2, 1, 3, 4, 2)
    via_crystal = cc.bw_members_crystal(word, 4)
    assert cc.bw_members_pbw(word, 4) == via_crystal
    assert len(via_crystal) == 20


# -- the crystal on labels against the algebraic PBW crystal

_L1 = LaurentPoly.one()


def _algebraic_label(coords):
    """Label of an algebraic crystal step's output (None for crystal
    zero); the output must be congruent to a basis vector mod q."""
    at_zero = {}
    for c, v in coords.items():
        v = RatFunc(v)
        assert v.regular_at_zero(), "crystal step left the lattice"
        if v.at_zero():
            at_zero[c] = v.at_zero()
    if not at_zero:
        return None
    assert len(at_zero) == 1 and set(at_zero.values()) == {1}, at_zero
    return next(iter(at_zero))


@pytest.mark.parametrize("name,height",
                         [("A2", 6), ("A3", 5), ("A4", 3), ("D4", 3)])
def test_crystal_matches_pbw_oracle(name, height):
    p = load_preset(name)
    cc = get_canonical(p["datum"], p["longest_word"])
    pbw = cc.ctx
    down = {}

    def e_alg(i, c):
        key = (i, c)
        if key not in down:
            down[key] = _algebraic_label(pbw.etilde(i, {c: _L1}))
        return down[key]

    checks = 0
    for c in cc.labels_up_to_height(height):
        for i in range(1, p["datum"].rank + 1):
            assert cc.ftilde(i, c) == _algebraic_label(
                pbw.ftilde(i, {c: _L1})), (i, c)
            assert cc.etilde(i, c) == e_alg(i, c), (i, c)
            eps, cur = 0, e_alg(i, c)
            while cur is not None:
                eps, cur = eps + 1, e_alg(i, cur)
            assert cc.epsilon(i, c) == eps, (i, c)
            checks += 3
        assert cc.star(c) == _algebraic_label(pbw.star({c: _L1})), c
        checks += 1
    assert checks > 300


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_braid_moves_are_weight_preserving_involutions(name):
    p = load_preset(name)
    d = p["datum"]
    cc = get_canonical(d, p["longest_word"])
    rng = random.Random(5)
    roots = {}

    def weight(word, label):
        if word not in roots:
            # the inversion sequence, without re-checking reducedness
            roots[word] = [d.act(word[:pos], d.simple_root(word[pos]))
                           for pos in range(len(word))]
        return tuple(sum(m * beta[t] for m, beta in zip(label, roots[word]))
                     for t in range(d.rank))

    words = list(cc._words())
    assert len(words) == {"A3": 16, "D4": 2316}[name]
    for word in rng.sample(words, min(len(words), 300)):
        for k, span, other in braid_moves(d, word):
            assert (k, span, word) in braid_moves(d, other)
            label = [rng.randrange(4) for _ in word]
            moved = list(label)
            move_label(moved, k, span)
            assert min(moved) >= 0
            assert weight(other, moved) == weight(word, label)
            move_label(moved, k, span)
            assert moved == label


def test_transport_reaches_every_reduced_word(a2, a3):
    assert a2.transport((1, 2, 3), (2, 1, 2)) == (4, 1, 2)
    assert a2.transport((4, 1, 2), (1, 2, 1)) == (4, 1, 2)
    for c in a3.labels_up_to_height(3):
        for word in a3._words():
            back = a3._words()[word]
            assert canonical._move(list(a3.transport(c, word)),
                                   reversed(back)) == list(c)
    with pytest.raises(ValueError, match="not a reduced word"):
        a2.transport((0, 0, 0), (1, 2, 2))


def test_star_needs_the_twisted_reversed_word(a3):
    words = a3._words()
    plain = tuple(reversed(a3.word))
    twisted = tuple(4 - i for i in plain)
    assert plain != twisted

    def star_via(word, c):
        return tuple(canonical._move(list(reversed(c)),
                                     reversed(words[word])))

    labels = a3.labels_up_to_height(4)
    assert all(star_via(twisted, c) == a3.star(c) for c in labels)
    wrong = [c for c in labels if star_via(plain, c) != a3.star(c)]
    assert wrong


def test_crystal_step_weight_check_is_loud(a2, monkeypatch):
    def swap_only(label, k, span):
        label[k], label[k + 1] = label[k + 1], label[k]

    monkeypatch.setattr(canonical, "move_label", swap_only)
    with pytest.raises(AssertionError, match=r"i = 2 on label \(0, 1, 0\)"):
        a2.ftilde(2, (0, 1, 0))


def test_epsilon_bound_set_unit_is_everything(a2):
    s = a2.epsilon_bound_set(a2.unit_label(), 3)
    assert s == frozenset(a2.labels_up_to_height(3))


def test_epsilon_bound_set_generator(a2):
    s = a2.epsilon_bound_set((1, 0, 0), 3)
    expect = {c for c in a2.labels_up_to_height(3) if a2.epsilon(1, c) >= 1}
    assert s == frozenset(expect)
    assert (1, 0, 0) in s
    assert a2.unit_label() not in s


def test_epsilon_bound_set_height_check(a2):
    with pytest.raises(ValueError):
        a2.epsilon_bound_set((2, 2, 2), 3)


def test_near_orthonormal(a2):
    for wt in [(1, 1), (2, 1), (2, 2)]:
        for a in a2.labels_of_weight(wt):
            for b in a2.labels_of_weight(wt):
                v = pairing(a2.ctx, a2.canonical_coords(a),
                            a2.canonical_coords(b))
                diff = v - (1 if a == b else 0)
                if diff:
                    assert diff.regular_at_zero() and diff.at_zero() == 0


def test_table_json_shape(a2):
    js = a2.canonical_basis((1, 1)).to_json()
    assert sorted(js) == ["canonical", "pbw_gram", "transition", "type",
                          "weight", "word"]
    assert js["type"] == "A2"
    assert js["word"] == [1, 2, 1]
    assert js["weight"] == [1, 1]
    assert js["transition"][1][0] == Q.to_json()


@pytest.mark.parametrize("label", [(1, 0), (1, 0, 0, 0), (-1, 1, 0)])
def test_malformed_labels_raise(a2, label):
    """Short, long and negative labels are refused, naming the label,
    by every crystal entry point that moves labels between words: each
    checks at entry, before any internal routine runs."""
    calls = [lambda: a2.transport(label, (2, 1, 2)),
             lambda: a2.bw_contains((1, 2), label),
             lambda: a2.epsilon(1, label),
             lambda: a2.phi(1, label),
             lambda: a2.star(label),
             lambda: a2.epsilon_star(1, label),
             lambda: a2.phi_star(1, label),
             lambda: a2.ftilde(1, label),
             lambda: a2.etilde(1, label),
             lambda: a2.ftilde_star(1, label),
             lambda: a2.etilde_star(1, label),
             lambda: a2.saito_reflection(1, label),
             lambda: a2.saito_reflection(1, label, "inverse")]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"label {label}")):
            call()


def test_bw_contains_checks_each_reduced_word_once(monkeypatch):
    """bw_contains tests a word for reducedness on its first call only,
    and still refuses a word that is not reduced on every call."""
    p = load_preset("A2")
    fresh = CanonicalContext(p["datum"], p["longest_word"])
    checked = []
    right = type(p["datum"]).is_reduced
    monkeypatch.setattr(type(p["datum"]), "is_reduced",
                        lambda self, word: checked.append(tuple(word))
                        or right(self, word))
    for _ in range(3):
        assert fresh.bw_contains((1, 2), (1, 0, 0))
        assert not fresh.bw_contains((1, 2), (0, 0, 1))
        with pytest.raises(ValueError, match=re.escape(
                "word (1, 1) is not reduced")):
            fresh.bw_contains((1, 1), (1, 0, 0))
    assert checked == [(1, 2)] + [(1, 1)] * 3


@pytest.mark.parametrize("g", [
    LaurentPoly.q_power(-1),
    LaurentPoly({2: 1, -2: -1, -3: 5})], ids=["q^-1", "q^2-q^-2+5q^-3"])
def test_solve_bar_fixed_checks_every_term(g):
    """Antisymmetry is checked on the negative exponents too: a term
    with no positive partner is not read as zero."""
    with pytest.raises(AssertionError,
                       match="bar recursion not antisymmetric"):
        canonical._solve_bar_fixed(g)


@pytest.mark.parametrize("label", [(1, 0), (-1, 2, 0), (0, 0, 0, 1)])
def test_label_weight_refuses_malformed_labels(a2, label):
    """A short, a negative and a long label: label_weight names each
    instead of reading a weight off it."""
    with pytest.raises(ValueError, match=re.escape(f"label {label}")):
        a2.label_weight(label)


def test_weight_memo_is_per_context():
    """label_weight on the preset and on the greedy A3 word equals the
    uncached sum_p c_p beta_p of that word for every label of either
    word up to height 6, each tuple read on both contexts in turn; some
    tuples have two different weights, so a memo shared between words
    would answer wrongly.  weight_of still takes any sequence."""
    p = load_preset("A3")
    datum = p["datum"]
    contexts = (get_canonical(datum, p["longest_word"]),
                get_canonical(datum))
    assert contexts[0].word != contexts[1].word
    labels = {c for ctx in contexts for c in ctx.labels_up_to_height(6)}
    differ = 0
    for c in sorted(labels):
        want = [ref_label_weight(datum, ctx.word, c) for ctx in contexts]
        assert [ctx.label_weight(c) for ctx in contexts] == want, c
        differ += want[0] != want[1]
    assert differ
    for ctx in contexts:
        c = ctx.labels_up_to_height(6)[-1]
        assert ctx.ctx.weight_of(list(c)) == ctx.label_weight(c)


def test_expand_dual_of_dual_is_unit(a2):
    for c in a2.labels_of_weight((2, 1)):
        out = a2.expand_dual(a2.dual_estar_coords(c))
        assert out.coords == {c: LaurentPoly.one()}


@pytest.mark.parametrize("weight", [(1,), (1, 1, 1), (-1, 2), (1, -1)])
def test_malformed_weights_raise(a2, weight):
    """A short, a long and two negative weights are refused, naming the
    weight and the rank, before any PBW index is enumerated."""
    calls = [lambda: a2.canonical_basis(weight),
             lambda: a2.labels_of_weight(weight),
             lambda: a2.ctx.gram(weight)]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(
                f"weight {weight} is not a weight of rank 2")):
            call()


@pytest.mark.parametrize("preset, weights", [
    ("A2", weights_up_to_height(2, 8)),
    ("A3", weights_up_to_height(3, 6)),
    ("D4", weights_up_to_height(4, 4) + ((2, 4, 2, 2),)),
])
def test_sparse_columns_match_dense_solve(preset, weights):
    """The one-pass sparse columns and their inverse rows agree with the
    dense triangular solve and inverse entry for entry, and each dual
    row lists its E* terms in index order."""
    p = load_preset(preset)
    ctx = get_canonical(p["datum"], p["longest_word"])
    for wt in weights:
        inds, trans, inv = ref_table(ctx, wt)
        table = ctx._table(wt)
        assert table.indices == inds
        assert table.transition == trans, wt
        for k, c in enumerate(inds):
            expect = [(d, inv[k][j]) for j, d in enumerate(inds)
                      if inv[k][j]]
            assert list(ctx.dual_estar_coords(c).items()) == expect, (wt, c)


class _SelfBar(LaurentPoly):
    """A correction that is its own bar, so the solve pushes it as is."""

    __slots__ = ()

    def bar(self):
        return self


@pytest.mark.parametrize("mutant", [
    lambda kappa: kappa * 2,
    lambda kappa: _SelfBar(kappa.c),
], ids=["doubled-correction", "push-without-bar"])
def test_column_check_catches_solve_mutants(monkeypatch, mutant):
    """A wrong correction or a push without bar leaves g = M bar(P)
    apart from the column, which the closing comparison reports; the
    doubled correction still lies in qN[q], so only that check sees it."""
    solve = canonical._solve_bar_fixed
    monkeypatch.setattr(canonical, "_solve_bar_fixed",
                        lambda g: mutant(solve(g)))
    p = load_preset("A2")
    fresh = CanonicalContext(p["datum"], p["longest_word"])
    with pytest.raises(AssertionError, match=re.escape(
            "not bar invariant at (1, 1), column (0, 1, 0)")):
        fresh._table((1, 1))


def test_negative_correction_names_its_entry(monkeypatch):
    """The corrections lie in qN[q] for every reduced word (Kato, Duke
    2014): a correction -q is refused, naming the weight, the row and the
    column of the entry."""
    monkeypatch.setattr(canonical, "_solve_bar_fixed", lambda g: -Q)
    p = load_preset("A2")
    fresh = CanonicalContext(p["datum"], p["longest_word"])
    with pytest.raises(AssertionError, match=re.escape(
            "not in qN[q] at weight (1, 1), row (1, 0, 1), column "
            "(0, 1, 0): -q")):
        fresh._table((1, 1))


def test_saito_forward_matches_explicit_formula(a3):
    """The forward reflection, whose f*_i steps run as star, f_i steps,
    star, equals (f*_i)^(phi_i) (e_i)^(eps_i) on {eps*_i = 0} stepped
    with etilde and ftilde_star."""
    d4 = load_preset("D4")
    for ctx, height in ((a3, 4), (get_canonical(d4["datum"],
                                                d4["longest_word"]), 3)):
        for c in ctx.labels_up_to_height(height):
            for i in range(1, ctx.datum.rank + 1):
                if ctx.epsilon_star(i, c):
                    continue
                cur = c
                for _ in range(ctx.epsilon(i, c)):
                    cur = ctx.etilde(i, cur)
                for _ in range(ctx.phi(i, c)):
                    cur = ctx.ftilde_star(i, cur)
                assert ctx.saito_reflection(i, c) == cur, (i, c)


@pytest.mark.parametrize("name, labels", [("A3", 120), ("D4", 321)])
def test_crystal_strings_two_routes(name, labels):
    """Saito reflections both ways and bw_contains, which move each
    crystal string in one transport, equal the single-step reference
    of oracles on every label up to height 5, in a fresh context; off a
    reflection's domain both routes raise ValueError.  bw_contains runs
    on every prefix of the labelling word."""
    p = load_preset(name)
    ctx = CanonicalContext(p["datum"], p["longest_word"])
    found = ctx.labels_up_to_height(5)
    assert len(found) == labels
    for c in found:
        for i in range(1, ctx.datum.rank + 1):
            for direction in ("forward", "inverse"):
                try:
                    want = ref_saito_reflection(ctx, i, c, direction)
                except ValueError:
                    with pytest.raises(ValueError):
                        ctx.saito_reflection(i, c, direction)
                    continue
                assert ctx.saito_reflection(i, c, direction) == want, (
                    i, c, direction)
        for k in range(len(ctx.word) + 1):
            word = ctx.word[:k]
            assert ctx.bw_contains(word, c) == ref_bw_contains(
                ctx, word, c), (word, c)


def test_saito_inverse_matches_explicit_formula(a3):
    """The inverse reflection, computed as star . forward . star, equals
    (f_i)^(phi*_i) (e*_i)^(eps*_i) on {eps_i = 0}, with
    phi*_i = eps*_i - <h_i, content>."""
    d4 = load_preset("D4")
    for ctx, height in ((a3, 4), (get_canonical(d4["datum"],
                                                d4["longest_word"]), 3)):
        datum = ctx.datum
        for c in ctx.labels_up_to_height(height):
            for i in range(1, datum.rank + 1):
                pair = datum.bilinear(datum.simple_root(i),
                                      ctx.label_weight(c))
                assert ctx.phi_star(i, c) == ctx.epsilon_star(i, c) - pair
                if ctx.epsilon(i, c):
                    continue
                cur = c
                for _ in range(ctx.epsilon_star(i, c)):
                    cur = ctx.etilde_star(i, cur)
                for _ in range(ctx.phi_star(i, c)):
                    cur = ctx.ftilde(i, cur)
                assert ctx.saito_reflection(i, c, "inverse") == cur, (i, c)
