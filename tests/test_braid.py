import random

import pytest

from qbases import braid
from qbases.canonical import reduced_word_paths, weights_up_to_height
from qbases.laurent import LaurentPoly, RatFunc, accumulate, quantum_factorial
from qbases.pbwalg import pbw_indices
from qbases.quiver import load_preset
from qbases.wordalg import WordElement, words_of_content
from qbases.braid import (
    TriangularElement,
    braid_apply,
    braid_word_apply,
    pbw_monomial,
    root_vector,
    root_vectors,
)

from oracles import pbw_norm

A2 = load_preset("A2")["datum"]
A3 = load_preset("A3")["datum"]
A4 = load_preset("A4")["datum"]
D4 = load_preset("D4")["datum"]

q = RatFunc({1: 1})


def F(datum, *w):
    x = TriangularElement.one(datum)
    for l in w:
        x = x * TriangularElement.f_gen(datum, l)
    return x


def E(datum, *w):
    x = TriangularElement.one(datum)
    for l in w:
        x = x * TriangularElement.e_gen(datum, l)
    return x


def K(datum, *mu):
    return TriangularElement.k_power(datum, mu)


class TestTriangularAlgebra:
    def test_ef_same_vertex(self):
        # E1 F1 - F1 E1 = (K1 - K1^-1)/(q - q^-1)
        lhs = E(A2, 1) * F(A2, 1) - F(A2, 1) * E(A2, 1)
        inv = RatFunc({1: 1}, (-1, 0, 1))
        rhs = (K(A2, 1, 0) - K(A2, -1, 0)).scale(inv)
        assert lhs == rhs

    def test_ef_distinct_vertices(self):
        assert E(A2, 1) * F(A2, 2) == F(A2, 2) * E(A2, 1)

    def test_k_commutation(self):
        # K1 F1 = q^-2 F1 K1 and K1 E1 = q^2 E1 K1
        lhs = K(A2, 1, 0) * F(A2, 1)
        rhs = (F(A2, 1) * K(A2, 1, 0)).scale(LaurentPoly.q_power(-2))
        assert lhs == rhs
        lhs = K(A2, 1, 0) * E(A2, 1)
        rhs = (E(A2, 1) * K(A2, 1, 0)).scale(LaurentPoly.q_power(2))
        assert lhs == rhs
        # K1 F2 = q F2 K1 since (a1, a2) = -1
        assert K(A2, 1, 0) * F(A2, 2) == (F(A2, 2) * K(A2, 1, 0)).scale(
            LaurentPoly.q_power(1))

    def test_k_group(self):
        assert K(A2, 1, 1) * K(A2, -1, -1) == TriangularElement.one(A2)

    def test_associativity_exhaustive_on_generators(self):
        gens = [F(A2, 1), F(A2, 2), E(A2, 1), E(A2, 2), K(A2, 1, 0), K(A2, 0, -1)]
        for a in gens:
            for b in gens:
                for c in gens:
                    assert (a * b) * c == a * (b * c)

    def test_serre_junk_detected_as_radical(self):
        # the Serre combination has no K/E part but is zero in the algebra
        s = F(A2, 1, 1, 2) - (F(A2, 1, 2, 1)).scale(
            LaurentPoly({1: 1, -1: 1})) + F(A2, 2, 1, 1)
        assert not s.is_structural_zero()
        assert s.is_zero_in_algebra()

    def test_to_word_element_rejects_positive_part(self):
        with pytest.raises(ValueError):
            E(A2, 1).to_word_element()
        with pytest.raises(ValueError):
            K(A2, 1, 0).to_word_element()

    def test_f_part_roundtrip(self):
        x = WordElement.monomial(A2, (1, 2)).scale(q) + WordElement.monomial(A2, (2, 1))
        t = TriangularElement.from_word_element(x)
        assert t.to_word_element() == x


class TestBraidAction:
    def test_images_on_a2(self):
        # T1(F1) = -K1^-1 E1
        img = braid_apply(1, F(A2, 1))
        assert img == (K(A2, -1, 0) * E(A2, 1)).scale(-1)
        # T1(E1) = -F1 K1
        img = braid_apply(1, E(A2, 1))
        assert img == (F(A2, 1) * K(A2, 1, 0)).scale(-1)
        # T1(F2) = F2 F1 - q F1 F2
        img = braid_apply(1, F(A2, 2))
        assert img == F(A2, 2, 1) - F(A2, 1, 2).scale(q)
        # T1(K1) = K_{s1(a1)} = K_{-a1}
        img = braid_apply(1, K(A2, 1, 0))
        assert img == K(A2, -1, 0)

    def test_t1t2_f1_is_f2(self):
        img = braid_word_apply((1, 2), F(A2, 1))
        assert img.to_word_element().equals(WordElement.generator(A2, 2))

    def test_inverse_on_generators(self):
        gens = [F(A2, 1), F(A2, 2), E(A2, 1), E(A2, 2), K(A2, 1, 0)]
        for i in (1, 2):
            for g in gens:
                fwd = braid_apply(i, braid_apply(i, g, inverse=True))
                bwd = braid_apply(i, braid_apply(i, g), inverse=True)
                assert (fwd - g).is_zero_in_algebra()
                assert (bwd - g).is_zero_in_algebra()

    def test_braid_relation_a2(self):
        gens = [F(A2, 1), F(A2, 2), E(A2, 1), E(A2, 2), K(A2, 1, 0), K(A2, 0, 1)]
        for g in gens:
            lhs = braid_word_apply((1, 2, 1), g)
            rhs = braid_word_apply((2, 1, 2), g)
            assert (lhs - rhs).is_zero_in_algebra()

    def test_braid_relation_a3_commuting(self):
        for g in [F(A3, 1), F(A3, 2), F(A3, 3), E(A3, 2)]:
            lhs = braid_word_apply((1, 3), g)
            rhs = braid_word_apply((3, 1), g)
            assert (lhs - rhs).is_zero_in_algebra()

    def test_braid_relation_a3_adjacent(self):
        for g in [F(A3, 1), F(A3, 2), F(A3, 3)]:
            lhs = braid_word_apply((2, 3, 2), g)
            rhs = braid_word_apply((3, 2, 3), g)
            assert (lhs - rhs).is_zero_in_algebra()

    def test_multiplicative(self):
        rng = random.Random(8)
        gens = [F(A2, 1), F(A2, 2), E(A2, 2), K(A2, 0, 1)]
        for _ in range(6):
            a, b = rng.choice(gens), rng.choice(gens)
            lhs = braid_apply(1, a * b)
            rhs = braid_apply(1, a) * braid_apply(1, b)
            assert (lhs - rhs).is_zero_in_algebra()


class TestRootVectors:
    def test_a2_vectors(self):
        vecs = root_vectors(A2, (1, 2, 1))
        f1 = WordElement.generator(A2, 1)
        f2 = WordElement.generator(A2, 2)
        assert vecs[0].equals(f1)
        assert vecs[1].equals(f2 * f1 - (f1 * f2).scale(q))
        assert vecs[2].equals(f2)

    def test_weights_match_inversion_sequence(self):
        word = (1, 2, 3, 1, 2, 1)
        vecs = root_vectors(A3, word)
        seq = A3.inversion_sequence(word)
        for v, beta in zip(vecs, seq):
            assert v.weight == beta

    def test_requires_reduced(self):
        with pytest.raises(ValueError):
            root_vectors(A2, (1, 1, 2))
        with pytest.raises(ValueError):
            root_vector(A2, (1, 2, 1), 9)
        for p in (2, 3):
            with pytest.raises(ValueError, match=r"word \(1, 1, 2\) is not "
                                                 r"reduced"):
                root_vector(A2, (1, 1, 2), p)
        assert root_vector(A2, (1, 1, 2), 1).equals(
            WordElement.generator(A2, 1))

    def test_other_reduced_word(self):
        vecs = root_vectors(A2, (2, 1, 2))
        f1 = WordElement.generator(A2, 1)
        f2 = WordElement.generator(A2, 2)
        assert vecs[0].equals(f2)
        assert vecs[1].equals(f1 * f2 - (f2 * f1).scale(q))
        assert vecs[2].equals(f1)


def _two_route_words():
    """Every reduced word of w0 in A2 and A3, the preset and greedy
    (lex-minimal) words of A4 and D4, and the non-longest words of the CLI
    and CI runs."""
    out = []
    for name, datum in (("A2", A2), ("A3", A3)):
        w0 = load_preset(name)["longest_word"]
        out += [(name, w) for w in sorted(reduced_word_paths(datum, w0))]
    for name, datum in (("A4", A4), ("D4", D4)):
        out += [(name, load_preset(name)["longest_word"]),
                (name, datum.longest_word())]
    out += [("A3", (1, 2, 3)), ("D4", (2, 1, 3, 4, 2))]
    return out


TWO_ROUTE_WORDS = _two_route_words()


class TestRootVectorRoutes:
    """The Laurent route of root_vectors against braid_word_apply, the
    full-algebra route over Q(q)."""

    @pytest.mark.parametrize("name,word", TWO_ROUTE_WORDS, ids=[
        name + "-" + "".join(map(str, w)) for name, w in TWO_ROUTE_WORDS])
    def test_laurent_route_matches_triangular_route(self, name, word):
        datum = {"A2": A2, "A3": A3, "A4": A4, "D4": D4}[name]
        for p, vec in enumerate(root_vectors(datum, word), 1):
            x = TriangularElement.f_gen(datum, word[p - 1])
            slow = braid_word_apply(word[:p - 1], x).to_word_element()
            assert vec == slow, (word, p)

    def test_all_reduced_words_covered(self):
        names = [name for name, _ in TWO_ROUTE_WORDS]
        assert names.count("A2") == 2 and names.count("A3") == 17
        assert ("A4", (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)) in TWO_ROUTE_WORDS
        assert ("D4", (1, 2, 1, 3, 2, 1, 4, 2, 1, 3, 2, 4)) in TWO_ROUTE_WORDS

    @pytest.mark.parametrize("name,word", TWO_ROUTE_WORDS, ids=[
        name + "-" + "".join(map(str, w)) for name, w in TWO_ROUTE_WORDS])
    def test_simple_root_positions_give_the_generator(self, name, word):
        # T_w(F_i) = F_j when w(a_i) = a_j, coefficient 1 on both routes
        datum = {"A2": A2, "A3": A3, "A4": A4, "D4": D4}[name]
        vecs = root_vectors(datum, word)
        simple = 0
        for p, beta in enumerate(datum.inversion_sequence(word), 1):
            if sum(beta) != 1:
                continue
            want = {(beta.index(1) + 1,): RatFunc(1)}
            x = TriangularElement.f_gen(datum, word[p - 1])
            slow = braid_word_apply(word[:p - 1], x).to_word_element()
            assert vecs[p - 1].terms == want == slow.terms, (word, p)
            simple += 1
        # a longest word inverts every simple root
        full = len(word) == len(datum.positive_roots())
        assert simple == datum.rank if full else simple >= 1

    @pytest.mark.parametrize("name,word", TWO_ROUTE_WORDS, ids=[
        name + "-" + "".join(map(str, w)) for name, w in TWO_ROUTE_WORDS])
    def test_root_vector_norms(self, name, word):
        # (E_p, E_p) = (1 - q^2)^(ht beta_p - 1), the closed form at the
        # unit exponent vector of p (Kimura 2012)
        datum = {"A2": A2, "A3": A3, "A4": A4, "D4": D4}[name]
        assert _norm_mismatches(datum, word) == []

    def test_root_vector_norms_see_the_k_term(self, monkeypatch):
        # q^-2 c for c in the K_i term of Ebar_i F_i = F_i Ebar_i + K_i -
        # K_i^-1: the kernel's own checks pass, the norms do not
        right = braid._times_letter

        def wrong(x, i, l, a):
            out = right(x, i, l, a)
            if l == i:
                accumulate(out, {(w, k + 1, 0): c.shift(-2) - c
                                 for (w, k, m), c in x.items() if m == 1})
            return out

        monkeypatch.setattr(braid, "_times_letter", wrong)
        bad = sum(len(_norm_mismatches(datum, word))
                  for name, datum in (("A2", A2), ("A3", A3), ("A4", A4),
                                      ("D4", D4))
                  for word in (load_preset(name)["longest_word"],
                               datum.longest_word()))
        assert bad == 21

    def test_remainder_is_loud(self, monkeypatch):
        # -K_i Ebar_i in place of -K_i^-1 Ebar_i: the K/E terms of T_2 on
        # the root vector of a_1 + a_2 + a_3 no longer cancel
        right = braid._letter_image

        def wrong(datum, i, l):
            if l != i:
                return right(datum, i, l)
            return {((), 1, 1): LaurentPoly({0: -1})}

        monkeypatch.setattr(braid, "_letter_image", wrong)
        with pytest.raises(AssertionError, match=r"T_2 at position 5 of word "
                                                 r"\(1, 2, 1, 3, 2, 1\) leaves "
                                                 r"the remainder"):
            root_vector(A3, (1, 2, 1, 3, 2, 1), 5)

    def test_inexact_division_is_loud(self, monkeypatch):
        # an extra pure-F term F_i in the image of F_i is not divisible
        # by q - q^-1
        right = braid._letter_image

        def wrong(datum, i, l):
            img = dict(right(datum, i, l))
            if l == i:
                img[((i,), 0, 0)] = LaurentPoly.one()
            return img

        monkeypatch.setattr(braid, "_letter_image", wrong)
        with pytest.raises(AssertionError, match=r"T_2 at position 5 of word "
                                                 r"\(1, 2, 1, 3, 2, 1\): a "
                                                 r"coefficient is not "
                                                 r"divisible"):
            root_vector(A3, (1, 2, 1, 3, 2, 1), 5)

    def test_wrong_weight_is_loud(self, monkeypatch):
        # T_i(F_j) = F_j for adjacent i, j keeps the weight a_j
        right = braid._letter_image

        def wrong(datum, i, l):
            if datum.cartan[i - 1][l - 1] != -1:
                return right(datum, i, l)
            return {((l,), 0, 0): LaurentPoly.one()}

        monkeypatch.setattr(braid, "_letter_image", wrong)
        with pytest.raises(AssertionError, match=r"position 2 of word "
                                                 r"\(1, 2, 1\) has weight "
                                                 r"\(0, 1\), expected the "
                                                 r"root \(1, 1\)"):
            root_vector(A2, (1, 2, 1), 2)

    def test_rank_one_rule_is_loud(self, monkeypatch):
        # q^{+2k} for q^{-2k} in K_i^k F_i = q^{-2k} F_i K_i^k, the first
        # term of the F_i rule
        right = braid._times_letter
        monkeypatch.setattr(braid, "_times_letter", lambda x, i, l, a: right(
            x, i, l, -a if l == i else a))
        with pytest.raises(AssertionError, match=r"T_2 at position 5 of word "
                                                 r"\(1, 2, 1, 3, 2, 1\) leaves "
                                                 r"the remainder"):
            root_vector(A3, (1, 2, 1, 3, 2, 1), 5)


def _norm_mismatches(datum, word):
    """Positions p whose root vector E_p has (E_p, E_p) other than
    pbw_norm at the unit exponent vector of p."""
    out = []
    for p, (vec, beta) in enumerate(zip(root_vectors(datum, word),
                                        datum.inversion_sequence(word))):
        unit = (0,) * p + (1,) + (0,) * (len(word) - p - 1)
        if vec.pairing(vec) != pbw_norm(unit, sum(beta)):
            out.append(p)
    return out


def _product_route(datum, vectors, c):
    """The ordered product of divided powers by WordElement products."""
    out = WordElement.one(datum)
    for m, vec in zip(c, vectors):
        if m:
            inv = RatFunc(1) / RatFunc(quantum_factorial(m))
            out = out * (vec ** m).scale(inv)
    return out


@pytest.mark.parametrize("name,height,labels", [("A2", 6, 50), ("A3", 4, 62)])
def test_pbw_monomial_matches_product_route(name, height, labels):
    box = load_preset(name)
    datum, word = box["datum"], box["longest_word"]
    vectors = root_vectors(datum, word)
    roots = datum.inversion_sequence(word)
    seen = 0
    for wt in weights_up_to_height(datum.rank, height):
        for c in pbw_indices(roots, wt):
            fast = pbw_monomial(datum, word, c, vectors=vectors)
            assert fast == _product_route(datum, vectors, c), c
            seen += 1
    assert seen == labels


class TestPbwMonomials:
    def test_a2_basic(self):
        vecs = root_vectors(A2, (1, 2, 1))
        p = pbw_monomial(A2, (1, 2, 1), (1, 0, 1), vectors=vecs)
        assert p.equals(WordElement.monomial(A2, (1, 2)))
        p0 = pbw_monomial(A2, (1, 2, 1), (0, 1, 0), vectors=vecs)
        assert p0.equals(vecs[1])

    def test_divided_power_normalization(self):
        vecs = root_vectors(A2, (1, 2, 1))
        p = pbw_monomial(A2, (1, 2, 1), (2, 0, 0), vectors=vecs)
        assert p.equals(WordElement.divided_power(A2, 1, 2))

    def test_orthogonality_small_heights(self):
        word = (1, 2, 1)
        vecs = root_vectors(A2, word)
        seq = A2.inversion_sequence(word)
        # all exponent vectors of height <= 4, grouped by weight
        by_weight = {}
        for c1 in range(3):
            for c2 in range(3):
                for c3 in range(3):
                    c = (c1, c2, c3)
                    wt = tuple(sum(k * b[t] for k, b in zip(c, seq))
                               for t in range(2))
                    if sum(wt) <= 4:
                        by_weight.setdefault(wt, []).append(c)
        checked = 0
        for wt, cs in by_weight.items():
            els = {c: pbw_monomial(A2, word, c, vectors=vecs) for c in cs}
            for a in cs:
                for b in cs:
                    if a < b:
                        assert els[a].pairing(els[b]).is_zero()
                        checked += 1
        assert checked >= 4

    def test_norm_of_middle_vector(self):
        # (T1 f2, T1 f2) = 1 - q^2: the form is not braid invariant
        vecs = root_vectors(A2, (1, 2, 1))
        n = vecs[1].pairing(vecs[1])
        assert n == RatFunc({0: 1, 2: -1})

    def test_exponent_errors(self):
        with pytest.raises(ValueError):
            pbw_monomial(A2, (1, 2, 1), (1, 0))
        with pytest.raises(ValueError):
            pbw_monomial(A2, (1, 2, 1), (-1, 0, 0))
