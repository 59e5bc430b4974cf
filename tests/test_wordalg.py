import random
from itertools import product

import pytest

from qbases.canonical import weights_up_to_height
from qbases.laurent import LaurentPoly, RatFunc, quantum_int
from qbases.pbwalg import pbw_indices
from qbases.quiver import load_preset
from qbases.wordalg import (
    TensorElement,
    WordElement,
    epsilon_element,
    etilde,
    ftilde,
    kashiwara_components,
    kostant_dimension,
    normal_coordinates,
    serre_element,
    weight_basis,
    words_of_content,
)

A2 = load_preset("A2")["datum"]
A3 = load_preset("A3")["datum"]

q = RatFunc({1: 1})
qi = RatFunc({-1: 1})


def f(datum, *word):
    return WordElement.monomial(datum, word)


def rand_element(rng, datum, content, span=2):
    words = list(words_of_content(content))
    terms = {}
    for w in rng.sample(words, min(len(words), 3)):
        terms[w] = LaurentPoly({rng.randint(-span, span): rng.randint(-3, 3)})
    return WordElement(datum, terms)


class TestWordElement:
    def test_weight_and_mixing(self):
        x = f(A2, 1, 2) + f(A2, 2, 1).scale(q)
        assert x.weight == (1, 1)
        with pytest.raises(ValueError):
            f(A2, 1) + f(A2, 2)

    def test_zero_is_compatible(self):
        z = WordElement.zero(A2)
        assert (z + f(A2, 1)).weight == (1, 0)
        assert z.weight is None

    def test_concat_product(self):
        x = f(A2, 1) * f(A2, 2)
        assert x == f(A2, 1, 2)
        y = (f(A2, 1, 2) + f(A2, 2, 1)) * f(A2, 1)
        assert y.coeff((1, 2, 1)) == RatFunc.one()
        assert y.coeff((2, 1, 1)) == RatFunc.one()

    def test_scalar_mixing(self):
        x = 2 * f(A2, 1) - f(A2, 1).scale(2)
        assert x.is_word_zero()
        y = f(A2, 1) * LaurentPoly({1: 1})
        assert y.coeff((1,)) == q

    def test_star(self):
        x = f(A2, 1, 1, 2).scale(q) + f(A2, 2, 1, 1)
        assert x.star() == f(A2, 2, 1, 1).scale(q) + f(A2, 1, 1, 2)
        assert x.star().star() == x

    def test_divided_power(self):
        d2 = WordElement.divided_power(A2, 1, 2)
        assert (d2.scale(quantum_int(2))) == f(A2, 1, 1)

    def test_json_roundtrip(self):
        x = f(A2, 1, 2).scale(q) - WordElement.divided_power(A2, 1, 1) * f(A2, 2)
        x = f(A3, 1, 2, 3) + f(A3, 2, 1, 3).scale(RatFunc({0: 1}, (1, 0, 1)))
        y = WordElement.from_json(A3, x.to_json())
        assert y == x


class TestCoproduct:
    def test_generator_primitive(self):
        r = WordElement.generator(A2, 1).coproduct()
        assert r.terms == {((1,), ()): RatFunc.one(), ((), (1,)): RatFunc.one()}

    def test_f1f2_expansion(self):
        # r(f1 f2) = f1f2 x 1 + f1 x f2 + q f2 x f1 + 1 x f1f2
        r = f(A2, 1, 2).coproduct()
        assert r.terms == {
            ((1, 2), ()): RatFunc.one(),
            ((1,), (2,)): RatFunc.one(),
            ((2,), (1,)): q,
            ((), (1, 2)): RatFunc.one(),
        }

    def test_algebra_morphism(self):
        rng = random.Random(5)
        for _ in range(8):
            x = rand_element(rng, A2, (1, 1))
            y = rand_element(rng, A2, (2, 0))
            assert (x * y).coproduct() == x.coproduct() * y.coproduct()

    def test_tensor_twist(self):
        # (1 x f2)(f1 x 1) = q^{-(a2,a1)} f1 x f2 = q f1 x f2
        a = TensorElement(A2, {((), (2,)): 1})
        b = TensorElement(A2, {((1,), ()): 1})
        assert (a * b).terms == {((1,), (2,)): q}


class TestPairing:
    def test_base_cases(self):
        one = WordElement.one(A2)
        assert one.pairing(one) == RatFunc.one()
        assert f(A2, 1).pairing(f(A2, 1)) == RatFunc.one()
        assert f(A2, 1).pairing(f(A2, 2)) == RatFunc.zero()

    def test_mixed_word_pairing(self):
        # (f1 f2, f2 f1) = q
        assert f(A2, 1, 2).pairing(f(A2, 2, 1)) == q
        assert f(A2, 1, 2).pairing(f(A2, 1, 2)) == RatFunc.one()

    def test_f1_squared(self):
        # (f1^2, f1^2) = 1 + q^-2 = q^-1 [2]
        expect = RatFunc({0: 1, -2: 1})
        assert f(A2, 1, 1).pairing(f(A2, 1, 1)) == expect

    def test_divided_power_norm(self):
        # (f^(2), f^(2)) = 1/(q^2 + 1), which is 1 at q = 0
        d = WordElement.divided_power(A2, 1, 2)
        n = d.pairing(d)
        assert n == RatFunc({0: 1}, (1, 0, 1))
        assert n.at_zero() == 1

    def test_symmetry(self):
        rng = random.Random(9)
        for _ in range(10):
            x = rand_element(rng, A2, (2, 1))
            y = rand_element(rng, A2, (2, 1))
            assert x.pairing(y) == y.pairing(x)

    def test_eprime_examples(self):
        # e'_1(f2 f1) = q f2
        e = f(A2, 2, 1).eprime(1)
        assert e == f(A2, 2).scale(q)
        assert f(A2, 1, 2).eprime(1) == f(A2, 2)
        assert f(A2, 1).eprime(2).is_word_zero()

    @pytest.mark.parametrize("name", ["A2", "D4"])
    def test_eprime_rejects_out_of_range_vertex(self, name):
        # cartan[i - 1] at i = 0 would silently read the last row
        datum = load_preset(name)["datum"]
        x = f(datum, 1, 2) + f(datum, 2, 1)
        for i in (0, datum.rank + 1):
            with pytest.raises(ValueError, match="out of range"):
                x.eprime(i)
            with pytest.raises(ValueError, match="out of range"):
                WordElement.zero(datum).eprime(i)

    def test_eprime_adjoint(self):
        rng = random.Random(13)
        for _ in range(10):
            x = rand_element(rng, A2, (2, 1))
            z = rand_element(rng, A2, (1, 1))
            lhs = x.pairing(WordElement.generator(A2, 1) * z)
            rhs = x.eprime(1).pairing(z)
            assert lhs == rhs

    def test_hopf_compatibility(self):
        # (x, y z) = (r(x), y x z)
        rng = random.Random(17)
        for _ in range(6):
            x = rand_element(rng, A3, (1, 1, 1))
            y = rand_element(rng, A3, (1, 1, 0))
            z = rand_element(rng, A3, (0, 0, 1))
            lhs = x.pairing(y * z)
            ytz = TensorElement(A3, {(wy, wz): cy * cz
                                     for wy, cy in y.terms.items()
                                     for wz, cz in z.terms.items()})
            rhs = x.coproduct().pairing(ytz)
            assert lhs == rhs

    def test_pairing_vector_matches_direct(self):
        rng = random.Random(21)
        for _ in range(6):
            x = rand_element(rng, A2, (2, 2))
            pv = x.pairing_vector()
            for w in words_of_content((2, 2)):
                direct = x.pairing(f(A2, *w))
                assert pv.get(w, RatFunc.zero()) == direct

    def test_height_cap(self):
        x = f(A2, *([1] * 8 + [2] * 8))
        with pytest.raises(ValueError):
            x.pairing_vector()
        with pytest.raises(ValueError):
            x.is_algebra_zero()


class TestRelations:
    def test_serre_is_algebra_zero(self):
        s = serre_element(A2, 1, 2)
        assert not s.is_word_zero()
        assert s.is_algebra_zero()
        assert serre_element(A2, 2, 1).is_algebra_zero()

    def test_serre_a3_commuting_pair(self):
        # vertices 1,3 are not joined: f1 f3 = f3 f1
        s = serre_element(A3, 1, 3)
        assert s.is_algebra_zero()
        assert f(A3, 1, 3).equals(f(A3, 3, 1))

    def test_serre_written_out(self):
        # f1^2 f2 + f2 f1^2 = [2] f1 f2 f1 in the algebra
        lhs = f(A2, 1, 1, 2) + f(A2, 2, 1, 1)
        rhs = f(A2, 1, 2, 1).scale(quantum_int(2))
        assert lhs.equals(rhs)
        assert not lhs.equals(rhs.scale(q))

    def test_equals_vs_structural(self):
        a = f(A2, 1, 3 - 2)  # f1 f1 spelled oddly
        assert a == f(A2, 1, 1)


def ref_kostant_dimension(datum, weight):
    """Reference count: unbounded coin counting over the full box of
    sub-weights, one positive root at a time."""
    target = tuple(weight)
    pts = sorted(product(*(range(t + 1) for t in target)),
                 key=lambda v: (sum(v), v))
    ways = dict.fromkeys(pts, 0)
    ways[(0,) * len(target)] = 1
    for root in datum.positive_roots():
        for v in pts:
            if ways[v]:
                lifted = tuple(a + b for a, b in zip(v, root))
                if all(x <= t for x, t in zip(lifted, target)):
                    ways[lifted] += ways[v]
    return ways[target]


class TestWeightSpaces:
    def test_kostant_dimension(self):
        assert kostant_dimension(A2, (1, 1)) == 2
        assert kostant_dimension(A2, (2, 1)) == 2
        assert kostant_dimension(A2, (2, 2)) == 3
        assert kostant_dimension(A3, (1, 1, 1)) == 4
        assert kostant_dimension(A2, (0, 0)) == 1

    @pytest.mark.parametrize("name,height,count",
                             [("A2", 8, 45), ("A3", 6, 84), ("A4", 5, 126),
                              ("D4", 5, 126)])
    def test_kostant_dimension_three_routes(self, name, height, count):
        box = load_preset(name)
        datum = box["datum"]
        roots = datum.inversion_sequence(box["longest_word"])
        weights = weights_up_to_height(datum.rank, height)
        assert len(weights) == count
        for wt in weights:
            dim = ref_kostant_dimension(datum, wt)
            assert kostant_dimension(datum, wt) == dim, (name, wt)
            assert len(pbw_indices(roots, wt)) == dim, (name, wt)

    def test_words_of_content(self):
        ws = list(words_of_content((2, 1)))
        assert ws == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]

    def test_weight_basis_a2(self):
        basis, gram = weight_basis(A2, (1, 1))
        assert basis == ((1, 2), (2, 1))
        assert gram[0][1] == q and gram[1][0] == q

    def test_weight_basis_spans(self):
        basis, gram = weight_basis(A2, (2, 1))
        assert len(basis) == 2
        # the droppped word must be expressible in the chosen ones
        x = f(A2, 2, 1, 1)
        b, coords = normal_coordinates(x, basis, gram)
        recomb = WordElement.zero(A2)
        for w, c in zip(b, coords):
            recomb = recomb + WordElement.monomial(A2, w).scale(c)
        assert recomb.equals(x)

    def test_normal_coordinates_roundtrip_random(self):
        rng = random.Random(31)
        basis, gram = weight_basis(A3, (1, 1, 1))
        assert len(basis) == 4
        for _ in range(5):
            x = rand_element(rng, A3, (1, 1, 1))
            b, coords = normal_coordinates(x, basis, gram)
            recomb = WordElement.zero(A3)
            for w, c in zip(b, coords):
                recomb = recomb + WordElement.monomial(A3, w).scale(c)
            assert recomb.equals(x)


class TestKashiwaraOperators:
    def test_components_f1_squared(self):
        comps = kashiwara_components(f(A2, 1, 1), 1)
        assert set(comps) == {2}
        assert comps[2].equals(WordElement.one(A2).scale(quantum_int(2)))

    def test_components_f2f1(self):
        comps = kashiwara_components(f(A2, 2, 1), 1)
        assert set(comps) == {0, 1}
        assert comps[1].equals(f(A2, 2).scale(q))
        # the e'-invariant part is the reflected root vector f2f1 - q f1f2
        assert comps[0].equals(f(A2, 2, 1) - f(A2, 1, 2).scale(q))

    def test_etilde_ftilde(self):
        assert etilde(f(A2, 1, 1), 1).equals(f(A2, 1).scale(quantum_int(2)))
        assert ftilde(f(A2, 1), 1).equals(WordElement.divided_power(A2, 1, 2))
        assert etilde(f(A2, 2, 1), 1).equals(f(A2, 2).scale(q))

    def test_epsilon(self):
        assert epsilon_element(f(A2, 1, 1), 1) == 2
        assert epsilon_element(f(A2, 2, 1), 1) == 1
        assert epsilon_element(f(A2, 2), 1) == 0
        assert epsilon_element(WordElement.zero(A2), 1) is None
        assert epsilon_element(serre_element(A2, 1, 2), 1) is None

    def test_etilde_ftilde_inverse_on_strings(self):
        x = WordElement.divided_power(A2, 1, 2) * f(A2, 2)
        up = ftilde(x, 1)
        back = etilde(up, 1)
        assert back.equals(x)
