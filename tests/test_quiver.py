import random

import pytest

from qbases.quiver import (PRESET_NAMES, CartanDatum, _positive_definite,
                           load_preset)

from oracles import ref_positive_definite


@pytest.fixture(scope="module")
def a2():
    return load_preset("A2")["datum"]


@pytest.fixture(scope="module")
def a3():
    return load_preset("A3")["datum"]


class TestCartanDatum:
    def test_a2_matrix(self, a2):
        assert a2.cartan == ((2, -1), (-1, 2))

    def test_d4_matrix(self):
        d4 = load_preset("D4")["datum"]
        assert d4.cartan[1] == (-1, 2, -1, -1)
        assert d4.cartan[0] == (2, -1, 0, 0)

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            CartanDatum(2, [(1, 1)])

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError):
            CartanDatum(2, [(1, 3)])

    def test_affine_rejected(self):
        # the cycle A2~ is positive semidefinite, not definite
        with pytest.raises(ValueError):
            CartanDatum(3, [(1, 2), (2, 3), (1, 3)])
        # a double edge gives the affine A1~ matrix
        with pytest.raises(ValueError):
            CartanDatum(2, [(1, 2), (1, 2)])

    def test_positive_definite_two_routes(self):
        """Fraction-free elimination agrees with the Fraction minors on
        random symmetric integer matrices of size 1-6, both verdicts
        occurring at every size."""
        rng = random.Random(30)
        seen = set()
        for _ in range(3000):
            n = rng.randint(1, 6)
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                a[i][i] = rng.randint(-1, 6)
                for j in range(i):
                    a[i][j] = a[j][i] = rng.randint(-3, 3)
            verdict = _positive_definite(a)
            assert verdict == ref_positive_definite(a), a
            seen.add((n, verdict))
        assert seen == {(n, v) for n in range(1, 7) for v in (False, True)}

    def test_bilinear(self, a2):
        a1, a2r = a2.simple_root(1), a2.simple_root(2)
        assert a2.bilinear(a1, a1) == 2
        assert a2.bilinear(a1, a2r) == -1
        theta = (1, 1)
        assert a2.bilinear(theta, theta) == 2

    def test_reflection(self, a2):
        assert a2.simple_reflection(1, (1, 0)) == (-1, 0)
        assert a2.simple_reflection(1, (0, 1)) == (1, 1)
        v = (2, -1)
        assert a2.simple_reflection(2, a2.simple_reflection(2, v)) == v


class TestRootSystem:
    def test_positive_root_counts(self):
        for name, count in [("A2", 3), ("A3", 6), ("A4", 10), ("D4", 12)]:
            datum = load_preset(name)["datum"]
            assert len(datum.positive_roots()) == count

    def test_a2_roots(self, a2):
        assert set(a2.positive_roots()) == {(1, 0), (0, 1), (1, 1)}

    def test_d4_highest_root(self):
        d4 = load_preset("D4")["datum"]
        assert max(d4.positive_roots(), key=sum) == (1, 2, 1, 1)

    def test_roots_have_norm_two(self, a3):
        for r in a3.positive_roots():
            assert a3.bilinear(r, r) == 2


class TestWeylGroup:
    def test_orders(self):
        for name, order in [("A2", 6), ("A3", 24), ("A4", 120), ("D4", 192)]:
            datum = load_preset(name)["datum"]
            assert datum.weyl_order() == order

    def test_length_and_reduced(self, a2):
        assert a2.weyl_length((1, 2, 1)) == 3
        assert a2.is_reduced((1, 2, 1))
        assert not a2.is_reduced((1, 1))
        assert not a2.is_reduced((1, 2, 1, 2))
        assert a2.weyl_length((1, 1)) == 0

    def test_braid_equal_elements(self, a2):
        assert a2.same_element((1, 2, 1), (2, 1, 2))
        assert not a2.same_element((1, 2), (2, 1))

    def test_inversion_sequence_a2(self, a2):
        assert a2.inversion_sequence((1, 2, 1)) == ((1, 0), (1, 1), (0, 1))

    def test_inversion_sequence_a3(self, a3):
        seq = a3.inversion_sequence((1, 2, 3, 1, 2, 1))
        assert seq == ((1, 0, 0), (1, 1, 0), (1, 1, 1),
                       (0, 1, 0), (0, 1, 1), (0, 0, 1))
        assert set(seq) == set(a3.positive_roots())

    def test_inversion_requires_reduced(self, a2):
        with pytest.raises(ValueError):
            a2.inversion_sequence((1, 1))

    def test_longest_words_in_presets(self):
        for name in ("A2", "A3", "A4", "D4"):
            p = load_preset(name)
            datum, w0 = p["datum"], p["longest_word"]
            assert datum.is_reduced(w0)
            assert len(w0) == len(datum.positive_roots())
            # w0 sends every simple root to a negative root
            for i in range(1, datum.rank + 1):
                img = datum.act(w0, datum.simple_root(i))
                assert all(x <= 0 for x in img)

    def test_longest_word_computed(self, a2):
        assert a2.weyl_length(a2.longest_word()) == 3

    def test_greedy_longest_word_is_the_bfs_word(self):
        for name in PRESET_NAMES:
            datum = load_preset(name)["datum"]
            assert datum.longest_word() == max(datum.weyl_elements(),
                                               key=len)

    def test_enumeration_deterministic(self, a3):
        first = a3.weyl_elements()
        again = a3.weyl_elements()
        assert first == again
        assert first[0] == ()
        lengths = [len(w) for w in first]
        assert lengths == sorted(lengths)
        # every enumerated word is reduced, all elements distinct
        keys = {a3._element_key(w) for w in first}
        assert len(keys) == 24
        for w in first:
            assert a3.is_reduced(w)


class TestPresets:
    def test_unknown(self):
        with pytest.raises(ValueError):
            load_preset("E8")

    def test_orientation_validated(self):
        p = load_preset("A3")
        assert p["orientation"] == ((1, 2), (2, 3))
