import random
from fractions import Fraction
from math import gcd

import pytest

from qbases import pbwalg
from qbases.laurent import (
    LaurentPoly,
    RatFunc,
    _L_ONE,
    _pol_divexact,
    _pol_gcd,
    _pol_mul,
    _pol_primitive,
    _trim,
    accumulate,
    quantum_binomial,
    quantum_factorial,
    quantum_int,
)


def L(d):
    return LaurentPoly(d)


q = LaurentPoly({1: 1})
qi = LaurentPoly({-1: 1})
one = LaurentPoly.one()


def rand_laurent(rng, span=4, width=3):
    return LaurentPoly({rng.randint(-span, span): rng.randint(-5, 5)
                        for _ in range(width)})


class TestLaurentPoly:
    def test_canonical_no_zeros(self):
        p = L({2: 1, 0: 0, -1: 3})
        assert 0 not in p.c
        assert p == L({2: 1, -1: 3})

    def test_add_cancel(self):
        assert (q - q).is_zero()
        assert q + qi == L({1: 1, -1: 1})

    def test_mul(self):
        # (q + q^-1)^2 = q^2 + 2 + q^-2
        p = (q + qi) * (q + qi)
        assert p == L({2: 1, 0: 2, -2: 1})

    def test_pow(self):
        assert (q + 1) ** 3 == L({3: 1, 2: 3, 1: 3, 0: 1})
        assert q ** 0 == one

    def test_bar(self):
        p = L({3: 2, -1: 5})
        assert p.bar() == L({-3: 2, 1: 5})
        assert p.bar().bar() == p

    def test_int_mixing(self):
        assert 2 * q + 1 - q == q + 1
        assert (1 - q) * (1 + q) == 1 - q ** 2

    def test_exact_div(self):
        n = q ** 2 - qi ** 2
        d = q - qi
        assert n.exact_div(d) == q + qi
        with pytest.raises(ValueError):
            (q + 1).exact_div(q - 1)
        with pytest.raises(ZeroDivisionError):
            one.exact_div(LaurentPoly.zero())

    def test_exact_div_random(self):
        rng = random.Random(7)
        for _ in range(60):
            a = rand_laurent(rng)
            b = rand_laurent(rng)
            if b.is_zero():
                continue
            assert (a * b).exact_div(b) == a

    def test_valuation_degree(self):
        p = L({-2: 1, 3: 4})
        assert p.min_exp() == -2
        assert p.max_exp() == 3
        with pytest.raises(ValueError):
            LaurentPoly.zero().min_exp()

    def test_at_one(self):
        assert quantum_int(5).at_one() == 5

    def test_json_roundtrip(self):
        p = L({-3: 2, 0: -1, 5: 7})
        assert LaurentPoly.from_json(p.to_json()) == p

    def test_hash_consistency(self):
        assert hash(L({1: 1, -1: 1})) == hash(q + qi)
        s = {q + qi, L({1: 1, -1: 1})}
        assert len(s) == 1


class TestQuantumIntegers:
    def test_small_values(self):
        assert quantum_int(0).is_zero()
        assert quantum_int(1) == one
        # [2] = q + q^-1
        assert quantum_int(2) == q + qi
        assert quantum_int(3) == L({2: 1, 0: 1, -2: 1})

    def test_bar_symmetric(self):
        for n in range(8):
            assert quantum_int(n).bar() == quantum_int(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            quantum_int(-1)
        with pytest.raises(ValueError):
            quantum_factorial(-2)

    def test_factorial(self):
        assert quantum_factorial(0) == one
        assert quantum_factorial(3) == quantum_int(2) * quantum_int(3)

    def test_binomial_value(self):
        # [4 choose 2] = q^4 + q^2 + 2 + q^-2 + q^-4
        assert quantum_binomial(4, 2) == L({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})

    def test_binomial_symmetry_and_edges(self):
        for n in range(7):
            for k in range(n + 1):
                b = quantum_binomial(n, k)
                assert b == quantum_binomial(n, n - k)
                assert b.bar() == b
                assert b.at_one() == __import__("math").comb(n, k)
        with pytest.raises(ValueError):
            quantum_binomial(3, 4)
        with pytest.raises(ValueError):
            quantum_binomial(3, -1)

    def test_pascal_rule(self):
        # [n k] = q^k [n-1 k] + q^(k-n) [n-1 k-1]
        for n in range(2, 7):
            for k in range(1, n):
                lhs = quantum_binomial(n, k)
                rhs = (LaurentPoly.q_power(k) * quantum_binomial(n - 1, k)
                       + LaurentPoly.q_power(k - n) * quantum_binomial(n - 1, k - 1))
                assert lhs == rhs


class TestRatFunc:
    def test_laurent_embedding(self):
        r = RatFunc.from_laurent(q + qi)
        assert r.is_laurent()
        assert r.to_laurent() == q + qi

    def test_reduction(self):
        # (q^2 - 1)/(q - 1) = q + 1
        r = RatFunc({2: 1, 0: -1}, (-1, 1))
        assert r.is_laurent()
        assert r.to_laurent() == q + 1

    def test_den_constant_term_nonzero(self):
        # 1/q normalizes to the Laurent monomial q^-1
        r = RatFunc({0: 1}, (0, 1))
        assert r.is_laurent()
        assert r.to_laurent() == qi

    def test_positive_leading_den(self):
        r = RatFunc({0: 1}, (-1, -1))
        assert r.den[-1] > 0
        assert r == RatFunc({0: -1}, (1, 1))

    def test_non_laurent(self):
        r = RatFunc({0: 1}, (1, 1))
        assert not r.is_laurent()
        with pytest.raises(ValueError):
            r.to_laurent()

    def test_integer_fraction_kept_exact(self):
        r = RatFunc(3) / RatFunc(2)
        assert r.num == {0: 3} and r.den == (2,)

    def test_laurent_values_share_unit_denominator(self):
        one_minus_q2 = RatFunc(L({0: 1, 2: -1}))
        a = RatFunc({0: 1}, (1, 1))            # 1/(1+q)
        b = RatFunc({1: 1}, (1, 1))            # q/(1+q)
        values = [
            RatFunc(5),
            RatFunc(L({-1: 2, 3: -1})),
            RatFunc({0: 1}, (0, 1)),           # 1/q
            one_minus_q2 / one_minus_q2,
            a + b,
            a * RatFunc(L({0: 1, 1: 1})),
        ]
        for r in values:
            assert r.is_laurent()
            assert r.den is _L_ONE, r

    def test_field_ops(self):
        a = RatFunc({0: 1}, (1, 1))            # 1/(1+q)
        b = RatFunc({0: 1}, (-1, 1))           # 1/(q-1)
        s = a + b
        # 1/(1+q) + 1/(q-1) = 2q/(q^2-1)
        assert s == RatFunc({1: 2}, (-1, 0, 1))
        assert a * b == RatFunc({0: 1}, (-1, 0, 1))
        assert (a / b) == RatFunc({0: -1, 1: 1}, (1, 1))
        assert a - a == RatFunc.zero()

    def test_inverse_and_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc.zero().inverse()
        with pytest.raises(ZeroDivisionError):
            RatFunc.one() / RatFunc.zero()
        with pytest.raises(ZeroDivisionError):
            RatFunc({0: 1}, ())

    def test_pow_negative(self):
        a = RatFunc({1: 1})  # q
        assert a ** -2 == RatFunc({-2: 1})
        b = RatFunc({0: 1}, (1, 1))
        assert b ** -1 == RatFunc({0: 1, 1: 1})

    def test_bar(self):
        # bar(1/(1+q)) = 1/(1+q^-1) = q/(q+1)
        r = RatFunc({0: 1}, (1, 1))
        assert r.bar() == RatFunc({1: 1}, (1, 1))
        rng = random.Random(3)
        for _ in range(40):
            n = rand_laurent(rng)
            d = rand_laurent(rng, span=3)
            if d.is_zero():
                continue
            x = RatFunc(n.c, d)
            assert x.bar().bar() == x

    def test_value_at_zero(self):
        # 1/(q^2+1) -> 1 at q = 0
        r = RatFunc({0: 1}, (1, 0, 1))
        assert r.regular_at_zero()
        assert r.at_zero() == 1
        half = RatFunc(1) / RatFunc(2)
        assert half.at_zero().numerator == 1 and half.at_zero().denominator == 2
        pole = RatFunc({-1: 1})
        assert not pole.regular_at_zero()
        with pytest.raises(ValueError):
            pole.at_zero()

    def test_q_valuation(self):
        assert RatFunc({2: 1, 5: 3}, (1, 1)).q_valuation() == 2
        with pytest.raises(ValueError):
            RatFunc.zero().q_valuation()

    def test_structural_equality_random(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rand_laurent(rng)
            d = rand_laurent(rng, span=2)
            c = rand_laurent(rng, span=2)
            if d.is_zero() or c.is_zero():
                continue
            a = RatFunc(n.c, d)
            b = RatFunc((n * c).c, d * c)
            assert a == b
            assert hash(a) == hash(b)

    def test_field_axioms_random(self):
        rng = random.Random(23)
        for _ in range(30):
            xs = []
            for _ in range(3):
                n = rand_laurent(rng, span=2, width=2)
                d = rand_laurent(rng, span=1, width=2)
                if d.is_zero():
                    d = one
                xs.append(RatFunc(n.c, d))
            a, b, c = xs
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            if not b.is_zero():
                assert (a / b) * b == a

    def test_json_roundtrip(self):
        r = RatFunc({-2: 1, 1: 3}, (2, 0, 1))
        j = r.to_json()
        assert RatFunc.from_json(j) == r
        assert j["den"][0] == 0 and j["num"][0] == 1

    def test_quantum_norm_shape(self):
        # 1/(q^2+1): the squared-norm shape whose value at 0 is 1
        nrm = RatFunc.one() / RatFunc({0: 1, 2: 1})
        assert nrm.at_zero() == 1


# ---------------------------------------------------------------------------
# reference routes: Euclid and long division over Fraction, the field
# arithmetic the integer kernels in qbases.laurent replaced


def ref_pol_gcd(a, b):
    a, b = _trim(a), _trim(b)
    if not a:
        return tuple(x if b[-1] > 0 else -x for x in b) if b else ()
    if not b:
        return tuple(x if a[-1] > 0 else -x for x in a)
    ca = ref_content(a)
    cb = ref_content(b)
    fa = [Fraction(x, ca) for x in a]
    fb = [Fraction(x, cb) for x in b]
    while fb:
        r = list(fa)
        while len(r) >= len(fb) and any(r):
            if r[-1] == 0:
                r.pop()
                continue
            coef = r[-1] / fb[-1]
            shift = len(r) - len(fb)
            for i, y in enumerate(fb):
                r[shift + i] -= coef * y
            r.pop()
        while r and r[-1] == 0:
            r.pop()
        fa, fb = fb, r
    den_lcm = 1
    for x in fa:
        den_lcm = den_lcm * x.denominator // gcd(den_lcm, x.denominator)
    prim = _pol_primitive(_trim([int(x * den_lcm) for x in fa]))
    if prim and prim[-1] < 0:
        prim = tuple(-x for x in prim)
    g = gcd(ca, cb)
    return tuple(x * g for x in prim)


def ref_pol_divexact(a, b):
    a, b = _trim(a), _trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ()
    quot = [0] * (len(a) - len(b) + 1)
    r = [Fraction(x) for x in a]
    for k in range(len(a) - len(b), -1, -1):
        coef = r[k + len(b) - 1] / b[-1]
        quot[k] = coef
        for i, y in enumerate(b):
            r[k + i] -= coef * y
    if any(r) or any(x.denominator != 1 for x in quot):
        raise ValueError("inexact polynomial division")
    return _trim([int(x) for x in quot])


def ref_content(p):
    g = 0
    for x in p:
        g = gcd(g, x)
    return g


def rand_dense(rng, deg, lead=(2, 3, -2, 5), coef=4):
    """Dense polynomial of degree deg with a non-unit leading coefficient."""
    return tuple(rng.randint(-coef, coef) for _ in range(deg)) \
        + (rng.choice(lead),)


def q_factor(rng):
    """(1 - q^{2s}) or the quantum integer q^{n-1} [n] = sum_k q^{2k}."""
    s = rng.randint(1, 3)
    if rng.random() < 0.5:
        return (1,) + (0,) * (2 * s - 1) + (-1,)
    return tuple(1 - k % 2 for k in range(2 * s + 1))


def q_product(rng, n):
    p = (rng.choice((1, -1, 2, 3)),)
    for _ in range(n):
        p = _pol_mul(p, q_factor(rng))
    return p


def both_routes(a, b):
    new, ref = _pol_gcd(a, b), ref_pol_gcd(a, b)
    assert new == ref, (a, b)
    if new:
        for p in (a, b):
            assert _pol_divexact(p, new) == ref_pol_divexact(p, new)
    return new


class TestKernelTwoRoutes:
    def test_planted_common_factor(self):
        rng = random.Random(31)
        for _ in range(300):
            f = rand_dense(rng, rng.randint(0, 3))
            a = _pol_mul(rand_dense(rng, rng.randint(0, 4)), f)
            b = _pol_mul(rand_dense(rng, rng.randint(0, 4)), f)
            ka, kb = rng.choice((1, 2, 6)), rng.choice((1, 3, 6))
            a, b = tuple(ka * x for x in a), tuple(kb * x for x in b)
            g = both_routes(a, b)
            # the planted factor divides the gcd exactly
            assert _pol_divexact(g, _pol_primitive(f)) == \
                ref_pol_divexact(g, _pol_primitive(f))
            assert both_routes(b, a) == g

    def test_workload_shapes(self):
        rng = random.Random(37)
        for _ in range(200):
            a = q_product(rng, rng.randint(0, 4))
            b = q_product(rng, rng.randint(1, 4))
            both_routes(a, b)
            # one-term numerator against a long denominator
            both_routes((rng.choice((1, -1, 4)),), b)
            ab = _pol_mul(a, b)
            assert _pol_divexact(ab, b) == ref_pol_divexact(ab, b) == a

    def test_degenerate_arguments(self):
        for a, b in [((), ()), ((), (0, -2, -4)), ((3, 6), ()),
                     ((0, 0, 3), (1, 1)), ((0, 2), (0, 4)), ((-6,), (4, 2)),
                     ((0, 1, -1), (0, 0, 1))]:
            both_routes(a, b)

    @pytest.mark.parametrize("a, b", [
        ((1, 1), (-1, 1)),        # (1 + q)/(q - 1): nonzero remainder
        ((1,), (1, 1)),           # lower degree than the divisor
        ((1, 2), (0, 2)),         # remainder 1 after an integral step
        ((1, 1), (2, 2)),         # (1 + q)/(2 + 2q) = 1/2: not integral
        ((1, 2, 1), (2, 2)),      # (1 + q)^2/(2 + 2q) = (1 + q)/2
        ((3, 0, 3), (1, 0, 2)),   # leading step 3/2
    ])
    def test_inexact_division_raises(self, a, b):
        for route in (_pol_divexact, ref_pol_divexact):
            with pytest.raises(ValueError, match="inexact"):
                route(a, b)

    def test_division_by_zero(self):
        for route in (_pol_divexact, ref_pol_divexact):
            with pytest.raises(ZeroDivisionError):
                route((1, 1), (0,))

    def test_ratfunc_normal_form_random(self):
        rng = random.Random(41)

        def rand_rat():
            d = LaurentPoly(dict(enumerate(q_product(rng, 2))))
            d = d * rand_laurent(rng, span=1, width=2)
            return RatFunc(rand_laurent(rng, span=3, width=3).c, d or one)

        xs = [rand_rat() for _ in range(6)]
        for _ in range(120):
            a, b = rng.choice(xs), rng.choice(xs)
            op = rng.choice(("+", "-", "*", "/"))
            if op == "/" and b.is_zero():
                continue
            r = {"+": a.__add__, "-": a.__sub__, "*": a.__mul__,
                 "/": a.__truediv__}[op](b)
            assert r.den[0] != 0 and r.den[-1] > 0
            if r.num:
                m = min(r.num)
                npoly = [r.num.get(m + i, 0)
                         for i in range(max(r.num) - m + 1)]
                assert ref_pol_gcd(npoly, r.den) == (1,)
            else:
                assert r.den == (1,)
            xs[rng.randrange(len(xs))] = r if len(r.den) < 12 else a


def test_accumulate_keeps_type_and_prunes():
    assert pbwalg.accumulate is accumulate
    half = RatFunc(1, (1, 1))  # 1/(1 + q)
    for a, b in ((2, 5), (q, qi + one), (half, RatFunc(q))):
        target = {"x": a, "y": b}
        out = accumulate(target, {"x": b, "z": a})
        assert out is target
        assert out == {"x": a + b, "y": b, "z": a}
        assert all(type(v) is type(a) for v in out.values())
        # a cancelling term removes its key
        assert accumulate(target, {"x": -(a + b)}) is target
        assert target == {"y": b, "z": a}
        # a zero scale leaves the target as it was; -1 cancels y
        assert accumulate(target, {"y": b, "w": a}, a - a) is target
        assert target == {"y": b, "z": a}
        accumulate(target, {"y": b}, -1)
        assert target == {"z": a}
        assert type(target["z"]) is type(a)
