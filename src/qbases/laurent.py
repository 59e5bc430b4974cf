"""Exact arithmetic in Z[q, q^-1] and Q(q).

LaurentPoly is a sparse integer Laurent polynomial keyed by exponent.
RatFunc is a reduced fraction num/den with num a Laurent polynomial and
den an ordinary polynomial with nonzero constant term (powers of q are
always pulled out of the denominator into the numerator's exponents).
Reduction runs in Z[q] on Python ints: a fraction-free gcd and exact
division, with no field arithmetic.  No floating point is used anywhere.

Most products in the PBW and canonical engines have a one-term factor.
LaurentPoly multiplies by c q^k as a shift and a scaling (by 1 it
returns the other operand: no code writes to a LaurentPoly's dict).
RatFunc multiplies by a unit +-q^k, and negates, with no gcd: the
denominator has a nonzero constant term, so q^k shares no factor with
it, and a sign or a shift of the numerator keeps lowest terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import gcd as _int_gcd
from types import MappingProxyType


# ---------------------------------------------------------------------------
# helpers on dense integer polynomials, lowest degree first, no trailing zeros


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _pol_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _trim(out)


def _pol_content(p):
    g = 0
    for x in p:
        g = _int_gcd(g, abs(x))
        if g == 1:
            return 1
    return g


def _pol_primitive(p):
    c = _pol_content(p)
    if c <= 1:
        return tuple(p)
    return tuple(x // c for x in p)


def _pol_gcd(a, b):
    """gcd in Z[q] including integer content, leading coefficient > 0.

    Euclid on primitive parts, in Python ints only: each step replaces
    (a, b) by (b, primitive part of a pseudo-remainder of a by b), which
    keeps the primitive gcd (Knuth, TAOCP vol. 2, 4.6.1; Brown 1971).
    """
    a, b = _trim(a), _trim(b)
    if not a:
        return tuple(x if b[-1] > 0 else -x for x in b) if b else ()
    if not b:
        return tuple(x if a[-1] > 0 else -x for x in a)
    ca, cb = _pol_content(a), _pol_content(b)
    g = _int_gcd(ca, cb)
    if len(a) == 1 or len(b) == 1:
        return (g,)
    a, b = tuple(x // ca for x in a), tuple(x // cb for x in b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r, lb, nb = list(a), b[-1], len(b)
        while len(r) >= nb:
            lr = r.pop()
            if lr:
                # r <- s*r - t*q^shift*b with s*lr == t*lb: the top cancels
                h = _int_gcd(lr, lb)
                s, t, shift = lb // h, lr // h, len(r) - nb + 1
                if s != 1:
                    r = [s * x for x in r]
                for i in range(nb - 1):
                    r[shift + i] -= t * b[i]
        r = _trim(r)
        if not r:
            return tuple(g * x if b[-1] > 0 else -g * x for x in b)
        a, b = b, _pol_primitive(r)
    return (g,)


def _pol_divexact(a, b):
    """a // b in Z[q], raising if the division is not exact."""
    a, b = _trim(a), _trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ()
    lb, nb = b[-1], len(b)
    q = [0] * (len(a) - nb + 1)
    r = list(a)
    for k in range(len(a) - nb, -1, -1):
        coef, rem = divmod(r[k + nb - 1], lb)
        if rem:  # would stay in r for the final check; stop early
            raise ValueError("inexact polynomial division")
        if coef:
            q[k] = coef
            for i, y in enumerate(b):
                r[k + i] -= coef * y
    if any(r):
        raise ValueError("inexact polynomial division")
    return _trim(q)


# ---------------------------------------------------------------------------


class LaurentPoly:
    """Sparse element of Z[q, q^-1]; keys are exponents, values nonzero ints."""

    __slots__ = ("c", "_hash")

    def __init__(self, coeffs=None):
        self.c = _int_terms(coeffs) if coeffs else {}
        self._hash = None

    # -- constructors

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return _wrap({0: 1})

    @classmethod
    def q_power(cls, k, coeff=1):
        return cls({k: coeff})

    # -- predicates and accessors

    def is_zero(self):
        return not self.c

    def is_one(self):
        return self.c == {0: 1}

    def coeff(self, e):
        return self.c.get(e, 0)

    def min_exp(self):
        if not self.c:
            raise ValueError("zero polynomial has no valuation")
        return min(self.c)

    def max_exp(self):
        if not self.c:
            raise ValueError("zero polynomial has no degree")
        return max(self.c)

    # -- ring operations

    def __add__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return _wrap(_ldict_add(self.c, other.c))

    __radd__ = __add__

    def __neg__(self):
        return _wrap({e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        x, y = (other, self) if len(other.c) == 1 else (self, other)
        if len(x.c) == 1:
            # x = c q^k: 1 gives y itself (no code writes to .c), anything
            # else a shifted, scaled copy of y
            ((k, c),) = x.c.items()
            if k == 0 and c == 1:
                return y
            return _wrap({e + k: c * v for e, v in y.c.items()})
        return _wrap(_ldict_mul(self.c, other.c))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def bar(self):
        """The bar involution q -> q^-1."""
        return _wrap({-e: v for e, v in self.c.items()})

    def shift(self, k):
        """self * q^k."""
        if not k:
            return self
        return _wrap({e + k: v for e, v in self.c.items()})

    def exact_div(self, other):
        """Exact division in Z[q, q^-1]; raises ValueError if inexact."""
        other = _as_laurent(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self.is_zero():
            return LaurentPoly()
        sa, pa = self._poly_parts()
        sb, pb = other._poly_parts()
        quot = _pol_divexact(pa, pb)
        return _wrap({i + sa - sb: v for i, v in enumerate(quot) if v})

    def _poly_parts(self):
        """Return (shift, dense tuple) with poly[0] != 0."""
        m = self.min_exp()
        dense = [0] * (self.max_exp() - m + 1)
        for e, v in self.c.items():
            dense[e - m] = v
        return m, tuple(dense)

    def at_one(self):
        """Evaluate at q = 1 (classical shadow)."""
        return sum(self.c.values())

    def __eq__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.c.items())))
        return self._hash

    def __bool__(self):
        return bool(self.c)

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c, reverse=True):
            v = self.c[e]
            if e == 0:
                parts.append(f"{v}")
            else:
                head = "" if v == 1 else ("-" if v == -1 else f"{v}*")
                parts.append(f"{head}q^{e}" if e != 1 else f"{head}q")
        s = " + ".join(parts).replace("+ -", "- ")
        return s

    # -- JSON form: {"exp": "coeff"} with decimal strings

    def to_json(self):
        return {str(e): str(v) for e, v in sorted(self.c.items())}

    @classmethod
    def from_json(cls, obj):
        return cls({int(e): int(v) for e, v in obj.items()})


def _int_terms(terms):
    """The nonzero terms of an {exponent: coefficient} dict as ints;
    ValueError unless each is an integer value (int() alone would
    truncate 1/2 to 0)."""
    out = {}
    for e, v in terms.items():
        if v:
            if type(e) is not int or type(v) is not int:
                ie, iv = int(e), int(v)
                if ie != e or iv != v:
                    raise ValueError(f"term {v!r} q^{e!r} is not integral")
                e, v = ie, iv
            out[e] = v
    return out


def _wrap(c):
    """A LaurentPoly owning the dict c (nonzero int values), uncopied."""
    r = LaurentPoly.__new__(LaurentPoly)
    r.c = c
    r._hash = None
    return r


def _as_laurent(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly({0: x})
    return NotImplemented


_L_ONE = (1,)


class RatFunc:
    """Element of Q(q), stored as num/den in lowest terms.

    num is a Laurent dict, den a dense polynomial with nonzero constant
    term and positive leading coefficient; gcd(num, den) = 1 in Z[q]
    (content included), so equality and hashing are structural.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=_L_ONE):
        if isinstance(num, LaurentPoly):
            num = num.c
        if isinstance(num, int):
            num = {0: num} if num else {}
        if isinstance(den, LaurentPoly):
            m, dense = (0, ()) if den.is_zero() else den._poly_parts()
            num = {e - m: v for e, v in num.items()}
            den = dense
        den = _trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator in rational function")
        num = _int_terms(num)
        self.num, self.den = _rat_normalize(num, den)
        self._hash = None

    @classmethod
    def _raw(cls, num, den):
        r = cls.__new__(cls)
        r.num, r.den = _rat_normalize(num, den)
        r._hash = None
        return r

    @classmethod
    def zero(cls):
        return cls(0)

    @classmethod
    def one(cls):
        return cls(1)

    def is_laurent(self):
        return self.den == _L_ONE

    def to_laurent(self):
        if self.den != _L_ONE:
            raise ValueError(f"not a Laurent polynomial: {self}")
        return _wrap(dict(self.num))

    def is_zero(self):
        return not self.num

    # -- arithmetic

    def __add__(self, other):
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == _L_ONE and other.den == _L_ONE:
            return RatFunc._raw(_ldict_add(self.num, other.num), _L_ONE)
        n = _ldict_add(_ldict_mul_pol(self.num, other.den),
                       _ldict_mul_pol(other.num, self.den))
        return RatFunc._raw(n, _pol_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return _rat({e: -v for e, v in self.num.items()}, self.den)

    def __sub__(self, other):
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        x, y = (other, self) if _is_unit(other) else (self, other)
        if _is_unit(x):
            # x = +-q^k: the shift and the sign keep y in lowest terms
            ((k, c),) = x.num.items()
            return _rat({e + k: c * v for e, v in y.num.items()}, y.den)
        if self.den == _L_ONE and other.den == _L_ONE:
            return RatFunc._raw(_ldict_mul(self.num, other.num), _L_ONE)
        return RatFunc._raw(_ldict_mul(self.num, other.num),
                            _pol_mul(self.den, other.den))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero rational function")
        m = min(self.num)
        top = _trim([self.num.get(m + i, 0)
                     for i in range(max(self.num) - m + 1)])
        num = {e - m: v for e, v in enumerate(self.den) if v}
        if top[-1] < 0:  # den/num is in lowest terms already: no gcd
            top, num = tuple(-x for x in top), {e: -v for e, v in num.items()}
        return _rat(num, top)

    def __truediv__(self, other):
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = RatFunc.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def shift(self, k):
        """self * q^k: q is a unit and den has nonzero constant term, so
        moving the numerator's exponents keeps lowest terms (no gcd)."""
        return _rat({e + k: v for e, v in self.num.items()}, self.den)

    def bar(self):
        """q -> q^-1 on a rational function."""
        d = len(self.den) - 1
        num = {d - e: v for e, v in self.num.items()}
        return RatFunc._raw(num, tuple(reversed(self.den)))

    # -- order at q = 0

    def q_valuation(self):
        """Order of vanishing at q = 0 (den has nonzero constant term)."""
        if not self.num:
            raise ValueError("zero has no q-valuation")
        return min(self.num)

    def regular_at_zero(self):
        return not self.num or min(self.num) >= 0

    def at_zero(self):
        if not self.regular_at_zero():
            raise ValueError(f"pole at q = 0: {self}")
        return Fraction(self.num.get(0, 0), self.den[0])

    def __eq__(self, other):
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((tuple(sorted(self.num.items())), self.den))
        return self._hash

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        n = repr(LaurentPoly(self.num))
        if self.den == _L_ONE:
            return n
        d = repr(LaurentPoly(dict(enumerate(self.den))))
        return f"({n})/({d})"

    # -- JSON form: {"num": [...], "den": [...]} from lowest degree

    def to_json(self):
        if self.num:
            m = min(min(self.num), 0)
            width = max(self.num) - m + 1
            num = [self.num.get(m + i, 0) for i in range(width)]
        else:
            m, num = 0, [0]
        # negative exponents in num become a q-power on the denominator
        den = [0] * (-m) + list(self.den)
        return {"num": num, "den": den}

    @classmethod
    def from_json(cls, obj):
        num = {i: int(v) for i, v in enumerate(obj["num"]) if int(v)}
        den = tuple(int(v) for v in obj["den"])
        return cls(num, den)


def _rat(num, den):
    """A RatFunc from num/den already in lowest terms, unnormalized."""
    r = RatFunc.__new__(RatFunc)
    r.num, r.den, r._hash = num, den, None
    return r


def _is_unit(x):
    """True when the RatFunc x is +-q^k."""
    if len(x.num) != 1 or x.den != _L_ONE:
        return False
    (c,) = x.num.values()
    return c == 1 or c == -1


def _as_rat(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, int):
        return RatFunc(x)
    if isinstance(x, LaurentPoly):
        return RatFunc(x.c)
    return NotImplemented


def _ldict_add(a, b):
    out = dict(a)
    for e, v in b.items():
        w = out.get(e, 0) + v
        if w:
            out[e] = w
        else:
            del out[e]
    return out


def _ldict_mul(a, b):
    if not a or not b:
        return {}
    if len(b) < len(a):
        a, b = b, a
    out = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            e = ea + eb
            w = out.get(e, 0) + va * vb
            if w:
                out[e] = w
            else:
                del out[e]
    return out


def accumulate(target, source, scale=None):
    """target += scale * source on coefficient dicts of any ring values
    (no scale: source as it is), pruning keys that cancel; returns
    target."""
    if scale is not None and not scale:
        return target
    for key, val in source.items():
        if scale is not None:
            val = val * scale
        cur = target.get(key)
        if cur is not None:
            val = cur + val
        if val:
            target[key] = val
        else:
            target.pop(key, None)
    return target


def _ldict_mul_pol(a, p):
    out = {}
    for ea, va in a.items():
        for i, c in enumerate(p):
            if c:
                e = ea + i
                w = out.get(e, 0) + va * c
                if w:
                    out[e] = w
                else:
                    del out[e]
    return out


def _rat_normalize(num, den):
    """Reduce num/den: den gets nonzero constant term, positive leading
    coefficient, and no common factor (content included) with num."""
    den = _trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator in rational function")
    if not num:
        return {}, _L_ONE
    # pull q^k out of the denominator
    k = 0
    while den[k] == 0:
        k += 1
    if k:
        den = den[k:]
        num = {e - k: v for e, v in num.items()}
    if den == _L_ONE:
        return num, _L_ONE
    m = min(num)
    npoly = [0] * (max(num) - m + 1)
    for e, v in num.items():
        npoly[e - m] = v
    try:  # an exact quotient is in lowest terms: no gcd
        npoly, den = _pol_divexact(tuple(npoly), den), _L_ONE
    except ValueError:
        g = _pol_gcd(tuple(npoly), den)
        if len(g) > 1 or g[0] != 1:
            npoly = _pol_divexact(tuple(npoly), g)
            den = _pol_divexact(den, g)
    if den[-1] < 0:
        den = tuple(-x for x in den)
        npoly = tuple(-x for x in npoly)
    num = {m + i: v for i, v in enumerate(npoly) if v}
    return num, (_L_ONE if den == _L_ONE else den)


# ---------------------------------------------------------------------------
# quantum integers


@cache
def quantum_int(n):
    """[n] = (q^n - q^-n)/(q - q^-1) as a Laurent polynomial; n >= 0."""
    if n < 0:
        raise ValueError(f"quantum integer needs n >= 0, got {n}")
    return LaurentPoly({n - 1 - 2 * k: 1 for k in range(n)})


@cache
def quantum_factorial(n):
    if n < 0:
        raise ValueError(f"quantum factorial needs n >= 0, got {n}")
    out = LaurentPoly.one()
    for k in range(2, n + 1):
        out = out * quantum_int(k)
    return out


@cache
def cyclotomic(m):
    """Phi_m as a dense tuple: q^m - 1 over every Phi_k, k | m, k < m."""
    return reduce(_pol_divexact,
                  (cyclotomic(k) for k in range(1, m) if m % k == 0),
                  (-1,) + (0,) * (m - 1) + (1,))


@cache
def factorial_cyclotomic(parts):
    """(s, {m: e}) with prod_{n in parts} [n]! = q^s prod_m Phi_m^e, from
    [n] = q^(1-n) prod_{m | 2n, m >= 3} Phi_m: Phi_m divides [j] for the
    multiples j of m, or of m/2 when m is even.  The map is read-only."""
    exps = {m: e for m in range(3, 2 * max(parts, default=0) + 1)
            if (e := sum((n if m % 2 else 2 * n) // m for n in parts))}
    return -sum(n * (n - 1) // 2 for n in parts), MappingProxyType(exps)


@cache
def cyclotomic_product(exps):
    """prod_m Phi_m^e over the pairs (m, e) of exps, as a dense tuple."""
    return reduce(_pol_mul, (cyclotomic(m) for m, e in exps
                             for _ in range(e)), _L_ONE)


def quantum_binomial(n, k):
    """Gaussian binomial [n choose k]; exact Laurent division."""
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"quantum binomial out of range: ({n}, {k})")
    num = quantum_factorial(n)
    den = quantum_factorial(k) * quantum_factorial(n - k)
    return num.exact_div(den)
