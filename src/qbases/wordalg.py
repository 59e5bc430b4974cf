"""The negative half of the quantized enveloping algebra, presented on words.

Elements are Q(q)-linear combinations of words in the generators f_1..f_n,
all of one fixed content (the weight).  The defining Serre relations are
never rewritten; instead the algebra is the quotient of the free algebra
by the radical of the standard bilinear form, so equality, coordinates and
membership questions all reduce to pairings, computed exactly.

Conventions pinned here and relied on everywhere else:
  * (1, 1) = 1 and (f_i, f_j) = delta_ij,
  * r(f_i) = f_i x 1 + 1 x f_i into the twisted tensor square, where
    (a x b)(c x d) = q^{-(wt b, wt c)} ac x bd,
  * e'_i strips a letter from the left:
    e'_i(f_j y) = delta_ij y + q^{-(a_i, a_j)} f_j e'_i(y),
  * (x, f_j z) = (e'_j x, z).
With these, (f_1 f_2, f_2 f_1) = q and (f_i^(n), f_i^(n)) has value 1
at q = 0.
"""

from __future__ import annotations

from itertools import product

from .laurent import LaurentPoly, RatFunc, accumulate, quantum_factorial
from .linalg import rank as _rank, solve

# Pairings enumerate words of a given content; this cap keeps accidental
# exponential blowups loud instead of silent.
PAIRING_HEIGHT_CAP = 14


def _as_coeff(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, LaurentPoly)):
        return RatFunc(x if isinstance(x, int) else x.c)
    raise TypeError(f"cannot use {type(x).__name__} as a coefficient")


def word_content(datum, word):
    c = [0] * datum.rank
    for j in word:
        c[j - 1] += 1
    return tuple(c)


class WordElement:
    """Homogeneous element of the negative half, expanded on f-words.

    Structural note: == compares word expansions literally; use .equals()
    for equality in the algebra (i.e. modulo the form's radical).
    """

    __slots__ = ("datum", "terms")

    def __init__(self, datum, terms=None):
        self.datum = datum
        t = {}
        if terms:
            for w, c in terms.items():
                c = _as_coeff(c)
                if not c.is_zero():
                    t[tuple(w)] = c
        self.terms = t
        if len({word_content(datum, w) for w in t}) > 1:
            raise ValueError("mixed weights in one element")

    # -- constructors

    @classmethod
    def zero(cls, datum):
        return cls(datum)

    @classmethod
    def one(cls, datum):
        return cls(datum, {(): 1})

    @classmethod
    def generator(cls, datum, i):
        datum._check_vertex(i)
        return cls(datum, {(i,): 1})

    @classmethod
    def monomial(cls, datum, word, coeff=1):
        for j in word:
            datum._check_vertex(j)
        return cls(datum, {tuple(word): coeff})

    @classmethod
    def divided_power(cls, datum, i, n):
        """f_i^(n) = f_i^n / [n]!."""
        if n < 0:
            raise ValueError("negative divided power")
        inv = RatFunc(1) / RatFunc(quantum_factorial(n))
        return cls(datum, {(i,) * n: inv})

    # -- basic structure

    def is_word_zero(self):
        return not self.terms

    @property
    def weight(self):
        """Content vector; None for the word-zero element."""
        if not self.terms:
            return None
        return word_content(self.datum, next(iter(self.terms)))

    def height(self):
        w = self.weight
        return 0 if w is None else sum(w)

    def coeff(self, word):
        return self.terms.get(tuple(word), RatFunc.zero())

    def _weights_compatible(self, other):
        a, b = self.weight, other.weight
        return a is None or b is None or a == b

    # -- linear operations

    def __add__(self, other):
        if not isinstance(other, WordElement):
            return NotImplemented
        if not self._weights_compatible(other):
            raise ValueError("cannot add elements of different weights")
        r = WordElement.__new__(WordElement)
        r.datum = self.datum
        r.terms = accumulate(dict(self.terms), other.terms)
        return r

    def __neg__(self):
        r = WordElement.__new__(WordElement)
        r.datum = self.datum
        r.terms = {w: -c for w, c in self.terms.items()}
        return r

    def __sub__(self, other):
        if not isinstance(other, WordElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        c = _as_coeff(c)
        if c.is_zero():
            return WordElement(self.datum)
        r = WordElement.__new__(WordElement)
        r.datum = self.datum
        r.terms = {w: v * c for w, v in self.terms.items()}
        return r

    def __mul__(self, other):
        """Concatenation product; scalars also accepted."""
        if isinstance(other, (int, LaurentPoly, RatFunc)):
            return self.scale(other)
        if not isinstance(other, WordElement):
            return NotImplemented
        t = {}
        for w1, c1 in self.terms.items():
            accumulate(t, {w1 + w2: c2 for w2, c2 in other.terms.items()},
                       c1)
        r = WordElement.__new__(WordElement)
        r.datum, r.terms = self.datum, t
        return r

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly, RatFunc)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = WordElement.one(self.datum)
        for _ in range(n):
            out = out * self
        return out

    def star(self):
        """Word-reversal anti-automorphism."""
        r = WordElement.__new__(WordElement)
        r.datum = self.datum
        r.terms = {tuple(reversed(w)): c for w, c in self.terms.items()}
        return r

    def __eq__(self, other):
        if not isinstance(other, WordElement):
            return NotImplemented
        return self.datum is other.datum and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms):
            name = "f[" + " ".join(map(str, w)) + "]" if w else "1"
            bits.append(f"({self.terms[w]})*{name}")
        return " + ".join(bits)

    # -- the form and its derivations

    def eprime(self, i):
        """Left Kashiwara derivation, adjoint to left multiplication by f_i."""
        datum = self.datum
        ai = datum.simple_root(i)
        out = {}
        for w, c in self.terms.items():
            pair_acc = 0
            for p, j in enumerate(w):
                if j == i:
                    sub = w[:p] + w[p + 1:]
                    v = c * RatFunc(LaurentPoly.q_power(-pair_acc))
                    # merged inline: a call per single term is slower here
                    s = out.get(sub)
                    s = v if s is None else s + v
                    if s.is_zero():
                        out.pop(sub, None)
                    else:
                        out[sub] = s
                pair_acc += datum.bilinear(ai, datum.simple_root(j))
        r = WordElement.__new__(WordElement)
        r.datum, r.terms = datum, out
        return r

    def pairing(self, other):
        """The bilinear form (self, other); exact RatFunc."""
        if not isinstance(other, WordElement):
            raise TypeError("pairing needs two elements")
        if not self._weights_compatible(other):
            return RatFunc.zero()
        total = RatFunc.zero()
        for w, c in other.terms.items():
            cur = self
            for j in w:
                cur = cur.eprime(j)
                if not cur.terms:
                    break
            val = cur.terms.get((), None)
            if val is not None:
                total = total + c * val
        return total

    def pairing_vector(self):
        """(self, w) for every word w of this weight, computed in one trie
        walk with shared e'-states.  Returns {word: RatFunc}."""
        wt = self.weight
        if wt is None:
            return {}
        if sum(wt) > PAIRING_HEIGHT_CAP:
            raise ValueError(f"pairing_vector at height {sum(wt)} exceeds "
                             f"cap {PAIRING_HEIGHT_CAP}")
        rank = self.datum.rank
        out = {}

        def walk(state, remaining, prefix):
            if not state.terms:
                return
            if not any(remaining):
                val = state.terms.get(())
                if val is not None and not val.is_zero():
                    out[prefix] = val
                return
            for i in range(1, rank + 1):
                if remaining[i - 1]:
                    remaining[i - 1] -= 1
                    walk(state.eprime(i), remaining, prefix + (i,))
                    remaining[i - 1] += 1

        walk(self, list(wt), ())
        return out

    def is_algebra_zero(self):
        """True when the element lies in the radical of the form, i.e. is
        zero in the quotient algebra."""
        return not self.pairing_vector()

    def equals(self, other):
        """Equality in the algebra (mod the defining relations)."""
        return (self - other).is_algebra_zero()

    # -- twisted coproduct

    def coproduct(self):
        datum = self.datum
        out = {}
        for w, c in self.terms.items():
            # each letter goes left or right; sending letter p left costs
            # q^{-(a_{j_p}, content of right letters before p)}
            states = [((), (), (0,) * datum.rank, 0)]
            for j in w:
                aj = datum.simple_root(j)
                nxt = []
                for left, right, rcon, ex in states:
                    cost = datum.bilinear(aj, rcon)
                    nxt.append((left + (j,), right, rcon, ex - cost))
                    rc2 = list(rcon)
                    rc2[j - 1] += 1
                    nxt.append((left, right + (j,), tuple(rc2), ex))
                states = nxt
            for left, right, _, ex in states:
                v = c * RatFunc(LaurentPoly.q_power(ex))
                # merged inline: a call per single term is slower here
                key = (left, right)
                s = out.get(key)
                s = v if s is None else s + v
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return TensorElement(datum, out)

    # -- JSON form

    def to_json(self):
        wt = self.weight
        return {
            "weight": list(wt) if wt is not None else None,
            "terms": {",".join(map(str, w)): c.to_json()
                      for w, c in sorted(self.terms.items())},
        }

    @classmethod
    def from_json(cls, datum, obj):
        terms = {}
        for key, cj in obj["terms"].items():
            w = tuple(int(x) for x in key.split(",")) if key else ()
            terms[w] = RatFunc.from_json(cj)
        el = cls(datum, terms)
        wt = obj.get("weight")
        if wt is not None and el.weight is not None and tuple(wt) != el.weight:
            raise ValueError("weight field disagrees with terms")
        return el


class TensorElement:
    """Element of the twisted tensor square, on pairs of words."""

    __slots__ = ("datum", "terms")

    def __init__(self, datum, terms=None):
        self.datum = datum
        t = {}
        if terms:
            for (w1, w2), c in terms.items():
                c = _as_coeff(c)
                if not c.is_zero():
                    t[(tuple(w1), tuple(w2))] = c
        self.terms = t

    def __add__(self, other):
        return TensorElement(self.datum,
                             accumulate(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = _as_coeff(c)
        return TensorElement(self.datum,
                             {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        """Twisted product: (a x b)(c x d) = q^{-(wt b, wt c)} ac x bd."""
        datum = self.datum
        out = {}
        for (a, b), c1 in self.terms.items():
            wb = word_content(datum, b)
            accumulate(out, {
                (a + cw, b + d): c2 * RatFunc(LaurentPoly.q_power(
                    -datum.bilinear(wb, word_content(datum, cw))))
                for (cw, d), c2 in other.terms.items()}, c1)
        return TensorElement(datum, out)

    def pairing(self, other):
        """(a x b, c x d) = (a, c)(b, d), extended bilinearly."""
        by_weight = {}
        for (c, d), v in other.terms.items():
            k = (word_content(other.datum, c), word_content(other.datum, d))
            by_weight.setdefault(k, []).append((c, d, v))
        total = RatFunc.zero()
        for (a, b), u in self.terms.items():
            k = (word_content(self.datum, a), word_content(self.datum, b))
            for c, d, v in by_weight.get(k, ()):
                pa = WordElement.monomial(self.datum, a).pairing(
                    WordElement.monomial(self.datum, c))
                if pa.is_zero():
                    continue
                pb = WordElement.monomial(self.datum, b).pairing(
                    WordElement.monomial(self.datum, d))
                total = total + u * v * pa * pb
        return total

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (a, b) in sorted(self.terms):
            na = "f[" + " ".join(map(str, a)) + "]" if a else "1"
            nb = "f[" + " ".join(map(str, b)) + "]" if b else "1"
            bits.append(f"({self.terms[(a, b)]})*{na}(x){nb}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# weight spaces


def kostant_dimension(datum, weight):
    """Dimension of the weight space: ways to write the weight as a
    nonnegative combination of positive roots."""
    target = tuple(weight)
    pts = sorted(product(*(range(t + 1) for t in target)),
                 key=lambda v: (sum(v), v))
    ways = dict.fromkeys(pts, 0)
    ways[(0,) * len(target)] = 1
    # unbounded coin counting, one positive root at a time
    for root in datum.positive_roots():
        for v in pts:
            if ways[v]:
                lifted = tuple(a + b for a, b in zip(v, root))
                if all(x <= t for x, t in zip(lifted, target)):
                    ways[lifted] += ways[v]
    return ways[target]


def words_of_content(content):
    """All words with the given letter counts, lexicographically."""
    rank = len(content)

    def gen(remaining, prefix):
        if not any(remaining):
            yield prefix
            return
        for i in range(1, rank + 1):
            if remaining[i - 1]:
                remaining[i - 1] -= 1
                yield from gen(remaining, prefix + (i,))
                remaining[i - 1] += 1

    yield from gen(list(content), ())


def weight_basis(datum, weight):
    """A basis of the weight space made of words, chosen greedily in lex
    order so that the Gram matrix stays nonsingular."""
    dim = kostant_dimension(datum, weight)
    if sum(weight) > PAIRING_HEIGHT_CAP:
        raise ValueError(f"weight_basis at height {sum(weight)} exceeds "
                         f"cap {PAIRING_HEIGHT_CAP}")
    chosen = []
    gram = []
    for w in words_of_content(tuple(weight)):
        cand = WordElement.monomial(datum, w)
        col = [WordElement.monomial(datum, u).pairing(cand) for u in chosen]
        diag = cand.pairing(cand)
        new_gram = [row + [col[i]] for i, row in enumerate(gram)]
        new_gram.append(col + [diag])
        if _rank(new_gram) == len(chosen) + 1:
            chosen.append(w)
            gram = new_gram
            if len(chosen) == dim:
                return tuple(chosen), gram
    raise AssertionError("weight space basis search failed")


def normal_coordinates(x, basis=None, gram=None):
    """Coordinates of x in the word basis of its weight space."""
    if x.weight is None:
        return (), []
    if basis is None:
        basis, gram = weight_basis(x.datum, x.weight)
    if gram is None:
        gram = [[WordElement.monomial(x.datum, u).pairing(
            WordElement.monomial(x.datum, v)) for v in basis] for u in basis]
    rhs = [WordElement.monomial(x.datum, u).pairing(x) for u in basis]
    return basis, solve(gram, rhs)


# ---------------------------------------------------------------------------
# Kashiwara operators at the element level


def kashiwara_components(x, i):
    """Decompose x = sum_m f_i^(m) x_m with e'_i x_m = 0; returns {m: x_m}.

    Nonzero tests happen in the algebra, not on word expansions.
    """
    comps = {}
    cur = x
    while not cur.is_algebra_zero():
        powers = [cur]
        while True:
            nxt = powers[-1].eprime(i)
            if nxt.is_algebra_zero():
                break
            powers.append(nxt)
        m = len(powers) - 1
        if m == 0:
            comps[0] = cur
            break
        # (e'_i)^m (f_i^(m) u) = q^{-m(m-1)/2} u for e'_i u = 0
        xm = powers[m].scale(LaurentPoly.q_power(m * (m - 1) // 2))
        comps[m] = xm
        cur = cur - WordElement.divided_power(x.datum, i, m) * xm
    return comps


def epsilon_element(x, i):
    """Largest m with a nonzero component x_m; -inf is represented by None
    on the zero element."""
    comps = kashiwara_components(x, i)
    return max(comps) if comps else None


def etilde(x, i):
    comps = kashiwara_components(x, i)
    out = WordElement.zero(x.datum)
    for m, xm in comps.items():
        if m >= 1:
            out = out + WordElement.divided_power(x.datum, i, m - 1) * xm
    return out


def ftilde(x, i):
    comps = kashiwara_components(x, i)
    out = WordElement.zero(x.datum)
    for m, xm in comps.items():
        out = out + WordElement.divided_power(x.datum, i, m + 1) * xm
    return out


def serre_element(datum, i, j):
    """The defining relation sum_k (-1)^k f_i^(k) f_j f_i^(n-k), n = 1 - a_ij;
    lies in the radical of the form."""
    if i == j:
        raise ValueError("Serre relation needs distinct vertices")
    n = 1 - datum.cartan[i - 1][j - 1]
    fj = WordElement.generator(datum, j)
    out = WordElement.zero(datum)
    for k in range(n + 1):
        term = (WordElement.divided_power(datum, i, k) * fj
                * WordElement.divided_power(datum, i, n - k))
        out = out + (term if k % 2 == 0 else -term)
    return out
