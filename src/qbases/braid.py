"""The full quantized enveloping algebra and its braid group action.

Elements are kept in triangular normal form: sums of F_w K_mu E_v with
F-word w, integer K-exponent vector mu and E-word v.  Only the mixed
commutation relations are rewritten here,

    Ebar_i F_j = F_j Ebar_i + delta_ij (K_i - K_i^-1),
    K_mu F_j = q^{-(mu, a_j)} F_j K_mu,
    K_mu E_j = q^{+(mu, a_j)} E_j K_mu,

for the rescaled Ebar_i = (q - q^-1) E_i, so that they hold over
Z[q, q^-1].  The F- and E-sides stay free and zero tests fall back to
the word algebra's bilinear form on each side.

The braid generator attached to vertex i acts by

    T_i(K_mu) = K_{s_i mu},
    T_i(E_i)  = -F_i K_i,          T_i(F_i) = -K_i^-1 E_i,
    T_i(E_j)  = E_i E_j - q^-1 E_j E_i   when a_ij = -1,
    T_i(F_j)  = F_j F_i - q F_i F_j      when a_ij = -1,

and fixes E_j, F_j for a_ij = 0.  With this choice the braid relations
hold and composites along a reduced word send simple generators to
elements of the negative half on the nose, e.g. T_1 T_2 (F_1) = F_2.

TriangularElement and braid_apply are the full algebra over Q(q); only
they use the commutation table above (_times).  Root vectors run on a
rank-one kernel over Z[q, q^-1] instead.  Under T_i the letter images
bring in only K_i^-1 and Ebar_i, so (q - q^-1)^(letters i in u) T_i(F_u)
is a sum of states (w, k, m), read F_w K_i^k Ebar_i^m, and right
multiplication of a state follows three rules:

    by -K_i^-1 Ebar_i = (q - q^-1) T_i(F_i):
                    -q^{2m} F_w K_i^{k-1} Ebar_i^{m+1},
    by F_l, l != i:  q^{-k a_il} F_{wl} K_i^k Ebar_i^m,
    by F_i:          q^{-2k} F_{wi} K_i^k Ebar_i^m
                     + (sum_{t<m} q^{-2t}) F_w K_i^{k+1} Ebar_i^{m-1}
                     - (sum_{t<m} q^{2t}) F_w K_i^{k-1} Ebar_i^{m-1}.

Each T_i ends with a check that no K/E remainder survives and one exact
division by (q - q^-1)^k; each root vector ends with a weight check.  A
position whose inversion root is a simple root a_j gives F_j directly:
T_w(F_i) = F_j when w(a_i) = a_j (Jantzen, Lectures on Quantum Groups,
Prop. 8.20), and the weight a_j has the single word (j,).  PBW monomials
multiply root vectors over Z[q, q^-1] with one division per word
coefficient.  Tests compare root vectors with braid_word_apply; the two
routes share no multiplication code.
"""

from __future__ import annotations

from .laurent import LaurentPoly, RatFunc, accumulate, quantum_factorial
from .wordalg import WordElement, _as_coeff, word_content, words_of_content

BRAID_CONVENTION = {
    "coproduct_twist": "(a x b)(c x d) = q^{-(wt b, wt c)} ac x bd",
    "T_on_K": "T_i K_mu = K_{s_i(mu)}",
    "T_on_E_i": "-F_i K_i",
    "T_on_F_i": "-K_i^{-1} E_i",
    "T_on_E_j": "E_i E_j - q^{-1} E_j E_i  (a_ij = -1)",
    "T_on_F_j": "F_j F_i - q F_i F_j      (a_ij = -1)",
    "pbw_order": "increasing position index, left to right",
}


_Q_MINUS_QINV = LaurentPoly({1: 1, -1: -1})
_INV_Q_MINUS_QINV = RatFunc({1: 1}, (-1, 0, 1))  # q/(q^2 - 1)


def _rescale(terms, f):
    """Each F K E term times f to the length of its E-word."""
    return {key: c * f ** len(key[2]) if key[2] else c
            for key, c in terms.items()}


class TriangularElement:
    """Sum of F_w K_mu E_v monomials with RatFunc coefficients."""

    __slots__ = ("datum", "terms")

    def __init__(self, datum, terms=None):
        self.datum = datum
        t = {}
        if terms:
            for (w, mu, v), c in terms.items():
                c = _as_coeff(c)
                if not c.is_zero():
                    t[(tuple(w), tuple(mu), tuple(v))] = c
        self.terms = t

    # -- constructors

    @classmethod
    def zero(cls, datum):
        return cls(datum)

    @classmethod
    def one(cls, datum):
        return cls(datum, {((), (0,) * datum.rank, ()): 1})

    @classmethod
    def f_gen(cls, datum, i):
        datum._check_vertex(i)
        return cls(datum, {((i,), (0,) * datum.rank, ()): 1})

    @classmethod
    def e_gen(cls, datum, i):
        datum._check_vertex(i)
        return cls(datum, {((), (0,) * datum.rank, (i,)): 1})

    @classmethod
    def k_power(cls, datum, mu):
        return cls(datum, {((), tuple(mu), ()): 1})

    @classmethod
    def from_word_element(cls, x):
        z = (0,) * x.datum.rank
        return cls(x.datum, {(w, z, ()): c for w, c in x.terms.items()})

    # -- linear structure

    def __add__(self, other):
        out = TriangularElement(self.datum)
        out.terms = accumulate(dict(self.terms), other.terms)
        return out

    def __neg__(self):
        out = TriangularElement(self.datum)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _as_coeff(c)
        out = TriangularElement(self.datum)
        if not c.is_zero():
            out.terms = {k: v * c for k, v in self.terms.items()}
        return out

    def is_structural_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TriangularElement):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (w, mu, v) in sorted(self.terms):
            s = []
            if w:
                s.append("F[" + " ".join(map(str, w)) + "]")
            if any(mu):
                s.append(f"K{list(mu)}")
            if v:
                s.append("E[" + " ".join(map(str, v)) + "]")
            name = "*".join(s) or "1"
            bits.append(f"({self.terms[(w, mu, v)]})*{name}")
        return " + ".join(bits)

    # -- multiplication

    def __mul__(self, other):
        """Product by _times on both factors read in Ebar_i; reading it
        back puts 1/(q - q^-1) on each term that lost an E letter."""
        if isinstance(other, (int, LaurentPoly, RatFunc)):
            return self.scale(other)
        if not isinstance(other, TriangularElement):
            return NotImplemented
        out = TriangularElement(self.datum)
        out.terms = _rescale(_times(
            self.datum, _rescale(self.terms, _INV_Q_MINUS_QINV),
            _rescale(other.terms, _INV_Q_MINUS_QINV)), _Q_MINUS_QINV)
        return out

    # -- projection back to the negative half

    def to_word_element(self):
        """Project to the negative half; any K/E remainder must be zero in
        the algebra (radical on one of the free sides), else ValueError."""
        datum = self.datum
        pure = {}
        junk = {}
        for (w, mu, v), c in self.terms.items():
            if not v and not any(mu):
                pure[w] = c
            else:
                key = (mu, word_content(datum, v), word_content(datum, w))
                junk.setdefault(key, {}).setdefault(v, {})[w] = c
        for (mu, vcont, _), by_eword in junk.items():
            felts = {v: WordElement(datum, ws) for v, ws in by_eword.items()}
            # strip the E side against every word of its content
            for u in words_of_content(vcont):
                umon = WordElement.monomial(datum, u)
                acc = WordElement.zero(datum)
                for v, felt in felts.items():
                    p = WordElement.monomial(datum, v).pairing(umon)
                    if not p.is_zero():
                        acc = acc + felt.scale(p)
                if not acc.is_algebra_zero():
                    raise ValueError(
                        "element does not lie in the negative half "
                        f"(remainder at K{list(mu)} E-content {vcont})")
        return WordElement(datum, pure)

    def is_zero_in_algebra(self):
        """Zero test in the full algebra via both sides' forms."""
        try:
            w = self.to_word_element()
        except ValueError:
            return False
        return w.is_algebra_zero()


def _eword_past_f(datum, v, l, _memo={}):
    """Straighten Ebar_v F_l into F K Ebar normal terms over Z[q, q^-1].

    Returns {(fword, kvec, eword): LaurentPoly}; fword is () or (l,), and
    the terms with fword () are those that lost an Ebar_l letter.
    """
    key = (datum.cartan, v, l)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    zero_mu = (0,) * datum.rank
    if not v:
        out = {((l,), zero_mu, ()): LaurentPoly.one()}
        _memo[key] = out
        return out
    head, j = v[:-1], v[-1]
    # Ebar_head (Ebar_j F_l) = Ebar_head F_l Ebar_j [+ delta], then recurse
    # on Ebar_head F_l
    out = {(fp, rho, ew + (j,)): c
           for (fp, rho, ew), c in _eword_past_f(datum, head, l).items()}
    if j == l:
        # Ebar_head (K_j - K_j^-1); Ebar_head K_j picks up
        # q^{-(a_j, wt head)} moving K_j to the left
        pairing = datum.bilinear(datum.simple_root(j),
                                 word_content(datum, head))
        mu_plus = tuple(1 if t == j - 1 else 0 for t in range(datum.rank))
        mu_minus = tuple(-x for x in mu_plus)
        accumulate(out, {((), mu_plus, head): LaurentPoly({-pairing: 1}),
                         ((), mu_minus, head): LaurentPoly({pairing: -1})})
    _memo[key] = out
    return out


def _times(datum, x, y):
    """x y for dicts {(F-word, K-vector, Ebar-word): coefficient} in
    normal form: Ebar moves past F by _eword_past_f, K by q-powers."""
    cartan = datum.cartan
    out = {}
    for (fw, nu, ev), cy in y.items():
        cur = x
        for l in fw:
            nxt = {}
            for (w, mu, v), c in cur.items():
                # K_mu picks up q^{-(mu, a_l)} moving past F_l
                tw = -sum(m * row[l - 1] for m, row in zip(mu, cartan))
                accumulate(nxt, {
                    (w + fp, tuple(a + b for a, b in zip(mu, rho)), ew):
                    c2 * LaurentPoly.q_power(tw) if fp and tw else c2
                    for (fp, rho, ew), c2 in _eword_past_f(datum, v, l).items()
                }, c)
            cur = nxt
        for (w, mu, v), c in cur.items():
            # Ebar_v K_nu = q^{-(nu, wt v)} K_nu Ebar_v
            tw = -datum.bilinear(nu, word_content(datum, v))
            accumulate(out, {(w, tuple(a + b for a, b in zip(mu, nu)), v + ev):
                             c * LaurentPoly.q_power(tw) if tw else c}, cy)
    return out


# ---------------------------------------------------------------------------
# braid action


def _braid_image_f(datum, i, j, inverse):
    """Image of F_j under T_i (or its inverse)."""
    if j == i:
        ei = TriangularElement.e_gen(datum, i)
        if inverse:
            ki = TriangularElement.k_power(datum, datum.simple_root(i))
            return (ei * ki).scale(-1)       # -E_i K_i
        kin = TriangularElement.k_power(
            datum, tuple(-x for x in datum.simple_root(i)))
        return (kin * ei).scale(-1)          # -K_i^-1 E_i
    a = datum.cartan[i - 1][j - 1]
    if a == 0:
        return TriangularElement.f_gen(datum, j)
    if a != -1:
        raise ValueError("braid action implemented for simply-laced data only")
    fi = TriangularElement.f_gen(datum, i)
    fj = TriangularElement.f_gen(datum, j)
    if inverse:
        return fi * fj - (fj * fi).scale(LaurentPoly.q_power(1))
    return fj * fi - (fi * fj).scale(LaurentPoly.q_power(1))


def _braid_image_e(datum, i, j, inverse):
    a = datum.cartan[i - 1][j - 1]
    if j == i:
        fi = TriangularElement.f_gen(datum, i)
        ki = TriangularElement.k_power(datum, datum.simple_root(i))
        kin = TriangularElement.k_power(
            datum, tuple(-x for x in datum.simple_root(i)))
        if not inverse:
            return (fi * ki).scale(-1)       # -F_i K_i
        return (kin * fi).scale(-1)          # -K_i^-1 F_i
    if a == 0:
        return TriangularElement.e_gen(datum, j)
    if a != -1:
        raise ValueError("braid action implemented for simply-laced data only")
    ei = TriangularElement.e_gen(datum, i)
    ej = TriangularElement.e_gen(datum, j)
    if not inverse:
        return ei * ej - (ej * ei).scale(LaurentPoly.q_power(-1))
    return ej * ei - (ei * ej).scale(LaurentPoly.q_power(-1))


def braid_apply(i, x, inverse=False):
    """Apply the braid automorphism at vertex i to a triangular element."""
    datum = x.datum
    datum._check_vertex(i)
    total = TriangularElement.zero(datum)
    for (w, mu, v), c in x.terms.items():
        cur = TriangularElement.one(datum).scale(c)
        for l in w:
            cur = cur * _braid_image_f(datum, i, l, inverse)
        if any(mu):
            cur = cur * TriangularElement.k_power(
                datum, datum.simple_reflection(i, mu))
        for l in v:
            cur = cur * _braid_image_e(datum, i, l, inverse)
        total = total + cur
    return total


def braid_word_apply(word, x, inverse=False):
    """T_{i_1} T_{i_2} ... T_{i_k} applied to x (rightmost factor first);
    with inverse=True, the inverse of that composite."""
    if inverse:
        for i in word:
            x = braid_apply(i, x, inverse=True)
    else:
        for i in reversed(word):
            x = braid_apply(i, x)
    return x


# ---------------------------------------------------------------------------
# PBW root vectors, over Z[q, q^-1]


_ONE = LaurentPoly.one()


def _letter_image(datum, i, l):
    """(q - q^-1)^{delta_il} T_i(F_l) as states {(F-word, k, m): coefficient}:
    -K_i^-1 Ebar_i for l = i, the pure-F image otherwise."""
    if l == i:
        return {((), -1, 1): LaurentPoly({0: -1})}
    a = datum.cartan[i - 1][l - 1]
    if a == 0:
        return {((l,), 0, 0): _ONE}
    if a != -1:
        raise ValueError("braid action implemented for simply-laced data only")
    return {((l, i), 0, 0): _ONE, ((i, l), 0, 0): LaurentPoly({1: -1})}


def _times_letter(x, i, l, a):
    """x F_l for states x = {(w, k, m): c} of T_i, a = a_il.  K_i^k moves
    past F_l with q^{-k a}; Ebar_i commutes with F_l for l != i, and

        Ebar_i^m F_i = F_i Ebar_i^m + (sum_{t<m} q^{-2t}) K_i Ebar_i^{m-1}
                                    - (sum_{t<m} q^{2t}) K_i^-1 Ebar_i^{m-1}.
    """
    if l != i:
        return {(w + (l,), k, m): c.shift(-k * a)
                for (w, k, m), c in x.items()}
    out = {}
    for (w, k, m), c in x.items():
        terms = {(w + (i,), k, m): c.shift(-k * a)}
        if m:
            plus = minus = c
            if m > 1:
                plus = c * LaurentPoly({-2 * t: 1 for t in range(m)})
                minus = c * LaurentPoly({2 * t: 1 for t in range(m)})
            terms[w, k + 1, m - 1] = plus
            terms[w, k - 1, m - 1] = -minus
        accumulate(out, terms)
    return out


def _image_word(datum, i, w, memo):
    """(q - q^-1)^(letters i in w) T_i(F_w) for a nonempty F-word w, as
    states of T_i: the image of its prefix times that of its last letter;
    memo maps (i, w) to images."""
    hit = memo.get((i, w))
    if hit is None:
        x = (_image_word(datum, i, w[:-1], memo) if len(w) > 1
             else {((), 0, 0): _ONE})
        row, hit = datum.cartan[i - 1], {}
        for (w2, k2, m2), c2 in _letter_image(datum, i, w[-1]).items():
            cur = x
            for j in w2:
                cur = _times_letter(cur, i, j, row[j - 1])
            # Ebar_i^m K_i^k2 = q^{-2 m k2} K_i^k2 Ebar_i^m
            accumulate(hit, {(v, k + k2, m + m2): c.shift(-2 * m * k2)
                             for (v, k, m), c in cur.items()},
                       None if c2.is_one() else c2)
        memo[i, w] = hit
    return hit


def root_vector(datum, word, p):
    """The p-th PBW root vector of a reduced word (1-based position):
    T_{i_1}...T_{i_{p-1}} applied to F_{i_p}, as a word element.  Raises
    ValueError if word[:p] is not reduced, and AssertionError naming the
    word, the position and the letter i if a K/E remainder survives a T_i
    or a division is inexact, and naming the expected root and the
    weight found if they differ."""
    word = tuple(word)
    if 1 <= p <= len(word) and not datum.is_reduced(word[:p]):
        raise ValueError(f"word {word} is not reduced up to position {p}")
    return _root_vector(datum, word, p, {})


def _root_vector(datum, word, p, memo):
    if not (1 <= p <= len(word)):
        raise ValueError(f"position {p} out of range")
    beta = datum.act(word[:p - 1], datum.simple_root(word[p - 1]))
    if sum(beta) == 1:
        # T_w(F_i) = F_j when w(a_i) = a_j (Jantzen, Prop. 8.20); the
        # weight a_j has the single word (j,)
        return WordElement(datum, {(beta.index(1) + 1,): 1})
    x = {(word[p - 1],): _ONE}
    for i in reversed(word[:p - 1]):
        # T_i(x) on (q - q^-1)^k x, k the most letters i in a word of x:
        # T_i(F_i) = -K_i^-1 Ebar_i / (q - q^-1) is its only denominator
        k = max((w.count(i) for w in x), default=0)
        img = {}
        for w, c in x.items():
            d = k - w.count(i)
            accumulate(img, _image_word(datum, i, w, memo),
                       c * _Q_MINUS_QINV ** d if d else c)
        where = f"T_{i} at position {p} of word {word}"
        for (w, kk, m), c in img.items():
            if kk or m:
                raise AssertionError(f"{where} leaves the remainder ({c}) "
                                     f"F{list(w)} K_{i}^{kk} Ebar_{i}^{m}")
        den = _Q_MINUS_QINV ** k
        try:
            x = {w: c.exact_div(den) if k else c
                 for (w, _, _), c in img.items()}
        except ValueError as e:
            raise AssertionError(f"{where}: a coefficient is not divisible "
                                 f"by (q - q^-1)^{k}") from e
    out = WordElement(datum, x)
    if out.weight != beta:
        raise AssertionError(
            f"root vector at position {p} of word {word} has weight "
            f"{out.weight}, expected the root {beta}")
    return out


def root_vectors(datum, word):
    """Every root vector of the reduced word; they share one memo."""
    word = tuple(word)
    if not datum.is_reduced(word):
        raise ValueError(f"word {word} is not reduced")
    memo = {}
    return tuple(_root_vector(datum, word, p, memo)
                 for p in range(1, len(word) + 1))


def pbw_monomial(datum, word, cvec, vectors=None):
    """The PBW basis element with exponents cvec along the reduced word:
    the ordered product of divided powers of the root vectors.  The
    product runs over Z[q, q^-1]; each word coefficient is then divided
    once by prod_p [c_p]!, in Q(q): free-algebra words are not integral
    (f_i^(2) is f_i f_i / [2])."""
    if vectors is None:
        vectors = root_vectors(datum, word)
    if len(cvec) != len(vectors):
        raise ValueError("exponent vector length mismatch")
    terms = {(): LaurentPoly.one()}
    den = LaurentPoly.one()
    for c, vec in zip(cvec, vectors):
        if c < 0:
            raise ValueError("negative PBW exponent")
        if c == 0:
            continue
        factor = {w: cf.to_laurent() for w, cf in vec.terms.items()}
        for _ in range(c):
            t = {}
            for w1, c1 in terms.items():
                accumulate(t, {w1 + w2: c2 for w2, c2 in factor.items()}, c1)
            terms = t
        den = den * quantum_factorial(c)
    return WordElement(datum, {w: RatFunc(cf, den)
                               for w, cf in terms.items()})
