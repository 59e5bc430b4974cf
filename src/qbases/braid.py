"""The full quantized enveloping algebra and its braid group action.

Elements are kept in triangular normal form: sums of F_w K_mu E_v with
F-word w, integer K-exponent vector mu and E-word v.  Only the mixed
commutation relations are rewritten here,

    E_i F_j = F_j E_i + delta_ij (K_i - K_i^-1)/(q - q^-1),
    K_mu F_j = q^{-(mu, a_j)} F_j K_mu,
    K_mu E_j = q^{+(mu, a_j)} E_j K_mu,

so the F- and E-sides stay free and zero tests fall back to the word
algebra's bilinear form on each side.

The braid generator attached to vertex i acts by

    T_i(K_mu) = K_{s_i mu},
    T_i(E_i)  = -F_i K_i,          T_i(F_i) = -K_i^-1 E_i,
    T_i(E_j)  = E_i E_j - q^-1 E_j E_i   when a_ij = -1,
    T_i(F_j)  = F_j F_i - q F_i F_j      when a_ij = -1,

and fixes E_j, F_j for a_ij = 0.  With this choice the braid relations
hold and composites along a reduced word send simple generators to
elements of the negative half on the nose, e.g. T_1 T_2 (F_1) = F_2.
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


def _qpow(k):
    return RatFunc(LaurentPoly.q_power(k))


# 1/(q - q^-1) = q/(q^2 - 1)
def _inv_q_minus_qinv():
    return RatFunc({1: 1}, (-1, 0, 1))


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

    def _merge(self, key, c):
        # merged inline: a call per single term is slower here
        s = self.terms.get(key)
        s = c if s is None else s + c
        if s.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = s

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

    def _mul_f(self, j):
        """Right-multiply by F_j, commuting it leftwards past E and K."""
        datum = self.datum
        out = TriangularElement(datum)
        for (w, mu, v), c in self.terms.items():
            for (fp, rho, ew), c2 in _eword_past_f(datum, v, j).items():
                # K_mu then picks up q^{-(mu, wt fp)} moving past fp
                tw = -datum.bilinear(mu, word_content(datum, fp))
                key = (w + fp,
                       tuple(a + b for a, b in zip(mu, rho)),
                       ew)
                out._merge(key, c * c2 * _qpow(tw))
        return out

    def _mul_e(self, j):
        out = TriangularElement(self.datum)
        for (w, mu, v), c in self.terms.items():
            out._merge((w, mu, v + (j,)), c)
        return out

    def _mul_k(self, nu):
        datum = self.datum
        out = TriangularElement(datum)
        for (w, mu, v), c in self.terms.items():
            tw = -datum.bilinear(nu, word_content(datum, v))
            key = (w, tuple(a + b for a, b in zip(mu, nu)), v)
            out._merge(key, c * _qpow(tw))
        return out

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly, RatFunc)):
            return self.scale(other)
        if not isinstance(other, TriangularElement):
            return NotImplemented
        total = TriangularElement(self.datum)
        for (w, mu, v), c in other.terms.items():
            cur = self.scale(c)
            for l in w:
                cur = cur._mul_f(l)
            if any(mu):
                cur = cur._mul_k(mu)
            for l in v:
                cur = cur._mul_e(l)
            total = total + cur
        return total

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly, RatFunc)):
            return self.scale(other)
        return NotImplemented

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
    """Straighten E_v * F_l into sum of F K E normal terms.

    Returns {(fword, kvec, eword): RatFunc}; fword is () or (l,).
    """
    key = (datum.cartan, v, l)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    zero_mu = (0,) * datum.rank
    if not v:
        out = {((l,), zero_mu, ()): RatFunc.one()}
        _memo[key] = out
        return out
    head, j = v[:-1], v[-1]
    # E_head (E_j F_l) = E_head F_l E_j [+ delta], then recurse on E_head F_l
    out = {(fp, rho, ew + (j,)): c
           for (fp, rho, ew), c in _eword_past_f(datum, head, l).items()}
    if j == l:
        # E_head (K_j - K_j^-1)/(q - q^-1); E_head K_j picks up
        # q^{-(a_j, wt head)} moving K_j to the left
        inv = _inv_q_minus_qinv()
        pairing = datum.bilinear(datum.simple_root(j),
                                 word_content(datum, head))
        mu_plus = tuple(1 if t == j - 1 else 0 for t in range(datum.rank))
        mu_minus = tuple(-x for x in mu_plus)
        accumulate(out, {((), mu_plus, head): inv * _qpow(-pairing),
                         ((), mu_minus, head): -(inv * _qpow(pairing))})
    _memo[key] = out
    return out


# ---------------------------------------------------------------------------
# braid action


def _braid_image_f(datum, i, j, inverse):
    """Image of F_j under T_i (or its inverse)."""
    a = datum.cartan[i - 1][j - 1]
    if j == i:
        ei = TriangularElement.e_gen(datum, i)
        ki = TriangularElement.k_power(datum, datum.simple_root(i))
        kin = TriangularElement.k_power(
            datum, tuple(-x for x in datum.simple_root(i)))
        if not inverse:
            return (kin * ei).scale(-1)      # -K_i^-1 E_i
        return (ei * ki).scale(-1)           # -E_i K_i
    if a == 0:
        return TriangularElement.f_gen(datum, j)
    if a != -1:
        raise ValueError("braid action implemented for simply-laced data only")
    fi = TriangularElement.f_gen(datum, i)
    fj = TriangularElement.f_gen(datum, j)
    if not inverse:
        return fj * fi - (fi * fj).scale(LaurentPoly.q_power(1))
    return fi * fj - (fj * fi).scale(LaurentPoly.q_power(1))


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
# PBW root vectors


def root_vector(datum, word, p):
    """The p-th PBW root vector of a reduced word (1-based position):
    T_{i_1}...T_{i_{p-1}} applied to F_{i_p}, as a word element."""
    if not (1 <= p <= len(word)):
        raise ValueError(f"position {p} out of range")
    x = TriangularElement.f_gen(datum, word[p - 1])
    img = braid_word_apply(word[:p - 1], x)
    out = img.to_word_element()
    beta = datum.act(word[:p - 1], datum.simple_root(word[p - 1]))
    if out.weight != beta:
        raise AssertionError("root vector has wrong weight")
    return out


def root_vectors(datum, word):
    if not datum.is_reduced(word):
        raise ValueError(f"word {tuple(word)} is not reduced")
    return tuple(root_vector(datum, word, p)
                 for p in range(1, len(word) + 1))


def pbw_monomial(datum, word, cvec, vectors=None):
    """The PBW basis element with exponents cvec along the reduced word:
    the ordered product of divided powers of the root vectors."""
    if vectors is None:
        vectors = root_vectors(datum, word)
    if len(cvec) != len(vectors):
        raise ValueError("exponent vector length mismatch")
    out = WordElement.one(datum)
    for c, vec in zip(cvec, vectors):
        if c < 0:
            raise ValueError("negative PBW exponent")
        if c == 0:
            continue
        piece = WordElement.one(datum)
        for _ in range(c):
            piece = piece * vec
        inv = RatFunc(1) / RatFunc(quantum_factorial(c))
        out = out * piece.scale(inv)
    return out

