"""PBW-basis engine for the negative half along a fixed reduced word.

Elements here are plain dicts mapping PBW exponent vectors to RatFunc
coefficients.  The word algebra is consulted only at small heights, to
seed the quadratic straightening relations between pairs of root
vectors and the action of bar, e'_i and * on single root vectors;
everything else is assembled from those seeds by exact arithmetic.
That keeps weight spaces of height 20 tractable even though their word
expansions are astronomically large.
"""

from .laurent import LaurentPoly, RatFunc, accumulate, quantum_factorial
from .wordalg import PAIRING_HEIGHT_CAP, WordElement, kostant_dimension
from .braid import root_vectors, pbw_monomial
# unused here; kept bound because perfbench/tracing.py patches these aliases
from .linalg import solve  # noqa: F401
from .wordalg import weight_basis  # noqa: F401

_R_ONE = RatFunc(1)


def scaled(source, scale):
    return accumulate({}, source, scale)


def pbw_norm(c, height):
    """(L(c), L(c)) in closed form (Kimura 2012): (1-q^2)^height times
    prod_p prod_{s=1..c_p} 1/(1-q^{2s}), where height = ht wt(c)."""
    num = den = LaurentPoly.one()
    for _ in range(height):
        num = num * LaurentPoly({0: 1, 2: -1})
    for m in c:
        for s in range(1, m + 1):
            den = den * LaurentPoly({0: 1, 2 * s: -1})
    return RatFunc(num) / RatFunc(den)


def pbw_indices(datum, word, weight):
    """Exponent vectors c >= 0 with sum c_p beta_p = weight for the
    inversion sequence of a reduced word, in ascending lex order."""
    roots = datum.inversion_sequence(word)
    n = len(roots)
    out = []
    c = [0] * n

    def extend(p, rem):
        if p == n:
            if not any(rem):
                out.append(tuple(c))
            return
        beta = roots[p]
        top = min(rem[t] // beta[t] for t in range(len(rem)) if beta[t])
        for m in range(top + 1):
            c[p] = m
            extend(p + 1, tuple(r - m * b for r, b in zip(rem, beta)))
        c[p] = 0

    extend(0, tuple(weight))
    return tuple(out)


def _first_descent(seq):
    for k in range(len(seq) - 1):
        if seq[k] > seq[k + 1]:
            return k
    return None


class PBWContext:
    """All PBW computations for one reduced word (usually of w_0).

    Caches are append-only memo tables, filled on first use; every
    value is computed by exact arithmetic from the same seeds, so the
    order in which they fill does not change any result.
    """

    def __init__(self, datum, word):
        word = tuple(word)
        if not datum.is_reduced(word):
            raise ValueError(f"word {word} is not reduced")
        self.datum = datum
        self.word = word
        self.n = len(word)
        self.roots = datum.inversion_sequence(word)
        self.vectors = root_vectors(datum, word)
        self.simple_pos = {}
        for p, beta in enumerate(self.roots):
            support = [t for t, v in enumerate(beta) if v]
            if len(support) == 1 and beta[support[0]] == 1:
                self.simple_pos[support[0] + 1] = p
        self._indices = {}
        self._straight = {}
        self._relations = {}
        self._monomials_cache = {}
        self._dfact_cache = {}
        self._bar_letter = {}
        self._star_letter = {}
        self._eprime_letter = {}
        self._bar_mono = {}
        self._star_mono = {}
        self._eprime_mono = {}
        self._eperp_mono = {}
        self._fmult_mono = {}
        self._gram = {}

    # -- bookkeeping

    def zero_index(self):
        return (0,) * self.n

    def one(self):
        return {self.zero_index(): _R_ONE}

    def weight_of(self, c):
        out = [0] * self.datum.rank
        for p, m in enumerate(c):
            if m:
                beta = self.roots[p]
                for t in range(len(out)):
                    out[t] += m * beta[t]
        return tuple(out)

    def element_weight(self, f):
        """Common weight of a homogeneous dict, or None when empty."""
        weights = {self.weight_of(c) for c in f}
        if not weights:
            return None
        if len(weights) > 1:
            raise ValueError("mixed weights in one PBW element")
        return weights.pop()

    def indices(self, weight):
        """PBW exponent vectors of the weight, in ascending lex order."""
        weight = tuple(weight)
        cached = self._indices.get(weight)
        if cached is None:
            cached = self._indices[weight] = pbw_indices(self.datum,
                                                         self.word, weight)
        return cached

    def _raw(self, c):
        seq = []
        for p, m in enumerate(c):
            seq.extend([p] * m)
        return tuple(seq)

    def _dfact(self, c):
        cached = self._dfact_cache.get(c)
        if cached is None:
            acc = _R_ONE
            for m in c:
                if m > 1:
                    acc = acc * RatFunc(quantum_factorial(m))
            cached = self._dfact_cache[c] = acc
        return cached

    # -- straightening

    def straighten(self, seq):
        """Expansion of a raw product of root vectors in the PBW basis.

        seq is a tuple of root-vector positions; the result maps
        exponent vectors c to coefficients r_c with E_seq = sum r_c L(c).
        Runs a work stack instead of recursion so long products do not
        hit the interpreter's depth limit; every intermediate sequence
        is memoized.
        """
        seq = tuple(seq)
        memo = self._straight
        hit = memo.get(seq)
        if hit is not None:
            return hit
        stack = [seq]
        while stack:
            s = stack[-1]
            if s in memo:
                stack.pop()
                continue
            k = _first_descent(s)
            if k is None:
                c = [0] * self.n
                for p in s:
                    c[p] += 1
                c = tuple(c)
                memo[s] = {c: self._dfact(c)}
                stack.pop()
                continue
            rel = self._relation(s[k], s[k + 1])
            pending = [s[:k] + self._raw(d) + s[k + 2:] for d in rel]
            todo = [t for t in pending if t not in memo]
            if todo:
                stack.extend(todo)
                continue
            total = {}
            for d, r in rel.items():
                child = s[:k] + self._raw(d) + s[k + 2:]
                accumulate(total, memo[child], r / self._dfact(d))
            memo[s] = total
            stack.pop()
        return memo[seq]

    def _relation(self, x, y):
        """E_x E_y in the PBW basis for a descent x > y (memoized)."""
        key = (x, y)
        hit = self._relations.get(key)
        if hit is None:
            prod = self.vectors[x] * self.vectors[y]
            hit = self._relations[key] = self.coords_of_word_element(prod)
        return hit

    # -- word-level bridge (small heights only)

    def _monomials(self, weight):
        """{d: L(d) as a word element} for every PBW index of the weight;
        the word expansions are built once per weight and kept."""
        cached = self._monomials_cache.get(weight)
        if cached is None:
            if sum(weight) > PAIRING_HEIGHT_CAP:
                raise ValueError(f"word expansion at height {sum(weight)} "
                                 f"exceeds cap {PAIRING_HEIGHT_CAP}")
            inds = self.indices(weight)
            dim = kostant_dimension(self.datum, weight)
            if len(inds) != dim:
                raise AssertionError(
                    f"PBW index count {len(inds)} differs from weight-space "
                    f"dimension {dim} at {weight}")
            cached = self._monomials_cache[weight] = {
                d: pbw_monomial(self.datum, self.word, d, vectors=self.vectors)
                for d in inds}
        return cached

    def coords_of_word_element(self, x):
        """PBW coordinates of a word element (small heights only).

        The PBW basis is orthogonal (Lusztig 1993, ch. 38), so
        x_d = (x, L(d)) / (L(d), L(d)): the numerator dots the pairing
        vector of x with the word terms of L(d), the denominator is the
        closed-form norm.  Raises AssertionError naming the weight unless
        x - sum_d x_d L(d) is zero in the algebra, so a broken convention
        fails loudly.
        """
        if x.weight is None:
            return {}
        weight = tuple(x.weight)
        vec = x.pairing_vector()
        out = {}
        residual = dict(x.terms)
        for d, ld in self._monomials(weight).items():
            num = RatFunc(0)
            for w, cw in ld.terms.items():
                v = vec.get(w)
                if v is not None:
                    num = num + cw * v
            if num:
                out[d] = xd = num / pbw_norm(d, sum(weight))
                accumulate(residual, ld.terms, -xd)
        if not WordElement(self.datum, residual).is_algebra_zero():
            raise AssertionError(
                f"PBW coordinates do not reconstruct the element at weight "
                f"{weight}")
        return out

    def monomial_word_element(self, c):
        """L(c) as a word element (small heights only)."""
        return self._monomials(self.weight_of(c))[tuple(c)]

    # -- products

    def mul(self, f, g):
        out = {}
        for a, fa in f.items():
            raw_a = self._raw(a)
            scale_a = fa / self._dfact(a)
            for b, gb in g.items():
                expn = self.straighten(raw_a + self._raw(b))
                accumulate(out, expn, scale_a * gb / self._dfact(b))
        return out

    def divided_power(self, f, m):
        acc = self.one()
        for _ in range(m):
            acc = self.mul(acc, f)
        return scaled(acc, _R_ONE / RatFunc(quantum_factorial(m)))

    # -- seeds for bar, star and e'_i on single root vectors

    def bar_letter(self, p):
        hit = self._bar_letter.get(p)
        if hit is None:
            x = self.vectors[p]
            barred = WordElement(self.datum, {w: cf.bar()
                                              for w, cf in
                                              x.terms.items()})
            hit = self._bar_letter[p] = self.coords_of_word_element(
                barred)
        return hit

    def star_letter(self, p):
        hit = self._star_letter.get(p)
        if hit is None:
            hit = self._star_letter[p] = self.coords_of_word_element(
                self.vectors[p].star())
        return hit

    def eprime_letter(self, i, p):
        key = (i, p)
        hit = self._eprime_letter.get(key)
        if hit is None:
            x = self.vectors[p].eprime(i)
            if x.is_algebra_zero():
                hit = {}
            else:
                hit = self.coords_of_word_element(x)
            self._eprime_letter[key] = hit
        return hit

    # -- bar involution and * at the PBW level

    def bar(self, f):
        out = {}
        for c, cf in f.items():
            accumulate(out, self._bar_monomial(c), cf.bar())
        return out

    def _bar_monomial(self, c):
        hit = self._bar_mono.get(c)
        if hit is None:
            # bar is a ring map, so bar(L(c)) is the ordered product
            # of bar(E_p)^(c_p)
            acc = self.one()
            for p, m in enumerate(c):
                if m:
                    acc = self.mul(acc, self.divided_power(
                        self.bar_letter(p), m))
            hit = self._bar_mono[c] = acc
        return hit

    def star(self, f):
        out = {}
        for c, cf in f.items():
            accumulate(out, self._star_monomial(c), cf)
        return out

    def _star_monomial(self, c):
        hit = self._star_mono.get(c)
        if hit is None:
            # * is an anti-automorphism: reverse the factor order
            acc = self.one()
            for p in range(self.n - 1, -1, -1):
                m = c[p]
                if m:
                    acc = self.mul(acc, self.divided_power(
                        self.star_letter(p), m))
            hit = self._star_mono[c] = acc
        return hit

    # -- e'_i as a twisted derivation over raw letters

    def eprime(self, i, f):
        out = {}
        for c, cf in f.items():
            accumulate(out, self._eprime_monomial(i, c), cf)
        return out

    def _eprime_monomial(self, i, c):
        key = (i, c)
        hit = self._eprime_mono.get(key)
        if hit is not None:
            return hit
        seq = self._raw(c)
        alpha = self.datum.simple_root(i)
        total = {}
        passed = (0,) * self.datum.rank
        for j, p in enumerate(seq):
            letter = self.eprime_letter(i, p)
            if letter:
                # e'_i(a y) = e'_i(a) y + q^{-(alpha_i, wt a)} a e'_i(y)
                twist = RatFunc(LaurentPoly.q_power(
                    -self.datum.bilinear(alpha, passed)))
                for d, r in letter.items():
                    sub = self.straighten(
                        seq[:j] + self._raw(d) + seq[j + 1:])
                    accumulate(total, sub,
                               twist * r / self._dfact(d))
            passed = tuple(a + b for a, b in zip(passed, self.roots[p]))
        hit = scaled(total, _R_ONE / self._dfact(c))
        self._eprime_mono[key] = hit
        return hit

    # -- multiplication by f_i on the left

    def f_mult(self, i, f):
        pos = self.simple_pos.get(i)
        if pos is None:
            raise ValueError(f"alpha_{i} is not a root of the word {self.word}")
        out = {}
        for c, cf in f.items():
            key = (i, c)
            hit = self._fmult_mono.get(key)
            if hit is None:
                sub = self.straighten((pos,) + self._raw(c))
                hit = self._fmult_mono[key] = scaled(
                    sub, _R_ONE / self._dfact(c))
            accumulate(out, hit, cf)
        return out

    # -- Kashiwara decomposition and operators at the element level

    def kashiwara_components(self, i, f):
        """Decompose f = sum_m f_i^(m) x_m with e'_i x_m = 0."""
        comps = {}
        cur = dict(f)
        while cur:
            chain = [cur]
            while True:
                nxt = self.eprime(i, chain[-1])
                if not nxt:
                    break
                chain.append(nxt)
            m = len(chain) - 1
            if m == 0:
                comps[0] = cur
                break
            # (e'_i)^m (f_i^(m) u) = q^{-m(m-1)/2} u when e'_i u = 0
            xm = scaled(chain[m],
                        RatFunc(LaurentPoly.q_power(m * (m - 1) // 2)))
            comps[m] = xm
            sub = xm
            for _ in range(m):
                sub = self.f_mult(i, sub)
            cur = accumulate(cur, sub,
                             -(_R_ONE / RatFunc(quantum_factorial(m))))
        return comps

    def epsilon(self, i, f):
        """Largest m with (e'_i)^m f nonzero."""
        if not f:
            raise ValueError("epsilon of zero")
        count = 0
        cur = f
        while True:
            cur = self.eprime(i, cur)
            if not cur:
                return count
            count += 1

    def ftilde(self, i, f):
        comps = self.kashiwara_components(i, f)
        out = {}
        for m, xm in comps.items():
            sub = xm
            for _ in range(m + 1):
                sub = self.f_mult(i, sub)
            accumulate(out, sub, _R_ONE / RatFunc(quantum_factorial(m + 1)))
        return out

    def etilde(self, i, f):
        comps = self.kashiwara_components(i, f)
        out = {}
        for m, xm in comps.items():
            if m == 0:
                continue
            sub = xm
            for _ in range(m - 1):
                sub = self.f_mult(i, sub)
            accumulate(out, sub, _R_ONE / RatFunc(quantum_factorial(m - 1)))
        return out

    # -- bilinear form

    def eperp(self, p, f):
        """Adjoint of left multiplication by the root vector E_p:
        (E_p z, x) = (z, eperp(p, x)).

        Stripping a word w = (j_1,...,j_k) from the left of the other
        argument composes e'_{j_1} first, so the adjoint of E_p is the
        sum over its word expansion of those e' compositions.
        """
        out = {}
        for c, cf in f.items():
            key = (p, c)
            hit = self._eperp_mono.get(key)
            if hit is None:
                total = {}
                for w, cw in self.vectors[p].terms.items():
                    cur = {c: _R_ONE}
                    for j in w:
                        cur = self.eprime(j, cur)
                        if not cur:
                            break
                    if cur:
                        accumulate(total, cur, cw)
                hit = self._eperp_mono[key] = total
            accumulate(out, hit, cf)
        return out

    def gram(self, weight):
        """(indices, Gram matrix) of the PBW basis at the weight.

        Descends by stripping the leftmost PBW factor of the column
        index as a block: (x, E_p^(m) z) = ((eperp_p)^m x, z) / [m]!.
        Off-diagonal entries must vanish; a nonzero one means the braid
        convention is broken, and raises immediately.
        """
        weight = tuple(weight)
        hit = self._gram.get(weight)
        if hit is not None:
            return hit
        inds = self.indices(weight)
        if not any(weight):
            hit = self._gram[weight] = (inds, [[_R_ONE]])
            return hit
        if not inds:
            hit = self._gram[weight] = (inds, [])
            return hit
        mat = [[None] * len(inds) for _ in inds]
        for bi, b in enumerate(inds):
            p = next(t for t, m in enumerate(b) if m)
            m = b[p]
            bhat = b[:p] + (0,) + b[p + 1:]
            beta = self.roots[p]
            lower = tuple(v - m * r for v, r in zip(weight, beta))
            linds, lmat = self.gram(lower)
            place = {c: k for k, c in enumerate(linds)}
            col = place[bhat]
            inv_fact = _R_ONE / self._dfact((m,))
            for ai, a in enumerate(inds):
                x = {a: _R_ONE}
                for _ in range(m):
                    x = self.eperp(p, x)
                    if not x:
                        break
                val = RatFunc(0)
                for d, xd in x.items():
                    entry = lmat[place[d]][col]
                    if entry:
                        val = val + xd * entry
                mat[ai][bi] = val * inv_fact
        for a in range(len(inds)):
            for b in range(len(inds)):
                if a != b and mat[a][b]:
                    raise AssertionError(
                        f"PBW basis not orthogonal at weight {weight}: "
                        f"({inds[a]}, {inds[b]}) = {mat[a][b]}")
            if not mat[a][a]:
                raise AssertionError(
                    f"PBW norm vanishes at {inds[a]}")
        hit = self._gram[weight] = (inds, mat)
        return hit

    def _pair_known(self, f, g):
        """Pair two homogeneous dicts via the Gram of their weight."""
        if not f or not g:
            return RatFunc(0)
        weight = self.element_weight(f)
        inds, mat = self.gram(weight)
        place = {c: k for k, c in enumerate(inds)}
        val = RatFunc(0)
        for c, fc in f.items():
            row = mat[place[c]]
            for d, gd in g.items():
                entry = row[place[d]]
                if entry:
                    val = val + fc * gd * entry
        return val

    def pairing(self, f, g):
        """Kashiwara bilinear form of two homogeneous dicts."""
        if not f or not g:
            return RatFunc(0)
        wf = self.element_weight(f)
        wg = self.element_weight(g)
        if wf != wg:
            return RatFunc(0)
        if not any(wf):
            zero = self.zero_index()
            return f[zero] * g[zero]
        self.gram(wf)
        return self._pair_known(f, g)


_CONTEXTS = {}


def get_context(datum, word=None):
    """Shared PBWContext per (datum, word); word defaults to the
    longest-word preset of the datum."""
    word = tuple(word) if word is not None else datum.longest_word()
    key = (datum.cartan, word)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        ctx = _CONTEXTS[key] = PBWContext(datum, word)
    return ctx
