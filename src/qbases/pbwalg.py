"""PBW-basis engine for the negative half along a fixed reduced word.

Elements here are plain dicts mapping PBW exponent vectors to
coefficients.  The word algebra is consulted only at small heights, to
seed the quadratic straightening relations between pairs of root
vectors and the action of bar, e'_i and * on single root vectors;
everything else is assembled from those seeds by exact arithmetic in
Z[q, q^-1], since the PBW basis is a basis of the integral form (Lusztig
1993, ch. 38-41): the seeds are checked Laurent once, and every division
by a quantum factorial is exact or raises.  Bar runs by prefix
recursion, bar(L(c)) = bar(L(c')) bar(E_p)^(c_p) for the last p with
c_p > 0, on memoized divided powers, and the word-level e' behind each
seed shifts by q-powers exactly (RatFunc.shift, no gcd).  That keeps
weight spaces of height 20 tractable even though their word expansions
are astronomically large.  RatFunc stays in the bilinear form, in the
word-level coordinates that ``coords_of_word_element`` solves for (the
seeds, before their Laurent check) and in the word coefficients that
``word_expansions`` writes, and nowhere else.

PBW indices come from one suffix table per context, keyed by (position,
remaining weight), so weights share the enumeration of their common
suffixes.  The closed-form norm depends on c only through the signature
(ht wt(c) - sum c, the sorted parts c_p > 1), and is memoized by it.
Weights wt(c) are memoized per context too, since the weight of a label
depends on the word.  Straightening reads each relation E_x E_y as
packed triples (raw d, dfact(d) or None when it is 1, r_d), kept per
(x, y) on the kernel, so each child sequence is built once.

Straightening, the products (``mul`` for the bar, ``dual_mul`` and
``dual_constants`` for the E* side) and the word products run on a
packed kernel:
a coefficient q^v sum_k d_k q^k is the pair of v and the Python int
sum_k d_k 2^(64 k) (Kronecker substitution q -> 2^64, with signed
digits), plus an L1 bound.  A product is one int multiply, a sum one
shift and one add, and an exact division by dfact(c) or (1-q^2)^m one
``divmod``; packing and unpacking go through ``int.from_bytes`` and
``to_bytes`` on an ``array`` of offset digits, in linear time.  Products
multiply the bounds and sums add them, so while a bound stays under
2^63 every digit is a coefficient.  A Kronecker quotient Q of A by D is
kept only when bound(A) and ||Q||_1 bound(D) are under 2^63, which makes
Q D = A as polynomials; a remainder means not Laurent at any width, and
raises as such.  The packed int is the exact value of its polynomial at
q = 2^64 whatever the bounds, so a bound that reaches 2^63 (as does
that of [21]!, whose L1 norm is 21!) loses nothing: the context
replaces its kernel, which holds every packed memo, by one of twice the
width and runs the call again.  ``LaurentPoly`` stays at the boundary:
``mul``, ``bar`` and ``dual_mul`` take and return LaurentPoly dicts,
and ``straighten`` and ``dual_constants`` decode.
"""

from array import array
from math import prod

from .laurent import (LaurentPoly, RatFunc, _rat, _wrap, accumulate,
                      cyclotomic_product, factorial_cyclotomic,
                      quantum_factorial, quantum_int)
from .wordalg import PAIRING_HEIGHT_CAP, WordElement, kostant_dimension
from .braid import root_vectors
# unused here; kept bound because perfbench/tracing.py patches these aliases
from .braid import pbw_monomial  # noqa: F401
from .linalg import solve  # noqa: F401
from .wordalg import weight_basis  # noqa: F401


_ONE_MINUS_Q2 = LaurentPoly({0: 1, 2: -1})

# -- the packed kernel: (valuation, Kronecker int, L1 bound) per coefficient

_BITS = 64  # first digit width of every context: q -> 2^_BITS
_SWAP = array("H", [1]).tobytes()[0] == 0  # big-endian words
_UNIT = (0, 1, 1)


class _Overflow(AssertionError):
    """A packed bound reached half the digit range: the digits may have
    overflowed, so the context widens them and runs again."""


def _kmul(a, b):
    return a[0] + b[0], a[1] * b[1], a[2] * b[2]


class _Kernel:
    """Packed coefficients at one digit width: x = sum_k d_k 2^(bits k)
    with signed digits, each value bounded by an L1 bound that must stay
    under half = 2^(bits-1); raises _Overflow where one reaches it.  It
    holds every value packed at its width, so none outlives the width."""

    def __init__(self, bits):
        self.bits = bits
        self.half = 1 << (bits - 1)
        self.size = bits // 8
        self._offsets = {}
        self.straight, self.relations, self.word_products = {}, {}, {}
        self.dual_sc, self.dfacts, self.phis, self.omq2_powers = {}, {}, {}, {}

    def wider(self):
        """A kernel of twice the digit width, its memos empty."""
        return _Kernel(2 * self.bits)

    def _offset(self, n):
        """The int whose n digits all equal half."""
        off = self._offsets.get(n)
        if off is None:
            off = self._offsets[n] = (self.half * ((1 << self.bits * n) - 1)
                                      // ((1 << self.bits) - 1))
        return off

    def _overflow(self, bound, where):
        return _Overflow(f"packed coefficient bound {bound} reaches "
                         f"2^{self.bits - 1}: {where}")

    def pack(self, p):
        """The packed form of a LaurentPoly, bounded by its L1 norm."""
        c = p.c
        if len(c) == 1:
            ((e, x),) = c.items()
            return e, x, abs(x)
        if not c:
            return 0, 0, 0
        norm = sum(map(abs, c.values()))
        half = self.half
        if norm >= half:
            raise self._overflow(norm, p)
        lo = min(c)
        digits = [half] * (max(c) - lo + 1)
        for e, x in c.items():
            digits[e - lo] = x + half
        if self.size == 8:
            raw = array("Q", digits)
            if _SWAP:
                raw.byteswap()
        else:
            raw = b"".join(u.to_bytes(self.size, "little") for u in digits)
        return (lo, int.from_bytes(raw, "little") - self._offset(len(digits)),
                norm)

    def _digits(self, x):
        """The digits of x, lowest first, each offset by half (so half is
        a zero digit), with at least one zero digit on top."""
        size = self.size
        n = x.bit_length() // self.bits + 2
        raw = (x + self._offset(n)).to_bytes(n * size, "little")
        if size != 8:
            return [int.from_bytes(raw[k:k + size], "little")
                    for k in range(0, len(raw), size)]
        digits = array("Q", raw)
        if _SWAP:
            digits.byteswap()
        return digits

    def unpack(self, v, x):
        """The LaurentPoly q^v sum_k d_k q^k for the signed digits d_k of x."""
        half = self.half
        if -half <= x < half:
            return _wrap({v: x} if x else {})
        return _wrap({v + k: u - half for k, u in enumerate(self._digits(x))
                      if u != half})

    def decode(self, packed, where):
        """The LaurentPoly dict of a packed one, zeros dropped; raises
        _Overflow naming where and the key when a bound reaches half."""
        out = {}
        for c, (v, x, bound) in packed.items():
            if bound >= self.half:
                raise self._overflow(bound, f"{where} at {c}")
            if x:
                out[c] = self.unpack(v, x)
        return out

    def div(self, a, d):
        """The packed quotient a / d (d with a nonzero lowest digit), or
        None when the Kronecker quotient Q leaves a remainder: a / d is
        then not Laurent at any width.  Q is kept only when bound(a) and
        ||Q||_1 bound(d) are under half, so that every digit of Q d is a
        coefficient and Q d = a holds as polynomials; otherwise raises
        _Overflow."""
        quo, rem = divmod(a[1], d[1])
        if rem:
            return None
        half = self.half
        if a[2] >= half:
            raise self._overflow(a[2], "dividend")
        norm = sum(abs(u - half) for u in self._digits(quo))
        if norm * d[2] >= half:
            raise self._overflow(norm * d[2], "quotient times divisor")
        return a[0] - d[0], quo, norm

    def divide(self, f, den, what, key):
        """_divide on packed coefficients, den packed and not 1."""
        out = {}
        for c, x in f.items():
            out[c] = quo = self.div(x, den)
            if quo is None:
                raise AssertionError(
                    f"PBW coefficient not Laurent: {what} {key} "
                    f"over {self.unpack(den[0], den[1])}")
        return out

    def accumulate(self, target, source, scale):
        """accumulate on packed coefficients, scale given: a sum is pruned
        only when it is zero with a bound under half."""
        vs, xs, bs = scale
        bits, half = self.bits, self.half
        for c, (v, x, b) in source.items():
            v += vs
            x *= xs
            b *= bs
            cur = target.get(c)
            if cur is not None:
                w, y, bw = cur
                if w < v:
                    x <<= bits * (v - w)
                    v = w
                elif w > v:
                    y <<= bits * (w - v)
                x += y
                b += bw
                if not x and b < half:
                    del target[c]
                    continue
            target[c] = v, x, b
        return target

    def dfact(self, c):
        """prod_p [c_p]! packed, memoized by the sorted parts c_p > 1."""
        key = tuple(sorted(m for m in c if m > 1))
        hit = self.dfacts.get(key)
        if hit is None:
            hit = self.dfacts[key] = self.pack(prod(
                map(quantum_factorial, key), start=LaurentPoly.one()))
        return hit

    def phi_product(self, exps):
        """prod Phi_m^e over the pairs (m, e) of exps, packed, memoized."""
        hit = self.phis.get(exps)
        if hit is None:
            hit = self.phis[exps] = self.pack(_wrap(
                {i: v for i, v in enumerate(cyclotomic_product(exps)) if v}))
        return hit

    def one_minus_q2_power(self, m):
        """(1-q^2)^m packed, memoized."""
        hit = self.omq2_powers.get(m)
        if hit is None:
            hit = self.omq2_powers[m] = self.pack(_ONE_MINUS_Q2 ** m)
        return hit

    def lowest_terms(self, x, exps):
        """The packed x over prod Phi_m^e, (m, e) in exps, as a RatFunc in
        lowest terms with no gcd: the Phi_m are monic, irreducible, distinct
        and prime to q, so each is divided out while that is exact.  One
        check certifies all steps, as ``div`` does each."""
        v, quo, bound = x
        if bound >= self.half:
            raise self._overflow(bound, "word coefficient")
        left, bound = [], 1
        for m, e in exps:
            _, phi, b = self.phi_product(((m, 1),))
            while e and not (qr := divmod(quo, phi))[1]:
                quo, e, bound = qr[0], e - 1, bound * b
            if e:
                left.append((m, e))
        num = self.unpack(v, quo).c
        bound *= sum(map(abs, num.values()))
        if bound >= self.half:
            raise self._overflow(bound, "quotient times divisor")
        return _rat(num, cyclotomic_product(tuple(left)))


def scaled(source, scale):
    return accumulate({}, source, scale)


def _divide(f, den, what, key):
    """f / den on LaurentPoly coefficients, exactly in Z[q, q^-1] (f
    itself when den is 1); raises AssertionError naming what and key if
    a quotient is not Laurent."""
    if den.is_one():
        return f
    try:
        return {c: v.exact_div(den) for c, v in f.items()}
    except ValueError as e:
        raise AssertionError(
            f"PBW coefficient not Laurent: {what} {key} over {den}") from e


def pbw_indices(roots, weight, table=None):
    """Exponent vectors c >= 0 with sum c_p beta_p = weight for the
    inversion sequence roots of a reduced word, in ascending lex order.

    table maps (p, rem) to the suffixes (c_p, ..., c_n-1) of weight rem,
    in ascending lex order; pass one dict per roots to share suffixes
    across weights."""
    if table is None:
        table = {}
    n = len(roots)

    def suffixes(p, rem):
        hit = table.get((p, rem))
        if hit is None:
            if p == n:
                hit = () if any(rem) else ((),)
            else:
                beta = roots[p]
                top = min(rem[t] // beta[t] for t in range(len(rem))
                          if beta[t])
                hit = tuple((m,) + s for m in range(top + 1)
                            for s in suffixes(p + 1, tuple(
                                r - m * b for r, b in zip(rem, beta))))
            table[p, rem] = hit
        return hit

    return suffixes(0, tuple(weight))


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
        self._suffixes = {}
        self._weights = {}
        self._k = _Kernel(_BITS)
        self._seeds = {}
        self._dfact_cache = {}
        self._bar_mono = {}
        self._star_mono = {}
        self._eprime_mono = {}
        self._fmult_mono = {}
        self._norm = {}
        self._gram = {}
        self._wnorm_cache = {}

    # -- bookkeeping

    def zero_index(self):
        return (0,) * self.n

    def one(self):
        return {self.zero_index(): LaurentPoly.one()}

    def weight_of(self, c):
        """sum_p c_p beta_p for any sequence c of exponents, memoized
        per context (by tuple(c)): the weight of a label depends on the
        word."""
        c = tuple(c)
        hit = self._weights.get(c)
        if hit is None:
            out = [0] * self.datum.rank
            for p, m in enumerate(c):
                if m:
                    beta = self.roots[p]
                    for t in range(len(out)):
                        out[t] += m * beta[t]
            hit = self._weights[c] = tuple(out)
        return hit

    def element_weight(self, f):
        """Common weight of a homogeneous dict, or None when empty."""
        weights = {self.weight_of(c) for c in f}
        if not weights:
            return None
        if len(weights) > 1:
            raise ValueError("mixed weights in one PBW element")
        return weights.pop()

    def indices(self, weight):
        """PBW exponent vectors of the weight, in ascending lex order;
        ValueError naming the weight unless it has one nonnegative integer
        per vertex."""
        weight = tuple(weight)
        rank = self.datum.rank
        if len(weight) != rank or any(
                not isinstance(m, int) or m < 0 for m in weight):
            raise ValueError(f"weight {weight} is not a weight of rank "
                             f"{rank}: it needs {rank} nonnegative integers")
        return pbw_indices(self.roots, weight, self._suffixes)

    def _raw(self, c):
        seq = []
        for p, m in enumerate(c):
            seq.extend([p] * m)
        return tuple(seq)

    def _dfact(self, c):
        """prod_p [c_p]!, memoized by the sorted parts c_p > 1 (as norm
        keys its memo), so labels with the same parts share one value;
        a new key costs one product, onto its key without the last
        part."""
        key = tuple(sorted(m for m in c if m > 1))
        hit = self._dfact_cache.get(key)
        if hit is None:
            hit = self._dfact_cache[key] = (
                self._dfact(key[:-1]) * quantum_factorial(key[-1])
                if key else LaurentPoly.one())
        return hit

    # -- straightening

    def straighten(self, seq):
        """Expansion of a raw product of root vectors in the PBW basis.

        seq is a tuple of root-vector positions; the result maps
        exponent vectors c to LaurentPoly coefficients r_c with
        E_seq = sum r_c L(c), decoded from ``_straighten_packed``.
        """
        seq = tuple(seq)
        return self._packed_run(
            lambda k: k.decode(self._straighten_packed(k, seq), "E_seq"))

    def _straighten_packed(self, k, seq):
        """straighten on the packed kernel k, memoized on it.  Runs a
        work stack instead of recursion so long products do not hit the
        interpreter's depth limit; every intermediate sequence is
        memoized."""
        memo = k.straight
        hit = memo.get(seq)
        if hit is not None:
            return hit
        # entries (s, children), children None until s is expanded
        stack = [(seq, None)]
        while stack:
            s, children = stack[-1]
            if s in memo:
                stack.pop()
                continue
            if children is None:
                pos = _first_descent(s)
                if pos is None:
                    c = [0] * self.n
                    for p in s:
                        c[p] += 1
                    c = tuple(c)
                    memo[s] = {c: k.dfact(c)}
                    stack.pop()
                    continue
                head, tail = s[:pos], s[pos + 2:]
                children = [(head + raw + tail, den, r) for raw, den, r
                            in self._packed_relation(k, s[pos], s[pos + 1])]
                stack[-1] = (s, children)
                todo = [(t, None) for t, _, _ in children if t not in memo]
                if todo:
                    stack.extend(todo)
                    continue
            # E_child = dfact(d) E_prefix L(d) E_suffix, integral
            total = {}
            for child, den, r in children:
                expn = memo[child]
                if den is not None:
                    expn = k.divide(expn, den, "E_seq", child)
                k.accumulate(total, expn, r)
            memo[s] = total
            stack.pop()
        return memo[seq]

    def _relation(self, x, y):
        """E_x E_y in the PBW basis for a descent x > y."""
        return self._seed(("E_{} E_{}", x, y),
                          lambda: self.vectors[x] * self.vectors[y])

    def _packed_relation(self, k, x, y):
        """The relation E_x E_y = sum_d r_d L(d) as triples (raw d,
        dfact(d) or None when it is 1, r_d) packed on k, memoized per
        (x, y)."""
        hit = k.relations.get((x, y))
        if hit is None:
            hit = k.relations[x, y] = tuple(
                (self._raw(d), None if max(d) < 2 else k.dfact(d), k.pack(r))
                for d, r in self._relation(x, y).items())
        return hit

    # -- word-level bridge (small heights only)

    def _word_indices(self, weight):
        """indices(weight); ValueError above the word-level height cap."""
        if sum(weight) > PAIRING_HEIGHT_CAP:
            raise ValueError(f"word expansion at height {sum(weight)} "
                             f"exceeds cap {PAIRING_HEIGHT_CAP}")
        return self.indices(weight)

    def _word_product(self, k, c):
        """U(c) = prod_p E_p^(c_p) = dfact(c) L(c) as {word: packed on k},
        memoized as U(c') E_p, c' = c lowered at the last p with c_p > 0."""
        hit = k.word_products.get(c)
        if hit is None:
            if not any(c):
                return {(): _UNIT}
            p = max(i for i, m in enumerate(c) if m)
            ep = [(w, k.pack(v.to_laurent()))
                  for w, v in self.vectors[p].terms.items()]
            hit = k.word_products[c] = {}
            for w, u in self._word_product(
                    k, c[:p] + (c[p] - 1,) + c[p + 1:]).items():
                k.accumulate(hit, {w + w2: u2 for w2, u2 in ep}, u)
        return hit

    def word_expansions(self, weight, columns):
        """The word terms of sum_d col[d] L(d), for each col of columns
        ({d: LaurentPoly}): the packed U(d) summed per dfact class, brought
        to the lcm of the dfacts on cyclotomic exponents and reduced."""
        self._word_indices(tuple(weight))

        def expand(k, col):
            classes, num = {}, {}
            for d, v in col.items():
                key = tuple(sorted(m for m in d if m > 1))
                k.accumulate(classes.setdefault(key, {}),
                             self._word_product(k, d), k.pack(v))
            facts = [factorial_cyclotomic(key) for key in classes]
            top = tuple((m, max(e.get(m, 0) for _, e in facts))
                        for m in sorted({m for _, e in facts for m in e}))
            for (s, exps), terms in zip(facts, classes.values()):
                v, x, b = k.phi_product(
                    tuple((m, e - exps.get(m, 0)) for m, e in top))
                k.accumulate(num, terms, (v - s, x, b))
            return {w: k.lowest_terms(x, top) for w, x in num.items()}
        return self._packed_run(lambda k: [expand(k, c) for c in columns])

    def coords_of_word_element(self, x):
        """PBW coordinates of a word element (small heights only).

        The PBW basis is orthogonal (Lusztig 1993, ch. 38), so
        x_d = (x, L(d)) / (L(d), L(d)) = (x, U(d)) / (dfact(d) norm(d)).
        Raises AssertionError naming the weight unless x - sum_d x_d L(d)
        is zero in the algebra, so a broken convention fails loudly; it is
        scaled by prod_i [wt_i]!, which each dfact(d) divides (the d_p on
        roots through vertex i sum to at most wt_i).  U(d) is decoded from
        ``_word_product`` under ``_packed_run``, like every packed entry.
        """
        if x.weight is None:
            return {}
        weight = tuple(x.weight)
        vec = x.pairing_vector()
        scale = self._dfact(weight)
        out = {}
        residual = {w: cw * scale for w, cw in x.terms.items()}
        inds = self._word_indices(weight)
        dim = kostant_dimension(self.datum, weight)
        if len(inds) != dim:
            raise AssertionError(
                f"PBW index count {len(inds)} differs from weight-space "
                f"dimension {dim} at {weight}")
        for d in inds:
            ud = self._packed_run(
                lambda k: k.decode(self._word_product(k, d), f"U{d}"))
            num = RatFunc(0)
            for w, u in ud.items():
                v = vec.get(w)
                if v is not None:
                    num = num + v * u
            if num:
                out[d] = xd = num / (self.norm(d) * self._dfact(d))
                accumulate(residual, ud, -xd * scale.exact_div(self._dfact(d)))
        if not WordElement(self.datum, residual).is_algebra_zero():
            raise AssertionError(
                f"PBW coordinates do not reconstruct the element at weight "
                f"{weight}")
        return out

    def _seed(self, key, build):
        """Memoized PBW coordinates of the word element build() as
        LaurentPoly: the one place where the engine leaves Q(q).  key is
        a name template and its arguments; raises AssertionError naming
        the seed if a coefficient is not Laurent."""
        hit = self._seeds.get(key)
        if hit is None:
            hit = {}
            for d, v in self.coords_of_word_element(build()).items():
                if not v.is_laurent():
                    raise AssertionError(
                        f"PBW seed {key[0].format(*key[1:])} not Laurent "
                        f"at L{d}: {v}")
                hit[d] = v.to_laurent()
            self._seeds[key] = hit
        return hit

    def monomial_word_element(self, c):
        """L(c) as a word element (small heights only)."""
        return WordElement(self.datum, self.word_expansions(
            self.weight_of(c), [{tuple(c): LaurentPoly.one()}])[0])

    # -- products

    def mul(self, f, g):
        """Product of two elements in PBW coordinates, dicts of LaurentPoly
        coefficients.  Runs packed, on the constants of ``_mul_packed``."""
        return self._packed_product(f, g, self._mul_packed, "PBW product")

    def _mul_packed(self, k, a, b):
        """L(a) L(b) packed on k: the straightened E_{raw a + raw b} over
        dfact(a) dfact(b), exactly."""
        expn = self._straighten_packed(k, self._raw(a) + self._raw(b))
        den = _kmul(k.dfact(a), k.dfact(b))
        return expn if den == _UNIT else k.divide(
            expn, den, "L(a) L(b)", (a, b))

    def dual_mul(self, f, g):
        """Product of two elements in dual PBW coordinates: dicts of
        LaurentPoly coefficients over E*(c) = L(c) / (L(c), L(c)), which
        span the integral dual form, so the product stays in Z[q, q^-1].
        Runs packed, on the constants of ``_dual_packed``."""
        return self._packed_product(f, g, self._dual_packed, "E* product")

    def _packed_product(self, f, g, constants, what):
        """sum_{a, b} f_a g_b constants(k, a, b), on the packed kernel k."""
        def run(k):
            out = {}
            packed = [(b, k.pack(gb)) for b, gb in g.items()]
            for a, fa in f.items():
                pa = k.pack(fa)
                for b, pb in packed:
                    k.accumulate(out, constants(k, a, b), _kmul(pa, pb))
            return k.decode(out, what)
        return self._packed_run(run)

    def dual_constants(self, a, b):
        """{c: s^c_ab} with E*(a) E*(b) = sum_c s^c_ab E*(c) (memoized).

        L(a) L(b) is the straightened E_{raw a + raw b} over
        dfact(a) dfact(b), and L(c) = N(c) E*(c) for the norm N, so
        s^c_ab = r_c W(c) / (dfact(c) W(a) W(b)) for the coefficient r_c
        of L(c) in E_{raw a + raw b} and the Laurent W(c) = dfact(c) N(c)
        of ``_wnorm``.  Since wt c = wt a + wt b, the heights cancel in
        W(c) / (W(a) W(b)) = q^k (1-q^2)^m, m = sum a + sum b - sum c,
        so each constant is one exact division by dfact(c), or by
        dfact(c) (1-q^2)^-m when m < 0.  The constants are coproduct coefficients
        of L(c), integral by Kimura (2012); raises AssertionError naming
        a, b and c if one is not Laurent.  Decoded from ``_dual_packed``.
        """
        return self._packed_run(
            lambda k: k.decode(self._dual_packed(k, a, b),
                               f"E*{a} E*{b}"))

    def _packed_run(self, run):
        """run(kernel); while a bound reaches the digit width, replace the
        kernel and its packed memos by a wider one and run again.  Each
        width is exact or raises, so the answer never depends on it.  The
        packed methods take the run's kernel, never self._k, so a nested
        run that widens cannot mix widths in the run around it."""
        while True:
            try:
                return run(self._k)
            except _Overflow:
                self._k = self._k.wider()

    def _dual_packed(self, k, a, b):
        """The constants of ``dual_constants`` packed on k, memoized on
        it: the table ``dual_mul`` reads.  q^k is a shift of the
        valuation, and the division one Kronecker quotient."""
        hit = k.dual_sc.get((a, b))
        if hit is None:
            hit = {}
            ka, ma = self._wnorm(a)
            kb, mb = self._wnorm(b)
            for c, (v, x, bound) in self._straighten_packed(
                    k, self._raw(a) + self._raw(b)).items():
                kc, mc = self._wnorm(c)
                m = mc - ma - mb
                num = (v + kc - ka - kb, x, bound)
                den = k.dfact(c)
                if m > 0:
                    num = _kmul(num, k.one_minus_q2_power(m))
                elif m < 0:
                    den = _kmul(den, k.one_minus_q2_power(-m))
                if den != _UNIT:
                    num = k.div(num, den)
                    if num is None:
                        raise AssertionError(
                            f"dual PBW structure constant not Laurent: "
                            f"E*{a} E*{b} at E*{c}")
                hit[c] = num
            k.dual_sc[a, b] = hit
        return hit

    def _wnorm(self, c):
        """(k, m) with W(c) = dfact(c) (L(c), L(c)) = q^k (1-q^2)^m in
        closed form: k = -sum_p c_p (c_p - 1)/2 and m = ht wt(c) - sum c.
        (L(c), L(c)) is (1-q^2)^ht prod_p prod_{s=1..c_p} 1/(1-q^{2s})
        (Kimura 2012), and [n]! is q^(-n(n-1)/2) prod_{s<=n}
        (1-q^{2s})/(1-q^2)."""
        hit = self._wnorm_cache.get(c)
        if hit is None:
            hit = self._wnorm_cache[c] = (
                -sum(m * (m - 1) // 2 for m in c),
                sum(self.weight_of(c)) - sum(c))
        return hit

    def divided_power(self, f, m):
        acc = self.one()
        for _ in range(m):
            acc = self.mul(acc, f)
        return _divide(acc, quantum_factorial(m), "divided power", m)

    # -- seeds for bar, star and e'_i on single root vectors

    def bar_letter(self, p):
        terms = self.vectors[p].terms
        return self._seed(("bar E_{}", p), lambda: WordElement(
            self.datum, {w: cf.bar() for w, cf in terms.items()}))

    def star_letter(self, p):
        return self._seed(("star E_{}", p), lambda: self.vectors[p].star())

    def eprime_letter(self, i, p):
        # coords_of_word_element gives {} when e'_i E_p is zero
        return self._seed(("e'_{} E_{}", i, p),
                          lambda: self.vectors[p].eprime(i))

    # -- bar involution and * at the PBW level

    def bar(self, f):
        out = {}
        for c, cf in f.items():
            accumulate(out, self._bar_monomial(c), cf.bar())
        return out

    def _bar_monomial(self, c):
        hit = self._bar_mono.get(c)
        if hit is None:
            if not any(c):
                return self.one()
            # bar is a ring map and L(c) = L(c') E_p^(m) for the last p
            # with m = c_p > 0, where c' is c with c_p set to 0; and
            # E_p^(m) = E_p^(m-1) E_p / [m]
            p = max(k for k, m in enumerate(c) if m)
            m = c[p]
            power = (0,) * p + (m,) + (0,) * (self.n - p - 1)
            if c != power:
                hit = self.mul(self._bar_monomial(c[:p] + (0,) * (self.n - p)),
                               self._bar_monomial(power))
            else:
                lower = self._bar_monomial(c[:p] + (m - 1,) + c[p + 1:])
                hit = _divide(self.mul(lower, self.bar_letter(p)),
                              quantum_int(m), "divided power", (p, m))
            self._bar_mono[c] = hit
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
                twist = LaurentPoly.q_power(
                    -self.datum.bilinear(alpha, passed))
                for d, r in letter.items():
                    child = seq[:j] + self._raw(d) + seq[j + 1:]
                    accumulate(total, _divide(self.straighten(child),
                                              self._dfact(d), "E_seq",
                                              child), twist * r)
            passed = tuple(a + b for a, b in zip(passed, self.roots[p]))
        hit = _divide(total, self._dfact(c), "e'_i L(c)", (i, c))
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
                hit = self._fmult_mono[key] = _divide(
                    self.straighten((pos,) + self._raw(c)), self._dfact(c),
                    "f_i L(c)", (i, c))
            accumulate(out, hit, cf)
        return out

    # -- Kashiwara decomposition and operators at the element level: the
    # algebraic crystal, kept as the reference route for the integer
    # crystal on labels in canonical.py

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
            xm = scaled(chain[m], LaurentPoly.q_power(m * (m - 1) // 2))
            comps[m] = xm
            sub = xm
            for _ in range(m):
                sub = self.f_mult(i, sub)
            cur = accumulate(cur, _divide(sub, quantum_factorial(m),
                                          "f_i^(m) x_m", (i, m)), -1)
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
            accumulate(out, _divide(sub, quantum_factorial(m + 1),
                                    "f_i^(m+1) x_m", (i, m)))
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
            accumulate(out, _divide(sub, quantum_factorial(m - 1),
                                    "f_i^(m-1) x_m", (i, m)))
        return out

    # -- bilinear form

    def norm(self, c):
        """(L(c), L(c)) = W(c) / dfact(c): q^(k-s) (1-q^2)^m over
        prod_j Phi_j^e, from ``_wnorm`` and dfact(c) = q^s prod_j Phi_j^e.
        That is in lowest terms with no gcd: 1-q^2 = -Phi_1 Phi_2 is prime
        to every Phi_j, j >= 3, and each is monic with constant term 1.
        The form depends on c only through m = ht - sum c and the parts
        c_p > 1, so the memo is keyed by that signature."""
        k, m = self._wnorm(c)
        parts = tuple(sorted(p for p in c if p > 1))
        hit = self._norm.get((m, parts))
        if hit is None:
            s, exps = factorial_cyclotomic(parts)
            hit = self._norm[m, parts] = _rat(
                (_ONE_MINUS_Q2 ** m).shift(k - s).c,
                cyclotomic_product(tuple(exps.items())))
        return hit

    def gram(self, weight):
        """(indices, Gram matrix) of the PBW basis at the weight.

        The basis is orthogonal (Lusztig 1993, 38.2.3), so the matrix is
        diagonal with the closed-form norms.  Both facts are certified by
        the reconstruction check of coords_of_word_element at every
        weight where the braid convention enters.
        """
        weight = tuple(weight)
        hit = self._gram.get(weight)
        if hit is None:
            inds = self.indices(weight)
            zero = RatFunc(0)
            mat = [[self.norm(a) if a == b else zero for b in inds]
                   for a in inds]
            hit = self._gram[weight] = (inds, mat)
        return hit


_CONTEXTS = {}


def get_context(datum, word):
    word = tuple(word)
    key = (datum.cartan, word)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        ctx = _CONTEXTS[key] = PBWContext(datum, word)
    return ctx
