"""Reference routes shared by several test modules."""

import itertools
import weakref
from fractions import Fraction

from qbases.braid import pbw_monomial
from qbases.canonical import _solve_bar_fixed
from qbases.laurent import LaurentPoly, RatFunc, accumulate
from qbases.wordalg import TensorElement
from qbases.linalg import rank
from qbases.preproj import (PreprojModule, _rank_signature, double_arrows,
                            hom_basis, is_isomorphic, is_module)


def pairing(ctx, f, g):
    """Kashiwara bilinear form of two PBW coordinate dicts of the
    PBWContext ctx: sum_c f_c g_c (L(c), L(c)), the PBW basis being
    orthogonal (Lusztig 1993, 38.2.3)."""
    val = RatFunc(0)
    for c, fc in f.items():
        gc = g.get(c)
        if gc is not None:
            val = val + fc * gc * ctx.norm(c)
    return val


def pbw_norm(c, height):
    """(L(c), L(c)) in Kimura's product form (2012): (1-q^2)^height times
    prod_p prod_{s=1..c_p} 1/(1-q^{2s}), where height = ht wt(c), reduced
    by a gcd: the reference for PBWContext.norm, which builds the same
    quantity from W(c) = dfact(c) (L(c), L(c)) with no gcd.

    Each 1-q^{2s} is (1-q^2) times 1 + q^2 + ... + q^{2s-2}, and height
    >= sum_p c_p, so this is (1-q^2)^(height - sum c) over the product of
    those quotients for s >= 2."""
    num = LaurentPoly({0: 1, 2: -1}) ** (height - sum(c))
    den = LaurentPoly.one()
    for m in c:
        for s in range(2, m + 1):
            den = den * LaurentPoly({2 * k: 1 for k in range(s)})
    return RatFunc(num, den)


def ref_word_combination(ctx, coords, monomials=None):
    """The word terms of sum_d coords[d] L(d) for the PBWContext ctx, in
    RatFunc, with L(d) from braid.pbw_monomial (kept in the dict
    monomials when one is passed), every coefficient normalized by a
    gcd: the reference for PBWContext.word_expansions."""
    if monomials is None:
        monomials = {}
    terms = {}
    for d, v in coords.items():
        mono = monomials.get(d)
        if mono is None:
            mono = monomials[d] = pbw_monomial(ctx.datum, ctx.word, d,
                                               vectors=ctx.vectors)
        accumulate(terms, mono.terms, v)
    return terms


def ref_structure_constants(cctx, label1, label2, monomials=None):
    """cctx.structure_constants(label1, label2) read from the twisted
    coproduct of each b3: the coefficient of b1 (x) b2 in r(b3), with
    the L(d) of ref_word_combination kept in monomials.  Independent
    route; word-level, so product heights must stay small."""
    w1 = cctx.label_weight(label1)
    w2 = cctx.label_weight(label2)
    weight = tuple(a + b for a, b in zip(w1, w2))
    # b^up over L(d), since E*(d) = L(d) / (L(d), L(d))
    dual1, dual2 = (ref_word_combination(
        cctx.ctx, {d: RatFunc(v) / cctx.ctx.norm(d)
                   for d, v in cctx.dual_estar_coords(label).items()},
        monomials) for label in (label1, label2))
    probe = TensorElement(
        cctx.datum,
        {(u, v): cu * cv
         for u, cu in dual1.items()
         for v, cv in dual2.items()})
    out = {}
    for c3 in cctx._table(weight).indices:
        b3 = cctx.canonical_word_element(c3)
        val = b3.coproduct().pairing(probe)
        if val:
            if not val.is_laurent():
                raise AssertionError(
                    f"structure constant not Laurent at {c3}: {val}")
            out[c3] = val.to_laurent()
    return out


def ref_pbw_indices(roots, weight):
    """Exponent vectors c >= 0 with sum c_p beta_p = weight, in ascending
    lex order, by a depth-first search over the positions that shares
    nothing between weights."""
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


def ref_candidate(datum, orientation, dim, bits):
    """The 0/1 candidate module whose matrices, one per arrow of
    double_arrows, are read off bits block after block, each block
    row-major."""
    mats, pos = {}, 0
    for a, b in double_arrows(orientation):
        r, c = dim[b - 1], dim[a - 1]
        mats[a, b] = [list(bits[pos + k * c:pos + (k + 1) * c])
                      for k in range(r)]
        pos += r * c
    return PreprojModule(datum, orientation, dim, mats)


def ref_enumerate_modules(datum, orientation, dim):
    """One module per isomorphism class by building every 0/1 candidate,
    in itertools.product order, and testing it with is_module before
    comparing it within its rank signature.  No bounds, no cache."""
    dim = tuple(dim)
    entries = sum(dim[a - 1] * dim[b - 1]
                  for a, b in double_arrows(orientation))
    classes = []
    by_signature = {}
    for bits in itertools.product((0, 1), repeat=entries):
        m = ref_candidate(datum, orientation, dim, bits)
        if not is_module(m):
            continue
        same = by_signature.setdefault(_rank_signature(m), [])
        if not any(is_isomorphic(m, seen) for seen in same):
            same.append(m)
            classes.append(m)
    return tuple(classes)


def ref_intertwiner(left, right):
    """An isomorphism left -> right as {vertex: matrix}, or None when
    there is none: the first combination sum_k c_k phi_k of
    hom_basis(left, right) that is invertible at every vertex, with c
    running over {0, ..., t}^n (t the total dimension) from (1, ..., 1).
    The grid cannot miss: the product of the vertex determinants has
    degree at most t in each c_k, and a nonzero polynomial of degree at
    most t in each variable does not vanish on all of {0, ..., t}^n."""
    if left.dim != right.dim:
        return None
    basis = hom_basis(left, right)
    dims = list(enumerate(left.dim, start=1))
    t = left.total_dim()
    for coeffs in itertools.product([*range(1, t + 1), 0],
                                    repeat=len(basis)):
        phi = {i: [[sum(c * b[i][r][s] for c, b in zip(coeffs, basis))
                    for s in range(d)] for r in range(d)] for i, d in dims}
        if all(rank(phi[i]) == d for i, d in dims):
            return phi
    return None


def ref_table(cctx, weight):
    """(indices, P, P^-1) at the weight by dense triangles: the bar
    matrix M with bar(L(c)) = sum_d M[d][c] L(d), the bar-invariant
    unitriangular solve
    P[d][c] - bar(P[d][c]) = sum_{c <= e < d} M[d][e] bar(P[e][c]),
    and the inverse of P by forward substitution, each walking the
    full triangle with no sparsity."""
    inds, _ = cctx.ctx.gram(weight)
    dim = len(inds)
    place = {c: k for k, c in enumerate(inds)}
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    bar_mat = [[zero] * dim for _ in range(dim)]
    for ci, c in enumerate(inds):
        for d, v in cctx.ctx.bar({c: one}).items():
            bar_mat[place[d]][ci] = v
    trans = [[one if a == b else zero for b in range(dim)]
             for a in range(dim)]
    for ci in range(dim):
        for di in range(ci + 1, dim):
            g = zero
            for ei in range(ci, di):
                if bar_mat[di][ei] and trans[ei][ci]:
                    g = g + bar_mat[di][ei] * trans[ei][ci].bar()
            trans[di][ci] = _solve_bar_fixed(g)
    inv = [[one if a == b else zero for b in range(dim)]
           for a in range(dim)]
    for col in range(dim):
        for row in range(col + 1, dim):
            acc = zero
            for mid in range(col, row):
                if trans[row][mid] and inv[mid][col]:
                    acc = acc + trans[row][mid] * inv[mid][col]
            inv[row][col] = -acc
    return inds, trans, inv


def ref_certificate(seed, exponents):
    """The cluster-monomial certificate with every product rebuilt from
    the unit: the seed variables' E*-coordinates multiplied in seed order,
    one dual_mul per factor, sharing nothing between monomials; then
    (label, p, x) when the coordinates x are q^p at the label and have a
    higher lowest exponent everywhere else, and None otherwise."""
    ctx = seed.context
    pbw = ctx.ctx
    x = {pbw.zero_index(): LaurentPoly.one()}
    for label, e in zip(seed.labels, exponents):
        y = ctx.dual_estar_coords(label)
        for _ in range(e):
            x = pbw.dual_mul(x, y)
    lows = {d: v.min_exp() for d, v in x.items()}
    p = min(lows.values())
    (label, *rest) = [d for d, m in lows.items() if m == p]
    if rest or x[label] != LaurentPoly.q_power(p):
        return None
    return label, p, x


_STRAIGHT = weakref.WeakKeyDictionary()


def _ref_over(f, den, what):
    """f / den on LaurentPoly coefficients, f itself when den is 1."""
    if den.is_one():
        return f
    try:
        return {c: v.exact_div(den) for c, v in f.items()}
    except ValueError as e:
        raise AssertionError(f"not Laurent: {what} over {den}") from e


def ref_straighten(pbw, seq):
    """{c: r_c} with E_seq = sum r_c L(c) for the PBWContext pbw, by
    straightening on LaurentPoly coefficients: each first descent E_x E_y
    is replaced by its relation sum_d r_d L(d), read as r_d / dfact(d)
    times E_{raw d}, until every sequence is sorted, E_sorted = dfact(c)
    L(c).  Memoized per context, on a work stack; shares the relations
    (the word-level seeds), _raw and _dfact with PBWContext.straighten,
    and none of its packed kernel or memos."""
    memo = _STRAIGHT.setdefault(pbw, {})
    seq = tuple(seq)
    stack = [seq]
    while stack:
        s = stack[-1]
        if s in memo:
            stack.pop()
            continue
        k = next((k for k in range(len(s) - 1) if s[k] > s[k + 1]), None)
        if k is None:
            c = tuple(s.count(p) for p in range(pbw.n))
            memo[s] = {c: pbw._dfact(c)}
            stack.pop()
            continue
        children = [(s[:k] + pbw._raw(d) + s[k + 2:], pbw._dfact(d), r)
                    for d, r in pbw._relation(s[k], s[k + 1]).items()]
        todo = [t for t, _, _ in children if t not in memo]
        if todo:
            stack.extend(todo)
            continue
        total = {}
        for child, den, r in children:
            accumulate(total, _ref_over(memo[child], den, child), r)
        memo[s] = total
        stack.pop()
    return memo[seq]


def ref_mul(pbw, f, g):
    """The product of two PBW coordinate dicts over any coefficient ring
    that LaurentPoly multiplies into: L(a) L(b) is ref_straighten of
    E_{raw a + raw b} over dfact(a) dfact(b)."""
    out = {}
    for a, fa in f.items():
        for b, gb in g.items():
            expn = ref_straighten(pbw, pbw._raw(a) + pbw._raw(b))
            accumulate(out, _ref_over(expn, pbw._dfact(a) * pbw._dfact(b),
                                      (a, b)), fa * gb)
    return out


def ref_dual_constants(pbw, a, b):
    """{c: s^c_ab} with E*(a) E*(b) = sum_c s^c_ab E*(c) by dividing
    Laurent polynomials: r_c W(c) over dfact(c) W(a) W(b), each
    W = dfact N multiplied out from the Q(q) norm, r_c the coefficient of
    L(c) in E_{raw a + raw b}, straightened by ref_straighten."""
    def w(c):
        return (pbw._dfact(c) * pbw.norm(c)).to_laurent()

    den_ab = w(a) * w(b)
    return {c: (r * w(c)).exact_div(pbw._dfact(c) * den_ab)
            for c, r in ref_straighten(
                pbw, pbw._raw(a) + pbw._raw(b)).items()}


def ref_saito_reflection(ctx, i, label, direction):
    """Saito's reflection one crystal step at a time through the public
    operators of the CanonicalContext ctx: forward
    (f*_i)^(phi_i) (e_i)^(eps_i) on {eps*_i = 0}, inverse
    star . forward . star on {eps_i = 0}; ValueError off the domain."""
    if direction == "inverse":
        if ctx.epsilon(i, label):
            raise ValueError(f"epsilon_{i} of {label} is not 0")
        return ctx.star(ref_saito_reflection(ctx, i, ctx.star(label),
                                             "forward"))
    if ctx.epsilon_star(i, label):
        raise ValueError(f"epsilon*_{i} of {label} is not 0")
    power = ctx.phi(i, label)
    cur = label
    for _ in range(ctx.epsilon(i, label)):
        cur = ctx.etilde(i, cur)
    for _ in range(power):
        cur = ctx.ftilde_star(i, cur)
    return cur


def ref_bw_contains(ctx, word, label):
    """Membership of the label in the crystal subset of the reduced word,
    by the Saito recursion on single steps with no memo: empty word, the
    unit only; otherwise strip the e_i-string of the first letter i and
    recurse on the inverse reflection with the rest of the word."""
    if not word:
        return label == ctx.unit_label()
    i = word[0]
    cur = label
    for _ in range(ctx.epsilon(i, label)):
        cur = ctx.etilde(i, cur)
    return ref_bw_contains(ctx, word[1:],
                           ref_saito_reflection(ctx, i, cur, "inverse"))


def ref_label_weight(datum, word, label):
    """sum_p c_p beta_p over the inversion sequence of the word, rebuilt
    on every call: no memo and no context."""
    roots = datum.inversion_sequence(tuple(word))
    return tuple(sum(m * beta[t] for m, beta in zip(label, roots))
                 for t in range(datum.rank))


def ref_sigma_exponent(seed, exponents):
    """2p with q^-p X sigma-invariant, X the ordered product of the seed
    variables, by reading each variable's weight through label_weight and
    each form through the datum's bilinear on every call: (w_k, w_l) is
    needed only where e_k e_l is nonzero (and (w_k, w_k) where
    e_k > 1)."""
    ctx = seed.context
    form = ctx.datum.bilinear
    weights = [ctx.label_weight(l) for l in seed.labels]
    n = seed.size()
    total = 0
    for k in range(n):
        ek = exponents[k]
        if ek > 1:
            total -= ek * (ek - 1) // 2 * form(weights[k], weights[k])
        for l in range(k + 1, n):
            if ek and exponents[l]:
                total += ek * exponents[l] * (
                    seed.lam[k][l] - form(weights[k], weights[l]))
    return total


def ref_positive_definite(a):
    """Sylvester's criterion on each leading principal minor, computed
    over Fraction with row swaps: the reference for
    quiver._positive_definite."""
    n = len(a)
    for k in range(1, n + 1):
        m = [[Fraction(a[i][j]) for j in range(k)] for i in range(k)]
        det = Fraction(1)
        for c in range(k):
            piv = None
            for r in range(c, k):
                if m[r][c]:
                    piv = r
                    break
            if piv is None:
                return False
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = -det
            det *= m[c][c]
            inv = 1 / m[c][c]
            for r in range(c + 1, k):
                f = m[r][c] * inv
                if f:
                    for j in range(c, k):
                        m[r][j] -= f * m[c][j]
        if det <= 0:
            return False
    return True
