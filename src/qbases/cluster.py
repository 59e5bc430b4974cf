"""Quantum seeds in dual canonical coordinates.

Initial seeds come from reduced words of the longest element; mutation
computes the new variable by exact right division through the exchange
relation and re-validates every seed invariant.  The harness walks the
exchange graph and checks that every cluster monomial is a q-power
multiple of a dual canonical basis element.

q-commutation, exchange monomials, right division and the
cluster-monomial certificate multiply Laurent coordinates over the dual
PBW basis E*(d) (see ``canonical``), so they need canonical tables only
at the variables' weights; the structure constants only explain a
rejected certificate.
"""

import itertools

from .laurent import LaurentPoly, accumulate
# unused: perfbench's tracer wraps the names modules import from linalg and
# its tests expect cluster.solve; drop both in the next benchmark change
from .linalg import solve  # noqa: F401
from .canonical import DualElement, get_canonical
from .quiver import load_preset

# monomial products beyond this total height are refused
CLUSTER_HEIGHT_CAP = 24


class ExchangeFailure(ValueError):
    """A mutated variable or exchange monomial failed to normalize to a
    single dual canonical basis element.  Surfaced, never swallowed:
    this is exactly the evidence the verification harness looks for."""


def _unit_coords(label):
    return {tuple(label): LaurentPoly.one()}


def _coords_of(y):
    if isinstance(y, DualElement):
        return dict(y.coords)
    if isinstance(y, dict):
        return {tuple(k): v for k, v in y.items() if v}
    return _unit_coords(y)


def _scale_coords(coords, factor):
    return {k: v * factor for k, v in coords.items()}


def dual_product(ctx, a, b):
    """Product of two elements given in dual canonical coordinates,
    through the structure constants."""
    out = {}
    for l1, c1 in a.items():
        for l2, c2 in b.items():
            accumulate(out, ctx.structure_constants(l1, l2), c1 * c2)
    return out


def _estar_coords(ctx, coords):
    """Dual canonical coordinates re-expressed over E*(d), in
    Z[q, q^-1]."""
    out = {}
    for label, c in coords.items():
        accumulate(out, ctx.dual_estar_coords(label), c)
    return out


def _ordered_product(ctx, factors):
    """E*-coordinates of the ordered product of dual canonical elements,
    factors its (label, e) pairs with e > 0 (memoized per context, so
    seeds that share variables share products).  A product is its
    prefix, with the last exponent lowered by one, times b^up(label):
    one ``dual_mul``.  Callers must not change the returned dict."""
    if not factors:
        return ctx.ctx.one()
    memo = ctx._products
    hit = memo.get(factors)
    if hit is None:
        label, e = factors[-1]
        y = ctx.dual_estar_coords(label)
        prefix = factors[:-1] + (((label, e - 1),) if e > 1 else ())
        hit = memo[factors] = (ctx.ctx.dual_mul(
            _ordered_product(ctx, prefix), y) if prefix else y)
    return hit


def quasi_commutation(ctx, y1, y2):
    """The integer lam with Y1 Y2 = q^lam Y2 Y1 for the dual canonical
    elements of two labels, read off both products over the basis E*
    (``_ordered_product``): every coordinate of Y1 Y2 must be q^lam
    times that of Y2 Y1.  The verdict, lam or the ValueError, is
    memoized per ordered pair in the context, so seeds that share a pair
    validate it once."""
    key = (tuple(y1), tuple(y2))
    hit = ctx._commutes.get(key)
    if hit is None:
        try:
            hit = _quasi_commutation(ctx, *key)
        except ValueError as e:
            hit = e
        ctx._commutes[key] = hit
    if isinstance(hit, ValueError):
        # a fresh traceback on every refusal, not one that keeps growing
        raise hit.with_traceback(None)
    return hit


def _quasi_commutation(ctx, y1, y2):
    if y1 == y2:
        p12 = p21 = _ordered_product(ctx, ((y1, 2),))
    else:
        p12 = _ordered_product(ctx, ((y1, 1), (y2, 1)))
        p21 = _ordered_product(ctx, ((y2, 1), (y1, 1)))
    if not p12 or set(p12) != set(p21):
        raise ValueError("not quasi-commuting")
    lam = None
    for label, v in p12.items():
        w = p21[label]
        m = v.min_exp() - w.min_exp()
        if v != w * LaurentPoly.q_power(m) or (lam is not None and m != lam):
            raise ValueError("not quasi-commuting")
        lam = m
    return lam


def _divide_estar(pbw, r, y):
    """The Z with Z Y = R on E*-coordinates, by long division in lex
    order: take the lex-largest term E*(t) of the remainder, subtract
    c E*(d) Y for d = t - lead Y, and repeat.  Convexity of the dual
    PBW basis (Levendorskii-Soibelman) makes E*(d) Y lead with
    q^s E*(d + lead Y), which is asserted for every d, so any Z Y leads
    with lead Z + lead Y and a remainder whose lead is not of that form
    has no solution."""
    if not y:
        raise ValueError("no solution")
    lead = max(y)
    rest, z = dict(r), {}
    while rest:
        t = max(rest)
        d = tuple(a - b for a, b in zip(t, lead))
        if min(d) < 0:
            raise ValueError("no solution")
        prod = pbw.dual_mul({d: LaurentPoly.one()}, y)
        top = max(prod, default=None)
        s = prod[t].min_exp() if top == t else None
        if s is None or prod[t].c != {s: 1}:
            raise AssertionError(
                f"right division: E*{d} Y does not lead with a q-power at "
                f"E*{t}; its lex-largest term is {prod.get(top)!r} E*{top}")
        z[d] = c = rest[t] * LaurentPoly.q_power(-s)
        accumulate(rest, prod, -c)
    return z


def divide_right(ctx, r, y):
    """The unique Z with Z * Y = R, by exact long division on
    E*-coordinates (``_divide_estar``); arguments and result in dual
    canonical coordinates."""
    rc = _estar_coords(ctx, _coords_of(r))
    yc = _estar_coords(ctx, _coords_of(y))
    pbw = ctx.ctx
    try:
        pbw.element_weight(rc)
        pbw.element_weight(yc)
    except ValueError as e:
        raise ValueError("no solution") from e
    return ctx.expand_dual(_divide_estar(pbw, rc, yc))


def _k_plus(word, k):
    for p in range(k + 1, len(word) + 1):
        if word[p - 1] == word[k - 1]:
            return p
    return None


def _initial_btilde(datum, word):
    n = len(word)
    kp = {k: _k_plus(word, k) for k in range(1, n + 1)}
    mutable = tuple(k for k in range(1, n + 1) if kp[k] is not None)
    a = datum.cartan
    rows = []
    for p in range(1, n + 1):
        pp = kp[p] if kp[p] is not None else n + 1
        row = []
        for k in mutable:
            kk = kp[k]
            if p == kk:
                v = 1
            elif kp[p] == k:
                v = -1
            elif k < p < kk < pp:
                v = a[word[p - 1] - 1][word[k - 1] - 1]
            elif p < k < pp < kk:
                v = -a[word[p - 1] - 1][word[k - 1] - 1]
            else:
                v = 0
            row.append(v)
        rows.append(tuple(row))
    return mutable, tuple(rows)


class QuantumSeed:
    """A quasi-commuting family of dual canonical variables, each a pure
    basis element, with its rectangular exchange matrix.  Both seed
    invariants are validated at creation.  heights and forms are
    constants of the seed: the height of each variable's weight w_k and
    the matrix of forms (w_k, w_l)."""

    __slots__ = ("context", "word", "labels", "mutable", "bmat", "lam",
                 "history", "heights", "forms")

    def __init__(self, context, word, labels, mutable, bmat, history=()):
        self.context = context
        self.word = tuple(word)
        self.labels = tuple(tuple(l) for l in labels)
        self.mutable = tuple(mutable)
        self.bmat = tuple(tuple(r) for r in bmat)
        self.history = tuple(history)
        for label in self.labels:
            if len(label) != len(self.word) or any(
                    not isinstance(x, int) or x < 0 for x in label):
                raise ValueError(f"seed validation failed: bad label {label}")
        weights = [context.ctx.weight_of(label) for label in self.labels]
        self.heights = tuple(map(sum, weights))
        memo, form = context._forms, context.datum.bilinear
        n = len(weights)
        forms = [[0] * n for _ in range(n)]
        for k in range(n):
            for l in range(k, n):
                pair = (weights[k], weights[l])
                if pair not in memo:
                    memo[pair] = form(*pair)
                forms[k][l] = forms[l][k] = memo[pair]
        self.forms = tuple(map(tuple, forms))
        self.lam = self._validate()

    def _validate(self):
        n = len(self.labels)
        lam = [[0] * n for _ in range(n)]
        for k in range(n):
            for l in range(k + 1, n):
                try:
                    v = quasi_commutation(self.context, self.labels[k],
                                          self.labels[l])
                except ValueError as e:
                    raise ValueError(
                        "seed validation failed: variables "
                        f"{k + 1} and {l + 1} do not quasi-commute") from e
                lam[k][l] = v
                lam[l][k] = -v
        return tuple(tuple(r) for r in lam)

    def size(self):
        return len(self.labels)

    def is_mutable(self, k):
        return k in self.mutable

    def label_set(self):
        return frozenset(self.labels)

    def to_json(self):
        return {
            "word": list(self.word),
            "labels": [list(l) for l in self.labels],
            "mutable": list(self.mutable),
            "b_matrix": [list(r) for r in self.bmat],
            "lambda": [list(r) for r in self.lam],
            "history": list(self.history),
        }


def _normalize_preset(name):
    parts = name.split("-")
    if len(parts) > 2 or (len(parts) == 2 and parts[1].lower() != "w0"):
        raise ValueError(f"unknown preset {name!r}")
    return parts[0]


def initial_seed(preset, word=None):
    """The standard initial seed of a longest word: variable k is the
    dual canonical element of the 0/1 Lusztig datum supported on the
    prior occurrences of the letter at k.  A preset name defaults the
    word to the preset's; a CartanDatum needs the word."""
    if isinstance(preset, str):
        box = load_preset(_normalize_preset(preset))
        datum = box["datum"]
        if word is None:
            word = box["longest_word"]
    else:
        datum = preset
        if word is None:
            raise ValueError(
                f"initial_seed on a CartanDatum ({datum.name}) needs the "
                f"word")
    word = tuple(word)
    if not datum.is_reduced(word):
        raise ValueError(f"word {word} is not reduced")
    if len(word) != len(datum.positive_roots()):
        raise ValueError("seed words must be longest words")
    ctx = get_canonical(datum, word)
    n = len(word)
    labels = []
    for k in range(1, n + 1):
        labels.append(tuple(1 if word[p - 1] == word[k - 1] and p <= k else 0
                            for p in range(1, n + 1)))
    mutable, bmat = _initial_btilde(datum, word)
    return QuantumSeed(ctx, word, labels, mutable, bmat)


def _mutate_logged(seed, k):
    """One mutation with its exchange record; returns (seed, entry)."""
    if k not in seed.mutable:
        raise ValueError("mutation at a frozen index")
    ctx = seed.context
    col = seed.mutable.index(k)
    n = seed.size()
    # the exchange monomials, certified as cluster monomials; the
    # relation is stated between their basis elements b^up = q^-p x
    ends = []
    for sign in (1, -1):
        rep, x = _normalize(seed, [max(sign * row[col], 0)
                                   for row in seed.bmat])
        if not rep.passed():
            raise ExchangeFailure(
                f"result not dual canonical: exchange monomial "
                f"{rep.exponents}: {rep.status}")
        ends.append((rep.label, _scale_coords(
            x, LaurentPoly.q_power(rep.q_power))))
    (plus, bplus), (minus, bminus) = ends
    yk = ctx.dual_estar_coords(seed.labels[k - 1])
    qinv = LaurentPoly.q_power(-1)

    candidates = []
    near_miss = None
    for placement, r in (
            ("plus", accumulate(_scale_coords(bplus, qinv), bminus)),
            ("minus", accumulate(dict(bplus), _scale_coords(bminus, qinv)))):
        try:
            z = _divide_estar(ctx.ctx, r, yk)
        except ValueError:
            continue
        # the quotient must be q^m b^up(label), label its leading term
        label = max(z)
        m = z[label].min_exp()
        if z != _scale_coords(ctx.dual_estar_coords(label),
                              LaurentPoly.q_power(m)):
            near_miss = z
            continue
        candidates.append((placement, label, m))
    if not candidates:
        if near_miss is not None:
            raise ExchangeFailure(
                f"result not dual canonical: quotient support "
                f"{sorted(ctx.expand_dual(near_miss).coords)}")
        raise ValueError("division has no solution")
    if len(candidates) > 1:
        raise AssertionError("ambiguous exchange placement")
    placement, new_label, m = candidates[0]
    # a zero remainder makes q^m b^up(new) Y_k = R exact; its classical
    # shadow is the sum of two distinct basis elements
    if plus == minus:
        raise AssertionError("exchange validation failed: classical shadow")

    new_labels = list(seed.labels)
    new_labels[k - 1] = new_label
    bm = [list(row) for row in seed.bmat]
    for p in range(n):
        for j, kj in enumerate(seed.mutable):
            if p + 1 == k or kj == k:
                bm[p][j] = -seed.bmat[p][j]
            else:
                bpk = seed.bmat[p][col]
                bkj = seed.bmat[k - 1][j]
                bm[p][j] = seed.bmat[p][j] + (abs(bpk) * bkj
                                              + bpk * abs(bkj)) // 2
    out = QuantumSeed(ctx, seed.word, new_labels, seed.mutable, bm,
                      seed.history + (k,))
    pair = sorted((plus, minus))
    entry = {
        "labels": [list(l) for l in seed.labels],
        "k": k,
        "new_label": list(new_label),
        "q_power": -m,
        "pair": [list(p) for p in pair],
        "placement": placement,
    }
    return out, entry


def mutate(seed, k):
    """Mutation at a mutable index: the exchange monomials certified on
    E*-coordinates, the new variable by exact long division of the
    exchange relation by Y_k, exchange-matrix update, full
    revalidation."""
    return _mutate_logged(seed, k)[0]


class ClusterMonomialReport:
    """Outcome of normalizing one ordered product of seed variables."""

    __slots__ = ("exponents", "label", "q_power", "status")

    def __init__(self, exponents, label, q_power, status):
        self.exponents = tuple(exponents)
        self.label = tuple(label) if label is not None else None
        self.q_power = q_power
        self.status = status

    def passed(self):
        return self.status == "pass"

    def to_json(self):
        return {
            "exponents": list(self.exponents),
            "label": list(self.label) if self.label is not None else None,
            "q_power": self.q_power,
            "status": self.status,
        }


def _certificate(seed, exponents):
    """(label, p, x) when the ordered product X of the seed variables has
    coordinates over the dual PBW basis E*(d) = L(d) / (L(d), L(d))
    equal to q^p at the label and with a higher lowest exponent
    everywhere else, x those coordinates; otherwise None.

    The product runs in Z[q, q^-1] on the variables' E*-coordinates
    (``PBWContext.dual_mul``), so it needs canonical tables only at the
    variables' own weights; a structure constant that is not Laurent
    raises there instead of rejecting.  The product is read from the
    context's memo of ordered products (``_ordered_product``).
    """
    factors = tuple((label, e) for label, e in zip(seed.labels, exponents)
                    if e)
    x = _ordered_product(seed.context, factors)
    lowest = {}
    for d, v in x.items():
        lowest.setdefault(v.min_exp(), []).append((d, v))
    p = min(lowest)
    if len(lowest[p]) != 1:
        return None
    (label, v), = lowest[p]
    if v.c != {p: 1}:
        return None
    return label, p, x


def _sigma_exponent(seed, exponents):
    """2p such that q^{-p} X is invariant under the dual bar involution,
    X the ordered product of the seed variables: fixed by the seed's
    q-commutation exponents and the forms of its variables' weights."""
    form, lam = seed.forms, seed.lam
    n = seed.size()
    total = 0
    for k in range(n):
        ek = exponents[k]
        if not ek:
            continue
        total -= ek * (ek - 1) // 2 * form[k][k]
        for l in range(k + 1, n):
            total += ek * exponents[l] * (lam[k][l] - form[k][l])
    return total


def _structure_constant_report(seed, exponents):
    """The monomial's report through the structure constants: the whole
    product expanded in the dual canonical basis, with canonical tables
    at every intermediate and final weight.  The explainer of a
    certificate rejection, and the reference route of the tests."""
    coords = _unit_coords((0,) * seed.size())
    for label, e in zip(seed.labels, exponents):
        for _ in range(e):
            coords = dual_product(seed.context, coords, _unit_coords(label))
    if len(coords) == 1:
        (label, v), = coords.items()
        p = v.min_exp()
        if v.c == {p: 1}:
            return ClusterMonomialReport(exponents, label, -p, "pass")
    detail = {str(list(l)): repr(v) for l, v in sorted(coords.items())}
    return ClusterMonomialReport(
        exponents, None, None,
        f"fail: not a q-power of a dual canonical element: {detail}")


def _normalize(seed, exponents):
    """(report, x) for the ordered product X of the seed variables with
    the given exponents, x its E*-coordinates (None on a failing
    report).

    Certified by Lusztig's lemma.  The dual bar involution is a twisted
    anti-automorphism, the variables are invariant under it and pairwise
    q-commute (validated with the seed), so q^{-p} X is invariant for
    the p of ``_sigma_exponent``; an invariant element congruent to E*(d)
    modulo q times the dual PBW lattice is b^up(d).  The p read off the
    coordinates is asserted to be that one.  The coordinates are Laurent
    by construction (the E* structure constants are integral and any one
    that is not raises), so a rejection means no unique lowest term
    q^p.  It is explained by the structure-constant route, whose failure
    text is the report.
    """
    hit = _certificate(seed, exponents)
    if hit is None:
        rep = _structure_constant_report(seed, exponents)
        if rep.passed():
            raise AssertionError(
                f"cluster monomial routes disagree at seed history "
                f"{list(seed.history)}, exponents {list(exponents)}: the "
                f"certificate rejects, the structure constants give "
                f"{list(rep.label)} with q-power {rep.q_power}")
        return rep, None
    label, p, x = hit
    want = _sigma_exponent(seed, exponents)
    if 2 * p != want:
        raise AssertionError(
            f"q-power of the cluster monomial is not the sigma-invariant one "
            f"at seed history {list(seed.history)}, exponents "
            f"{list(exponents)}: 2p = {2 * p}, expected {want}")
    return ClusterMonomialReport(exponents, label, -p, "pass"), x


def cluster_monomial(seed, exponents):
    """Normalize the ordered product of the seed variables with the
    given exponents: find m with q^m * product a basis element
    (certified as in ``_normalize``)."""
    exponents = tuple(exponents)
    if len(exponents) != seed.size():
        raise ValueError("exponent vector length mismatch")
    if any(e < 0 for e in exponents):
        raise ValueError("negative exponent")
    height = sum(e * h for h, e in zip(seed.heights, exponents))
    if height > CLUSTER_HEIGHT_CAP:
        raise ValueError("product exceeds height bound")
    return _normalize(seed, exponents)[0]


def reachable_seeds(preset, depth):
    """All seeds within the mutation depth, deduplicated by variable
    label-sets, in breadth-first order; plus the exchange log."""
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    seed0 = initial_seed(preset) if not isinstance(preset, QuantumSeed) \
        else preset
    seeds = [seed0]
    seen = {seed0.label_set()}
    frontier = [seed0]
    log = []
    for _ in range(depth):
        nxt = []
        for s in frontier:
            for k in s.mutable:
                try:
                    s2, entry = _mutate_logged(s, k)
                    # involutivity at every executed mutation
                    back = mutate(s2, k)
                    if back.label_set() != s.label_set():
                        raise AssertionError(
                            "exchange validation failed: not involutive")
                except ExchangeFailure as e:
                    log.append({"labels": [list(l) for l in s.labels],
                                "k": k, "status": f"fail: {e}"})
                    continue
                entry["status"] = "pass"
                log.append(entry)
                if s2.label_set() not in seen:
                    seen.add(s2.label_set())
                    seeds.append(s2)
                    nxt.append(s2)
        frontier = nxt
    return seeds, log


def verify_conjecture(preset, depth, exp_bound):
    """Walk the exchange graph to the depth, then normalize every
    cluster monomial with exponents up to the bound and test membership
    of its label in the crystal subset of the seed word."""
    if depth < 0 or exp_bound < 0:
        raise ValueError(
            f"depth and exponent bound must be nonnegative, got {depth} "
            f"and {exp_bound}")
    seeds, log = reachable_seeds(preset, depth)
    ctx = seeds[0].context
    word = seeds[0].word
    name = preset if isinstance(preset, str) else ctx.datum.name

    dedup = {}
    for s in seeds:
        for exps in itertools.product(range(exp_bound + 1),
                                      repeat=s.size()):
            rep = cluster_monomial(s, exps)
            if rep.passed() and not ctx.bw_contains(word, rep.label):
                rep = ClusterMonomialReport(
                    exps, rep.label, rep.q_power,
                    "fail: label outside the crystal subset of the word")
            r = rep.to_json()
            key = (tuple(r["exponents"]), tuple(r["label"] or ()),
                   r["q_power"] if r["q_power"] is not None else 0,
                   r["status"])
            dedup[key] = r
    monomials = [dedup[k] for k in sorted(dedup)]
    log_sorted = sorted(log, key=lambda e: (e["labels"], e["k"]))
    return {
        "preset": name,
        "depth": depth,
        "monomials": monomials,
        "exchange_log": log_sorted,
    }
