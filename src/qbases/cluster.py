"""Quantum seeds in dual canonical coordinates.

Initial seeds come from reduced words of the longest element; mutation
computes the new variable by exact right division through the exchange
relation and re-validates every seed invariant.  The harness walks the
exchange graph and checks that every cluster monomial is a q-power
multiple of a dual canonical basis element.
"""

import functools
import itertools

from .laurent import LaurentPoly, RatFunc, accumulate
from .linalg import solve
from .canonical import DualElement, get_canonical
from .pbwalg import pbw_norm
from .quiver import load_preset

# monomial products beyond this total height are refused
CLUSTER_HEIGHT_CAP = 24


class ExchangeFailure(ValueError):
    """A mutated variable or exchange monomial failed to normalize to a
    single dual canonical basis element.  Surfaced, never swallowed:
    this is exactly the evidence the verification harness looks for."""


def _q_power_of(value):
    """The exponent m when value = q^m, else None."""
    if isinstance(value, RatFunc):
        if not value.is_laurent():
            return None
        value = value.to_laurent()
    if len(value.c) == 1:
        (exp, coeff), = value.c.items()
        if coeff == 1:
            return exp
    return None


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


def quasi_commutation(ctx, y1, y2):
    """The integer lam with Y1 Y2 = q^lam Y2 Y1."""
    a, b = _coords_of(y1), _coords_of(y2)
    p12 = dual_product(ctx, a, b)
    p21 = dual_product(ctx, b, a)
    if not p12 or set(p12) != set(p21):
        raise ValueError("not quasi-commuting")
    lam = None
    for label, v in p12.items():
        ratio = RatFunc(v) / RatFunc(p21[label])
        m = _q_power_of(ratio)
        if m is None or (lam is not None and m != lam):
            raise ValueError("not quasi-commuting")
        lam = m
    return lam


def _coords_weight(ctx, coords):
    weight = None
    for label in coords:
        w = ctx.label_weight(label)
        if weight is None:
            weight = w
        elif w != weight:
            return "mixed"
    return weight


def divide_right(ctx, r, y):
    """The unique Z with Z * Y = R, solved exactly at the level of dual
    PBW coordinates; result in dual canonical coordinates."""
    rc = _coords_of(r)
    yc = _coords_of(y)
    if not yc:
        raise ValueError("no solution")
    if not rc:
        return DualElement((0,) * ctx.datum.rank, {})
    wr = _coords_weight(ctx, rc)
    wy = _coords_weight(ctx, yc)
    if wr == "mixed" or wy == "mixed":
        raise ValueError("no solution")
    wz = tuple(a - b for a, b in zip(wr, wy))
    if any(x < 0 for x in wz):
        raise ValueError("no solution")

    def pbw(coords):
        acc = {}
        for label, c in coords.items():
            accumulate(acc, ctx.dual_pbw_coords(label), RatFunc(c))
        return acc

    rp = pbw(rc)
    yp = pbw(yc)
    unknowns = ctx.labels_of_weight(wz)
    support = ctx.labels_of_weight(wr)
    columns = [ctx.ctx.mul({c: RatFunc(1)}, yp) for c in unknowns]
    mat = [[col.get(d, RatFunc(0)) for col in columns] for d in support]
    rhs = [rp.get(d, RatFunc(0)) for d in support]
    try:
        z = solve(mat, rhs)
    except ValueError as e:
        if "underdetermined" in str(e):
            raise ValueError("non-unique solution") from e
        raise ValueError("no solution") from e
    zp = {c: v for c, v in zip(unknowns, z) if v}
    return ctx.expand_dual(zp)


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
    invariants are validated at creation."""

    __slots__ = ("context", "word", "labels", "mutable", "bmat", "lam",
                 "history")

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

    def variable(self, k):
        label = self.labels[k - 1]
        return DualElement(self.context.label_weight(label),
                           _unit_coords(label))

    def variables(self):
        return [self.variable(k) for k in range(1, self.size() + 1)]

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
    prior occurrences of the letter at k."""
    if isinstance(preset, str):
        box = load_preset(_normalize_preset(preset))
        datum = box["datum"]
        if word is None:
            word = box["longest_word"]
    else:
        datum = preset
        if word is None:
            word = datum.longest_word()
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


def _monomial_coords(ctx, seed, pairs):
    """Ordered product of variable powers, as dual canonical coords;
    pairs is a list of (position, exponent)."""
    out = _unit_coords((0,) * seed.size())
    for k, e in pairs:
        unit = _unit_coords(seed.labels[k - 1])
        for _ in range(e):
            out = dual_product(ctx, out, unit)
    return out


def _single_label(coords):
    """(label, m) when coords = q^m * unit(label), else None."""
    if len(coords) != 1:
        return None
    (label, coeff), = coords.items()
    m = _q_power_of(coeff)
    if m is None:
        return None
    return label, m


def _mutate_logged(seed, k):
    """One mutation with its exchange record; returns (seed, entry)."""
    if k not in seed.mutable:
        raise ValueError("mutation at a frozen index")
    ctx = seed.context
    col = seed.mutable.index(k)
    n = seed.size()
    pos = [(p, seed.bmat[p - 1][col]) for p in range(1, n + 1)
           if seed.bmat[p - 1][col] > 0]
    neg = [(p, -seed.bmat[p - 1][col]) for p in range(1, n + 1)
           if seed.bmat[p - 1][col] < 0]
    mplus = _monomial_coords(ctx, seed, pos)
    mminus = _monomial_coords(ctx, seed, neg)
    plus_one = _single_label(mplus)
    minus_one = _single_label(mminus)
    if plus_one is None or minus_one is None:
        raise ExchangeFailure(
            "result not dual canonical: exchange monomial has support "
            f"{sorted(mplus) if plus_one is None else sorted(mminus)}")
    # the exchange relation is stated between the normalized basis
    # elements; the monomials' own q-normalizations are absorbed into
    # the empirically extracted exponent
    yplus = _unit_coords(plus_one[0])
    yminus = _unit_coords(minus_one[0])
    yk = _unit_coords(seed.labels[k - 1])
    qinv = LaurentPoly.q_power(-1)

    candidates = []
    near_miss = None
    for placement, r in (
            ("plus", accumulate(_scale_coords(yplus, qinv), yminus)),
            ("minus", accumulate(dict(yplus), _scale_coords(yminus, qinv)))):
        try:
            z = divide_right(ctx, r, yk)
        except ValueError:
            continue
        one = _single_label(z.coords)
        if one is None:
            near_miss = dict(z.coords)
            continue
        candidates.append((placement, one[0], one[1], r))
    if not candidates:
        if near_miss is not None:
            raise ExchangeFailure(
                f"result not dual canonical: quotient support "
                f"{sorted(near_miss)}")
        raise ValueError("division has no solution")
    if len(candidates) > 1:
        raise AssertionError("ambiguous exchange placement")
    placement, new_label, m, r = candidates[0]

    # the exchange identity, re-expanded through the structure constants
    check = _scale_coords(
        ctx.structure_constants(new_label, seed.labels[k - 1]),
        LaurentPoly.q_power(m))
    if check != r:
        raise AssertionError("exchange validation failed: identity broken")
    shadow = sorted(sum(v.c.values()) for v in check.values())
    if shadow != [1, 1]:
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
    pair = sorted((plus_one[0], minus_one[0]))
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
    """Mutation at a mutable index: exact division through the exchange
    relation, exchange-matrix update, full revalidation."""
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


@functools.cache
def _dual_pbw_scale(d, height):
    """(L(d), L(d)): the factor from L(d)- to E*(d)-coordinates."""
    return pbw_norm(d, height)


def _certificate(seed, exponents):
    """(label, p) when the ordered product X of the seed variables has
    coordinates over the dual PBW basis E*(d) = L(d) / (L(d), L(d)) that
    are Laurent, equal to q^p at the label and have a higher lowest
    exponent everywhere else; otherwise None.

    Needs canonical tables only at the variables' own weights: the
    product runs on their dual PBW coordinates.
    """
    ctx = seed.context
    pbw = ctx.ctx
    x = pbw.one()
    for label, e in zip(seed.labels, exponents):
        if e:
            y = ctx.dual_pbw_coords(label)
            for _ in range(e):
                x = pbw.mul(x, y)
    height = sum(pbw.element_weight(x))
    lowest = {}
    for d, v in x.items():
        v = v * _dual_pbw_scale(d, height)
        if not v.is_laurent():
            return None
        v = v.to_laurent()
        lowest.setdefault(v.min_exp(), []).append((d, v))
    p = min(lowest)
    if len(lowest[p]) != 1:
        return None
    (label, v), = lowest[p]
    if v.c != {p: 1}:
        return None
    return label, p


def _sigma_exponent(seed, exponents):
    """2p such that q^{-p} X is invariant under the dual bar involution,
    X the ordered product of the seed variables: fixed by the seed's
    q-commutation exponents and the weights of its variables."""
    ctx = seed.context
    form = ctx.datum.bilinear
    weights = [ctx.label_weight(l) for l in seed.labels]
    n = seed.size()
    total = 0
    for k in range(n):
        ek = exponents[k]
        total -= ek * (ek - 1) // 2 * form(weights[k], weights[k])
        for l in range(k + 1, n):
            total += ek * exponents[l] * (
                seed.lam[k][l] - form(weights[k], weights[l]))
    return total


def _structure_constant_report(seed, exponents):
    """The monomial's report through the structure constants: the whole
    product expanded in the dual canonical basis, with canonical tables
    at every intermediate and final weight.  The explainer of a
    certificate rejection, and the reference route of the tests."""
    coords = _monomial_coords(seed.context, seed,
                              [(k, e) for k, e in
                               enumerate(exponents, start=1) if e])
    one = _single_label(coords)
    if one is None:
        detail = {str(list(l)): repr(v) for l, v in sorted(coords.items())}
        return ClusterMonomialReport(
            exponents, None, None,
            f"fail: not a q-power of a dual canonical element: {detail}")
    label, p = one
    return ClusterMonomialReport(exponents, label, -p, "pass")


def cluster_monomial(seed, exponents):
    """Normalize the ordered product of the seed variables with the
    given exponents: find m with q^m * product a basis element.

    Certified by Lusztig's lemma.  The dual bar involution is a twisted
    anti-automorphism, the variables are invariant under it and pairwise
    q-commute (validated with the seed), so q^{-p} X is invariant for
    the p of ``_sigma_exponent``; an invariant element congruent to E*(d)
    modulo q times the dual PBW lattice is b^up(d).  The p read off the
    coordinates is asserted to be that one.  A rejection is explained by
    the structure-constant route, whose failure text is the report.
    """
    exponents = tuple(exponents)
    if len(exponents) != seed.size():
        raise ValueError("exponent vector length mismatch")
    if any(e < 0 for e in exponents):
        raise ValueError("negative exponent")
    height = sum(e * sum(seed.context.label_weight(label))
                 for label, e in zip(seed.labels, exponents))
    if height > CLUSTER_HEIGHT_CAP:
        raise ValueError("product exceeds height bound")
    hit = _certificate(seed, exponents)
    if hit is None:
        rep = _structure_constant_report(seed, exponents)
        if rep.passed():
            raise AssertionError(
                f"cluster monomial routes disagree at seed history "
                f"{list(seed.history)}, exponents {list(exponents)}: the "
                f"certificate rejects, the structure constants give "
                f"{list(rep.label)} with q-power {rep.q_power}")
        return rep
    label, p = hit
    want = _sigma_exponent(seed, exponents)
    if 2 * p != want:
        raise AssertionError(
            f"q-power of the cluster monomial is not the sigma-invariant one "
            f"at seed history {list(seed.history)}, exponents "
            f"{list(exponents)}: 2p = {2 * p}, expected {want}")
    return ClusterMonomialReport(exponents, label, -p, "pass")


def reachable_seeds(preset, depth):
    """All seeds within the mutation depth, deduplicated by variable
    label-sets, in breadth-first order; plus the exchange log."""
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


def verify_conjecture(preset, depth, exp_bound, workers=1):
    """Walk the exchange graph to the depth, then normalize every
    cluster monomial with exponents up to the bound and test membership
    of its label in the crystal subset of the seed word.

    ``workers`` is accepted for API compatibility; the run is serial.
    """
    if depth < 0 or exp_bound < 0:
        raise ValueError(
            f"depth and exponent bound must be nonnegative, got {depth} "
            f"and {exp_bound}")
    seeds, log = reachable_seeds(preset, depth)
    ctx = seeds[0].context
    word = seeds[0].word
    name = preset if isinstance(preset, str) else ctx.datum.name

    jobs = []
    for s in seeds:
        for exps in itertools.product(range(exp_bound + 1),
                                      repeat=s.size()):
            jobs.append((s, exps))

    def run(job):
        s, exps = job
        rep = cluster_monomial(s, exps)
        if rep.passed() and not ctx.bw_contains(word, rep.label):
            rep = ClusterMonomialReport(
                exps, rep.label, rep.q_power,
                "fail: label outside the crystal subset of the word")
        return rep.to_json()

    results = [run(j) for j in jobs]

    dedup = {}
    for r in results:
        key = (tuple(r["exponents"]), tuple(r["label"] or ()),
               r["q_power"] if r["q_power"] is not None else 0, r["status"])
        dedup[key] = r
    monomials = [dedup[k] for k in sorted(dedup)]
    log_sorted = sorted(log, key=lambda e: (e["labels"], e["k"]))
    return {
        "preset": name,
        "depth": depth,
        "monomials": monomials,
        "exchange_log": log_sorted,
    }
