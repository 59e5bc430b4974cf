"""Canonical and dual canonical bases with their crystal structure.

Per weight space, the canonical basis is produced by the standard
bar-invariant unitriangular solve against the PBW basis of a globally
fixed reduced word of the longest element.  The labels are Lusztig
data along that word; the crystal on them (Kashiwara and Saito
operators) is integer combinatorics: a label is moved to another
reduced word by Lusztig's braid-move transport, changed there (a
whole crystal string at once) and moved back.  On top of these sit the subsets attached to arbitrary
Weyl group elements by two independent routes, the dual canonical
basis and the structure constants of the dual product, and the
epsilon dominance sets used as singular-support diagnostics.
The dual side has one coordinate system over Z[q, q^-1], the dual PBW
basis E*(d) = L(d) / (L(d), L(d)): products are ``PBWContext.dual_mul``
and the transition reads the result back in the dual canonical basis.
"""

from .laurent import LaurentPoly, RatFunc, accumulate
from .wordalg import PAIRING_HEIGHT_CAP, WordElement
from .braid import pbw_monomial, root_vectors
from .pbwalg import get_context, pbw_indices


def weights_up_to_height(rank, height):
    """All nonnegative weight vectors of height <= height, by height
    then lex; deterministic enumeration order."""
    out = []

    def extend(prefix, budget):
        if len(prefix) == rank:
            out.append(tuple(prefix))
            return
        for v in range(budget + 1):
            extend(prefix + [v], budget - v)

    extend([], height)
    out.sort(key=lambda v: (sum(v), v))
    return tuple(out)


def braid_moves(datum, word):
    """(k, span, new word) for each braid move of the word: a 2-move
    (span 2) swaps commuting letters at k, k+1; a 3-move (span 3) sends
    (i, j, i) at k..k+2 to (j, i, j) when a_ij = -1."""
    a = datum.cartan
    out = []
    for k in range(len(word) - 1):
        i, j = word[k], word[k + 1]
        if a[i - 1][j - 1] == 0:
            out.append((k, 2, word[:k] + (j, i) + word[k + 2:]))
        elif (a[i - 1][j - 1] == -1 and k + 2 < len(word)
              and word[k + 2] == i):
            out.append((k, 3, word[:k] + (j, i, j) + word[k + 3:]))
    return out


def reduced_word_paths(datum, word):
    """Every word reachable from the reduced word by braid moves (all its
    reduced words, by Matsumoto's theorem), breadth first, each mapped to
    the moves (k, span) of a shortest path from the word."""
    word = tuple(word)
    paths = {word: ()}
    layer = [word]
    while layer:
        nxt = []
        for w in layer:
            for k, span, w2 in braid_moves(datum, w):
                if w2 not in paths:
                    paths[w2] = paths[w] + ((k, span),)
                    nxt.append(w2)
        layer = nxt
    return paths


def move_label(label, k, span):
    """Lusztig's transport of a PBW label (a list, changed in place)
    across the braid move at k: a 2-move swaps the two coordinates, a
    3-move sends (a, b, c) to (b + c - m, m, a + b - m), m = min(a, c).
    Both are involutions."""
    if span == 2:
        label[k], label[k + 1] = label[k + 1], label[k]
    else:
        a, b, c = label[k:k + 3]
        m = min(a, c)
        label[k:k + 3] = (b + c - m, m, a + b - m)


def _move(label, path):
    """Apply the moves of a path to a label list; the moves are
    involutions, so reversed(path) undoes it."""
    for k, span in path:
        move_label(label, k, span)
    return label


def _solve_bar_fixed(g):
    """The unique x in q Z[q] with x - bar(x) = g; g must have zero
    constant term and antisymmetric coefficients."""
    if g.coeff(0):
        raise AssertionError(
            f"bar recursion has a constant term: {g}")
    for e, v in g.c.items():
        if g.coeff(-e) != -v:
            raise AssertionError(
                f"bar recursion not antisymmetric: {g}")
    return LaurentPoly({e: v for e, v in g.c.items() if e > 0})


class CanonicalTable:
    """Per-weight basis data relative to the fixed reduced word.

    indices are in ascending lex order; columns[k] is the sparse column
    {d: P[d][c]} of b(c) = sum_d P[d][c] L(d), c = indices[k]
    (unitriangular, off-diagonal in qZ[q]), and transition the same
    matrix dense; b^up(c) is row c of P^-1 over the dual PBW basis
    E*(d) = L(d) / (L(d), L(d)), since (b(c'), b^up(c)) = delta and
    (L(d'), E*(d)) = delta; canonical materializes the canonical
    elements as word elements.
    """

    def __init__(self, context, weight, indices, pbw_gram, columns):
        self.context = context
        self.weight = tuple(weight)
        self.indices = tuple(indices)
        self.pbw_gram = pbw_gram
        self.columns = columns
        zero = LaurentPoly.zero()
        self.transition = [[col.get(d, zero) for col in columns]
                           for d in self.indices]
        self._place = {c: k for k, c in enumerate(self.indices)}
        self._canonical = None
        self._dual_rows = None

    @property
    def word(self):
        return self.context.word

    def canonical_coords(self, label):
        """PBW coordinate dict of b(label)."""
        return {d: RatFunc(v)
                for d, v in self.columns[self._place[tuple(label)]].items()}

    @property
    def canonical(self):
        """Canonical elements as word elements, in index order."""
        if self._canonical is None:
            self._canonical = tuple(
                WordElement(self.context.datum, terms) for terms
                in self.context.ctx.word_expansions(self.weight, self.columns))
        return self._canonical

    def dual_transition_dict(self, label):
        """{d: LaurentPoly} coordinates of b^up(label) over E*(d): row
        label of P^-1, Laurent and lower unitriangular.  The first call
        builds every row, inverting P column by column by forward
        substitution: h holds P times the inverse's column so far, and
        each entry is the one that clears h at its index."""
        if self._dual_rows is None:
            rows = [{} for _ in self.indices]
            for k, c in enumerate(self.indices):
                rows[k][c] = LaurentPoly.one()
                h = dict(self.columns[k])
                for m in range(k + 1, len(self.indices)):
                    x = h.get(self.indices[m])
                    if x is not None:
                        rows[m][c] = x = -x
                        accumulate(h, self.columns[m], x)
            self._dual_rows = rows
        return dict(self._dual_rows[self._place[tuple(label)]])

    def to_json(self):
        return {
            "type": self.context.datum.name,
            "word": list(self.word),
            "weight": list(self.weight),
            "pbw_gram": [[v.to_json() for v in row]
                         for row in self.pbw_gram],
            "transition": [[v.to_json() for v in row]
                           for row in self.transition],
            "canonical": [x.to_json() for x in self.canonical],
        }


class DualElement:
    """An element written in the dual canonical basis."""

    __slots__ = ("weight", "coords")

    def __init__(self, weight, coords):
        self.weight = tuple(weight)
        self.coords = {tuple(k): v for k, v in coords.items() if v}

    def __eq__(self, other):
        return (isinstance(other, DualElement)
                and self.weight == other.weight
                and self.coords == other.coords)

    def __repr__(self):
        return f"DualElement({self.weight}, {self.coords})"


class CanonicalContext:
    """Canonical-basis computations for one datum and one fixed reduced
    word of the longest element (the global labelling word)."""

    def __init__(self, datum, word):
        self.datum = datum
        self.word = tuple(word)
        if len(self.word) != len(datum.positive_roots()):
            raise ValueError("labelling word must be a longest word")
        self.ctx = get_context(datum, self.word)
        self._tables = {}
        self._bw = {}
        self._sc = {}
        # E*-coordinates of ordered products of dual canonical elements,
        # keyed by their (label, exponent) factors (cluster._ordered_product)
        self._products = {}
        # quasi_commutation's verdict per ordered label pair: lam, or the
        # ValueError that refused the pair (cluster.quasi_commutation)
        self._commutes = {}
        # the form (w_k, w_l) per ordered weight pair (QuantumSeed.forms)
        self._forms = {}
        # words bw_contains has found reduced
        self._reduced = set()
        # star of each label, filled by _star
        self._stars = {}
        self._paths = self._first = self._star_path = None
        self._alpha = {i: datum.simple_root(i)
                       for i in range(1, datum.rank + 1)}

    # -- labels

    def unit_label(self):
        return (0,) * len(self.word)

    def label_weight(self, label):
        return self.ctx.weight_of(self._check_label(label))

    def _check_label(self, label):
        """The label as a tuple; ValueError naming it unless it has one
        nonnegative integer per letter of the labelling word."""
        label = tuple(label)
        if len(label) != len(self.word) or any(
                not isinstance(m, int) or m < 0 for m in label):
            raise ValueError(f"label {label} is not a Lusztig datum of "
                             f"length {len(self.word)}")
        return label

    def labels_of_weight(self, weight):
        return self.ctx.indices(weight)

    def labels_up_to_height(self, height):
        out = []
        for wt in weights_up_to_height(self.datum.rank, height):
            out.extend(self.ctx.indices(wt))
        return tuple(out)

    # -- canonical tables

    def _table(self, weight):
        """Bar-invariant unitriangular solve at one weight (cached)."""
        weight = tuple(weight)
        table = self._tables.get(weight)
        if table is not None:
            return table
        inds, gram = self.ctx.gram(weight)
        place = {c: k for k, c in enumerate(inds)}
        one = LaurentPoly.one()
        # bar(L(e)) = sum_d M[d][e] L(d), one sparse column per e
        bars = [self.ctx.bar({c: one}) for c in inds]
        for k, (c, col) in enumerate(zip(inds, bars)):
            for d in col:
                if place[d] < k:
                    raise AssertionError(
                        f"bar transition not triangular at {weight}: "
                        f"bar L{c} hits lower index {d}")
            if c not in col or not col[c].is_one():
                raise AssertionError(
                    f"bar transition diagonal is not 1 at {c}")
        # b(c) = sum_d P[d][c] L(d) is bar invariant when
        # P[d][c] = sum_{c <= e <= d} M[d][e] bar(P[e][c]).  Ascending d,
        # g holds sum_e M[.][e] bar(P[e][c]) over the e below d, so
        # P[d][c] - bar(P[d][c]) = g[d]; pushing bar(P[d][c]) M[.][d]
        # leaves g[d] = P[d][c], and g = M bar(P) on the whole column
        columns = []
        for k, c in enumerate(inds):
            col, g = {c: one}, dict(bars[k])
            for m in range(k + 1, len(inds)):
                kappa = _solve_bar_fixed(g.get(inds[m], LaurentPoly.zero()))
                if kappa:
                    # positivity (Kato, Duke 2014): qN[q], not just qZ[q]
                    if min(kappa.c) < 1 or min(kappa.c.values()) < 0:
                        raise AssertionError(
                            f"canonical correction not in qN[q] at weight "
                            f"{weight}, row {inds[m]}, column {c}: {kappa}")
                    col[inds[m]] = kappa
                    accumulate(g, bars[m], kappa.bar())
            if g != col:
                raise AssertionError(
                    f"canonical element not bar invariant at "
                    f"{weight}, column {c}")
            columns.append(col)
        table = CanonicalTable(self, weight, inds, gram, columns)
        self._tables[weight] = table
        return table

    def canonical_basis(self, weight):
        """The CanonicalTable of the weight, with word elements
        materialized (so the weight must sit below the word-level
        height cap)."""
        if sum(weight) > PAIRING_HEIGHT_CAP:
            raise ValueError(
                f"weight height {sum(weight)} exceeds the word-level cap "
                f"{PAIRING_HEIGHT_CAP}")
        table = self._table(weight)
        _ = table.canonical
        return table

    def canonical_coords(self, label):
        return self._table(self.label_weight(label)).canonical_coords(label)

    def canonical_word_element(self, label):
        table = self._table(self.label_weight(label))
        return table.canonical[table._place[tuple(label)]]

    # -- identification modulo q times the lattice

    def identify_coords(self, coords):
        """(label, remainder) of a PBW coordinate dict congruent to a
        canonical basis vector modulo q L(infinity)."""
        if not coords:
            raise ValueError("not congruent to a basis vector")
        at_zero = {}
        for c, v in coords.items():
            if not v.regular_at_zero():
                raise ValueError("not a lattice element")
            a = v.at_zero()
            if a:
                at_zero[c] = a
        if len(at_zero) != 1 or set(at_zero.values()) != {1}:
            raise ValueError("not congruent to a basis vector")
        label = next(iter(at_zero))
        remainder = accumulate(dict(coords),
                               self.canonical_coords(label), RatFunc(-1))
        return label, remainder

    def identify(self, x):
        """(label, remainder) of a word element; the remainder is
        x - b(label), with PBW coordinates in q Z[q]."""
        coords = self.ctx.coords_of_word_element(x)
        label, _ = self.identify_coords(coords)
        return label, x - self.canonical_word_element(label)

    # -- crystal operators on labels, by transport between reduced words

    def _words(self):
        """Move paths from the labelling word to every reduced word of
        the longest element (built on the first crystal call), with the
        path to one word starting with each letter and the path to the
        -w0-twisted reversed word (i_N*, ..., i_1*)."""
        if self._paths is None:
            datum = self.datum
            paths = reduced_word_paths(datum, self.word)
            first = {}
            for w, path in paths.items():
                first.setdefault(w[0], path)
            # w0(alpha_i) = -alpha_{i*}
            w0 = self.word
            twist = {i: datum.act(w0, datum.simple_root(i)).index(-1) + 1
                     for i in range(1, datum.rank + 1)}
            self._first = first
            self._star_path = paths[tuple(twist[i] for i in reversed(w0))]
            self._paths = paths
        return self._paths

    def transport(self, label, word):
        """The label of the same canonical basis element in the PBW
        parametrization of another reduced word of the longest element."""
        path = self._words().get(tuple(word))
        if path is None:
            raise ValueError(
                f"word {tuple(word)} is not a reduced word of the longest "
                f"element")
        return tuple(_move(list(self._check_label(label)), path))

    # The public operators check the label once, at entry; the routines
    # with a leading underscore take a checked tuple and call only each
    # other.

    def _crystal_step(self, i, label, delta):
        """etilde_i (delta -1) or ftilde_i (delta +1) on a checked label:
        shift the first coordinate along a word starting with i, then
        move back."""
        self._words()
        path = self._first[i]
        moved = _move(list(label), path)
        if moved[0] + delta < 0:
            return None
        moved[0] += delta
        out = tuple(_move(moved, reversed(path)))
        expect = tuple(w + delta * a for w, a in
                       zip(self.ctx.weight_of(label), self._alpha[i]))
        if self.ctx.weight_of(out) != expect:
            raise AssertionError(
                f"crystal step {delta:+d} at i = {i} on label "
                f"{tuple(label)} changed the weight wrongly: {out}")
        return out

    def ftilde(self, i, label):
        return self._crystal_step(i, self._check_label(label), 1)

    def etilde(self, i, label):
        return self._crystal_step(i, self._check_label(label), -1)

    def epsilon(self, i, label):
        """Crystal epsilon: the first coordinate of the label along a
        reduced word of the longest element that starts with i."""
        return self._epsilon(i, self._check_label(label))

    def _epsilon(self, i, label):
        self._words()
        return _move(list(label), self._first[i])[0]

    def phi(self, i, label):
        """phi_i = eps_i + <h_i, wt>; wt is minus the content."""
        return self._phi(i, self._check_label(label))

    def _phi(self, i, label):
        pair = self.datum.bilinear(self.datum.simple_root(i),
                                   self.ctx.weight_of(label))
        return self._epsilon(i, label) - pair

    def star(self, label):
        """Kashiwara's involution: the reversed label, read along the
        -w0-twisted reversed word and moved back to the labelling word."""
        return self._star(self._check_label(label))

    def _star(self, label):
        hit = self._stars.get(label)
        if hit is None:
            self._words()
            hit = self._stars[label] = tuple(
                _move(list(reversed(label)), reversed(self._star_path)))
        return hit

    def epsilon_star(self, i, label):
        return self._epsilon(i, self.star(label))

    def phi_star(self, i, label):
        """phi*_i(b) = phi_i(b*): star swaps eps with eps* and keeps the
        weight."""
        return self._phi(i, self.star(label))

    def ftilde_star(self, i, label):
        return self._star(self._crystal_step(i, self.star(label), 1))

    def etilde_star(self, i, label):
        out = self._crystal_step(i, self.star(label), -1)
        return None if out is None else self._star(out)

    # -- Saito reflections

    def saito_reflection(self, i, label, direction="forward"):
        """Saito's crystal reflection:
        forward  (f*_i)^(phi_i) (e_i)^(eps_i) on {eps*_i = 0},
        inverse  (f_i)^(phi*_i) (e*_i)^(eps*_i) on {eps_i = 0}, which is
        star, then forward, then star.  Each string is one crystal step
        by its length."""
        return self._saito(i, self._check_label(label), direction)

    def _saito(self, i, label, direction):
        if direction == "forward":
            es = self._epsilon(i, self._star(label))
            if es:
                raise ValueError(
                    f"saito reflection needs epsilon*_{i}(b) = 0, got {es}")
            return self._star(self._saito_core(i, label))
        if direction == "inverse":
            ev = self._epsilon(i, label)
            if ev:
                raise ValueError(
                    f"inverse saito reflection needs epsilon_{i}(b) = 0, "
                    f"got {ev}")
            # star swaps eps with eps* and e with e*, so the inverse is
            # the forward reflection conjugated by star: star(forward(b*))
            # is the core on b*, and its closing star cancels
            return self._saito_core(i, self._star(label))
        raise ValueError(f"unknown direction {direction!r}")

    def _saito_core(self, i, label):
        """(f_i)^(phi_i) star (e_i)^(eps_i) on a checked label: the forward
        reflection before its closing star, since f*_i = star f_i star."""
        steps = self._epsilon(i, label)
        power = self._phi(i, label)
        if power < 0:
            raise AssertionError(
                f"negative phi_{i} = {power} inside a saito reflection")
        cur = self._star(self._crystal_step(i, label, -steps)
                         if steps else label)
        return self._crystal_step(i, cur, power) if power else cur

    # -- members attached to a Weyl group element, two routes

    def bw_members_pbw(self, word, height):
        """Labels of the PBW monomials supported on the word, through
        braid-built root vectors and identification."""
        word = tuple(word)
        roots = self.datum.inversion_sequence(word)
        vectors = root_vectors(self.datum, word)
        out, suffixes = set(), {}
        for wt in weights_up_to_height(self.datum.rank, height):
            for c in pbw_indices(roots, wt, suffixes):
                x = pbw_monomial(self.datum, word, c, vectors=vectors)
                label, _ = self.identify_coords(
                    self.ctx.coords_of_word_element(x))
                out.add(label)
        return frozenset(out)

    def bw_members_crystal(self, word, height):
        """The same subset with no braid operators: recursion on the
        length through the Saito bijection
        {b in B(w'), eps*_i = 0} -> {b in B(w), eps_i = 0}, i the first
        letter, plus closure under etilde_i and ftilde_i."""
        word = tuple(word)
        if not self.datum.is_reduced(word):
            raise ValueError(f"word {word} is not reduced")
        return frozenset(c for c in self.labels_up_to_height(height)
                         if self._bw_member(word, c))

    def bw_contains(self, word, label):
        """Per-label membership test for the word's subset of the crystal,
        usable at any height (nothing is enumerated); each word is tested
        for reducedness once per context."""
        word = tuple(word)
        if word not in self._reduced:
            if not self.datum.is_reduced(word):
                raise ValueError(f"word {word} is not reduced")
            self._reduced.add(word)
        return self._bw_member(word, self._check_label(label))

    def _bw_member(self, word, label):
        key = (word, label)
        hit = self._bw.get(key)
        if hit is None:
            if not word:
                hit = label == self.unit_label()
            else:
                i = word[0]
                steps = self._epsilon(i, label)
                cur = self._crystal_step(i, label, -steps) if steps else label
                source = self._saito(i, cur, "inverse")
                if self._epsilon(i, self._star(source)):
                    raise AssertionError(
                        "inverse saito reflection left its codomain")
                hit = self._bw_member(word[1:], source)
            self._bw[key] = hit
        return hit

    # -- epsilon dominance diagnostics

    def epsilon_bound_set(self, label, height):
        """Labels b' up to the height with eps_i(b') >= eps_i(label) for
        all i, as a frozenset of tuples."""
        label = self._check_label(label)
        if sum(self.ctx.weight_of(label)) > height:
            raise ValueError("height bound below the base label")
        rng = range(1, self.datum.rank + 1)
        base = [self._epsilon(i, label) for i in rng]
        members = frozenset(
            c for c in self.labels_up_to_height(height)
            if all(self._epsilon(i, c) >= base[i - 1] for i in rng))
        if label not in members:
            raise AssertionError("epsilon bound set must contain its base")
        return members

    # -- dual basis and structure constants

    def dual_basis(self, weight):
        """Dual canonical elements of the weight as DualElements, in
        index order (their own coordinates are unit vectors)."""
        table = self._table(weight)
        return [DualElement(weight, {c: LaurentPoly.one()})
                for c in table.indices]

    def dual_estar_coords(self, label):
        """b^up(label) over E*(d) = L(d) / (L(d), L(d)), with LaurentPoly
        coefficients; multiply these with ``PBWContext.dual_mul``."""
        table = self._table(self.label_weight(label))
        return table.dual_transition_dict(label)

    def expand_dual(self, coords):
        """Expansion of E*-coordinates (a dict of LaurentPoly over
        E*(e)) in the dual canonical basis: the coefficient of b^up(d) is
        the pairing against b(d) = sum_e P[e][d] L(e), which is
        sum_e x_e P[e][d] since (E*(e), L(e')) = delta."""
        weight = self.ctx.element_weight(coords)
        if weight is None:
            return DualElement((0,) * self.datum.rank, {})
        table = self._table(weight)
        rows = [(table.transition[table._place[e]], x)
                for e, x in coords.items()]
        out = {}
        for j, d in enumerate(table.indices):
            val = sum((x * row[j] for row, x in rows if row[j]),
                      LaurentPoly.zero())
            if val:
                out[d] = val
        return DualElement(weight, out)

    def structure_constants(self, label1, label2):
        """r^{b1,b2}_{b3}: the expansion of b1^up b2^up in the dual
        canonical basis, multiplied on E*-coordinates."""
        key = (tuple(label1), tuple(label2))
        hit = self._sc.get(key)
        if hit is None:
            prod = self.ctx.dual_mul(self.dual_estar_coords(label1),
                                     self.dual_estar_coords(label2))
            hit = self._sc[key] = self.expand_dual(prod).coords
        return dict(hit)


_CANONICAL = {}


def get_canonical(datum, word=None):
    """Shared CanonicalContext per (datum, labelling word); the word
    defaults to the greedy datum.longest_word(), not the preset's."""
    word = tuple(word) if word is not None else datum.longest_word()
    key = (datum.cartan, word)
    ctxt = _CANONICAL.get(key)
    if ctxt is None:
        ctxt = _CANONICAL[key] = CanonicalContext(datum, word)
    return ctxt
