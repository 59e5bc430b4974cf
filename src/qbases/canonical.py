"""Canonical and dual canonical bases with their crystal structure.

Per weight space, the canonical basis is produced by the standard
bar-invariant unitriangular solve against the PBW basis of a globally
fixed reduced word of the longest element.  On top of the tables sit
crystal labels, Kashiwara and Saito operators, the subsets attached to
arbitrary Weyl group elements by two independent routes, dual bases
and the structure constants of the dual product, and the epsilon
dominance sets used as singular-support diagnostics.
"""

from .laurent import LaurentPoly, RatFunc, accumulate
from .wordalg import PAIRING_HEIGHT_CAP, TensorElement, WordElement
from .braid import pbw_monomial, root_vectors
from .pbwalg import get_context, pbw_indices

_R_ONE = RatFunc(1)


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


def _solve_bar_fixed(g):
    """The unique x in q Z[q] with x - bar(x) = g; g must have zero
    constant term and antisymmetric coefficients."""
    if g.coeff(0):
        raise AssertionError(
            f"bar recursion has a constant term: {g}")
    pos = {e: v for e, v in g.c.items() if e > 0}
    for e, v in pos.items():
        if g.coeff(-e) != -v:
            raise AssertionError(
                f"bar recursion not antisymmetric: {g}")
    return LaurentPoly(pos)


class CanonicalTable:
    """Per-weight basis data relative to the fixed reduced word.

    indices are in ascending lex order; transition holds the columns of
    b(c) over L(c') (unitriangular, off-diagonal in qZ[q]); dual_coords
    holds the PBW coordinates of the dual basis; canonical materializes
    the canonical elements as word elements.
    """

    def __init__(self, context, weight, indices, pbw_gram, transition):
        self.context = context
        self.weight = tuple(weight)
        self.indices = tuple(indices)
        self.pbw_gram = pbw_gram
        self.transition = transition
        self._place = {c: k for k, c in enumerate(indices)}
        self._canonical = None
        self._dual_coords = None

    @property
    def word(self):
        return self.context.word

    def canonical_coords(self, label):
        """PBW coordinate dict of b(label)."""
        col = self._place[tuple(label)]
        return {self.indices[d]: RatFunc(self.transition[d][col])
                for d in range(len(self.indices))
                if self.transition[d][col]}

    @property
    def canonical(self):
        """Canonical elements as word elements, in index order."""
        if self._canonical is None:
            ctx = self.context.ctx
            elems = []
            for c in self.indices:
                acc = WordElement.zero(self.context.datum)
                for d, v in self.canonical_coords(c).items():
                    acc = acc + ctx.monomial_word_element(d).scale(v)
                elems.append(acc)
            self._canonical = tuple(elems)
        return self._canonical

    @property
    def dual_coords(self):
        """Columns of b^up(c) over L(d): inverse-transpose of the
        transition against the diagonal Gram."""
        if self._dual_coords is None:
            dim = len(self.indices)
            # invert the lower unitriangular transition by forward
            # substitution; the inverse is again lower unitriangular
            inv = [[LaurentPoly.one() if a == b else LaurentPoly.zero()
                    for b in range(dim)] for a in range(dim)]
            for col in range(dim):
                for row in range(col + 1, dim):
                    acc = LaurentPoly.zero()
                    for mid in range(col, row):
                        if self.transition[row][mid] and inv[mid][col]:
                            acc = acc + self.transition[row][mid] * inv[mid][col]
                    inv[row][col] = -acc
            dual = [[(RatFunc(inv[b][a]) / self.pbw_gram[a][a]
                      if inv[b][a] else RatFunc(0))
                     for b in range(dim)] for a in range(dim)]
            self._dual_coords = dual
        return self._dual_coords

    def dual_coord_dict(self, label):
        col = self._place[tuple(label)]
        dual = self.dual_coords
        return {self.indices[d]: dual[d][col]
                for d in range(len(self.indices)) if dual[d][col]}

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


class EpsilonBoundSet:
    """Labels b' up to a height with eps_i(b') >= eps_i(b) for all i."""

    __slots__ = ("base", "height", "members")

    def __init__(self, base, height, members):
        self.base = tuple(base)
        self.height = height
        self.members = frozenset(tuple(m) for m in members)
        if self.base not in self.members:
            raise AssertionError("epsilon bound set must contain its base")

    def __contains__(self, label):
        return tuple(label) in self.members

    def __len__(self):
        return len(self.members)


class CanonicalContext:
    """Canonical-basis computations for one datum and one fixed reduced
    word of the longest element (the global labelling word)."""

    def __init__(self, datum, word=None):
        if word is None:
            word = datum.longest_word()
        self.datum = datum
        self.word = tuple(word)
        if len(self.word) != len(datum.positive_roots()):
            raise ValueError("labelling word must be a longest word")
        self.ctx = get_context(datum, self.word)
        self._tables = {}
        self._eps = {}
        self._star = {}
        self._bw = {}
        self._sc = {}
        self._steps = {}

    # -- labels

    def unit_label(self):
        return (0,) * len(self.word)

    def label_weight(self, label):
        return self.ctx.weight_of(label)

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
        dim = len(inds)
        place = {c: k for k, c in enumerate(inds)}
        # bar matrix: bar(L(c)) = sum_d M[d][c] L(d)
        bar_mat = [[LaurentPoly.zero()] * dim for _ in range(dim)]
        for ci, c in enumerate(inds):
            col = self.ctx.bar({c: _R_ONE})
            for d, v in col.items():
                if not v.is_laurent():
                    raise AssertionError(
                        f"bar transition not Laurent at {weight}: "
                        f"{c} -> {d}: {v}")
                di = place[d]
                if di < ci:
                    raise AssertionError(
                        f"bar transition not triangular at {weight}: "
                        f"bar L{c} hits lower index {d}")
                bar_mat[di][ci] = v.to_laurent()
            if not bar_mat[ci][ci].is_one():
                raise AssertionError(
                    f"bar transition diagonal is not 1 at {c}")
        # unitriangular bar-invariant columns:
        # P[d][c] - bar(P[d][c]) = sum_{c <= e < d} M[d][e] bar(P[e][c])
        trans = [[LaurentPoly.one() if a == b else LaurentPoly.zero()
                  for b in range(dim)] for a in range(dim)]
        for ci in range(dim):
            for di in range(ci + 1, dim):
                g = LaurentPoly.zero()
                for ei in range(ci, di):
                    if bar_mat[di][ei] and trans[ei][ci]:
                        g = g + bar_mat[di][ei] * trans[ei][ci].bar()
                kappa = _solve_bar_fixed(g)
                if kappa and min(kappa.c) < 1:
                    raise AssertionError(
                        f"canonical correction not in qZ[q]: {kappa}")
                trans[di][ci] = kappa
        # verify bar(b(c)) = b(c) exactly: M . bar(P) = P
        for ci in range(dim):
            for di in range(dim):
                acc = LaurentPoly.zero()
                for ei in range(dim):
                    if bar_mat[di][ei] and trans[ei][ci]:
                        acc = acc + bar_mat[di][ei] * trans[ei][ci].bar()
                if acc != trans[di][ci]:
                    raise AssertionError(
                        f"canonical element not bar invariant at "
                        f"{weight}, column {inds[ci]}")
        table = CanonicalTable(self, weight, inds, gram, trans)
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

    def _crystal_step_label(self, coords):
        """Label of a crystal operator output, or None for crystal zero;
        the representative must be congruent to a basis vector."""
        if not coords:
            return None
        at_zero = {}
        for c, v in coords.items():
            if not v.regular_at_zero():
                raise AssertionError("crystal step left the lattice")
            a = v.at_zero()
            if a:
                at_zero[c] = a
        if not at_zero:
            return None
        if len(at_zero) != 1 or set(at_zero.values()) != {1}:
            raise AssertionError(
                f"crystal step not congruent to a basis vector: {at_zero}")
        return next(iter(at_zero))

    # -- crystal operators on labels

    def ftilde(self, i, label):
        key = ("f", i, tuple(label))
        hit = self._steps.get(key)
        if hit is None:
            out = self.ctx.ftilde(i, {tuple(label): _R_ONE})
            hit = self._crystal_step_label(out)
            if hit is None:
                raise AssertionError("ftilde vanished on a crystal element")
            self._steps[key] = hit
        return hit

    def etilde(self, i, label):
        key = ("e", i, tuple(label))
        if key not in self._steps:
            out = self.ctx.etilde(i, {tuple(label): _R_ONE})
            self._steps[key] = self._crystal_step_label(out)
        return self._steps[key]

    def epsilon(self, i, label):
        """Crystal epsilon: successful etilde steps from the label."""
        key = (i, tuple(label))
        hit = self._eps.get(key)
        if hit is None:
            count = 0
            cur = tuple(label)
            while True:
                cur = self.etilde(i, cur)
                if cur is None:
                    break
                count += 1
            hit = self._eps[key] = count
        return hit

    def phi(self, i, label):
        """phi_i = eps_i + <h_i, wt>; wt is minus the content."""
        content = self.label_weight(label)
        pair = self.datum.bilinear(self.datum.simple_root(i), content)
        return self.epsilon(i, label) - pair

    def star(self, label):
        key = tuple(label)
        hit = self._star.get(key)
        if hit is None:
            out = self.ctx.star({key: _R_ONE})
            hit = self._crystal_step_label(out)
            if hit is None:
                raise AssertionError("star vanished on a crystal element")
            self._star[key] = hit
        return hit

    def epsilon_star(self, i, label):
        return self.epsilon(i, self.star(label))

    def phi_star(self, i, label):
        content = self.label_weight(label)
        pair = self.datum.bilinear(self.datum.simple_root(i), content)
        return self.epsilon_star(i, label) - pair

    def ftilde_star(self, i, label):
        return self.star(self.ftilde(i, self.star(label)))

    def etilde_star(self, i, label):
        out = self.etilde(i, self.star(label))
        return None if out is None else self.star(out)

    # -- Saito reflections

    def saito_reflection(self, i, label, direction="forward"):
        """Saito's crystal reflection:
        forward  (f*_i)^(phi_i) (e_i)^(eps_i) on {eps*_i = 0},
        inverse  (f_i)^(phi*_i) (e*_i)^(eps*_i) on {eps_i = 0}."""
        label = tuple(label)
        if direction == "forward":
            es = self.epsilon_star(i, label)
            if es:
                raise ValueError(
                    f"saito reflection needs epsilon*_{i}(b) = 0, got {es}")
            steps = self.epsilon(i, label)
            power = self.phi(i, label)
            if power < 0:
                raise AssertionError(
                    f"negative phi_{i} = {power} inside a saito reflection")
            cur = label
            for _ in range(steps):
                cur = self.etilde(i, cur)
            for _ in range(power):
                cur = self.ftilde_star(i, cur)
            return cur
        if direction == "inverse":
            ev = self.epsilon(i, label)
            if ev:
                raise ValueError(
                    f"inverse saito reflection needs epsilon_{i}(b) = 0, "
                    f"got {ev}")
            steps = self.epsilon_star(i, label)
            power = self.phi_star(i, label)
            if power < 0:
                raise AssertionError(
                    f"negative phi*_{i} = {power} inside a saito reflection")
            cur = label
            for _ in range(steps):
                cur = self.etilde_star(i, cur)
            for _ in range(power):
                cur = self.ftilde(i, cur)
            return cur
        raise ValueError(f"unknown direction {direction!r}")

    # -- members attached to a Weyl group element, two routes

    def bw_members_pbw(self, word, height):
        """Labels of the PBW monomials supported on the word, through
        braid-built root vectors and identification."""
        word = tuple(word)
        if not self.datum.is_reduced(word):
            raise ValueError(f"word {word} is not reduced")
        vectors = root_vectors(self.datum, word)
        out = set()
        for wt in weights_up_to_height(self.datum.rank, height):
            for c in pbw_indices(self.datum, word, wt):
                x = pbw_monomial(self.datum, word, c, vectors=vectors)
                label, _ = self.identify(x)
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
        usable at any height (nothing is enumerated)."""
        word = tuple(word)
        if not self.datum.is_reduced(word):
            raise ValueError(f"word {word} is not reduced")
        return self._bw_member(word, tuple(label))

    def _bw_member(self, word, label):
        key = (word, label)
        hit = self._bw.get(key)
        if hit is None:
            if not word:
                hit = label == self.unit_label()
            else:
                i = word[0]
                cur = label
                for _ in range(self.epsilon(i, label)):
                    cur = self.etilde(i, cur)
                source = self.saito_reflection(i, cur, "inverse")
                if self.epsilon_star(i, source):
                    raise AssertionError(
                        "inverse saito reflection left its codomain")
                hit = self._bw_member(word[1:], source)
            self._bw[key] = hit
        return hit

    # -- epsilon dominance diagnostics

    def epsilon_bound_set(self, label, height):
        label = tuple(label)
        if sum(self.label_weight(label)) > height:
            raise ValueError("height bound below the base label")
        base = [self.epsilon(i, label)
                for i in range(1, self.datum.rank + 1)]
        members = []
        for cand in self.labels_up_to_height(height):
            if all(self.epsilon(i, cand) >= base[i - 1]
                   for i in range(1, self.datum.rank + 1)):
                members.append(cand)
        return EpsilonBoundSet(label, height, members)

    # -- dual basis and structure constants

    def dual_basis(self, weight):
        """Dual canonical elements of the weight as DualElements, in
        index order (their own coordinates are unit vectors)."""
        table = self._table(weight)
        return [DualElement(weight, {c: LaurentPoly.one()})
                for c in table.indices]

    def dual_pbw_coords(self, label):
        table = self._table(self.label_weight(label))
        return table.dual_coord_dict(label)

    def expand_dual(self, coords):
        """Expansion of a PBW coordinate dict in the dual canonical
        basis: the coefficient of b^up(d) is the pairing against b(d)."""
        weight = self.ctx.element_weight(coords)
        if weight is None:
            return DualElement((0,) * self.datum.rank, {})
        table = self._table(weight)
        out = {}
        for d in table.indices:
            val = self.ctx.pairing(coords, table.canonical_coords(d))
            if val:
                if not val.is_laurent():
                    raise AssertionError(
                        f"dual expansion not Laurent at {d}: {val}")
                out[d] = val.to_laurent()
        return DualElement(weight, out)

    def structure_constants(self, label1, label2):
        """r^{b1,b2}_{b3}: the expansion of b1^up b2^up in the dual
        canonical basis."""
        key = (tuple(label1), tuple(label2))
        hit = self._sc.get(key)
        if hit is None:
            prod = self.ctx.mul(self.dual_pbw_coords(label1),
                                self.dual_pbw_coords(label2))
            hit = self._sc[key] = self.expand_dual(prod).coords
        return dict(hit)

    def structure_constants_via_coproduct(self, label1, label2):
        """The same constants read from the twisted coproduct of each
        b3: the coefficient of b1 (x) b2 in r(b3).  Independent route;
        word-level, so product heights must stay small."""
        w1 = self.label_weight(label1)
        w2 = self.label_weight(label2)
        weight = tuple(a + b for a, b in zip(w1, w2))
        dual1 = self._dual_word_element(label1)
        dual2 = self._dual_word_element(label2)
        probe = TensorElement(
            self.datum,
            {(u, v): cu * cv
             for u, cu in dual1.terms.items()
             for v, cv in dual2.terms.items()})
        out = {}
        for c3 in self._table(weight).indices:
            b3 = self.canonical_word_element(c3)
            val = b3.coproduct().pairing(probe)
            if val:
                if not val.is_laurent():
                    raise AssertionError(
                        f"structure constant not Laurent at {c3}: {val}")
                out[c3] = val.to_laurent()
        return out

    def _dual_word_element(self, label):
        acc = WordElement.zero(self.datum)
        for d, v in self.dual_pbw_coords(label).items():
            acc = acc + self.ctx.monomial_word_element(d).scale(v)
        return acc


_CANONICAL = {}


def get_canonical(datum, word=None):
    """Shared CanonicalContext per (datum, labelling word)."""
    word = tuple(word) if word is not None else datum.longest_word()
    key = (datum.cartan, word)
    ctxt = _CANONICAL.get(key)
    if ctxt is None:
        ctxt = _CANONICAL[key] = CanonicalContext(datum, word)
    return ctxt
