"""Symmetric Cartan data, root systems and Weyl group combinatorics.

Vertices are 1-based.  Root-lattice elements are plain int tuples in the
basis of simple roots; the symmetric bilinear form is given by the Cartan
matrix.  Only finite (positive definite) symmetric types are accepted.
"""

from __future__ import annotations

import json
from importlib import resources


class CartanDatum:
    """A graph with symmetric Cartan matrix a_ii = 2, a_ij = -#edges(i,j)."""

    def __init__(self, rank: int, edges, name: str = ""):
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        seen = set()
        for e in edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValueError(f"loop at vertex {i} not allowed")
            if not (1 <= i <= rank and 1 <= j <= rank):
                raise ValueError(f"edge {e} out of range for rank {rank}")
            a[i - 1][j - 1] -= 1
            a[j - 1][i - 1] -= 1
            seen.add(frozenset((i, j)))
        self.rank = rank
        self.name = name
        self.edges = tuple(tuple(sorted(s)) for s in sorted(seen, key=lambda s: sorted(s)))
        self.cartan = tuple(tuple(row) for row in a)
        if not _positive_definite(a):
            raise ValueError("Cartan matrix is not positive definite (not finite type)")
        self._proots = None

    # -- lattice operations

    def simple_root(self, i: int):
        self._check_vertex(i)
        return tuple(1 if k == i - 1 else 0 for k in range(self.rank))

    def bilinear(self, v, w) -> int:
        """Symmetric form (v, w) on the root lattice; (a_i, a_j) = cartan[i][j]."""
        a = self.cartan
        return sum(vi * sum(a[i][j] * w[j] for j in range(self.rank))
                   for i, vi in enumerate(v) if vi)

    def simple_reflection(self, i: int, v):
        self._check_vertex(i)
        pairing = sum(self.cartan[i - 1][j] * v[j] for j in range(self.rank))
        return tuple(v[k] - pairing if k == i - 1 else v[k]
                     for k in range(self.rank))

    def act(self, word, v):
        """Apply s_{i_1} s_{i_2} ... s_{i_k} to v, rightmost letter first."""
        for i in reversed(word):
            v = self.simple_reflection(i, v)
        return v

    # -- root system

    def positive_roots(self):
        """All positive roots, sorted by (height, coordinates)."""
        if self._proots is None:
            roots = {self.simple_root(i) for i in range(1, self.rank + 1)}
            frontier = set(roots)
            while frontier:
                new = set()
                for r in frontier:
                    for i in range(1, self.rank + 1):
                        s = self.simple_reflection(i, r)
                        if s not in roots and all(x >= 0 for x in s) and any(s):
                            new.add(s)
                roots |= new
                frontier = new
            self._proots = tuple(sorted(roots, key=lambda r: (sum(r), r)))
        return self._proots

    def _check_vertex(self, i):
        if not (1 <= i <= self.rank):
            raise ValueError(f"vertex {i} out of range 1..{self.rank}")

    # -- Weyl group

    def weyl_length(self, word) -> int:
        """Length of the element: positive roots sent to negative ones."""
        n = 0
        for r in self.positive_roots():
            img = self.act(word, r)
            if all(x <= 0 for x in img):
                n += 1
        return n

    def is_reduced(self, word) -> bool:
        for i in word:
            self._check_vertex(i)
        return self.weyl_length(word) == len(word)

    def inversion_sequence(self, word):
        """beta_p = s_{i_1}...s_{i_{p-1}}(alpha_{i_p}) for a reduced word."""
        if not self.is_reduced(word):
            raise ValueError(f"word {tuple(word)} is not reduced")
        out = []
        for p in range(len(word)):
            out.append(self.act(word[:p], self.simple_root(word[p])))
        return tuple(out)

    def _element_key(self, word):
        return tuple(self.act(word, self.simple_root(i))
                     for i in range(1, self.rank + 1))

    def weyl_elements(self):
        """One shortlex-minimal reduced word per Weyl group element (BFS)."""
        seen = {self._element_key(()): ()}
        layer = [()]
        out = [()]
        while layer:
            nxt = []
            for w in layer:
                for i in range(1, self.rank + 1):
                    w2 = w + (i,)
                    k = self._element_key(w2)
                    if k not in seen:
                        seen[k] = w2
                        nxt.append(w2)
                        out.append(w2)
            layer = nxt
        return out

    def weyl_order(self) -> int:
        return len(self.weyl_elements())

    def longest_word(self):
        """Lex-minimal reduced word for the longest element, built
        greedily: append the smallest letter i that keeps the word
        reduced, that is, with w(alpha_i) positive.  Every reduced word
        extends to one of w_0, so the greedy word is the lex-minimal one
        (the longest word of ``weyl_elements``) without the group BFS."""
        word = ()
        while True:
            for i in range(1, self.rank + 1):
                if any(x > 0 for x in self.act(word, self.simple_root(i))):
                    word += (i,)
                    break
            else:
                break
        if len(word) != len(self.positive_roots()):
            raise AssertionError("longest element length mismatch")
        return word

    def same_element(self, word1, word2) -> bool:
        return self._element_key(word1) == self._element_key(word2)

    def __repr__(self):
        tag = self.name or f"rank{self.rank}"
        return f"CartanDatum({tag}, edges={list(self.edges)})"


def _positive_definite(a) -> bool:
    """Sylvester's criterion by fraction-free elimination without row
    swaps: pivot k is the k-th leading principal minor, and each division
    by the previous pivot is exact."""
    m = [list(row) for row in a]
    n, prev = len(m), 1
    for k in range(n):
        piv = m[k][k]
        if piv <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (piv * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = piv
    return True


# ---------------------------------------------------------------------------
# presets

PRESET_NAMES = ("A2", "A3", "A4", "D4")


def load_preset(name: str) -> dict:
    """Load a bundled preset: datum, quiver orientation, longest word."""
    key = name.upper()
    if key not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    raw = resources.files("qbases.presets").joinpath(f"{key.lower()}.json").read_text()
    data = json.loads(raw)
    datum = CartanDatum(data["rank"], data["edges"], name=data["name"])
    word = tuple(data["longest_word"])
    if not datum.is_reduced(word) or len(word) != len(datum.positive_roots()):
        raise AssertionError(f"preset {name}: longest word invalid")
    orientation = tuple((int(a), int(b)) for a, b in data["orientation"])
    _check_orientation(datum, orientation)
    return {
        "name": data["name"],
        "datum": datum,
        "orientation": orientation,
        "longest_word": word,
    }


def _check_orientation(datum: CartanDatum, orientation):
    oriented = {frozenset(arrow) for arrow in orientation}
    expected = {frozenset(e) for e in datum.edges}
    if oriented != expected or len(orientation) != len(datum.edges):
        raise ValueError("orientation must pick one direction per edge")
