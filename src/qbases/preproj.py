"""Nilpotent representations of the preprojective algebra at desk scale.

Modules are matrix tuples over Q for the doubled quiver, subject to the
moment-map relations and nilpotency.  Everything here is exact linear
algebra: Hom spaces by solving intertwiner equations, Ext^1 through the
homological dimension formula, rigidity and open-orbit tests, exhaustive
enumeration of isomorphism classes for the representation-finite
presets, and mutation of maximal rigid collections via minimal left
approximations with both exchange sequences validated.
"""

import itertools
import random
from fractions import Fraction

from .linalg import inverse, nullspace, rank, rref
from .quiver import load_preset

_F0 = Fraction(0)
_F1 = Fraction(1)

# enumeration stays exhaustive only on representation-finite presets,
# and only below these per-vertex dimension bounds
ENUM_BOUNDS = {"A2": (2, 2), "A3": (1, 1, 1), "A4": (1, 1, 1, 1)}


def _zeros(r, c):
    return tuple((_F0,) * c for _ in range(r))


def _freeze(mat):
    return tuple(tuple(Fraction(x) for x in row) for row in mat)


def _mat_mul(a, b):
    if not a or not b:
        return ()
    return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(len(b))), _F0)
                       for j in range(len(b[0]))) for i in range(len(a)))


def _mat_add(a, b, sign=1):
    return tuple(tuple(x + sign * y for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def _is_zero_mat(a):
    return all(not x for row in a for x in row)


def double_arrows(orientation):
    """All arrows of the doubled quiver, oriented edges first."""
    fwd = [tuple(h) for h in orientation]
    return tuple(fwd + [(b, a) for a, b in fwd])


class PreprojModule:
    """A representation of the doubled quiver with rational matrices.

    The matrix for the arrow a -> b maps V_a to V_b and has shape
    (dim_b, dim_a).  Missing arrows are zero.  Whether the moment-map
    relations and nilpotency actually hold is a separate check
    (is_module), so that near-misses can be inspected.
    """

    __slots__ = ("datum", "orientation", "dim", "arrows")

    def __init__(self, datum, orientation, dim, arrows=None):
        self.datum = datum
        self.orientation = tuple(tuple(h) for h in orientation)
        self.dim = tuple(int(d) for d in dim)
        if len(self.dim) != datum.rank or any(d < 0 for d in self.dim):
            raise ValueError(f"bad dimension vector {dim}")
        full = {}
        arrows = dict(arrows or {})
        for h in double_arrows(self.orientation):
            a, b = h
            shape = (self.dim[b - 1], self.dim[a - 1])
            mat = arrows.pop(h, None)
            if mat is None:
                full[h] = _zeros(*shape)
                continue
            mat = _freeze(mat)
            rows = len(mat)
            cols = len(mat[0]) if mat else 0
            if (rows, cols) != shape and not (shape[0] == 0 or shape[1] == 0):
                raise ValueError(
                    f"arrow {a}->{b} has shape {(rows, cols)}, "
                    f"expected {shape}")
            if shape[0] == 0 or shape[1] == 0:
                mat = _zeros(*shape)
            full[h] = mat
        if arrows:
            raise ValueError(f"unknown arrows {sorted(arrows)}")
        self.arrows = full

    def total_dim(self):
        return sum(self.dim)

    def arrow(self, a, b):
        return self.arrows[(a, b)]

    def __eq__(self, other):
        return (isinstance(other, PreprojModule)
                and self.dim == other.dim and self.arrows == other.arrows)

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self.arrows.items()))))

    def __repr__(self):
        live = {h: m for h, m in self.arrows.items()
                if not _is_zero_mat(m)}
        return f"PreprojModule(dim={self.dim}, arrows={live})"

    def to_json(self):
        return {
            "dim": list(self.dim),
            "arrows": {f"{a}->{b}": [[str(x) for x in row] for row in m]
                       for (a, b), m in sorted(self.arrows.items())
                       if not _is_zero_mat(m)},
        }

    @classmethod
    def from_json(cls, datum, orientation, obj):
        arrows = {}
        for key, mat in obj.get("arrows", {}).items():
            a, b = key.split("->")
            arrows[(int(a), int(b))] = [[Fraction(x) for x in row]
                                        for row in mat]
        return cls(datum, orientation, obj["dim"], arrows)


def zero_module(datum, orientation):
    return PreprojModule(datum, orientation, (0,) * datum.rank)


def simple_module(datum, orientation, i):
    dim = tuple(1 if k == i - 1 else 0 for k in range(datum.rank))
    return PreprojModule(datum, orientation, dim)


def moment_residual(module):
    """Per-vertex moment-map values sum eps(h) B_h B_hbar at in(h)."""
    out = {}
    for i in range(1, module.datum.rank + 1):
        d = module.dim[i - 1]
        acc = _zeros(d, d)
        for h in double_arrows(module.orientation):
            a, b = h
            if b != i:
                continue
            sign = 1 if h in module.orientation else -1
            prod = _mat_mul(module.arrow(a, b), module.arrow(b, a))
            if prod:
                acc = _mat_add(acc, prod, sign)
        out[i] = acc
    return out


def is_nilpotent(module):
    """Do all long enough arrow composites vanish?  Tracks the radical
    chain of vertexwise column spans, which cannot cancel."""
    spans = {i: [tuple(_F1 if r == c else _F0
                       for r in range(module.dim[i - 1]))
                 for c in range(module.dim[i - 1])]
             for i in range(1, module.datum.rank + 1)}
    for _ in range(module.total_dim() + 1):
        if all(not v for v in spans.values()):
            return True
        nxt = {i: [] for i in spans}
        for (a, b), mat in module.arrows.items():
            for v in spans[a]:
                img = tuple(sum((mat[r][c] * v[c] for c in range(len(v))),
                                _F0) for r in range(module.dim[b - 1]))
                if any(img):
                    nxt[b].append(img)
        spans = {i: _independent(vs) for i, vs in nxt.items()}
    return False


def _independent(vectors):
    if not vectors:
        return []
    rows, pivots = rref([list(v) for v in vectors])
    return [tuple(rows[k]) for k in range(len(pivots))]


def is_module(module):
    """Moment map zero and nilpotent."""
    res = moment_residual(module)
    if any(not _is_zero_mat(m) for m in res.values()):
        return False
    return is_nilpotent(module)


def direct_sum(left, right):
    arrows = {}
    for h in double_arrows(left.orientation):
        a, b = h
        la, ra = left.arrow(a, b), right.arrow(a, b)
        rows = []
        lw = left.dim[a - 1]
        rw = right.dim[a - 1]
        for r in range(left.dim[b - 1]):
            rows.append(tuple(la[r]) + (_F0,) * rw)
        for r in range(right.dim[b - 1]):
            rows.append((_F0,) * lw + tuple(ra[r]))
        arrows[h] = tuple(rows)
    dim = tuple(x + y for x, y in zip(left.dim, right.dim))
    return PreprojModule(left.datum, left.orientation, dim, arrows)


def sum_of(modules, datum=None, orientation=None):
    if not modules:
        return zero_module(datum, orientation)
    acc = modules[0]
    for m in modules[1:]:
        acc = direct_sum(acc, m)
    return acc


def _hom_system(src, dst):
    """Rows of the intertwiner system in the unknowns vec(phi_i)."""
    offs = {}
    total = 0
    for i in range(1, src.datum.rank + 1):
        offs[i] = total
        total += dst.dim[i - 1] * src.dim[i - 1]
    rows = []
    for (a, b) in double_arrows(src.orientation):
        bm, bn = src.arrow(a, b), dst.arrow(a, b)
        # phi_b B^M_h - B^N_h phi_a = 0, entry (r, c)
        for r in range(dst.dim[b - 1]):
            for c in range(src.dim[a - 1]):
                row = [_F0] * total
                for s in range(src.dim[b - 1]):
                    if bm[s][c]:
                        row[offs[b] + r * src.dim[b - 1] + s] += bm[s][c]
                for t in range(dst.dim[a - 1]):
                    if bn[r][t]:
                        row[offs[a] + t * src.dim[a - 1] + c] -= bn[r][t]
                if any(row):
                    rows.append(row)
    return rows, offs, total


def hom_dim(src, dst):
    rows, _, total = _hom_system(src, dst)
    if total == 0:
        return 0
    return total - rank(rows)


def hom_basis(src, dst):
    """Basis of Hom as lists of per-vertex matrices."""
    rows, offs, total = _hom_system(src, dst)
    if total == 0:
        return []
    if rows:
        vecs = nullspace(rows, _F1, _F0)
    else:
        vecs = [[_F1 if k == j else _F0 for k in range(total)]
                for j in range(total)]
    out = []
    for v in vecs:
        mats = {}
        for i in range(1, src.datum.rank + 1):
            r, c = dst.dim[i - 1], src.dim[i - 1]
            base = offs[i]
            mats[i] = tuple(tuple(v[base + rr * c + cc]
                                  for cc in range(c)) for rr in range(r))
        out.append(mats)
    return out


def ext1_dim(src, dst):
    """dim Ext^1 via the homological formula; symmetric in its
    arguments."""
    val = (hom_dim(src, dst) + hom_dim(dst, src)
           - src.datum.bilinear(src.dim, dst.dim))
    if val < 0:
        raise AssertionError(
            f"negative Ext^1 = {val}: input is not a preprojective module")
    return val


def is_rigid(module):
    return ext1_dim(module, module) == 0


def ambient_dim(datum, orientation, dim):
    """dim E_V: one matrix block per oriented edge."""
    return sum(dim[a - 1] * dim[b - 1] for a, b in orientation)


def orbit_dim(module):
    return (sum(d * d for d in module.dim)
            - hom_dim(module, module))


def is_open_orbit(module):
    """The orbit is open in the nilpotent variety iff its dimension
    equals dim E_V, the lagrangian component dimension."""
    return orbit_dim(module) == ambient_dim(module.datum,
                                            module.orientation, module.dim)


def _rank_signature(module):
    return tuple(rank(m) for _, m in sorted(module.arrows.items()))


def is_isomorphic(left, right):
    """Isomorphism test whose every verdict is certified.

    False only on an exact witness: the dimension vectors differ, the
    rank of some arrow matrix differs (ranks are invariant under the
    vertexwise GL action), dim Hom(left, right) != dim Hom(right, left),
    or every map left -> right is singular at some vertex.  True only on
    a verified invertible intertwiner.  Raises ValueError when an
    isomorphism exists but the coefficient schedule finds none, which
    cannot happen for n <= 4 Hom basis maps and total_dim <= 4 (see
    _intertwiner_search).
    """
    if left.dim != right.dim:
        return False
    if left.arrows == right.arrows:
        return True
    if _rank_signature(left) != _rank_signature(right):
        return False
    basis = hom_basis(left, right)
    if len(basis) != hom_dim(right, left):
        return False
    return _intertwiner_search(left, right, basis)


def _coefficient_schedule(n):
    """Coefficient vectors tried on n Hom basis maps: the grid
    {-2..2}^n for n <= 4, else 64 seeded random vectors."""
    if n <= 4:
        return itertools.product((-2, -1, 0, 1, 2), repeat=n)
    rng = random.Random(1729)
    return [[rng.randint(-5, 5) for _ in range(n)] for _ in range(64)]


def _det_vanishes(mats, d):
    """Is det(sum_k c_k mats[k]) the zero polynomial in the c_k?

    Laplace expansion along rows over sparse polynomials whose monomials
    are sorted tuples of variable indices.
    """
    forms = [[{(k,): m[r][s] for k, m in enumerate(mats) if m[r][s]}
              for s in range(d)] for r in range(d)]

    def minor(row, cols):
        if row == d:
            return {(): _F1}
        acc = {}
        for j, col in enumerate(cols):
            if not forms[row][col]:
                continue
            sub = minor(row + 1, cols[:j] + cols[j + 1:])
            for m1, x in forms[row][col].items():
                for m2, y in sub.items():
                    mono = tuple(sorted(m1 + m2))
                    acc[mono] = acc.get(mono, _F0) + (-1) ** j * x * y
        return {m: v for m, v in acc.items() if v}

    return not minor(0, tuple(range(d)))


def _intertwiner_search(left, right, basis):
    """Decide isomorphism of two modules with one dimension vector from
    basis = hom_basis(left, right) = (phi_1, ..., phi_n).

    False when the determinant of sum_k c_k phi_k at some vertex
    vanishes identically in the c_k: then every map is singular there.
    Otherwise an isomorphism exists, and the fixed schedule looks for
    one; True on a combination verified invertible at every vertex.
    The grid cannot miss when n <= 4 and total_dim <= 4: the product of
    the vertex determinants is a nonzero polynomial of degree at most
    total_dim < 5 in each c_k, so it is nonzero somewhere on
    {-2..2}^n (Combinatorial Nullstellensatz).  A miss elsewhere raises
    ValueError.
    """
    if not basis:
        return left.total_dim() == 0
    for i in range(1, left.datum.rank + 1):
        d = left.dim[i - 1]
        if d and _det_vanishes([b[i] for b in basis], d):
            return False
    for coeffs in _coefficient_schedule(len(basis)):
        if not any(coeffs):
            continue
        good = True
        for i in range(1, left.datum.rank + 1):
            d = left.dim[i - 1]
            mat = [[sum((Fraction(c) * b[i][r][s] for c, b in
                         zip(coeffs, basis)), _F0) for s in range(d)]
                   for r in range(d)]
            if d and rank(mat) != d:
                good = False
                break
        if good:
            return True
    raise ValueError(
        f"isomorphism undecided between dimension vectors {left.dim} and "
        f"{right.dim}: an isomorphism exists, but the schedule on n = "
        f"{len(basis)} Hom basis maps found no invertible combination")


_ENUM_CACHE = {}


def enumerate_modules(datum, orientation, dim, workers=1):
    """One representative per isomorphism class of nilpotent modules of
    the dimension vector, exhaustively for the bounded presets.

    Candidates run over 0/1 matrix entries; at the configured bounds
    every isomorphism class has such a representative (each class is a
    sum of indecomposables that admit 0/1 normal forms there).
    ``workers`` is accepted for API compatibility; the search is serial.
    """
    dim = tuple(int(d) for d in dim)
    key = (datum.cartan, tuple(tuple(h) for h in orientation), dim)
    hit = _ENUM_CACHE.get(key)
    if hit is not None:
        return hit
    bound = ENUM_BOUNDS.get(datum.name)
    if bound is None:
        raise ValueError(
            f"enumeration unsupported for type {datum.name!r}")
    if len(dim) != len(bound) or any(d > b for d, b in zip(dim, bound)):
        raise ValueError(
            f"dimension {dim} exceeds preset enumeration bound {bound}")
    arrows = double_arrows(orientation)
    shapes = [(dim[b - 1], dim[a - 1]) for a, b in arrows]
    entries = sum(r * c for r, c in shapes)

    def build(bits):
        mats = {}
        pos = 0
        for h, (r, c) in zip(arrows, shapes):
            chunk = bits[pos:pos + r * c]
            pos += r * c
            mats[h] = tuple(tuple(Fraction(chunk[rr * c + cc])
                                  for cc in range(c)) for rr in range(r))
        return PreprojModule(datum, orientation, dim, mats)

    classes = []
    for bits in itertools.product((0, 1), repeat=entries):
        m = build(bits)
        if is_module(m) and not any(is_isomorphic(m, seen)
                                    for seen in classes):
            classes.append(m)
    _ENUM_CACHE[key] = tuple(classes)
    return _ENUM_CACHE[key]


def all_dims_up_to(bound):
    ranges = [range(b + 1) for b in bound]
    dims = [tuple(d) for d in itertools.product(*ranges)]
    dims.sort(key=lambda v: (sum(v), v))
    return [d for d in dims if any(d)]


_INDEC_CACHE = {}


def indecomposables(datum, orientation, workers=1):
    """All indecomposable classes with dimensions below the preset
    bound, by brute-force splitting against smaller classes."""
    bound = ENUM_BOUNDS.get(datum.name)
    if bound is None:
        raise ValueError(f"enumeration unsupported for type {datum.name!r}")
    key = (datum.cartan, tuple(tuple(h) for h in orientation))
    hit = _INDEC_CACHE.get(key)
    if hit is not None:
        return hit
    by_dim = {}
    for dim in all_dims_up_to(bound):
        by_dim[dim] = enumerate_modules(datum, orientation, dim, workers)
    indec = []
    for dim, classes in by_dim.items():
        for m in classes:
            split = False
            for d1 in by_dim:
                d2 = tuple(a - b for a, b in zip(dim, d1))
                if d1 >= dim or any(x < 0 for x in d2) or not any(d2):
                    continue
                if d2 not in by_dim:
                    continue
                for a in by_dim[d1]:
                    for b in by_dim[d2]:
                        if is_isomorphic(m, direct_sum(a, b)):
                            split = True
                            break
                    if split:
                        break
                if split:
                    break
            if not split:
                indec.append(m)
    _INDEC_CACHE[key] = tuple(indec)
    return _INDEC_CACHE[key]


class RigidCollection:
    """A basic collection of indecomposable modules with frozen flags.

    Creation validates that members are pairwise non-isomorphic and that
    the direct sum is rigid.
    """

    def __init__(self, modules, frozen):
        self.modules = tuple(modules)
        self.frozen = tuple(bool(f) for f in frozen)
        if len(self.modules) != len(self.frozen):
            raise ValueError("one frozen flag per module required")
        for a in range(len(self.modules)):
            for b in range(a + 1, len(self.modules)):
                if is_isomorphic(self.modules[a], self.modules[b]):
                    raise ValueError(
                        f"collection is not basic: members {a + 1} and "
                        f"{b + 1} are isomorphic")
        if self.modules:
            total = sum_of(list(self.modules))
            if not is_rigid(total):
                raise ValueError("collection is not rigid")

    def __len__(self):
        return len(self.modules)

    def total(self):
        if not self.modules:
            raise ValueError("empty collection")
        return sum_of(list(self.modules))

    def without(self, k):
        return [m for j, m in enumerate(self.modules, start=1) if j != k]


def maximal_rigid_check(collection, datum=None, orientation=None, word=None):
    """Is the collection maximal rigid among all nilpotent modules?
    Enumeration-based, valid for the longest-word presets only."""
    if collection.modules:
        datum = collection.modules[0].datum
        orientation = collection.modules[0].orientation
    elif datum is None:
        raise ValueError("empty collection needs an explicit datum")
    if word is not None:
        word = tuple(word)
        if not datum.is_reduced(word) or \
                len(word) != len(datum.positive_roots()):
            raise NotImplementedError(
                "general C_w membership not implemented")
    if not collection.modules:
        return False
    total = collection.total()
    for x in indecomposables(datum, orientation):
        if any(is_isomorphic(x, t) for t in collection.modules):
            continue
        if ext1_dim(total, x) + ext1_dim(x, x) == 0:
            return False
    return True


def _stack_map(maps):
    """Stack module maps into one map to the direct sum of targets."""
    out = {}
    vertices = list(maps[0][1].keys()) if maps else []
    for i in vertices:
        rows = []
        for _, phi in maps:
            rows.extend(list(r) for r in phi[i])
        out[i] = tuple(tuple(r) for r in rows)
    return out


def _factors_through(src, mid, fmap, target, phi0):
    """Does phi0: src -> target factor as psi . fmap with psi a module
    map mid -> target?  One linear solve in the unknowns of psi."""
    rows, offs, total = _hom_system(mid, target)
    rhs = [_F0] * len(rows)
    # composition constraints (psi . fmap)_i = phi0_i
    for i in range(1, src.datum.rank + 1):
        for r in range(target.dim[i - 1]):
            for c in range(src.dim[i - 1]):
                row = [_F0] * total
                for s in range(mid.dim[i - 1]):
                    if fmap[i][s][c]:
                        row[offs[i] + r * mid.dim[i - 1] + s] += \
                            fmap[i][s][c]
                rows.append(row)
                rhs.append(phi0[i][r][c])
    if total == 0:
        return all(not x for x in rhs)
    if not rows:
        return all(not x for x in rhs)
    aug = [row + [b] for row, b in zip(rows, rhs)]
    return rank(rows) == rank(aug)


def _cokernel(src, dst, fmap):
    """Quotient module dst / im(fmap), with the projection per vertex."""
    datum, orientation = dst.datum, dst.orientation
    proj = {}
    sect = {}
    qdim = []
    for i in range(1, datum.rank + 1):
        d = dst.dim[i - 1]
        cols = [[fmap[i][r][c] for r in range(d)]
                for c in range(src.dim[i - 1])]
        basis = []
        for v in cols:
            if rank(basis + [v]) > len(basis):
                basis.append(v)
        im_rank = len(basis)
        ext = []
        for j in range(d):
            e = [_F1 if k == j else _F0 for k in range(d)]
            if rank(basis + ext + [e]) > len(basis) + len(ext):
                ext.append(e)
        q = len(ext)
        qdim.append(q)
        if d == 0:
            proj[i] = ()
            sect[i] = ()
            continue
        change = [[(basis + ext)[c][r] for c in range(d)] for r in range(d)]
        inv = inverse(change, _F1, _F0)
        proj[i] = tuple(tuple(inv[im_rank + r]) for r in range(q))
        sect[i] = tuple(tuple(ext[c][r] for c in range(q))
                        for r in range(d))
    arrows = {}
    for (a, b) in double_arrows(orientation):
        mat = _mat_mul(proj[b], _mat_mul(dst.arrow(a, b), sect[a]))
        if not mat:
            mat = _zeros(qdim[b - 1], qdim[a - 1])
        arrows[(a, b)] = mat
        # the image must be a submodule, so the induced map is defined
        img = _mat_mul(proj[b], _mat_mul(dst.arrow(a, b), fmap[a])) \
            if fmap[a] else ()
        if img and not _is_zero_mat(img):
            raise AssertionError("image of the approximation map is "
                                 "not a submodule")
    quot = PreprojModule(datum, orientation, qdim, arrows)
    return quot, proj


def minimal_left_approximation(src, targets):
    """Minimal left add(+targets)-approximation of src.

    Builds the universal map into one copy of each Hom-basis element,
    then greedily drops summands while every map to every target still
    factors.  Returns (mid module, map, list of (target index, phi)).
    """
    pieces = []
    for idx, t in enumerate(targets):
        for phi in hom_basis(src, t):
            pieces.append((idx, phi))

    def assemble(kept):
        mods = [targets[idx] for idx, _ in kept]
        mid = sum_of(mods, src.datum, src.orientation)
        fmap = _stack_map([(targets[idx], phi) for idx, phi in kept])
        if not kept:
            fmap = {i: _zeros(0, src.dim[i - 1])
                    for i in range(1, src.datum.rank + 1)}
        return mid, fmap

    def is_approximation(kept):
        mid, fmap = assemble(kept)
        for t in targets:
            for phi in hom_basis(src, t):
                if not _factors_through(src, mid, fmap, t, phi):
                    return False
        return True

    kept = list(pieces)
    changed = True
    while changed:
        changed = False
        for j in range(len(kept)):
            trial = kept[:j] + kept[j + 1:]
            if is_approximation(trial):
                kept = trial
                changed = True
                break
    mid, fmap = assemble(kept)
    return mid, fmap, kept


def mutate_rigid(collection, k):
    """Replace the k-th summand through the two exchange sequences.

    Returns (new collection, (T', T'')) where T' is the middle of
    0 -> T_k -> T' -> T_k^* -> 0 and T'' the middle of
    0 -> T_k^* -> T'' -> T_k -> 0.
    """
    if not 1 <= k <= len(collection):
        raise ValueError(f"index {k} out of range")
    if collection.frozen[k - 1]:
        raise ValueError("mutation at a frozen index")
    if not maximal_rigid_check(collection):
        raise ValueError("collection is not maximal rigid")
    tk = collection.modules[k - 1]
    rest = collection.without(k)

    tprime, fmap, _ = minimal_left_approximation(tk, rest)
    for i in range(1, tk.datum.rank + 1):
        if tk.dim[i - 1] and rank([list(r) for r in fmap[i]]) \
                != tk.dim[i - 1]:
            raise ValueError("no complement found: approximation map "
                             "is not injective")
    tkstar, _ = _cokernel(tk, tprime, fmap)
    if not is_module(tkstar):
        raise ValueError("exchange validation failed: cokernel is not "
                         "a module")
    if is_isomorphic(tkstar, tk):
        raise ValueError("exchange validation failed: complement equals "
                         "the mutated summand")
    if ext1_dim(tk, tkstar) != 1 or ext1_dim(tkstar, tk) != 1:
        raise ValueError("exchange validation failed: Ext^1 between the "
                         "exchange pair is not one-dimensional")

    # the second sequence: approximate the new summand the same way
    tsecond, gmap, _ = minimal_left_approximation(tkstar, rest)
    for i in range(1, tk.datum.rank + 1):
        if tkstar.dim[i - 1] and \
                rank([list(r) for r in gmap[i]]) != tkstar.dim[i - 1]:
            raise ValueError("no complement found: second approximation "
                             "is not injective")
    back, _ = _cokernel(tkstar, tsecond, gmap)
    if not is_isomorphic(back, tk):
        raise ValueError("exchange validation failed: second sequence "
                         "does not return the mutated summand")

    new_modules = list(collection.modules)
    new_modules[k - 1] = tkstar
    new_collection = RigidCollection(new_modules, collection.frozen)
    return new_collection, (tprime, tsecond)


def hom_leq(special, generic, probes):
    """Hom-order test: does the orbit closure of generic contain
    special?  At representation-finite desk scale the hom order is the
    degeneration order."""
    if special.dim != generic.dim:
        return False
    for p in probes:
        if hom_dim(special, p) < hom_dim(generic, p):
            return False
        if hom_dim(p, special) < hom_dim(p, generic):
            return False
    return True


def components(datum, orientation, dim, workers=1):
    """Representatives of the irreducible components of the nilpotent
    variety: classes maximal in the hom order."""
    classes = enumerate_modules(datum, orientation, dim, workers)
    probes = indecomposables(datum, orientation, workers)
    out = []
    for m in classes:
        dominated = False
        for n in classes:
            if n is m or is_isomorphic(m, n):
                continue
            if hom_leq(m, n, probes):
                dominated = True
                break
        if not dominated:
            out.append(m)
    return tuple(out)


def components_containing(datum, orientation, dim, point, workers=1):
    probes = indecomposables(datum, orientation, workers)
    return tuple(m for m in components(datum, orientation, dim, workers)
                 if hom_leq(point, m, probes))


def module_label(canonical_ctx, module):
    """Crystal label of the component through a rigid module: match the
    weight, the top multiplicities (epsilon) and the socle
    multiplicities (epsilon star)."""
    datum = module.datum
    eps = tuple(hom_dim(module, simple_module(datum, module.orientation, i))
                for i in range(1, datum.rank + 1))
    eps_star = tuple(hom_dim(simple_module(datum, module.orientation, i),
                             module)
                     for i in range(1, datum.rank + 1))
    hits = []
    for c in canonical_ctx.labels_of_weight(module.dim):
        ce = tuple(canonical_ctx.epsilon(i, c)
                   for i in range(1, datum.rank + 1))
        cs = tuple(canonical_ctx.epsilon_star(i, c)
                   for i in range(1, datum.rank + 1))
        if ce == eps and cs == eps_star:
            hits.append(c)
    if len(hits) != 1:
        raise ValueError(
            f"module does not determine a unique label: {hits}")
    return hits[0]


def preproj_preset(name):
    """Datum, orientation, and the initial maximal rigid collection of
    the longest-word preset (A2 only; the other presets are used for
    enumeration suites)."""
    p = load_preset(name)
    datum, orientation = p["datum"], p["orientation"]
    if datum.name != "A2":
        raise ValueError(f"no preprojective preset for {name!r}")
    one = [[Fraction(1)]]
    s1 = simple_module(datum, orientation, 1)
    p2 = PreprojModule(datum, orientation, (1, 1), {(2, 1): one})
    p1 = PreprojModule(datum, orientation, (1, 1), {(1, 2): one})
    collection = RigidCollection([s1, p2, p1], [False, True, True])
    return {
        "name": p["name"],
        "datum": datum,
        "orientation": orientation,
        "collection": collection,
        "word": p["longest_word"],
    }
