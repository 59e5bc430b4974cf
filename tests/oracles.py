"""Reference routes shared by several test modules."""

from qbases.laurent import RatFunc


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
