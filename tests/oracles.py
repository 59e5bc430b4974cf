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
