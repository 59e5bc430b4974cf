"""Exact computation of PBW, canonical and dual canonical bases for the
negative half of a quantized enveloping algebra of symmetric finite type,
with crystal combinatorics, preprojective-algebra module calculus and
quantum cluster mutation on top.
"""

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly",
    "RatFunc",
    "quantum_int",
    "quantum_factorial",
    "quantum_binomial",
]


def __getattr__(name):
    """The ``laurent`` names of ``__all__``, imported on first access, so
    that importing the package (as the CLI does) compiles no algebra."""
    if name in __all__:
        from . import laurent
        return getattr(laurent, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
