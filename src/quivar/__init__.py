"""quivar: an exact toolkit for quiver representations and the finite
combinatorics around Nakajima-style moduli: dimension formulas, root
lists, moment-map fibers, stability, Hilbert-scheme triples, McKay
quivers of finite SL2 subgroups, and finite-set convolution algebras.
"""

__version__ = "0.1.0"


class MathFailure(ValueError):
    """A mathematical check that well-formed input fails: `qv` reports it
    with exit 1, where any other ValueError is an input error (exit 2)."""
