"""Fixed-point-free circle actions on simply connected compact 5-manifolds.

Decide which (H2, w2) classes admit one, construct an explicit Seifert
bundle presentation over a connected sum of CP^2's when they do, and verify
the construction by recomputing every algebraic invariant from the
presentation.  All arithmetic is exact.
"""

__version__ = "0.1.0"
