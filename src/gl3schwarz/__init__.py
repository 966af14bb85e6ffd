"""GL(3) Schwarzian derivative toolkit.

Jet arithmetic, the four GL(3) derivatives and their transport calculus,
Appell F1 evaluation, Picard-curve moduli transforms, the eta automorphy
ledger, and the invariant evolution system, with verification suites behind
the `gl3schwarz` CLI.
"""

from .jets import Jet, JetError, compose, jet_powq

__all__ = [
    "Jet",
    "JetError",
    "compose",
    "jet_powq",
]

__version__ = "0.1.0"
