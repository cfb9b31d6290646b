"""Encrypted graph-convolution engine on a slot-level leveled-HE simulator.

The package splits into:

* :mod:`hegcn.hesim` -- SIMD slot arithmetic with level tracking and exact
  homomorphic operation counters (no cryptography).
* :mod:`hegcn.packing` -- adjacency-matrix-aware (AMA) and row-major tensor
  packings with exact inverses.
* :mod:`hegcn.adjacency` -- normalized graph adjacencies, 1x1-conv merging and
  patterned sparse decomposition (the rows of pieces with at most one
  nonzero per column).
* :mod:`hegcn.engine` -- encrypted spatial/temporal graph convolution pipeline
  plus a dense plaintext reference implementation.
* :mod:`hegcn.costmodel` -- analytic operation-count formulas, multiplicative
  depth and HE parameter selection.
* :mod:`hegcn.prune` -- activation-pruning search with pluggable accuracy
  evaluators.
* :mod:`hegcn.cli` -- command line front end.
"""

from hegcn.hesim import HocCounter, LevelError, SimCiphertext, SimContext

__version__ = "0.1.0"

__all__ = [
    "HocCounter",
    "LevelError",
    "SimCiphertext",
    "SimContext",
    "__version__",
]
