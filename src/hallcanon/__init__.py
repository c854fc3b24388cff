"""Exact Hall-algebra bases for cyclic, finite-type and Kronecker quivers.

The package computes, over the exact ring Z[v, v^-1]:

* Laurent polynomials, rational functions and the bar involution (``laurent``),
* Kostka numbers and symmetric-group characters (``partitions``),
* quiver root combinatorics and admissible sequences (``quiver``),
* explicit representations over small finite fields, submodule censuses
  and Hall numbers (``gf``, ``fqrep``),
* Hall polynomials in q by exact multi-prime interpolation (``hallpoly``),
* the generic extended composition algebra and Green's bilinear form
  (``hallalg``),
* index sets, monomial bases and the inductive PBW basis (``pbw``),
* the bar-invariant canonical basis by the truncation algorithm, with
  machine-checkable certificates (``canonical``),
* a command line driver (``cli``).
"""

__version__ = "0.1.0"

from .config import JobConfig

__all__ = ["JobConfig", "__version__"]
