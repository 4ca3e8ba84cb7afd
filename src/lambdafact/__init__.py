"""Exact arithmetic for fixed-point polynomials of permutations.

The package provides, over exact rational arithmetic:

- sparse multivariate polynomials and truncated power series;
- the classical families: factorials, derangement numbers, fixed-point
  polynomials f_n, Charlier/Bell/Hermite polynomials, Stirling numbers,
  and the bivariate family Q_{n,m}, each with independent routes;
- exhaustive enumeration oracles and a colored-forest bijection for
  restricted endofunctions;
- a catalogue of identities, each verified as an exact polynomial or
  truncated-series equality;
- a command-line interface (`lambdafact`) exposing tables, verification,
  series transforms and the bijection demo.
"""

from .polynomial import Polynomial
from .series import TruncatedSeries, abel_rhs, binomial_power, tree_function

__all__ = [
    "Polynomial",
    "TruncatedSeries",
    "abel_rhs",
    "binomial_power",
    "tree_function",
]

__version__ = "0.1.0"
