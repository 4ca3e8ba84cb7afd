"""Linear umbral evaluation with the derangement umbra: every power D**k of
the umbral symbol is replaced by the k-th derangement number, which turns
many of the catalogued identities into one-line polynomial computations.
"""

from __future__ import annotations

from ..polynomial import Polynomial
from ..sequences import derangement
from ..symbols import UMBRA


def umbral_eval(p: Polynomial) -> Polynomial:
    """Replace every power D**k linearly by the derangement number D_k.

    The substitution is linear over the remaining symbols: a term
    c * D**k * rest becomes c * D_k * rest, and D-free terms pass through
    unchanged (D_0 = 1).
    """
    coeffs = p.coefficients_in(UMBRA)
    out = coeffs[0]
    for k in range(1, len(coeffs)):
        if coeffs[k]:
            out = out + coeffs[k] * derangement(k)
    return out
