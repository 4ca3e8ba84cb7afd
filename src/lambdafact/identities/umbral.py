"""Linear umbral evaluation: powers of a distinguished symbol are replaced
by the moments of a sequence.

With the derangement umbra, D**n evaluates to the n-th derangement number,
which turns many of the catalogued identities into one-line polynomial
computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..polynomial import Polynomial
from ..sequences import derangement
from ..symbols import UMBRA


@dataclass(frozen=True)
class UmbralMoments:
    """A named moment sequence k -> polynomial substituted for the k-th power."""

    name: str
    moment: Callable[[int], Polynomial]


def derangement_umbra() -> UmbralMoments:
    umbra = UmbralMoments(
        "derangement", lambda k: Polynomial.constant(derangement(k))
    )
    assert umbra.moment(0) == Polynomial.one()
    return umbra


DERANGEMENT_UMBRA = derangement_umbra()


def umbral_eval(
    p: Polynomial,
    moments: UmbralMoments = DERANGEMENT_UMBRA,
    symbol: str = UMBRA,
) -> Polynomial:
    """Replace every power symbol**k linearly by moments.moment(k).

    The substitution is linear over the remaining symbols: a term
    c * symbol**k * rest becomes c * moment(k) * rest, and symbol-free
    terms pass through unchanged.
    """
    coeffs = p.coefficients_in(symbol)
    out = coeffs[0]
    for k in range(1, len(coeffs)):
        if coeffs[k]:
            out = out + coeffs[k] * moments.moment(k)
    return out
