"""Inverse pairs of binomial-type sequence transforms.

Two transform pairs are provided: the derangement-kernel pair, and the
tree-count pair (indices starting at 1).  Both directions of both pairs run
on the catalogue's convolution kernel, so a round trip over symbolic entries
a_0, a_1, ... checks every sequence at once; exact recovery of the input is
the correctness property tests rely on.
"""

from __future__ import annotations

from typing import Sequence

from ..polynomial import Polynomial
from ..sequences import derangement
from .catalogue import binomial_convolution

KINDS = ("derangement-4.1", "tree-4.4")


def inverse_relation_roundtrip(kind: str, a: Sequence) -> list[Polynomial]:
    """Apply a forward transform and its inverse; returns the recovered list.
    For the tree pair, a[0] is a_1."""
    if kind == "derangement-4.1":  # b_n = Σ C(n,k) D_(n-k) a_k
        b = [binomial_convolution(n, lambda k: a[k] * derangement(n - k))
             for n in range(len(a))]
        return [binomial_convolution(n, lambda k: b[k] * (1 + k - n))
                for n in range(len(a))]
    if kind == "tree-4.4":  # b_n = Σ C(n-1,k-1) n^(n-k) a_k, k >= 1, and b_0 = 0
        b = [binomial_convolution(n, lambda k: a[k - 1] * n ** (n - k), lo=1)
             for n in range(len(a) + 1)]
        return [binomial_convolution(n, lambda k: b[k] * (-k) ** (n - k))
                for n in range(1, len(a) + 1)]
    raise ValueError(f"unknown inverse-relation kind {kind!r}; expected one of {KINDS}")
