"""Umbral evaluation and the exact identity catalogue."""

from .catalogue import CATALOGUE, catalogue_ids, verify, verify_many
from .inverse import inverse_relation_roundtrip
from .report import IdentityReport
from .umbral import umbral_eval

__all__ = [
    "CATALOGUE",
    "catalogue_ids",
    "verify",
    "verify_many",
    "inverse_relation_roundtrip",
    "IdentityReport",
    "umbral_eval",
]
