"""Verification outcome for a single identity at one parameter point."""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple, Union

from ..polynomial import Polynomial
from ..series import TruncatedSeries

Residual = Union[Polynomial, TruncatedSeries]


class IdentityReport(NamedTuple):
    """Result of checking one catalogued identity at one parameter point.

    The verdict is pass exactly when the residual (left side minus right
    side) is identically zero; arithmetic is exact, so there is no
    tolerance.  A series residual must also reach the point's order, as a
    side built short would leave the top coefficients unchecked.
    """

    identity: str
    params: Mapping[str, Any]
    order: int | None
    residual: Residual
    elapsed_ms: float

    @property
    def verdict(self) -> bool:
        short = isinstance(self.residual, TruncatedSeries) and (
            self.order is not None and self.residual.order < self.order)
        return self.residual.is_zero and not short

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.identity,
            "params": dict(self.params),
            "order": self.order,
            "residual": "0" if self.verdict else str(self.residual),
            "verdict": "pass" if self.verdict else "fail",
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
