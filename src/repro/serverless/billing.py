"""Serverless billing model.

Mirrors the public AWS Lambda price structure (the de-facto reference for
the serverless-allocation literature): a per-request fee plus a GB-second
fee on the billed duration, rounded up to a billing granule (1 ms on
Lambda).  Absolute prices follow the 2022 us-east-1 list; only the ratios
matter for the reproduction's conclusions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


class CostBreakdown(NamedTuple):
    """Cost of one (or an aggregate of) invocation(s), in USD."""

    request_cost: float
    compute_cost: float

    @property
    def total(self) -> float:
        """Request fee plus compute fee."""
        return self.request_cost + self.compute_cost

    def __add__(self, other: object) -> "CostBreakdown":
        if not isinstance(other, CostBreakdown):
            return NotImplemented
        return CostBreakdown(
            self.request_cost + other.request_cost,
            self.compute_cost + other.compute_cost,
        )

    def __radd__(self, other: object) -> "CostBreakdown":
        # ``sum(costs)`` starts from the int 0; accept exactly that zero so
        # breakdowns aggregate with the builtin, and nothing else.
        if other == 0:
            return self
        return NotImplemented

    @staticmethod
    def zero() -> "CostBreakdown":
        """The additive identity."""
        return CostBreakdown(0.0, 0.0)


@dataclass(frozen=True)
class BillingModel:
    """Pricing parameters for a serverless platform.

    Parameters
    ----------
    price_per_gb_second:
        USD per GB-second of billed compute (Lambda 2022: 1.6667e-5).
    price_per_request:
        USD per invocation (Lambda 2022: 2e-7).
    granularity_s:
        Billed duration is rounded **up** to a multiple of this.
    minimum_billed_s:
        Floor on the billed duration regardless of actual runtime.
    """

    price_per_gb_second: float = 1.6667e-5
    price_per_request: float = 2.0e-7
    granularity_s: float = 0.001
    minimum_billed_s: float = 0.001
    #: USD per GB-second of *provisioned* (pre-warmed) capacity, billed
    #: for wall-clock time whether invoked or not (Lambda provisioned
    #: concurrency, 2022: ~4.1667e-6).
    provisioned_price_per_gb_second: float = 4.1667e-6

    def __post_init__(self) -> None:
        if self.price_per_gb_second < 0 or self.price_per_request < 0:
            raise ValueError("prices must be >= 0")
        if self.provisioned_price_per_gb_second < 0:
            raise ValueError("provisioned price must be >= 0")
        if self.granularity_s <= 0:
            raise ValueError("billing granularity must be > 0")
        if self.minimum_billed_s < 0:
            raise ValueError("minimum billed duration must be >= 0")

    def billed_duration(self, duration_s: float) -> float:
        """Round a raw runtime up to the billing granule and minimum."""
        if duration_s < 0:
            raise ValueError(f"duration must be >= 0, got {duration_s}")
        granules = math.ceil(round(duration_s / self.granularity_s, 9))
        return max(granules * self.granularity_s, self.minimum_billed_s)

    def invocation_cost(self, duration_s: float, memory_mb: float) -> CostBreakdown:
        """Cost of one invocation that ran ``duration_s`` at ``memory_mb``."""
        if memory_mb <= 0:
            raise ValueError(f"memory must be > 0, got {memory_mb}")
        gb_seconds = self.billed_duration(duration_s) * (memory_mb / 1024.0)
        return CostBreakdown(
            request_cost=self.price_per_request,
            compute_cost=gb_seconds * self.price_per_gb_second,
        )

    def monthly_cost(
        self, invocations_per_month: float, duration_s: float, memory_mb: float
    ) -> float:
        """Aggregate monthly bill for a steady workload (planning helper)."""
        one = self.invocation_cost(duration_s, memory_mb)
        return one.total * invocations_per_month

    def provisioned_cost(self, gb_seconds: float) -> float:
        """Bill for keeping pre-warmed capacity provisioned."""
        if gb_seconds < 0:
            raise ValueError("gb_seconds must be >= 0")
        return gb_seconds * self.provisioned_price_per_gb_second


__all__ = ["BillingModel", "CostBreakdown"]
