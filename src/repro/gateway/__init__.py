"""repro.gateway: the asyncio streaming gateway (A10).

The one serving pipeline, built around an event loop: non-blocking
multi-tenant admission (token buckets + deficit-round-robin fairness +
queue-depth watermarks), per-tick batched authorization against
per-shard compiled policy tables, and chunked dissemination streams built from
interned snapshot fragments.
:class:`~repro.gateway.core.AsyncRequestGateway` is the only
implementation, and it records into
:class:`~repro.gateway.stats.GatewayStats`.

Equivalence contracts, re-asserted by the gateway bench oracles and
the chaos batteries:

* every decision equals the serial evaluator's (sharding + compilation
  are answer-preserving);
* every streamed document's chunk concatenation is byte-identical to
  the serial serializer's output;
* under injected faults every response is byte-identical to the
  fault-free run or a *typed* transport error — never a silently
  wrong grant, never garbled bytes.
"""

from repro.gateway.admission import (
    AdmissionController,
    DeficitRoundRobin,
    ManualClock,
    TenantConfig,
    TokenBucket,
)
from repro.gateway.core import AsyncRequestGateway
from repro.gateway.engine import EpochalShardRouter
from repro.gateway.stats import GatewayStats, LatencyHistogram
from repro.gateway.streaming import DEFAULT_CHUNK_SIZE, serialize_pieces
from repro.scale.gateway import Request

__all__ = [
    "AdmissionController",
    "AsyncRequestGateway",
    "DEFAULT_CHUNK_SIZE",
    "DeficitRoundRobin",
    "EpochalShardRouter",
    "GatewayStats",
    "LatencyHistogram",
    "ManualClock",
    "Request",
    "TenantConfig",
    "TokenBucket",
    "serialize_pieces",
]

