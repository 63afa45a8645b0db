"""repro.scale: the placement ring and the gateway's request type.

* :class:`ConsistentHashRouter` — the placement ring shared by the
  sharded policy router (:class:`~repro.gateway.engine.EpochalShardRouter`)
  and the replica router;
* :class:`Request` — the value type the one serving pipeline
  (:class:`~repro.gateway.core.AsyncRequestGateway`) carries; it lives
  here because its callers import it from here.

The stores are not sharded, and neither are their logs (one
:class:`~repro.wal.log.WriteAheadLog` per durable store); the router
above shards policy.
"""

from repro.scale.gateway import Request
from repro.scale.router import ConsistentHashRouter

__all__ = ["ConsistentHashRouter", "Request"]
