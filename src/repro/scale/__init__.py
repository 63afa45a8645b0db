"""repro.scale: hash-sharded stores for throughput.

The paper's setting — "millions of subjects accessing millions of web
databases" — needs more than correct decisions; it needs decisions at
rate.  This package shards the existing stores without changing their
answers, and every sharded store carries an equivalence contract that
the property tests and bench oracles enforce:

* :class:`ShardedDatabase`, :class:`ShardedCollection` /
  :class:`ShardedXmlDatabase`, :class:`ShardedUddiRegistry` — each
  sharded store answers exactly as its monolithic counterpart holding
  the union of the shards;
* :class:`ConsistentHashRouter` — the placement ring, shared with the
  sharded policy router (:class:`~repro.gateway.engine.EpochalShardRouter`);
* :class:`Request` — the value type the one serving pipeline
  (:class:`~repro.gateway.core.AsyncRequestGateway`) carries; it lives
  here because its callers import it from here.
"""

from repro.scale.gateway import Request
from repro.scale.registry import ShardedUddiRegistry
from repro.scale.relational import ShardedDatabase
from repro.scale.router import ConsistentHashRouter
from repro.scale.xmlstore import ShardedCollection, ShardedXmlDatabase

__all__ = [
    "ConsistentHashRouter",
    "Request",
    "ShardedCollection",
    "ShardedDatabase",
    "ShardedUddiRegistry",
    "ShardedXmlDatabase",
]
