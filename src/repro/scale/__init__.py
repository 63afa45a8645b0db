"""repro.scale: sharded stores + batched authorization for throughput.

The paper's setting — "millions of subjects accessing millions of web
databases" — needs more than correct decisions; it needs decisions at
rate.  This package scales the existing engines without changing their
answers, and every wrapper carries an equivalence contract that the
property tests and bench oracles enforce:

* :class:`BatchDecisionEngine` — ``decide_batch(triples)`` equals the
  serial ``[decide(t) for t in triples]``, audit records included;
* :class:`ShardedPolicyEngine`, :class:`ShardedDatabase`,
  :class:`ShardedCollection` / :class:`ShardedXmlDatabase`,
  :class:`ShardedUddiRegistry` — each sharded store answers exactly as
  its monolithic counterpart holding the union of the shards;
* :class:`Request` — the value type the one serving pipeline
  (:class:`~repro.gateway.core.AsyncRequestGateway`) carries; it lives
  here because its callers import it from here.
"""

from repro.scale.batch import BatchDecisionEngine, BatchStats
from repro.scale.engine import ShardedPolicyEngine, is_broadcast
from repro.scale.gateway import Request
from repro.scale.registry import ShardedUddiRegistry
from repro.scale.relational import ShardedDatabase
from repro.scale.router import ConsistentHashRouter
from repro.scale.xmlstore import ShardedCollection, ShardedXmlDatabase

__all__ = [
    "BatchDecisionEngine",
    "BatchStats",
    "ConsistentHashRouter",
    "Request",
    "ShardedCollection",
    "ShardedDatabase",
    "ShardedPolicyEngine",
    "ShardedUddiRegistry",
    "ShardedXmlDatabase",
    "is_broadcast",
]
