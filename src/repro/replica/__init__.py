"""repro.replica: replica groups with Merkle anti-entropy (A11).

Keys are placed on shards over :mod:`repro.scale`'s consistent-hash
ring, and each shard is a replica group: a primary applying writes
and shipping versioned deltas to read replicas, every replica
publishes its state through :mod:`repro.snap` epoch snapshots (reads stay lock-free), divergence
is found and repaired through incremental :mod:`repro.merkle` trees
(O(log n) per discrepancy, never a full resync), and read-your-writes
sessions generalize the UDDI watermark from :mod:`repro.faults`.

Grounded in the paper's Merkle-authenticated UDDI: replicas are
mutually distrusting copies that prove state equality by digest —
``converged()`` means byte-identical Merkle roots, not an assertion.
The chaos battery (``tests/faults/test_replica_chaos.py``) is the
correctness oracle: kill/partition/stale-delay replicas under writes
across ≥60 seeds and require convergence to the fault-free digest.
"""

from repro.replica.antientropy import (
    HASH_WIRE_BYTES,
    NODE_ID_WIRE_BYTES,
    RepairReport,
    antientropy_repair,
    diff_divergent_buckets,
    full_resync,
)
from repro.replica.chaos import (
    ChaosResult,
    chaos_ops,
    oracle_digest,
    run_chaos,
    scenario_plan,
)
from repro.replica.group import (
    Delta,
    Replica,
    ReplicaGroup,
    ReplicaSnapshot,
)
from repro.replica.router import ReplicaRouter, ReplicaSession
from repro.replica.store import BucketedMerkleStore, bucket_payload

__all__ = [
    "BucketedMerkleStore",
    "ChaosResult",
    "Delta",
    "HASH_WIRE_BYTES",
    "NODE_ID_WIRE_BYTES",
    "RepairReport",
    "Replica",
    "ReplicaGroup",
    "ReplicaRouter",
    "ReplicaSession",
    "ReplicaSnapshot",
    "antientropy_repair",
    "bucket_payload",
    "chaos_ops",
    "diff_divergent_buckets",
    "full_resync",
    "oracle_digest",
    "run_chaos",
    "scenario_plan",
]
