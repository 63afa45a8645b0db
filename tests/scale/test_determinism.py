"""Determinism of sharded results: ordering must not depend on shard
count, insertion order, or dict/set iteration order.

Every scatter-gather merge in :mod:`repro.scale` (and the sharded policy
router) sorts by a canonical key before returning, so a sharded store
answers byte-for-byte like its monolithic counterpart no matter how the
content was spread or in what order it arrived.
"""

import random

import pytest

from repro.core.evaluator import PolicyEvaluator
from repro.core.policy import PolicyBase
from repro.gateway.engine import EpochalShardRouter
from repro.relational.authorization import Privilege
from repro.relational.table import Column, ColumnType, TableSchema
from repro.scale.registry import ShardedUddiRegistry
from repro.scale.relational import ShardedDatabase
from repro.scale.xmlstore import ShardedCollection
from repro.uddi.model import BusinessEntity
from repro.xmldb.parser import parse

from tests.scale.workloads import random_policies, random_requests

SHARD_COUNTS = (1, 2, 3, 5, 8)


class TestEngineInsertionOrder:
    @pytest.mark.parametrize("shard_count", SHARD_COUNTS)
    def test_policy_insertion_order_is_irrelevant(self, shard_count):
        rng = random.Random(31)
        policies = random_policies(rng, 40)
        shuffled = list(policies)
        random.Random(32).shuffle(shuffled)
        ordered = EpochalShardRouter(shard_count=shard_count)
        scrambled = EpochalShardRouter(shard_count=shard_count)
        for policy in policies:
            ordered.add(policy)
        for policy in shuffled:
            scrambled.add(policy)
        requests = random_requests(random.Random(33), 80)
        assert ordered.decide_batch(requests) == \
            scrambled.decide_batch(requests)

    def test_shard_count_is_irrelevant(self):
        rng = random.Random(34)
        policies = random_policies(rng, 40)
        mono = PolicyEvaluator(PolicyBase(policies))
        requests = random_requests(random.Random(35), 60)
        expected = [mono.decide(*r) for r in requests]
        for shard_count in SHARD_COUNTS:
            engine = EpochalShardRouter(shard_count=shard_count)
            for policy in policies:
                engine.add(policy)
            assert engine.decide_batch(requests) == expected

    def test_policies_listing_is_sorted_and_deduped(self):
        rng = random.Random(36)
        policies = random_policies(rng, 30)
        engine = EpochalShardRouter(shard_count=4)
        for policy in reversed(policies):
            engine.add(policy)
        listed = list(engine.policies())
        assert listed == sorted(listed, key=lambda p: p.policy_id)
        assert len(listed) == len(policies)


class TestRelationalOrdering:
    def build(self, table_order):
        db = ShardedDatabase(shard_count=4)
        for name in table_order:
            db.create_table(
                TableSchema(name, (Column("id", ColumnType.INT),)),
                owner="dba")
            db.grant("dba", "reader", name, Privilege.SELECT)
            for r in range(4):
                db.insert("dba", name, id=r)
        return db

    def test_table_names_and_select_many_order(self):
        names = [f"t{i:02d}" for i in range(10)]
        shuffled = list(names)
        random.Random(41).shuffle(shuffled)
        a, b = self.build(names), self.build(shuffled)
        assert a.table_names() == b.table_names() == sorted(names)
        gather_a = a.select_many("reader", shuffled)
        gather_b = b.select_many("reader", names)
        assert [n for n, _ in gather_a] == sorted(names)
        assert [(n, r.rows) for n, r in gather_a] == \
            [(n, r.rows) for n, r in gather_b]


class TestXmlOrdering:
    def test_query_order_survives_insertion_shuffle(self):
        ids = [f"doc{i:03d}" for i in range(20)]
        documents = {
            doc_id: parse(f"<rec><id>{i}</id></rec>", name=doc_id)
            for i, doc_id in enumerate(ids)}
        shuffled = list(ids)
        random.Random(51).shuffle(shuffled)
        ordered = ShardedCollection("c", shard_count=4)
        scrambled = ShardedCollection("c", shard_count=4)
        for doc_id in ids:
            ordered.insert(doc_id, documents[doc_id])
        for doc_id in shuffled:
            scrambled.insert(doc_id, documents[doc_id])
        assert ordered.doc_ids() == scrambled.doc_ids() == sorted(ids)
        assert ordered.query("/rec/id/text()") == \
            scrambled.query("/rec/id/text()")


class TestUddiOrdering:
    def build(self, order):
        registry = ShardedUddiRegistry(shard_count=4)
        for i in order:
            registry.save_business(
                BusinessEntity(business_key=f"biz-{i:03d}",
                               name=f"Corp {i}"),
                publisher=f"pub{i % 3}")
        return registry

    def test_find_and_digest_survive_insertion_shuffle(self):
        order = list(range(15))
        shuffled = list(order)
        random.Random(61).shuffle(shuffled)
        a, b = self.build(order), self.build(shuffled)
        assert a.find_business("*") == b.find_business("*")
        assert a.state_digest() == b.state_digest()
