"""Streaming dissemination: byte-identity, interning, epoch pinning."""

import asyncio
import random
from contextlib import contextmanager

import pytest

from repro.core.errors import ConfigurationError
from repro.gateway import DEFAULT_CHUNK_SIZE, serialize_pieces
from repro.gateway.admission import ManualClock, TenantConfig
from repro.gateway.core import AsyncRequestGateway
from repro.gateway.streaming import chunked
from repro.snap import intern
from repro.snap.frozen import freeze_document
from repro.snap.intern import InternPool
from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.xmldb.parser import parse
from repro.xmldb.serializer import serialize_element

DOCS = [
    "<doc/>",
    "<doc>text</doc>",
    "<doc><a x=\"1\" b=\"2\">hi</a><b/><a x=\"1\" b=\"2\">hi</a></doc>",
    "<r><v>a&amp;b</v><v>&lt;tag&gt;</v><v attr=\"a&quot;b\"/></r>",
    "<deep><a><b><c><d>x</d></c></b></a></deep>",
]


#: 60 records of ~100 characters: the document outgrows a chunk, each
#: record fits in one, and every record has a non-leaf child of its own.
BIG_XML = "<doc>" + "".join(
    f"<rec id=\"{i}\"><name>entity {i}</name>"
    f"<vals><v>payload {i}</v><w>more {i}</w></vals></rec>"
    for i in range(60)) + "</doc>"


def count_serialized(monkeypatch) -> list[str]:
    """Record the tag of every element the walk serializes from now on
    (each one opens exactly one tag)."""
    opened: list[str] = []
    open_tag = intern._open_tag

    def counting(node):
        opened.append(node.tag)
        return open_tag(node)

    monkeypatch.setattr(intern, "_open_tag", counting)
    return opened


def held_strings(value) -> list[str]:
    """The strings a pool entry holds, by reference: a rope's leaves."""
    if isinstance(value, str):
        return [value]
    return [string for piece in value for string in held_strings(piece)]


def fragment_counts(pool: InternPool) -> tuple[int, int]:
    stats = pool.stats()["fragments"]
    return stats["hits"], stats["misses"]


def random_xml(rng: random.Random, depth: int = 4) -> str:
    def element(level: int) -> str:
        tag = rng.choice("abcde")
        attrs = "".join(f' k{i}="{rng.randrange(10)}"'
                        for i in range(rng.randrange(3)))
        if level == 0 or rng.random() < 0.3:
            return (f"<{tag}{attrs}/>" if rng.random() < 0.5
                    else f"<{tag}{attrs}>t{rng.randrange(100)}</{tag}>")
        children = "".join(element(level - 1)
                           for _ in range(rng.randrange(1, 4)))
        return f"<{tag}{attrs}>{children}</{tag}>"
    return f"<root>{element(depth)}</root>"


class TestByteIdentity:
    @pytest.mark.parametrize("xml", DOCS)
    def test_pieces_concatenate_to_serial_serialization(self, xml):
        frozen = freeze_document(parse(xml, "d"))
        assert "".join(serialize_pieces(frozen.root)) == \
            serialize_element(parse(xml, "d").root)

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 4096])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chunks_concatenate_identically_any_chunk_size(
            self, seed, chunk_size):
        xml = random_xml(random.Random(seed))
        frozen = freeze_document(parse(xml, "d"))
        pool = InternPool()
        expected = pool.serialize(frozen.root)
        assert "".join(chunked(serialize_pieces(frozen.root, pool),
                               chunk_size)) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_stream_without_pool_matches_stream_with_pool(self, seed):
        xml = random_xml(random.Random(100 + seed))
        frozen = freeze_document(parse(xml, "d"))
        pool = InternPool()
        pool.serialize(frozen.root)     # warm every fragment
        bare, warmed = ("".join(chunked(serialize_pieces(frozen.root, p),
                                        DEFAULT_CHUNK_SIZE))
                        for p in (None, pool))
        assert bare == warmed == pool.serialize(frozen.root)


class TestChunkBoundaries:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 4096])
    def test_every_chunk_but_the_last_is_exact_cold_and_warm(
            self, chunk_size):
        frozen = freeze_document(parse(BIG_XML, "d"))
        pool = InternPool()
        cold, warm = (list(chunked(serialize_pieces(frozen.root, pool),
                                   chunk_size)) for _ in range(2))
        assert cold == warm
        assert "".join(cold) == BIG_XML
        assert {len(chunk) for chunk in cold[:-1]} <= {chunk_size}
        assert 1 <= len(cold[-1]) <= chunk_size

    def test_exact_multiple_of_chunk_size_has_no_empty_tail(self):
        frozen = freeze_document(parse("<doc>abcdef</doc>", "d"))
        assert list(chunked(serialize_pieces(frozen.root), 4)) == [
            "<doc", ">abc", "def<", "/doc", ">"]

    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_chunk_size_below_one_is_refused(self, chunk_size):
        frozen = freeze_document(parse("<doc/>", "d"))
        with pytest.raises(ConfigurationError):
            list(chunked(serialize_pieces(frozen.root), chunk_size))


class TestInternReuse:
    """The walk fills the pool it reads: strs for the maximal subtrees
    that fit in a chunk, ropes above them."""

    def test_cold_walk_interns_and_warm_walk_is_one_probe(
            self, monkeypatch):
        frozen = freeze_document(parse(BIG_XML, "d"))
        pool = InternPool()
        opened = count_serialized(monkeypatch)
        cold = "".join(serialize_pieces(frozen.root, pool))
        assert cold == BIG_XML
        assert len(opened) == frozen.size()     # each element, once
        # One probe per non-leaf element (doc, 60 rec, 60 vals), all
        # misses; the leaves were never looked up.
        assert fragment_counts(pool) == (0, 121)
        opened.clear()
        warm = list(serialize_pieces(frozen.root, pool))
        assert "".join(warm) == BIG_XML
        assert fragment_counts(pool) == (1, 121)    # one probe, a hit
        assert opened == []                         # no node visited
        assert warm == [BIG_XML]    # the rope, flattened in one piece

    def test_pool_holds_maximal_strings_under_ropes(self):
        frozen = freeze_document(parse(BIG_XML, "d"))
        pool = InternPool()
        pool.serialize(frozen.root)
        entries = dict(pool._fragments._entries)
        records = frozen.root.element_children
        # The records are the maximal subtrees that fit in a chunk:
        # nothing below them is held a second time, no leaf is held.
        assert set(entries) == {frozen.root, *records}
        rope = entries[frozen.root]
        assert isinstance(rope, tuple)
        assert all(isinstance(entries[record], str)
                   and len(entries[record]) <= DEFAULT_CHUNK_SIZE
                   for record in records)
        # The rope refers to the records' strings, it does not copy.
        assert [id(piece) for piece in rope[1:-1]] == [
            id(entries[record]) for record in records]
        assert rope[0] == "<doc>" and rope[-1] == "</doc>"

    def test_document_that_fits_in_a_chunk_is_one_string(self):
        frozen = freeze_document(parse(
            "<doc><a><b>x</b></a><c/></doc>", "d"))
        pool = InternPool()
        pool.serialize(frozen.root)
        assert dict(pool._fragments._entries) == {
            frozen.root: "<doc><a><b>x</b></a><c/></doc>"}

    def test_ropes_nest_and_no_string_outgrows_a_chunk(self):
        xml = "<lib>" + "".join(
            "<shelf>" + "".join(
                f"<book><t>title {s}-{b}</t><a><n>author {b}</n></a>"
                f"</book>" for b in range(80)) + "</shelf>"
            for s in range(3)) + "</lib>"
        frozen = freeze_document(parse(xml, "d"))
        pool = InternPool()
        assert pool.serialize(frozen.root) == xml
        entries = dict(pool._fragments._entries)
        shelves = frozen.root.element_children
        assert all(isinstance(entries[shelf], tuple) for shelf in shelves)
        assert [id(piece) for piece in entries[frozen.root][1:-1]] == [
            id(entries[shelf]) for shelf in shelves]
        assert max(len(value) for value in entries.values()
                   if isinstance(value, str)) <= DEFAULT_CHUNK_SIZE
        assert pool.serialize(frozen.root) == xml       # from the ropes
        assert list(serialize_pieces(frozen.root, pool)) == [xml]

    def test_one_long_text_run_is_the_documented_exception(self):
        xml = f"<doc><a><b>{'x' * 10_000}</b></a><c>y</c></doc>"
        frozen = freeze_document(parse(xml, "d"))
        pool = InternPool()
        assert pool.serialize(frozen.root) == xml
        assert pool.serialize(frozen.root) == xml
        held = {id(piece): len(piece)
                for value in pool._fragments._entries.values()
                for piece in held_strings(value)}
        assert max(held.values()) == len(f"<b>{'x' * 10_000}</b>")
        assert sum(held.values()) == len(xml)       # each byte once

    def test_after_one_set_text_only_the_copied_spine_is_serialized(
            self, monkeypatch):
        db = SnapshotXmlDatabase()
        db.create_collection("c")
        db.insert("c", "d", BIG_XML)
        db.current().serialize("c", "d")
        db.set_text("c", "d", "/doc/rec[7]/vals/v", "edited")
        opened = count_serialized(monkeypatch)
        hits, misses = fragment_counts(db.pool)
        after = db.current().serialize("c", "d")
        assert after == BIG_XML.replace("payload 6", "edited")
        # Derived from the version read before the edit: the record's
        # string is spliced where the old <v> stood, so only the old
        # and the new <v> are serialized, and the other 59 records are
        # re-linked by reference.  Two probes: the new root misses, its
        # base hits.  (A walk opened doc, rec, name, vals, v and w and
        # made 62 probes: 59 hits and 3 misses.)
        assert sorted(opened) == ["v", "v"]
        assert fragment_counts(db.pool) == (hits + 1, misses + 1)

    def test_abandoned_walk_leaves_the_pool_consistent(self):
        frozen = freeze_document(parse(BIG_XML, "d"))
        pool = InternPool()
        walk = serialize_pieces(frozen.root, pool)
        assert len(next(walk)) < len(BIG_XML)     # abandoned part-way
        walk.close()
        for node, value in pool._fragments._entries.items():
            assert "".join(held_strings(value)) == serialize_element(node)
        assert pool.serialize(frozen.root) == BIG_XML


class TestGatewayStreaming:
    def make_db(self):
        db = SnapshotXmlDatabase()
        db.create_collection("c")
        db.insert("c", "d1",
                  "<doc><a x=\"1\">hello &amp; bye</a><b/></doc>")
        db.publish()
        return db

    def test_stream_document_matches_snapshot_serializer(self):
        db = self.make_db()
        router_free_engine = _tiny_engine()

        async def scenario():
            gateway = AsyncRequestGateway(router_free_engine, store=db,
                                          auto_dispatch=False)
            text = "".join([chunk async for chunk in gateway.stream_document(
                "t", "c", "d1", chunk_size=8)])
            return text, gateway.stats.snapshot()

        text, stats = asyncio.run(scenario())
        assert text == db.pool.serialize_document(
            db.current().document("c", "d1"))
        assert stats["streams"] == 1
        assert stats["stream_chunks"] >= 2
        assert stats["completed"] == 1

    def test_stream_sees_admission_epoch_despite_writes(self):
        db = self.make_db()
        # Expected bytes via a *separate* pool, so the gateway's pool
        # stays cold and the stream yields several real chunks.
        before = InternPool().serialize_document(
            db.current().document("c", "d1"))

        async def scenario():
            gateway = AsyncRequestGateway(_tiny_engine(), store=db,
                                          auto_dispatch=False)
            chunks = []
            stream = gateway.stream_document("t", "c", "d1",
                                             chunk_size=4)
            async for chunk in stream:
                chunks.append(chunk)
                # A writer publishes a new epoch between every chunk.
                gateway.write(lambda store: store.set_text(
                    "c", "d1", "/doc/a", f"edit{len(chunks)}"))
            return "".join(chunks), gateway.stats.snapshot()

        text, stats = asyncio.run(scenario())
        assert text == before               # pinned epoch, old bytes
        assert stats["epochs_advanced"] >= 2
        after = db.pool.serialize_document(
            db.current().document("c", "d1"))
        assert after != before

    def test_stream_releases_pin_on_consumer_abandon(self):
        db = self.make_db()

        async def scenario():
            gateway = AsyncRequestGateway(_tiny_engine(), store=db,
                                          auto_dispatch=False)
            stream = gateway.stream_document("t", "c", "d1",
                                             chunk_size=2)
            await stream.__anext__()
            await stream.aclose()           # consumer walks away
            epoch = db.epochs.current_epoch()
            assert db.epochs.pins(epoch) == 0

        asyncio.run(scenario())

    def test_stream_closed_before_its_first_chunk_releases_the_pin(self):
        db = self.make_db()

        async def scenario():
            gateway = AsyncRequestGateway(_tiny_engine(), store=db,
                                          auto_dispatch=False)
            stream = gateway.stream_document("t", "c", "d1")
            await stream.aclose()           # never iterated
            with pytest.raises(StopAsyncIteration):
                await stream.__anext__()
            return gateway.stats.snapshot()

        stats = asyncio.run(scenario())
        assert db.epochs.stats.acquires == db.epochs.stats.releases == 1
        assert db.epochs.pins(db.epochs.current_epoch()) == 0
        assert (stats["streams"], stats["completed"], stats["failed"],
                stats["stream_chunks"]) == (1, 0, 1, 0)

    def test_stream_dropped_before_its_first_chunk_releases_the_pin(self):
        db = self.make_db()

        async def scenario():
            gateway = AsyncRequestGateway(_tiny_engine(), store=db,
                                          auto_dispatch=False)
            gateway.stream_document("t", "c", "d1")   # dropped at once
            gateway.write(lambda store: store.set_text(
                "c", "d1", "/doc/a", "next epoch"))
            return gateway.stats.snapshot()

        stats = asyncio.run(scenario())
        assert db.epochs.stats.acquires == db.epochs.stats.releases == 1
        assert db.epochs.retired_epochs() == []     # nothing held back
        assert (stats["completed"], stats["failed"]) == (0, 1)

    def test_write_hands_fn_what_the_writer_block_yields(self):
        handle = object()

        class Db(SnapshotXmlDatabase):
            @contextmanager
            def writer(self):
                with super().writer():
                    yield handle

        async def scenario():
            gateway = AsyncRequestGateway(_tiny_engine(), store=Db(),
                                          auto_dispatch=False)
            return gateway.write(lambda store: store)

        assert asyncio.run(scenario()) is handle

    def test_first_and_second_stream_count_the_same_chunks(self):
        db = SnapshotXmlDatabase()
        db.create_collection("c")
        db.insert("c", "d", BIG_XML)

        async def scenario():
            gateway = AsyncRequestGateway(_tiny_engine(), store=db,
                                          auto_dispatch=False)
            counts = []
            for _ in range(2):
                [_ async for _ in gateway.stream_document(
                    "t", "c", "d", chunk_size=512)]
                counts.append(gateway.stats.stream_chunks)
            return counts

        expected = -(-len(BIG_XML) // 512)
        assert asyncio.run(scenario()) == [expected, 2 * expected]

    def test_a_stream_runs_to_its_end_without_a_loop_turn(self):
        db = SnapshotXmlDatabase()
        db.create_collection("c")
        db.insert("c", "d", BIG_XML)

        async def scenario():
            gateway = AsyncRequestGateway(_tiny_engine(), store=db,
                                          auto_dispatch=False)
            probe = []
            asyncio.get_running_loop().call_soon(probe.append, "ran")
            seen = []
            async for chunk in gateway.stream_document(
                    "t", "c", "d", chunk_size=-(-len(BIG_XML) // 4)):
                seen.append((chunk, list(probe)))
            return seen

        seen = asyncio.run(scenario())
        assert "".join(chunk for chunk, _ in seen) == BIG_XML
        # No chunk suspended: the probe had not run at the last one.
        assert [probed for _, probed in seen] == [[]] * 4

    def test_stream_without_store_is_a_configuration_error(self):
        async def scenario():
            gateway = AsyncRequestGateway(_tiny_engine(),
                                          auto_dispatch=False)
            with pytest.raises(ConfigurationError):
                gateway.stream("t", lambda snapshot: snapshot)

        asyncio.run(scenario())

    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_bad_chunk_size_is_refused_before_admission(self, chunk_size):
        """Refused at the call: no token charged, no counter moved, no
        epoch pinned (it used to fail only on the first chunk, after
        all three, as a failed stream)."""
        db = self.make_db()

        async def scenario():
            gateway = AsyncRequestGateway(
                _tiny_engine(), store=db, auto_dispatch=False,
                clock=ManualClock(),
                default_tenant=TenantConfig(rate=1.0, burst=2.0))
            gateway.register("t")
            bucket = gateway.admission._buckets["t"]
            with pytest.raises(ConfigurationError, match="chunk_size"):
                gateway.stream_document("t", "c", "d1",
                                        chunk_size=chunk_size)
            return bucket.tokens(), gateway.stats.snapshot()

        tokens, stats = asyncio.run(scenario())
        assert tokens == 2.0
        assert [stats[key] for key in (
            "admitted", "streams", "snapshot_reads", "completed",
            "failed", "rejected", "shed")] == [0] * 7
        assert db.epochs.stats.acquires == db.epochs.stats.releases


def _tiny_engine():
    from repro.core.evaluator import PolicyEvaluator
    from repro.core.policy import PolicyBase
    return PolicyEvaluator(PolicyBase())
