"""Property: a stream's epoch, pinned at admission, is never reclaimed
mid-stream — however writers interleave with chunk delivery.

Hypothesis generates an interleaving schedule: at every chunk boundary
of an in-flight stream, zero or more writers publish new epochs (point
edits that change the document bytes).  The driver asserts, at every
boundary, that the stream's pinned epoch is still alive (never in the
reclaimed list) — and at the end, that the delivered bytes are exactly
the admission-time snapshot's serialization, byte-identical, no torn
reads.  Abandoned streams (consumer stops early) must still release
their pin so the epoch is eventually reclaimed.
"""

import asyncio

from hypothesis import given, settings, strategies as st

from repro.gateway.core import AsyncRequestGateway
from repro.snap.intern import InternPool
from repro.snap.xmlstore import SnapshotXmlDatabase

BASE_XML = ("<doc>" + "".join(
    f"<rec id=\"{i}\"><v>value {i}</v></rec>" for i in range(12))
    + "</doc>")

#: Per-chunk-boundary writer activity: how many epochs the writer
#: publishes while the consumer holds that boundary.
schedules = st.lists(st.integers(min_value=0, max_value=3),
                     min_size=1, max_size=12)


def _engine():
    from repro.core.evaluator import PolicyEvaluator
    from repro.core.policy import PolicyBase
    return PolicyEvaluator(PolicyBase())


def make_db() -> SnapshotXmlDatabase:
    db = SnapshotXmlDatabase()
    db.create_collection("c")
    db.insert("c", "d", BASE_XML)
    db.publish()
    return db


class TestPinnedEpochSurvivesWriters:
    @settings(max_examples=60, deadline=None)
    @given(schedule=schedules, chunk_size=st.sampled_from([8, 32, 128]))
    def test_stream_bytes_are_admission_snapshot_bytes(
            self, schedule, chunk_size):
        db = make_db()
        expected = InternPool().serialize_document(
            db.current().document("c", "d"))

        async def scenario():
            gateway = AsyncRequestGateway(_engine(), store=db,
                                          auto_dispatch=False)
            stream = gateway.stream_document("t", "c", "d",
                                             chunk_size=chunk_size)
            pinned_epoch = db.epochs.current_epoch()
            edits = 0
            chunks = []
            boundary = 0
            async for chunk in stream:
                chunks.append(chunk)
                for _ in range(schedule[boundary % len(schedule)]):
                    edits += 1
                    gateway.write(lambda store, n=edits: store.set_text(
                        "c", "d", "/doc/rec/v", f"edit {n}"))
                boundary += 1
                # The pinned epoch must be alive at every boundary.
                assert not db.epochs.is_reclaimed(pinned_epoch)
                assert db.epochs.pins(pinned_epoch) == 1
            return "".join(chunks), pinned_epoch, edits

        delivered, pinned_epoch, edits = asyncio.run(scenario())
        assert delivered == expected
        # Stream finished: the pin is gone and — if writers advanced
        # the epoch — the old snapshot is reclaimable and reclaimed.
        assert db.epochs.pins(pinned_epoch) == 0
        if edits:
            assert db.epochs.is_reclaimed(pinned_epoch)
            current = InternPool().serialize_document(
                db.current().document("c", "d"))
            assert current != expected

    @settings(max_examples=25, deadline=None)
    @given(stop_after=st.integers(min_value=1, max_value=5),
           writer_epochs=st.integers(min_value=1, max_value=4))
    def test_abandoned_stream_releases_its_pin(self, stop_after,
                                               writer_epochs):
        db = make_db()

        async def scenario():
            gateway = AsyncRequestGateway(_engine(), store=db,
                                          auto_dispatch=False)
            stream = gateway.stream_document("t", "c", "d",
                                             chunk_size=8)
            pinned_epoch = db.epochs.current_epoch()
            seen = 0
            async for _chunk in stream:
                seen += 1
                if seen >= stop_after:
                    break                   # consumer walks away
            await stream.aclose()
            for index in range(writer_epochs):
                gateway.write(lambda store, n=index: store.set_text(
                    "c", "d", "/doc/rec/v", f"post-abandon {n}"))
            return pinned_epoch

        pinned_epoch = asyncio.run(scenario())
        assert db.epochs.pins(pinned_epoch) == 0
        assert db.epochs.is_reclaimed(pinned_epoch)

    @settings(max_examples=20, deadline=None)
    @given(streams=st.integers(min_value=2, max_value=5))
    def test_concurrent_streams_pin_independently(self, streams):
        """N interleaved streams admitted at different epochs each see
        their own admission-time bytes."""
        db = make_db()

        async def scenario():
            gateway = AsyncRequestGateway(_engine(), store=db,
                                          auto_dispatch=False)
            opened = []
            for index in range(streams):
                expected = InternPool().serialize_document(
                    db.current().document("c", "d"))
                opened.append((gateway.stream_document(
                    "t", "c", "d", chunk_size=16), expected))
                gateway.write(lambda store, n=index: store.set_text(
                    "c", "d", "/doc/rec/v", f"between-streams {n}"))
            # Drain round-robin so the streams interleave.
            pending = [(s, e, []) for s, e in opened]
            while pending:
                still = []
                for stream, expected, chunks in pending:
                    try:
                        chunks.append(await stream.__anext__())
                        still.append((stream, expected, chunks))
                    except StopAsyncIteration:
                        assert "".join(chunks) == expected
                pending = still

        asyncio.run(scenario())
