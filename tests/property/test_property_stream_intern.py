"""Property: streams intern what they serialize and stay byte-identical.

Random trees (some outgrowing a chunk, so ropes form) × random edit
sequences × pool capacities × chunk sizes: every streamed body — cold
and warm, at every epoch — equals
:func:`repro.xmldb.serializer.serialize_element` of the thawed tree,
with every chunk but the last exactly ``chunk_size`` characters.  A
stream abandoned or faulted mid-walk leaves the pool consistent, and
two cold streams of one document interleaved chunk by chunk both come
out right.
"""

import asyncio

from hypothesis import given, settings, strategies as st

from repro.core.errors import TransportError
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.gateway import AsyncRequestGateway, TenantConfig
from repro.snap.frozen import thaw_document
from repro.snap.intern import InternPool
from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.xmldb.model import Document, Element
from repro.xmldb.serializer import serialize_element

TAGS = ["a", "b", "c"]
#: Short runs, runs that need escaping, and runs long enough that a
#: handful outgrow a chunk (one outgrows it alone).
TEXTS = ["", "v", "a&b<c>", "x" * 300, "y" * 1500, "z" * 5000]
ATTRIBUTES = st.dictionaries(st.sampled_from(["k", "id"]),
                             st.sampled_from(["", "1", "a\"b&c"]),
                             max_size=2)

trees = st.recursive(
    st.tuples(st.sampled_from(TAGS), ATTRIBUTES, st.just([])),
    lambda children: st.tuples(
        st.sampled_from(TAGS), ATTRIBUTES,
        st.lists(st.one_of(st.sampled_from(TEXTS), children),
                 max_size=5)),
    max_leaves=25)

#: (kind, element selector, payload selector); selectors are taken
#: modulo what the tree holds when the edit is applied.
edits = st.lists(
    st.tuples(st.sampled_from(["text", "attr", "append", "remove"]),
              st.integers(0, 1000), st.integers(0, 1000)),
    max_size=5)
capacities = st.sampled_from([1, 8, None])
chunk_sizes = st.sampled_from([1, 7, 64, 4096])


def build(tree) -> Element:
    tag, attributes, children = tree
    element = Element(tag, dict(attributes))
    for child in children:
        element.append(child if isinstance(child, str) else build(child))
    return element


def element_paths(root) -> list[str]:
    """Position-qualified paths of every element, document order."""
    paths = []
    stack = [(root, f"/{root.tag}[1]")]
    while stack:
        node, path = stack.pop()
        paths.append(path)
        seen: dict[str, int] = {}
        for child in node.element_children:
            seen[child.tag] = seen.get(child.tag, 0) + 1
            stack.append((child, f"{path}/{child.tag}[{seen[child.tag]}]"))
    return paths


def apply_edit(db: SnapshotXmlDatabase, edit) -> None:
    kind, which, what = edit
    paths = element_paths(db.current().document("c", "d").root)
    path = paths[which % len(paths)]
    if kind == "text":
        db.set_text("c", "d", path, TEXTS[what % len(TEXTS)])
    elif kind == "attr":
        db.set_attribute("c", "d", path, "k", TEXTS[what % 3])
    elif kind == "append":
        db.append_child("c", "d", path, build(
            (TAGS[what % 3], {}, [TEXTS[what % len(TEXTS)]])))
    elif len(paths) > 1:
        db.remove_child("c", "d", paths[1 + which % (len(paths) - 1)])


def make_db(tree, capacity) -> SnapshotXmlDatabase:
    db = SnapshotXmlDatabase(
        pool=InternPool() if capacity is None
        else InternPool(fragment_capacity=capacity))
    db.create_collection("c")
    db.insert("c", "d", Document(build(tree), "d"))
    return db


def make_gateway(db, faults=None) -> AsyncRequestGateway:
    from repro.core.evaluator import PolicyEvaluator
    from repro.core.policy import PolicyBase
    return AsyncRequestGateway(
        PolicyEvaluator(PolicyBase()), store=db,
        faults=faults, auto_dispatch=False,
        default_tenant=TenantConfig(rate=1e9, burst=1e9))


def expected_bytes(db) -> str:
    return serialize_element(
        thaw_document(db.current().document("c", "d")).root)


class TestStreamsInternWhatTheySerialize:
    @settings(max_examples=60, deadline=None)
    @given(tree=trees, ops=edits, capacity=capacities,
           chunk_size=chunk_sizes)
    def test_cold_and_warm_streams_match_the_serializer_at_every_epoch(
            self, tree, ops, capacity, chunk_size):
        db = make_db(tree, capacity)

        async def scenario():
            gateway = make_gateway(db)
            for edit in [None, *ops]:
                if edit is not None:
                    apply_edit(db, edit)
                expected = expected_bytes(db)
                for _ in range(2):                  # cold, then warm
                    chunks = [chunk async for chunk in
                              gateway.stream_document(
                                  "t", "c", "d", chunk_size=chunk_size)]
                    assert "".join(chunks) == expected
                    assert all(len(chunk) == chunk_size
                               for chunk in chunks[:-1])
                    assert 1 <= len(chunks[-1]) <= chunk_size
                # The serial entry point is the same walk.
                assert db.current().serialize("c", "d") == expected
            return gateway.stats.snapshot()

        stats = asyncio.run(scenario())
        assert stats["completed"] == stats["streams"]
        assert db.epochs.stats.acquires == db.epochs.stats.releases

    @settings(max_examples=40, deadline=None)
    @given(tree=trees, capacity=capacities,
           chunk_size=st.sampled_from([7, 64]),
           stop_after=st.integers(0, 40), fault=st.booleans())
    def test_abandoned_or_faulted_stream_leaves_the_pool_consistent(
            self, tree, capacity, chunk_size, stop_after, fault):
        db = make_db(tree, capacity)
        expected = expected_bytes(db)

        async def scenario():
            if fault:
                plan = FaultPlan()
                plan.add("agateway:stream", stop_after, FaultKind.CRASH)
                broken = make_gateway(db, FaultInjector(plan))
                try:
                    [_ async for _ in broken.stream_document(
                        "t", "c", "d", chunk_size=chunk_size)]
                except TransportError:
                    pass
            else:
                stream = make_gateway(db).stream_document(
                    "t", "c", "d", chunk_size=chunk_size)
                for _ in range(stop_after):
                    try:
                        await stream.__anext__()
                    except StopAsyncIteration:
                        break
                await stream.aclose()               # consumer walks away
            return ["".join([chunk async for chunk in
                             make_gateway(db).stream_document(
                                 "t", "c", "d", chunk_size=chunk_size)])
                    for _ in range(2)]

        assert asyncio.run(scenario()) == [expected, expected]
        assert db.epochs.stats.acquires == db.epochs.stats.releases

    @settings(max_examples=40, deadline=None)
    @given(tree=trees, capacity=capacities,
           chunk_size=st.sampled_from([7, 64, 4096]))
    def test_two_cold_streams_interleaved_chunk_by_chunk(
            self, tree, capacity, chunk_size):
        db = make_db(tree, capacity)
        expected = expected_bytes(db)

        async def scenario():
            gateway = make_gateway(db)
            pending = [(gateway.stream_document(
                "t", "c", "d", chunk_size=chunk_size), [])
                for _ in range(2)]
            bodies = []
            while pending:
                still = []
                for stream, chunks in pending:
                    try:
                        chunks.append(await stream.__anext__())
                        still.append((stream, chunks))
                    except StopAsyncIteration:
                        bodies.append("".join(chunks))
                pending = still
            return bodies

        assert asyncio.run(scenario()) == [expected, expected]
