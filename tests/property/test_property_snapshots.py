"""Property-based test: every retained snapshot of the copy-on-write
store is byte-identical to a serial replay of the same write prefix on
the live mutable model, and retired epochs are reclaimed only after
their last reader releases."""

from hypothesis import given, settings, strategies as st

from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.xmldb.model import Element
from repro.xmldb.parser import parse
from repro.xmldb.serializer import serialize

BASE_XML = "<doc><a><b>1</b></a><c attr=\"x\">2</c></doc>"

#: Paths that exist in BASE_XML for point edits (appends only add
#: fresh <n/> children under /doc/a, so these stay resolvable).
EDIT_PATHS = ["/doc", "/doc/a", "/doc/a/b", "/doc/c"]

TEXTS = ["", "v", "a&b", "<t>", "7"]


def live_resolve(root: Element, path: str) -> Element:
    """Serial-replay oracle's resolver: same first-match-per-segment
    semantics as :func:`repro.snap.frozen.resolve`."""
    node = root
    for tag in path.strip("/").split("/")[1:]:
        node = node.find(tag)
    return node


def apply_live(document, op) -> None:
    kind = op[0]
    if kind == "text":
        live_resolve(document.root, op[1]).set_text(op[2])
    elif kind == "attr":
        live_resolve(document.root, op[1]).set_attribute(op[2], op[3])
    elif kind == "append":
        live_resolve(document.root, "/doc/a").append(Element("n"))


def apply_snap(db: SnapshotXmlDatabase, op) -> None:
    kind = op[0]
    if kind == "text":
        db.set_text("c", "d", op[1], op[2])
    elif kind == "attr":
        db.set_attribute("c", "d", op[1], op[2], op[3])
    elif kind == "append":
        db.append_child("c", "d", "/doc/a", Element("n"))


@st.composite
def interleaving(draw):
    """A mixed sequence of writes and 'freeze' observation points."""
    steps = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(
            ["text", "attr", "append", "freeze", "freeze"]))
        if kind == "text":
            steps.append(("text", draw(st.sampled_from(EDIT_PATHS)),
                          draw(st.sampled_from(TEXTS))))
        elif kind == "attr":
            steps.append(("attr", draw(st.sampled_from(EDIT_PATHS)),
                          draw(st.sampled_from(["k", "k2"])),
                          draw(st.sampled_from(TEXTS))))
        else:
            steps.append((kind,))
    steps.append(("freeze",))
    return steps


class TestSnapshotEquivalence:
    @given(interleaving())
    @settings(max_examples=120, deadline=None)
    def test_retained_snapshots_replay_their_write_prefix(self, steps):
        db = SnapshotXmlDatabase()
        db.create_collection("c")
        db.insert("c", "d", BASE_XML)
        oracle_doc = parse(BASE_XML, name="d")
        retained = []  # (pinned snapshot, oracle bytes at that point)
        for step in steps:
            if step[0] == "freeze":
                retained.append((db.epochs.acquire(),
                                 serialize(oracle_doc)))
            else:
                apply_snap(db, step)
                apply_live(oracle_doc, step)
        # Writes that happened *after* a snapshot was pinned must not
        # leak into it: each pinned epoch replays exactly its prefix.
        for snapshot, expected in retained:
            assert snapshot.serialize("c", "d") == expected
        # And the Merkle roots agree with a fresh parse of the bytes.
        for snapshot, expected in retained:
            from repro.merkle.xml_merkle import document_hash
            assert (snapshot.merkle_root("c", "d")
                    == document_hash(parse(expected, name="d")))
        for snapshot, _ in retained:
            db.epochs.release(snapshot)

    @given(interleaving())
    @settings(max_examples=60, deadline=None)
    def test_reclamation_waits_for_the_last_release(self, steps):
        db = SnapshotXmlDatabase()
        db.create_collection("c")
        db.insert("c", "d", BASE_XML)
        pinned = []
        for step in steps:
            if step[0] == "freeze":
                pinned.append(db.epochs.acquire())
            else:
                apply_snap(db, step)
        current = db.epochs.current_epoch()
        superseded = sorted({s.epoch for s in pinned
                             if s.epoch != current})
        # Every pinned, superseded epoch is retired — not reclaimed.
        assert db.epochs.retired_epochs() == superseded
        assert not any(db.epochs.is_reclaimed(epoch)
                       for epoch in superseded)
        for snapshot in pinned:
            db.epochs.release(snapshot)
        # All pins dropped: everything superseded is now reclaimed.
        assert db.epochs.retired_epochs() == []
        assert all(db.epochs.is_reclaimed(epoch) for epoch in superseded)
