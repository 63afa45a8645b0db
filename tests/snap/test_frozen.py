"""Frozen trees: freeze/thaw fidelity and copy-on-write sharing."""

import pickle

import pytest

from repro.core.errors import SnapshotError
from repro.snap.frozen import (
    FrozenElement,
    freeze_document,
    freeze_element,
    resolve,
    shared_nodes,
    thaw_document,
    with_appended_child,
    with_attribute,
    with_text,
    without_attribute,
    without_child,
)
from repro.xmldb.parser import parse
from repro.xmldb.serializer import serialize, serialize_element

XML = ("<hospital><record id=\"1\"><name>Ann &amp; Bo</name>"
       "<diagnosis code=\"x\">flu</diagnosis></record>"
       "<record id=\"2\"><name>Cy</name></record></hospital>")


def frozen_root():
    return freeze_element(parse(XML).root)


class TestFreezeThaw:
    def test_roundtrip_is_byte_identical(self):
        document = parse(XML, name="d")
        frozen = freeze_document(document)
        assert serialize_element(frozen.root) == serialize(document)
        assert serialize(thaw_document(frozen)) == serialize(document)

    def test_frozen_document_version_is_constant(self):
        frozen = freeze_document(parse(XML))
        assert frozen.version == 0

    def test_read_surface_matches_element(self):
        live = parse(XML).root
        frozen = freeze_element(live)
        assert frozen.tag == live.tag
        assert [n.tag for n in frozen.iter()] == [n.tag
                                                  for n in live.iter()]
        assert frozen.find("record").attributes == {"id": "1"}
        assert [r.attributes["id"]
                for r in frozen.find_all("record")] == ["1", "2"]
        record = frozen.find("record")
        assert record.find("name").text == "Ann & Bo"
        assert frozen.size() == live.size()


class TestPathResolution:
    def test_resolve_addresses_positional_paths(self):
        root = frozen_root()
        node = resolve(root, "/hospital[1]/record[2]/name[1]")
        assert node.text == "Cy"
        assert resolve(root, "/hospital") is root

    def test_unqualified_segments_default_to_first(self):
        root = frozen_root()
        assert resolve(root, "/hospital/record/name").text == "Ann & Bo"

    def test_bad_paths_raise(self):
        root = frozen_root()
        with pytest.raises(SnapshotError):
            resolve(root, "/clinic/record")
        with pytest.raises(SnapshotError):
            resolve(root, "/hospital/record[9]")
        with pytest.raises(SnapshotError):
            resolve(root, "")

    def test_position_zero_is_refused_not_read_as_the_last_sibling(self):
        root = frozen_root()
        for path in ("/hospital/record[0]", "/hospital/record[00]",
                     "/hospital[0]"):
            with pytest.raises(SnapshotError, match="1-based"):
                resolve(root, path)
        with pytest.raises(SnapshotError):
            with_text(root, "/hospital/record[0]/name", "x")
        assert resolve(root, "/hospital/record[2]/name").text == "Cy"


class TestCopyOnWrite:
    def test_with_text_shares_everything_off_the_spine(self):
        old = frozen_root()
        new = with_text(old, "/hospital/record[1]/diagnosis", "cold")
        assert resolve(new, "/hospital/record[1]/diagnosis").text == "cold"
        # Old version untouched.
        assert resolve(old, "/hospital/record[1]/diagnosis").text == "flu"
        # 6 elements; spine hospital/record[1]/diagnosis copied,
        # name + record[2] subtree (2 nodes) shared.
        assert shared_nodes(old, new) == 3
        # Shared by *identity*, not just equality.
        assert (resolve(new, "/hospital/record[2]")
                is resolve(old, "/hospital/record[2]"))

    def test_attribute_edits(self):
        old = frozen_root()
        new = with_attribute(old, "/hospital/record[2]", "ward", "7")
        assert resolve(new, "/hospital/record[2]").attributes == {
            "id": "2", "ward": "7"}
        assert resolve(old, "/hospital/record[2]").attributes == {"id": "2"}
        back = without_attribute(new, "/hospital/record[2]", "ward")
        assert resolve(back, "/hospital/record[2]").attributes == {"id": "2"}

    def test_attribute_less_nodes_share_one_mapping_no_edit_writes_to(self):
        """Every attribute-less node holds the same empty mapping, so
        an edit that wrote to it in place would give an attribute to
        every such node in the process."""
        old = frozen_root()
        bare = [node for node in old.iter() if not node.attributes]
        assert len(bare) > 1
        assert len({id(node.attributes) for node in bare}) == 1
        assert FrozenElement("x").attributes is bare[0].attributes
        assert FrozenElement("x", {}).attributes is bare[0].attributes
        new = with_attribute(old, "/hospital/record[1]/name", "k", "v")
        assert resolve(new, "/hospital/record[1]/name").attributes == {
            "k": "v"}
        back = without_attribute(new, "/hospital/record[1]/name", "k")
        assert resolve(back, "/hospital/record[1]/name").attributes == {}
        thawed = thaw_document(freeze_document(parse(XML))).root
        thawed.set_attribute("k", "v")      # a thawed copy is private
        assert all(node.attributes == {} for node in bare)
        assert serialize_element(old) == XML

    def test_frozen_nodes_pickle_with_the_shared_mapping(self):
        old = frozen_root()
        copy = pickle.loads(pickle.dumps(old, protocol=5))
        assert serialize_element(copy) == XML
        assert resolve(copy, "/hospital/record[1]/name").attributes == {}

    def test_removing_an_absent_attribute_is_a_no_op_share(self):
        old = frozen_root()
        assert without_attribute(old, "/hospital/record[1]", "nope") is old

    def test_append_and_remove_child(self):
        old = frozen_root()
        extra = freeze_element(parse("<record id=\"3\"/>").root)
        new = with_appended_child(old, "/hospital", extra)
        assert [r.attributes["id"] for r in new.find_all("record")] == [
            "1", "2", "3"]
        pruned = without_child(new, "/hospital/record[2]")
        assert [r.attributes["id"]
                for r in pruned.find_all("record")] == ["1", "3"]

    def test_root_deletion_is_rejected(self):
        root = frozen_root()
        with pytest.raises(SnapshotError):
            without_child(root, "/hospital")

    def test_edits_preserve_serialization_equivalence_with_live(self):
        """Every frozen edit serializes exactly like the same live edit."""
        live = parse(XML, name="d")
        frozen = freeze_element(live.root)

        live.root.element_children[0].element_children[1].set_text("cold")
        frozen = with_text(frozen, "/hospital/record[1]/diagnosis", "cold")
        assert serialize_element(frozen) == serialize(live)

        live.root.element_children[1].set_attribute("ward", "7")
        frozen = with_attribute(frozen, "/hospital/record[2]", "ward", "7")
        assert serialize_element(frozen) == serialize(live)

        live.root.remove(live.root.element_children[0])
        frozen = without_child(frozen, "/hospital/record[1]")
        assert serialize_element(frozen) == serialize(live)
