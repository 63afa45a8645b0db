"""Indexed node addressing against a linear reference resolver.

`resolve_spine` finds ``tag[k]`` through a per-node child index that is
derived state: filled on first resolve, inherited by a spine copy whose
slot keeps its tag, shared between nodes of one child shape and never
pickled.  These tests drive random trees through random sequences of
all five node edits on a :class:`SnapshotXmlDatabase` and the same
edits on the live :class:`XmlDatabase`, and check that indexed
addressing never picks a different node than a plain sibling scan.
"""

import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import SnapshotError
from repro.snap.frozen import (
    FrozenElement,
    _parse_path,
    parse_frozen,
    replace_spine,
    resolve,
    resolve_spine,
    shared_nodes,
)
from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.xmldb.database import XmlDatabase
from repro.xmldb.model import Element
from repro.xmldb.serializer import serialize, serialize_element

TAGS = ("a", "b", "c")


def reference_resolve(root: FrozenElement, path: str) -> FrozenElement:
    """The sibling scan indexed addressing replaced: the *k*-th child
    element with the segment's tag, counted from the first child."""
    segments = _parse_path(path)
    if root.tag != segments[0][0] or segments[0][1] != 1:
        raise SnapshotError(path)
    node = root
    for tag, position in segments[1:]:
        seen = 0
        for child in node.children:
            if not isinstance(child, str) and child.tag == tag:
                seen += 1
                if seen == position:
                    node = child
                    break
        else:
            raise SnapshotError(path)
    return node


@st.composite
def trees(draw, depth: int = 3) -> str:
    """XML text with repeated sibling tags and mixed text runs."""
    def element(level: int) -> str:
        tag = draw(st.sampled_from(TAGS))
        attrs = "".join(f' k{i}="v"'
                        for i in range(draw(st.integers(0, 1))))
        children = []
        if level:
            for _ in range(draw(st.integers(0, 4))):
                if draw(st.integers(0, 3)) == 0:
                    children.append(
                        draw(st.sampled_from(["t", "a&amp;b"])))
                else:
                    children.append(element(level - 1))
        return f"<{tag}{attrs}>{''.join(children)}</{tag}>"
    return f"<root>{element(depth)}{element(depth - 1)}</root>"


#: One step: an edit kind, the pre-order rank of its target among the
#: live document's elements (taken modulo their count), a payload
#: choice, and how far past the last sibling to misaddress (0: don't).
steps = st.lists(st.tuples(
    st.sampled_from(["text", "attr", "unattr", "append", "remove",
                     "read_old"]),
    st.integers(0, 10_000), st.sampled_from(TAGS), st.integers(0, 3)),
    min_size=1, max_size=25)


def live_edit(node: Element, kind: str, tag: str) -> None:
    if kind == "text":
        node.set_text(f"x{tag}")
    elif kind == "attr":
        node.set_attribute("k0", tag)
    elif kind == "unattr":
        node.remove_attribute("k0")
    elif kind == "append":
        node.append(Element(tag))
    else:
        node.parent.remove(node)


def snap_edit(db: SnapshotXmlDatabase, path: str, kind: str,
              tag: str) -> None:
    if kind == "text":
        db.set_text("c", "d", path, f"x{tag}")
    elif kind == "attr":
        db.set_attribute("c", "d", path, "k0", tag)
    elif kind == "unattr":
        db.remove_attribute("c", "d", path, "k0")
    elif kind == "append":
        db.append_child("c", "d", path, Element(tag))
    else:
        db.remove_child("c", "d", path)


def copied_by(kind: str, path: str, target: FrozenElement) -> int:
    """Elements of the new version that are not shared with the old:
    the root-to-target spine, less the removed node, plus an appended
    (freshly frozen) child."""
    depth = len(_parse_path(path))
    if kind == "remove":
        return depth - 1
    if kind == "unattr" and "k0" not in target.attributes:
        return 0                        # a no-op edit shares the root
    return depth + (kind == "append")


def misaddressed(path: str, extra: int, live: Element) -> str:
    """*path* with its last position moved *extra* past the last
    same-tag sibling, which must not resolve."""
    siblings = (1 if live.parent is None else
                sum(1 for s in live.parent.element_children
                    if s.tag == live.tag))
    head, _, _ = path.rpartition("[")
    return f"{head}[{siblings + extra}]"


def addressed(root: FrozenElement):
    """``(position-qualified path, node)`` for every element of *root*,
    found without the index."""
    stack = [(f"/{root.tag}[1]", root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        seen: dict[str, int] = {}
        for child in node.element_children:
            seen[child.tag] = seen.get(child.tag, 0) + 1
            stack.append((f"{path}/{child.tag}[{seen[child.tag]}]", child))


class TestIndexedAddressingDifferential:
    @given(trees(), steps)
    @settings(max_examples=150, deadline=None)
    def test_edits_match_the_live_database_and_the_reference(
            self, xml, script):
        live = XmlDatabase()
        live.create_collection("c")
        live_doc = live.collection("c").insert("d", xml)
        db = SnapshotXmlDatabase()
        db.create_collection("c")
        db.insert("c", "d", xml)
        history = []        # every root published so far, oldest first
        for kind, rank, tag, extra in script:
            elements = list(live_doc.root.iter())
            if kind == "remove":
                elements = elements[1:]
                if not elements:
                    continue
            node = elements[rank % len(elements)]
            path = node.node_path()
            old = db.current().document("c", "d").root
            history.append(old)
            if kind == "read_old":
                # A reader resolving through an earlier epoch fills
                # indexes its shared nodes carry into later ones.
                # The live path may not exist in that epoch: then both
                # resolvers must refuse it.
                past = history[rank % len(history)]
                try:
                    expected = reference_resolve(past, path)
                except SnapshotError:
                    with pytest.raises(SnapshotError):
                        resolve(past, path)
                else:
                    assert resolve(past, path) is expected
                continue
            target = reference_resolve(old, path)
            assert resolve(old, path) is target
            assert serialize_element(target) == serialize_element(node)
            if extra:
                wrong = misaddressed(path, extra, node)
                with pytest.raises(SnapshotError):
                    reference_resolve(old, wrong)
                with pytest.raises(SnapshotError):
                    resolve(old, wrong)
            snap_edit(db, path, kind, tag)
            live_edit(node, kind, tag)
            new = db.current().document("c", "d").root
            assert serialize_element(new) == serialize(live_doc)
            assert shared_nodes(old, new) == (
                new.size() - copied_by(kind, path, target))
        root = db.current().document("c", "d").root
        for path, node in addressed(root):
            assert resolve(root, path) is node
        indexed = [n for n in root.iter() if n._index is not None]
        copy = pickle.loads(pickle.dumps(root, protocol=5))
        assert serialize_element(copy) == serialize(live_doc)
        assert all(n._index is None for n in copy.iter())
        assert indexed or root.element_children == []


class CountingChildren(tuple):
    """A children tuple that records every slot read from it."""

    def __new__(cls, items, seen):
        self = super().__new__(cls, items)
        self.seen = seen
        return self

    def __getitem__(self, key):
        self.seen.append(key)
        return super().__getitem__(key)

    def __iter__(self):
        self.seen.append("iter")
        return super().__iter__()


class TestIndexCost:
    def test_an_indexed_resolve_visits_no_sibling(self):
        seen: list = []
        children = CountingChildren(
            [FrozenElement("c", {"n": str(i)}) for i in range(10_000)],
            seen)
        root = FrozenElement("p", None, children)
        assert resolve(root, "/p/c[9999]").attributes == {"n": "9998"}
        assert root._index is not None      # filled by the first walk
        seen.clear()
        assert resolve(root, "/p/c[9999]").attributes == {"n": "9998"}
        assert seen and set(seen) == {9998}

    def test_equal_shapes_share_one_index_and_copies_inherit_it(self):
        xml = "<r><a><x/><y/></a><a><x/><y/></a><b><x/></b></r>"
        db = SnapshotXmlDatabase()
        db.create_collection("c")
        db.insert("c", "d", xml)
        db.set_text("c", "d", "/r/a[1]/x", "1")
        db.set_text("c", "d", "/r/a[2]/y", "2")
        db.set_text("c", "d", "/r/b/x", "3")
        root = db.current().document("c", "d").root
        first, second, other = root.element_children
        assert first._index is second._index
        assert other._index is not first._index
        db.set_text("c", "d", "/r/a[2]/x", "4")
        after = db.current().document("c", "d").root
        assert after._index is root._index
        assert after.element_children[1]._index is first._index
        db.append_child("c", "d", "/r/a[1]", Element("z"))
        grown = db.current().document("c", "d").root.element_children[0]
        assert grown._index is None         # a new shape, filled later
        assert resolve(db.current().document("c", "d").root,
                       "/r/a[1]/z").tag == "z"
        assert grown._index is not first._index

    def test_a_replacement_with_another_tag_changes_the_shape(self):
        root = parse_frozen("<r><a/><b/></r>").root
        spine = resolve_spine(root, "/r/a")
        assert root._index == {"a": [0], "b": [1]}
        new = replace_spine(root, spine, FrozenElement("b"))
        assert new._index is None
        assert resolve(new, "/r/b[2]") is new.children[1]
        with pytest.raises(SnapshotError):
            resolve(new, "/r/a")


class TestConcurrentFill:
    def test_reader_threads_filling_indexes_agree_with_the_reference(self):
        """Readers race to fill the indexes of one unindexed tree (and
        the shared shape table) under a tiny switch interval: a torn
        fill would send some resolve to the wrong node."""
        xml = "<r>" + "".join(
            f"<a><b>{i}</b><c/><b>{i}</b></a><d>{i}</d>"
            for i in range(30)) + "</r>"
        root = parse_frozen(xml).root
        paths = [path for path, _ in addressed(root)]
        expected = [reference_resolve(root, path) for path in paths]
        wrong: list[str] = []

        def reader(offset: int) -> None:
            for step in range(len(paths)):
                k = (offset * 7 + step) % len(paths)
                if resolve(root, paths[k]) is not expected[k]:
                    wrong.append(paths[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(n,))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        # Racing fills of one shape may store distinct but equal maps.
        records = root.element_children[::2]
        assert all(record._index == {"b": [0, 2], "c": [1]}
                   for record in records)

