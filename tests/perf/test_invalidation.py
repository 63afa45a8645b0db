"""Property test: no answer differs from a from-scratch recomputation.

For random interleavings of grants/revokes and document edits:

* relational privilege checks (System R, uncached) equal a brute-force
  walk of the grant list, and repeated restriction lookups agree — the
  reference oracle for the grant graph;
* cached Author-X label maps equal the uncached and per-policy
  labellings — the correctness contract of the generation-stamp
  protocol.
"""

from hypothesis import given, settings, strategies as st

from repro.core.credentials import anyone, has_role, is_identity
from repro.core.errors import AccessDenied
from repro.core.subjects import Role, Subject
from repro.relational.authorization import AuthorizationManager, Privilege
from repro.xmldb.model import Document, element
from repro.xmlsec.authorx import XmlPolicyBase, xml_deny, xml_grant

SUBJECTS = [Subject("dr", roles={Role("doctor")}),
            Subject("nn", roles={Role("nurse")}),
            Subject("zz")]

EXPRESSIONS = [anyone(), has_role("doctor"), has_role("nurse"),
               is_identity("zz")]


@st.composite
def relational_ops(draw):
    ops = []
    for _ in range(draw(st.integers(2, 20))):
        ops.append((draw(st.sampled_from(
            ["grant", "revoke", "check", "check", "restrict"])),
            draw(st.sampled_from(["dba", "alice", "bob"])),
            draw(st.sampled_from(["alice", "bob", "carol"])),
            draw(st.booleans())))
    return ops


class TestRelationalCacheInvariant:
    @staticmethod
    def uncached_has_privilege(manager, user):
        if manager.owners().get("t") == user:
            return True
        return bool(manager.grants_for(user, "t", Privilege.SELECT))

    @given(relational_ops())
    @settings(max_examples=120, deadline=None)
    def test_cached_check_equals_recomputation(self, ops):
        manager = AuthorizationManager()
        manager.set_owner("t", "dba")
        for kind, grantor, grantee, option in ops:
            if kind == "grant":
                try:
                    manager.grant(grantor, grantee, "t",
                                  Privilege.SELECT,
                                  with_grant_option=option)
                except AccessDenied:
                    pass
            elif kind == "revoke":
                try:
                    manager.revoke(grantor, grantee, "t",
                                   Privilege.SELECT)
                except Exception:
                    pass
            elif kind == "check":
                for user in ["dba", "alice", "bob", "carol"]:
                    assert manager.has_privilege(
                        user, "t", Privilege.SELECT
                    ) == self.uncached_has_privilege(manager, user)
            elif kind == "restrict":
                try:
                    first = manager.restriction(grantee, "t",
                                                Privilege.SELECT)
                except AccessDenied:
                    continue
                # A second call returns the same restriction.
                assert manager.restriction(
                    grantee, "t", Privilege.SELECT) == first


def fresh_document():
    return Document(element(
        "hospital", None, None,
        element("record", None, {"id": "r1"},
                element("name", "alice"),
                element("diagnosis", "flu")),
        element("record", None, {"id": "r2"},
                element("name", "bob"),
                element("diagnosis", "ok")),
        element("billing", None, None,
                element("amount", "100"))), name="d1")


XML_TARGETS = ["/hospital", "//record", "//record/diagnosis",
               "//record[@id='r1']", "//billing", "//name"]


@st.composite
def labelling_ops(draw):
    ops = []
    for _ in range(draw(st.integers(2, 20))):
        kind = draw(st.sampled_from(
            ["add_grant", "add_deny", "remove", "edit_text",
             "edit_attr", "add_child", "label", "label"]))
        ops.append((kind,
                    draw(st.sampled_from(XML_TARGETS)),
                    draw(st.integers(0, len(EXPRESSIONS) - 1)),
                    draw(st.integers(0, 5))))
    return ops


class TestLabelCacheInvariant:
    @given(labelling_ops())
    @settings(max_examples=100, deadline=None)
    def test_cached_labels_equal_uncached_and_per_policy(self, ops):
        base = XmlPolicyBase()
        doc = fresh_document()
        added = []
        for kind, target, expr_index, pick in ops:
            expr = EXPRESSIONS[expr_index]
            if kind == "add_grant":
                added.append(base.add(xml_grant(expr, target)))
            elif kind == "add_deny":
                added.append(base.add(xml_deny(expr, target)))
            elif kind == "remove" and added:
                base.remove(added.pop(pick % len(added)))
            elif kind == "edit_text":
                nodes = list(doc.iter())
                nodes[pick % len(nodes)].set_text(f"edited-{pick}")
            elif kind == "edit_attr":
                nodes = list(doc.iter())
                nodes[pick % len(nodes)].set_attribute("mark", str(pick))
            elif kind == "add_child":
                nodes = list(doc.iter())
                nodes[pick % len(nodes)].append(element("diagnosis",
                                                        "new"))
            elif kind == "label":
                subject = SUBJECTS[pick % len(SUBJECTS)]
                hot = base.label_document(subject, "d1", doc)
                cold = base.label_document(subject, "d1", doc,
                                           use_cache=False)
                oracle = base.label_document_per_policy(subject, "d1",
                                                        doc)
                assert hot == cold
                assert hot == oracle
