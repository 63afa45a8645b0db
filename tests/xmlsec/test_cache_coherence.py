"""The Author-X label cache carries its stamp in the key.

It keys an entry by the subject and document it was computed for plus
``(policy generation, document version)``.  So after a policy add, a
policy remove or an in-place document edit, it must return what an
uncached computation returns.  The keys the mutations strand must not
grow the cache past its ``maxsize``.
"""

import pytest

from repro.core.credentials import has_role
from repro.core.subjects import Role, Subject
from repro.xmldb.model import Document, element
from repro.xmlsec.authorx import XmlPolicyBase, xml_deny, xml_grant

DOCTOR = Subject("dr", roles={Role("doctor")})


def hospital() -> Document:
    return Document(element(
        "hospital", None, None,
        element("record", None, {"id": "r1"},
                element("name", "alice"), element("diagnosis", "flu")),
        element("record", None, {"id": "r2"},
                element("name", "bob"), element("diagnosis", "ok"))),
        name="d1")


class Labels:
    def __init__(self, base):
        self.base = base
        self.cache = base._label_cache

    def cached(self, doc):
        return self.base.label_document(DOCTOR, "d1", doc)

    def uncached(self, doc):
        return self.base.label_document(DOCTOR, "d1", doc, use_cache=False)


@pytest.fixture
def setup():
    base = XmlPolicyBase([xml_grant(has_role("doctor"), "//record")])
    return base, Labels(base), hospital()


def first_record(doc):
    return next(node for node in doc.iter() if node.tag == "record")


class TestCoherence:
    def test_policy_add_and_remove(self, setup):
        base, cache, doc = setup
        before = cache.cached(doc)
        deny = base.add(xml_deny(has_role("doctor"), "//diagnosis"))
        after_add = cache.cached(doc)
        assert after_add == cache.uncached(doc)
        assert after_add != before
        base.remove(deny)
        assert cache.cached(doc) == cache.uncached(doc) == before

    def test_document_edit(self, setup):
        _, cache, doc = setup
        before = cache.cached(doc)
        first_record(doc).append(element("diagnosis", "cold"))
        after = cache.cached(doc)
        assert after == cache.uncached(doc)
        assert after != before

    def test_stranded_keys_stay_within_maxsize(self, setup):
        base, cache, doc = setup
        for step in range(cache.cache.maxsize + 20):
            if step % 2:
                base.add(xml_grant(has_role("doctor"), "//name"))
            else:
                first_record(doc).set_attribute("step", str(step))
            cache.cached(doc)
        assert len(cache.cache) <= cache.cache.maxsize
        assert cache.cached(doc) == cache.uncached(doc)

    def test_documents_sharing_an_id_and_version_do_not_alias(self, setup):
        _, cache, doc = setup
        other = hospital()
        first_record(doc).set_attribute("seen", "1")
        first_record(other).append(element("diagnosis", "cold"))
        assert doc.version == other.version
        assert cache.cached(doc) == cache.uncached(doc)
        assert cache.cached(other) == cache.uncached(other)
        assert cache.cached(doc) != cache.cached(other)
