"""Tests for the UDDI data structures and registry inquiries."""

import pytest

from repro.core.errors import RegistryError
from repro.uddi.model import (
    BindingTemplate,
    BusinessEntity,
    BusinessService,
    PublisherAssertion,
    TModel,
    fresh_key,
    make_business,
    make_service,
)
from repro.uddi.registry import UddiRegistry


def acme() -> BusinessEntity:
    service = make_service("Widget lookup", category="catalog",
                           access_point="http://acme/ws")
    return make_business("Acme", "widgets").with_service(service)


class TestModel:
    def test_fresh_keys_unique(self):
        assert fresh_key("biz") != fresh_key("biz")

    def test_with_service_appends(self):
        entity = acme()
        more = entity.with_service(make_service("Other"))
        assert len(more.services) == 2
        assert len(entity.services) == 1  # frozen original untouched

    def test_service_lookup(self):
        entity = acme()
        key = entity.services[0].service_key
        assert entity.service(key).name == "Widget lookup"
        with pytest.raises(RegistryError):
            entity.service("uddi:svc:missing")

    def test_to_element_structure(self):
        element = acme().to_element()
        assert element.tag == "businessEntity"
        services = element.find("businessServices")
        assert services.element_children[0].tag == "businessService"

    def test_tmodel_element(self):
        tmodel = TModel("uddi:tm:1", "SOAP binding")
        assert tmodel.to_element().attributes["tModelKey"] == "uddi:tm:1"


class TestPublish:
    def test_save_and_ownership(self):
        registry = UddiRegistry()
        entity = acme()
        registry.save_business(entity, publisher="acme-inc")
        assert registry.owner_of(entity.business_key) == "acme-inc"

    def test_update_by_owner_allowed(self):
        registry = UddiRegistry()
        entity = acme()
        registry.save_business(entity, "acme-inc")
        registry.save_business(entity.with_service(make_service("S2")),
                               "acme-inc")
        detail = registry.get_business_detail(entity.business_key)
        assert len(detail.services) == 2

    def test_update_by_other_rejected(self):
        registry = UddiRegistry()
        entity = acme()
        registry.save_business(entity, "acme-inc")
        with pytest.raises(RegistryError):
            registry.save_business(entity, "mallory-corp")

    def test_delete(self):
        registry = UddiRegistry()
        entity = acme()
        registry.save_business(entity, "acme-inc")
        registry.delete_business(entity.business_key, "acme-inc")
        assert len(registry) == 0
        with pytest.raises(RegistryError):
            registry.delete_business(entity.business_key, "acme-inc")


class TestDrillDown:
    def setup_method(self):
        self.registry = UddiRegistry()
        self.entity = acme()
        self.registry.save_business(self.entity, "acme-inc")

    def test_get_business_detail(self):
        detail = self.registry.get_business_detail(
            self.entity.business_key)
        assert detail.name == "Acme"

    def test_get_service_detail(self):
        key = self.entity.services[0].service_key
        assert self.registry.get_service_detail(key).category == "catalog"

    def test_get_binding_detail(self):
        binding = self.entity.services[0].bindings[0]
        found = self.registry.get_binding_detail(binding.binding_key)
        assert found.access_point == "http://acme/ws"

    def test_get_tmodel_detail(self):
        self.registry.save_tmodel(TModel("uddi:tm:9", "X"), "acme-inc")
        assert self.registry.get_tmodel_detail("uddi:tm:9").name == "X"

    @pytest.mark.parametrize("method,key", [
        ("get_business_detail", "uddi:biz:none"),
        ("get_service_detail", "uddi:svc:none"),
        ("get_binding_detail", "uddi:bind:none"),
        ("get_tmodel_detail", "uddi:tm:none"),
    ])
    def test_unknown_keys_raise(self, method, key):
        with pytest.raises(RegistryError):
            getattr(self.registry, method)(key)


class TestBrowse:
    def setup_method(self):
        self.registry = UddiRegistry()
        self.acme = acme()
        self.registry.save_business(self.acme, "acme-inc")
        globex = make_business("Globex").with_service(
            make_service("Payments gateway", category="payments"))
        self.globex = globex
        self.registry.save_business(globex, "globex-inc")

    def test_find_business_pattern(self):
        assert len(self.registry.find_business("*")) == 2
        rows = self.registry.find_business("acme*")
        assert [r.name for r in rows] == ["Acme"]

    def test_find_business_is_overview_not_detail(self):
        row = self.registry.find_business("acme*")[0]
        assert row.service_count == 1
        assert not hasattr(row, "services")

    def test_find_service_by_category(self):
        rows = self.registry.find_service(category="payments")
        assert [r.service_name for r in rows] == ["Payments gateway"]

    def test_find_service_by_name(self):
        rows = self.registry.find_service("widget*")
        assert len(rows) == 1

    def test_inquiry_counter(self):
        before = self.registry.inquiry_count
        self.registry.find_business()
        self.registry.find_service()
        assert self.registry.inquiry_count == before + 2


class TestAssertions:
    def test_one_sided_assertion_invisible(self):
        registry = UddiRegistry()
        a, b = acme(), make_business("Globex")
        registry.save_business(a, "pa")
        registry.save_business(b, "pb")
        registry.add_assertion(PublisherAssertion(
            a.business_key, b.business_key, "partner"), "pa")
        assert registry.find_related_businesses(a.business_key) == []

    def test_mutual_assertion_visible(self):
        registry = UddiRegistry()
        a, b = acme(), make_business("Globex")
        registry.save_business(a, "pa")
        registry.save_business(b, "pb")
        registry.add_assertion(PublisherAssertion(
            a.business_key, b.business_key, "partner"), "pa")
        registry.add_assertion(PublisherAssertion(
            b.business_key, a.business_key, "partner"), "pb")
        assert registry.find_related_businesses(a.business_key) == [
            b.business_key]

    def test_assertion_must_come_from_owner(self):
        registry = UddiRegistry()
        a, b = acme(), make_business("Globex")
        registry.save_business(a, "pa")
        registry.save_business(b, "pb")
        with pytest.raises(RegistryError):
            registry.add_assertion(PublisherAssertion(
                a.business_key, b.business_key, "partner"), "pb")

    def test_delete_drops_assertions_on_both_sides(self):
        # Both directions go, including the one the other owner filed.
        registry = UddiRegistry()
        a, b, c = acme(), make_business("Globex"), make_business("Initech")
        for entity, owner in ((a, "pa"), (b, "pb"), (c, "pc")):
            registry.save_business(entity, owner)
        registry.add_assertion(PublisherAssertion(
            a.business_key, b.business_key, "partner"), "pa")
        registry.add_assertion(PublisherAssertion(
            b.business_key, a.business_key, "partner"), "pb")
        kept = PublisherAssertion(b.business_key, c.business_key, "peer")
        registry.add_assertion(kept, "pb")
        registry.delete_business(a.business_key, "pa")
        assert registry.assertions() == [kept]
