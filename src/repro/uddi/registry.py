"""The UDDI registry: storage plus the two inquiry patterns of §2.2.

"Searching facilities provided by UDDI registries are of two different
types ... drill-down pattern inquiries (i.e., get_xxx API functions),
which return a whole core data structure, and browse pattern inquiries
(i.e., find_xxx API functions), which return overview information about
the registered data."

:class:`UddiRegistry` implements both patterns over the five core data
structures, plus the publisher API (save/delete) with ownership tracking —
the hook the secure registry of :mod:`repro.uddi.secure` builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Iterator

from repro.core.errors import RegistryError
from repro.crypto.hashing import combine, sha256_hex
from repro.faults.resilience import IdempotencyLedger
from repro.uddi.model import (
    BindingTemplate,
    BusinessEntity,
    BusinessService,
    PublisherAssertion,
    TModel,
)


@dataclass(frozen=True)
class ServiceOverview:
    """Browse-pattern result row: overview info, not the full structure."""

    business_key: str
    business_name: str
    service_key: str
    service_name: str
    category: str


@dataclass(frozen=True)
class BusinessOverview:
    """Browse-pattern result row for find_business."""

    business_key: str
    name: str
    description: str
    service_count: int


class UddiRegistry:
    """An in-memory UDDI registry."""

    def __init__(self, name: str = "registry") -> None:
        self.name = name
        self._businesses: dict[str, BusinessEntity] = {}
        self._owners: dict[str, str] = {}
        self._tmodels: dict[str, TModel] = {}
        self._assertions: list[PublisherAssertion] = []
        self._write_ledger = IdempotencyLedger()
        self.inquiry_count = 0
        self.publish_count = 0

    # -- publisher API ------------------------------------------------------

    def save_business(self, entity: BusinessEntity, publisher: str,
                      idempotency_key: str | None = None) -> BusinessEntity:
        """Insert or update a business entity, enforcing ownership.

        With an *idempotency_key*, a retried save whose first attempt
        already applied (the acknowledgement was what got lost) replays
        the recorded outcome instead of applying — and counting — twice.
        """
        def apply() -> BusinessEntity:
            existing_owner = self._owners.get(entity.business_key)
            if existing_owner is not None and existing_owner != publisher:
                raise RegistryError(
                    f"business {entity.business_key!r} belongs to "
                    f"{existing_owner!r}, not {publisher!r}")
            self._businesses[entity.business_key] = entity
            self._owners[entity.business_key] = publisher
            self.publish_count += 1
            return entity

        if idempotency_key is None:
            return apply()
        return self._write_ledger.apply(idempotency_key, apply)

    def delete_business(self, business_key: str, publisher: str) -> None:
        owner = self._owners.get(business_key)
        if owner is None:
            raise RegistryError(f"unknown business {business_key!r}")
        if owner != publisher:
            raise RegistryError(
                f"business {business_key!r} belongs to {owner!r}")
        del self._businesses[business_key]
        del self._owners[business_key]
        # Every assertion naming the business goes with it, whoever
        # filed it.
        self._assertions = [a for a in self._assertions
                            if business_key not in (a.from_key, a.to_key)]

    def save_tmodel(self, tmodel: TModel, publisher: str,
                    idempotency_key: str | None = None) -> TModel:
        def apply() -> TModel:
            self._tmodels[tmodel.tmodel_key] = tmodel
            self.publish_count += 1
            return tmodel

        if idempotency_key is None:
            return apply()
        return self._write_ledger.apply(idempotency_key, apply)

    def add_assertion(self, assertion: PublisherAssertion,
                      publisher: str,
                      idempotency_key: str | None = None) -> None:
        """Record one side of a relationship assertion."""
        def apply() -> None:
            owner_side = self._owners.get(assertion.from_key)
            if owner_side != publisher:
                raise RegistryError(
                    "assertions must be filed by the owner of their fromKey")
            self._assertions.append(assertion)
            self.publish_count += 1

        if idempotency_key is None:
            apply()
        else:
            self._write_ledger.apply(idempotency_key, apply)

    def has_applied(self, idempotency_key: str) -> bool:
        """True if a write under *idempotency_key* already applied —
        a retry carrying this key will replay, not re-apply."""
        return idempotency_key in self._write_ledger

    def owner_of(self, business_key: str) -> str:
        try:
            return self._owners[business_key]
        except KeyError:
            raise RegistryError(f"unknown business {business_key!r}") from None

    # -- drill-down inquiries (get_xxx) -------------------------------------

    def get_business_detail(self, business_key: str) -> BusinessEntity:
        self.inquiry_count += 1
        try:
            return self._businesses[business_key]
        except KeyError:
            raise RegistryError(f"unknown business {business_key!r}") from None

    def get_service_detail(self, service_key: str) -> BusinessService:
        self.inquiry_count += 1
        for entity in self._businesses.values():
            for service in entity.services:
                if service.service_key == service_key:
                    return service
        raise RegistryError(f"unknown service {service_key!r}")

    def get_binding_detail(self, binding_key: str) -> BindingTemplate:
        self.inquiry_count += 1
        for entity in self._businesses.values():
            for service in entity.services:
                for binding in service.bindings:
                    if binding.binding_key == binding_key:
                        return binding
        raise RegistryError(f"unknown binding {binding_key!r}")

    def get_tmodel_detail(self, tmodel_key: str) -> TModel:
        self.inquiry_count += 1
        try:
            return self._tmodels[tmodel_key]
        except KeyError:
            raise RegistryError(f"unknown tModel {tmodel_key!r}") from None

    # -- browse inquiries (find_xxx) ------------------------------------------

    def find_business(self, name_pattern: str = "*") -> list[BusinessOverview]:
        """Case-insensitive glob match over business names."""
        self.inquiry_count += 1
        rows = [
            BusinessOverview(e.business_key, e.name, e.description,
                             len(e.services))
            for e in self._businesses.values()
            if fnmatchcase(e.name.lower(), name_pattern.lower())]
        return sorted(rows, key=lambda r: r.business_key)

    def find_service(self, name_pattern: str = "*",
                     category: str | None = None) -> list[ServiceOverview]:
        self.inquiry_count += 1
        rows: list[ServiceOverview] = []
        for entity in self._businesses.values():
            for service in entity.services:
                if not fnmatchcase(service.name.lower(),
                                   name_pattern.lower()):
                    continue
                if category is not None and service.category != category:
                    continue
                rows.append(ServiceOverview(
                    entity.business_key, entity.name,
                    service.service_key, service.name, service.category))
        return sorted(rows, key=lambda r: r.service_key)

    def find_tmodel(self, name_pattern: str = "*") -> list[TModel]:
        self.inquiry_count += 1
        return sorted(
            (t for t in self._tmodels.values()
             if fnmatchcase(t.name.lower(), name_pattern.lower())),
            key=lambda t: t.tmodel_key)

    def find_related_businesses(self, business_key: str) -> list[str]:
        """Businesses related by *mutually asserted* relationships."""
        self.inquiry_count += 1
        forward = {(a.from_key, a.to_key, a.relationship)
                   for a in self._assertions}
        related: set[str] = set()
        for from_key, to_key, relationship in forward:
            if (to_key, from_key, relationship) not in forward:
                continue  # one-sided assertions stay invisible
            if from_key == business_key:
                related.add(to_key)
            elif to_key == business_key:
                related.add(from_key)
        return sorted(related)

    # -- state fingerprinting ---------------------------------------------------

    def state_digest(self) -> str:
        """One digest over the registry's entire observable state.

        The convergence oracle of the chaos suite: a retried run under
        faults and the fault-free run must end with equal digests.
        Deliberately excludes the operation counters — *how many tries*
        it took is allowed to differ; *what the registry says* is not.
        """
        parts = [
            f"biz:{key}:{self._owners.get(key, '')}:"
            f"{sha256_hex(repr(self._businesses[key]))}"
            for key in sorted(self._businesses)]
        parts.extend(f"tmodel:{key}:{sha256_hex(repr(self._tmodels[key]))}"
                     for key in sorted(self._tmodels))
        parts.extend(f"assert:{sha256_hex(repr(assertion))}"
                     for assertion in sorted(self._assertions, key=repr))
        return combine(*parts) if parts else sha256_hex("empty-registry")

    # -- enumeration -----------------------------------------------------------

    def business_keys(self) -> list[str]:
        return sorted(self._businesses)

    def businesses(self) -> Iterator[BusinessEntity]:
        for key in self.business_keys():
            yield self._businesses[key]

    def tmodels(self) -> list[TModel]:
        """Every stored tModel, sorted by key (a copy)."""
        return [self._tmodels[key] for key in sorted(self._tmodels)]

    def assertions(self) -> list[PublisherAssertion]:
        """Every filed assertion in filing order (a copy)."""
        return list(self._assertions)

    def __len__(self) -> int:
        return len(self._businesses)
