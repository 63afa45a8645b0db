"""The durable UDDI registry, beside the registry it wraps so that
:mod:`repro.wal` loads no store it does not serve."""

from repro.uddi.registry import UddiRegistry
from repro.wal.durable import DurableStore


class DurableUddiRegistry(DurableStore):
    """WAL + whole-registry pickle checkpoints under a
    :class:`~repro.uddi.registry.UddiRegistry`."""

    def save_business(self, entity, publisher: str,
                      idempotency_key: str | None = None):
        return self._op("save_business",
                        (entity, publisher, idempotency_key))

    def delete_business(self, business_key: str, publisher: str) -> None:
        return self._op("delete_business", (business_key, publisher))

    def save_tmodel(self, tmodel, publisher: str,
                    idempotency_key: str | None = None):
        return self._op("save_tmodel", (tmodel, publisher, idempotency_key))

    def add_assertion(self, assertion, publisher: str,
                      idempotency_key: str | None = None) -> None:
        return self._op("add_assertion",
                        (assertion, publisher, idempotency_key))

    def state_digest(self) -> str:
        return self.inner.state_digest()

    @classmethod
    def _fresh_inner(cls, **inner_kwargs):
        return UddiRegistry(**inner_kwargs)
