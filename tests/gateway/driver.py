"""Drive the gateway from synchronous test code.

Several suites (tests/scale, tests/snap, tests/wal, the scale chaos
battery) only submit a list of request triples, drain, and inspect
futures and stats.  This is that shape over the gateway's
deterministic mode (``auto_dispatch=False`` + ``process_pending``):
nothing in it needs a loop to stay alive between calls, so each helper
is one ``asyncio.run``.
"""

import asyncio

from repro.core.errors import TransportError
from repro.gateway import AsyncRequestGateway, TenantConfig
from repro.scale.gateway import Request

WIDE_OPEN = TenantConfig(rate=1e9, burst=1e9)


def sync_gateway(engine, **options) -> AsyncRequestGateway:
    """A deterministic gateway whose token bucket never interferes."""
    options.setdefault("auto_dispatch", False)
    options.setdefault("default_tenant", WIDE_OPEN)
    return AsyncRequestGateway(engine, **options)


def drive(gateway, requests) -> list:
    """Submit *requests* (triples) as tenant ``"t"`` and decide
    everything queued on this thread.  One entry per request: its
    future, or the typed refusal admission raised for it."""

    async def scenario():
        entries = []
        for request in requests:
            try:
                entries.append(
                    gateway.submit_nowait("t", Request(*request)))
            except TransportError as refusal:
                entries.append(refusal)
        await gateway.process_pending()
        return entries

    return asyncio.run(scenario())
