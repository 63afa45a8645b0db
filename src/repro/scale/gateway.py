"""The request value type the serving pipeline carries.

The pipeline itself lives in :mod:`repro.gateway.core`
(:class:`~repro.gateway.core.AsyncRequestGateway`); this module keeps
:class:`Request` at the import path its callers already use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.objects import ResourcePath
from repro.core.policy import Action
from repro.core.subjects import Subject

__all__ = ["Request"]


@dataclass(frozen=True)
class Request:
    """One authorization question in flight through the gateway."""

    subject: Subject
    action: Action
    path: ResourcePath | str
    payload: object = None

    def triple(self) -> tuple:
        return (self.subject, self.action, self.path, self.payload)
