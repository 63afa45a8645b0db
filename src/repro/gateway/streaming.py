"""Chunked dissemination: the chunks of a stream over frozen snapshots.

A streaming response must satisfy the same contract as the serial
serializer — concatenating every chunk yields output *byte-identical*
to :func:`repro.xmldb.serializer.serialize_element` — while never
holding the event loop for the whole document.  A stream is the one
walk of frozen trees, :func:`repro.snap.intern.serialize_pieces`, cut
into chunks by :func:`chunked` (the gateway's ``stream_document``
serves them): it emits interned fragments where the pool has them,
serializes where it does not, and interns what it serialized.  The
first stream of a document pays for the later ones: a repeat stream is
one pool probe, one join and one slice per chunk, and the first stream
after a transaction costs the transaction (its bytes are derived from
the version last read), not the document.

Chunk boundaries do not depend on what the pool holds: every chunk but
the last is exactly ``chunk_size`` characters, cold or warm.  A chunk
is *not* a suspension point: producing one never awaits, so ``async
for`` over a stream runs to its end without a loop turn.  Writers
publish between chunks only when the consumer awaits something else
in between, and the reader's pinned epoch keeps its snapshot alive
across whatever they publish.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.errors import ConfigurationError
from repro.snap.intern import DEFAULT_CHUNK_SIZE, serialize_pieces


def chunked(pieces: Iterable[str], chunk_size: int) -> Iterator[str]:
    """Re-cut *pieces* into chunks of exactly *chunk_size* characters
    (the last may be shorter), one join per chunk."""
    if chunk_size < 1:
        raise ConfigurationError("chunk_size must be >= 1")
    buffer: list[str] = []
    room = chunk_size
    for piece in pieces:
        size, start = len(piece), 0
        while size - start >= room:
            buffer.append(piece[start:start + room])
            yield "".join(buffer)
            buffer = []
            start += room
            room = chunk_size
        if start < size:
            buffer.append(piece[start:])
            room -= size - start
    if buffer:
        yield "".join(buffer)
