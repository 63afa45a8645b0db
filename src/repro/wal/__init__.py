"""Durable write path: one-record transactions, group commit, checkpoints.

Layering, bottom up:

* :mod:`repro.wal.vfs` — the file substrate: real files with directory
  fsyncs (:class:`OsVfs`) and the in-memory power-loss model the chaos
  battery crashes (:class:`MemVfs`).
* :mod:`repro.wal.format` — segment/frame layout (every header, frame
  and checkpoint checksummed with CRC-32) and the scanner that
  separates torn tails from corruption.
* :mod:`repro.wal.log` — one segment chain per store and its LSN
  counter, rotation, checkpoint-driven truncation, and an open that
  refuses a directory nobody recovered.
* :mod:`repro.wal.pipeline` — leader/follower group commit: one
  buffered write + one fsync per batch on the first committer's own
  thread, traffic-conditional linger, the ``wal`` fault site.  A write
  is acknowledged only after its own fsync; nothing flushes in the
  background.
* :mod:`repro.wal.checkpoint` — atomic, digest-keyed checkpoint files.
* :mod:`repro.wal.replay` — the chain scanned back in LSN order.
* :mod:`repro.wal.durable` — the wrappers stores and gateways use, one
  log and one pipeline per store.  A transaction (a ``group()`` or
  ``writer()`` block, or a stand-alone op) is entered once — store
  mutex, inner writer lock, pipeline admission — and is one record;
  an op inside it is a pickle check, one call into the inner store and
  one append.  The durable UDDI and relational kinds live beside their
  stores (``repro.uddi.durable``, ``repro.relational.durable``), so
  this package loads neither.
"""

from repro.wal.checkpoint import CheckpointStore
from repro.wal.durable import (
    DurablePolicyStore,
    DurableStore,
    DurableXmlStore,
    RecoveryReport,
)
from repro.wal.log import WriteAheadLog
from repro.wal.pipeline import CommitPipeline, CommitTicket
from repro.wal.replay import RecoveryResult, recover
from repro.wal.vfs import MemVfs, OsVfs

__all__ = [
    "CheckpointStore",
    "CommitPipeline",
    "CommitTicket",
    "DurablePolicyStore",
    "DurableStore",
    "DurableXmlStore",
    "MemVfs",
    "OsVfs",
    "RecoveryReport",
    "RecoveryResult",
    "WriteAheadLog",
    "recover",
]
