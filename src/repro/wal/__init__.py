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
* :mod:`repro.wal.durable` — the wrappers stores and gateways use: a
  transaction (``group()`` block or stand-alone op) is one record, one
  log and one pipeline per store.
"""

from repro.wal.checkpoint import CheckpointStore
from repro.wal.durable import (
    DurablePolicyStore,
    DurableRelationalStore,
    DurableStore,
    DurableUddiRegistry,
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
    "DurableRelationalStore",
    "DurableStore",
    "DurableUddiRegistry",
    "DurableXmlStore",
    "MemVfs",
    "OsVfs",
    "RecoveryReport",
    "RecoveryResult",
    "WriteAheadLog",
    "recover",
]
