"""Kill a real writer process mid-commit; recover from real files.

The MemVfs chaos battery models *power loss* (the page cache dies with
the machine).  This test covers the other half of the contract with a
real SIGKILL: a writer process doing fsync-acked inserts against
:class:`OsVfs` is killed at a random moment, and recovery from the
surviving directory must (a) succeed or refuse typed, (b) be
self-consistent — the recovered digest equals a reference replay of
exactly the records the scan decoded — and (c) durable: every op the
writer *acknowledged* (recorded in a side log it fsyncs per ack) is
present in the recovered store.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.wal.durable import DurableXmlStore, decode_ops
from repro.wal.replay import recover as scan_logs
from repro.wal.vfs import OsVfs

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="platform has no fork start method"),
]

def _writer_process(root: str, acked_path: str) -> None:
    """Insert forever with ack-on-fsync; record each ack durably."""
    store = DurableXmlStore(
        SnapshotXmlDatabase(), OsVfs(root), durability="fsync",
        segment_bytes=8 * 1024)
    store.create_collection("kills")
    with open(acked_path, "ab") as acked:
        for n in range(1_000_000):
            store.insert("kills", f"d{n}",
                         f"<doc n=\"{n}\"><v>value-{n}</v></doc>")
            acked.write(f"d{n}\n".encode())
            acked.flush()
            os.fsync(acked.fileno())


def _reference_digest(records) -> str:
    reference = SnapshotXmlDatabase()
    for lsn, payload in records:
        for op, args, kwargs in decode_ops(lsn, payload):
            getattr(reference, op)(*args, **kwargs)
    return DurableXmlStore._digest_of(reference.freeze())


@pytest.mark.parametrize("grace", [0.4, 0.9])
def test_sigkill_mid_commit_recovers_byte_identical(tmp_path, grace):
    root = tmp_path / "wal"
    acked_path = tmp_path / "acked.log"
    context = multiprocessing.get_context("fork")
    writer = context.Process(target=_writer_process,
                             args=(str(root), str(acked_path)))
    writer.start()
    deadline = time.monotonic() + 30
    # Let the writer make real progress, then kill it dead mid-stride.
    while time.monotonic() < deadline:
        if acked_path.exists() and acked_path.stat().st_size > 200:
            break
        time.sleep(0.02)
    time.sleep(grace)
    os.kill(writer.pid, signal.SIGKILL)
    writer.join(timeout=10)
    assert writer.exitcode == -signal.SIGKILL

    acked = [line for line in
             acked_path.read_text().splitlines() if line]
    assert acked, "writer never acknowledged anything"

    vfs = OsVfs(root)
    scan = scan_logs(vfs, apply_truncation=False)
    recovered, report = DurableXmlStore.recover(vfs, segment_bytes=8 * 1024)
    # (b) self-consistent: recovered state is the reference replay of
    # exactly the records the scan decoded, byte for byte.
    assert recovered.state_digest() == _reference_digest(scan.records)
    # (c) durable: every fsync-acked insert survived the SIGKILL.
    snapshot = recovered.freeze()
    survivors = set(snapshot.doc_ids("kills"))
    lost = [doc for doc in acked if doc not in survivors]
    assert not lost, (
        f"SIGKILL lost {len(lost)} acknowledged inserts "
        f"(first: {lost[:3]}, report: {report})")

    # The recovered store keeps writing against the same directory —
    # reopen never appends to old segments, the LSN space continues.
    recovered.insert("kills", "post-kill", "<doc><v>revived</v></doc>")
    assert recovered.wal.last_synced == recovered.wal.last_lsn
    digest = recovered.state_digest()
    recovered.close()
    second, _ = DurableXmlStore.recover(vfs, segment_bytes=8 * 1024)
    assert second.state_digest() == digest
    second.close()
