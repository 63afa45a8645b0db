"""Filesystem abstraction under the write-ahead log.

Two implementations share one small surface so every layer above
(segments, group commit, checkpoints, recovery) is tested against both:

* :class:`OsVfs` — real files.  ``sync()`` is ``flush`` + ``os.fsync``;
  metadata operations (create/rename/delete) fsync the parent
  directory, so an atomically-renamed checkpoint cannot evaporate with
  the directory entry.  Recovery reads map segments with :mod:`mmap`.
* :class:`MemVfs` — the *power-loss model* the chaos battery drives.
  Writes land in a pending buffer; ``sync()`` moves pending bytes into
  the durable image; :meth:`MemVfs.crash` discards everything pending —
  optionally keeping a byte-exact prefix of one file's pending tail,
  which is precisely a torn write.  A real SIGKILL cannot simulate
  power loss (the page cache survives process death), so the in-memory
  model is what makes the 60-seed kill-and-recover battery honest about
  "nothing unsynced survives".

Paths are plain ``/``-joined strings relative to the vfs root; the WAL
only ever uses one flat directory per store.
"""

from __future__ import annotations

import io
import mmap
import os
import pathlib

from repro.core.errors import WalError


class MappedBytes:
    """A read mapping of one file: ``.view`` plus ``close()``."""

    def __init__(self, view: memoryview, mapping: mmap.mmap | None = None,
                 handle: io.IOBase | None = None) -> None:
        self.view = view
        self._mapping = mapping
        self._handle = handle

    def close(self) -> None:
        self.view.release()
        if self._mapping is not None:
            self._mapping.close()
        if self._handle is not None:
            self._handle.close()

    def __enter__(self) -> "MappedBytes":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- real files ---------------------------------------------------------


class OsWalFile:
    """Append handle over a real file; ``sync`` is the durability
    barrier (buffered flush, then ``os.fsync``)."""

    def __init__(self, path: pathlib.Path) -> None:
        self._handle = open(path, "xb")  # lint: allow=LINT-UNFSYNCED
        self._size = 0

    def write(self, data: bytes | memoryview) -> None:
        self._handle.write(data)
        self._size += len(data)

    def sync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def tell(self) -> int:
        return self._size

    def close(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()


class OsVfs:
    """Real files rooted at *root*, with directory-entry fsyncs."""

    def __init__(self, root: str | pathlib.Path) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._sync_dir()

    def _sync_dir(self) -> None:
        fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def create(self, name: str) -> OsWalFile:
        handle = OsWalFile(self.root / name)
        self._sync_dir()
        return handle

    def open_map(self, name: str) -> MappedBytes:
        path = self.root / name
        handle = open(path, "rb")
        if os.path.getsize(path) == 0:
            handle.close()
            return MappedBytes(memoryview(b""))
        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        return MappedBytes(memoryview(mapping), mapping, handle)

    def read_bytes(self, name: str) -> bytes:
        return (self.root / name).read_bytes()

    def exists(self, name: str) -> bool:
        return (self.root / name).exists()

    def size(self, name: str) -> int:
        return os.path.getsize(self.root / name)

    def listdir(self) -> list[str]:
        return sorted(p.name for p in self.root.iterdir() if p.is_file())

    def delete(self, name: str) -> None:
        (self.root / name).unlink()
        self._sync_dir()

    def rename(self, source: str, target: str) -> None:
        os.replace(self.root / source, self.root / target)
        self._sync_dir()

    def truncate(self, name: str, size: int) -> None:
        with open(self.root / name, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())
        self._sync_dir()


# -- the power-loss model ------------------------------------------------


class _MemFile:
    __slots__ = ("durable", "pending")

    def __init__(self) -> None:
        self.durable = bytearray()
        self.pending = bytearray()

    def image(self) -> bytes:
        return bytes(self.durable) + bytes(self.pending)


class MemWalFile:
    def __init__(self, backing: _MemFile) -> None:
        self._backing = backing
        self._closed = False

    def write(self, data: bytes | memoryview) -> None:
        if self._closed:
            raise WalError("write to a closed wal file")
        self._backing.pending += data

    def sync(self) -> None:
        self._backing.durable += self._backing.pending
        self._backing.pending = bytearray()

    def tell(self) -> int:
        return len(self._backing.durable) + len(self._backing.pending)

    def close(self) -> None:
        self.sync()
        self._closed = True


class MemVfs:
    """In-memory files with an explicit durable/pending boundary.

    Reads (``open_map``/``read_bytes``) see the *full* image —
    durable + pending — matching a live process reading its own
    page-cached writes.  Only :meth:`crash` collapses the view to the
    durable prefix, which is what survives power loss.
    """

    def __init__(self) -> None:
        self._files: dict[str, _MemFile] = {}

    def create(self, name: str) -> MemWalFile:
        if name in self._files:
            raise WalError(f"file {name!r} already exists")
        backing = _MemFile()
        self._files[name] = backing
        return MemWalFile(backing)

    def _file(self, name: str) -> _MemFile:
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError(name) from None

    def open_map(self, name: str) -> MappedBytes:
        return MappedBytes(memoryview(self._file(name).image()))

    def read_bytes(self, name: str) -> bytes:
        return self._file(name).image()

    def exists(self, name: str) -> bool:
        return name in self._files

    def size(self, name: str) -> int:
        backing = self._file(name)
        return len(backing.durable) + len(backing.pending)

    def listdir(self) -> list[str]:
        return sorted(self._files)

    def delete(self, name: str) -> None:
        self._file(name)
        del self._files[name]

    def rename(self, source: str, target: str) -> None:
        self._files[target] = self._file(source)
        del self._files[source]

    def truncate(self, name: str, size: int) -> None:
        backing = self._file(name)
        image = backing.image()[:size]
        backing.durable = bytearray(image)
        backing.pending = bytearray()

    # -- the crash/overlay controls (chaos battery only) -----------------

    def crash(self, keep_partial: dict[str, int] | None = None) -> None:
        """Power loss: every pending byte vanishes.

        *keep_partial* maps file name → how many of its pending bytes
        made it to the platter before the lights went out — the torn
        -tail overlay.  A value larger than the pending buffer keeps
        everything (the write happened to complete).
        """
        keep_partial = keep_partial or {}
        for name, backing in self._files.items():
            kept = min(keep_partial.get(name, 0), len(backing.pending))
            if kept:
                backing.durable += backing.pending[:kept]
            backing.pending = bytearray()

    def corrupt_byte(self, name: str, offset: int, mask: int = 0xFF) -> None:
        """Flip bits in the *durable* image — silent media corruption,
        the overlay recovery must refuse typed rather than replay."""
        backing = self._file(name)
        if not backing.durable:
            raise WalError(f"{name!r} has no durable bytes to corrupt")
        offset %= len(backing.durable)
        backing.durable[offset] ^= (mask or 0xFF) & 0xFF

    def durable_size(self, name: str) -> int:
        return len(self._file(name).durable)
