"""A counting, durable-image-tracking wrapper over the real file system.

Passed to the store through its public ``fs=`` parameter, :class:`TraceFS`
is the benchmark's device layer: it counts writes, bytes and fsyncs
(``write_amp``, ``storage.fs.*``), times every fsync
(``storage.fsync_p50_ms``) and remembers, per file, how many bytes had
been fsynced.  :meth:`TraceFS.materialise` copies each file cut to that
length into a fresh directory — what a machine would find after losing
its page cache.  Killing a process leaves the OS cache intact, so the
benchmark discards unflushed bytes itself.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List

from repro.storage.files import FileHandle, FileSystem, OsFileSystem


class _FileState:
    __slots__ = ("length", "synced")

    def __init__(self, length: int) -> None:
        self.length = length
        self.synced = length


class _TraceHandle(FileHandle):
    def __init__(self, fs: "TraceFS", inner: FileHandle,
                 state: _FileState) -> None:
        self._fs = fs
        self._inner = inner
        self._state = state

    def write(self, data: bytes) -> None:
        self._inner.write(data)
        self._state.length += len(data)
        with self._fs._lock:
            self._fs.writes += 1
            self._fs.bytes_written += len(data)

    def flush(self) -> None:
        self._inner.flush()

    def sync(self) -> None:
        length = self._state.length
        start = time.perf_counter()
        self._inner.sync()
        elapsed = time.perf_counter() - start
        # bytes written while the fsync ran are not covered by it
        self._state.synced = max(self._state.synced, length)
        with self._fs._lock:
            self._fs.syncs += 1
            self._fs.sync_seconds.append(elapsed)

    def close(self) -> None:
        self._inner.close()

    def tell(self) -> int:
        return self._inner.tell()


class TraceFS(FileSystem):
    """Counts device traffic and tracks each file's fsynced length."""

    def __init__(self, inner: FileSystem | None = None) -> None:
        self._inner = inner or OsFileSystem()
        self._lock = threading.Lock()
        self._files: Dict[str, _FileState] = {}
        self.writes = 0
        self.bytes_written = 0
        self.syncs = 0
        self.sync_seconds: List[float] = []

    # -- FileSystem surface ------------------------------------------------

    def create(self, path: str) -> FileHandle:
        handle = self._inner.create(path)
        state = _FileState(0)
        self._files[path] = state
        return _TraceHandle(self, handle, state)

    def open_append(self, path: str) -> FileHandle:
        handle = self._inner.open_append(path)
        state = self._files.get(path)
        if state is None:
            # a file from before this wrapper existed is already on disk
            state = self._files[path] = _FileState(
                self._inner.file_size(path))
        return _TraceHandle(self, handle, state)

    def read_bytes(self, path: str) -> bytes:
        return self._inner.read_bytes(path)

    def exists(self, path: str) -> bool:
        return self._inner.exists(path)

    def file_size(self, path: str) -> int:
        return self._inner.file_size(path)

    def listdir(self, path: str) -> List[str]:
        return self._inner.listdir(path)

    def replace(self, src: str, dst: str) -> None:
        # the real file system fsyncs the parent directory, so the new
        # name is durable as soon as this returns
        self._inner.replace(src, dst)
        state = self._files.pop(src, None)
        if state is not None:
            self._files[dst] = state

    def remove(self, path: str) -> None:
        self._inner.remove(path)
        self._files.pop(path, None)

    def ensure_dir(self, path: str) -> None:
        self._inner.ensure_dir(path)

    # -- the benchmark's readings ------------------------------------------

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return {"writes": self.writes,
                    "bytes_written": self.bytes_written,
                    "syncs": self.syncs}

    def durable_lengths(self, root: str) -> Dict[str, int]:
        """Relative path -> fsynced length of every live file under
        ``root``."""
        prefix = root.rstrip("/") + "/"
        return {path[len(prefix):]: state.synced
                for path, state in self._files.items()
                if path.startswith(prefix)}

    def materialise(self, root: str, dest: str) -> int:
        """Write the durable image of ``root`` into the fresh directory
        ``dest``: every file cut to its last-fsynced length.  Returns
        the number of unflushed bytes discarded."""
        discarded = 0
        for relative, synced in sorted(self.durable_lengths(root).items()):
            source = os.path.join(root, relative)
            target = os.path.join(dest, relative)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            with open(source, "rb") as fh:
                data = fh.read()
            discarded += max(0, len(data) - synced)
            with open(target, "wb") as fh:
                fh.write(data[:synced])
        return discarded
