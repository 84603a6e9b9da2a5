"""Fault injection for the store's crash-consistency proofs.

Two cooperating pieces:

* :class:`FaultInjector` — handed to ``GraphStore.write(...,
  injector=...)``.  The writer calls :meth:`FaultInjector.checkpoint`
  at every durability-relevant step and opens every output file
  through :meth:`FaultInjector.open`; the injector can then crash the
  writer at an exact step (:class:`InjectedCrash`) or hand back a
  :class:`FaultyFile` that tears, flips, truncates or EIO-fails the
  write stream.
* on-disk helpers (:func:`flip_byte`, :func:`truncate_file`,
  :func:`rewrite_metadata`, :func:`stamp_csr_layout`,
  :func:`strip_compiled_csr`) — damage or age finished stores for
  ``GraphStore.open`` / ``GraphStore.verify`` / ``frappe fsck`` tests.

The crash-at-every-step protocol: run one write with a plain injector
(it records the checkpoint labels it saw), then re-run once per label
with ``crash_at=label`` and assert the invariant — ``GraphStore.open``
afterwards yields either the complete old store or the complete new
store, never a hybrid.

Faults raise :class:`InjectedCrash` (deriving ``BaseException``-side
``RuntimeError``, *not* ``FrappeError``) so no library ``except``
clause can accidentally swallow a simulated crash.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib
from typing import Any, Callable, Iterable

#: Fault kinds understood by :class:`FaultyFile`.
TORN_WRITE = "torn"        # silently stop persisting at the Nth byte
BIT_FLIP = "bitflip"       # flip bits of one written byte at close
TRUNCATE = "truncate"      # cut the file to N bytes at close
EIO = "eio"                # raise InjectedIOError at the Nth byte

FAULT_KINDS = (TORN_WRITE, BIT_FLIP, TRUNCATE, EIO)


class InjectedCrash(RuntimeError):
    """The injector's simulated process death at a checkpoint."""

    def __init__(self, label: str) -> None:
        super().__init__(f"injected crash at checkpoint {label!r}")
        self.label = label


class InjectedIOError(OSError):
    """The injector's simulated EIO from the kernel."""

    def __init__(self, path: str, position: int) -> None:
        super().__init__(5, f"injected I/O error on {path!r} at byte "
                            f"{position}")
        self.path = path
        self.position = position


@dataclasses.dataclass
class FileFault:
    """One fault armed against a file name.

    ``at_byte`` means: for :data:`TORN_WRITE`/:data:`EIO` the stream
    position at which the fault fires, for :data:`BIT_FLIP` the offset
    of the byte to corrupt, for :data:`TRUNCATE` the final file size.
    """

    kind: str
    at_byte: int = 0
    xor_mask: int = 0xFF

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")


class FaultyFile:
    """A write-mode file wrapper that misbehaves on command.

    Supports both binary and text writers (text is encoded UTF-8 before
    the fault logic, so a torn write tears mid-JSON exactly like a torn
    page would).
    """

    def __init__(self, path: str, mode: str, fault: FileFault,
                 injector: "FaultInjector | None" = None) -> None:
        self.path = path
        self.fault = fault
        self._injector = injector
        # w+b so close-time faults (bit flip) can read back what was
        # written before corrupting it
        self._handle = open(path, "w+b")
        self._position = 0
        self._tripped = False

    # -- file protocol ---------------------------------------------------------

    def write(self, data: "bytes | str") -> int:
        raw = data.encode("utf-8") if isinstance(data, str) else bytes(data)
        claimed = len(data)  # callers see a healthy write
        fault = self.fault
        if fault.kind == EIO:
            if self._position + len(raw) > fault.at_byte and \
                    not self._tripped:
                keep = max(0, fault.at_byte - self._position)
                self._handle.write(raw[:keep])
                self._position += keep
                self._trip()
                raise InjectedIOError(self.path, fault.at_byte)
        elif fault.kind == TORN_WRITE:
            if self._tripped:
                return claimed  # everything after the tear is lost
            if self._position + len(raw) > fault.at_byte:
                keep = max(0, fault.at_byte - self._position)
                self._handle.write(raw[:keep])
                self._position += keep
                self._trip()
                return claimed
        self._handle.write(raw)
        self._position += len(raw)
        return claimed

    def flush(self) -> None:
        self._handle.flush()

    def fileno(self) -> int:
        return self._handle.fileno()

    def tell(self) -> int:
        return self._position

    def close(self) -> None:
        if self._handle.closed:
            return
        self._handle.flush()
        fault = self.fault
        if fault.kind == BIT_FLIP:
            size = self._handle.tell()
            if size:
                target = min(fault.at_byte, size - 1)
                self._handle.seek(target)
                original = self._handle.read(1)
                self._handle.seek(target)
                self._handle.write(bytes(
                    [original[0] ^ (fault.xor_mask & 0xFF)]))
                self._trip()
        elif fault.kind == TRUNCATE:
            self._handle.truncate(fault.at_byte)
            self._trip()
        self._handle.close()

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals -------------------------------------------------------------

    def _trip(self) -> None:
        self._tripped = True
        if self._injector is not None:
            self._injector.fired.append((os.path.basename(self.path),
                                         self.fault.kind))


class FaultInjector:
    """Programmable failure source for ``GraphStore.write``.

    * ``crash_at=label`` raises :class:`InjectedCrash` when the writer
      reaches that checkpoint (labels are discovered by a fault-free
      recording run: ``injector.checkpoints`` afterwards lists every
      step in order).
    * :meth:`inject` arms a :class:`FileFault` against a file name;
      the writer's :meth:`open` calls return a :class:`FaultyFile` for
      matching paths.
    """

    def __init__(self, crash_at: str | None = None) -> None:
        self.crash_at = crash_at
        self.checkpoints: list[str] = []        # labels seen, in order
        self.fired: list[tuple[str, str]] = []  # (file name, fault kind)
        self._file_faults: dict[str, FileFault] = {}

    def inject(self, file_name: str, kind: str, at_byte: int = 0,
               xor_mask: int = 0xFF) -> "FaultInjector":
        """Arm a fault against ``file_name`` (basename match)."""
        self._file_faults[file_name] = FileFault(kind, at_byte, xor_mask)
        return self

    # -- hooks the writer calls ------------------------------------------------

    def checkpoint(self, label: str) -> None:
        self.checkpoints.append(label)
        if label == self.crash_at:
            raise InjectedCrash(label)

    def open(self, path: str, mode: str = "wb",
             **kwargs: Any) -> Any:
        fault = self._file_faults.get(os.path.basename(path))
        if fault is None or "r" in mode:
            return open(path, mode, **kwargs)
        return FaultyFile(path, mode, fault, injector=self)


# --------------------------------------------------------------------------
# on-disk damage helpers (for fsck / verify tests)
# --------------------------------------------------------------------------

def flip_byte(path: str, offset: int, xor_mask: int = 0xFF) -> int:
    """XOR one byte of an existing file; returns the offset flipped."""
    size = os.path.getsize(path)
    if not size:
        raise ValueError(f"cannot flip a byte of empty file {path!r}")
    offset = min(offset, size - 1)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        original = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([original[0] ^ (xor_mask & 0xFF)]))
    return offset


def truncate_file(path: str, keep_bytes: int) -> int:
    """Cut a file down to ``keep_bytes``; returns the bytes removed."""
    size = os.path.getsize(path)
    keep_bytes = max(0, min(keep_bytes, size))
    with open(path, "r+b") as handle:
        handle.truncate(keep_bytes)
    return size - keep_bytes


def crc32_of(path: str, chunk_size: int = 1 << 20) -> int:
    """Streaming CRC32 of a whole file (manifest checksum helper)."""
    crc = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(chunk_size), b""):
            crc = zlib.crc32(chunk, crc)
    return crc & 0xFFFFFFFF


def corrupt_boundary_table(shard_root: str, shard: int = 0,
                           offset: int = 0, xor_mask: int = 0xFF) -> str:
    """Flip a byte of one shard's boundary-edge table.

    Damages ``boundary-NNN.json`` inside a shard root produced by
    ``frappe shard-split``; ``verify_shard_root`` must flag the store
    as *repairable* (the table is derivable from the shard stores'
    relationship records). Returns the path that was damaged.
    """
    path = os.path.join(shard_root, f"boundary-{shard:03d}.json")
    flip_byte(path, offset, xor_mask)
    return path


def rewrite_metadata(directory: str,
                     edit: Callable[[dict[str, Any]], None],
                     drop_files: Iterable[str] = ()) -> None:
    """Apply *edit* to a store's ``metadata.json`` in place, delete
    *drop_files*, and re-seal the manifest to match.

    The store's checksums then agree with what is on disk, so ``open``
    and ``fsck`` judge the edited format itself, not a torn file.
    """
    metadata_path = os.path.join(directory, "metadata.json")
    with open(metadata_path, encoding="utf-8") as handle:
        metadata = json.load(handle)
    edit(metadata)
    with open(metadata_path, "w", encoding="utf-8") as handle:
        json.dump(metadata, handle)
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    for name in drop_files:
        os.unlink(os.path.join(directory, name))
        manifest["files"].pop(name, None)
    manifest["files"]["metadata.json"] = {
        "size": os.path.getsize(metadata_path),
        "crc32": crc32_of(metadata_path)}
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


def stamp_csr_layout(directory: str, version: int) -> None:
    """Make a store claim another compiled-CSR layout version: what a
    store written before (or after) this build's layout looks like."""
    rewrite_metadata(directory,
                     lambda metadata: metadata["csr"].update(
                         version=version))


def strip_compiled_csr(directory: str) -> None:
    """Age a store to format 2: no CSR files, no descriptor (the
    dictionary page stays — it holds dict-encoded property values)."""
    def to_format_2(metadata: dict[str, Any]) -> None:
        metadata["version"] = 2
        del metadata["csr"]

    rewrite_metadata(directory, to_format_2,
                     drop_files=("csr.db", "csr.offsets.db"))


def checkpoint_labels(run: Iterable[str]) -> list[str]:
    """De-duplicate a recorded checkpoint stream, preserving order."""
    seen: set[str] = set()
    ordered: list[str] = []
    for label in run:
        if label not in seen:
            seen.add(label)
            ordered.append(label)
    return ordered
