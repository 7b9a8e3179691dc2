"""Zero-copy NumPy array sharing over ``multiprocessing.shared_memory``.

The process backend (:mod:`repro.parallel.procpool`) places the CSR /
LOTUS arrays into one POSIX shared-memory segment so worker processes
reconstruct them as views without copying or pickling the payload.  This
module is the substrate: :func:`share_arrays` packs a named set of
arrays into a fresh segment and returns a handle whose picklable
``manifest`` describes the layout; :func:`attach_arrays` re-opens the
segment from a manifest and rebuilds the views.

Lifecycle rules (tested under injected worker crashes):

* the **creator** owns the segment: only its handle unlinks, and
  :meth:`SharedArrays.unlink` is idempotent so error paths can call it
  unconditionally;
* an **attacher** with a resource tracker of its own unregisters the
  segment from it (that tracker would otherwise also try to unlink the
  segment at interpreter exit and warn about "leaked" objects — the
  creator is the single owner); an attacher that shares the creator's
  tracker (every ``multiprocessing`` child inherits it) leaves the
  creator's entry there alone;
* ``close`` is best-effort: NumPy views exported from the buffer keep
  the mapping alive, and the mapping dies with the process anyway.
"""

from __future__ import annotations

import os
import secrets
from multiprocessing import shared_memory
from typing import Any, Mapping

import numpy as np

__all__ = ["SharedArrays", "share_arrays", "attach_arrays", "manifest_nbytes"]

# offsets are padded to cacheline size: keeps every array aligned for any
# dtype and avoids false sharing between adjacent arrays
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedArrays:
    """Handle for one shared-memory segment holding named NumPy arrays.

    ``manifest`` is a plain picklable dict (send it to workers);
    ``arrays`` maps each key to a view backed by the segment.  The
    creating process should ``unlink()`` when all workers are done —
    both are safe to call twice.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: dict[str, Any],
        arrays: dict[str, np.ndarray],
        owner: bool,
    ) -> None:
        self._shm = shm
        self.manifest = manifest
        self.arrays = arrays
        self.owner = owner
        self._unlinked = False
        self._closed = False

    @property
    def name(self) -> str:
        return self.manifest["segment"]

    @property
    def nbytes(self) -> int:
        return int(self.manifest["nbytes"])

    @property
    def meta(self) -> dict[str, Any]:
        return self.manifest.get("meta", {})

    def close(self) -> None:
        """Release this process's mapping (best-effort; see module doc)."""
        if self._closed:
            return
        self.arrays = {}
        try:
            self._shm.close()
        except BufferError:
            # live NumPy views still reference the buffer; the mapping is
            # reclaimed when they are garbage-collected or the process exits
            return
        self._closed = True

    def unlink(self) -> None:
        """Remove the segment name (idempotent; owner's responsibility)."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedArrays":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
        if self.owner:
            self.unlink()

    def __repr__(self) -> str:
        return (
            f"SharedArrays({self.name!r}, {len(self.manifest['arrays'])} arrays, "
            f"{self.nbytes} bytes, owner={self.owner})"
        )


def share_arrays(
    arrays: Mapping[str, np.ndarray],
    meta: dict[str, Any] | None = None,
    name: str | None = None,
) -> SharedArrays:
    """Copy ``arrays`` into one fresh shared-memory segment.

    ``meta`` rides along in the manifest (picklable scalars only) — the
    graph classes use it for shape/config fields.  The single copy here
    is the only copy: workers attach views.
    """
    specs: list[dict[str, Any]] = []
    offset = 0
    for key, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = _aligned(offset)
        specs.append(
            {
                "key": key,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
            }
        )
        offset += array.nbytes
    total = max(offset, 1)  # SharedMemory rejects size 0
    segment_name = name or f"repro-{secrets.token_hex(8)}"
    shm = shared_memory.SharedMemory(name=segment_name, create=True, size=total)
    manifest = {
        "segment": shm.name,
        "nbytes": total,
        "tracker": _tracker_id(),
        "meta": dict(meta or {}),
        "arrays": specs,
    }
    views: dict[str, np.ndarray] = {}
    for spec, (key, array) in zip(specs, arrays.items()):
        view = np.ndarray(
            tuple(spec["shape"]), dtype=np.dtype(spec["dtype"]),
            buffer=shm.buf, offset=spec["offset"],
        )
        view[...] = np.ascontiguousarray(array)
        views[key] = view
    return SharedArrays(shm, manifest, views, owner=True)


def attach_arrays(manifest: dict[str, Any]) -> SharedArrays:
    """Re-open a segment described by ``manifest`` and rebuild the views.

    The attachment leaves no claim on the segment with any resource
    tracker, so the creator stays the sole owner of its lifecycle.
    """
    shm = shared_memory.SharedMemory(name=manifest["segment"])
    _untrack(shm, manifest.get("tracker"))
    arrays = {
        spec["key"]: np.ndarray(
            tuple(spec["shape"]), dtype=np.dtype(spec["dtype"]),
            buffer=shm.buf, offset=spec["offset"],
        )
        for spec in manifest["arrays"]
    }
    return SharedArrays(shm, manifest, arrays, owner=False)


def manifest_nbytes(manifest: dict[str, Any]) -> int:
    """Segment size described by a manifest, without attaching to it.

    The serving cache accounts shared segments against its byte budget
    from the manifest alone.
    """
    return int(manifest["nbytes"])


def _tracker_id() -> int | None:
    """Identity of this process's resource tracker: the inode of the pipe
    to it, which every ``multiprocessing`` child inherits."""
    try:  # pragma: no cover - platform-dependent internals
        from multiprocessing import resource_tracker

        return os.fstat(resource_tracker.getfd()).st_ino
    except Exception:
        return None


def _untrack(shm: shared_memory.SharedMemory, creator_tracker: int | None) -> None:
    # Until 3.13's track=False, every attach registers the segment with
    # the resource tracker.  A tracker of the attacher's own would unlink
    # the segment (and warn) at interpreter exit, so drop that claim.  In
    # the creator's tracker the entry is the creator's: the register was a
    # no-op, and an unregister would remove it, so that concurrent
    # attachers (register, register, unregister, unregister) make the
    # tracker log KeyError.
    if creator_tracker is not None and creator_tracker == _tracker_id():
        return
    try:  # pragma: no cover - platform-dependent internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass
