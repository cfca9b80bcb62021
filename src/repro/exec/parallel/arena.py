"""Shared-memory arenas: zero-copy array transport for the worker pool.

A :class:`SharedArena` leases POSIX shared-memory segments from one
process-wide pool.  The driver copies inputs in (or allocates empty
output arrays), hands the picklable :class:`ArrayRef` handles to worker
tasks, and reads results back through its own views.  Segments outlive
the arena that leased them:

* a clean arena exit returns its segments to a free list keyed by
  power-of-two size class, so the next phase reuses them without a
  create/attach/unlink cycle (their pages go back to the system while
  they sit idle);
* an output array from :meth:`SharedArena.empty` keeps its segment leased
  until that array — and every view of it — is garbage-collected, so
  partition outputs pass from one phase to the next in place
  (:func:`resident_ref` turns them back into refs without a copy);
* an arena exit *with an exception* quarantines its segments: they are
  unlinked, never recycled, because a straggler morsel of the failed run
  may still be queued or running and must not write into a segment some
  later phase owns;
* :func:`release_segments` (called by ``shutdown_pool`` and at
  interpreter exit) unlinks every pooled segment.

Workers attach by name and keep each segment mapped for their lifetime
(an attachment cache keyed by segment name), so a segment is opened and
mapped once per worker, not once per morsel.  Workers never unlink;
segment lifetime is owned entirely by the driver.

When the pool runs inline (a single worker executes morsels in-process),
the arena skips shared memory entirely: refs simply carry the ndarray.
That keeps single-core machines and tiny inputs on the plain vector path
cost-wise while exercising the same kernel code.
"""

from __future__ import annotations

import atexit
import mmap
import os
import threading
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ExecutionError

try:  # pragma: no cover - import failure is the restricted-sandbox case
    from multiprocessing import shared_memory as _shm_mod
    _SHM_IMPORT_ERROR: Optional[BaseException] = None
except Exception as exc:  # pragma: no cover
    _shm_mod = None
    _SHM_IMPORT_ERROR = exc

#: Smallest segment size class, in bytes (one page).
MIN_SEGMENT_BYTES = 4096

#: Free-list bytes beyond which a returned segment is unlinked instead of
#: pooled, so a one-off large phase cannot leave a crowd of idle segments
#: (each an open descriptor and a mapping per process) behind.
MAX_FREE_BYTES = 64 << 20

_SHM_DIR = "/dev/shm"


def shared_memory_probe() -> Optional[str]:
    """None when POSIX shared memory works here, else the reason it cannot.

    Restricted sandboxes may lack /dev/shm or forbid shm_open; the backend
    layer turns a non-None reason into a graceful fallback to ``vector``.
    """
    if _shm_mod is None:
        return f"multiprocessing.shared_memory unavailable: {_SHM_IMPORT_ERROR}"
    try:
        seg = _shm_mod.SharedMemory(create=True, size=16)
    except Exception as exc:
        return f"cannot create a shared-memory segment: {exc}"
    try:
        seg.close()
        seg.unlink()
    except Exception:
        pass
    return None


@dataclass(frozen=True)
class ArrayRef:
    """Picklable handle to one arena array.

    Either ``shm_name`` names a shared segment holding the array bytes at
    ``offset``, ``path``/``offset`` locate the bytes in a file every
    worker can map read-only (the out-of-core zero-copy path), or
    ``array`` carries the ndarray directly (inline pools only — such refs
    must never cross a process boundary).
    """

    shape: Tuple[int, ...]
    dtype: str
    shm_name: Optional[str] = None
    array: Optional[np.ndarray] = None
    path: Optional[str] = None
    offset: int = 0


def _memmap_root(array: np.ndarray) -> Optional[np.memmap]:
    """The file-backed memmap an array views, if any (else None)."""
    a = array
    while isinstance(a, np.ndarray):
        if (isinstance(a, np.memmap)
                and isinstance(getattr(a, "base", None), mmap.mmap)
                and getattr(a, "filename", None)):
            return a
        a = a.base
    return None


def _byte_offset(array: np.ndarray, root: np.ndarray) -> int:
    return (array.__array_interface__["data"][0]
            - root.__array_interface__["data"][0])


def file_backed_ref(array: np.ndarray) -> Optional[ArrayRef]:
    """A path/offset ref for a contiguous file-mapped view, else None.

    Out-of-core morsels arrive as slices of raw-codec chunk mappings;
    instead of copying their bytes into a fresh shared segment, workers
    can map the chunk file directly — the page cache shares the physical
    pages, so the morsel crosses the process boundary without a copy.
    """
    root = _memmap_root(array)
    if root is None or root.mode not in ("r", "c"):
        return None
    if array.ndim != 1 or not array.flags["C_CONTIGUOUS"]:
        return None
    delta = _byte_offset(array, root)
    if delta < 0:
        return None
    return ArrayRef(shape=tuple(array.shape), dtype=array.dtype.str,
                    path=str(root.filename),
                    offset=int(root.offset) + int(delta))


# ------------------------------------------------------- segment pool

class _Segment:
    """One pooled segment plus the holds that keep it off the free list.

    The leasing arena holds it until its exit; an output array holds it
    until the array is garbage.  At zero holds it returns to the free
    list — unless it was retired (quarantined or released), in which
    case it is already unlinked and is only unmapped.  Only the process
    that created it ever recycles or unlinks it.
    """

    __slots__ = ("shm", "holds", "retired", "pid")

    def __init__(self, shm):
        self.shm = shm
        self.holds = 1
        self.retired = False
        self.pid = os.getpid()


_lock = threading.RLock()
#: Every live pooled segment of this process, by name.
_segments: Dict[str, _Segment] = {}
#: Size class (bytes) -> segments ready for reuse.
_free: Dict[int, List[_Segment]] = {}
_free_bytes = 0
#: id(root output view) -> its segment, for :func:`resident_ref`.
_roots: Dict[int, _Segment] = {}
#: Worker-side attachment cache: segment name -> its mapping.
_attached: Dict[str, mmap.mmap] = {}
_atexit_registered = False


def _forget_parent_pool() -> None:
    """A forked child (a pool worker) owns none of its parent's segments:
    recycling or unlinking them here would corrupt the parent's phases."""
    global _segments, _free, _free_bytes, _roots, _attached
    _segments, _free, _roots, _attached = {}, {}, {}, {}
    _free_bytes = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_parent_pool)


def _size_class(nbytes: int) -> int:
    return max(MIN_SEGMENT_BYTES, 1 << max(nbytes - 1, 0).bit_length())


def _acquire(nbytes: int) -> _Segment:
    """A segment of at least ``nbytes``: recycled if one is free."""
    global _free_bytes, _atexit_registered
    size = _size_class(nbytes)
    with _lock:
        bucket = _free.get(size)
        if bucket:
            seg = bucket.pop()
            _free_bytes -= size
            seg.holds = 1
            return seg
        if _shm_mod is None:
            raise ExecutionError(
                "shared memory is unavailable; the parallel backend should "
                "have fallen back to vector", reason=str(_SHM_IMPORT_ERROR))
        seg = _Segment(_shm_mod.SharedMemory(create=True, size=size))
        _segments[seg.shm.name] = seg
        if not _atexit_registered:
            atexit.register(release_segments)
            _atexit_registered = True
        return seg


def _unlink(seg: _Segment) -> None:
    """Retire a segment: remove its name now, unmap at zero holds."""
    seg.retired = True
    _segments.pop(seg.shm.name, None)
    try:
        seg.shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass
    if seg.holds == 0:
        seg.shm.close()


def _drop_pages(seg: _Segment) -> None:
    """Give an idle segment's pages back to the system.

    The name and every mapping (driver and workers) stay valid, so reuse
    costs only fresh page faults, not a create/attach/unlink cycle; the
    memory of idle segments is not held while other phases run.
    """
    advice = getattr(mmap, "MADV_REMOVE", None)
    mapped = getattr(seg.shm, "_mmap", None)
    if advice is not None and mapped is not None:
        mapped.madvise(advice)


def _release(seg: _Segment) -> None:
    """Drop one hold; at zero the segment is pooled (or unmapped)."""
    global _free_bytes
    with _lock:
        seg.holds -= 1
        if seg.holds > 0 or seg.pid != os.getpid():
            return
        if seg.retired:
            seg.shm.close()
            return
        size = seg.shm.size
        if _free_bytes + size > MAX_FREE_BYTES:
            _unlink(seg)
            return
        _drop_pages(seg)
        _free.setdefault(size, []).append(seg)
        _free_bytes += size


def _release_root(root_id: int, seg: _Segment) -> None:
    with _lock:
        _roots.pop(root_id, None)
    _release(seg)


def release_segments() -> None:
    """Unlink every pooled segment of this process (pool shutdown, exit).

    Segments still leased by live output arrays lose their names at once
    and are unmapped when the last view dies, so those arrays stay
    readable.
    """
    global _free_bytes
    with _lock:
        for seg in list(_segments.values()):
            _unlink(seg)
        _free.clear()
        _free_bytes = 0


def pooled_segment_names() -> List[str]:
    """Names of this process's live pooled segments (diagnostics, tests)."""
    with _lock:
        return sorted(_segments)


def free_segment_names() -> List[str]:
    """Names of the segments on the free list (diagnostics, tests)."""
    with _lock:
        return sorted(s.shm.name for bucket in _free.values()
                      for s in bucket)


def resident_ref(array: np.ndarray) -> Optional[ArrayRef]:
    """A zero-copy ref for a contiguous view of a leased output, else None.

    Outputs of :meth:`SharedArena.empty` already live in a segment every
    worker can attach; slices of them ship as (segment, offset) refs
    instead of being copied again.
    """
    if not isinstance(array, np.ndarray) or array.ndim != 1:
        return None
    if not array.flags["C_CONTIGUOUS"]:
        return None
    with _lock:
        a = array
        while isinstance(a, np.ndarray):
            seg = _roots.get(id(a))
            if seg is not None:
                break
            a = a.base
        else:
            return None
        if seg.retired:
            return None
    return ArrayRef(shape=tuple(array.shape), dtype=array.dtype.str,
                    shm_name=seg.shm.name, offset=_byte_offset(array, a))


# ---------------------------------------------------------- worker side

def _segment_gone(name: str) -> bool:
    return os.path.isdir(_SHM_DIR) and not os.path.exists(
        os.path.join(_SHM_DIR, name.lstrip("/")))


def _map_segment(name: str) -> mmap.mmap:
    """Map an existing segment without registering it anywhere.

    ``SharedMemory(name=...)`` would register the name with the resource
    tracker that a forked worker shares with its driver, and undoing that
    would drop the driver's own registration; workers never own a
    segment, so they bypass the tracker altogether.
    """
    import _posixshmem

    fd = _posixshmem.shm_open("/" + name.lstrip("/"), os.O_RDWR, mode=0o600)
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


def _attach(name: str):
    """The mapped segment ``name``: the driver's own, or cached per worker.

    A cache miss first unmaps cached segments the driver has since
    unlinked (quarantined or released), so the cache tracks the live pool.
    """
    seg = _segments.get(name)
    if seg is not None:
        return seg.shm.buf
    mapped = _attached.get(name)
    if mapped is None:
        if _shm_mod is None:  # pragma: no cover - guarded by the probe
            raise ExecutionError("worker cannot attach shared memory",
                                 reason=str(_SHM_IMPORT_ERROR))
        for stale in [n for n in _attached if _segment_gone(n)]:
            _attached.pop(stale).close()
        mapped = _attached[name] = _map_segment(name)
    return mapped


def attachment_cache_size() -> int:
    """Segments this process keeps mapped by name (worker diagnostics)."""
    return len(_attached)


class Attachment:
    """Worker-side view of one :class:`ArrayRef` (never unlinks).

    Shared segments stay mapped in the attachment cache after
    :meth:`close`; file mappings are unmapped.
    """

    def __init__(self, ref: ArrayRef):
        self._mapped: Optional[np.memmap] = None
        if ref.array is not None:
            self.array = ref.array
            return
        if ref.path is not None:
            mapped = np.memmap(ref.path, dtype=np.dtype(ref.dtype),
                               mode="r", offset=ref.offset, shape=ref.shape)
            self.array = mapped
            self._mapped = mapped
            return
        self.array = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                                buffer=_attach(ref.shm_name),
                                offset=ref.offset)

    def close(self) -> None:
        self.array = None
        if self._mapped is not None:
            mapped, self._mapped = self._mapped, None
            try:
                mapped._mmap.close()
            except (BufferError, ValueError, AttributeError):
                pass


class attached:
    """Context manager attaching several refs at once: yields the arrays."""

    def __init__(self, *refs: ArrayRef):
        self._refs = refs
        self._attachments: List[Attachment] = []

    def __enter__(self):
        for ref in self._refs:
            self._attachments.append(Attachment(ref))
        return tuple(a.array for a in self._attachments)

    def __exit__(self, *exc_info):
        for a in self._attachments:
            a.close()
        self._attachments = []
        return False


# ----------------------------------------------------------- the arena

class SharedArena:
    """Driver-side lease on pooled segments for one pool phase."""

    def __init__(self, use_shm: bool = True):
        self.use_shm = bool(use_shm)
        self._leased: List[_Segment] = []

    def share(self, array: np.ndarray) -> ArrayRef:
        """Share an input array with the workers; returns its ref.

        File-mapped inputs (out-of-core morsels under the raw codec)
        ship as path/offset refs and never touch shared memory —
        workers map the chunk file themselves and the kernel page cache
        deduplicates the physical pages.  Everything else is copied
        into a pooled segment.
        """
        array = np.ascontiguousarray(array)
        if not self.use_shm:
            return ArrayRef(shape=array.shape, dtype=array.dtype.str,
                            array=array)
        ref = file_backed_ref(array)
        if ref is not None:
            from repro.obs.trace import current_tracer
            current_tracer().metrics.counter(
                "store.zero_copy_shares").inc()
            return ref
        view, ref = self._allocate(array.shape, array.dtype)
        view[...] = array
        return ref

    def ref(self, array: np.ndarray) -> ArrayRef:
        """A ref to ``array``: in place when it already lives in a leased
        output segment, else through :meth:`share`."""
        ref = resident_ref(array) if self.use_shm else None
        return ref if ref is not None else self.share(array)

    def empty(self, shape, dtype) -> Tuple[np.ndarray, ArrayRef]:
        """Allocate an uninitialized output array; returns (view, ref).

        The driver keeps the view to read results back after the workers
        have filled their disjoint slices, and may keep it past the
        arena: the segment stays leased until the view is garbage.
        """
        dtype = np.dtype(dtype)
        if not self.use_shm:
            array = np.empty(shape, dtype=dtype)
            return array, ArrayRef(shape=array.shape, dtype=array.dtype.str,
                                   array=array)
        view, ref = self._allocate(shape, dtype)
        seg = self._leased[-1]
        with _lock:
            seg.holds += 1
            _roots[id(view)] = seg
        # atexit=False: at interpreter exit release_segments unlinks the
        # segment while the view may still be alive; never recycle it then.
        weakref.finalize(view, _release_root, id(view), seg).atexit = False
        return view, ref

    def _allocate(self, shape, dtype) -> Tuple[np.ndarray, ArrayRef]:
        shape = tuple(int(d) for d in np.atleast_1d(shape))
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        seg = _acquire(nbytes)
        self._leased.append(seg)
        view = np.ndarray(shape, dtype=dtype, buffer=seg.shm.buf)
        ref = ArrayRef(shape=shape, dtype=dtype.str, shm_name=seg.shm.name)
        return view, ref

    def close(self, failed: bool = False) -> None:
        """End the lease: recycle the segments, or quarantine them when
        the phase ``failed`` (stragglers may still write into them)."""
        leased, self._leased = self._leased, []
        with _lock:
            for seg in leased:
                if failed and not seg.retired:
                    _unlink(seg)
                _release(seg)

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, exc_type, *exc_info):
        self.close(failed=exc_type is not None)
        return False
