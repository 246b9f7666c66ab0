"""Process tuning for long vectorized loops.

The batched contraction engine and the preprocessing benchmarks spend
their time in NumPy bulk operations over multi-megabyte temporaries.
Two CPython/glibc defaults hurt badly in that regime:

* The cyclic garbage collector triggers on allocation counts.  Bulk
  array code allocates wrappers at a high rate but creates no
  reference cycles, so collections are pure overhead — and on
  virtualized hosts a generation-2 pass in the middle of a round shows
  up as a multi-second stall.  (Measured here: the same 640k-vertex
  adjacency gather takes 0.08 s steady-state and 3.8 s when it absorbs
  a collection.)
* glibc serves every allocation above ``M_MMAP_THRESHOLD`` (128 KiB)
  with a private ``mmap`` and returns it on ``free``.  Every big NumPy
  temporary then pays for fresh page faults on each use instead of
  recycling hot heap pages.

:func:`bulk_compute` pauses the garbage collector for the duration of
the loop (reference counting still reclaims everything acyclic, which
is all the engine allocates) and, once per process, raises the malloc
thresholds so the heap holds on to its pages.  The malloc tuning is a
no-op off glibc.
"""

from __future__ import annotations

import ctypes
import gc
from contextlib import contextmanager

__all__ = ["bulk_compute", "keep_malloc_arenas"]

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_malloc_tuned = False


def keep_malloc_arenas() -> bool:
    """Tell glibc to recycle large blocks instead of unmapping them.

    Raises ``M_MMAP_THRESHOLD`` and ``M_TRIM_THRESHOLD`` to 1 GiB so
    repeated large NumPy temporaries reuse already-faulted heap pages.
    Process-wide and sticky (footprint stays at its high-water mark);
    applied once, subsequent calls are no-ops.  Returns ``True`` if the
    tuning is in effect, ``False`` where there is no ``mallopt``.
    """
    global _malloc_tuned
    if _malloc_tuned:
        return True
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt(_M_MMAP_THRESHOLD, 1 << 30)
        libc.mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    except OSError:
        return False
    _malloc_tuned = True
    return True


@contextmanager
def bulk_compute():
    """Context for allocation-heavy, cycle-free NumPy loops.

    Pauses the cyclic garbage collector and applies
    :func:`keep_malloc_arenas`.  Exit only re-enables the collector if
    it was enabled: the loops make no cycles, and the next generation-0
    threshold collects whatever was allocated meanwhile, so a catch-up
    collection would be a full pass that finds nothing (it grows with
    the live heap).  Reentrant: nested uses leave the collector paused
    until the outermost exit.
    """
    keep_malloc_arenas()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
