"""Customization kernels: a compiled fast path and a NumPy fallback.

Customization is a min-plus relaxation over hundreds of millions of
precomputed triangles, in two passes: bottom-up, recording each arc's
winning triangle (:func:`customize_pass`), and top-down with prune
marking (:func:`perfect_pass`).  Both work on lexicographic
``(weight, hops)`` labels: ``w`` holds int64 weights (``inf`` means no
path), ``h`` the int32 number of original arcs behind each weight.

The C versions are built on demand with the system C compiler, once
per process, and loaded through :mod:`ctypes` — no third-party build
machinery, nothing to install.  If there is no compiler, the compile
fails, or ``REPRO_NO_NATIVE`` is set, each pass runs its NumPy
fallback, one level slice at a time (per-slice temporaries keep memory
flat), with bit-identical results:

* bottom-up, a level's triangles read arcs of their own level's block
  and write arcs strictly higher, so per-triangle order cannot observe
  a same-level write, and the winner is the highest index whose walk
  equals the final label;
* top-down, a level's writes may be read by the same level (in C) or
  not (NumPy), but every label is the length of a real walk and the
  exact candidate is always offered, so both end at the exact
  distance.  An arc is unmarked when some walk through a higher vertex
  is no longer than its label at that moment; the label only falls
  through such walks, so either way that happens exactly when a walk
  through a higher vertex matches its final label.

Candidates whose legs or sum reach ``inf`` are skipped, so no sum can
overflow (both legs are below ``inf = 2**62``).
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import tempfile
import threading

import numpy as np

__all__ = [
    "customize_pass",
    "perfect_pass",
    "native_available",
]

_SOURCE = r"""
#include <stdint.h>

/* Lexicographic min of x and the walk a then b, which is skipped if
   a leg or the sum reaches inf.  Returns 1 when the walk is no longer
   than x was: it covers x. */
static inline int relax(int64_t *w, int32_t *h, int32_t x, int32_t a,
                        int32_t b, int64_t inf)
{
    if (w[a] >= inf || w[b] >= inf) return 0;
    int64_t cw = w[a] + w[b];
    int32_t ch = h[a] + h[b];
    if (cw >= inf) return 0;
    if (cw < w[x] || (cw == w[x] && ch < h[x])) {
        w[x] = cw;
        h[x] = ch;
        return 1;
    }
    return cw == w[x] && ch == h[x];
}

/* Bottom-up: every lower triangle (u->v, v->w) relaxes u->w, and
   win[u->w] becomes the last triangle that matches or beats it. */
void repro_customize_pass(int64_t *w, int32_t *h, int32_t *win,
                          const int32_t *tri_in, const int32_t *tri_out,
                          const int32_t *tri_target, int64_t num_triangles,
                          int64_t inf)
{
    for (int64_t t = 0; t < num_triangles; t++)
        if (relax(w, h, tri_target[t], tri_in[t], tri_out[t], inf))
            win[tri_target[t]] = (int32_t)t;
}

/* Top-down, levels descending: the triangle also relaxes v->w through
   v->u->w and u->v through u->w->v, and an arc such a walk covers
   loses its keep mark. */
void repro_perfect_pass(int64_t *w, int32_t *h, const int32_t *rev,
                        const int32_t *tri_in, const int32_t *tri_out,
                        const int32_t *tri_target, const int64_t *level_first,
                        int64_t num_levels, uint8_t *keep, int64_t inf)
{
    for (int64_t l = num_levels - 1; l >= 0; l--) {
        for (int64_t t = level_first[l]; t < level_first[l + 1]; t++) {
            int32_t a = tri_in[t], b = tri_out[t], x = tri_target[t];
            if (relax(w, h, b, rev[a], x, inf)) keep[b] = 0;
            if (relax(w, h, a, x, rev[b], inf)) keep[a] = 0;
        }
    }
}
"""

_lock = threading.Lock()
_lib: ctypes.CDLL | bool | None = None  # None: untried, False: unavailable

_I64 = ctypes.POINTER(ctypes.c_int64)
_I32 = ctypes.POINTER(ctypes.c_int32)
_U8 = ctypes.POINTER(ctypes.c_uint8)
_N = ctypes.c_int64

_SIGNATURES = {
    "repro_customize_pass": [_I64, _I32, _I32, _I32, _I32, _I32, _N, _N],
    "repro_perfect_pass": [_I64, _I32, _I32, _I32, _I32, _I32, _I64, _N,
                           _U8, _N],
}

_NO_HOPS = np.iinfo(np.int32).max


def _compile() -> ctypes.CDLL | bool:
    if os.environ.get("REPRO_NO_NATIVE"):
        return False
    cc = os.environ.get("CC", "cc")
    try:
        with tempfile.TemporaryDirectory(prefix="repro-native-") as workdir:
            c_path = os.path.join(workdir, "customize.c")
            so_path = os.path.join(workdir, "customize.so")
            with open(c_path, "w") as fh:
                fh.write(_SOURCE)
            subprocess.run(
                [cc, "-O3", "-march=native", "-shared", "-fPIC",
                 "-o", so_path, c_path],
                check=True, capture_output=True, timeout=120,
            )
            # The loaded mapping outlives the file, so nothing is left
            # behind in the temp directory.
            lib = ctypes.CDLL(so_path)
    except Exception:
        return False
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = None
    return lib


def _load() -> ctypes.CDLL | bool:
    global _lib
    if _lib is None:
        with _lock:
            if _lib is None:
                _lib = _compile()
    return _lib


def native_available() -> bool:
    """Whether the compiled kernels are (or can be made) loadable."""
    return bool(_load())


_DTYPES = {_I64: np.int64, _I32: np.int32, _U8: np.uint8}


def _ptr(arr: np.ndarray, ctype):
    want = np.dtype(_DTYPES[ctype])
    if arr.dtype != want or not arr.flags.c_contiguous:
        raise TypeError(f"kernel needs a C-contiguous {want} array, "
                        f"got {arr.dtype}")
    return arr.ctypes.data_as(ctype)


def _slices(level_first: np.ndarray, descending: bool = False):
    bounds = list(zip(level_first[:-1].tolist(), level_first[1:].tolist()))
    return [(lo, hi) for lo, hi in (bounds[::-1] if descending else bounds)
            if hi > lo]


def _relax(w, h, x, a, b, inf):
    """Lexicographic scatter-min of the ``a then b`` walks into ``x``.

    Returns the slice positions of the finite walks, which of them were
    no longer than their target before (they cover it), and which
    equal its label after.
    """
    wa = w[a]
    wb = w[b]
    sel = np.flatnonzero((wa < inf) & (wb < inf))
    cw = wa[sel] + wb[sel]
    fin = cw < inf
    sel, cw = sel[fin], cw[fin]
    ch = h[a[sel]] + h[b[sel]]
    x = x[sel]
    old_w = w[x]
    old_h = h[x]
    np.minimum.at(w, x, cw)
    new_w = w[x]
    h[x[new_w < old_w]] = _NO_HOPS
    eq = cw == new_w
    np.minimum.at(h, x[eq], ch[eq])
    covers = (cw < old_w) | ((cw == old_w) & (ch <= old_h))
    return sel, covers, eq & (ch == h[x])


def customize_pass(w: np.ndarray, h: np.ndarray, win: np.ndarray,
                   tri_in: np.ndarray, tri_out: np.ndarray,
                   tri_target: np.ndarray, level_first: np.ndarray,
                   inf: int) -> bool:
    """Bottom-up lexicographic relaxation over every triangle, in place.

    ``win[x]`` ends as the highest triangle index whose walk equals
    arc ``x``'s final label (unchanged where none does): triangles run
    in index order, so in C the last match or improvement wins.
    Returns whether the compiled kernel ran.
    """
    lib = _load()
    if lib:
        lib.repro_customize_pass(
            _ptr(w, _I64), _ptr(h, _I32), _ptr(win, _I32),
            _ptr(tri_in, _I32), _ptr(tri_out, _I32), _ptr(tri_target, _I32),
            tri_target.size, inf,
        )
        return True
    for lo, hi in _slices(level_first):
        tgt = tri_target[lo:hi]
        sel, _, best = _relax(w, h, tgt, tri_in[lo:hi], tri_out[lo:hi], inf)
        sel = sel[best]
        np.maximum.at(win, tgt[sel], (lo + sel).astype(np.int32))
    return False


def perfect_pass(w: np.ndarray, h: np.ndarray, rev: np.ndarray,
                 tri_in: np.ndarray, tri_out: np.ndarray,
                 tri_target: np.ndarray, level_first: np.ndarray,
                 keep: np.ndarray, inf: int) -> bool:
    """Top-down pass: exact ``(weight, hops)`` on every arc, and
    ``keep[a] = False`` for each arc an upper or intermediate triangle
    covers.  ``rev[a]`` is the closure id of arc ``a`` reversed.

    Returns whether the compiled kernel ran.
    """
    lib = _load()
    if lib:
        lib.repro_perfect_pass(
            _ptr(w, _I64), _ptr(h, _I32), _ptr(rev, _I32),
            _ptr(tri_in, _I32), _ptr(tri_out, _I32), _ptr(tri_target, _I32),
            _ptr(level_first, _I64), level_first.size - 1,
            _ptr(keep.view(np.uint8), _U8), inf,
        )
        return True
    for lo, hi in _slices(level_first, descending=True):
        t_in, t_out, tgt = tri_in[lo:hi], tri_out[lo:hi], tri_target[lo:hi]
        for x, a, b in ((t_out, rev[t_in], tgt), (t_in, tgt, rev[t_out])):
            sel, covers, _ = _relax(w, h, x, a, b, inf)
            keep[x[sel[covers]]] = False
    return False
