"""Compiled kernels, each with a bit-identical fallback.

Four families of kernels live in one C source, built into one library:

* **Customization.**  A min-plus relaxation over hundreds of millions
  of precomputed triangles, in two passes: bottom-up, recording each
  arc's winning triangle (:func:`customize_pass`), and top-down with
  prune marking (:func:`perfect_pass`).  Both work on lexicographic
  ``(weight, hops)`` labels: ``w`` holds int64 weights (``inf`` means
  no path), ``h`` the int32 number of original arcs behind each
  weight.
* **Queries.**  PHAST's two phases: the upward search, a binary-heap
  Dijkstra over ``G↑`` (:class:`UpwardSearch`), and the linear sweep
  over a sweep structure's 32-bit arcs.  A batch of ``k`` trees is one
  call (:class:`Trees`; one tree is ``k = 1``): each lane's search
  writes its marks into its seed column, one sweep serves all lanes
  (5 to 8 and 9 to 16 lanes sweep a constant 8 and 16, padded with
  lanes that start from ∞),
  each lane is written to its row by original vertex ID, and the seeds
  go back to ∞.  On a hierarchy with an elimination tree (a customized
  one) a lane's search walks the source's ancestors in rank order
  instead of running the heap: the same marks and labels, in rank
  order rather than settling order.  Lanes the caller seeds (cached
  searches, a given search space) skip the search.  The fallbacks are
  :func:`repro.ch.query.upward_search`'s ``heapq`` loop and
  :class:`repro.core.sweep.LevelSweep`'s per-level NumPy code.
  :func:`thread_searcher` keeps one searcher per thread and graph, so
  repeated searches reuse their scratch.
* **Formatting.**  Whole answer frames of a served sweep batch in one
  call (:func:`answer_frames`), read from the intake's records in
  place: for each request its length header, its id (the JSON text it
  came in, an offset pair into its read) and its payload — the row,
  the row at its targets, or the vertices within its budget — written
  from the batch's rows as ``json.dumps`` writes them, so the server
  makes no Python object per request, no Python int per entry and no
  dict per answer.  The same
  integer writer gives an int64 array's JSON text
  (:func:`format_ints`, the bytes ``json.dumps`` gives for its
  ``tolist()``; the matrix op's array).  Both write into one reused
  buffer per thread.  The fallbacks encode the same payloads with
  ``tolist()`` lists (:func:`repro.server.protocol.sweep_frames` and
  :func:`repro.server.protocol.int_array`).
* **Intake.**  The frames of one socket read in one call
  (:func:`parse_requests`): each whole frame's bounds, and for a sweep
  request (``tree``, ``one_to_many``, ``isochrone``) in a strict JSON
  subset its op, its id's text, its source, its targets (int64, in a
  reused array) or budget, and its ``timeout_ms``, checked as
  :func:`repro.server.protocol.validate_request` checks them, so such a
  request never becomes a dict.  Any other frame is *declined*: bytes
  outside ASCII, escapes, floats, non-canonical or over-18-digit
  integers, duplicate, unknown or missing keys, a vertex out of range,
  any other op.  A declined frame, and every frame without the
  kernels, takes the ``json.loads`` path, so its answer is the one it
  always was.

The library is built with the system C compiler and loaded through
:mod:`ctypes` — no third-party build machinery, nothing to install.
It is cached per host (see :func:`_compile`), so a process compiles
only when no usable cached build exists.  If there is no compiler, the
compile fails, or ``REPRO_NO_NATIVE`` is set, every caller runs its
fallback.  The customization fallbacks work one level slice at a time
(per-slice temporaries keep memory flat), with bit-identical results:

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
overflow (both legs are below ``inf = 2**62``).  The query kernels are
identical to their fallbacks by construction: the search's heap orders
entries as ``heapq`` orders ``(dist, vertex)`` tuples, so vertices
settle in the same order with the same parents, and the sweep takes
the same minimum of the same candidates per position.  The walk ends
with the heap's labels: it visits every vertex the search can reach in
rank order, a topological order of ``G↑``, so each label is final
before its arcs are relaxed, and it keeps the heap's rule that a
candidate of ``inf`` or more reaches nothing.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import threading
import weakref
from array import array

import numpy as np

from ..graph.csr import INF

__all__ = [
    "answer_frames",
    "customize_pass",
    "parse_requests",
    "format_ints",
    "perfect_pass",
    "native_available",
    "Trees",
    "trees_kernel",
    "UpwardSearch",
    "upward_searcher",
    "thread_searcher",
]

_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
#include <string.h>

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

/* Binary min-heap of int64 pairs, ordered as Python orders tuples,
   so (dist, vertex) entries pop in heapq's order. */
static inline int before(const int64_t *heap, int64_t a, int64_t b)
{
    return heap[2 * a] < heap[2 * b]
        || (heap[2 * a] == heap[2 * b] && heap[2 * a + 1] < heap[2 * b + 1]);
}

static inline void swap_entries(int64_t *heap, int64_t a, int64_t b)
{
    int64_t d = heap[2 * a], v = heap[2 * a + 1];
    heap[2 * a] = heap[2 * b];
    heap[2 * a + 1] = heap[2 * b + 1];
    heap[2 * b] = d;
    heap[2 * b + 1] = v;
}

static void heap_push(int64_t *heap, int64_t *size, int64_t d, int64_t v)
{
    int64_t i = (*size)++;
    heap[2 * i] = d;
    heap[2 * i + 1] = v;
    while (i > 0 && before(heap, i, (i - 1) / 2)) {
        swap_entries(heap, i, (i - 1) / 2);
        i = (i - 1) / 2;
    }
}

static void heap_pop(int64_t *heap, int64_t *size)
{
    int64_t last = --(*size), i = 0;
    heap[0] = heap[2 * last];
    heap[1] = heap[2 * last + 1];
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= last) break;
        if (c + 1 < last && before(heap, c + 1, c)) c++;
        if (!before(heap, c, i)) break;
        swap_entries(heap, i, c);
        i = c;
    }
}

/* Dijkstra from source over a CSR graph until the heap empties, with
   lazy deletion.  stamp[v] == 2 gen marks v reached in this search
   (label valid), 2 gen + 1 settled, so nothing is reset between
   searches.  Writes the settled vertices in order and returns their
   count; parent may be NULL.  heap holds 2 (m + 1) entries. */
static int64_t settle(const int64_t *first, const int64_t *head,
                      const int64_t *len, int64_t source, int64_t *stamp,
                      int64_t gen, int64_t *label, int64_t *parent,
                      int64_t *heap, int64_t *settled, int64_t inf)
{
    const int64_t reached = 2 * gen, done = 2 * gen + 1;
    int64_t size = 0, count = 0;
    stamp[source] = reached;
    label[source] = 0;
    if (parent) parent[source] = -1;
    heap_push(heap, &size, 0, source);
    while (size) {
        int64_t dv = heap[0], v = heap[1];
        heap_pop(heap, &size);
        if (stamp[v] == done) continue;
        stamp[v] = done;
        settled[count++] = v;
        for (int64_t i = first[v]; i < first[v + 1]; i++) {
            int64_t w = head[i];
            if (stamp[w] == done) continue;
            int64_t nd = dv + len[i];
            if (nd < (stamp[w] == reached ? label[w] : inf)) {
                stamp[w] = reached;
                label[w] = nd;
                if (parent) parent[w] = v;
                heap_push(heap, &size, nd, w);
            }
        }
    }
    return count;
}

/* The upward search without a heap, on a graph whose every vertex
   reachable from source is an ancestor of source in the elimination
   tree parent (-1 at a root; a parent ranks above its child).  The
   walk source, parent[source], ... meets those vertices in rank order,
   a topological order of the graph, so each label is final when the
   walk gets there; a reached vertex relaxes its arcs under settle's
   rule (a candidate of inf or more reaches nothing), so the labels
   and the vertices written are settle's, in rank order.  Each vertex
   walked is stamped done, and the walk stops at one already done, so
   a parent array with a cycle cannot overrun settled. */
static int64_t climb(const int64_t *first, const int64_t *head,
                     const int64_t *len, const int64_t *parent,
                     int64_t source, int64_t *stamp, int64_t gen,
                     int64_t *label, int64_t *settled, int64_t inf)
{
    const int64_t reached = 2 * gen, done = 2 * gen + 1;
    int64_t count = 0;
    stamp[source] = reached;
    label[source] = 0;
    for (int64_t v = source; v >= 0 && stamp[v] != done; v = parent[v]) {
        int64_t was = stamp[v];
        stamp[v] = done;
        if (was != reached) continue;
        int64_t dv = label[v];
        settled[count++] = v;
        for (int64_t i = first[v]; i < first[v + 1]; i++) {
            int64_t w = head[i];
            if (stamp[w] == done) continue;
            int64_t nd = dv + len[i];
            if (nd < (stamp[w] == reached ? label[w] : inf)) {
                stamp[w] = reached;
                label[w] = nd;
            }
        }
    }
    return count;
}

/* The search space in settling order: vertices, labels, parents. */
int64_t repro_upward_search(const int64_t *first, const int64_t *head,
                            const int64_t *len, int64_t source,
                            int64_t *stamp, int64_t gen, int64_t *label,
                            int64_t *parent, int64_t *heap,
                            int64_t *vertices, int64_t *dists,
                            int64_t *parents, int64_t inf)
{
    int64_t count = settle(first, head, len, source, stamp, gen, label,
                           parent, heap, vertices, inf);
    for (int64_t i = 0; i < count; i++) {
        dists[i] = label[vertices[i]];
        parents[i] = parent[vertices[i]];
    }
    return count;
}

/* PHAST's linear sweep over k lanes.  dist and seed are (n, k)
   row-major; lane j of position p gets the least of seed[p][j] (its
   search mark, inf elsewhere) and dist[tail][j] + len over its
   in-arcs.  Every tail precedes its head, so one pass in position
   order needs no level loop, and a candidate through an unreached
   tail (inf + len) never beats a seed, so labels stay at most inf.
   Unless out is NULL, lanes j < rows of position p are also written
   to out[j][vertex_at[p]], rows of out_n. */
static inline void sweep(int64_t *dist, const int64_t *seed,
                         const int32_t *arc_first, const int32_t *arc_tail,
                         const int32_t *arc_len, int64_t n, int64_t k,
                         int64_t rows, const int64_t *vertex_at,
                         int64_t *out, int64_t out_n)
{
    for (int64_t p = 0; p < n; p++) {
        int64_t *row = dist + p * k;
        for (int64_t j = 0; j < k; j++) row[j] = seed[p * k + j];
        for (int32_t i = arc_first[p]; i < arc_first[p + 1]; i++) {
            const int64_t *tail = dist + (int64_t)arc_tail[i] * k;
            int64_t len = arc_len[i];
            for (int64_t j = 0; j < k; j++) {
                int64_t c = tail[j] + len;
                row[j] = c < row[j] ? c : row[j];
            }
        }
        if (out) {
            int64_t *col = out + vertex_at[p];
            for (int64_t j = 0; j < rows; j++) col[j * out_n] = row[j];
        }
    }
}

/* The sweep at a constant width of w <= 16 lanes (see sweep).  A
   position's labels are built in a local array, which no label the
   arcs read can alias, and the buffers are restrict, so the lane loops
   vectorize whole, with no alias check or remainder loop per arc. */
static inline void sweep_wide(int64_t *restrict dist,
                              const int64_t *restrict seed,
                              const int32_t *arc_first,
                              const int32_t *arc_tail,
                              const int32_t *arc_len, int64_t n,
                              const int64_t w, int64_t rows,
                              const int64_t *vertex_at,
                              int64_t *restrict out, int64_t out_n)
{
    int64_t acc[16];
    for (int64_t p = 0; p < n; p++) {
        for (int64_t j = 0; j < w; j++) acc[j] = seed[p * w + j];
        for (int32_t i = arc_first[p]; i < arc_first[p + 1]; i++) {
            const int64_t *tail = dist + (int64_t)arc_tail[i] * w;
            int64_t len = arc_len[i];
            for (int64_t j = 0; j < w; j++) {
                int64_t c = tail[j] + len;
                acc[j] = c < acc[j] ? c : acc[j];
            }
        }
        for (int64_t j = 0; j < w; j++) dist[p * w + j] = acc[j];
        if (out) {
            int64_t *col = out + vertex_at[p];
            for (int64_t j = 0; j < rows; j++) col[j * out_n] = acc[j];
        }
    }
}

/* One query engine's arrays: the upward graph's CSR, its elimination
   tree or NULL (see climb), its search scratch (see settle; settled
   has room for every vertex), the swept set (pos_of, vertex_at), the
   sweep's 32-bit arcs over n positions, and the lane buffers of the
   widest k so far. */
struct trees {
    const int64_t *first, *head, *len, *parent;
    int64_t *stamp, *label, *heap, *settled;
    const int64_t *pos_of, *vertex_at;
    const int32_t *arc_first, *arc_tail, *arc_len;
    int64_t n;
    const int64_t *source;
    int64_t *dist, *seed, *mark_pos, *mark_val, *mark_end;
};

/* PHAST's k trees in one call (Sections III and IV-B), over w >= k
   lanes.  Lane j < k with source[j] >= 0 runs its upward search under
   generation gen + j, a walk up the elimination tree when there is
   one and else the heap, and writes its marks (the swept vertices'
   positions, pos_of[v] >= 0, and labels), in the search's order (rank
   or settling), to mark_pos/mark_val from the previous lane's mark_end
   up to its own, and into its seed column.
   A lane with source -1 starts from what the caller put in its seed
   column, as do the padding lanes k .. w - 1, whose seeds stay inf.
   Then the sweep of all w lanes, which also writes row j < k of out by
   original ID unless out is NULL, and last inf back at every seed
   written here.  The lane loop gets a constant count for w of 1 to 4,
   8 and 16. */
void repro_trees(const struct trees *t, int64_t k, int64_t w, int64_t gen,
                 int64_t *out, int64_t out_n, int64_t inf)
{
    int64_t *seed = t->seed, marks = 0;
    for (int64_t j = 0; j < k; j++) {
        int64_t count = t->source[j] < 0 ? 0 : t->parent ? climb(
            t->first, t->head, t->len, t->parent, t->source[j], t->stamp,
            gen + j, t->label, t->settled, inf) : settle(
            t->first, t->head, t->len, t->source[j], t->stamp, gen + j,
            t->label, NULL, t->heap, t->settled, inf);
        for (int64_t i = 0; i < count; i++) {
            int64_t v = t->settled[i], p = t->pos_of[v];
            if (p >= 0) {
                t->mark_pos[marks] = p;
                t->mark_val[marks++] = seed[p * w + j] = t->label[v];
            }
        }
        t->mark_end[j] = marks;
    }
#define SWEEP(body, lanes, rows) body(t->dist, seed, t->arc_first, \
        t->arc_tail, t->arc_len, t->n, lanes, rows, t->vertex_at, out, out_n)
    switch (w) {
    case 1: SWEEP(sweep, 1, 1); break;
    case 2: SWEEP(sweep, 2, 2); break;
    case 3: SWEEP(sweep, 3, 3); break;
    case 4: SWEEP(sweep, 4, 4); break;
    case 8: SWEEP(sweep_wide, 8, k); break;
    case 16: SWEEP(sweep_wide, 16, k); break;
    default: SWEEP(sweep, w, k);
    }
#undef SWEEP
    for (int64_t j = 0, i = 0; j < k; j++)
        for (; i < t->mark_end[j]; i++) seed[t->mark_pos[i] * w + j] = inf;
}

static const char pairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233"
    "34353637383940414243444546474849505152535455565758596061626364656667"
    "6869707172737475767778798081828384858687888990919293949596979899";

/* The number of decimal digits of u, 1 to 20. */
static inline int digits(uint64_t u)
{
    for (int d = 1;; d += 4, u /= 10000) {
        if (u < 10) return d;
        if (u < 100) return d + 1;
        if (u < 1000) return d + 2;
        if (u < 10000) return d + 3;
    }
}

/* v in decimal (at most 20 characters, for INT64_MIN): its digits are
   counted first, then written from the last, two per division. */
static inline char *put_int(char *p, int64_t v)
{
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    if (v < 0) *p++ = '-';
    char *end = p + digits(u);
    for (p = end; u >= 100; u /= 100) {
        p -= 2;
        memcpy(p, pairs + 2 * (u % 100), 2);
    }
    if (u >= 10) memcpy(p - 2, pairs + 2 * u, 2);
    else p[-1] = (char)('0' + u);
    return end;
}

/* val[0..count) as "v,v,v"; at most 21 bytes per value. */
static char *put_ints(char *p, const int64_t *val, int64_t count)
{
    for (int64_t i = 0; i < count; i++) {
        if (i) *p++ = ',';
        p = put_int(p, val[i]);
    }
    return p;
}

#define PUT(p, literal) \
    (memcpy(p, literal, sizeof literal - 1), p + sizeof literal - 1)

/* JSON text of rows x cols int64 values, as json.dumps writes their
   nested lists with "," separators: [v,v] for one flat row (nested
   = 0), [[v,v],[v,v]] otherwise.  out holds 21 bytes per value (sign,
   19 digits, a separator), 3 per nested row and 2 for the outer
   brackets; returns the length written. */
int64_t repro_format_ints(const int64_t *val, int64_t rows, int64_t cols,
                          int64_t nested, char *out)
{
    char *p = out;
    *p++ = '[';
    for (int64_t r = 0; r < rows; r++, val += cols) {
        if (nested) {
            if (r) *p++ = ',';
            *p++ = '[';
        }
        p = put_ints(p, val, cols);
        if (nested) *p++ = ']';
    }
    *p++ = ']';
    return p - out;
}

/* Fields of one intake record (see repro_parse_requests). */
enum { RECORD = 9 };

/* One sweep batch's answer frames, back to back from out.  rows holds
   the batch's lanes distance rows, n entries each by original ID.  The
   requests are intake records (see repro_parse_requests) in segments:
   segment s is seg[5 s .. 5 s + 4], the index in rec of its first
   record, its record count, where its read starts in data and its
   read's targets in targets, and the lane of its first record (each
   next record takes the next lane).  A record's op is its field 2, 0
   tree, 1 one_to_many, 2 isochrone; its id is its read's text from
   field 3 to field 4; fields 6 and 7 are its targets' start and end
   (one_to_many) or field 6 its budget (isochrone).  Its frame is the
   body's length as 4 big-endian bytes, then the body json.dumps writes
   (with "," and ":" separators) for {"id": id, "ok": true, ...}:
   "dist", the row (tree) or the row at each target in order
   (one_to_many), or "vertices", the IDs whose distance is at most the
   budget, then "count", their number (isochrone).  out holds 64 bytes
   per request, its id, and 21 per value (n for tree and isochrone, one
   per target).  ends[s] is the end of segment s's frames; returns the
   total length, or -1, with nothing written, when a lane is not in
   [0, lanes), an op not 0 to 2 or a target not in [0, n). */
int64_t repro_answer_frames(const int64_t *rows, int64_t lanes, int64_t n,
                            int64_t segments, const int64_t *seg,
                            const int64_t *rec, const char *data,
                            const int64_t *targets, char *out, int64_t *ends)
{
    for (int64_t s = 0; s < segments; s++) {
        const int64_t *g = seg + 5 * s;
        if (g[1] < 0 || g[4] < 0 || g[4] > lanes - g[1]) return -1;
        for (int64_t i = 0; i < g[1]; i++) {
            const int64_t *r = rec + RECORD * (g[0] + i);
            if (r[2] < 0 || r[2] > 2) return -1;
            if (r[2] == 1)
                for (int64_t t = g[3] + r[6]; t < g[3] + r[7]; t++)
                    if (targets[t] < 0 || targets[t] >= n) return -1;
        }
    }
    char *p = out;
    for (int64_t s = 0; s < segments; s++, seg += 5) {
        const char *text = data + seg[2];
        const int64_t *tgt = targets + seg[3];
        for (int64_t i = 0; i < seg[1]; i++) {
            const int64_t *r = rec + RECORD * (seg[0] + i);
            const int64_t *row = rows + (seg[4] + i) * n;
            char *body = p + 4;
            p = PUT(body, "{\"id\":");
            memcpy(p, text + r[3], r[4] - r[3]);
            p += r[4] - r[3];
            if (r[2] == 2) {
                int64_t found = 0;
                p = PUT(p, ",\"ok\":true,\"vertices\":[");
                for (int64_t v = 0; v < n; v++) {
                    if (row[v] > r[6]) continue;
                    if (found++) *p++ = ',';
                    p = put_int(p, v);
                }
                p = PUT(p, "],\"count\":");
                p = put_int(p, found);
            } else {
                p = PUT(p, ",\"ok\":true,\"dist\":[");
                if (r[2] == 0) {
                    p = put_ints(p, row, n);
                } else {
                    for (int64_t t = r[6]; t < r[7]; t++) {
                        if (t > r[6]) *p++ = ',';
                        p = put_int(p, row[tgt[t]]);
                    }
                }
                *p++ = ']';
            }
            *p++ = '}';
            uint64_t length = (uint64_t)(p - body);
            for (int b = 0; b < 4; b++)
                body[b - 4] = (char)(length >> (24 - 8 * b));
        }
        ends[s] = p - out;
    }
    return p - out;
}

/* Request intake: whole frames, and the sweep requests among them. */

static inline const unsigned char *skip_ws(const unsigned char *p,
                                           const unsigned char *end)
{
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
        p++;
    return p;
}

/* A canonical JSON integer, -?(0|[1-9][0-9]*) with at most 18 digits
   and not -0, into *v; returns its end, or NULL. */
static const unsigned char *integer(const unsigned char *p,
                                    const unsigned char *end, int64_t *v)
{
    int neg = p < end && *p == '-';
    const unsigned char *first = p += neg;
    int64_t u = 0;
    for (; p < end && *p >= '0' && *p <= '9'; p++) {
        if (p - first == 18) return NULL;
        u = 10 * u + (*p - '0');
    }
    if (p == first || (*first == '0' && (p - first > 1 || neg))) return NULL;
    *v = neg ? -u : u;
    return p;
}

/* A JSON string of printable ASCII other than '"' and '\\' (so it needs
   no escape and json.dumps writes it back as it is); returns its end,
   past the closing quote, or NULL. */
static const unsigned char *plain_string(const unsigned char *p,
                                         const unsigned char *end)
{
    if (p == end || *p != '"') return NULL;
    while (++p < end) {
        if (*p == '"') return p + 1;
        if (*p < 0x20 || *p > 0x7e || *p == '\\') return NULL;
    }
    return NULL;
}

/* The index of the text [p, end) in names, or -1. */
static int name_index(const unsigned char *p, const unsigned char *end,
                      const char *const *names, int count)
{
    for (int i = 0; i < count; i++)
        if ((size_t)(end - p) == strlen(names[i])
            && !memcmp(p, names[i], end - p))
            return i;
    return -1;
}

static const char *const request_keys[] = {
    "id", "op", "source", "targets", "budget", "timeout_ms"};
static const char *const sweep_ops[] = {"tree", "one_to_many", "isochrone"};
/* The keys each op takes besides timeout_ms (bit i: request_keys[i]). */
static const unsigned op_keys[] = {007, 017, 027};

#define TIMEOUT_UNSET INT64_MIN
#define TIMEOUT_NULL (INT64_MIN + 1)

/* Whether the body [p, end) is a sweep request in the subset the
   intake takes; if so, fills r[2..8] (see repro_parse_requests) and
   appends its targets at targets[*used], of room entries. */
static int sweep_request(const unsigned char *p, const unsigned char *end,
                         const unsigned char *base, int64_t n, int64_t *r,
                         int64_t *targets, int64_t *used, int64_t room)
{
    unsigned seen = 0;
    int op = -1;
    r[8] = TIMEOUT_UNSET;
    p = skip_ws(p, end);
    if (p == end || *p++ != '{') return 0;
    for (;;) {
        const unsigned char *key = skip_ws(p, end);
        if (!(p = plain_string(key, end))) return 0;
        int k = name_index(key + 1, p - 1, request_keys, 6);
        if (k < 0 || seen & (1u << k)) return 0;
        seen |= 1u << k;
        p = skip_ws(p, end);
        if (p == end || *p++ != ':') return 0;
        const unsigned char *value = p = skip_ws(p, end);
        int64_t v;
        switch (k) {
        case 0:  /* id: an integer or a plain string */
            p = p < end && *p == '"' ? plain_string(p, end)
                                     : integer(p, end, &v);
            if (!p) return 0;
            r[3] = value - base;
            r[4] = p - base;
            break;
        case 1:
            if (!(p = plain_string(p, end))) return 0;
            if ((op = name_index(value + 1, p - 1, sweep_ops, 3)) < 0) return 0;
            break;
        case 2:
            if (!(p = integer(p, end, &r[5])) || r[5] < 0 || r[5] >= n) return 0;
            break;
        case 3:  /* a non-empty list of vertices */
            if (p == end || *p++ != '[') return 0;
            r[6] = *used;
            for (;;) {
                p = skip_ws(p, end);
                if (*used == room || !(p = integer(p, end, &v))
                    || v < 0 || v >= n)
                    return 0;
                targets[(*used)++] = v;
                p = skip_ws(p, end);
                if (p < end && *p == ',') { p++; continue; }
                if (p < end && *p == ']') { p++; break; }
                return 0;
            }
            r[7] = *used;
            break;
        case 4:
            if (!(p = integer(p, end, &r[6])) || r[6] < 0) return 0;
            break;
        default:  /* timeout_ms: an integer or null */
            if (end - p >= 4 && !memcmp(p, "null", 4)) {
                r[8] = TIMEOUT_NULL;
                p += 4;
            } else if (!(p = integer(p, end, &r[8]))) {
                return 0;
            }
        }
        p = skip_ws(p, end);
        if (p < end && *p == ',') { p++; continue; }
        if (p == end || *p != '}' || skip_ws(p + 1, end) != end) return 0;
        break;
    }
    if (op < 0 || (seen & ~040u) != op_keys[op]) return 0;
    r[2] = op;
    return 1;
}

/* The whole frames of buf[start, len), at most max_records of them:
   each a 4-byte big-endian body length, then the body.  Stops at the
   first frame that is not whole or whose length is over cap.  Record
   i is rec[9 i .. 9 i + 8]: the body's start and end in buf; its op,
   0 tree, 1 one_to_many, 2 isochrone, or -1 when the body is not a
   sweep request of the subset below (declined); and for a sweep
   request its id's JSON text's start and end in buf, its source, its
   targets' start and end in targets (one_to_many) or its budget
   (isochrone), and its timeout_ms (TIMEOUT_UNSET when absent,
   TIMEOUT_NULL for null).  The subset: an ASCII JSON object whose keys
   are "id", "op" and exactly the fields its op takes, plus an optional
   "timeout_ms", each once; the id an integer or a string of printable
   ASCII with no escapes; every integer canonical with at most 18
   digits; vertices in [0, n), the budget >= 0 and timeout_ms an
   integer or null.  A frame whose targets do not fit in the room left
   is declined.  meta[0] is where the frames end, meta[1] the targets
   written; returns the number of records. */
int64_t repro_parse_requests(const unsigned char *buf, int64_t start,
                             int64_t len, int64_t n, int64_t cap,
                             int64_t *rec, int64_t max_records,
                             int64_t *targets, int64_t room, int64_t *meta)
{
    int64_t count = 0, used = 0, at = start;
    while (count < max_records && len - at >= 4) {
        const unsigned char *h = buf + at;
        int64_t length = (int64_t)((uint32_t)h[0] << 24 | (uint32_t)h[1] << 16
                                   | (uint32_t)h[2] << 8 | h[3]);
        if (length > cap || len - at - 4 < length) break;
        int64_t *r = rec + RECORD * count++, before = used;
        r[0] = at + 4;
        r[1] = at = r[0] + length;
        if (!sweep_request(buf + r[0], buf + r[1], buf, n, r, targets, &used,
                           room)) {
            r[2] = -1;
            used = before;
        }
    }
    meta[0] = at;
    meta[1] = used;
    return count;
}
"""

#: Compiler flags; part of the cache key.
_FLAGS = ("-O3", "-march=native", "-shared", "-fPIC")

_P = ctypes.c_void_p
_N = ctypes.c_int64

_SIGNATURES = {
    "repro_customize_pass": ([_P] * 6 + [_N, _N], None),
    "repro_perfect_pass": ([_P] * 7 + [_N, _P, _N], None),
    "repro_trees": ([_P, _N, _N, _N, _P, _N, _N], None),
    "repro_upward_search": ([_P] * 3 + [_N, _P, _N] + [_P] * 6 + [_N], _N),
    "repro_format_ints": ([_P, _N, _N, _N, _P], _N),
    "repro_answer_frames": ([_P, _N, _N, _N, _P] + [ctypes.c_char_p] * 3
                            + [_P, _P], _N),
    "repro_parse_requests": ([ctypes.c_char_p] + [_N] * 4 + [_P, _N, _P, _N, _P],
                             _N),
}

_lock = threading.Lock()
_lib: ctypes.CDLL | bool | None = None  # None: untried, False: unavailable

_INF = int(INF)
_NO_HOPS = np.iinfo(np.int32).max


def _open(path: str) -> ctypes.CDLL | None:
    """Load the library at ``path`` if it has every kernel."""
    try:
        lib = ctypes.CDLL(path)
        for name, (argtypes, restype) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = restype
    except (OSError, AttributeError):
        return None
    return lib


def _build(cc: str, so_path: str) -> ctypes.CDLL | None:
    """Compile :data:`_SOURCE` to ``so_path`` and load it."""
    try:
        subprocess.run(
            [cc, *_FLAGS, "-o", so_path, "-x", "c", "-"],
            input=_SOURCE.encode(), check=True, capture_output=True,
            timeout=120,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return _open(so_path)


def _cpu_identity() -> str:
    """The machine type plus the first CPU's model and feature flags."""
    keys = {"vendor_id", "cpu family", "model", "model name", "flags",
            "Features", "CPU implementer", "CPU architecture",
            "CPU variant", "CPU part"}
    lines = [platform.machine()]
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if not line.strip():
                    break  # the first processor is enough
                if line.split(":", 1)[0].strip() in keys:
                    lines.append(line.strip())
    except OSError:
        pass
    return "\n".join(lines)


def _cache_key() -> str:
    """Hash of everything a cached build depends on.

    The compiler is the host's ``cc`` (resolved path, size, mtime), so
    a compiler upgrade rebuilds; ``CC`` only names the command run on a
    miss.  The CPU identity keeps an ``-march=native`` build off other
    CPUs.
    """
    compiler = "none"
    path = shutil.which("cc")
    if path:
        real = os.path.realpath(path)
        st = os.stat(real)
        compiler = f"{real}:{st.st_size}:{st.st_mtime_ns}"
    key = hashlib.sha256()
    for part in (_SOURCE, " ".join(_FLAGS), compiler, _cpu_identity()):
        key.update(part.encode())
        key.update(b"\0")
    return key.hexdigest()[:32]


def _cache_dir() -> str | None:
    """``<tmp>/repro-native-<uid>``, or ``None`` unless it is a real
    directory owned by this user that no one else can write."""
    uid = os.getuid()
    path = os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    st = os.lstat(path)
    if (not stat.S_ISDIR(st.st_mode) or st.st_uid != uid
            or st.st_mode & 0o077):
        return None
    return path


def _cached(cc: str) -> ctypes.CDLL | None:
    """Load the host's cached build, compiling it into the cache on a
    miss or when the cached file does not load."""
    cache = _cache_dir()
    if cache is None:
        return None
    so_path = os.path.join(cache, f"kernels-{_cache_key()}.so")
    if os.path.exists(so_path):
        lib = _open(so_path)
        if lib is not None:
            return lib
    fd, tmp_path = tempfile.mkstemp(dir=cache, prefix="build-", suffix=".so")
    os.close(fd)
    try:
        # Load the fresh file under its unique name: a broken library
        # once opened under so_path would be handed back by name.
        lib = _build(cc, tmp_path)
        if lib is not None:
            os.replace(tmp_path, so_path)
        return lib
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


def _compile() -> ctypes.CDLL | bool:
    """The kernels of this host: cached, else compiled privately.

    Any failure of the cache (no usable directory, a write error, a
    build that will not load from there) falls back to a compile in a
    private temporary directory, removed once the library is loaded.
    """
    if os.environ.get("REPRO_NO_NATIVE"):
        return False
    cc = os.environ.get("CC", "cc")
    try:
        lib = _cached(cc)
    except (OSError, AttributeError):  # AttributeError: no os.getuid
        lib = None
    if lib is None:
        try:
            with tempfile.TemporaryDirectory(prefix="repro-build-") as tmp:
                # The loaded mapping outlives the file.
                lib = _build(cc, os.path.join(tmp, "kernels.so"))
        except OSError:
            lib = None
    return lib or False


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


def _ptr(arr: np.ndarray, dtype) -> int:
    """Address of ``arr``'s data, which must be C-contiguous ``dtype``."""
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise TypeError(f"kernel needs a C-contiguous {np.dtype(dtype)} "
                        f"array, got {arr.dtype}")
    return arr.ctypes.data


def _fits(dtype, *arrays: np.ndarray) -> bool:
    return all(a.dtype == dtype and a.flags.c_contiguous for a in arrays)


# ---------------------------------------------------------------------------
# Queries


class UpwardSearch:
    """Compiled upward searches over one int64 CSR graph (``G↑``).

    Scratch is allocated once and stamped per search, so a search costs
    its own space, not O(n).  Not safe for concurrent searches.
    """

    def __init__(self, lib, graph) -> None:
        n = graph.n
        self._lib = lib
        self._arrays = (graph.first, graph.arc_head, graph.arc_len)
        self._csr = tuple(a.ctypes.data for a in self._arrays)
        self._gen = 0
        # One block: stamps (zeroed), labels and parents by vertex, the
        # three output rows, then the heap.
        self._buf = np.empty(6 * n + 2 * (graph.m + 1), dtype=np.int64)
        self._buf[:n] = 0
        self._out = self._buf[3 * n : 6 * n].reshape(3, n)
        base = self._buf.ctypes.data
        self._stamp, self._label, self._parent, *self._rows, self._heap = (
            base + 8 * n * i for i in range(7))

    def space(self, source: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(vertices, dists, parents)`` in settling order (fresh arrays)."""
        if not 0 <= source < self._out.shape[1]:
            raise ValueError("source out of range")
        self._gen += 1
        count = self._lib.repro_upward_search(
            *self._csr, source, self._stamp, self._gen, self._label,
            self._parent, self._heap, *self._rows, _INF,
        )
        vertices, dists, parents = self._out[:, :count].copy()
        return vertices, dists, parents


def upward_searcher(graph) -> UpwardSearch | None:
    """A compiled searcher over ``graph``, or ``None`` when the kernels
    do not load or its CSR arrays are not C-contiguous int64."""
    lib = _load()
    if not lib or not _fits(np.int64, graph.first, graph.arc_head,
                            graph.arc_len):
        return None
    return UpwardSearch(lib, graph)


class _TreesArgs(ctypes.Structure):
    """C's ``struct trees``."""

    _fields_ = [(name, _P) for name in (
        "first", "head", "len", "parent", "stamp", "label", "heap",
        "settled",
        "pos_of", "vertex_at", "arc_first", "arc_tail", "arc_len")] + [
        ("n", _N)] + [(name, _P) for name in (
            "source", "dist", "seed", "mark_pos", "mark_val", "mark_end")]


class Trees:
    """Compiled PHAST queries: ``k`` upward searches, the seeded sweep
    and the scatter to original IDs in one call (see
    :func:`trees_kernel`).

    Searches ``G↑`` on its own stamped scratch, by walking the
    elimination tree ``parent`` when one is given (:attr:`walks`) and
    with the heap otherwise, maps vertices to sweep positions through
    ``pos_of`` (``-1`` outside the swept set), and sweeps one
    structure's 32-bit ``arc_first``, ``arc_tail_pos`` and ``arc_len``;
    ``vertex_at`` gives each position's original ID.  The caller owns
    the label and seed buffers (:meth:`lanes`), ``(n, w)`` for ``k``
    lanes of width ``w = width(k)``; the marks buffer is sized here, for
    the same widest ``w``.
    """

    @staticmethod
    def width(k: int) -> int:
        """The lanes a run of ``k`` sweeps: ``k`` up to 4 and past 16,
        else ``k`` rounded up to 8 or 16, which sweep at a constant
        width; the padding lanes start from ∞ and are not written out."""
        return k if k <= 4 or k > 16 else 8 if k <= 8 else 16

    def __init__(self, lib, graph, pos_of, arc_first, arc_tail_pos,
                 arc_len, vertex_at, parent=None) -> None:
        self._lib = lib
        self._searcher = searcher = UpwardSearch(lib, graph)
        self._arrays = (pos_of, vertex_at, arc_first, arc_tail_pos, arc_len)
        self._parent = parent  # kept alive
        self.walks = parent is not None
        self.n = int(arc_first.size) - 1
        self._width = int(vertex_at.max(initial=-1)) + 1  # of an out row
        first, head, length = searcher._csr
        self._args = _TreesArgs(
            first, head, length, None if parent is None else parent.ctypes.data,
            searcher._stamp, searcher._label, searcher._heap,
            searcher._rows[0], *(a.ctypes.data for a in self._arrays), self.n)
        self._at = ctypes.addressof(self._args)
        self._lanes = 0
        self._prefixes: list[np.ndarray] = []
        self._rows_at = 0

    def lanes(self, dist: np.ndarray, seed: np.ndarray, k: int) -> None:
        """Bind flat label and seed buffers of ``n * k`` entries (seeds
        ∞ at rest) for runs of width up to ``k``, and size the marks to
        match."""
        if dist.size != self.n * k or seed.size != dist.size:
            raise ValueError(f"lane buffers {dist.size} and {seed.size} "
                             f"for {self.n} positions")
        self._buffers = (dist, seed)  # kept alive
        self._source = (ctypes.c_int64 * k)()
        self._marks = np.empty((2, self.n * k), dtype=np.int64)
        self._ends = np.empty(k, dtype=np.int64)
        args = self._args
        args.dist, args.seed = _ptr(dist, np.int64), _ptr(seed, np.int64)
        args.source = ctypes.addressof(self._source)
        args.mark_pos, args.mark_val = (self._marks.ctypes.data,
                                        self._marks[1].ctypes.data)
        args.mark_end = self._ends.ctypes.data
        self._lanes = k

    def bind_rows(self, rows: np.ndarray) -> list[np.ndarray]:
        """Bind a reused C-contiguous int64 ``(K, N)`` out buffer, ``N``
        above every original ID, and return its prefixes ``rows[:k]``
        for ``k = 0 .. K``.  Its address is taken here, once: :meth:`run`
        into one of these prefixes reads no pointer per call."""
        if (rows.ndim != 2 or rows.shape[1] < self._width
                or not _fits(np.int64, rows)):
            raise ValueError(f"rows {rows.shape} {rows.dtype} for "
                             f"{self._width} vertices")
        self._rows_at = rows.ctypes.data
        self._prefixes = [rows[:k] for k in range(rows.shape[0] + 1)]
        return self._prefixes

    def run(self, sources, out: np.ndarray | None = None) -> None:
        """``k = len(sources)`` lanes into the bound ``(n, w)`` labels,
        ``w = width(k)``, lane ``j`` in column ``j``.

        Lane ``j`` searches from ``sources[j]``, which must be a vertex
        (not checked here), or, at ``-1``, starts from what the caller
        wrote into seed column ``j``.  ``out``, a C-contiguous int64
        ``(k, N)`` array with ``N`` above every original ID, also gets
        lane ``j`` in row ``j`` by original ID.  Every seed a search
        wrote is ∞ again on return.
        """
        k = len(sources)
        w = self.width(k)
        if not 0 < w <= self._lanes:
            raise ValueError(f"{k} lanes for buffers of {self._lanes}")
        self._source[:k] = sources
        prefixes = self._prefixes
        if out is None:
            at, row = None, 0
        elif k < len(prefixes) and out is prefixes[k]:
            at, row = self._rows_at, out.shape[1]
        else:
            if out.ndim != 2 or out.shape[0] != k or out.shape[1] < self._width:
                raise ValueError(f"out {out.shape} for {k} lanes of "
                                 f"{self._width} vertices")
            at, row = _ptr(out, np.int64), out.shape[1]
        searcher = self._searcher
        gen = searcher._gen + 1
        searcher._gen += k  # one generation per lane
        self._lib.repro_trees(self._at, k, w, gen, at, row, _INF)

    def marks(self, k: int) -> tuple[np.ndarray, list[int]]:
        """The marks the searches of the last :meth:`run`, of ``k``
        lanes, found: a ``(2, total)`` view of their positions and
        labels, and the end of each lane's run in it (lane ``j``'s run
        starts where lane ``j - 1``'s ends; a seeded lane's is empty).
        Each run is in its search's order, rank order for a walk and
        settling order for the heap; the view is valid until the next
        run."""
        ends = self._ends[:k].tolist()
        return self._marks[:, : ends[-1]], ends


def trees_kernel(graph, pos_of: np.ndarray, arc_first: np.ndarray,
                 arc_tail_pos: np.ndarray, arc_len: np.ndarray,
                 vertex_at: np.ndarray,
                 parent: np.ndarray | None = None) -> Trees | None:
    """The compiled queries over ``graph`` (``G↑``) and these sweep
    arrays, or ``None`` when the kernels do not load, the graph's CSR
    arrays, ``pos_of`` or ``vertex_at`` are not C-contiguous int64, or
    the arcs not C-contiguous int32.

    ``parent``, an elimination tree of ``graph`` (see
    :attr:`~repro.ch.hierarchy.ContractionHierarchy.elimination_parent`),
    makes the searches walk it; one that is not C-contiguous int64 of
    ``graph.n`` entries in ``-1 .. n - 1`` is refused (``ValueError``).
    """
    lib = _load()
    if (not lib or not _fits(np.int64, graph.first, graph.arc_head,
                             graph.arc_len, pos_of, vertex_at)
            or not _fits(np.int32, arc_first, arc_tail_pos, arc_len)):
        return None
    if parent is not None and (
            parent.shape != (graph.n,) or not _fits(np.int64, parent)
            or (graph.n and (parent.min() < -1 or parent.max() >= graph.n))):
        raise ValueError("elimination parent is not a vertex per vertex")
    return Trees(lib, graph, pos_of, arc_first, arc_tail_pos, arc_len,
                 vertex_at, parent)


_threads = threading.local()


def thread_searcher(graph) -> UpwardSearch | None:
    """This thread's searcher over ``graph``, or
    ``None`` as for :func:`upward_searcher`.

    Built on a thread's first search of ``graph`` and reused after, so
    no two threads share scratch; an entry is dropped when ``graph`` is
    freed, or with its thread.
    """
    if not _load():
        return None
    cache = getattr(_threads, "searchers", None)
    if cache is None:
        cache = _threads.searchers = {}
    key = id(graph)
    entry = cache.get(key)
    if entry is None or entry[0]() is not graph:
        ref = weakref.ref(graph, lambda _, key=key: cache.pop(key, None))
        entry = cache[key] = (ref, upward_searcher(graph))
    return entry[1]


# ---------------------------------------------------------------------------
# Formatting


def format_ints(arr: np.ndarray) -> bytes | None:
    """The JSON text of a 1-D or 2-D integer array, the same bytes as
    ``json.dumps(arr.tolist(), separators=(",", ":"))``.

    ``None`` when the kernels do not load, or ``arr`` is not a 1-D or
    2-D array of a signed integer type.
    """
    lib = _load()
    if not lib or arr.ndim not in (1, 2) or arr.dtype.kind != "i":
        return None
    vals = np.ascontiguousarray(arr, dtype=np.int64)
    nested = vals.ndim == 2
    rows = vals.shape[0] if nested else 1
    # 20 characters per int64 ("-9223372036854775808") plus its
    # separator, brackets and a comma per row, the outer brackets.
    size = 21 * vals.size + 3 * rows * nested + 2
    text, at = _text_buffer(size)
    length = lib.repro_format_ints(_ptr(vals, np.int64), rows,
                                   vals.shape[-1], nested, at)
    if not 0 < length <= size:
        raise RuntimeError(f"formatter wrote {length} bytes into {size}")
    return bytes(text[:length])


def answer_frames(rows: np.ndarray,
                  segments) -> tuple[memoryview, list[int]] | None:
    """Whole response frames for one sweep batch, in one call.

    ``rows`` is the batch's C-contiguous int64 ``(lanes, n)`` distance
    rows.  Each segment is ``(records, data, targets, lo, hi, lane)``:
    records ``lo`` to ``hi`` of an intake parse (``records``, an
    ``array("q")`` as :func:`parse_requests` returns them, ``data`` the
    read and ``targets`` its targets or ``None``), answered from rows
    ``lane`` onwards.  A record's op is ``0`` tree, ``1`` one_to_many
    (its targets, repeats kept) or ``2`` isochrone (its budget, an
    int64 ``>= 0``), and its id the JSON text ``data[id_start:id_end]``.
    Returns the frames back to back, as
    :func:`repro.server.protocol.encode_message` writes them for the
    same payloads with lists, and the end of each segment's frames; the
    view is valid until this thread's next call.  ``None`` when the
    kernels do not load.  Frame sizes are not checked against the
    protocol's cap.
    """
    lib = _load()
    if not lib:
        return None
    width = 64 + 21 * rows.shape[1]
    spec = array("q")
    reads: list = []
    texts: list = []
    lists: list = []
    size = at_rec = at_text = at_targets = 0
    last = None
    for records, data, targets, lo, hi, lane in segments:
        if records is not last:
            # A parse not yet joined: its records, read and targets go
            # after the previous one's.
            last = records
            base = (at_rec, at_text, at_targets)
            reads.append(records)
            texts.append(data)
            at_rec += len(records) // RECORD
            at_text += len(data)
            if targets is not None:
                lists.append(targets)
                at_targets += len(targets)
            # Ids are within the read, and each target adds one value.
            size += len(data) + 21 * (len(targets) if targets else 0)
        spec.extend((base[0] + lo, hi - lo, base[1], base[2], lane))
        size += (hi - lo) * width
    ends = array("q", bytes(8 * len(segments)))
    text, at = _text_buffer(size)
    length = lib.repro_answer_frames(
        _ptr(rows, np.int64), *rows.shape, len(segments),
        spec.buffer_info()[0], b"".join(reads), b"".join(texts),
        b"".join(lists), at, ends.buffer_info()[0])
    if length < 0:
        raise ValueError(f"a lane, op or target outside rows {rows.shape}")
    if length > size:
        raise RuntimeError(f"frame writer wrote {length} bytes into {size}")
    return text[:length], ends.tolist()


# ---------------------------------------------------------------------------
# Request intake


#: Fields of one intake record (see :func:`parse_requests`).
RECORD = 9
#: A record's ``timeout_ms`` when the request has none, or ``null``.
TIMEOUT_UNSET = -(2**63)
TIMEOUT_NULL = TIMEOUT_UNSET + 1
#: Most records one call writes.
INTAKE_RECORDS = 1024
#: Most targets one call keeps; a frame past them is declined.
_INTAKE_TARGETS = 1 << 16


def parse_requests(data: bytes, start: int, n: int,
                   cap: int) -> tuple[array, int, array | None] | None:
    """The whole frames of ``data[start:]``, and the sweep requests
    among them, in one call.

    Reads frames (a 4-byte big-endian body length, then the body)
    until one is not whole, announces more than ``cap`` bytes, or
    :data:`INTAKE_RECORDS` have been read.  Returns the records, an
    ``array("q")`` of :data:`RECORD` ints each: the body's start and
    end in ``data``; its op, ``0`` tree, ``1`` one_to_many, ``2``
    isochrone, or ``-1`` when the body is *declined*; and for a sweep
    request the start and end of its id's JSON text in ``data``, its
    source, the start and end of its targets in the returned array
    (one_to_many) or its budget (isochrone), and its ``timeout_ms``
    (:data:`TIMEOUT_UNSET`, :data:`TIMEOUT_NULL` or an int).  Then where the frames end, and
    the requests' targets (an ``array("q")`` of this call's own, or
    ``None`` when there are none).

    A body is taken only in a strict subset of JSON that
    ``json.loads`` and :func:`repro.server.protocol.validate_request`
    read the same way: ASCII; an object whose keys are ``id``, ``op``,
    the fields its op takes and an optional ``timeout_ms``, each once;
    the id an integer or a string of printable ASCII with no escapes
    (so its text is the id's JSON encoding); every integer canonical,
    with at most 18 digits and not ``-0``; vertices in ``[0, n)``, the
    budget ``>= 0`` and ``timeout_ms`` an integer or ``null``.
    Everything else is declined and left to the caller.  ``None`` when
    the kernels do not load.
    """
    lib = _load()
    if not lib:
        return None
    intake = getattr(_threads, "intake", None)
    if intake is None or len(intake[3]) != 8 * _INTAKE_TARGETS:
        # Uninitialized, so only the pages the parses write are resident.
        rec = np.empty(RECORD * INTAKE_RECORDS, dtype=np.int64)
        targets = np.empty(_INTAKE_TARGETS, dtype=np.int64)
        meta = (ctypes.c_int64 * 2)()
        intake = _threads.intake = (
            rec.ctypes.data, memoryview(rec).cast("B"), targets.ctypes.data,
            memoryview(targets).cast("B"), ctypes.addressof(meta), meta)
    rec_at, rec, targets_at, targets, meta_at, meta = intake
    count = lib.repro_parse_requests(data, start, len(data), n, cap, rec_at,
                                     INTAKE_RECORDS, targets_at,
                                     _INTAKE_TARGETS, meta_at)
    end, used = meta
    records = array("q")
    records.frombytes(rec[: 8 * RECORD * count])
    if not used:
        return records, end, None
    found = array("q")
    found.frombytes(targets[: 8 * used])
    return records, end, found


def _text_buffer(size: int) -> tuple[memoryview, int]:
    """This thread's formatter output buffer, of at least ``size``
    bytes: a view of it and its address.  Grown to the next power of
    two, so a server's batches settle on one buffer per thread; left
    uninitialized, so only the pages written are resident."""
    buf = getattr(_threads, "text", None)
    if buf is None or len(buf[0]) < size:
        raw = np.empty(1 << max(size - 1, 1).bit_length(), dtype=np.uint8)
        buf = _threads.text = (memoryview(raw), raw.ctypes.data)
    return buf


# ---------------------------------------------------------------------------
# Customization


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
            _ptr(w, np.int64), _ptr(h, np.int32), _ptr(win, np.int32),
            _ptr(tri_in, np.int32), _ptr(tri_out, np.int32),
            _ptr(tri_target, np.int32), tri_target.size, inf,
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
            _ptr(w, np.int64), _ptr(h, np.int32), _ptr(rev, np.int32),
            _ptr(tri_in, np.int32), _ptr(tri_out, np.int32),
            _ptr(tri_target, np.int32), _ptr(level_first, np.int64),
            level_first.size - 1, _ptr(keep.view(np.uint8), np.uint8), inf,
        )
        return True
    for lo, hi in _slices(level_first, descending=True):
        t_in, t_out, tgt = tri_in[lo:hi], tri_out[lo:hi], tri_target[lo:hi]
        for x, a, b in ((t_out, rev[t_in], tgt), (t_in, tgt, rev[t_out])):
            sel, covers, _ = _relax(w, h, x, a, b, inf)
            keep[x[sel[covers]]] = False
    return False
