/* C ports of confres's inner loops; what each export computes, and its
 * Python or numpy reference, is in the docstring of kernels.py.  The
 * rules of the C side:
 *
 * Bit-identity with the references holds only when the compiler keeps
 * IEEE double semantics: build with -ffp-contract=off (no fused
 * multiply-add) and never with -ffast-math.  No _GNU_SOURCE (strtod_l,
 * say): glibc would then declare a `canonicalize` that clashes with the
 * one below.
 *
 * A kernel returns a count or 0, or else one of two statuses: ERR_NOMEM
 * when a buffer could not be taken, ERR_FAULT for a fault in its
 * arguments.  C only detects a fault: kernels._failed runs the kernel's
 * numpy reference on the same arguments, and that reference words every
 * error.
 *
 * What C trusts: the caller in kernels.py checks dtypes, contiguity and
 * lengths.  `check_graph`, `level_loop` and `components` take the graph
 * as one graph_t (kernels.Graph mirrors it) of addresses only, owned with
 * its arrays by the graph.AffinityGraph that made it, and `level_loop`
 * draws from numpy's own bitgen_t.  A graph_t passes `check_graph` once,
 * when the graph is made; `level_loop` and `components` trust it.
 * `pairs` and `affinity_weights` check the range of every value used as
 * an index, in one scan before any indexed read, and `affinity_layout`
 * the edges and distances of its neighbour graph; a failed check returns
 * ERR_FAULT and leaves every argument untouched, a fault found later (a
 * sigma, a distance of 0) ERR_FAULT with only the layout written.
 * `knn_graph` has no fault: a distance that overflows comes back
 * infinite, for the caller to check.
 *
 * Each exported kernel owns its heap buffers through one list per call
 * (buffers_t): each buffer is its own heap block, so a sanitizer bounds
 * each one; the kernel takes them all, tests the list's one failure flag
 * before any work, returning ERR_NOMEM with every argument untouched and
 * no number drawn, and releases the list on every exit.
 */

#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REP_PRODUCT 0
#define REP_EXPLICIT 1

#define ERR_NOMEM (-1)
#define ERR_FAULT (-2)

/* A buffer's block: this header, then its slots, aligned for any type. */
typedef union block {
    union block *next;
    max_align_t align;
} block_t;

/* The buffers one call has taken, newest first, and whether a take
 * failed.  Start it as {NULL, 0}. */
typedef struct {
    block_t *head;
    int failed;
} buffers_t;

/* `count` slots of `size` bytes in a block of their own, zeroed or not;
 * NULL, with the failure flag set, when the allocation fails or an
 * earlier take of the list failed (a failed list allocates no more). */
static void *take(buffers_t *b, size_t count, size_t size, int zeroed)
{
    if (b->failed)
        return NULL;
    size_t bytes = sizeof(block_t) + count * size;
    block_t *block = zeroed ? calloc(1, bytes) : malloc(bytes);
    if (!block) {
        b->failed = 1;
        return NULL;
    }
    block->next = b->head;
    b->head = block;
    return block + 1;
}

/* Frees every buffer of the list. */
static void release(buffers_t *b)
{
    while (b->head) {
        block_t *next = b->head->next;
        free(b->head);
        b->head = next;
    }
}

/* Attraction CSR (both edge directions, m entries) and the repulsion
 * model.  kernels.Graph mirrors the layout, 8 bytes a field. */
typedef struct {
    int64_t n, m;
    const int64_t *indptr, *indices;
    const double *weights;
    int64_t rep_mode;
    const double *rep_strength;
    double rep_denom;
    int64_t rep_m;  /* with the repulsion CSR: REP_EXPLICIT only */
    const int64_t *rep_indptr, *rep_indices;
    const double *rep_weights;
} graph_t;

/* 0 when every a[0..len) lies in [0, hi), else ERR_FAULT. */
static int64_t check_range(const int64_t *a, int64_t len, int64_t hi)
{
    for (int64_t i = 0; i < len; i++)
        if (a[i] < 0 || a[i] >= hi)
            return ERR_FAULT;
    return 0;
}

/* 0 when the CSR (ptr, idx, w) of m entries over n items keeps the graph
 * contract of kernels._check_csr, else 1.  Rows run in order, so row j's
 * entries (j, i), i < j, are met in the order of i: cursor[j] (n slots)
 * steps over each as its twin (i, j) is met, and must have passed each
 * when row j is reached. */
static int64_t check_csr(int64_t n, int64_t m, const int64_t *ptr,
                         const int64_t *idx, const double *w, int64_t *cursor)
{
    if (ptr[0] != 0 || ptr[n] != m)
        return 1;
    for (int64_t i = 0; i < n; i++) {
        if (ptr[i + 1] < ptr[i])
            return 1;
        cursor[i] = ptr[i];
    }
    for (int64_t i = 0; i < n; i++) {
        for (int64_t e = ptr[i], last = -1; e < ptr[i + 1]; e++) {
            int64_t j = idx[e];
            if (j <= last || j >= n || j == i
                    || !(w[e] >= 0.0 && w[e] < INFINITY))  /* NaN fails */
                return 1;
            last = j;
            int64_t t = j < i ? -1 : cursor[j]++;  /* j's entry for i */
            if (t < 0 ? e >= cursor[i]
                      : t == ptr[j + 1] || idx[t] != i || w[t] != w[e])
                return 1;
        }
    }
    return 0;
}

/* 0 when g keeps the graph contract, else ERR_FAULT, with n slots of
 * scratch in cursor: rep_denom finite and > 0, each rep_strength finite
 * and >= 0, and each CSR as check_csr wants it. */
int64_t check_graph(const graph_t *g, int64_t *cursor)
{
    int bad = !(g->rep_denom > 0.0 && g->rep_denom < INFINITY);
    for (int64_t i = 0; i < g->n; i++)
        bad |= !(g->rep_strength[i] >= 0.0 && g->rep_strength[i] < INFINITY);
    bad = bad
        || check_csr(g->n, g->m, g->indptr, g->indices, g->weights, cursor)
        || (g->rep_mode == REP_EXPLICIT
            && check_csr(g->n, g->rep_m, g->rep_indptr, g->rep_indices,
                         g->rep_weights, cursor));
    return bad ? ERR_FAULT : 0;
}

/* numpy's bit generator, the layout of bitgen_t in numpy/random/bitgen.h
 * (reached through Generator.bit_generator.ctypes.bit_generator). */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
    double (*next_double)(void *state);
    uint64_t (*next_raw)(void *state);
} bitgen_t;

/* numpy's random_interval: uniform in [0, max] by mask rejection. */
static uint64_t random_interval(const bitgen_t *rng, uint64_t max)
{
    if (max == 0)
        return 0;
    uint64_t mask = max, value;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    if (max <= 0xffffffffUL) {
        while ((value = (rng->next_uint32(rng->state) & mask)) > max)
            ;
    } else {
        while ((value = (rng->next_uint64(rng->state) & mask)) > max)
            ;
    }
    return value;
}

/* Generator.permutation(n): arange(n) shuffled as numpy's _shuffle_raw
 * does, drawing the same numbers from the same bit generator. */
static void permutation(const bitgen_t *rng, int64_t n, int64_t *order)
{
    for (int64_t i = 0; i < n; i++)
        order[i] = i;
    for (int64_t i = n - 1; i > 0; i--) {
        int64_t j = (int64_t)random_interval(rng, (uint64_t)i);
        int64_t tmp = order[j];
        order[j] = order[i];
        order[i] = tmp;
    }
}

/* Scratch space of the local-moving phases, n slots each unless noted.
 *
 * The compact rows are what a round reads of the graph: each item's
 * attraction entries, then its explicit-repulsion entries, each in CSR
 * order, with its entries to other constraint clusters left out (they
 * count for no cluster).  phase lays them out once for all of its rounds,
 * in the `rows` slots of scratch_alloc.  A round's queue is a ring over
 * `order`, which starts as the round's permutation: at most n items are
 * queued at once, each flagged in `queued`. */
typedef struct {
    double *rs;        /* per-cluster sum of rep_strength */
    double *wsum;      /* attraction from the item to each touched cluster */
    double *rsum;      /* explicit repulsion likewise */
    int64_t *cnt;      /* per-cluster member count */
    int64_t *empty;    /* stack of reusable cluster ids */
    int64_t *touched;  /* distinct clusters of the item's row, at most n - 1 */
    int64_t *order;    /* the queue */
    unsigned char *seen;
    unsigned char *queued;
    int64_t *row;      /* n + 1: where each item's compact row starts */
    int64_t *split;    /* where its repulsion entries start */
    int64_t *col;      /* `rows`: each compact entry's item */
    double *w;         /* `rows`: its weight */
} scratch_t;

/* Appends to (col, w), from slot `at` on, the entries of the CSR row
 * [lo, hi) of item i that a round reads, in order: those to an item of
 * i's constraint cluster.  Each entry is written, and kept by advancing
 * `at`, or else overwritten by the next.  Returns the new end. */
static int64_t keep_entries(int64_t i, int64_t lo, int64_t hi,
                            const int64_t *idx, const double *wt,
                            const int64_t *constraint, int64_t *col,
                            double *w, int64_t at)
{
    int64_t ki = constraint[i];
    for (int64_t e = lo; e < hi; e++) {
        int64_t j = idx[e];
        col[at] = j;
        w[at] = wt[e];
        at += constraint[j] == ki;
    }
    return at;
}

/* Lays out the compact rows of g under `constraint` (see scratch_t). */
static void compact_rows(const graph_t *g, const int64_t *constraint,
                         scratch_t *s)
{
    int64_t at = 0;
    for (int64_t i = 0; i < g->n; i++) {
        s->row[i] = at;
        at = keep_entries(i, g->indptr[i], g->indptr[i + 1], g->indices,
                          g->weights, constraint, s->col, s->w, at);
        s->split[i] = at;
        if (g->rep_mode == REP_EXPLICIT)
            at = keep_entries(i, g->rep_indptr[i], g->rep_indptr[i + 1],
                              g->rep_indices, g->rep_weights, constraint,
                              s->col, s->w, at);
    }
    s->row[g->n] = at;
}

/* One round of the fast local move over the compact rows, as
 * kernels._round; returns its moves.  The cluster sums and the free-id
 * stack are rebuilt from `labels`.  Every item is queued in the order of
 * `order`, and the queue is served first in, first out until it is empty
 * or *left, the evaluations the phase has left, runs out.  A row's
 * clusters are listed in the order they are first reached and its sums
 * added in entry order, as _round adds them; the best is the least
 * (gain, id), a fresh cluster ranking after every id.  Both the listing
 * and the pick are data-driven selects, not branches, which with random
 * labels would often mispredict.  A mover queues each item of its compact
 * row that is neither queued nor in its new cluster, at the back. */
static int64_t one_round(const graph_t *g, double gamma, int64_t *labels,
                         double eps, int64_t *left, scratch_t *s)
{
    int64_t n = g->n;
    int product = g->rep_mode == REP_PRODUCT;
    double *rs = s->rs, *wsum = s->wsum, *rsum = s->rsum;
    int64_t *cnt = s->cnt, *empty = s->empty, *touched = s->touched;
    int64_t *queue = s->order;
    const int64_t *row = s->row, *split = s->split, *col = s->col;
    const double *w = s->w;
    unsigned char *seen = s->seen, *queued = s->queued;
    memset(rs, 0, (size_t)n * sizeof(double));
    memset(cnt, 0, (size_t)n * sizeof(int64_t));
    memset(queued, 1, (size_t)n);
    for (int64_t i = 0; i < n; i++) {
        int64_t c = labels[i];
        rs[c] += g->rep_strength[i];
        cnt[c] += 1;
    }
    int64_t top = 0;
    for (int64_t c = 0; c < n; c++)
        if (cnt[c] == 0)
            empty[top++] = c;
    int64_t moves = 0, head = 0, size = n;
    for (; size > 0 && *left > 0; (*left)--) {
        int64_t i = queue[head];
        head = head + 1 == n ? 0 : head + 1;
        size--;
        queued[i] = 0;
        int64_t ci = labels[i];
        /* a row reaches at most the n - 1 other items, so ntouch stays
         * below n, the slots of touched */
        int64_t ntouch = 0;
        for (int64_t e = row[i]; e < split[i]; e++) {
            int64_t cj = labels[col[e]];
            touched[ntouch] = cj;
            ntouch += !seen[cj];
            seen[cj] = 1;
            wsum[cj] += w[e];
        }
        for (int64_t e = split[i]; e < row[i + 1]; e++) {
            int64_t cj = labels[col[e]];
            touched[ntouch] = cj;
            ntouch += !seen[cj];
            seen[cj] = 1;
            rsum[cj] += w[e];
        }
        double rho_i = g->rep_strength[i];
        double g_cur;
        if (product)
            g_cur = -wsum[ci] + gamma * rho_i * (rs[ci] - rho_i) / g->rep_denom;
        else
            g_cur = -wsum[ci] + gamma * rsum[ci];
        /* -1, a fresh singleton cluster, is the largest id as a uint64_t */
        int64_t best_c = -1;
        double best_g = 0.0;
        for (int64_t t = 0; t < ntouch; t++) {
            int64_t c = touched[t];
            double gc;
            if (product) {
                double scl = c == ci ? rs[c] - rho_i : rs[c];
                gc = -wsum[c] + gamma * rho_i * scl / g->rep_denom;
            } else {
                gc = -wsum[c] + gamma * rsum[c];
            }
            int less = (gc < best_g)
                | ((gc == best_g) & ((uint64_t)c < (uint64_t)best_c));
            best_g = less ? gc : best_g;
            best_c = less ? c : best_c;
        }
        for (int64_t t = 0; t < ntouch; t++) {
            int64_t c = touched[t];
            seen[c] = 0;
            wsum[c] = 0.0;
            rsum[c] = 0.0;
        }
        /* with no free id every cluster is a singleton, so a move to a
         * fresh cluster would only relabel i */
        if (best_c == ci || !(best_g - g_cur < -eps) || (best_c == -1 && !top))
            continue;
        if (best_c == -1)
            best_c = empty[--top];
        labels[i] = best_c;
        rs[ci] -= rho_i;
        cnt[ci] -= 1;
        if (cnt[ci] == 0)
            empty[top++] = ci;
        rs[best_c] += rho_i;
        cnt[best_c] += 1;
        moves++;
        for (int64_t e = row[i]; e < row[i + 1]; e++) {
            int64_t j = col[e];
            if (queued[j] || labels[j] == best_c)
                continue;
            queued[j] = 1;
            queue[head + size < n ? head + size : head + size - n] = j;
            size++;
        }
    }
    return moves;
}

/* Scratch, taken from b, for phases on g and on its coarse graphs, which
 * have no more items or entries.  seen, wsum and rsum start zeroed, and
 * one_round leaves them so. */
static void scratch_alloc(buffers_t *b, scratch_t *s, const graph_t *g)
{
    size_t i64 = sizeof(int64_t), f64 = sizeof(double);
    int64_t n = g->n;
    int64_t rows = g->m + (g->rep_mode == REP_PRODUCT ? 0 : g->rep_m);
    *s = (scratch_t){
        .rs = take(b, n, f64, 0), .wsum = take(b, n, f64, 1),
        .rsum = take(b, n, f64, 1), .cnt = take(b, n, i64, 0),
        .empty = take(b, n, i64, 0), .touched = take(b, n, i64, 0),
        .order = take(b, n, i64, 0), .seen = take(b, n, 1, 1),
        .queued = take(b, n, 1, 0), .row = take(b, n + 1, i64, 0),
        .split = take(b, n, i64, 0), .col = take(b, rows, i64, 0),
        .w = take(b, rows, f64, 0)};
}

/* A local-moving phase: rounds in a fresh permutation over the compact
 * rows of g under `constraint`, laid out once; one round, or with
 * `settle` rounds until one moves nothing, and in either case at most
 * max_sweeps * n evaluations in all.  Returns the total moves. */
static int64_t phase(const graph_t *g, double gamma, int64_t *labels,
                     const int64_t *constraint, int64_t max_sweeps,
                     int settle, double eps, const bitgen_t *rng, scratch_t *s)
{
    compact_rows(g, constraint, s);
    int64_t left = 0;
    if (max_sweeps > 0 && g->n > 0)
        left = max_sweeps > INT64_MAX / g->n ? INT64_MAX : max_sweeps * g->n;
    int64_t total = 0;
    while (left > 0) {
        permutation(rng, g->n, s->order);
        int64_t moves = one_round(g, gamma, labels, eps, &left, s);
        total += moves;
        if (moves == 0 || !settle)
            break;
    }
    return total;
}

/* ---- pair grouping, for graph construction and aggregation ----
 *
 * graph._pairs (through the exported `pairs`) and the level loop's
 * aggregation share one code path, O(m + n) for m entries over n items.
 * Two stable counting sorts, by the larger end and then by the smaller,
 * group the entries by unordered pair, the pairs in lexicographic order
 * and each pair's entries in input order.  A pair's weight is its
 * entries' weights summed from 0.0 in that order, the order np.bincount
 * adds them in, so the bits are those of the numpy references.  The CSR
 * fill lists both directions of every pair, each row's columns
 * ascending, as an argsort of the keys row * n + col orders them, and
 * gives each entry its pair's weight, or its pair's index for a caller
 * (affinity_layout) to gather per-pair values through. */

/* Written as functions of values, these compile to conditional moves;
 * with random ends, a branch would mispredict half the time. */
static inline int64_t min_end(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t max_end(int64_t a, int64_t b) { return a < b ? b : a; }

/* Groups the m entries (a[t], b[t], w[t]) over n items into unique
 * unordered pairs, (min, max) of their ends, written to rows, cols and sum
 * (m slots each); with `mean`, each sum is divided by the pair's entry
 * count.  rows and cols hold the sort's permutations until they receive
 * the pairs' ends; count is n + 1 slots of scratch.  Returns the number of
 * pairs. */
static int64_t group_pairs(int64_t m, int64_t n, const int64_t *a,
                           const int64_t *b, const double *w, int mean,
                           int64_t *count, int64_t *rows, int64_t *cols,
                           double *sum)
{
#define LO(t) min_end(a[t], b[t])
#define HI(t) max_end(a[t], b[t])
    int64_t *by_hi = cols, *by_pair = rows;
    memset(count, 0, (size_t)(n + 1) * sizeof(int64_t));
    for (int64_t t = 0; t < m; t++)
        count[HI(t) + 1]++;
    for (int64_t c = 0; c < n; c++)
        count[c + 1] += count[c];
    for (int64_t t = 0; t < m; t++)
        by_hi[count[HI(t)]++] = t;
    memset(count, 0, (size_t)(n + 1) * sizeof(int64_t));
    for (int64_t t = 0; t < m; t++)
        count[LO(t) + 1]++;
    for (int64_t c = 0; c < n; c++)
        count[c + 1] += count[c];
    for (int64_t u = 0; u < m; u++) {
        int64_t t = by_hi[u];
        by_pair[count[LO(t)]++] = t;
    }
    /* one pair per run of equal ends; pair p overwrites by_pair[p] only
     * after it has been read (p <= u), and by_hi is no longer read */
    int64_t found = 0, first = 0;
    for (int64_t u = 0; u < m; u++) {
        int64_t t = by_pair[u], lo = LO(t), hi = HI(t);
        if (found == 0 || lo != rows[found - 1] || hi != cols[found - 1]) {
            if (mean && found > 0)
                sum[found - 1] /= (double)(u - first);
            first = u;
            rows[found] = lo;
            cols[found] = hi;
            sum[found++] = 0.0;
        }
        sum[found - 1] += w[t];
    }
    if (mean && found > 0)
        sum[found - 1] /= (double)(m - first);
    return found;
#undef LO
#undef HI
}

/* The both-direction CSR over n items of the `found` pairs (rows, cols),
 * unique and in lexicographic order, written to (ptr, idx): n + 1 and
 * 2 * found slots.  Each entry's pair index goes to `pair` and each pair's
 * value in `vals` to `w`, 2 * found slots each, where they are not NULL.
 * `next` is n slots of scratch. */
static void fill_csr(int64_t n, int64_t found, const int64_t *rows,
                     const int64_t *cols, const double *vals, int64_t *next,
                     int64_t *ptr, int64_t *idx, int64_t *pair, double *w)
{
    memset(ptr, 0, (size_t)(n + 1) * sizeof(int64_t));
    for (int64_t p = 0; p < found; p++) {
        ptr[rows[p] + 1]++;
        ptr[cols[p] + 1]++;
    }
    for (int64_t a = 0; a < n; a++)
        ptr[a + 1] += ptr[a];
    memcpy(next, ptr, (size_t)n * sizeof(int64_t));
    /* smaller columns first: each row c gets the rows of its pairs (r, c)
     * in ascending order, then each row r the cols of its pairs (r, c) */
    for (int64_t p = 0; p < found; p++) {
        int64_t e = next[cols[p]]++;
        idx[e] = rows[p];
        if (pair)
            pair[e] = p;
        if (w)
            w[e] = vals[p];
    }
    for (int64_t p = 0; p < found; p++) {
        int64_t e = next[rows[p]]++;
        idx[e] = cols[p];
        if (pair)
            pair[e] = p;
        if (w)
            w[e] = vals[p];
    }
}

/* The unique unordered pairs of the m entries (rows[t], cols[t], vals[t])
 * over n items and their both-direction CSR, as kernels.pairs_py: pairs
 * (r, c), r <= c, in lexicographic order, each with its entries' weights
 * summed in input order, divided by their count with `mean`, written to
 * out_rows, out_cols and out_vals (m slots each, also the sort's
 * scratch); then their layout as fill_csr writes it, to out_ptr (n + 1
 * slots), out_idx and out_weights (2 m slots each), each entry holding
 * its pair's weight.  Returns the number of pairs, or ERR_FAULT (an end
 * out of range) or ERR_NOMEM with nothing written.  Scratch: n + 1
 * slots. */
int64_t pairs(int64_t n, int64_t m, const int64_t *rows, const int64_t *cols,
              const double *vals, int64_t mean, int64_t *out_rows,
              int64_t *out_cols, double *out_vals, int64_t *out_ptr,
              int64_t *out_idx, double *out_weights)
{
    if (check_range(rows, m, n) || check_range(cols, m, n))
        return ERR_FAULT;
    buffers_t b = {NULL, 0};
    int64_t *count = take(&b, n + 1, sizeof(int64_t), 0);
    int64_t found = ERR_NOMEM;
    if (!b.failed) {
        found = group_pairs(m, n, rows, cols, vals, mean != 0, count,
                            out_rows, out_cols, out_vals);
        fill_csr(n, found, out_rows, out_cols, out_vals, count, out_ptr,
                 out_idx, NULL, out_weights);
    }
    release(&b);
    return found;
}

/* The nth smallest of a[0..len), 0 <= nth < len, by quickselect (median of
 * three pivot, three-way partition, so a run of equal values is one step);
 * reorders a.  A range of at most 32 values is finished by moving the
 * smallest of the rest to the front until position nth is reached, with
 * conditional moves, no branch on the data to mispredict.  Equal values
 * may come back as either of them: -0.0 for 0.0.  No value may be NaN. */
static double nth_smallest(double *a, int64_t len, int64_t nth)
{
    int64_t lo = 0, hi = len;
    for (;;) {
        if (hi - lo <= 32) {
            for (int64_t s = lo;; s++) {  /* the smallest of a[s..hi) to s */
                int64_t at = s;
                double least = a[s];
                for (int64_t j = s + 1; j < hi; j++) {
                    int less = a[j] < least;
                    at = less ? j : at;
                    least = less ? a[j] : least;
                }
                a[at] = a[s];
                a[s] = least;
                if (s == nth)
                    return least;
            }
        }
        double x = a[lo], y = a[lo + (hi - lo) / 2], z = a[hi - 1];
        double pivot = x < y ? (y < z ? y : (x < z ? z : x))
                             : (x < z ? x : (y < z ? z : y));
        /* [lo, lt) below the pivot, [lt, u) equal, [gt, hi) above */
        int64_t lt = lo, gt = hi;
        for (int64_t u = lo; u < gt;) {
            double v = a[u];
            if (v < pivot) {
                a[u++] = a[lt];
                a[lt++] = v;
            } else if (v > pivot) {
                a[u] = a[--gt];
                a[gt] = v;
            } else {
                u++;
            }
        }
        if (nth < lt)
            hi = lt;
        else if (nth >= gt)
            lo = gt;
        else
            return pivot;
    }
}

/* ---- the affinity graph of a neighbour graph (graph.derive_affinity) ----
 *
 * Two calls around numpy's exp, whose SIMD path is host-specific, each
 * doing the arithmetic of its numpy reference (kernels.affinity_layout_py,
 * affinity_weights_py) in the same order: `affinity_layout` checks the
 * edges and distances in one scan, lays the pairs out with fill_csr, picks
 * each item's sigma by selection and writes the exponents -d^2 / (s_i s_j)
 * (or, for the inverse-distance kernel, the similarities 1 / d);
 * `affinity_weights` takes the similarities to the row sums, added in
 * np.bincount's order (rows, then cols), the symmetrised weights, their
 * end sums and their CSR layout. */

/* ERR_FAULT when an edge is not a pair 0 <= i < j < n after the one
 * before it (so the pairs are unique and in order), or its distance is
 * not finite and >= 0, else 0.  Copies the ends to rows and cols on the
 * way. */
static int64_t scan_edges(int64_t n, int64_t m, const int64_t *edges,
                          const double *dist, int64_t *rows, int64_t *cols)
{
    for (int64_t t = 0; t < m; t++) {
        int64_t i = edges[2 * t], j = edges[2 * t + 1];
        if (!(0 <= i && i < j && j < n)
                || (t > 0 && !(i > rows[t - 1]
                               || (i == rows[t - 1] && j > cols[t - 1])))
                || !(dist[t] >= 0.0 && dist[t] < INFINITY))  /* NaN fails */
            return ERR_FAULT;
        rows[t] = i;
        cols[t] = j;
    }
    return 0;
}

/* Each item's sigma: the rank-th smallest (from 1) of its edge distances,
 * pushed past its zero distances and capped at its degree, by
 * nth_smallest on a copy of the row (`row`, n slots); then, when any is
 * zero, every sigma floored at 1e-12 of the largest, as np.maximum does.
 * Returns ERR_FAULT when every sigma is still zero, else 0. */
static int64_t pick_sigmas(int64_t n, const int64_t *ptr, const int64_t *pair,
                           const double *dist, int64_t rank, double *row,
                           double *sigma)
{
    double largest = 0.0;
    int any_zero = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t len = ptr[i + 1] - ptr[i], zeros = 0;
        for (int64_t e = ptr[i]; e < ptr[i + 1]; e++) {
            row[e - ptr[i]] = dist[pair[e]];
            zeros += dist[pair[e]] == 0.0;
        }
        int64_t pick = rank - 1 > zeros ? rank - 1 : zeros;
        sigma[i] = nth_smallest(row, len, pick < len - 1 ? pick : len - 1);
        any_zero |= sigma[i] <= 0.0;
        largest = sigma[i] > largest ? sigma[i] : largest;
    }
    if (!any_zero)
        return 0;
    double least = largest * 1e-12;
    for (int64_t i = 0; i < n; i++)
        sigma[i] = sigma[i] < least ? least : sigma[i];
    return largest > 0.0 ? 0 : ERR_FAULT;
}

/* The both-direction CSR of the m edges (i, j) of a neighbour graph over
 * n items, as kernels.affinity_layout_py: out_ptr (n + 1 slots), out_idx
 * and out_pair (2 m slots each) as fill_csr writes them, and per edge
 * (out_vals, m slots) the exponent -d^2 / (sigma_i sigma_j) of the
 * self-tuning Gaussian with sigma of rank `rank`, or, with `inverse`, the
 * similarity 1 / d.  Returns 0, or else ERR_NOMEM, or ERR_FAULT: before
 * anything is written for a bad edge or distance (scan_edges) or an item
 * without an edge, with only the layout written when every sigma is 0 or,
 * with `inverse`, a distance is 0.  Scratch: 2 m + 4 n slots. */
int64_t affinity_layout(int64_t n, int64_t m, const int64_t *edges,
                        const double *dist, int64_t rank, int64_t inverse,
                        int64_t *out_ptr, int64_t *out_idx, int64_t *out_pair,
                        double *out_vals)
{
    size_t i64 = sizeof(int64_t), f64 = sizeof(double);
    buffers_t b = {NULL, 0};
    int64_t *rows = take(&b, m, i64, 0), *cols = take(&b, m, i64, 0);
    int64_t *degree = take(&b, n, i64, 1), *next = take(&b, n, i64, 0);
    double *row = take(&b, n, f64, 0), *sigma = take(&b, n, f64, 0);
    int64_t err = b.failed ? ERR_NOMEM
        : scan_edges(n, m, edges, dist, rows, cols);
    for (int64_t t = 0; !err && t < m; t++) {
        degree[rows[t]]++;
        degree[cols[t]]++;
    }
    for (int64_t i = 0; !err && i < n; i++)
        if (degree[i] == 0)
            err = ERR_FAULT;
    if (!err) {
        fill_csr(n, m, rows, cols, NULL, next, out_ptr, out_idx, out_pair,
                 NULL);
        if (inverse) {
            for (int64_t t = 0; !err && t < m; t++)
                if (dist[t] <= 0.0)
                    err = ERR_FAULT;
            for (int64_t t = 0; !err && t < m; t++)
                out_vals[t] = 1.0 / dist[t];
        } else {
            err = pick_sigmas(n, out_ptr, out_pair, dist, rank, row, sigma);
            for (int64_t t = 0; !err && t < m; t++)
                out_vals[t] = -(dist[t] * dist[t])
                              / (sigma[rows[t]] * sigma[cols[t]]);
        }
    }
    release(&b);
    return err;
}

/* The weights of the m edges of an affinity_layout, as
 * kernels.affinity_weights_py: with r_i the sum of item i's similarities
 * sim, added over the edges' first ends and then their second ends, each
 * edge's w = 0.5 (s / r_i + s / r_j) (out_w, m slots), each item's
 * strength, w summed the same way (out_strengths, n slots), and w laid out
 * through the CSR's pair indices (out_weights, 2 m slots).  Returns 0, or
 * else ERR_NOMEM, or ERR_FAULT, with nothing written: for an end or pair
 * index out of range, unless every similarity is finite and one is
 * positive, or for an item whose similarities sum to <= 0.  Scratch: n
 * slots. */
int64_t affinity_weights(int64_t n, int64_t m, const int64_t *edges,
                         const int64_t *pair, const double *sim,
                         double *out_w, double *out_strengths,
                         double *out_weights)
{
    int bad = check_range(edges, 2 * m, n) || check_range(pair, 2 * m, m);
    int positive = 0;
    for (int64_t t = 0; !bad && t < m; t++) {
        bad = !isfinite(sim[t]);
        positive |= sim[t] > 0.0;
    }
    if (bad || !positive)
        return ERR_FAULT;
    buffers_t b = {NULL, 0};
    double *rowsum = take(&b, n, sizeof(double), 1);
    int64_t err = b.failed ? ERR_NOMEM : 0;
    for (int64_t end = 0; !err && end < 2; end++)
        for (int64_t t = 0; t < m; t++)
            rowsum[edges[2 * t + end]] += sim[t];
    for (int64_t i = 0; !err && i < n; i++)
        if (rowsum[i] <= 0.0)
            err = ERR_FAULT;
    if (!err) {
        memset(out_strengths, 0, (size_t)n * sizeof(double));
        for (int64_t t = 0; t < m; t++)
            out_w[t] = 0.5 * (sim[t] / rowsum[edges[2 * t]]
                              + sim[t] / rowsum[edges[2 * t + 1]]);
        for (int64_t end = 0; end < 2; end++)
            for (int64_t t = 0; t < m; t++)
                out_strengths[edges[2 * t + end]] += out_w[t];
        for (int64_t e = 0; e < 2 * m; e++)
            out_weights[e] = out_w[pair[e]];
    }
    release(&b);
    return err;
}

/* ---- the level loop of optimizer.optimize ----
 *
 * Aggregation follows optimizer.aggregate.  A coarse edge weight is the
 * sum, from 0.0 and in CSR order, of the entries (i, j) with j > i whose
 * ends lie in different clusters, grouped by cluster pair by group_pairs
 * and laid out by fill_csr.  A coarse graph never has more entries than
 * the one above it, so the buffers sized for the first one serve every
 * level. */

/* Relabels `labels` (values in [0, n)) in first-occurrence order from 0,
 * as energy.canonicalize; `map` is n slots of scratch.  Returns the
 * cluster count. */
static int64_t canonicalize(int64_t *labels, int64_t n, int64_t *map)
{
    for (int64_t c = 0; c < n; c++)
        map[c] = -1;
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t c = labels[i];
        if (map[c] < 0)
            map[c] = k++;
        labels[i] = map[c];
    }
    return k;
}

/* Scratch of `collapse`: the cross-cluster entries (the clusters of
 * their ends, their weights) and group_pairs' arrays, `cap` slots each,
 * and k + 1 counters. */
typedef struct {
    int64_t *a, *b;
    double *w;
    int64_t *rows, *cols;
    double *sum;
    int64_t *count;
} collapse_t;

/* The CSR (ptr, idx, wt) over n items collapsed onto the k clusters of
 * `labels`, written as a k-row CSR to (out_ptr, out_idx, out_w), which
 * may be the input's own buffers: everything is read before anything is
 * written. */
static void collapse(int64_t n, const int64_t *ptr, const int64_t *idx,
                     const double *wt, const int64_t *labels, int64_t k,
                     const collapse_t *c, int64_t *out_ptr, int64_t *out_idx,
                     double *out_w)
{
    int64_t m = 0;
    for (int64_t i = 0; i < n; i++) {
        for (int64_t e = ptr[i]; e < ptr[i + 1]; e++) {
            int64_t j = idx[e], a = labels[i], b = labels[j];
            if (j <= i || a == b)
                continue;
            c->a[m] = a;
            c->b[m] = b;
            c->w[m++] = wt[e];
        }
    }
    int64_t found = group_pairs(m, k, c->a, c->b, c->w, 0, c->count,
                                c->rows, c->cols, c->sum);
    fill_csr(k, found, c->rows, c->cols, c->sum, c->count, out_ptr, out_idx,
             NULL, out_w);
}

/* The sum from 0.0, in CSR order, of the weights of the entries (i, j),
 * j > i, whose ends share a label; each weight negated when `negate`.
 * Adding -w from 0.0 is not negating the sum of w: that would turn a
 * +0.0 total into -0.0. */
static double within(int64_t n, const int64_t *ptr, const int64_t *idx,
                     const double *wt, const int64_t *labels, int negate)
{
    double sum = 0.0;
    for (int64_t i = 0; i < n; i++)
        for (int64_t e = ptr[i]; e < ptr[i + 1]; e++)
            if (idx[e] > i && labels[idx[e]] == labels[i])
                sum += negate ? -wt[e] : wt[e];
    return sum;
}

/* (h_a, h_r) of `labels` (values in [0, k)) on g, written to `energy`,
 * with every sum added in the order kernels.energy_components adds it,
 * so the bits are the same; `sums` is k slots of scratch. */
static void energy_of(const graph_t *g, const int64_t *labels, int64_t k,
                      double *sums, double *energy)
{
    energy[0] = within(g->n, g->indptr, g->indices, g->weights, labels, 1);
    if (g->rep_mode == REP_EXPLICIT) {
        energy[1] = within(g->n, g->rep_indptr, g->rep_indices,
                           g->rep_weights, labels, 0);
        return;
    }
    /* per label in item order, as np.bincount adds */
    for (int64_t c = 0; c < k; c++)
        sums[c] = 0.0;
    double squares = 0.0, own = 0.0;
    for (int64_t i = 0; i < g->n; i++)
        sums[labels[i]] += g->rep_strength[i];
    for (int64_t c = 0; c < k; c++)
        squares += sums[c] * sums[c];
    for (int64_t i = 0; i < g->n; i++)
        own += g->rep_strength[i] * g->rep_strength[i];
    energy[1] = (squares - own) / (2.0 * g->rep_denom);
}

/* The level loop of optimizer.optimize for one seed, as its Python loop
 * runs it, phase for phase and draw for draw: local moving; refinement
 * from singletons within each cluster (or the clusters themselves when
 * refinement keeps every item apart); aggregation of the refinement, the
 * clusters becoming the next level's start; at most max_levels levels,
 * each of whose two phases is one round of at most max_sweeps * n
 * evaluations, then a polish on the original graph, rounds until one
 * moves nothing, of at most max_polish * n evaluations in all (see
 * phase).
 * Writes the canonical labels to `out` (n slots), their (h_a, h_r) on
 * the original graph to `energy` (2 slots, see energy_of) and returns 0,
 * or ERR_NOMEM before any number is drawn.  The graph must have passed
 * check_graph.  The caller holds the bit generator's lock. */
int64_t level_loop(const graph_t *graph, double gamma, int64_t max_levels,
                   int64_t max_sweeps, int64_t max_polish, double eps,
                   int64_t *out, double *energy, const bitgen_t *rng)
{
    graph_t orig = *graph;
    int64_t n = orig.n;
    int explicit_rep = orig.rep_mode == REP_EXPLICIT;
    /* collapse reads the entries (i, j), j > i: half of a symmetric CSR */
    int64_t most = explicit_rep && orig.rep_m > orig.m ? orig.rep_m : orig.m;
    size_t slots = n > 0 ? (size_t)n + 1 : 2;
    size_t cap = (size_t)(most / 2) + 1;
    size_t i64 = sizeof(int64_t), f64 = sizeof(double);
    buffers_t b = {NULL, 0};
    scratch_t s;
    scratch_alloc(&b, &s, &orig);
    int64_t *labels = take(&b, slots, i64, 0);
    int64_t *refined = take(&b, slots, i64, 0);
    int64_t *next = take(&b, slots, i64, 0);
    int64_t *mapping = take(&b, slots, i64, 0);
    int64_t *zeros = take(&b, slots, i64, 1), *map = take(&b, slots, i64, 0);
    double *rho = take(&b, slots, f64, 0), *rho_next = take(&b, slots, f64, 0);
    collapse_t c = {take(&b, cap, i64, 0), take(&b, cap, i64, 0),
                    take(&b, cap, f64, 0), take(&b, cap, i64, 0),
                    take(&b, cap, i64, 0), take(&b, cap, f64, 0),
                    take(&b, slots, i64, 0)};
    int64_t *ptr = take(&b, slots, i64, 0), *idx = take(&b, 2 * cap, i64, 0);
    double *wt = take(&b, 2 * cap, f64, 0);
    int64_t *rep_ptr = explicit_rep ? take(&b, slots, i64, 0) : NULL;
    int64_t *rep_idx = explicit_rep ? take(&b, 2 * cap, i64, 0) : NULL;
    double *rep_wt = explicit_rep ? take(&b, 2 * cap, f64, 0) : NULL;
    if (b.failed) {
        release(&b);
        return ERR_NOMEM;
    }
    graph_t cur = orig;
    for (int64_t i = 0; i < n; i++)
        labels[i] = mapping[i] = i;
    for (int64_t level = 0; level < max_levels; level++) {
        int64_t moved = phase(&cur, gamma, labels, zeros, max_sweeps, 0, eps,
                              rng, &s);
        int64_t k = canonicalize(labels, cur.n, map);
        if (moved == 0 || k == cur.n)
            break;
        for (int64_t i = 0; i < cur.n; i++)
            refined[i] = i;
        phase(&cur, gamma, refined, labels, max_sweeps, 0, eps, rng, &s);
        int64_t kr = canonicalize(refined, cur.n, map);
        if (kr == cur.n) {
            memcpy(refined, labels, (size_t)cur.n * i64);
            kr = k;
        }
        collapse(cur.n, cur.indptr, cur.indices, cur.weights, refined, kr, &c,
                 ptr, idx, wt);
        memset(rho_next, 0, (size_t)kr * f64);
        if (explicit_rep)
            collapse(cur.n, cur.rep_indptr, cur.rep_indices, cur.rep_weights,
                     refined, kr, &c, rep_ptr, rep_idx, rep_wt);
        else  /* item order, as np.bincount adds */
            for (int64_t i = 0; i < cur.n; i++)
                rho_next[refined[i]] += cur.rep_strength[i];
        for (int64_t i = 0; i < cur.n; i++)
            next[refined[i]] = labels[i];
        for (int64_t i = 0; i < n; i++)
            mapping[i] = refined[mapping[i]];
        double *swap = rho;
        rho = rho_next;
        rho_next = swap;
        int64_t *held = labels;
        labels = next;
        next = held;
        cur = (graph_t){.n = kr, .m = ptr[kr], .indptr = ptr, .indices = idx,
                        .weights = wt, .rep_mode = orig.rep_mode,
                        .rep_strength = rho, .rep_denom = orig.rep_denom,
                        .rep_m = explicit_rep ? rep_ptr[kr] : 0,
                        .rep_indptr = rep_ptr, .rep_indices = rep_idx,
                        .rep_weights = rep_wt};
    }
    for (int64_t i = 0; i < n; i++)
        out[i] = labels[mapping[i]];
    phase(&orig, gamma, out, zeros, max_polish, 1, eps, rng, &s);
    /* rho_next is spare: n + 1 slots for at most n clusters */
    energy_of(&orig, out, canonicalize(out, n, map), rho_next, energy);
    release(&b);
    return 0;
}

/* The root of i's set, halving the path on the way. */
static int64_t find_root(int64_t *root, int64_t i)
{
    while (root[i] != i) {
        root[i] = root[root[i]];
        i = root[i];
    }
    return i;
}

/* The optimum of H at gamma = 0, without the level loop: the connected
 * components of g over its entries of positive weight, as
 * kernels.components_py finds them.  At gamma = 0, H is h_a alone, which
 * is lowest exactly when every cluster is a union of these components;
 * of those partitions the components themselves have the least h_r
 * (repulsion is never negative), so they are also the optimum as
 * gamma -> 0+.  Writes their canonical labels to `out` (n slots) and
 * their (h_a, h_r) to `energy` (see energy_of), and returns 0, or
 * ERR_NOMEM.  g must have passed check_graph. */
int64_t components(const graph_t *g, int64_t *out, double *energy)
{
    int64_t n = g->n;
    buffers_t b = {NULL, 0};
    int64_t *root = take(&b, n, sizeof(int64_t), 0);
    double *sums = take(&b, n, sizeof(double), 0);
    if (b.failed) {
        release(&b);
        return ERR_NOMEM;
    }
    for (int64_t i = 0; i < n; i++)
        root[i] = i;
    for (int64_t i = 0; i < n; i++) {
        for (int64_t e = g->indptr[i]; e < g->indptr[i + 1]; e++) {
            if (!(g->weights[e] > 0.0))
                continue;
            int64_t a = find_root(root, i), b = find_root(root, g->indices[e]);
            if (a < b)
                root[b] = a;
            else
                root[a] = b;
        }
    }
    for (int64_t i = 0; i < n; i++)
        out[i] = find_root(root, i);
    /* the roots are spent: their slots serve as canonicalize's map */
    energy_of(g, out, canonicalize(out, n, root), sums, energy);
    release(&b);
    return 0;
}

/* ---- exact k-nearest-neighbour search on a kd-tree ----
 *
 * The tree's answer is the brute-force one, bit for bit:
 * - a distance is a squared sum from 0.0 in coordinate order, put on its
 *   final scale (sqrt, or 0.5 * for cosine), as knn_py does; and the k best
 *   by (distance, index) are the same set in whatever order candidates come;
 * - a bound is summed the same way from per-coordinate gaps that are never
 *   larger than the differences of the points it bounds, so, rounding being
 *   monotone, a box's bound never exceeds the squared sum of a point in it;
 *   one routine bounds the gap between two boxes, a query point being the
 *   box whose corners coincide;
 * - a query's gate is a squared sum past which the final scale lands
 *   strictly above its list's worst distance w: w^2 (1 + 2^-50), or
 *   2 w (1 + 2^-50) for cosine, plus DBL_MIN.  In the normal range its two
 *   roundings leave it above w^2 (1 + 2^-51), so a sum past it has a square
 *   root more than half an ulp above w, which rounds above w; DBL_MIN
 *   covers squares rounded in the subnormal range.  A candidate past its
 *   gate could not enter the list and costs no sqrt; every other candidate
 *   takes the exact (distance, index) comparison;
 * - a node is skipped only when its bound is past the gates, or when its
 *   (bound, smallest index) comes after the worst (distance, index) of
 *   every full list, so that a large group of equal distances is searched
 *   in index order without visiting the rest of the group.
 * Queries go in batches, the points of one leaf, each with a list of its k
 * best, sorted.  A batch starts from its group, the smallest node over the
 * leaf with more than k points: the group's points fill each query's list,
 * which sets its gate.  Then the batch walks the rest of the tree once,
 * skipping a node whose bound from the leaf's box is past every query's
 * gate, and, in each leaf it reaches, a query whose bound from its own
 * point is past its own gate.  A query is read from the caller's points;
 * its squared sums to a leaf's points advance side by side, a coordinate
 * at a time, over a copy of the points in tree order stored coordinate by
 * coordinate.
 * Nodes split at the median of (coordinate, index) on their widest
 * dimension: a box of identical points splits in index order. */

#define LEAF_SIZE 16

typedef struct {
    int64_t start, end;  /* its points: tree positions [start, end) */
    int64_t right;       /* second child (the first is the next node), or
                            -1 at a leaf */
    int64_t min_index;   /* smallest item index among its points */
} kdnode_t;

/* A coordinate and its item: the split's (coordinate, index) order. */
typedef struct {
    double key;
    int64_t index;
} keyed_t;

typedef struct {
    int64_t n, d, k, half_square;
    const double *points;  /* the caller's points, d per item */
    double *cols;      /* the points in tree order, n per coordinate */
    int64_t *perm;     /* item index at each tree position */
    kdnode_t *nodes;
    double *boxes;     /* per node, d lower then d upper bounds */
    keyed_t *keys;     /* the split's scratch, n slots */
    int64_t count;     /* nodes built so far */
} kdtree_t;

typedef struct {
    double dist;
    int64_t index;
} neighbour_t;

/* The queries of one leaf: its points, each with the list of its k best
 * so far, ascending by (distance, index).  Their group is the smallest
 * node over the leaf, the leaf included, with more than k points: at most
 * max(LEAF_SIZE, 2 k + 1) points, since its child holds at most k. */
typedef struct {
    int64_t leaf, first, count;      /* the leaf, its first position, size */
    int64_t group;
    neighbour_t *best;               /* LEAF_SIZE lists of k */
    int64_t size[LEAF_SIZE];         /* entries in each list */
    double gate[LEAF_SIZE];          /* INFINITY until a list has a bound */
    double max_gate;                 /* the largest of them */
    double *near;                    /* a query's squared sums to the group */
} batch_t;

/* Nodes of a subtree over m points. */
static int64_t node_count(int64_t m)
{
    return m <= LEAF_SIZE ? 1 : 1 + node_count(m / 2) + node_count(m - m / 2);
}

/* (da, ia) comes after (db, ib) in (distance, index) order. */
static int after(double da, int64_t ia, double db, int64_t ib)
{
    return da > db || (da == db && ia > ib);
}

static int key_after(keyed_t a, keyed_t b)
{
    return after(a.key, a.index, b.key, b.index);
}

/* Reorder keys[lo..hi) so that position nth holds the key it would hold
 * sorted, smaller keys before it and larger after (quickselect, Lomuto
 * partition, median-of-three pivot). */
static void select_nth(keyed_t *keys, int64_t lo, int64_t hi, int64_t nth)
{
#define SWAP(x, y) do { keyed_t tmp_ = keys[x]; keys[x] = keys[y]; \
                        keys[y] = tmp_; } while (0)
    while (hi - lo > 1) {
        int64_t mid = lo + (hi - lo) / 2, last = hi - 1;
        if (key_after(keys[lo], keys[mid]))
            SWAP(lo, mid);
        if (key_after(keys[mid], keys[last]))
            SWAP(mid, last);
        if (key_after(keys[lo], keys[mid]))
            SWAP(lo, mid);
        SWAP(mid, last);  /* the median of the three is the pivot */
        keyed_t pivot = keys[last];
        int64_t store = lo;
        for (int64_t x = lo; x < last; x++)
            if (key_after(pivot, keys[x])) {
                SWAP(x, store);
                store++;
            }
        SWAP(store, last);
        if (nth == store)
            return;
        if (nth < store)
            hi = store;
        else
            lo = store + 1;
    }
#undef SWAP
}

/* Build the subtree over tree positions [start, end); returns its node. */
static int64_t build(kdtree_t *t, const double *points, int64_t start,
                     int64_t end)
{
    int64_t id = t->count++, d = t->d;
    kdnode_t *node = &t->nodes[id];
    double *lo = t->boxes + 2 * d * id, *hi = lo + d;
    node->start = start;
    node->end = end;
    node->right = -1;
    node->min_index = t->perm[start];
    for (int64_t c = 0; c < d; c++)
        lo[c] = hi[c] = points[t->perm[start] * d + c];
    for (int64_t p = start + 1; p < end; p++) {
        int64_t j = t->perm[p];
        const double *x = points + j * d;
        node->min_index = j < node->min_index ? j : node->min_index;
        for (int64_t c = 0; c < d; c++) {  /* conditional moves, no branch */
            lo[c] = x[c] < lo[c] ? x[c] : lo[c];
            hi[c] = x[c] > hi[c] ? x[c] : hi[c];
        }
    }
    if (end - start <= LEAF_SIZE)
        return id;
    int64_t dim = 0;
    for (int64_t c = 1; c < d; c++)
        if (hi[c] - lo[c] > hi[dim] - lo[dim])
            dim = c;
    int64_t mid = start + (end - start) / 2;
    for (int64_t p = start; p < end; p++)
        t->keys[p] = (keyed_t){points[t->perm[p] * d + dim], t->perm[p]};
    select_nth(t->keys, start, end, mid);
    for (int64_t p = start; p < end; p++)
        t->perm[p] = t->keys[p].index;
    build(t, points, start, mid);
    t->nodes[id].right = build(t, points, mid, end);
    return id;
}

static double final_scale(const kdtree_t *t, double sq)
{
    return t->half_square ? 0.5 * sq : sqrt(sq);
}

/* The squared sum past which the final scale lands strictly above w. */
static double gate_of(const kdtree_t *t, double w)
{
    double edge = t->half_square ? 2.0 * w : w * w;
    return edge * (1.0 + 0x1p-50) + DBL_MIN;
}

/* sq[x - start] = the squared differences of q and the point at tree
 * position x, summed from 0.0 in coordinate order, for x in [start, end):
 * the sums advance side by side, a coordinate at a time. */
static void squared_sums(const kdtree_t *t, const double *q, int64_t start,
                         int64_t end, double *sq)
{
    int64_t len = end - start;
    for (int64_t x = 0; x < len; x++)
        sq[x] = 0.0;
    for (int64_t c = 0; c < t->d; c++) {
        const double *col = t->cols + c * t->n + start;
        double qc = q[c];
        for (int64_t x = 0; x < len; x++) {
            double diff = qc - col[x];
            sq[x] += diff * diff;
        }
    }
}

/* Squared lower bound on the distance between points of the box [lo, hi]
 * and points of the node's box; a point q is the box [q, q]. */
static double gap_bound(const kdtree_t *t, const double *lo, const double *hi,
                        int64_t id)
{
    const double *blo = t->boxes + 2 * t->d * id, *bhi = blo + t->d;
    double sq = 0.0;
    for (int64_t c = 0; c < t->d; c++) {
        double gap = 0.0;
        if (hi[c] < blo[c])
            gap = blo[c] - hi[c];
        else if (lo[c] > bhi[c])
            gap = lo[c] - bhi[c];
        sq += gap * gap;
    }
    return sq;
}

/* The batch's max_gate, from its queries' gates. */
static void widest_gate(batch_t *q)
{
    q->max_gate = 0.0;
    for (int64_t u = 0; u < q->count; u++)
        if (q->gate[u] > q->max_gate)
            q->max_gate = q->gate[u];
}

/* Offer item j, at squared sum sq, to query u's list. */
static void offer(const kdtree_t *t, batch_t *q, int64_t u, double sq,
                  int64_t j)
{
    if (sq > q->gate[u])
        return;
    double dist = final_scale(t, sq);
    neighbour_t *list = q->best + u * t->k;
    int64_t at = q->size[u];
    if (at == t->k) {
        if (!after(list[at - 1].dist, list[at - 1].index, dist, j))
            return;
        at--;
    } else {
        q->size[u]++;
    }
    for (; at > 0 && after(list[at - 1].dist, list[at - 1].index, dist, j);
         at--)
        list[at] = list[at - 1];
    list[at].dist = dist;
    list[at].index = j;
    if (q->size[u] == t->k)
        q->gate[u] = gate_of(t, list[t->k - 1].dist);
}

/* Start the batch of a leaf: every query's list from its group's points,
 * the candidates nearest at hand, which fill it and so set its gate. */
static void start_batch(const kdtree_t *t, int64_t leaf, batch_t *q)
{
    const kdnode_t *nodes = t->nodes;
    q->leaf = leaf;
    q->first = nodes[leaf].start;
    q->count = nodes[leaf].end - q->first;
    q->group = 0;
    while (nodes[q->group].right >= 0) {
        int64_t child = q->first < nodes[q->group + 1].end
                            ? q->group + 1 : nodes[q->group].right;
        if (nodes[child].end - nodes[child].start <= t->k)
            break;
        q->group = child;
    }
    int64_t start = nodes[q->group].start, end = nodes[q->group].end;
    for (int64_t u = 0; u < q->count; u++) {
        int64_t self = q->first + u;
        q->size[u] = 0;
        q->gate[u] = INFINITY;
        squared_sums(t, t->points + t->perm[self] * t->d, start, end,
                     q->near);
        for (int64_t x = start; x < end; x++)
            if (x != self)
                offer(t, q, u, q->near[x - start], t->perm[x]);
    }
    widest_gate(q);
}

/* Whether no point of the node, at squared bound `bound` from the leaf's
 * box, can enter any list of the batch. */
static int skip(const kdtree_t *t, const batch_t *q, int64_t id, double bound)
{
    if (bound > q->max_gate)
        return 1;
    double dist = final_scale(t, bound);
    int64_t min_index = t->nodes[id].min_index;
    for (int64_t u = 0; u < q->count; u++) {
        const neighbour_t *worst = q->best + u * t->k + t->k - 1;
        if (bound <= q->gate[u] && (q->size[u] < t->k
                || !after(dist, min_index, worst->dist, worst->index)))
            return 0;
    }
    return 1;
}

/* Offer every point of a leaf other than the batch's own to each query
 * whose bound from its point to the leaf's box is within its gate. */
static void scan_leaf(const kdtree_t *t, int64_t id, batch_t *q)
{
    int64_t d = t->d;
    const kdnode_t *node = &t->nodes[id];
    double sq[LEAF_SIZE];
    for (int64_t u = 0; u < q->count; u++) {
        const double *p = t->points + t->perm[q->first + u] * d;
        if (gap_bound(t, p, p, id) > q->gate[u])
            continue;
        squared_sums(t, p, node->start, node->end, sq);
        for (int64_t x = node->start; x < node->end; x++)
            offer(t, q, u, sq[x - node->start], t->perm[x]);
    }
    widest_gate(q);
}

/* Walk the subtree of node id for the batch, the nearer child first,
 * leaving out the group, whose points the batch started from. */
static void visit(const kdtree_t *t, int64_t id, batch_t *q)
{
    const kdnode_t *node = &t->nodes[id];
    if (id == q->group)
        return;
    if (node->right < 0) {
        scan_leaf(t, id, q);
        return;
    }
    /* the nearer child first, by (bound, smallest index) */
    int64_t a = id + 1, b = node->right;
    const double *lo = t->boxes + 2 * t->d * q->leaf, *hi = lo + t->d;
    double bound_a = gap_bound(t, lo, hi, a);
    double bound_b = gap_bound(t, lo, hi, b);
    if (after(bound_a, t->nodes[a].min_index, bound_b, t->nodes[b].min_index)) {
        int64_t child = a;
        double bound = bound_a;
        a = b;
        bound_a = bound_b;
        b = child;
        bound_b = bound;
    }
    if (!skip(t, q, a, bound_a))
        visit(t, a, q);
    if (!skip(t, q, b, bound_b))
        visit(t, b, q);
}

/* The tree's and the batch's buffers for n points in d dimensions, taken
 * from b. */
static void search_alloc(buffers_t *b, kdtree_t *t, batch_t *q, int64_t n,
                         int64_t d, int64_t k, int64_t half_square)
{
    int64_t nodes = node_count(n);
    *t = (kdtree_t){n, d, k, half_square, NULL,
                    take(b, n * d, sizeof(double), 0),
                    take(b, n, sizeof(int64_t), 0),
                    take(b, nodes, sizeof(kdnode_t), 0),
                    take(b, 2 * d * nodes, sizeof(double), 0),
                    take(b, n, sizeof(keyed_t), 0), 0};
    int64_t width = 2 * k + 1 > LEAF_SIZE ? 2 * k + 1 : LEAF_SIZE;
    q->best = take(b, LEAF_SIZE * k, sizeof(neighbour_t), 0);
    q->near = take(b, width < n ? width : n, sizeof(double), 0);
}

/* Each item's k nearest other items by (distance, index), as knn_py:
 * row i of nn / nn_dist (n x k) lists them in that order, one batch per
 * leaf.  The distance is the square root of the squared differences
 * summed from 0.0 in coordinate order, or half that sum with
 * half_square. */
static void search(kdtree_t *t, batch_t *q, int64_t n, const double *points,
                   int64_t *nn, double *nn_dist)
{
    int64_t d = t->d, k = t->k;
    for (int64_t i = 0; i < n; i++)
        t->perm[i] = i;
    t->points = points;
    build(t, points, 0, n);
    for (int64_t p = 0; p < n; p++)
        for (int64_t c = 0; c < d; c++)
            t->cols[c * n + p] = points[t->perm[p] * d + c];
    for (int64_t leaf = 0; leaf < t->count; leaf++) {
        if (t->nodes[leaf].right >= 0)
            continue;
        start_batch(t, leaf, q);
        visit(t, 0, q);
        for (int64_t u = 0; u < q->count; u++) {
            int64_t i = t->perm[q->first + u];
            for (int64_t r = 0; r < k; r++) {
                nn[i * k + r] = q->best[u * k + r].index;
                nn_dist[i * k + r] = q->best[u * k + r].dist;
            }
        }
    }
}

/* The kNN graph of graph.build_knn_graph, as kernels.knn_graph_py: the
 * search, then the unique pairs (i, j), i < j, of every item and its k
 * nearest, in lexicographic order, each with the mean of its entries'
 * distances, grouped by group_pairs.  The caller passes n x d finite
 * points and 1 <= k <= n - 1.  Writes the pairs to out_edges (2 n k
 * slots, i then j) and their distances to out_dist (n k slots) and
 * returns their number, or ERR_NOMEM with nothing written.  A distance
 * that overflows is infinite, and so is the mean of its pair, which
 * kernels._finite_distances checks.  Scratch: the points in tree order,
 * stored coordinate by coordinate, 3 n indices, at most n / 4 + 1 nodes
 * of 2 d bounds each, a batch's lists and group, and 5 n k + n + 1
 * slots. */
int64_t knn_graph(int64_t n, int64_t d, const double *points, int64_t k,
                  int64_t half_square, int64_t *out_edges, double *out_dist)
{
    int64_t m = n * k;
    size_t i64 = sizeof(int64_t);
    buffers_t b = {NULL, 0};
    kdtree_t t;
    batch_t q;
    search_alloc(&b, &t, &q, n, d, k, half_square);
    int64_t *nn = take(&b, m, i64, 0), *from = take(&b, m, i64, 0);
    int64_t *rows = take(&b, m, i64, 0), *cols = take(&b, m, i64, 0);
    int64_t *count = take(&b, n + 1, i64, 0);
    double *nn_dist = take(&b, m, sizeof(double), 0);
    int64_t found = ERR_NOMEM;
    if (!b.failed) {
        search(&t, &q, n, points, nn, nn_dist);
        for (int64_t i = 0; i < n; i++)
            for (int64_t r = 0; r < k; r++)
                from[i * k + r] = i;
        /* both directions of a pair carry the same distance, so their
         * mean is it */
        found = group_pairs(m, n, from, nn, nn_dist, 1, count, rows, cols,
                            out_dist);
        for (int64_t p = 0; p < found; p++) {
            out_edges[2 * p] = rows[p];
            out_edges[2 * p + 1] = cols[p];
        }
    }
    release(&b);
    return found;
}

/* ---- the points file of graph.load_points_csv ----
 *
 * The one export that reads text, not a graph: the body of a points file
 * (its text after the header line, if it has one, as graph.read_text
 * decodes it, so every line ends in \n, the last one too), parsed in one
 * pass.  Python's float is the reference (graph._row_points reads every
 * body this reader declines): within this grammar both round each number
 * correctly, so they return the same bits.  The final \n ends every scan
 * below, none of which passes a \n, so none needs a bound: a field is
 * handed to strtod only at a digit, a sign or '.', never at the blanks
 * strtod would skip, and no form strtod reads runs past \n or NUL. */

static int is_blank(char c) { return c == ' ' || c == '\t'; }

static int starts_number(char c)
{
    return (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.';
}

/* The rows of a points file's body text[0..len), as graph._row_points
 * reads them: lines ended by \n, blank lines (spaces and tabs only)
 * skipped, every other line the same number of comma-separated fields
 * [ \t]*<number>[ \t]*, each read by strtod.  A number is what strtod
 * reads from a digit, a sign or '.' in the bytes 0-9 + - . e E only:
 * under a locale whose decimal point is '.', exactly the numbers
 * [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? (C99 7.20.1.3).  Hex, inf and nan(...)
 * take other bytes; under another decimal point strtod stops at the '.'
 * or reads the other point; a field strtod reads nothing of leaves its
 * sign or '.' next; each is declined.  Writes the values, row by row, to
 * out (cap slots) and the width to *cols, and returns the number of rows;
 * returns 0 and leaves *cols untouched, out in part written, to decline:
 * on a body whose last byte is not \n, no rows, any other byte or field,
 * rows of unequal width, or more than cap fields.  Reads no byte past len
 * and takes no buffer. */
int64_t parse_points(const char *text, int64_t len, double *out,
                     int64_t cap, int64_t *cols)
{
    int64_t rows = 0, width = 0, count = 0, at = 0;
    if (!len || text[len - 1] != '\n')
        return 0;
    while (at < len) {
        while (is_blank(text[at]))
            at++;
        if (text[at] == '\n') {  /* a blank line */
            at++;
            continue;
        }
        int64_t fields = 0;
        char after;
        do {
            while (is_blank(text[at]))
                at++;
            if (!starts_number(text[at]) || count == cap)
                return 0;
            char *end;
            out[count] = strtod(text + at, &end);
            for (; text + at < end; at++)
                if (!starts_number(text[at]) && text[at] != 'e'
                    && text[at] != 'E')
                    return 0;
            while (is_blank(text[at]))
                at++;
            after = text[at++];
            if (after != ',' && after != '\n')
                return 0;
            count++;
            fields++;
        } while (after == ',');
        if (rows && fields != width)
            return 0;
        width = fields;
        rows++;
    }
    if (rows)
        *cols = width;
    return rows;
}
