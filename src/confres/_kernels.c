/* C ports of the local-moving phase and the k-nearest-neighbour search
 * in kernels.py.
 *
 * `sweep` follows its Python reference (_local_move, with its inner pass
 * _sweep) operation for operation, in the same order, so that every float
 * result is bit-identical.  `knn` returns the neighbours and distances of
 * its reference, knn_py, bit for bit.  That holds only when the compiler
 * keeps IEEE double semantics: build with -ffp-contract=off (no fused
 * multiply-add) and never with -ffast-math.
 *
 * The caller in kernels.py checks dtypes, contiguity and lengths.  The
 * range of every value used as an index, and the order of each indptr,
 * are checked here, in one scan before any indexed read; a failed check
 * returns one of the ERR_ codes below and leaves every argument
 * untouched.  kernels._raise maps each code to its exception.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REP_PRODUCT 0
#define REP_EXPLICIT 1

#define ERR_NOMEM (-1)
#define ERR_LABELS (-2)
#define ERR_INDPTR (-3)
#define ERR_INDICES (-4)
#define ERR_REP_INDPTR (-5)
#define ERR_REP_INDICES (-6)
#define ERR_INDPTR_ORDER (-7)
#define ERR_REP_INDPTR_ORDER (-8)
#define ERR_KNN_NOMEM (-9)

/* Attraction CSR (both edge directions) and the repulsion model. */
typedef struct {
    int64_t n;
    const int64_t *indptr, *indices;
    const double *weights;
    int64_t rep_mode;
    const double *rep_strength;
    double rep_denom;
    const int64_t *rep_indptr, *rep_indices;  /* REP_EXPLICIT only */
    const double *rep_weights;
} graph_t;

/* 0 when every a[0..len) lies in [0, hi), else err. */
static int64_t check_range(const int64_t *a, int64_t len, int64_t hi,
                           int64_t err)
{
    for (int64_t i = 0; i < len; i++)
        if (a[i] < 0 || a[i] >= hi)
            return err;
    return 0;
}

/* 0 when every ptr[0..len) lies in [0, hi) and none is below the one
 * before it; else err_range if any is out of range, else err_order. */
static int64_t check_indptr(const int64_t *ptr, int64_t len, int64_t hi,
                            int64_t err_range, int64_t err_order)
{
    int64_t err = 0;
    for (int64_t i = 0; i < len; i++) {
        if (ptr[i] < 0 || ptr[i] >= hi)
            return err_range;
        if (i > 0 && ptr[i] < ptr[i - 1])
            err = err_order;
    }
    return err;
}

/* Every CSR index the kernels read: indptr non-decreasing in [0, m],
 * indices in [0, n), for attraction and, when explicit, repulsion. */
static int64_t check_graph(const graph_t *g, int64_t m, int64_t rep_m)
{
    int64_t err = check_indptr(g->indptr, g->n + 1, m + 1, ERR_INDPTR,
                               ERR_INDPTR_ORDER);
    if (!err)
        err = check_range(g->indices, m, g->n, ERR_INDICES);
    if (!err && g->rep_mode == REP_EXPLICIT)
        err = check_indptr(g->rep_indptr, g->n + 1, rep_m + 1, ERR_REP_INDPTR,
                           ERR_REP_INDPTR_ORDER);
    if (!err && g->rep_mode == REP_EXPLICIT)
        err = check_range(g->rep_indices, rep_m, g->n, ERR_REP_INDICES);
    return err;
}

/* numpy's bit generator, reached through Generator.bit_generator.ctypes. */
typedef struct {
    void *state;
    uint32_t (*next_uint32)(void *state);
    uint64_t (*next_uint64)(void *state);
} rng_t;

/* numpy's random_interval: uniform in [0, max] by mask rejection. */
static uint64_t random_interval(const rng_t *rng, uint64_t max)
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
static void permutation(const rng_t *rng, int64_t n, int64_t *order)
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

/* Scratch space of one local-moving phase, n slots each. */
typedef struct {
    double *rs;        /* per-cluster sum of rep_strength */
    double *wsum;      /* attraction from the item to each touched cluster */
    double *rsum;      /* explicit repulsion likewise */
    int64_t *cnt;      /* per-cluster member count */
    int64_t *empty;    /* stack of reusable cluster ids */
    int64_t *touched;
    int64_t *order;
    unsigned char *seen;
} scratch_t;

/* One local-moving pass in `order`, as kernels._sweep; returns its moves.
 * The cluster sums and the free-id stack are rebuilt from `labels`. */
static int64_t one_pass(const graph_t *g, double gamma, int64_t *labels,
                        const int64_t *constraint, double eps,
                        const scratch_t *s)
{
    int64_t n = g->n;
    double *rs = s->rs, *wsum = s->wsum, *rsum = s->rsum;
    int64_t *cnt = s->cnt, *empty = s->empty, *touched = s->touched;
    unsigned char *seen = s->seen;
    memset(rs, 0, (size_t)n * sizeof(double));
    memset(cnt, 0, (size_t)n * sizeof(int64_t));
    for (int64_t i = 0; i < n; i++) {
        int64_t c = labels[i];
        rs[c] += g->rep_strength[i];
        cnt[c] += 1;
    }
    int64_t top = 0;
    for (int64_t c = 0; c < n; c++)
        if (cnt[c] == 0)
            empty[top++] = c;
    int64_t moves = 0;
    for (int64_t oi = 0; oi < n; oi++) {
        int64_t i = s->order[oi];
        int64_t ci = labels[i];
        int64_t ki = constraint[i];
        int64_t ntouch = 0;
        for (int64_t e = g->indptr[i]; e < g->indptr[i + 1]; e++) {
            int64_t j = g->indices[e];
            if (j == i || constraint[j] != ki)
                continue;
            int64_t cj = labels[j];
            if (!seen[cj]) {
                seen[cj] = 1;
                touched[ntouch++] = cj;
            }
            wsum[cj] += g->weights[e];
        }
        if (g->rep_mode == REP_EXPLICIT) {
            for (int64_t e = g->rep_indptr[i]; e < g->rep_indptr[i + 1]; e++) {
                int64_t j = g->rep_indices[e];
                if (j == i || constraint[j] != ki)
                    continue;
                int64_t cj = labels[j];
                if (!seen[cj]) {
                    seen[cj] = 1;
                    touched[ntouch++] = cj;
                }
                rsum[cj] += g->rep_weights[e];
            }
        }
        double rho_i = g->rep_strength[i];
        double g_cur;
        if (g->rep_mode == REP_PRODUCT)
            g_cur = -wsum[ci] + gamma * rho_i * (rs[ci] - rho_i) / g->rep_denom;
        else
            g_cur = -wsum[ci] + gamma * rsum[ci];
        int64_t best_c = -1;  /* -1 means a fresh singleton cluster */
        double best_g = 0.0;
        for (int64_t t = 0; t < ntouch; t++) {
            int64_t c = touched[t];
            double gc;
            if (g->rep_mode == REP_PRODUCT) {
                double scl = rs[c];
                if (c == ci)
                    scl -= rho_i;
                gc = -wsum[c] + gamma * rho_i * scl / g->rep_denom;
            } else {
                gc = -wsum[c] + gamma * rsum[c];
            }
            if (gc < best_g || (gc == best_g && (best_c == -1 || c < best_c))) {
                best_g = gc;
                best_c = c;
            }
        }
        if (best_c != ci && best_g - g_cur < -eps && (best_c != -1 || top > 0)) {
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
        }
        for (int64_t t = 0; t < ntouch; t++) {
            int64_t c = touched[t];
            seen[c] = 0;
            wsum[c] = 0.0;
            rsum[c] = 0.0;
        }
    }
    return moves;
}

/* One local-moving phase, as kernels._local_move: passes in a fresh
 * permutation drawn from the bit generator, until a pass moves nothing or
 * max_sweeps passes have run.  Mutates `labels`; returns the total moves,
 * or an ERR_ code before any label moves or any number is drawn.  The
 * caller holds the bit generator's lock. */
int64_t sweep(int64_t n, const int64_t *indptr, const int64_t *indices,
              int64_t m, const double *weights, int64_t rep_mode,
              const double *rep_strength, double rep_denom,
              const int64_t *rep_indptr, const int64_t *rep_indices,
              int64_t rep_m, const double *rep_weights, double gamma,
              int64_t *labels, const int64_t *constraint, int64_t max_sweeps,
              double eps, void *bitgen_state,
              uint32_t (*next_uint32)(void *), uint64_t (*next_uint64)(void *))
{
    graph_t g = {n, indptr, indices, weights, rep_mode, rep_strength,
                 rep_denom, rep_indptr, rep_indices, rep_weights};
    rng_t rng = {bitgen_state, next_uint32, next_uint64};
    int64_t err = check_graph(&g, m, rep_m);
    if (!err)
        err = check_range(labels, n, n, ERR_LABELS);
    if (err)
        return err;
    size_t slots = n > 0 ? (size_t)n : 1;  /* calloc(0) may return NULL */
    scratch_t s = {
        calloc(slots, sizeof(double)), calloc(slots, sizeof(double)),
        calloc(slots, sizeof(double)), calloc(slots, sizeof(int64_t)),
        malloc(slots * sizeof(int64_t)), malloc(slots * sizeof(int64_t)),
        malloc(slots * sizeof(int64_t)), calloc(slots, 1)};
    int64_t total = ERR_NOMEM;
    if (s.rs && s.wsum && s.rsum && s.cnt && s.empty && s.touched && s.order
            && s.seen) {
        total = 0;
        for (int64_t pass = 0; pass < max_sweeps; pass++) {
            permutation(&rng, n, s.order);
            int64_t moves = one_pass(&g, gamma, labels, constraint, eps, &s);
            total += moves;
            if (moves == 0)
                break;
        }
    }
    free(s.rs);
    free(s.wsum);
    free(s.rsum);
    free(s.cnt);
    free(s.empty);
    free(s.touched);
    free(s.order);
    free(s.seen);
    return total;
}

/* ---- exact k-nearest-neighbour search on a kd-tree ----
 *
 * Three rules make the tree's answer the brute-force one, bit for bit:
 * a distance is summed from 0.0 in coordinate order, then put on its
 * final scale (sqrt, or 0.5 * for cosine), as knn_py does; a box's lower
 * bound is summed the same way from per-coordinate gaps that are never
 * larger than the point's differences, so, rounding being monotone, it
 * never exceeds the distance of a point inside the box; and a box is
 * skipped only when its (bound, smallest index) comes after the heap's
 * worst (distance, index), so no point in it could displace that worst.
 * Nodes split at the median of (coordinate, index) on their widest
 * dimension: a box of identical points splits in index order, so the
 * smallest indices of a large group of equal distances are found without
 * visiting the rest of the group. */

#define LEAF_SIZE 16

typedef struct {
    int64_t start, end;  /* its points: tree positions [start, end) */
    int64_t right;       /* second child (the first is the next node), or
                            -1 at a leaf */
    int64_t min_index;   /* smallest item index among its points */
} kdnode_t;

typedef struct {
    int64_t d, k, half_square;
    double *pts;       /* points in tree order, d per row */
    int64_t *perm;     /* item index at each tree position */
    kdnode_t *nodes;
    double *boxes;     /* per node, d lower then d upper bounds */
    int64_t count;     /* nodes built so far */
} kdtree_t;

typedef struct {
    double dist;
    int64_t index;
} neighbour_t;

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

/* Reorder perm[lo..hi) so that position nth holds the item it would hold
 * sorted by (points[item][dim], item), smaller keys before it and larger
 * after (quickselect, Lomuto partition, median-of-three pivot). */
static void select_nth(const double *points, int64_t d, int64_t dim,
                       int64_t *perm, int64_t lo, int64_t hi, int64_t nth)
{
#define KEY_AFTER(a, b) after(points[(a) * d + dim], (a), \
                              points[(b) * d + dim], (b))
#define SWAP(x, y) do { int64_t tmp_ = perm[x]; perm[x] = perm[y]; \
                        perm[y] = tmp_; } while (0)
    while (hi - lo > 1) {
        int64_t mid = lo + (hi - lo) / 2, last = hi - 1;
        if (KEY_AFTER(perm[lo], perm[mid]))
            SWAP(lo, mid);
        if (KEY_AFTER(perm[mid], perm[last]))
            SWAP(mid, last);
        if (KEY_AFTER(perm[lo], perm[mid]))
            SWAP(lo, mid);
        SWAP(mid, last);  /* the median of the three is the pivot */
        int64_t pivot = perm[last], store = lo;
        for (int64_t x = lo; x < last; x++)
            if (KEY_AFTER(pivot, perm[x])) {
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
#undef KEY_AFTER
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
        if (j < node->min_index)
            node->min_index = j;
        for (int64_t c = 0; c < d; c++) {
            double v = points[j * d + c];
            if (v < lo[c])
                lo[c] = v;
            if (v > hi[c])
                hi[c] = v;
        }
    }
    if (end - start <= LEAF_SIZE)
        return id;
    int64_t dim = 0;
    for (int64_t c = 1; c < d; c++)
        if (hi[c] - lo[c] > hi[dim] - lo[dim])
            dim = c;
    int64_t mid = start + (end - start) / 2;
    select_nth(points, d, dim, t->perm, start, end, mid);
    build(t, points, start, mid);
    t->nodes[id].right = build(t, points, mid, end);
    return id;
}

static double final_scale(const kdtree_t *t, double sq)
{
    return t->half_square ? 0.5 * sq : sqrt(sq);
}

/* Lower bound on the distance from q to any point in the node's box. */
static double box_bound(const kdtree_t *t, int64_t id, const double *q)
{
    const double *lo = t->boxes + 2 * t->d * id, *hi = lo + t->d;
    double sq = 0.0;
    for (int64_t c = 0; c < t->d; c++) {
        double gap = 0.0;
        if (q[c] < lo[c])
            gap = lo[c] - q[c];
        else if (q[c] > hi[c])
            gap = q[c] - hi[c];
        sq += gap * gap;
    }
    return final_scale(t, sq);
}

/* Max-heap of the k best (distance, index) pairs found so far. */
typedef struct {
    neighbour_t *item;
    int64_t size, k;
} heap_t;

static void sift_down(heap_t *h, int64_t at)
{
    neighbour_t moving = h->item[at];
    for (;;) {
        int64_t child = 2 * at + 1;
        if (child >= h->size)
            break;
        if (child + 1 < h->size
                && after(h->item[child + 1].dist, h->item[child + 1].index,
                         h->item[child].dist, h->item[child].index))
            child++;
        if (!after(h->item[child].dist, h->item[child].index,
                   moving.dist, moving.index))
            break;
        h->item[at] = h->item[child];
        at = child;
    }
    h->item[at] = moving;
}

/* Keep (dist, index) if it is among the k best so far. */
static void offer(heap_t *h, double dist, int64_t index)
{
    if (h->size < h->k) {
        int64_t at = h->size++;
        while (at > 0) {
            int64_t up = (at - 1) / 2;
            if (!after(dist, index, h->item[up].dist, h->item[up].index))
                break;
            h->item[at] = h->item[up];
            at = up;
        }
        h->item[at].dist = dist;
        h->item[at].index = index;
    } else if (after(h->item[0].dist, h->item[0].index, dist, index)) {
        h->item[0].dist = dist;
        h->item[0].index = index;
        sift_down(h, 0);
    }
}

/* No point of the node can enter the full heap: its (bound, smallest
 * index) comes after the worst. */
static int prunable(const kdtree_t *t, const heap_t *h, int64_t id,
                    double bound)
{
    return h->size == h->k && after(bound, t->nodes[id].min_index,
                                    h->item[0].dist, h->item[0].index);
}

static void search(const kdtree_t *t, int64_t id, const double *q,
                   int64_t self, heap_t *h)
{
    const kdnode_t *node = &t->nodes[id];
    if (node->right < 0) {
        for (int64_t p = node->start; p < node->end; p++) {
            int64_t j = t->perm[p];
            if (j == self)
                continue;
            const double *x = t->pts + p * t->d;
            double sq = 0.0;
            for (int64_t c = 0; c < t->d; c++) {
                double diff = q[c] - x[c];
                sq += diff * diff;
            }
            offer(h, final_scale(t, sq), j);
        }
        return;
    }
    /* the nearer child first, by (bound, smallest index) */
    int64_t a = id + 1, b = node->right;
    double bound_a = box_bound(t, a, q), bound_b = box_bound(t, b, q);
    if (after(bound_a, t->nodes[a].min_index, bound_b, t->nodes[b].min_index)) {
        int64_t child = a;
        double bound = bound_a;
        a = b;
        bound_a = bound_b;
        b = child;
        bound_b = bound;
    }
    if (!prunable(t, h, a, bound_a))
        search(t, a, q, self, h);
    if (!prunable(t, h, b, bound_b))
        search(t, b, q, self, h);
}

/* Each item's k nearest other items by (distance, index), as knn_py:
 * row i of nn / nn_dist (n x k) lists them in that order.  The distance
 * is the square root of the squared differences summed from 0.0 in
 * coordinate order, or half that sum with half_square.  The caller
 * passes n x d finite points and 1 <= k <= n - 1.  Scratch: the points in
 * tree order, n indices and at most n / 4 + 1 nodes of 2 d bounds each,
 * so O(n d).  Returns 0, or ERR_KNN_NOMEM with nn and nn_dist unwritten. */
int64_t knn(int64_t n, int64_t d, const double *points, int64_t k,
            int64_t half_square, int64_t *nn, double *nn_dist)
{
    int64_t nodes = node_count(n);
    kdtree_t t = {d, k, half_square,
                  malloc((size_t)(n * d) * sizeof(double)),
                  malloc((size_t)n * sizeof(int64_t)),
                  malloc((size_t)nodes * sizeof(kdnode_t)),
                  malloc((size_t)(2 * d * nodes) * sizeof(double)), 0};
    heap_t h = {malloc((size_t)k * sizeof(neighbour_t)), 0, k};
    int64_t status = ERR_KNN_NOMEM;
    if (t.pts && t.perm && t.nodes && t.boxes && h.item) {
        status = 0;
        for (int64_t i = 0; i < n; i++)
            t.perm[i] = i;
        build(&t, points, 0, n);
        for (int64_t p = 0; p < n; p++)
            memcpy(t.pts + p * d, points + t.perm[p] * d,
                   (size_t)d * sizeof(double));
        for (int64_t p = 0; p < n; p++) {
            int64_t i = t.perm[p];
            h.size = 0;
            search(&t, 0, t.pts + p * d, i, &h);
            /* pop the worst into the last free slot: ascending order */
            for (int64_t r = k - 1; r >= 0; r--) {
                nn[i * k + r] = h.item[0].index;
                nn_dist[i * k + r] = h.item[0].dist;
                h.item[0] = h.item[--h.size];
                sift_down(&h, 0);
            }
        }
    }
    free(t.pts);
    free(t.perm);
    free(t.nodes);
    free(t.boxes);
    free(h.item);
    return status;
}
