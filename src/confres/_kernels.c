/* C port of the local-moving phase in kernels.py.
 *
 * `sweep` follows its Python reference (_local_move, with its inner pass
 * _sweep) operation for operation, in the same order, so that every float
 * result is bit-identical.  That holds only when the compiler keeps IEEE
 * double semantics: build with -ffp-contract=off (no fused multiply-add)
 * and never with -ffast-math.
 *
 * The caller in kernels.py checks dtypes, contiguity and lengths.  The
 * range of every value used as an index, and the order of each indptr,
 * are checked here, in one scan before any indexed read; a failed check
 * returns one of the ERR_ codes below and leaves every argument
 * untouched.  kernels._raise maps each code to its exception.
 */

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
