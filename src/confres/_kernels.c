/* C port of the local-move kernels in kernels.py.
 *
 * Each function follows its Python reference (_energy_components, _sweep)
 * operation for operation, in the same order, so that every float result
 * is bit-identical.  That holds only when the compiler keeps
 * IEEE double semantics: build with -ffp-contract=off (no fused
 * multiply-add) and never with -ffast-math.
 *
 * The callers in kernels.py check dtypes, lengths and index ranges before
 * any pointer reaches this file; nothing here re-checks them.
 */

#include <stdint.h>
#include <stdlib.h>

#define REP_PRODUCT 0
#define REP_EXPLICIT 1

/* (h_a, h_r) of a labelling.  `sums` is zeroed scratch of one slot per
 * label value (max label + 1); it is used only for product-form repulsion. */
void energy_components(int64_t n, const int64_t *indptr, const int64_t *indices,
                       const double *weights, const int64_t *labels,
                       int64_t rep_mode, const double *rep_strength,
                       double rep_denom, const int64_t *rep_indptr,
                       const int64_t *rep_indices, const double *rep_weights,
                       double *sums, double *out)
{
    double h_a = 0.0;
    for (int64_t i = 0; i < n; i++) {
        int64_t ci = labels[i];
        for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {
            int64_t j = indices[e];
            if (j > i && labels[j] == ci)
                h_a -= weights[e];
        }
    }
    double h_r = 0.0;
    if (rep_mode == REP_PRODUCT) {
        int64_t k = 0;
        for (int64_t i = 0; i < n; i++)
            if (labels[i] > k)
                k = labels[i];
        double sq = 0.0;
        for (int64_t i = 0; i < n; i++) {
            double rho = rep_strength[i];
            sums[labels[i]] += rho;
            sq += rho * rho;
        }
        double tot = 0.0;
        for (int64_t c = 0; c < k + 1; c++)
            tot += sums[c] * sums[c];
        h_r = (tot - sq) / (2.0 * rep_denom);
    } else {
        for (int64_t i = 0; i < n; i++) {
            int64_t ci = labels[i];
            for (int64_t e = rep_indptr[i]; e < rep_indptr[i + 1]; e++) {
                int64_t j = rep_indices[e];
                if (j > i && labels[j] == ci)
                    h_r += rep_weights[e];
            }
        }
    }
    out[0] = h_a;
    out[1] = h_r;
}

/* One local-moving pass; mutates `labels`.  Returns the number of accepted
 * moves, or -1 when the scratch space cannot be allocated. */
int64_t sweep(int64_t n, const int64_t *indptr, const int64_t *indices,
              const double *weights, int64_t rep_mode,
              const double *rep_strength, double rep_denom,
              const int64_t *rep_indptr, const int64_t *rep_indices,
              const double *rep_weights, double gamma, int64_t *labels,
              const int64_t *constraint, const int64_t *order, double eps)
{
    size_t m = n > 0 ? (size_t)n : 1;  /* calloc(0) may return NULL */
    double *rs = calloc(m, sizeof(double));      /* per-cluster rep_strength */
    double *wsum = calloc(m, sizeof(double));    /* attraction to cluster */
    double *rsum = calloc(m, sizeof(double));    /* explicit repulsion */
    int64_t *cnt = calloc(m, sizeof(int64_t));   /* per-cluster members */
    int64_t *empty = malloc(m * sizeof(int64_t)); /* reusable cluster ids */
    int64_t *touched = malloc(m * sizeof(int64_t));
    unsigned char *seen = calloc(m, 1);
    int64_t moves = -1;
    if (!rs || !wsum || !rsum || !cnt || !empty || !touched || !seen)
        goto done;

    for (int64_t i = 0; i < n; i++) {
        int64_t c = labels[i];
        rs[c] += rep_strength[i];
        cnt[c] += 1;
    }
    int64_t top = 0;
    for (int64_t c = 0; c < n; c++)
        if (cnt[c] == 0)
            empty[top++] = c;
    moves = 0;
    for (int64_t oi = 0; oi < n; oi++) {
        int64_t i = order[oi];
        int64_t ci = labels[i];
        int64_t ki = constraint[i];
        int64_t ntouch = 0;
        for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {
            int64_t j = indices[e];
            if (j == i || constraint[j] != ki)
                continue;
            int64_t cj = labels[j];
            if (!seen[cj]) {
                seen[cj] = 1;
                touched[ntouch++] = cj;
            }
            wsum[cj] += weights[e];
        }
        if (rep_mode == REP_EXPLICIT) {
            for (int64_t e = rep_indptr[i]; e < rep_indptr[i + 1]; e++) {
                int64_t j = rep_indices[e];
                if (j == i || constraint[j] != ki)
                    continue;
                int64_t cj = labels[j];
                if (!seen[cj]) {
                    seen[cj] = 1;
                    touched[ntouch++] = cj;
                }
                rsum[cj] += rep_weights[e];
            }
        }
        double rho_i = rep_strength[i];
        double g_cur;
        if (rep_mode == REP_PRODUCT)
            g_cur = -wsum[ci] + gamma * rho_i * (rs[ci] - rho_i) / rep_denom;
        else
            g_cur = -wsum[ci] + gamma * rsum[ci];
        int64_t best_c = -1;  /* -1 means a fresh singleton cluster */
        double best_g = 0.0;
        for (int64_t t = 0; t < ntouch; t++) {
            int64_t c = touched[t];
            double g;
            if (rep_mode == REP_PRODUCT) {
                double scl = rs[c];
                if (c == ci)
                    scl -= rho_i;
                g = -wsum[c] + gamma * rho_i * scl / rep_denom;
            } else {
                g = -wsum[c] + gamma * rsum[c];
            }
            if (g < best_g || (g == best_g && (best_c == -1 || c < best_c))) {
                best_g = g;
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
done:
    free(rs);
    free(wsum);
    free(rsum);
    free(cnt);
    free(empty);
    free(touched);
    free(seen);
    return moves;
}
