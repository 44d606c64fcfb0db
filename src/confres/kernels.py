"""Inner loops for energy evaluation, local moving, the optimizer's level
loop, the kNN search, graph construction and the points reader.

Each loop but `energy_components` and `sweep`, which are numpy and Python
on every backend, is compiled from `_kernels.c` and loaded with ctypes,
beside a Python or numpy reference that is its fallback and its test
oracle; the two return the same bits.  On first import the C file is
compiled with `cc` (else `gcc`) into a per-user cache, keyed by source,
flags and machine type.  A failed build leaves a marker file beside the
cache entry, so later imports do not run the compiler again.  Without a
compiler, when the build fails, or with CONFRES_DISABLE_COMPILED=1,
`check_graph`, `components`, `knn_graph`, `pairs`, `affinity_layout` and
`affinity_weights` are the references, `level_loop` and `parse_points`
are None, so the optimizer runs its Python loop and points files are read
row by row in Python (identical results, much slower).  `BACKEND` names
the loops in use, "c" or "python".  tests/test_kernels.py,
tests/test_optimizer.py and tests/test_graph.py check that the two agree
bit for bit; to time the Python references, run perfbench/run.py with
CONFRES_DISABLE_COMPILED=1.
"""

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import warnings
from collections import deque

import numpy as np

from .errors import InputError, NumericalError

# Repulsion modes understood by the kernels.
REP_PRODUCT = 0   # w-_ij = rho_i * rho_j / rep_denom (configuration-null, uniform)
REP_EXPLICIT = 1  # w-_ij given as a sparse CSR map

EPSILON = 1e-12  # a move must lower H by more than this to be taken

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)


def _check_array(name, arr, dtype, length=None):
    """Raise ValueError unless `arr` is a C-contiguous 1-D `dtype` array,
    of `length` items when given."""
    if (not isinstance(arr, np.ndarray) or arr.dtype != dtype
            or arr.ndim != 1 or not arr.flags.c_contiguous):
        raise ValueError(f"{name} must be a C-contiguous 1-D {dtype} array")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {length}")


def _check_graph(g):
    """The CSRs of graph `g` as (array name prefix, indptr, indices,
    weights), repulsion's after attraction's when explicit; ValueError
    unless they and rep_strength have the dtypes, layout and lengths the
    kernels read."""
    _check_array("rep_strength", g.rep_strength, _F64, g.n)
    csrs = [("", g.indptr, g.indices, g.weights)]
    if g.rep_mode == REP_EXPLICIT:
        csrs.append(("rep_", g.rep_indptr, g.rep_indices, g.rep_weights))
    for prefix, ptr, idx, w in csrs:
        _check_array(f"{prefix}indptr", ptr, _I64, g.n + 1)
        _check_array(f"{prefix}indices", idx, _I64)
        _check_array(f"{prefix}weights", w, _F64, idx.shape[0])
    return csrs


def _check_csr(prefix, n, indptr, indices, weights):
    """Raise the InputError of the first fault of a CSR of m entries over n
    items: indptr must run from 0 to m and never fall; each row's columns
    must rise strictly, lie in [0, n) and skip the row's own item; each
    weight must be finite, >= 0 and that of the entry's twin (j, i)."""
    m = indices.shape[0]
    falls = np.flatnonzero(indptr[1:] < indptr[:-1])
    if indptr[0] != 0 or indptr[-1] != m or falls.shape[0]:
        raise InputError(f"{prefix}indptr must run from 0 to {m} and never "
                         f"fall, not from {indptr[0]} to {indptr[-1]} "
                         f"falling at rows {falls}")
    rows = np.repeat(np.arange(n), np.diff(indptr))
    key, transposed = rows * n + indices, indices * n + rows
    bad = ((indices < 0) | (indices >= n) | (indices == rows)
           | (np.diff(key, prepend=-1) <= 0))
    rule = f"a row's columns must rise strictly in [0, {n}), skipping its item"
    if not bad.any():
        bad = ~((weights >= 0.0) & (weights < np.inf))
        rule = "weights must be finite and >= 0"
    if not bad.any():
        # the keys rise: an entry's twin is where its transposed key sorts
        twin = np.minimum(np.searchsorted(key, transposed), m - 1)
        bad = (key[twin] != transposed) | (weights[twin] != weights)
        rule = "an entry (i, j) needs a twin (j, i) of the same weight"
    if bad.any():
        e = int(np.argmax(bad))
        raise InputError(f"{prefix}indices[{e}] = {indices[e]} in row "
                         f"{rows[e]}, of weight {weights[e]}: {rule}")


def check_graph_py(g):
    """The graph contract of `graph.AffinityGraph` on graph `g` in numpy,
    the C check's reference and the only code that words its faults: the
    ValueError of `_check_graph`, else the InputError of the first fault of
    rep_denom (finite, > 0), rep_strength (finite, >= 0) or a CSR
    (`_check_csr`)."""
    csrs = _check_graph(g)
    rho = g.rep_strength
    if not (0.0 < g.rep_denom < np.inf  # NaN fails too
            and np.all((rho >= 0.0) & (rho < np.inf))):
        raise InputError(f"rep_denom {g.rep_denom} must be finite and > 0, "
                         f"and each rep_strength finite and >= 0")
    for prefix, *csr in csrs:
        _check_csr(prefix, g.n, *csr)


def _check_range(name, values, hi):
    if values.shape[0] and (values.min() < 0 or values.max() >= hi):
        raise IndexError(f"{name} out of range [0, {hi})")


def _loop_sum(values):
    """0.0 + values[0] + values[1] + ..., added left to right as a loop
    adds (np.sum adds pairwise, which rounds differently).  cumsum starts
    from values[0], which differs from a start at 0.0 only in the sign of
    a zero; the final 0.0 + makes that +0.0, as the loop does."""
    sums = np.cumsum(values)
    return 0.0 + sums[-1] if sums.shape[0] else 0.0


def _internal(indptr, indices, weights, labels):
    """Weights of the CSR entries (i, j) with j > i and equal labels, in
    CSR order."""
    rows = np.repeat(np.arange(labels.shape[0]), np.diff(indptr))
    same = (indices > rows) & (labels[rows] == labels[indices])
    return weights[same]


def energy_components(g, labels):
    """Return (h_a, h_r) for a labelling of graph `g`.

    h_a = -sum of within-cluster attraction, h_r = sum of within-cluster
    repulsion.  Attraction CSR stores both edge directions; pairs are
    counted once via j > i.  Vectorised numpy on every backend, yet every
    sum is the float a loop from 0.0 gives, adding in CSR (or item, or
    label) order.  Product-form repulsion sums rep_strength per label
    value, so it needs labels >= 0.
    """
    _check_array("labels", labels, _I64, g.n)
    product = g.rep_mode == REP_PRODUCT
    if product and g.n and labels.min() < 0:
        raise IndexError("labels must be >= 0")
    h_a = _loop_sum(-_internal(g.indptr, g.indices, g.weights, labels))
    if product:
        # bincount adds each label's strengths in item order
        rho = g.rep_strength
        sums = np.bincount(labels, weights=rho, minlength=1)
        h_r = ((_loop_sum(sums * sums) - _loop_sum(rho * rho))
               / (2.0 * g.rep_denom))
    else:
        h_r = _loop_sum(_internal(g.rep_indptr, g.rep_indices, g.rep_weights,
                                  labels))
    return float(h_a), float(h_r)


def _round(indptr, indices, weights,
           rep_mode, rep_strength, rep_denom,
           rep_indptr, rep_indices, rep_weights,
           gamma, labels, constraint, order, eps, left):
    """One round of Leiden's fast local move (Traag, Waltman & van Eck
    2019, "From Louvain to Leiden") over lists; mutates the list
    `labels`.  Returns (moves, evaluations left).

    Queues every item in `order` and serves the queue first in, first
    out, until it is empty or the `left` evaluations are spent.  Each item
    is moved to the cluster (among clusters of its attraction/repulsion
    neighbours with matching `constraint`, plus a fresh singleton cluster)
    that minimises the energy delta.  Moves are accepted only when delta <
    -eps.  Ties go to the lowest existing cluster id, then to the new
    cluster.  A mover queues, at the back, each item of its rows (in row
    order, attraction first) with matching `constraint` that is neither
    queued nor in its new cluster.  A move also changes the cluster sums
    that product-form repulsion reads from items it does not queue, so
    only a round that moves nothing proves a partition single-move stable.
    """
    n = len(labels)
    rs = [0.0] * n    # per-cluster sum of rep_strength
    cnt = [0] * n     # per-cluster member count
    for c, rho in zip(labels, rep_strength):
        rs[c] += rho
        cnt[c] += 1
    free = [c for c in range(n) if cnt[c] == 0]  # ascending, used as a stack
    product = rep_mode == REP_PRODUCT
    csrs = [(0, indptr, indices, weights)]  # (slot in a `near` value, CSR)
    if not product:
        csrs.append((1, rep_indptr, rep_indices, rep_weights))
    queue = deque(order)
    queued = [True] * n
    moves = 0
    while queue and left > 0:
        left -= 1
        i = queue.popleft()
        queued[i] = False
        ci = labels[i]
        ki = constraint[i]
        # cluster -> [attraction, explicit repulsion] from i, in the order
        # the clusters are first touched
        near = {}
        for slot, ptr, idx, wts in csrs:
            lo, hi = ptr[i], ptr[i + 1]
            for j, w in zip(idx[lo:hi], wts[lo:hi]):
                if constraint[j] == ki:
                    near.setdefault(labels[j], [0.0, 0.0])[slot] += w
        rho_i = rep_strength[i]

        def g(c, attraction, repulsion):
            """Energy contributed by i's membership in c, i excluded."""
            if product:
                scl = rs[c] - rho_i if c == ci else rs[c]
                return -attraction + gamma * rho_i * scl / rep_denom
            return -attraction + gamma * repulsion

        g_cur = g(ci, *near.get(ci, (0.0, 0.0)))
        best_c = -1      # -1 means a fresh singleton cluster
        best_g = 0.0     # g of the fresh cluster
        for c, sums in near.items():
            gc = g(c, *sums)
            if gc < best_g or (gc == best_g and (best_c == -1 or c < best_c)):
                best_g = gc
                best_c = c
        # with no free cluster id every cluster is a singleton, so a move to
        # a fresh cluster would only relabel i
        if (best_c == ci or not (best_g - g_cur < -eps)
                or (best_c == -1 and not free)):
            continue
        if best_c == -1:
            best_c = free.pop()
        labels[i] = best_c
        rs[ci] -= rho_i
        cnt[ci] -= 1
        if cnt[ci] == 0:
            free.append(ci)
        rs[best_c] += rho_i
        cnt[best_c] += 1
        moves += 1
        # i itself is in best_c now
        for _, ptr, idx, _ in csrs:
            for j in idx[ptr[i]:ptr[i + 1]]:
                if (not queued[j] and labels[j] != best_c
                        and constraint[j] == ki):
                    queued[j] = True
                    queue.append(j)
    return moves, left


def sweep_py(indptr, indices, weights,
             rep_mode, rep_strength, rep_denom,
             rep_indptr, rep_indices, rep_weights,
             gamma, labels, constraint, rng, max_sweeps, settle=True):
    """One local-moving phase; mutates `labels` in place.

    Runs `_round`s, each in a fresh `rng.permutation` of the items: one
    round, or with `settle` rounds until one accepts no move, which leaves
    no item a single move can improve.  Either way the phase evaluates at
    most `max_sweeps` * n items, as many as `max_sweeps` full passes (see
    optimizer.MAX_SWEEPS_PER_LEVEL).  Returns the total number of accepted
    moves.  The graph is an `AffinityGraph`'s, checked when it was made,
    its arrays passed in the order of `AffinityGraph._kernel_args`.
    Raises ValueError or IndexError before any label moves or any number
    is drawn: `labels` must be a writable C-contiguous int64 vector of one
    label in [0, n) per item, and `constraint` an int64 one of its length.
    """
    _check_array("labels", labels, _I64, indptr.shape[0] - 1)
    if not labels.flags.writeable:
        raise ValueError("labels must be writable: sweep moves items in place")
    n = labels.shape[0]
    _check_array("constraint", constraint, _I64, n)
    _check_range("labels", labels, n)
    rep = (rep_indptr, rep_indices, rep_weights)
    if rep_mode == REP_EXPLICIT:  # never read for product-form repulsion
        rep = [a.tolist() for a in rep]
    moved = labels.tolist()
    args = (indptr.tolist(), indices.tolist(), weights.tolist(), rep_mode,
            rep_strength.tolist(), float(rep_denom), *rep, float(gamma),
            moved, constraint.tolist())
    total = 0
    left = max(max_sweeps, 0) * n
    while left > 0:
        moves, left = _round(*args, rng.permutation(n).tolist(), EPSILON, left)
        total += moves
        if moves == 0 or not settle:
            break
    labels[:] = moved
    return total


# One phase, on every backend: the C phases run only inside `level_loop`.
sweep = sweep_py


def components_py(g):
    """(labels, h_a, h_r): the connected components of graph `g` over its
    CSR entries of positive weight, canonical, and their
    `energy_components`.

    They are the optimum of H at gamma = 0 and its limit as gamma -> 0+
    (see `components` in _kernels.c), found by union-find: the root of a
    set is its smallest item, so numbering the roots in item order gives
    the canonical labels.
    """
    n = g.n
    rows = np.repeat(np.arange(n), np.diff(g.indptr))
    positive = g.weights > 0.0
    root = list(range(n))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, j in zip(rows[positive].tolist(), g.indices[positive].tolist()):
        a, b = find(i), find(j)
        root[max(a, b)] = min(a, b)
    roots = np.array([find(i) for i in range(n)], dtype=np.int64)
    labels = (np.cumsum(roots == np.arange(n)) - 1)[roots]
    return (labels, *energy_components(g, labels))


KNN_METRICS = ("euclidean", "cosine")

# knn_py holds at most this many distances (rows x n) at a time.
_CHUNK = 1 << 18


def _check_knn(points, k, metric):
    """The points as a C-contiguous float64 n x d matrix; raises
    ValueError on another shape, metric or k outside [1, n - 1]."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] < 1:
        raise ValueError("points must be an n x d matrix with d >= 1")
    if not 1 <= k <= points.shape[0] - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k}, "
                         f"n={points.shape[0]}")
    if metric not in KNN_METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    return points


def knn_py(points, k, metric="euclidean"):
    """Each item's k nearest other items by (distance, index): (n, k)
    indices and distances, each row in that order.

    The distance sums the squared differences from 0.0 in coordinate
    order, so that of i to j is bit for bit that of j to i; it is the
    square root of the sum, or, for "cosine", whose points must be unit
    vectors, half of it: |u - v|^2 / 2 = 1 - cos, without the
    cancellation of 1 - cos for near-parallel vectors.  Brute force over
    row chunks of at most _CHUNK distances.
    """
    points = _check_knn(points, k, metric)
    n = points.shape[0]
    nn = np.empty((n, k), dtype=np.int64)
    nn_dist = np.empty((n, k))
    step = max(1, _CHUNK // n)
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        sq = np.zeros((rows.shape[0], n))
        for c in range(points.shape[1]):
            sq += (points[rows, c, None] - points[:, c]) ** 2
        dist = 0.5 * sq if metric == "cosine" else np.sqrt(sq)
        # NaN never compares below or equal, so an item is not its own
        # neighbour even where overflowing distances are all inf
        dist[np.arange(rows.shape[0]), rows] = np.nan
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
        below = dist < kth
        # the ties at the k-th distance go to the smallest indices
        tie = dist == kth
        take = below | (tie & (np.cumsum(tie, axis=1)
                               <= k - below.sum(axis=1, keepdims=True)))
        cols = np.nonzero(take)[1].reshape(-1, k)  # ascending in each row
        near = np.take_along_axis(dist, cols, axis=1)
        order = np.argsort(near, axis=1, kind="stable")
        nn[rows] = np.take_along_axis(cols, order, axis=1)
        nn_dist[rows] = np.take_along_axis(near, order, axis=1)
    return nn, nn_dist


def _check_ends(rows, cols, vals):
    """Raise ValueError unless rows, cols and vals are C-contiguous 1-D
    int64, int64 and float64 arrays of one length."""
    _check_array("rows", rows, _I64)
    _check_array("cols", cols, _I64, rows.shape[0])
    _check_array("vals", vals, _F64, rows.shape[0])


def pairs_py(n, rows, cols, vals, mean=False):
    """The sorted unique unordered pairs (row <= col) of the entries
    (rows[t], cols[t], vals[t]) over n items, as (rows, cols, vals) by
    `_group_pairs_py`, then their CSR by `pairs_csr_py` with each entry's
    pair weight, as (indptr, indices, weights).  Raises where the C kernel
    does: ValueError, then IndexError.
    """
    _check_ends(rows, cols, vals)
    _check_range("rows", rows, n)
    _check_range("cols", cols, n)
    rows, cols, sums = _group_pairs_py(n, rows, cols, vals, mean)
    indptr, indices, pair = pairs_csr_py(n, rows, cols)
    return rows, cols, sums, indptr, indices, sums[pair]


def _group_pairs_py(n, rows, cols, vals, mean):
    """(rows, cols, vals): the sorted unique unordered pairs (row <= col)
    of the checked entries (rows[t], cols[t], vals[t]) over n items, each
    pair's weight its entries' weights summed from 0.0 in input order
    (np.bincount adds in that order), divided by their count with `mean`.
    """
    key = np.minimum(rows, cols) * n + np.maximum(rows, cols)
    order = np.argsort(key)
    key = key[order]
    new = np.empty(key.shape[0], dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    unique = key[new]
    inv = np.empty(key.shape[0], dtype=np.int64)  # input entry -> its pair
    inv[order] = np.cumsum(new) - 1
    # float64 also when empty, where np.bincount returns int64
    sums = np.bincount(inv, weights=vals, minlength=len(unique)).astype(
        np.float64, copy=False)
    if mean:
        sums = sums / np.bincount(inv, minlength=len(unique))
    return unique // n, unique % n, sums


def pairs_csr_py(n, rows, cols):
    """(indptr, indices, pair): the both-direction CSR over n items of
    sorted unique pairs (row <= col), each row's columns ascending, and
    each entry's pair index: `vals[pair]` lays out any per-pair `vals`.

    The entries (i, j) are unique, so one sort of the keys i * n + j puts
    them in that order with any sort algorithm.  The callers check the
    pairs.
    """
    ii = np.concatenate([cols, rows])
    jj = np.concatenate([rows, cols])
    order = np.argsort(ii * n + jj)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ii, minlength=n), out=indptr[1:])
    return indptr, jj[order], order % rows.shape[0]


def _finite_distances(dist):
    """Raise NumericalError unless every grouped kNN distance is finite.
    A finite distance is at most sqrt(DBL_MAX) (DBL_MAX / 2 for cosine),
    so the mean of two is finite: a pair's distance is infinite exactly
    when the distance of one of its entries overflowed."""
    if not np.isfinite(dist).all():
        raise NumericalError("a kNN distance overflows float64: the "
                             "coordinates are too large")


def knn_graph_py(points, k, metric="euclidean"):
    """The kNN graph of graph.build_knn_graph: (edges, distances), the
    sorted unique pairs (i, j), i < j, of every item and each of its k
    nearest others by `knn_py`, and each pair's distance, the mean of its
    entries' by the grouping of `pairs_py` (`_group_pairs_py`), which
    lays out no CSR.  Raises NumericalError when a distance overflows
    float64."""
    # finite coordinates near the float64 limit can give an infinite
    # distance, which stays infinite through the grouping (it only adds
    # and halves distances >= 0, so no NaN arises): one check after it
    with np.errstate(over="ignore"):
        nn, nn_dist = knn_py(points, k, metric)
    n = nn.shape[0]
    # both directions of a pair carry the same distance, so their mean is it
    rows, cols, dist = _group_pairs_py(n, np.repeat(np.arange(n), k),
                                       nn.ravel(), nn_dist.ravel(), True)
    _finite_distances(dist)
    return np.stack([rows, cols], axis=1), dist


def _check_edges(edges, dist):
    """Raise ValueError unless edges is a C-contiguous (m, 2) int64 array
    and dist a C-contiguous 1-D float64 array of m distances."""
    if (not isinstance(edges, np.ndarray) or edges.dtype != _I64
            or edges.ndim != 2 or edges.shape[1] != 2
            or not edges.flags.c_contiguous):
        raise ValueError("edges must be a C-contiguous (m, 2) int64 array")
    _check_array("dist", dist, _F64, edges.shape[0])


def affinity_layout_py(n, edges, dist, rank, inverse=False):
    """(layout, vals) for the m edges of a neighbour graph over n items:
    `layout` is `pairs_csr_py`'s (indptr, indices, pair) of the edges, and
    per edge `vals` holds the exponent -d^2 / (sigma_i sigma_j) of the
    self-tuning Gaussian, or, with `inverse`, the similarity 1 / d.

    sigma_i is the rank-th smallest (from 1) of item i's edge distances,
    pushed past its zero distances and capped at its degree; where that is
    0, sigma_i is 1e-12 of the largest sigma.  Raises InputError for the
    first edge that is not a pair 0 <= i < j < n after the one before it,
    or whose distance is not finite and >= 0, or for an item without an
    edge; NumericalError when every sigma is 0, or, with `inverse`, a
    distance is 0.
    """
    _check_edges(edges, dist)
    rows, cols = edges[:, 0], edges[:, 1]
    bad_edge = (rows < 0) | (rows >= cols) | (cols >= n)
    bad_edge[1:] |= (rows[1:] < rows[:-1]) | ((rows[1:] == rows[:-1])
                                             & (cols[1:] <= cols[:-1]))
    bad = bad_edge | ~(np.isfinite(dist) & (dist >= 0.0))
    if np.any(bad):
        at = int(np.argmax(bad))
        edge = f"({edges[at, 0]}, {edges[at, 1]})"
        if bad_edge[at]:
            raise InputError(f"edge {edge} must be a pair 0 <= i < j < n={n} "
                             f"after the edge before it: edges are unique "
                             f"pairs in increasing order")
        raise InputError(f"distance {dist[at]} on edge {edge} must be finite "
                         f"and non-negative")
    rows, cols = np.ascontiguousarray(rows), np.ascontiguousarray(cols)
    degree = np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n)
    if np.any(degree == 0):
        raise InputError(f"item {np.argmin(degree)} has no neighbour edge")
    layout = indptr, _, pair = pairs_csr_py(n, rows, cols)
    if inverse:
        if np.any(dist <= 0.0):
            raise NumericalError("inverse_distance kernel needs strictly "
                                 "positive distances")
        return layout, 1.0 / dist
    ends = np.concatenate([rows, cols])
    zeros = np.bincount(ends[np.concatenate([dist, dist]) == 0.0],
                        minlength=n)
    pick = np.minimum(np.maximum(rank - 1, zeros), degree - 1)
    # each row's distances sorted: one of them is the pick's
    row_of = np.repeat(np.arange(n), degree)
    by_row = dist[pair][np.lexsort((dist[pair], row_of))]
    sigma = by_row[indptr[:-1] + pick]
    if np.any(sigma <= 0.0):
        sigma = np.maximum(sigma, np.max(sigma) * 1e-12)
    if np.all(sigma <= 0.0):
        raise NumericalError("degenerate distances: all sigmas are zero")
    return layout, -dist ** 2 / (sigma[rows] * sigma[cols])


def affinity_weights_py(n, edges, pair, sim):
    """(w, strengths, weights) of the m edges over n items with
    similarities `sim`: with r_i the sum of item i's similarities, each
    edge's w = 0.5 (s / r_i + s / r_j), each item's strength the sum of
    its edges' w, and `w[pair]`, the weights in the CSR layout of `pair`.
    Each sum adds from 0.0 over the edges' first ends, then their second
    ends (np.bincount adds in input order).  Raises IndexError for an end
    or pair index out of range; NumericalError unless every similarity is
    finite and one positive, or when an item's similarities sum to 0.
    """
    _check_edges(edges, sim)
    _check_array("pair", pair, _I64, 2 * sim.shape[0])
    _check_range("edges", edges, n)
    _check_range("pair", pair, sim.shape[0])
    if not np.all(np.isfinite(sim)) or not np.any(sim > 0.0):
        raise NumericalError("all-zero or non-finite similarities")
    ends = np.concatenate([edges[:, 0], edges[:, 1]])
    rowsum = np.bincount(ends, weights=np.concatenate([sim, sim]),
                         minlength=n)
    if np.any(rowsum <= 0.0):
        raise NumericalError("item with all-zero similarities")
    w = 0.5 * (sim / rowsum[edges[:, 0]] + sim / rowsum[edges[:, 1]])
    strengths = np.bincount(ends, weights=np.concatenate([w, w]), minlength=n)
    return w, strengths, w[pair]


_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
# -ffp-contract=off keeps a*b+c from fusing into one rounding; -ffast-math
# and -march=native are left out for the same reason: every float result
# must round exactly as the Python reference rounds it.  -fno-math-errno
# lets sqrt compile to the (correctly rounded) instruction, with no libm
# call to resolve.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")


def _compiled_enabled() -> bool:
    flag = os.environ.get("CONFRES_DISABLE_COMPILED", "").strip().lower()
    return flag not in ("1", "true", "yes")


class _BuildFailed(Exception):
    """The C kernels did not compile; the argument is the marker file that
    holds the compiler's output."""


def _build_library():
    """Path of the compiled kernels, built first if the cache lacks them.

    Returns None when there is no C compiler.  A cache hit runs no
    compiler.  The library is written under a temporary name and renamed
    into place, so a concurrent process never loads a half-written file.
    A failed build leaves a `.failed` marker with the compiler's error
    beside it and raises `_BuildFailed`; while the marker exists no build
    is tried again, so deleting it retries.
    """
    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(CFLAGS).encode(), platform.machine().encode()]))
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                         or os.path.join(os.path.expanduser("~"), ".cache"),
                         "confres")
    stem = os.path.join(cache, f"kernels-{key.hexdigest()[:16]}")
    path, marker = stem + ".so", stem + ".failed"
    if os.path.exists(path):
        return path
    if os.path.exists(marker):
        raise _BuildFailed(marker)
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return None
    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                               suffix=".tmp", dir=cache)
    os.close(fd)
    try:
        subprocess.run([compiler, *CFLAGS, "-o", tmp, _SOURCE], check=True,
                       capture_output=True, text=True, timeout=300)
        os.replace(tmp, path)
    except subprocess.CalledProcessError as exc:
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write(exc.stderr)
        raise _BuildFailed(marker) from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


def _load_library():
    """The loaded C kernels, or None when the Python reference must run."""
    try:
        path = _build_library()
        if path is None:
            return None
        lib = ctypes.CDLL(path)
    except _BuildFailed as exc:
        warnings.warn(f"confres: the C kernels do not build, using the Python "
                      f"reference; compiler output in {exc} (delete "
                      f"it to retry)", RuntimeWarning)
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        warnings.warn(f"confres: C kernels unavailable, using the Python "
                      f"reference: {exc}", RuntimeWarning)
        return None
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    graph = ctypes.POINTER(Graph)  # a Graph passes by reference
    lib.check_graph.argtypes = [graph, ptr]
    lib.check_graph.restype = i64
    lib.level_loop.argtypes = [graph, f64, i64, i64, i64, f64, ptr, ptr, ptr]
    lib.level_loop.restype = i64
    lib.components.argtypes = [graph, ptr, ptr]
    lib.components.restype = i64
    lib.pairs.argtypes = [i64, i64, ptr, ptr, ptr, i64, ptr, ptr, ptr, ptr,
                          ptr, ptr]
    lib.pairs.restype = i64
    lib.knn_graph.argtypes = [i64, i64, ptr, i64, i64, ptr, ptr]
    lib.knn_graph.restype = i64
    lib.affinity_layout.argtypes = [i64, i64, ptr, ptr, i64, i64, ptr, ptr,
                                    ptr, ptr]
    lib.affinity_layout.restype = i64
    lib.affinity_weights.argtypes = [i64, i64, ptr, ptr, ptr, ptr, ptr, ptr]
    lib.affinity_weights.restype = i64
    lib.parse_points.argtypes = [ptr, i64, ptr, i64, ptr]
    lib.parse_points.restype = i64
    return lib


_I, _D, _P = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


class Graph(ctypes.Structure):
    """graph_t of _kernels.c, field for field: a graph as the C
    `check_graph`, `level_loop` and `components` read it.  It holds the
    arrays' addresses and no reference to them, so only the
    `graph.AffinityGraph` that keeps it, and its arrays, hands it to C."""
    _fields_ = [("n", _I), ("m", _I), ("indptr", _P), ("indices", _P),
                ("weights", _P), ("rep_mode", _I), ("rep_strength", _P),
                ("rep_denom", _D), ("rep_m", _I), ("rep_indptr", _P),
                ("rep_indices", _P), ("rep_weights", _P)]


_BYTE = ctypes.c_char


def _address(arr):
    """arr.ctypes.data, the address of the array's first byte, at about a
    fifth of the cost: `.ctypes` builds an object on every access.  A
    read-only or empty array, which has no writable first byte to point
    at, takes the slow way."""
    try:
        return ctypes.addressof(_BYTE.from_buffer(arr))
    except (TypeError, ValueError):
        return arr.ctypes.data


# Every array handed to C is checked first: dtype, C-contiguity and
# length.  A C kernel then returns a count or 0, or one of two statuses:
# ERR_NOMEM (-1) when a buffer could not be taken, or ERR_FAULT (-2) for a
# fault in its arguments, found before any indexed read or write.  C only
# detects a fault; its numpy reference, run on the same arguments, is the
# only code that words it, so both backends raise one error.


def _failed(status, reference=None, *args):
    """Raise the error of a C kernel that returned `status` < 0 on `args`:
    MemoryError for ERR_NOMEM, else the error `reference(*args)` raises,
    or AssertionError if the reference passes what C failed."""
    if status == -1:
        raise MemoryError("the C kernels could not allocate their buffers")
    if reference is not None:
        reference(*args)
    raise AssertionError(f"a C kernel failed with status {status} where "
                         f"its reference passes")


def _check_graph_c(g):
    """`check_graph_py`'s verdict on graph `g` in one C call (`check_graph`
    in _kernels.c), one O(m + n) pass per CSR, after which every other
    graph kernel trusts `g`; `check_graph_py` words its faults.  Returns
    the `Graph` of g's (read-only) arrays' addresses, which the
    AffinityGraph keeps as `_kernel_graph` for `level_loop` and
    `components`."""
    _check_graph(g)
    repulsion = (0, None, None, None)  # never read for product-form repulsion
    if g.rep_mode == REP_EXPLICIT:
        repulsion = (g.rep_indices.shape[0], g.rep_indptr.ctypes.data,
                     g.rep_indices.ctypes.data, g.rep_weights.ctypes.data)
    graph = Graph(g.n, g.indices.shape[0], g.indptr.ctypes.data,
                  g.indices.ctypes.data, g.weights.ctypes.data, g.rep_mode,
                  g.rep_strength.ctypes.data, g.rep_denom, *repulsion)
    cursor = np.empty(g.n, dtype=np.int64)  # alive through the call
    status = _LIB.check_graph(graph, _address(cursor))
    if status:
        _failed(status, check_graph_py, g)
    return graph


_PAIR = ctypes.c_double * 2


def _level_loop_c(g, gamma, rng, max_levels, max_sweeps, max_polish):
    """The level loop of `optimizer.optimize` for one seed in one C call
    (`level_loop` in _kernels.c), on the `Graph` that AffinityGraph `g`
    keeps: (labels, h_a, h_r), the canonical labels that its Python loop
    returns, with the same numbers drawn from `rng`, and their energy
    components, the floats `energy_components` returns for them, summed in
    C, so a solve needs no numpy energy pass.  Its phases replay
    `rng.permutation` through the generator's ctypes interface, and its
    aggregation adds in the order `optimizer.aggregate` adds."""
    graph = g._kernel_graph
    labels = np.empty(g.n, dtype=np.int64)
    energy = _PAIR()  # cheaper to make and read than a numpy array
    bitgen = rng.bit_generator
    with bitgen.lock:  # the C loop draws through the generator's bitgen_t
        status = _LIB.level_loop(graph, gamma, max_levels, max_sweeps,
                                 max_polish, EPSILON, _address(labels),
                                 energy, bitgen.ctypes.bit_generator)
    if status < 0:
        _failed(status)
    return labels, energy[0], energy[1]


def _components_c(g):
    """`components_py` in one C call (`components` in _kernels.c), on the
    `Graph` that AffinityGraph `g` keeps: the same labels and floats."""
    graph = g._kernel_graph
    labels = np.empty(g.n, dtype=np.int64)
    energy = _PAIR()
    status = _LIB.components(graph, _address(labels), energy)
    if status < 0:
        _failed(status)
    return labels, energy[0], energy[1]


def _pairs_c(n, rows, cols, vals, mean=False):
    """`pairs_py` in O(m + n) (`pairs` in _kernels.c), two stable counting
    sorts and one fill, the code path of `level_loop`'s aggregation: the
    same arrays, bit for bit, each of its exact size."""
    _check_ends(rows, cols, vals)
    m = rows.shape[0]
    out = (np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64),
           np.empty(m), np.empty(n + 1, dtype=np.int64),
           np.empty(2 * m, dtype=np.int64), np.empty(2 * m))
    found = _LIB.pairs(n, m, _address(rows), _address(cols), _address(vals),
                       bool(mean), *(_address(a) for a in out))
    if found < 0:
        _failed(found, pairs_py, n, rows, cols, vals, mean)
    # shrunk in place: no copy, and no larger buffer kept; nothing else
    # refers to them
    for a in out[:3]:
        a.resize(found, refcheck=False)
    for a in out[4:]:
        a.resize(2 * found, refcheck=False)
    return out


def _knn_graph_c(points, k, metric="euclidean"):
    """`knn_graph_py` in one C call (`knn_graph` in _kernels.c): an exact
    kd-tree search, the queries of a leaf batched into one walk of the
    tree, with the results of `knn_py` and the pair grouping of `pairs`,
    the same arrays bit for bit.  Its O(n d) scratch (the points in tree
    order, at most n / 4 + 1 nodes with their boxes) comes from C's
    malloc, which tracemalloc does not see."""
    points = _check_knn(points, k, metric)
    n, d = points.shape
    edges = np.empty((n * k, 2), dtype=np.int64)
    dist = np.empty(n * k)
    found = _LIB.knn_graph(n, d, _address(points), k, metric == "cosine",
                           _address(edges), _address(dist))
    if found < 0:
        _failed(found)
    edges.resize((found, 2), refcheck=False)  # in place: nothing else
    dist.resize(found, refcheck=False)        # refers to them
    _finite_distances(dist)
    return edges, dist


def _affinity_layout_c(n, edges, dist, rank, inverse=False):
    """`affinity_layout_py` in one C call (`affinity_layout` in
    _kernels.c): the same arrays and errors."""
    _check_edges(edges, dist)
    m = dist.shape[0]
    indptr = np.empty(n + 1, dtype=np.int64)
    indices = np.empty(2 * m, dtype=np.int64)
    pair = np.empty(2 * m, dtype=np.int64)
    vals = np.empty(m)
    status = _LIB.affinity_layout(n, m, _address(edges), _address(dist),
                                  rank, bool(inverse), _address(indptr),
                                  _address(indices), _address(pair),
                                  _address(vals))
    if status < 0:
        _failed(status, affinity_layout_py, n, edges, dist, rank, inverse)
    return (indptr, indices, pair), vals


def _affinity_weights_c(n, edges, pair, sim):
    """`affinity_weights_py` in one C call (`affinity_weights` in
    _kernels.c): the same arrays and errors."""
    _check_edges(edges, sim)
    m = sim.shape[0]
    _check_array("pair", pair, _I64, 2 * m)
    w, strengths, weights = np.empty(m), np.empty(n), np.empty(2 * m)
    status = _LIB.affinity_weights(n, m, _address(edges), _address(pair),
                                   _address(sim), _address(w),
                                   _address(strengths), _address(weights))
    if status < 0:
        _failed(status, affinity_weights_py, n, edges, pair, sim)
    return w, strengths, weights


def _parse_points_c(data):
    """The rows of `data`, the body of a points file as bytes, read in one
    C call (`parse_points` in _kernels.c): an (n, d) float64 array, or
    None where the C reader declines, for `graph._row_points` to read.
    Its buffer is sized from the byte length, at least the count of
    fields, since each field takes a digit and a comma or line feed, and
    the fields read are copied out of it: malloc maps a buffer that large
    on its own, and shrunk in place it would keep fresh pages where a copy
    reuses free heap, which raised peak RSS."""
    cap = len(data) // 2 + 1
    out = np.empty(cap)
    cols = ctypes.c_int64(0)
    rows = _LIB.parse_points(data, len(data), _address(out), cap,
                             ctypes.byref(cols))
    if not rows:
        return None
    return out[:rows * cols.value].reshape(rows, cols.value).copy()


_LIB = _load_library() if _compiled_enabled() else None
if _LIB is None:
    BACKEND = "python"
    check_graph = check_graph_py
    knn_graph, pairs = knn_graph_py, pairs_py
    affinity_layout, affinity_weights = affinity_layout_py, affinity_weights_py
    level_loop = None  # optimizer runs its Python loop
    components = components_py
    parse_points = None  # graph.load_points_csv reads with Python's float
else:
    BACKEND = "c"
    check_graph = _check_graph_c
    knn_graph, pairs = _knn_graph_c, _pairs_c
    affinity_layout, affinity_weights = _affinity_layout_c, _affinity_weights_c
    level_loop, components = _level_loop_c, _components_c
    parse_points = _parse_points_c

# Always False: numba is no longer a backend.  perfbench/worker.py still
# reads this name to label its results, so it stays until the benchmark
# reads BACKEND instead.
NUMBA_ENABLED = False
