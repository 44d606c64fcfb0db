import dataclasses
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from confres import kernels, optimizer
from confres.energy import EnergySummary
from confres.graph import (AffinityGraph, build_knn_graph, derive_affinity,
                           from_edge_list)

# a C compiler on PATH, for tests that run it themselves
has_compiler = pytest.mark.skipif(
    shutil.which("cc") is None and shutil.which("gcc") is None,
    reason="no C compiler")

# the C kernels are loaded, for tests that compare them with the Python
# references: not without a compiler, nor with CONFRES_DISABLE_COMPILED=1
needs_cc = pytest.mark.skipif(kernels.BACKEND != "c",
                              reason="the C kernels are not loaded")


# the fields a kernel reads of a graph, in the order of (graph.n,
# *graph._kernel_args)
KERNEL_FIELDS = ("n", "indptr", "indices", "weights", "rep_mode",
                 "rep_strength", "rep_denom", "rep_indptr", "rep_indices",
                 "rep_weights")


def graph_fields(*args):
    """The kernel fields `args`, in the order of KERNEL_FIELDS, as the
    attributes of one object, unchecked: arrays for the graph checks to
    judge, which no AffinityGraph would keep."""
    return SimpleNamespace(**dict(zip(KERNEL_FIELDS, args, strict=True)))


def graph_of(*args):
    """The AffinityGraph of the kernel fields `args` (see `graph_fields`),
    its strengths the sums of its attraction rows, under the explicit
    scheme or a product-form one: what the kernels read, checked."""
    g = graph_fields(*args)
    strengths = np.bincount(np.repeat(np.arange(g.n), np.diff(g.indptr)),
                            weights=g.weights, minlength=g.n)
    scheme = "explicit" if g.rep_mode == kernels.REP_EXPLICIT else "uniform"
    return AffinityGraph(g.n, g.indptr, g.indices, g.weights, strengths,
                         float(np.sum(strengths)) / 2, scheme, g.rep_strength,
                         g.rep_denom, g.rep_indptr, g.rep_indices,
                         g.rep_weights)


def random_affinity(rng, n=None, scheme=None):
    """Small random affinity graph for property tests.

    scheme=None picks a product-form repulsion scheme at random; "explicit"
    also draws random repulsion edges.
    """
    if n is None:
        n = int(rng.integers(4, 9))
    if scheme is None:
        scheme = rng.choice(["configuration_null", "uniform"])
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                edges.append((i, j, float(rng.random())))
    if not edges:
        edges = [(0, 1, 1.0)]
    repulsion = None
    if scheme == "explicit":
        repulsion = [(i, j, float(rng.random()))
                     for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
    return from_edge_list(n, edges, repulsion_scheme=scheme,
                          repulsion_edges=repulsion)


def drop_entries(graph, rng, p=0.3, prefixes=("", "rep_")):
    """The graph with each entry of its CSRs named by `prefixes` (of their
    array names) dropped with probability p, so that they are no longer
    symmetric: making it raises InputError."""
    fields = {}
    for prefix in prefixes:
        indptr, indices, weights = (getattr(graph, prefix + name) for name
                                    in ("indptr", "indices", "weights"))
        keep = rng.random(indices.shape[0]) >= p
        rows = np.repeat(np.arange(graph.n), np.diff(indptr))
        ptr = np.zeros(graph.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[keep], minlength=graph.n), out=ptr[1:])
        fields.update({prefix + "indptr": ptr, prefix + "indices":
                       indices[keep], prefix + "weights": weights[keep]})
    return dataclasses.replace(graph, **fields)


def signed_zeros(graph, rng):
    """The graph with about two in three pairs of each CSR weighing zero,
    each of a pair's two entries -0.0 or 0.0 at random (equal weights, so
    the CSRs stay symmetric)."""
    n = graph.n

    def zeroed(indptr, indices, weights):
        rows = np.repeat(np.arange(n), np.diff(indptr))
        pair = np.minimum(rows, indices) * n + np.maximum(rows, indices)
        zero = rng.random(n * n)[pair] < 2 / 3
        sign = rng.integers(0, 2, weights.shape[0])
        return np.where(zero, np.where(sign == 0, -0.0, 0.0), weights)

    return dataclasses.replace(
        graph, weights=zeroed(graph.indptr, graph.indices, graph.weights),
        rep_weights=zeroed(graph.rep_indptr, graph.rep_indices,
                           graph.rep_weights))


def with_loops_and_repeats(graph, rng):
    """The graph with a self-loop and a repeat of one entry, of a weight
    of its own, added to each nonempty row of each CSR, every row then
    shuffled: making it raises InputError."""

    def grow(indptr, indices, weights):
        rows = []
        for i in range(graph.n):
            row = list(zip(indices[indptr[i]:indptr[i + 1]],
                           weights[indptr[i]:indptr[i + 1]]))
            if row:
                j = row[int(rng.integers(len(row)))][0]
                row += [(i, float(rng.random())), (j, float(rng.random()))]
            rows.append([row[t] for t in rng.permutation(len(row))])
        ptr = np.cumsum([0] + [len(row) for row in rows])
        entries = [e for row in rows for e in row]
        return (ptr.astype(np.int64),
                np.array([j for j, _ in entries], dtype=np.int64),
                np.array([w for _, w in entries], dtype=np.float64))

    ptr, idx, w = grow(graph.indptr, graph.indices, graph.weights)
    rep = grow(graph.rep_indptr, graph.rep_indices, graph.rep_weights)
    return dataclasses.replace(graph, indptr=ptr, indices=idx, weights=w,
                               rep_indptr=rep[0], rep_indices=rep[1],
                               rep_weights=rep[2])


def reaching_every_cluster(n, scheme=None):
    """Item 0 joined to every other item, in attraction and, for the
    "explicit" scheme, in repulsion (else uniform repulsion): from
    singletons its rows reach all n - 1 other clusters."""
    return from_edge_list(
        n, [(0, j, 1.0 + j / n) for j in range(1, n)]
        + [(j, j + 1, 0.5) for j in range(1, n - 1, 2)],
        repulsion_scheme=scheme or "uniform",
        repulsion_edges=[(0, j, 0.25) for j in range(1, n)]
        if scheme == "explicit" else None)


def with_self_loop_first(graph):
    """The graph with a self-loop of weight 2 first in item 0's rows of
    each CSR: making it raises InputError."""

    def loop_first(prefix):
        ptr, idx, w = (getattr(graph, prefix + name)
                       for name in ("indptr", "indices", "weights"))
        return {prefix + "indptr": np.concatenate([[0], ptr[1:] + 1]),
                prefix + "indices": np.insert(idx, 0, 0),
                prefix + "weights": np.insert(w, 0, 2.0)}

    explicit = graph.rep_mode == kernels.REP_EXPLICIT
    return dataclasses.replace(graph, **loop_first(""),
                               **(loop_first("rep_") if explicit else {}))


def fresh_optimize(graph, gamma, opts):
    """`optimizer.optimize` as it ran before it reused a generator and
    solved gamma = 0 exactly: a new default_rng(PCG64(seed)) per seed and
    the level loop at every gamma.  The oracle of both."""
    level_loop = (optimizer._level_loop_c if optimizer._compiled_loop()
                  else optimizer._level_loop_py)
    best = None
    for seed in range(opts.seed, opts.seed + opts.restarts):
        rng = np.random.default_rng(np.random.PCG64(seed))
        labels, h_a, h_r = level_loop(graph, gamma, rng)
        energy = EnergySummary.at(gamma, h_a, h_r)
        if best is None or energy.total < best[1].total - kernels.EPSILON:
            best = (labels, energy)
    return best


def blob_points(rng, centers, per=30, sigma=1.0, dim=2):
    pts = [np.asarray(c, dtype=float) + sigma * rng.standard_normal((per, dim))
           for c in centers]
    labels = np.repeat(np.arange(len(centers)), per)
    return np.concatenate(pts, axis=0), labels


def blob_graph(rng, centers, per=30, sigma=1.0, dim=2, k=10):
    pts, labels = blob_points(rng, centers, per, sigma, dim)
    return derive_affinity(build_knn_graph(pts, k=k)), labels


def set_partitions(n):
    """All partitions of range(n) as label vectors (restricted growth)."""
    labels = np.zeros(n, dtype=np.int64)

    def rec(i, maxlab):
        if i == n:
            yield labels.copy()
            return
        for lab in range(maxlab + 2):
            labels[i] = lab
            yield from rec(i + 1, max(maxlab, lab))

    yield from rec(1, 0)


def dense_energy(graph, labels, gamma):
    """Brute-force H from dense attraction/repulsion matrices."""
    a = graph.attraction_dense()
    r = graph.repulsion_dense()
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    h_a = -0.5 * a[same].sum()
    h_r = 0.5 * r[same].sum()
    return h_a + gamma * h_r, h_a, h_r


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
