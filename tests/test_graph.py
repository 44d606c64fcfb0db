"""kNN construction, affinity derivation, and ingestion."""

import builtins
import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from confres import graph as graph_mod
from confres import kernels
from confres.errors import InputError, NumericalError, ParameterError
from confres.graph import (NeighborGraph, build_knn_graph, derive_affinity,
                           from_edge_list, load_labels_csv, load_points_csv)


def _edge_set(graph):
    return {tuple(e) for e in graph.edges.tolist()}


def no_kernel_runs(monkeypatch):
    """Make every kernel a graph builder calls fail if it is reached."""
    def reached(*args):
        raise AssertionError("a kernel ran")

    for name in ("knn_graph", "pairs", "affinity_layout", "affinity_weights",
                 "check_graph"):
        monkeypatch.setattr(kernels, name, reached)


_THREE = NeighborGraph(n=3, edges=np.array([[0, 1], [1, 2]]),
                       distances=np.array([1.0, 2.0]), k=1)


@pytest.mark.parametrize("scheme, repulsion, message", [
    ("bogus", None, r"^unknown repulsion scheme 'bogus'$"),
    ("explicit", None, r"^explicit repulsion scheme needs repulsion edges$"),
    ("uniform", [(0, 2, 5.0)], r"^repulsion edges need the explicit "
                               r"repulsion scheme, got 'uniform'$"),
    ("bogus", [(0, 2, 5.0)], r"^repulsion edges need the explicit "
                             r"repulsion scheme, got 'bogus'$")])
@pytest.mark.parametrize("build", [
    lambda **kw: from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)], **kw),
    lambda **kw: derive_affinity(_THREE, **kw)],
    ids=["from_edge_list", "derive_affinity"])
def test_repulsion_arguments_are_checked_before_any_kernel(
        build, scheme, repulsion, message, monkeypatch):
    no_kernel_runs(monkeypatch)
    with pytest.raises(ParameterError, match=message):
        build(repulsion_scheme=scheme, repulsion_edges=repulsion)


class TestBuildKnn:
    def test_two_points_single_edge(self):
        pts = np.array([[0.0], [2.0]])
        g = build_knn_graph(pts, k=1)
        assert _edge_set(g) == {(0, 1)}
        assert g.distances[0] == pytest.approx(2.0)

    def test_collinear_union(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        g = build_knn_graph(pts, k=1)
        assert _edge_set(g) == {(0, 1), (1, 2)}

    def test_unit_square_excludes_diagonal(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        g = build_knn_graph(pts, k=2)
        assert _edge_set(g) == {(0, 1), (0, 3), (1, 2), (2, 3)}

    def test_tie_breaking_prefers_lower_index(self):
        # item 0 equidistant from 1 and 2; the lower index must win
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]])
        g = build_knn_graph(pts, k=1)
        assert (0, 1) in _edge_set(g)

    def test_row_order_invariance(self, rng):
        pts = rng.standard_normal((40, 3))
        perm = rng.permutation(40)
        g1 = build_knn_graph(pts, k=5)
        g2 = build_knn_graph(pts[perm], k=5)
        inv = np.empty(40, dtype=int)
        inv[perm] = np.arange(40)
        remapped = {tuple(sorted((perm[i], perm[j])))
                    for i, j in _edge_set(g2)}
        assert remapped == _edge_set(g1)

    def test_k_out_of_range(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ParameterError):
            build_knn_graph(pts, k=3)

    @pytest.mark.parametrize("k", [3.0, "3", True])
    def test_k_must_be_an_integer(self, k):
        # True is not read as k = 1; np.int64 is an integer
        pts = np.arange(10.0).reshape(5, 2)
        with pytest.raises(ParameterError, match=r"^k must be an integer, got"):
            build_knn_graph(pts, k=k)
        assert build_knn_graph(pts, k=np.int64(1)).k == 1

    def test_unknown_metric(self):
        with pytest.raises(ParameterError, match="^unknown metric 'manhattan'$"):
            build_knn_graph(np.array([[0.0], [1.0]]), k=1, metric="manhattan")

    def test_non_finite_points(self):
        pts = np.array([[0.0], [np.nan]])
        with pytest.raises(InputError):
            build_knn_graph(pts, k=1)


def _dense_oracle(points, k, metric):
    """kNN union from full n x n distances in extended precision.

    Cosine distance is |u - v|^2 / 2 of unit vectors, equal to 1 - cos but
    free of its cancellation for near-parallel vectors.
    """
    p = np.asarray(points, dtype=np.longdouble)
    if metric == "cosine":
        p = p / np.sqrt((p * p).sum(axis=1))[:, None]
    dist = ((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2)
    dist = dist / 2 if metric == "cosine" else np.sqrt(dist)
    n = len(p)
    np.fill_diagonal(dist, np.inf)
    pairs = set()
    for i in range(n):
        for j in np.lexsort((np.arange(n), dist[i]))[:k]:
            pairs.add((min(i, j), max(i, j)))
    edges = np.array(sorted(pairs))
    return edges, dist[edges[:, 0], edges[:, 1]].astype(np.float64)


class TestKdTreeAgainstDenseOracle:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("dim", [2, 8])
    def test_random_points(self, rng, metric, dim):
        pts = rng.standard_normal((300, dim))
        g = build_knn_graph(pts, k=10, metric=metric)
        edges, dist = _dense_oracle(pts, 10, metric)
        assert np.array_equal(g.edges, edges)
        assert np.allclose(g.distances, dist, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("k", [1, 5, 10, 30])
    def test_integer_grid_ties(self, k):
        # 200 points on a 5 x 5 grid: every item has many exact ties
        pts = np.random.default_rng(k).integers(0, 5, (200, 2))
        g = build_knn_graph(pts.astype(float), k=k)
        edges, dist = _dense_knn(pts.tolist(), k)
        assert g.edges.tolist() == [list(e) for e in edges]
        assert g.distances.tolist() == dist

    def test_identical_points_tie_to_smallest_indices(self):
        g = build_knn_graph(np.ones((12, 3)), k=5)
        edges, dist = _dense_knn([[1, 1, 1]] * 12, 5)
        assert g.edges.tolist() == [list(e) for e in edges]
        assert g.distances.tolist() == dist

    def test_large_offset(self, rng):
        # |x|^2 + |y|^2 - 2 x.y loses every digit of these distances
        pts = 1e6 + rng.standard_normal((200, 3))
        g = build_knn_graph(pts, k=8)
        edges, dist = _dense_oracle(pts, 8, "euclidean")
        assert np.array_equal(g.edges, edges)
        assert np.allclose(g.distances, dist, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_k_is_n_minus_one(self, rng, metric):
        pts = rng.standard_normal((15, 3))
        g = build_knn_graph(pts, k=14, metric=metric)
        edges, dist = _dense_oracle(pts, 14, metric)
        assert len(edges) == 15 * 14 // 2
        assert np.array_equal(g.edges, edges)
        assert np.allclose(g.distances, dist, rtol=1e-12, atol=0.0)
        if metric == "cosine":
            a, b = pts[edges[:, 0]], pts[edges[:, 1]]
            cos = (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1)
                                         * np.linalg.norm(b, axis=1))
            assert np.allclose(g.distances, 1.0 - cos, rtol=1e-9, atol=0.0)

    def test_cosine_zero_vector(self):
        pts = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericalError):
            build_knn_graph(pts, k=1, metric="cosine")

    def test_memory_is_linear_in_n(self):
        # a dense 20000 x 20000 distance matrix alone would need 3.2 GB
        pts = np.random.default_rng(0).standard_normal((20000, 2))
        tracemalloc.start()
        try:
            g = build_knn_graph(pts, k=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edges.shape[0] >= 20000 * 10 // 2
        assert peak < 64 * 2**20


    def test_identical_group_memory_is_chunked(self):
        # 2000 identical points widen their queries past the group size;
        # ranked all at once, the candidate arrays took 330 MiB here
        rng = np.random.default_rng(3)
        pts = rng.integers(0, 1000, (4000, 2))
        pts[1000:3000] = pts[1000]
        tracemalloc.start()
        try:
            g = build_knn_graph(pts.astype(float), k=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        # dense oracle in row blocks; integer coordinates keep every squared
        # distance exact, so ranking by it is ranking by distance
        n, pairs = len(pts), set()
        for lo in range(0, n, 250):
            rows = np.arange(lo, min(lo + 250, n))
            sq = ((pts[rows, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            sq[np.arange(len(rows)), rows] = np.iinfo(np.int64).max
            ties = np.broadcast_to(np.arange(n), sq.shape)
            for i, near in zip(rows, np.lexsort((ties, sq), axis=-1)[:, :10]):
                pairs.update((min(i, j), max(i, j)) for j in near.tolist())
        edges = np.array(sorted(pairs))
        assert np.array_equal(g.edges, edges)
        diff = pts[edges[:, 0]] - pts[edges[:, 1]]
        assert np.array_equal(g.distances, np.sqrt((diff ** 2).sum(axis=1)))

# integer coordinates, so every squared distance is exact: two duplicate
# pairs, and four points equidistant from the origin and from each other
TIE_POINTS = np.array([[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1], [0, 0],
                       [3, 4], [5, 5], [3, 4], [2, 2]], dtype=float)


def _dense_knn(points, k):
    """Union of each item's k nearest by (distance, index): the tie rule."""
    n = len(points)
    d2 = [[int(sum((a - b) ** 2 for a, b in zip(p, q))) for q in points]
          for p in points]
    pairs = set()
    for i in range(n):
        for j in sorted((j for j in range(n) if j != i),
                        key=lambda j: (d2[i][j], j))[:k]:
            pairs.add((min(i, j), max(i, j)))
    edges = sorted(pairs)
    return edges, [math.sqrt(d2[i][j]) for i, j in edges]


def _dense_affinity(n, edges, dist, k):
    """Self-tuning Gaussian w+ from dense matrices, one item at a time."""
    rank = max((k + 1) // 2, 1)
    incident = [sorted(d for (a, b), d in zip(edges, dist) if i in (a, b))
                for i in range(n)]
    # a zero sigma falls back to the item's nearest non-zero distance
    sigma = np.array([ds[min(rank, len(ds)) - 1] or
                      next((d for d in ds if d > 0.0), 0.0) for ds in incident])
    if np.any(sigma <= 0.0):
        sigma = np.maximum(sigma, np.max(sigma) * 1e-12)
    sim = np.zeros((n, n))
    for (a, b), d in zip(edges, dist):
        sim[a, b] = sim[b, a] = math.exp(-d ** 2 / (sigma[a] * sigma[b]))
    p = sim / sim.sum(axis=1, keepdims=True)
    return 0.5 * (p + p.T)


class TestTieRuleAgainstDenseOracle:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 9])
    def test_edges_and_distances(self, k):
        g = build_knn_graph(TIE_POINTS, k=k)
        edges, dist = _dense_knn(TIE_POINTS.astype(int).tolist(), k)
        assert g.edges.tolist() == [list(e) for e in edges]
        assert g.distances.tolist() == dist

    # at k <= 2 a duplicate's ceil(k/2)-th neighbour sits at distance 0,
    # so its sigma comes from its nearest non-zero distance
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 9])
    def test_weights(self, k):
        edges, dist = _dense_knn(TIE_POINTS.astype(int).tolist(), k)
        a = derive_affinity(build_knn_graph(TIE_POINTS, k=k)).attraction_dense()
        assert np.allclose(a, _dense_affinity(len(TIE_POINTS), edges, dist, k),
                           rtol=1e-12, atol=0.0)


class TestDeriveAffinity:
    def test_single_edge_normalizes_to_one(self):
        pts = np.array([[0.0], [1.0]])
        g = derive_affinity(build_knn_graph(pts, k=1))
        assert g.attraction_dense()[0, 1] == pytest.approx(1.0)
        assert g.total_weight == pytest.approx(1.0)

    def test_path_splits_middle_mass(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        g = derive_affinity(build_knn_graph(pts, k=1))
        a = g.attraction_dense()
        # middle row of P is (1/2, 1/2); ends give their full unit mass
        assert a[1, 0] == pytest.approx(0.75)
        assert a[1, 2] == pytest.approx(0.75)
        assert np.allclose(a, a.T)

    def test_total_strength_equals_n(self, rng):
        pts = rng.standard_normal((30, 2))
        g = derive_affinity(build_knn_graph(pts, k=4))
        assert g.strengths.sum() == pytest.approx(30.0, abs=1e-9)

    def test_configuration_null_hand_value(self):
        g = from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert tuple(g.strengths) == (1.0, 2.0, 1.0)
        assert g.total_weight == pytest.approx(2.0)
        assert g.repulsion_dense()[0, 1] == pytest.approx(0.5)

    def test_configuration_null_closed_form_total(self, rng):
        from conftest import random_affinity
        g = random_affinity(rng, scheme="configuration_null")
        s = g.strengths
        expected = (s.sum() ** 2 - (s ** 2).sum()) / (4.0 * g.total_weight)
        r = g.repulsion_dense()
        assert np.triu(r, 1).sum() == pytest.approx(expected, abs=1e-9)

    def test_uniform_scheme(self):
        g = from_edge_list(4, [(0, 1, 1.0)], repulsion_scheme="uniform")
        assert g.repulsion_dense()[2, 3] == pytest.approx(0.25)

    def test_item_without_edges(self):
        graph = NeighborGraph(n=3, edges=np.array([[0, 1]], dtype=np.int64),
                              distances=np.array([1.0]), k=1)
        for kernel in ("self_tuning_gaussian", "inverse_distance"):
            with pytest.raises(InputError, match="item 2"):
                derive_affinity(graph, kernel=kernel)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
    @pytest.mark.parametrize("kernel", ["self_tuning_gaussian",
                                        "inverse_distance"])
    def test_bad_distance_raises_before_numpy_warns(self, bad, kernel):
        # a hand-built graph: its distances never went through the kNN
        # search, so derive_affinity checks them itself
        graph = NeighborGraph(n=3, edges=np.array([[0, 1], [1, 2]]),
                              distances=np.array([bad, 1.0]), k=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError,
                               match=r"on edge \(0, 1\) must be finite"):
                derive_affinity(graph, kernel=kernel)

    @pytest.mark.parametrize("edges, message", [
        ([[0, 5], [1, 2]], r"^edge \(0, 5\) must be a pair 0 <= i < j < n=3"),
        ([[0, 1], [0, 1], [1, 2]], r"^edge \(0, 1\) must be a pair .* after "
                                   r"the edge before it"),
        ([[1, 0], [1, 2]], r"^edge \(1, 0\) must be a pair 0 <= i < j"),
        ([[0, 2], [0, 1]], r"^edge \(0, 1\) must be a pair .* after"),
        ([[-1, 1], [1, 2]], r"^edge \(-1, 1\) must be a pair"),
        ([[0.0, 1.0], [1.0, 2.0]], r"^edges must be an \(m, 2\) integer array"),
        ([[0, 1, 2]], r"^edges must be an \(m, 2\) integer array"),
        ([], r"^edges must be an \(m, 2\) integer array"),
    ])
    @pytest.mark.parametrize("kernel", ["self_tuning_gaussian",
                                        "inverse_distance"])
    def test_bad_edges_raise_input_error(self, edges, message, kernel):
        # a hand-built graph: its edges never went through the kNN search,
        # so derive_affinity checks that they are unique ordered pairs
        m = len(edges)
        graph = NeighborGraph(n=3, edges=np.array(edges),
                              distances=np.ones(m), k=1)
        with pytest.raises(InputError, match=message):
            derive_affinity(graph, kernel=kernel)

    def test_edges_as_lists_and_distance_count(self):
        want = derive_affinity(NeighborGraph(
            n=3, edges=np.array([[0, 1], [1, 2]]),
            distances=np.array([1.0, 2.0]), k=1))
        got = derive_affinity(NeighborGraph(n=3, edges=[[0, 1], [1, 2]],
                                            distances=[1.0, 2.0], k=1))
        assert _graph_bytes(got) == _graph_bytes(want)
        for distances in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
            graph = NeighborGraph(n=3, edges=[[0, 1], [1, 2]],
                                  distances=np.array(distances), k=1)
            with pytest.raises(InputError, match="distances of shape"):
                derive_affinity(graph)

    @pytest.mark.parametrize("k", [0, -1, 5.0, True, "2", None, 2.5])
    def test_k_must_be_a_positive_integer(self, k):
        graph = NeighborGraph(n=3, edges=np.array([[0, 1], [1, 2]]),
                              distances=np.array([1.0, 2.0]), k=k)
        with pytest.raises(ParameterError,
                           match=r"^k must be (an integer|>= 1), got "):
            derive_affinity(graph)

    @pytest.mark.parametrize("n", [3.0, np.float64(3.0), True, "3", None, 0])
    def test_n_must_be_a_positive_integer(self, n, monkeypatch):
        # before: n=3.0 a TypeError, n=True read as one item
        no_kernel_runs(monkeypatch)
        with pytest.raises(ParameterError,
                           match=r"^n must be (an integer|>= 1), got "):
            derive_affinity(dataclasses.replace(_THREE, n=n))

    def test_numpy_integer_n(self):
        got = derive_affinity(dataclasses.replace(_THREE, n=np.int64(3)))
        assert _graph_bytes(got) == _graph_bytes(derive_affinity(_THREE))

    def test_unknown_kernel(self):
        with pytest.raises(ParameterError, match="^unknown kernel 'cosine'$"):
            derive_affinity(_THREE, kernel="cosine")

    def test_huge_k_is_capped_at_the_degree(self):
        # sigma's rank, ceil(k / 2), is capped at the degree (here at most
        # 3), so every k from 5 on gives the same graph
        pts = np.array([[0.0], [1.0], [3.0], [7.0]])
        neighbors = build_knn_graph(pts, k=3)
        want = derive_affinity(dataclasses.replace(neighbors, k=5))
        assert _graph_bytes(want) != _graph_bytes(derive_affinity(neighbors))
        for k in (6, 10 ** 30, np.int64(2 ** 63 - 1)):
            got = derive_affinity(dataclasses.replace(neighbors, k=k))
            assert _graph_bytes(got) == _graph_bytes(want)

    @pytest.mark.parametrize("scheme", ["configuration_null", "uniform"])
    def test_repulsion_edges_need_explicit_scheme(self, scheme):
        neighbors = build_knn_graph(np.array([[0.0], [1.0], [3.0]]), k=1)
        with pytest.raises(ParameterError, match="explicit repulsion scheme"):
            derive_affinity(neighbors, repulsion_scheme=scheme,
                            repulsion_edges=[(0, 2, 5.0)])

    def test_explicit_scheme(self):
        g = from_edge_list(3, [(0, 1, 1.0)], repulsion_scheme="explicit",
                           repulsion_edges=[(1, 2, 0.7)])
        r = g.repulsion_dense()
        assert r[1, 2] == pytest.approx(0.7)
        assert r[0, 1] == 0.0

    @pytest.mark.parametrize("build", ["knn_graph", "knn_graph_py"])
    def test_overflowing_distance_raises_before_numpy_warns(self, build,
                                                           monkeypatch):
        # finite coordinates whose distances overflow to inf, which the
        # Gaussian kernel would turn into NaN as inf / inf
        monkeypatch.setattr(kernels, "knn_graph", getattr(kernels, build))
        pts = np.array([[0.0, 0.0], [1e160, 1e160], [-1e160, 5.0],
                        [3.0, 3.0], [4.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflows"):
                derive_affinity(build_knn_graph(pts, k=2))


def _lexsort_csr(n, rows, cols, vals):
    """Both-direction CSR by sorting every (row, col) entry outright."""
    ii = np.concatenate([rows, cols])
    jj = np.concatenate([cols, rows])
    vv = np.concatenate([vals, vals])
    order = np.lexsort((jj, ii))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, ii + 1, 1)
    return np.cumsum(indptr), jj[order], vv[order]


class TestCsrFromPairs:
    def _check(self, n, rows, cols, vals):
        # unique pairs in order come back as they are, laid out as a
        # lexsort of every entry lays them out
        got = graph_mod._pairs(n, rows, cols, vals)
        want = (rows, cols, vals, *_lexsort_csr(n, rows, cols, vals))
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    def test_random_pairs_match_lexsort(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 60))
            rows, cols = np.triu_indices(n, 1)  # sorted unique, row < col
            keep = rng.random(len(rows)) < rng.random()
            rows, cols = rows[keep].astype(np.int64), cols[keep].astype(np.int64)
            self._check(n, rows, cols, rng.random(len(rows)))

    def test_isolated_rows(self):
        # rows 0, 2 and 5 have no pair
        rows = np.array([1, 1, 3], dtype=np.int64)
        cols = np.array([3, 4, 4], dtype=np.int64)
        self._check(6, rows, cols, np.array([0.5, 0.25, 2.0]))

    def test_single_item(self):
        empty = np.empty(0, dtype=np.int64)
        self._check(1, empty, empty, np.empty(0))


def use_references(monkeypatch):
    """Route graph construction through the numpy references of the
    C kNN graph, pair and affinity kernels."""
    monkeypatch.setattr(kernels, "knn_graph", kernels.knn_graph_py)
    monkeypatch.setattr(kernels, "pairs", kernels.pairs_py)
    monkeypatch.setattr(kernels, "affinity_layout", kernels.affinity_layout_py)
    monkeypatch.setattr(kernels, "affinity_weights",
                        kernels.affinity_weights_py)


class TestCsrFromPairsOnReferences(TestCsrFromPairs):
    @pytest.fixture(autouse=True)
    def _references(self, monkeypatch):
        use_references(monkeypatch)


def _stable_csr(n, rows, cols, vals):
    """Both-direction CSR as it was built with a stable sort by row."""
    ii = np.concatenate([cols, rows])
    jj = np.concatenate([rows, cols])
    vv = np.concatenate([vals, vals])
    order = np.argsort(ii, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ii, minlength=n), out=indptr[1:])
    return indptr, jj[order], vv[order]


def _add_at_assemble(n, rows, cols, vals, scheme, rep_pairs):
    """The graph arrays of the pairs (rows, cols, vals) as graph
    construction built them with a stable sort and np.add.at."""
    strengths = np.zeros(n)
    np.add.at(strengths, rows, vals)
    np.add.at(strengths, cols, vals)
    total = float(np.sum(vals))
    rep = (np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64),
           np.empty(0))
    if scheme == "configuration_null":
        rep_strength, rep_denom = strengths.copy(), 2.0 * total
    elif scheme == "uniform":
        rep_strength, rep_denom = np.ones(n), float(n)
    else:
        rep_strength, rep_denom = np.zeros(n), 1.0
        rep = _stable_csr(n, *rep_pairs)
    return (*_stable_csr(n, rows, cols, vals), strengths, total, rep_strength,
            rep_denom, *rep)


def _lexsort_affinity(graph, kernel, scheme, repulsion_edges):
    """derive_affinity as it was written with np.lexsort and np.add.at."""
    n, k = graph.n, graph.k
    rows, cols, dist = graph.edges[:, 0], graph.edges[:, 1], graph.distances
    degree = np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n)
    if kernel == "self_tuning_gaussian":
        ends = np.concatenate([rows, cols])
        d_ends = np.concatenate([dist, dist])
        sorted_d = d_ends[np.lexsort((d_ends, ends))]
        start = np.cumsum(degree) - degree
        zeros = np.bincount(ends[d_ends == 0.0], minlength=n)
        pick = np.minimum(np.maximum(max((k + 1) // 2, 1) - 1, zeros),
                          degree - 1)
        sigma = sorted_d[start + pick]
        if np.any(sigma <= 0.0):
            sigma = np.maximum(sigma, np.max(sigma) * 1e-12)
        sim = np.exp(-dist ** 2 / (sigma[rows] * sigma[cols]))
    else:
        sim = 1.0 / dist
    rowsum = np.zeros(n)
    np.add.at(rowsum, rows, sim)
    np.add.at(rowsum, cols, sim)
    w = 0.5 * (sim / rowsum[rows] + sim / rowsum[cols])
    rep_pairs = None
    if repulsion_edges is not None:
        rep_pairs = graph_mod._merge_pairs(n, repulsion_edges)[:3]
    return _add_at_assemble(n, rows, cols, w, scheme, rep_pairs)


def _graph_bytes(g):
    return [np.asarray(x).tobytes() for x in (
        g.indptr, g.indices, g.weights, g.strengths, g.total_weight,
        g.rep_strength, g.rep_denom, g.rep_indptr, g.rep_indices,
        g.rep_weights)]


class TestAffinityAgainstLexsortOracle:
    """derive_affinity and from_edge_list give, byte for byte, the arrays
    the lexsort / stable-sort / np.add.at build gave."""

    @staticmethod
    def _point_sets(rng):
        yield rng.standard_normal((60, 2))
        yield rng.standard_normal((50, 8))
        grid = np.stack(np.meshgrid(np.arange(7), np.arange(6)), -1)
        yield grid.reshape(-1, 2).astype(float)          # distance ties
        # groups of 1-4 identical points (zero distances)
        yield np.repeat(rng.integers(0, 5, (12, 3)), rng.integers(1, 5, 12),
                        axis=0).astype(float)
        yield np.concatenate([np.zeros((6, 2)), rng.random((30, 2))])
        # leaves that batch full queries and prune by box; 16-D
        yield rng.standard_normal((2000, 2))
        yield rng.standard_normal((400, 16))
        # squared sums in the subnormal range, near the float64 limit, and
        # past it, where every distance overflows
        for scale in (1e-160, 1e150, 1e160):
            yield rng.standard_normal((60, 3)) * scale

    @staticmethod
    def _repulsion(rng, n, scheme):
        if scheme != "explicit":
            return None
        i, j = rng.integers(0, n, (2, 4 * n))
        keep = i != j
        return np.stack([i[keep], j[keep], rng.random(keep.sum())], axis=1)

    @pytest.mark.parametrize("kernel", graph_mod.AFFINITY_KERNELS)
    def test_derive_affinity(self, rng, kernel):
        for points in self._point_sets(rng):
            for k in (1, 2, 3, 4, 7):
                try:
                    ng = build_knn_graph(points, k=k)
                except NumericalError as exc:
                    assert "overflows" in str(exc)
                    continue
                for scheme in graph_mod.REPULSION_SCHEMES:
                    rep = self._repulsion(rng, ng.n, scheme)
                    try:
                        g = derive_affinity(ng, kernel, scheme, rep)
                    except NumericalError:
                        # zero distances under inverse_distance
                        assert kernel == "inverse_distance"
                        assert np.any(ng.distances == 0.0)
                        continue
                    want = _lexsort_affinity(ng, kernel, scheme, rep)
                    assert _graph_bytes(g) == [np.asarray(x).tobytes()
                                               for x in want]

    def test_from_edge_list(self, rng):
        for trial in range(30):
            n = int(rng.integers(2, 40))
            i, j = rng.integers(0, n, (2, 3 * n))
            keep = i != j
            edges = np.stack([i[keep], j[keep], rng.random(keep.sum())], 1)
            if not len(edges):
                continue
            scheme = graph_mod.REPULSION_SCHEMES[trial % 3]
            rep = self._repulsion(rng, n, scheme)
            g = from_edge_list(n, edges, scheme, rep)
            rep_pairs = (None if rep is None
                         else graph_mod._merge_pairs(n, rep)[:3])
            want = _add_at_assemble(n, *graph_mod._merge_pairs(n, edges)[:3],
                                    scheme, rep_pairs)
            assert _graph_bytes(g) == [np.asarray(x).tobytes() for x in want]


class TestAffinityAgainstLexsortOracleOnReferences(
        TestAffinityAgainstLexsortOracle):
    @pytest.fixture(autouse=True)
    def _references(self, monkeypatch):
        use_references(monkeypatch)


class TestFromEdgeList:
    def test_basic(self):
        g = from_edge_list(2, [(0, 1, 1.0)])
        assert g.total_weight == pytest.approx(1.0)
        assert tuple(g.strengths) == (1.0, 1.0)

    def test_empty_edge_list(self):
        with pytest.raises(InputError, match="^edge list is empty$"):
            from_edge_list(3, [])

    def test_zero_total_weight(self):
        with pytest.raises(NumericalError,
                           match="^total attraction weight W must be positive$"):
            from_edge_list(3, [(0, 1, 0.0), (1, 2, 0.0)])

    @pytest.mark.parametrize("repulsion", [False, True])
    def test_rows_must_be_triples(self, repulsion):
        label = "repulsion" if repulsion else "edge"
        with pytest.raises(InputError,
                           match=rf"^{label} rows must be \(i, j, w\) triples$"):
            if repulsion:
                from_edge_list(3, [(0, 1, 1.0)], repulsion_scheme="explicit",
                               repulsion_edges=[(1, 2)])
            else:
                from_edge_list(3, [(0, 1)])

    def test_duplicate_directions_averaged(self):
        g = from_edge_list(2, [(0, 1, 1.0), (1, 0, 3.0)])
        assert g.attraction_dense()[0, 1] == pytest.approx(2.0)

    def test_index_out_of_range(self):
        with pytest.raises(InputError):
            from_edge_list(3, [(0, 5, 1.0)])

    def test_negative_weight(self):
        with pytest.raises(InputError):
            from_edge_list(2, [(0, 1, -1.0)])

    @pytest.mark.parametrize("scheme", ["configuration_null", "uniform"])
    def test_weights_that_overflow_are_rejected(self, scheme):
        # each weight is finite, but their sum (and so a repeated pair's
        # mean) overflows: the graph check rejects the infinite numbers,
        # which would make the energy NaN
        with pytest.raises(InputError, match="must be finite"):
            from_edge_list(3, [(0, 1, 1e308), (1, 0, 1e308), (1, 2, 1.0)],
                           repulsion_scheme=scheme)

    def test_repeats_averaged_in_input_order(self):
        big = 2.0 ** 53  # big + 1 rounds back to big
        g = from_edge_list(2, [(0, 1, 1.0), (1, 0, 1.0), (0, 1, big)])
        expected = ((1.0 + 1.0) + big) / 3
        assert expected != ((big + 1.0) + 1.0) / 3
        assert g.attraction_dense()[0, 1] == expected
        assert g.total_weight == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight(self, bad):
        with pytest.raises(InputError):
            from_edge_list(3, [(0, 1, bad), (1, 2, 1.0)])
        with pytest.raises(InputError):
            from_edge_list(3, [(0, 1, 1.0)], repulsion_scheme="explicit",
                           repulsion_edges=[(1, 2, 1.0), (0, 2, bad)])

    def test_non_finite_index(self):
        with pytest.raises(InputError, match="out of range"):
            from_edge_list(3, [(0, np.nan, 1.0)])

    def test_first_offending_edge_reported(self):
        with pytest.raises(InputError, match="self-loop"):
            from_edge_list(3, [(0, 1, 1.0), (2, 2, 1.0), (0, 5, -1.0)])

    @pytest.mark.parametrize("n", [2.5, 2.0, np.float64(3.0), True, "3",
                                   None, 0, -1, np.int64(0)])
    def test_n_must_be_a_positive_integer(self, n):
        with pytest.raises(ParameterError,
                           match=r"^n must be (an integer|>= 1), got "):
            from_edge_list(n, [(0, 1, 1.0)])

    @pytest.mark.parametrize("edge", [(0, 1.7, 1.0), (0, -0.5, 1.0),
                                      (2.2, 1, 1.0), (0.5, 0.5, 1.0)])
    @pytest.mark.parametrize("repulsion", [False, True])
    def test_non_integer_index(self, edge, repulsion):
        # an index is not truncated to an integer: the first edge with a
        # fraction is named, in either edge list
        edges = [(0, 1, 1.0), (1, 2, 1.0)]
        bad = [(1, 2, 1.0), edge, (0, 1.5, 1.0)]
        label = "repulsion" if repulsion else "edge"
        with pytest.raises(InputError, match=rf"^{label} index "
                           rf"\({edge[0]}, {edge[1]}\) is not an integer$"):
            if repulsion:
                from_edge_list(3, edges, repulsion_scheme="explicit",
                               repulsion_edges=bad)
            else:
                from_edge_list(3, bad)

    def test_integral_float_index(self):
        # 2.0 is the index 2
        want = from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)],
                              repulsion_scheme="explicit",
                              repulsion_edges=[(0, 2, 0.5)])
        got = from_edge_list(3, [(0.0, 1.0, 1.0), (1, 2.0, 1.0)],
                             repulsion_scheme="explicit",
                             repulsion_edges=[(0.0, 2.0, 0.5)])
        assert _graph_bytes(got) == _graph_bytes(want)

    def test_numpy_integer_n(self):
        g = from_edge_list(np.int64(3), [(0, 1, 1.0), (1, 2, 1.0)])
        want = from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert _graph_bytes(g) == _graph_bytes(want)

    @pytest.mark.parametrize("scheme", ["configuration_null", "uniform"])
    def test_repulsion_edges_need_explicit_scheme(self, scheme):
        # product-form repulsion never reads them: an error, not a drop
        with pytest.raises(ParameterError, match="explicit repulsion scheme"):
            from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)],
                           repulsion_scheme=scheme,
                           repulsion_edges=[(0, 2, 5.0)])


def _row_parsed_points(path):
    """load_points_csv as it parsed every field with float, row by row,
    after a leading byte-order mark."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise InputError(f"empty points file: {path}")
    start = 0
    try:
        [float(x) for x in lines[0].split(",")]
    except ValueError:
        start = 1
    rows = []
    for ln in lines[start:]:
        try:
            rows.append([float(x) for x in ln.split(",")])
        except ValueError as exc:
            raise InputError(f"non-numeric row in {path}: {ln!r}") from exc
        if len(rows[-1]) != len(rows[0]):
            raise InputError(f"row {ln!r} in {path} has {len(rows[-1])} "
                             f"columns, expected {len(rows[0])}")
    return graph_mod._check_points(np.array(rows))


def _outcome(load, path):
    try:
        points = load(path)
    except InputError as exc:
        return type(exc), str(exc)
    return points.dtype, points.shape, points.tobytes()


class TestPointsLoaderAgainstRowParser:
    CASES = {
        "plain": "1,2\n3,4\n5,6\n",
        "header": "x,y\n1,2\n3,4\n",
        "crlf": "x,y\r\n1,2\r\n3,4\r\n",
        "cr": "1,2\r3,4\r5,6\r",
        "no final newline": "1,2\n3,4",
        "blank lines": "\n1,2\n   \n\t\n3,4\n\n",
        "padded fields": " 1 ,\t2\n3\t, 4 \n\u20075,6\u2007\n",
        "exponents": "1e3,2E-2\n-3.5e+1,.4\n5.,-0\n",
        "underscores": "1_000,2\n3,4_0.5\n",
        "wide digits": "\uff11\uff12,3\n4,5\n",
        "one column": "1\n2\n3\n",
        "many columns": "1,2,3,4,5,6,7,8\n8,7,6,5,4,3,2,1\n",
        "nan": "nan,1\n2,3\n",
        "inf": "1,2\n3,-inf\n",
        "overflow to inf": "1,2\n3,1e999\n",
        "trailing comma on a row": "1,2\n3,4,\n",
        "trailing commas everywhere": "1,2,\n3,4,\n5,6,\n",
        "long row then short": "1,2\n3,4,5\n6\n7,8\n",
        "short row then long": "1,2\n3\n4,5,6\n",
        "non-numeric after valid": "1,2\n3,4\na,b\n",
        "non-numeric and ragged": "1,2\n3,4,x\n",
        "hex": "1,2\n0x10,3\n",
        "header only": "x,y\n",
        "one row": "1,2\n",
        "empty": "",
        "only blank lines": "\n \n\t\n",
        "form feed inside": "x,y\n1,2\x0c3\n4,5\n",
        "form feed at an end": "\x0c1,2\n3,4\x0c\n",
        "group separator inside": "x,y\n1,2\x1d3,4\n5,6\n",
        "next line inside": "1,2\n3,4\x855,6\n7,8\n",
        "byte order mark": "\ufeff1,2\n3,4\n5,6\n",
        "byte order mark and header": "\ufeffx,y\r\n1,2\r\n3,4\r\n",
        "empty field": "1,2,3\n4,,5\n",
        # the edges of the C reader's grammar and of strtod
        "17-digit mantissas": "0.12345678901234567,1.2345678901234567e-5\n"
                              "12345678901234567,-9.8765432109876543\n",
        "40-digit mantissas": "1234567890123456789012345678901234567890,1\n"
                              "0.1234567890123456789012345678901234567890,"
                              "2.000000000000000000000000000000000000001\n",
        "300-digit field": "1," + "7" * 300 + "\n0." + "3" * 300 + ",2\n",
        "halfway cases": "9007199254740993,2.2250738585072011e-308\n"
                         "9007199254740995,2.2250738585072012e-308\n",
        "subnormal boundary": "2.4703282292062327e-324,"
                              "2.4703282292062328e-324\n5e-324,-5e-324\n",
        "short forms": "1.,.5\n+1,-0.0\n1E5,-.0e-0\n",
        "exponent without digits": "1,2\n1e,3\n",
        "lone sign": "1,2\n-,3\n",
        "nul byte": "1,2\n3\x00,4\n5,6\n",
        # bodies strtod reads further than the grammar
        "hex float": "1,2\n0x1p3,3\n",
        "infinity": "1,2\ninfinity,3\n",
        "nan with a payload": "1,2\n3,+nan(1)\n",
        "two exponents": "1,2\n1e5e3,3\n",
        "exponent without a mantissa": "1,2\n.e1,3\n",
        "vertical tab before a field": "1,2\n3,\v4\n",
        "lone cr at the end": "1,2\n3,4\r",
        "lone cr inside": "1,2\n3,4\r5,6\n",
        "mixed line ends": "x,y\r\n1,2\n3,4\r\n5,6\n",
        "tabs around fields and lines": "\tx ,\ty\t\r\n\t1\t,\t2\t\n"
                                        " \t3 , 4\t\r\n\t \n",
        "blank lines before the header": "\n \t\r\nx,y\n1,2\n3,4\n",
        "cr lf header only": "x,y\r\n",
        "non-ascii header": "\u00e9,y\n1,2\n3,4\n",
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_case(self, tmp_path, name):
        path = tmp_path / "pts.csv"
        path.write_bytes(self.CASES[name].encode("utf-8"))
        assert (_outcome(load_points_csv, path)
                == _outcome(_row_parsed_points, path))

    FORMATS = (repr, "%.17g".__mod__, "%.6f".__mod__,
               lambda v: str(round(v)), "%.12e".__mod__)

    def test_random_values(self, tmp_path, rng):
        for trial in range(20):
            n, d = int(rng.integers(2, 200)), int(rng.integers(1, 6))
            pts = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, d)
            text = "\n".join(
                ",".join(map(self.FORMATS[trial % 5], row.tolist()))
                for row in pts)
            path = tmp_path / f"pts{trial}.csv"
            path.write_text(("a" + ",b" * (d - 1) + "\n") * (trial % 2) + text)
            assert (_outcome(load_points_csv, path)
                    == _outcome(_row_parsed_points, path))
            if trial % 5 < 2:  # both formats round-trip every float
                assert load_points_csv(path).tobytes() == pts.tobytes()


class TestPointsLoaderAgainstRowParserOnText(TestPointsLoaderAgainstRowParser):
    """The same files read as without the C kernels: row by row only."""

    @pytest.fixture(autouse=True)
    def _text_only(self, monkeypatch):
        monkeypatch.setattr(kernels, "parse_points", None)


@pytest.mark.skipif(kernels.parse_points is None,
                    reason="the C kernels are not built")
def test_plain_points_file_is_read_in_c(tmp_path, monkeypatch):
    def row_parser(path, body):
        raise AssertionError(f"{path} was read row by row")

    monkeypatch.setattr(graph_mod, "_row_points", row_parser)
    path = tmp_path / "pts.csv"
    # LF and CR LF; CR only; CR, CR LF and LF without a final line end
    for data in (b"x,y\r\n1,-2.5e3\n\n .5 ,\t7\r\n",
                 b"x,y\r1,-2.5e3\r\r .5 ,\t7\r",
                 b"x,y\r1,-2.5e3\n\r\n .5 ,\t7"):
        path.write_bytes(data)
        assert load_points_csv(path).tolist() == [[1.0, -2500.0],
                                                  [0.5, 7.0]]


@pytest.mark.parametrize("reader", ["c", "declined", "python"])
def test_points_file_is_opened_once(tmp_path, monkeypatch, reader):
    path = tmp_path / "pts.csv"
    path.write_text("x,y\n1,2\n3,4_0\n" if reader == "declined"
                    else "x,y\n1,2\n3,40\n")
    returned = []
    if reader == "python":
        monkeypatch.setattr(kernels, "parse_points", None)
    elif kernels.parse_points is None:
        pytest.skip("the C kernels are not built")
    else:
        def parse_points(data, c_reader=kernels.parse_points):
            returned.append(c_reader(data))
            return returned[-1]

        monkeypatch.setattr(kernels, "parse_points", parse_points)
    opened = []

    def counting_open(file, *args, open=builtins.open, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    points = load_points_csv(path)
    monkeypatch.undo()
    assert points.tolist() == [[1.0, 2.0], [3.0, 40.0]]
    assert opened.count(path) == 1
    assert [p is None for p in returned] == {
        "c": [False], "declined": [True], "python": []}[reader]


class TestLoaders:
    def test_points_roundtrip(self, tmp_path, rng):
        pts = rng.standard_normal((7, 3))
        path = tmp_path / "pts.csv"
        np.savetxt(path, pts, delimiter=",")
        assert np.allclose(load_points_csv(path), pts)

    def test_points_with_header(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y\n0.5,1.5\n2.5,3.5\n")
        assert np.allclose(load_points_csv(path),
                           [[0.5, 1.5], [2.5, 3.5]])

    @pytest.mark.parametrize("header", [b"", b"x,y\n"],
                             ids=["no header", "header"])
    def test_points_with_byte_order_mark(self, tmp_path, header):
        path = tmp_path / "pts.csv"
        path.write_bytes(b"\xef\xbb\xbf" + header + b"1,2\n3,4\n5,6\n")
        assert load_points_csv(path).tolist() == [[1, 2], [3, 4], [5, 6]]

    def test_labels_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"\xef\xbb\xbf2\n0\n1\n")
        assert load_labels_csv(path).tolist() == [2, 0, 1]

    def test_labels_single_column(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("2\n0\n1\n")
        assert load_labels_csv(path).tolist() == [2, 0, 1]

    @pytest.mark.parametrize("text", ["", "\n \n"])
    def test_empty_labels_file(self, tmp_path, text):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=f"^empty labels file: {re.escape(str(path))}$"):
            load_labels_csv(path)

    def test_labels_row_of_several_fields(self, tmp_path):
        # the first field would be an index column, not the labels
        path = tmp_path / "labels.csv"
        path.write_text("label\n0,3\n1,4\n2,5\n")
        with pytest.raises(InputError, match=re.escape(
                f"label row '0,3' in {path} has 2 columns, expected 1")):
            load_labels_csv(path)
        path.write_text("3\n4,\n")  # an empty field is a field
        with pytest.raises(InputError, match="row '4,'"):
            load_labels_csv(path)

    def test_malformed_labels(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("abc\ndef\n")
        with pytest.raises(InputError):
            load_labels_csv(path)
