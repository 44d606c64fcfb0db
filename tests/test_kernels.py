"""The C kernels (level loop, gamma = 0 components, kNN search and graph,
pair grouping, CSR fill, the affinity graph and the points reader) and
their numpy or plain-Python references must agree exactly, and the numpy
energy must equal a plain loop over the edges bit for bit.  The Python
sweep, the one local-moving phase on every backend, keeps its own checks
here; it meets the C phases in tests/test_optimizer.py, through the
level loop."""

import ctypes
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.spatial import cKDTree

from confres import kernels
from confres.energy import landscape_point
from confres.errors import ConfresError, InputError, NumericalError
from confres.graph import build_knn_graph, derive_affinity, from_edge_list
from confres.optimizer import aggregate
from conftest import (graph_fields, graph_of, has_compiler, needs_cc,
                      random_affinity, signed_zeros)

# product-form repulsion (a scheme drawn at random) and explicit repulsion
SCHEMES = (None, "explicit")


def _energy_by_loop(graph, labels):
    """(h_a, h_r) by one pass over the CSR entries, adding in loop order."""
    h_a = 0.0
    for i in range(graph.n):
        for e in range(graph.indptr[i], graph.indptr[i + 1]):
            j = graph.indices[e]
            if j > i and labels[j] == labels[i]:
                h_a -= graph.weights[e]
    h_r = 0.0
    if graph.rep_mode == kernels.REP_PRODUCT:
        sums = [0.0] * (int(labels.max()) + 1)
        sq = 0.0
        for i in range(graph.n):
            rho = graph.rep_strength[i]
            sums[labels[i]] += rho
            sq += rho * rho
        tot = 0.0
        for s in sums:
            tot += s * s
        h_r = (tot - sq) / (2.0 * graph.rep_denom)
    else:
        for i in range(graph.n):
            for e in range(graph.rep_indptr[i], graph.rep_indptr[i + 1]):
                j = graph.rep_indices[e]
                if j > i and labels[j] == labels[i]:
                    h_r += graph.rep_weights[e]
    return h_a, h_r


def test_energy_components_matches_loop_exactly(rng):
    for trial in range(120):
        graph = random_affinity(rng, n=int(rng.integers(2, 30)),
                                scheme=SCHEMES[trial % 2])
        n = graph.n
        for labels in (rng.integers(0, 3, n), rng.integers(0, n, n),
                       np.zeros(n), np.arange(n)):
            labels = labels.astype(np.int64)
            got = kernels.energy_components(graph, labels)
            assert _exact(got) == _exact(_energy_by_loop(graph, labels))
        assert _exact(landscape_point(graph, np.arange(n))) == _exact(
            (0.0, 0.0))


def _signed_zero_csr(weight):
    """A hand-built CSR over 3 items: `weight` on the pair (0, 1) and -0.0
    on the others, which a loop starting at +0.0 sums to +0.0."""
    indptr = np.array([0, 2, 4, 6])
    indices = np.array([1, 2, 0, 2, 0, 1])
    return indptr, indices, np.array([weight, -0.0, weight, -0.0, -0.0, -0.0])


def _exact(pair):
    """Bytes, not values: the sign of a zero counts too."""
    return [np.float64(x).tobytes() for x in pair]


def test_energy_components_sums_signed_zeros_from_plus_zero():
    labels = np.zeros(3, dtype=np.int64)
    for weight in (-0.0, 0.5):
        indptr, indices, weights = _signed_zero_csr(weight)
        for rep_mode in (kernels.REP_PRODUCT, kernels.REP_EXPLICIT):
            got = kernels.energy_components(graph_fields(
                3, indptr, indices, weights, rep_mode, np.ones(3), 2.0,
                indptr, indices, weights), labels)
            h_r = 1.5 if rep_mode == kernels.REP_PRODUCT else 0.0 + weight
            assert [np.float64(x).tobytes() for x in got] == [
                np.float64(x).tobytes() for x in (0.0 - weight, h_r)]


@needs_cc
def test_level_loop_energy_on_signed_zeros(rng):
    # the C loop's (h_a, h_r) are energy_components' bytes on its labels,
    # on the hand-built CSR and on random graphs with signed-zero weights,
    # in both repulsion modes
    cases = [(3, *_signed_zero_csr(weight), rep_mode, np.ones(3), 2.0,
              *_signed_zero_csr(weight))
             for weight in (-0.0, 0.5)
             for rep_mode in (kernels.REP_PRODUCT, kernels.REP_EXPLICIT)]
    for trial in range(24):
        graph = signed_zeros(
            random_affinity(rng, scheme=SCHEMES[trial % 2]), rng)
        cases.append((graph.n, *graph._kernel_args))
    for case in cases:
        graph = graph_of(*case)
        for gamma in (0.0, 0.5, 2.0):
            labels, *energy = kernels.level_loop(
                graph, gamma, np.random.default_rng(7), 32, 100, 1000)
            assert _exact(energy) == _exact(kernels.energy_components(
                graph, labels))


def _positive_components(n, indptr, indices, weights):
    """Canonical labels of the components over the CSR entries of
    positive weight, either direction linking, by a search from each
    unlabelled item in item order."""
    adjacent = [[] for _ in range(n)]
    for i in range(n):
        for e in range(indptr[i], indptr[i + 1]):
            if weights[e] > 0.0:
                adjacent[i].append(indices[e])
                adjacent[indices[e]].append(i)
    labels = np.full(n, -1, dtype=np.int64)
    count = 0
    for start in range(n):
        if labels[start] < 0:
            labels[start] = count
            stack = [start]
            while stack:
                for j in adjacent[stack.pop()]:
                    if labels[j] < 0:
                        labels[j] = count
                        stack.append(j)
            count += 1
    return labels


def _components_inputs(rng):
    """Graph fields (conftest.KERNEL_FIELDS) for the gamma = 0 kernel:
    random graphs, some with signed zeros; disconnected graphs with an
    isolated item; zero weights; weights in (0, EPSILON]; n = 1; and the
    signed-zero CSRs."""
    graphs = []
    for trial in range(60):
        graph = random_affinity(rng, n=int(rng.integers(2, 30)),
                                scheme=SCHEMES[trial % 2])
        if trial % 3:
            graph = signed_zeros(graph, rng)
        graphs.append(graph)
    eps = kernels.EPSILON
    graphs += [
        from_edge_list(9, [(0, 1, 1.0), (1, 2, 0.5), (3, 4, 2.0), (5, 6, 1.0),
                           (6, 7, 1.0), (5, 7, 0.2)]),  # item 8 stands alone
        from_edge_list(6, [(0, 1, 0.0), (2, 3, 0.0), (1, 2, 1e-9),
                           (4, 5, 0.0)], repulsion_scheme="uniform"),
        from_edge_list(5, [(0, 1, eps), (1, 2, 1e-300), (2, 3, 5e-324),
                           (3, 4, 1.0)]),
        from_edge_list(4, [(0, 1, eps / 2), (2, 3, eps)],
                       repulsion_scheme="explicit",
                       repulsion_edges=[(0, 2, 1.0), (1, 3, 0.0)]),
    ]
    for graph in graphs:
        yield (graph.n, *graph._kernel_args)
    alone = (np.zeros(2, dtype=np.int64), np.zeros(0, dtype=np.int64),
             np.zeros(0))
    yield (1, *alone, kernels.REP_PRODUCT, np.ones(1), 1.0, *alone)
    yield (1, *alone, kernels.REP_EXPLICIT, np.zeros(1), 1.0, *alone)
    for weight in (-0.0, 0.5):
        for rep_mode in (kernels.REP_PRODUCT, kernels.REP_EXPLICIT):
            yield (3, *_signed_zero_csr(weight), rep_mode, np.ones(3), 2.0,
                   *_signed_zero_csr(weight))


def test_components_reference_is_the_components(rng):
    # the gamma = 0 optimum: the components over the entries of positive
    # weight, canonical, with energy_components' (h_a, h_r) bytes
    for args in _components_inputs(rng):
        graph = graph_of(*args)
        labels, *energy = kernels.components_py(graph)
        assert np.array_equal(labels, _positive_components(*args[:4]))
        assert labels.dtype == np.int64
        assert _exact(energy) == _exact(kernels.energy_components(
            graph, labels))


@needs_cc
def test_components_backends_agree(rng):
    # the C kernel gives its reference's labels and (h_a, h_r) bytes, the
    # sign of a zero included
    for args in _components_inputs(rng):
        graph = graph_of(*args)
        labels, *energy = kernels.components(graph)
        want, *want_energy = kernels.components_py(graph)
        assert np.array_equal(labels, want)
        assert _exact(energy) == _exact(want_energy)


def test_energy_components_rejects_negative_product_label(rng):
    graph = random_affinity(rng)
    labels = np.zeros(graph.n, dtype=np.int64)
    labels[1] = -1
    with pytest.raises(IndexError, match="labels must be >= 0"):
        kernels.energy_components(graph, labels)


def test_sweep_is_the_python_phase_on_every_backend():
    # the C phases run only inside level_loop
    assert kernels.sweep is kernels.sweep_py


def test_sweep_rejects_out_of_range_label(rng):
    graph = random_affinity(rng)
    args = graph._kernel_args
    constraint = np.zeros(graph.n, dtype=np.int64)
    for value in (graph.n, -1):
        labels = np.arange(graph.n, dtype=np.int64)
        labels[0] = value
        gen = np.random.default_rng(0)
        before = gen.bit_generator.state
        with pytest.raises(IndexError, match=r"labels out of range"):
            kernels.sweep_py(*args, 1.0, labels, constraint, gen, 1)
        assert labels[0] == value
        assert gen.bit_generator.state == before


def _rejected_alike(args, message):
    """Assert that the graph fields `args` (conftest.KERNEL_FIELDS) fail
    the numpy graph check and, when loaded, the C one, each with one
    InputError matching `message`."""
    checks = [kernels.check_graph_py]
    if kernels.BACKEND == "c":
        checks.append(kernels._check_graph_c)
    messages = set()
    for check in checks:
        with pytest.raises(InputError, match=message) as info:
            check(graph_fields(*args))
        messages.add(str(info.value))
    assert len(messages) == 1, messages


def test_graph_checks_pass_every_valid_graph(rng):
    # the C check and its numpy reference pass what the builders make:
    # both repulsion modes, signed zeros, blobs, coarse graphs, n = 1
    graphs = []
    for trial in range(40):
        graph = random_affinity(rng, n=int(rng.integers(2, 30)),
                                scheme=SCHEMES[trial % 2])
        graphs += [graph, signed_zeros(graph, rng),
                   aggregate(graph, rng.integers(0, 3, graph.n)).graph]
    graphs.append(derive_affinity(build_knn_graph(
        rng.standard_normal((200, 2)), k=8)))
    cases = [(g.n, *g._kernel_args) for g in graphs]
    for args in [*cases, *_components_inputs(rng)]:
        graph = graph_fields(*args)
        assert kernels.check_graph_py(graph) is None
        if kernels.BACKEND == "c":
            assert isinstance(kernels._check_graph_c(graph), kernels.Graph)


@needs_cc
def test_graph_checks_agree_on_random_faults(rng):
    # one random change to a valid graph's arrays, which may break the
    # contract or not: the C check fails exactly the graphs its numpy
    # reference fails (a C failure the reference passes raises
    # AssertionError)
    failed = 0
    for trial in range(600):
        graph = random_affinity(rng, n=int(rng.integers(2, 9)),
                                scheme=SCHEMES[trial % 2])
        args = [graph.n, *(np.array(a) if isinstance(a, np.ndarray) else a
                           for a in graph._kernel_args)]
        at = int(rng.choice([1, 2, 3, 7, 8, 9] if trial % 2 else [1, 2, 3]))
        if args[at].shape[0]:
            values = args[at]
            e = int(rng.integers(values.shape[0]))
            if at in (3, 9):
                values[e] = rng.choice([0.0, -0.0, values[e] * 2, -1.0,
                                        np.nan, values[(e + 1) % len(values)]])
            else:
                values[e] += int(rng.choice([-2, -1, 1, 2]))
        graph = graph_fields(*args)
        try:
            kernels.check_graph_py(graph)
        except InputError:
            failed += 1
            with pytest.raises(InputError):
                kernels._check_graph_c(graph)
        else:
            assert isinstance(kernels._check_graph_c(graph), kernels.Graph)
    assert 200 < failed < 600


@needs_cc
def test_compiled_kernels_reject_out_of_range_csr(rng):
    # the C graph check and its numpy reference reject a CSR value out of
    # range with one InputError, which names the CSR and its row or entry
    graph = random_affinity(rng, scheme="explicit")
    n = graph.n
    for position, value, message in (
            (1, -1, r"^indptr must run from 0 to \d+ and never fall"),
            (2, n, rf"^indices\[\d+\] = {n} in row {n - 1}, of weight "),
            (7, -1, r"^rep_indptr must run from 0 to \d+ and never fall"),
            (8, n, rf"^rep_indices\[\d+\] = {n} in row {n - 1}, of ")):
        args = [n, *graph._kernel_args]
        args[position] = args[position].copy()
        args[position][-1] = value
        _rejected_alike(args, message)


def _bad_sweep_args(case, args, labels, constraint):
    """The sweep arguments with one fault, `case`, and the start of the
    message it raises."""
    if case == "read-only labels":
        labels.flags.writeable = False
        message = "labels must be writable"
    elif case == "int32 labels":
        labels = labels.astype(np.int32)
        message = "labels must be a C-contiguous 1-D int64"
    elif case == "float64 constraint":
        constraint = constraint.astype(np.float64)
        message = "constraint must be a C-contiguous 1-D int64"
    else:  # a short constraint
        constraint = constraint[1:]
        message = "constraint has length"
    return args, labels, constraint, message


@pytest.mark.parametrize("case", ["read-only labels", "int32 labels",
                                  "float64 constraint", "short constraint"])
def test_sweeps_reject_bad_arguments_alike(rng, case):
    # every bad argument raises a ValueError before any label moves or any
    # number is drawn
    graph = random_affinity(rng)
    start = np.arange(graph.n, dtype=np.int64)
    args, labels, constraint, message = _bad_sweep_args(
        case, graph._kernel_args, start.copy(),
        np.zeros(graph.n, dtype=np.int64))
    gen = np.random.default_rng(0)
    before = gen.bit_generator.state
    with pytest.raises(ValueError, match=f"^{message}"):
        kernels.sweep_py(*args, 1.0, labels, constraint, gen, 5)
    assert np.array_equal(labels, start)
    assert gen.bit_generator.state == before


def _triangle_csr():
    return (np.array([0, 2, 4, 6]), np.array([1, 2, 0, 2, 0, 1]),
            np.ones(6))


def _decreasing_csr():
    # in range, but row 1 would read [3, 1) and rows 0 and 2 overlap
    return np.array([0, 3, 1, 4]), np.array([1, 2, 0, 1]), np.ones(4)


@pytest.mark.parametrize("explicit", [False, True])
def test_kernels_reject_decreasing_indptr(explicit):
    # an indptr that falls, whether or not its values lie in [0, m], fails
    # both graph checks with one InputError, which names the CSR and the
    # row where it falls
    n = 3
    name = "rep_indptr" if explicit else "indptr"
    model = ((kernels.REP_EXPLICIT, np.zeros(n), 1.0) if explicit
             else (kernels.REP_PRODUCT, np.ones(n), 3.0))
    decreasing = _decreasing_csr()
    ptr = decreasing[0].copy()
    ptr[1] = decreasing[1].shape[0] + 1
    for bad in (decreasing, (ptr, *decreasing[1:])):
        att, rep = (_triangle_csr(), bad) if explicit else (bad, _triangle_csr())
        _rejected_alike((n, *att, *model, *rep),
                        rf"^{name} must run from 0 to 4 and never fall, not "
                        rf"from 0 to 4 falling at rows \[1\]$")


# The kd-tree search the C kNN replaced: cKDTree proposes m candidates per
# item, m doubled for items whose ties with the k-th neighbour may run past
# the list, and the candidates are ranked by exact distance and index.
_TIE_MARGIN = 1.0 + 1e-9


def _kdtree_nearest(points, k, metric):
    """Each item's k nearest others by (distance, index), rows in free
    order: a second oracle, independent of knn_py's brute force."""
    n = points.shape[0]
    tree = cKDTree(points)
    nn = np.empty((n, k), dtype=np.int64)
    nn_dist = np.empty((n, k))
    rows = np.arange(n)
    m = min(k + 2, n)
    while rows.size:
        d, cand = tree.query(points[rows], k=m)
        # self sits at distance 0, so column k is the k-th other item
        done = (d[:, -1] > d[:, k] * _TIE_MARGIN) | (m == n)
        rest, rows, cand = rows[~done], rows[done], cand[done]
        ends, others = points[rows, None, :], points[cand]
        sq = np.zeros(cand.shape)
        for c in range(points.shape[1]):
            sq += (ends[..., c] - others[..., c]) ** 2
        dist = 0.5 * sq if metric == "cosine" else np.sqrt(sq)
        dist[cand == rows[:, None]] = np.inf
        order = np.lexsort((cand, dist), axis=-1)[:, :k]
        nn[rows] = np.take_along_axis(cand, order, axis=-1)
        nn_dist[rows] = np.take_along_axis(dist, order, axis=-1)
        rows, m = rest, min(2 * m, n)
    return nn, nn_dist


def _knn_inputs():
    """(label, points) cases with exact ties, duplicates, cancellation
    and wide scales, n up to 500; then squared sums in the subnormal range
    (where the gate's absolute margin counts), near the float64 limit and
    past it (every distance inf), and two larger sets: 2000 x 2, whose
    leaves batch full queries and prune by box, and 400 x 16."""
    rng = np.random.default_rng(7)
    for n, d in ((2, 1), (13, 1), (60, 2), (200, 3), (500, 2), (120, 8)):
        yield f"random-{n}x{d}", rng.standard_normal((n, d))
        yield f"grid-{n}x{d}", rng.integers(0, 4, (n, d)).astype(float)
        base = rng.standard_normal((max(1, n // 6), d))
        dup = base[rng.integers(0, base.shape[0], n)]
        dup[: n // 2] = dup[0]  # one large group of identical points
        yield f"duplicates-{n}x{d}", dup
        yield f"offset-{n}x{d}", 1e6 + rng.standard_normal((n, d))
        scale = 10.0 ** rng.choice([-8.0, 0.0, 8.0], d)
        yield f"scaled-{n}x{d}", rng.standard_normal((n, d)) * scale
    for n, d in ((60, 2), (200, 3), (120, 8)):
        for scale in (1e-160, 1e150, 1e160):
            yield f"scale-{scale:g}-{n}x{d}", rng.standard_normal((n, d)) * scale
    yield "random-2000x2", rng.standard_normal((2000, 2))
    yield "random-400x16", rng.standard_normal((400, 16))


def _graph_of(nn, dist):
    """The kNN graph of each item's neighbours `nn` at distances `dist`:
    the unique pairs (i, j), i < j, in order, each with its distance."""
    n, k = nn.shape
    rows = np.repeat(np.arange(n), k)
    lo, hi = np.minimum(rows, nn.ravel()), np.maximum(rows, nn.ravel())
    keys, first = np.unique(lo * n + hi, return_index=True)
    return np.stack([keys // n, keys % n], axis=1), dist.ravel()[first]


@needs_cc
@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_knn_backends_agree(metric):
    # C and numpy bit for bit; the graph of the old cKDTree search, which
    # picks the same neighbours at the same distances, is the same too
    assert kernels.BACKEND == "c"
    for label, points in _knn_inputs():
        if metric == "cosine":  # unit vectors, as build_knn_graph passes
            with np.errstate(over="ignore"):  # the overflowing scale
                norms = np.linalg.norm(points, axis=1)
            points = points[norms > 0] / norms[norms > 0, None]
        n = points.shape[0]
        largest = n - 1 if n <= 500 else 100  # k = n - 1 costs O(n^2)
        for k in sorted({1, 2, 5, 10, largest} & set(range(1, n))):
            case = (label, k)
            try:
                want = kernels.knn_graph_py(points, k, metric)
            except NumericalError as exc:
                # overflow: no graph; and cKDTree reports no neighbour (index
                # n) at an infinite distance, so it cannot rank them
                assert "overflows" in str(exc), case
                with pytest.raises(NumericalError, match="overflows"):
                    kernels.knn_graph(points, k, metric)
                continue
            got = kernels.knn_graph(points, k, metric)
            _same_arrays(got, want)
            _same_arrays(got, _graph_of(*_kdtree_nearest(points, k, metric)))


@pytest.mark.parametrize("knn_graph",
                         [kernels.knn_graph, kernels.knn_graph_py])
def test_knn_rejects_bad_arguments(knn_graph):
    points = np.zeros((4, 2))
    for k in (0, 4):
        with pytest.raises(ValueError, match="k must satisfy"):
            knn_graph(points, k)
    with pytest.raises(ValueError, match="unknown metric"):
        knn_graph(points, 1, "manhattan")
    with pytest.raises(ValueError, match="n x d matrix"):
        knn_graph(np.zeros(4), 1)


def _triples(rows, cols, vals):
    return (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
            np.asarray(vals, dtype=np.float64))


def _pairs_inputs(rng):
    """(n, rows, cols, vals) entry lists for the pair kernels."""
    big = 2.0 ** 53  # big + 1 rounds back to big: input order shows
    yield 2, *_triples([0, 1, 0], [1, 0, 1], [1.0, 1.0, big])
    yield 2, *_triples([0, 1, 0], [1, 0, 1], [big, 1.0, 1.0])
    yield 1, *_triples([], [], [])           # one item, no entry
    yield 1, *_triples([0, 0], [0, 0], [0.5, -0.0])
    yield 6, *_triples([], [], [])           # no entry at all
    yield 9, *_triples([7, 1, 7, 3], [3, 7, 1, 7], [1.0, 2.0, 3.0, 4.0])
    for trial in range(60):
        n = int(rng.integers(1, 50))
        m = int(rng.integers(0, 5 * n))
        if trial % 3 == 0:  # few pairs, each repeated in both directions
            base = rng.integers(0, n, (max(1, n // 4), 2))
            ends = base[rng.integers(0, len(base), m)]
            flip = rng.random(m) < 0.5
            rows = np.where(flip, ends[:, 1], ends[:, 0])
            cols = np.where(flip, ends[:, 0], ends[:, 1])
        else:
            rows, cols = rng.integers(0, n, (2, m))
        if trial % 2:  # signed zeros beside other values
            vals = rng.choice([-0.0, 0.0, 1.0, -2.5, 0.1, big], m)
        else:
            vals = rng.random(m)
        yield n, *_triples(rows, cols, vals)


def _same_arrays(got, want):
    assert [(a.dtype, a.shape) for a in got] == [(a.dtype, a.shape)
                                                 for a in want]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@needs_cc
def test_pair_kernels_agree_with_references(rng):
    # C and numpy bit for bit: pairs (summed and averaged) and their CSR
    for n, rows, cols, vals in _pairs_inputs(rng):
        for mean in (False, True):
            got = kernels._pairs_c(n, rows, cols, vals, mean)
            want = kernels.pairs_py(n, rows, cols, vals, mean)
            _same_arrays(got, want)
            for a in got:  # exact size: owns its data, no larger buffer
                assert a.base is None and a.flags.owndata
    # the weights of a pair's repeats are added in input order, and the
    # CSR holds the sum at both of the pair's entries
    big = 2.0 ** 53
    _, _, summed, _, _, weights = kernels._pairs_c(
        2, *_triples([0, 1, 0], [1, 0, 1], [1.0, 1.0, big]))
    assert summed.tolist() == [(1.0 + 1.0) + big] != [(big + 1.0) + 1.0]
    assert weights.tolist() == 2 * summed.tolist()


def _affinity_inputs(rng):
    """(n, edges, dist, rank) neighbour graphs for the affinity kernels:
    unique ordered pairs with ties, zeros (signed too) and all-zero
    items, one item with 400 edges, and ranks from 1 to past every
    degree."""
    for trial in range(60):
        n = int(rng.integers(2, 30))
        rows, cols = np.triu_indices(n, 1)
        keep = (rng.random(rows.shape[0]) < rng.random()) | (cols == rows + 1)
        if trial % 4 == 0:  # one item with 400 edges
            n += 400
            rows = np.concatenate([rows[keep], np.zeros(400, dtype=int)])
            cols = np.concatenate([cols[keep], np.arange(n - 400, n)])
            keep = np.ones(rows.shape[0], dtype=bool)
        edges = np.stack([rows[keep], cols[keep]], axis=1).astype(np.int64)
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        m = edges.shape[0]
        if trial % 2:  # few distinct values: long runs of ties, and zeros
            dist = rng.choice([0.0, -0.0, 0.5, 1.0, 2.0], m)
        else:
            dist = rng.random(m)
        yield n, edges, dist, int(rng.choice([1, 2, 3, 5, 9, 40, n]))
    # an item whose edges are all at distance 0, beside positive ones
    yield 4, np.array([[0, 1], [1, 2], [2, 3]]), np.array([0.0, 1.0, 2.0]), 1
    # every distance 0: every sigma is 0
    yield 3, np.array([[0, 1], [1, 2]]), np.array([0.0, -0.0]), 1


def _outcome(call):
    """The arrays `call` returns, or the type and message it raises."""
    try:
        return [np.asarray(a).tobytes() for a in call()]
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc), str(exc)


def _sorted_row_sigma(n, edges, dist, rank):
    """sigma_i by sorting item i's distances outright."""
    sigma = np.empty(n)
    for i in range(n):
        row = np.sort(dist[(edges[:, 0] == i) | (edges[:, 1] == i)])
        sigma[i] = row[min(max(rank - 1, int(np.sum(row == 0.0))),
                           row.shape[0] - 1)]
    if np.any(sigma <= 0.0):
        sigma = np.maximum(sigma, np.max(sigma) * 1e-12)
    return sigma


@needs_cc
def test_affinity_kernels_agree_with_references(rng):
    # C and numpy bit for bit, or the same error; sigma is a value of its
    # row, the one sorting the row outright picks
    for n, edges, dist, rank in _affinity_inputs(rng):
        for inverse in (False, True):
            got = _outcome(lambda: kernels._affinity_layout_c(
                n, edges, dist, rank, inverse)[0])
            assert got == _outcome(lambda: kernels.affinity_layout_py(
                n, edges, dist, rank, inverse)[0])
            try:
                (_, _, pair), vals = kernels._affinity_layout_c(
                    n, edges, dist, rank, inverse)
            except NumericalError:
                continue
            want = kernels.affinity_layout_py(n, edges, dist, rank, inverse)[1]
            assert vals.tobytes() == want.tobytes()
            if not inverse:
                sigma = _sorted_row_sigma(n, edges, dist, rank)
                oracle = -dist ** 2 / (sigma[edges[:, 0]] * sigma[edges[:, 1]])
                assert vals.tobytes() == oracle.tobytes()
            sim = 1.0 / dist if inverse else np.exp(vals)
            assert _outcome(lambda: kernels._affinity_weights_c(
                n, edges, pair, sim)) == _outcome(
                lambda: kernels.affinity_weights_py(n, edges, pair, sim))
    # similarities the weights refuse: non-finite, none positive, an item
    # (0) whose similarities sum to 0
    edges = np.array([[0, 1], [1, 2], [2, 3]])
    pair = kernels.affinity_layout_py(4, edges, np.ones(3), 1)[0][2]
    for sim in ([1.0, np.nan, 1.0], [1.0, np.inf, 1.0], [0.0, 0.0, -0.0],
                [0.0, 1.0, 1.0], [-0.0, 1.0, 2.0], [0.25, 1e-300, 4.0]):
        sim = np.array(sim)
        got = _outcome(lambda: kernels._affinity_weights_c(4, edges, pair, sim))
        assert got == _outcome(
            lambda: kernels.affinity_weights_py(4, edges, pair, sim))


def _graph_kernels():
    """(pairs, affinity_layout, affinity_weights) of each backend
    present."""
    yield (kernels.pairs_py, kernels.affinity_layout_py,
           kernels.affinity_weights_py)
    if kernels.BACKEND == "c":
        yield (kernels._pairs_c, kernels._affinity_layout_c,
               kernels._affinity_weights_c)


def test_graph_kernels_reject_bad_indices():
    # both backends raise the same exception, from their checks before
    # any output is made, and leave the inputs as they were
    vals = np.array([1.0, 2.0, 3.0])
    bad_ends = (("rows", [0, -1, 1], [1, 0, 2]), ("rows", [0, 3, 1], [1, 0, 2]),
                ("cols", [0, 2, 1], [1, 0, 3]), ("cols", [0, 2, 1], [-1, 0, 3]))
    edges = np.array([[0, 1], [1, 2]])
    pair = np.array([0, 0, 1, 1])
    bad_edges = ((np.array([[0, 1], [1, 3]]), pair, "edges", r"\[0, 3\)"),
                 (np.array([[0, 1], [-1, 2]]), pair, "edges", r"\[0, 3\)"),
                 (edges, np.array([0, 0, 2, 1]), "pair", r"\[0, 2\)"),
                 (edges, np.array([0, -1, 1, 1]), "pair", r"\[0, 2\)"))
    for pairs, layout, weights in _graph_kernels():
        for name, r, c in bad_ends:
            rows, cols, _ = _triples(r, c, vals)
            with pytest.raises(IndexError,
                               match=rf"^{name} out of range \[0, 3\)$"):
                pairs(3, rows, cols, vals)
            assert rows.tolist() == r and cols.tolist() == c
        for ends, at, name, bounds in bad_edges:
            with pytest.raises(IndexError,
                               match=rf"^{name} out of range {bounds}$"):
                weights(3, ends, at, np.ones(2))
        # a neighbour graph's faults are the data's: InputError
        with pytest.raises(InputError, match=r"^edge \(1, 3\) must be a pair"):
            layout(3, np.array([[0, 1], [1, 3]]), np.ones(2), 1)
        rows, cols, _ = _triples([0, 2, 1], [1, 0, 2], vals)
        with pytest.raises(ValueError, match="cols has length 2"):
            pairs(3, rows, cols[:2], vals)
        with pytest.raises(ValueError, match="C-contiguous 1-D int64"):
            pairs(3, rows.astype(np.int32), cols, vals)
        with pytest.raises(ValueError, match=r"C-contiguous \(m, 2\) int64"):
            layout(3, np.array([[0, 1, 9], [1, 2, 9]])[:, :2], np.ones(2), 1)
        with pytest.raises(ValueError, match="dist has length 1"):
            layout(3, edges, np.ones(1), 1)
        with pytest.raises(ValueError, match="pair has length 3"):
            weights(3, edges, pair[:3], np.ones(2))


def test_address_is_the_ctypes_address():
    # writable, read-only, empty and offset arrays alike
    base = np.arange(8, dtype=np.int64)
    frozen = base.copy()
    frozen.flags.writeable = False
    for arr in (base, base[3:], frozen, np.empty(0),
                np.frombuffer(bytes(16), dtype=np.float64)):
        assert kernels._address(arr) == arr.ctypes.data


def test_every_c_status_code_is_mapped():
    # each ERR_ code of _kernels.c must reach its exception through
    # _raise, a builtin one for a bad argument or a package error for a
    # fault in the data; an unmapped code raises KeyError, which fails the
    # loop
    with open(kernels._SOURCE, encoding="utf-8") as fh:
        codes = {name: int(value) for name, value in re.findall(
            r"^#define (ERR_\w+) \((-\d+)\)$", fh.read(), flags=re.MULTILINE)}
    values = list(codes.values())
    assert len(values) >= 8 and len(set(values)) == len(values)
    assert all(v < 0 for v in values)
    for name, value in codes.items():
        with pytest.raises((MemoryError, IndexError, ValueError,
                            ConfresError)) as info:
            kernels._raise(value, 3, 4)
        assert str(info.value), name
    with pytest.raises(KeyError):
        kernels._raise(min(values) - 1, 3, 4)


def test_graph_struct_matches_graph_t():
    # kernels.Graph declares graph_t's fields in its order, 8 bytes each,
    # so neither layout has padding and every field lands where C reads it
    with open(kernels._SOURCE, encoding="utf-8") as fh:
        body = re.search(r"typedef struct \{([^{}]*)\} graph_t;",
                         fh.read()).group(1)
    body = re.sub(r"/\*.*?\*/", "", body, flags=re.DOTALL)
    names = [name for decl in body.split(";")
             for name in re.findall(r"(\w+)\s*(?:,|$)", decl.strip())]
    fields = kernels.Graph._fields_
    assert len(names) >= 12
    assert names == [name for name, _ in fields]
    assert all(ctypes.sizeof(kind) == 8 for _, kind in fields)
    assert ctypes.sizeof(kernels.Graph) == 8 * len(names)


_DETACHED_VIEW = """
import types
import numpy as np
from confres import kernels
from confres.graph import build_knn_graph, derive_affinity

points = np.random.default_rng(0).standard_normal((3000, 2))
graph = derive_affinity(build_knn_graph(points, k=10))
# fresh copies of the arrays, freed once a view of them is made, then
# memory filled with random integers, which no CSR can read
copies = types.SimpleNamespace(
    n=graph.n, rep_mode=graph.rep_mode, rep_denom=graph.rep_denom,
    **{name: getattr(graph, name).copy() for name in (
        "indptr", "indices", "weights", "rep_strength", "rep_indptr",
        "rep_indices", "rep_weights")})
view = kernels._check_graph_c(copies)
del copies
noise = np.random.default_rng(1)
filler = [noise.integers(-2 ** 62, 2 ** 62, size) for _ in range(8)
          for size in (graph.n + 1, graph.indices.shape[0])]
for name, call in (
        ("level_loop", lambda: kernels.level_loop(
            view, 1.0, np.random.default_rng(0), 32, 100, 1000)),
        ("components", lambda: kernels.components(view))):
    try:
        call()
    except Exception as exc:
        print(name, "raised", type(exc).__name__, flush=True)
    else:
        print(name, "returned", flush=True)
"""


@needs_cc
def test_kernels_refuse_a_view_detached_from_its_arrays():
    # a kernels.Graph holds addresses and no reference to the arrays, so
    # level_loop and components take the AffinityGraph, which keeps both:
    # handed a bare view of arrays since freed, each raises a Python
    # exception and never reads them.  In a process of its own, so that a
    # crash fails only this test
    src = os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    ran = subprocess.run([sys.executable, "-c", _DETACHED_VIEW], env=env,
                         capture_output=True, text=True, timeout=120)
    assert ran.returncode == 0, (ran.returncode, ran.stderr)
    lines = ran.stdout.split("\n")[:-1]
    assert [line.split()[:2] for line in lines] == [
        ["level_loop", "raised"], ["components", "raised"]], ran.stdout


def _exports(source):
    """{name: parameter count} of each `int64_t name(...)` that starts a
    line of C `source`: the kernels it defines or declares."""
    return {name: params.count(",") + 1 for name, params in re.findall(
        r"^int64_t (\w+)\(([^)]*)\)", source, re.MULTILINE)}


@has_compiler
def test_ctypes_declares_every_export():
    # without argtypes ctypes passes an int as a 32-bit int, and without
    # restype reads a 32-bit result: every export needs both, at its
    # arity, and nothing else may be declared; the harnesses' prototypes
    # must match too
    with open(kernels._SOURCE, encoding="utf-8") as fh:
        exports = _exports(fh.read())
    assert sorted(exports) == ["affinity_layout", "affinity_weights",
                               "check_graph", "components", "knn_graph",
                               "level_loop", "pairs", "parse_points"]
    lib = kernels._load_library()
    declared = {name: fn for name, fn in vars(lib).items()
                if isinstance(fn, lib._FuncPtr)}
    assert {name: len(fn.argtypes) for name, fn in declared.items()} == exports
    assert all(fn.restype is ctypes.c_int64 for fn in declared.values())
    assert _exports(_PRELUDE) == exports


@has_compiler
def test_c_source_compiles_without_warnings(tmp_path):
    compiler = shutil.which("cc") or shutil.which("gcc")
    built = subprocess.run(
        [compiler, *kernels.CFLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "kernels.so"), kernels._SOURCE],
        capture_output=True, text=True)
    assert built.returncode == 0, built.stderr


def test_backend_flag_disables_compilation():
    code = ("import confres.kernels as k; "
            "print(k.BACKEND, k.sweep is k.sweep_py)")
    env = dict(os.environ, CONFRES_DISABLE_COMPILED="1")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["python", "True"]


@has_compiler
def test_failed_build_is_remembered(tmp_path, monkeypatch):
    broken = tmp_path / "_kernels.c"
    broken.write_text("this is not C;\n")
    monkeypatch.setattr(kernels, "_SOURCE", str(broken))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with pytest.warns(RuntimeWarning, match=r"\.failed") as first:
        assert kernels._load_library() is None
    assert len(first) == 1
    (marker,) = (tmp_path / "confres").glob("kernels-*.failed")
    assert "error" in marker.read_text()

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran again")

    monkeypatch.setattr(kernels.subprocess, "run", no_compiler)
    with pytest.warns(RuntimeWarning, match=marker.name) as again:
        assert kernels._load_library() is None
    assert len(again) == 1
    marker.unlink()  # deleting the marker retries the build
    with pytest.raises(AssertionError, match="compiler ran again"):
        kernels._load_library()


# The C interface of _kernels.c, declared once for every harness: graph_t
# and numpy's bitgen_t as the kernels read them, the eight exported
# kernels, a xorshift64 bitgen_t that counts its draws, a graph whose rows
# reach every cluster, and the report line each harness prints per case.
_PRELUDE = r"""
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    int64_t n, m;
    const int64_t *indptr, *indices;
    const double *weights;
    int64_t rep_mode;
    const double *rep_strength;
    double rep_denom;
    int64_t rep_m;
    const int64_t *rep_indptr, *rep_indices;
    const double *rep_weights;
} graph_t;

typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *);
    uint32_t (*next_uint32)(void *);
    double (*next_double)(void *);
    uint64_t (*next_raw)(void *);
} bitgen_t;

int64_t check_graph(const graph_t *, int64_t *);
int64_t level_loop(const graph_t *, double, int64_t, int64_t, int64_t,
                   double, int64_t *, double *, const bitgen_t *);
int64_t components(const graph_t *, int64_t *, double *);
int64_t pairs(int64_t, int64_t, const int64_t *, const int64_t *,
              const double *, int64_t, int64_t *, int64_t *, double *,
              int64_t *, int64_t *, double *);
int64_t knn_graph(int64_t, int64_t, const double *, int64_t, int64_t,
                  int64_t *, double *);
int64_t affinity_layout(int64_t, int64_t, const int64_t *, const double *,
                        int64_t, int64_t, int64_t *, int64_t *, int64_t *,
                        double *, int64_t *);
int64_t affinity_weights(int64_t, int64_t, const int64_t *, const int64_t *,
                         const double *, double *, double *, double *);
int64_t parse_points(const char *, int64_t, double *, int64_t, int64_t *);

/* The CSR (ptr, idx, w) over n items with the repulsion model, its CSR
 * (rptr, ridx, rw) NULL for product form. */
static graph_t graph(int64_t n, const int64_t *ptr, const int64_t *idx,
                     const double *w, int64_t rep_mode, const double *rho,
                     double denom, const int64_t *rptr, const int64_t *ridx,
                     const double *rw)
{
    return (graph_t){n, ptr[n], ptr, idx, w, rep_mode, rho, denom,
                     rptr ? rptr[n] : 0, rptr, ridx, rw};
}

static long draws;  /* numbers drawn from any xorshift generator */

static uint64_t next64(void *state)
{
    uint64_t *x = state;  /* xorshift64 */
    draws++;
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    return *x;
}

static uint32_t next32(void *state) { return (uint32_t)(next64(state) >> 32); }

/* A bit generator over `state`, which it seeds. */
static bitgen_t xorshift(uint64_t *state)
{
    *state = 88172645463325252ULL;
    return (bitgen_t){state, next64, next32, NULL, NULL};
}

/* Item 0 attracted to and, three times as strongly, repelled by each of
 * 1..5: at gamma = 0.5 no item moves, so from singletons item 0's rows
 * reach all n - 1 = 5 other clusters each time it is evaluated. */
static graph_t every_cluster(void)
{
    static const int64_t ptr[] = {0, 5, 6, 7, 8, 9, 10};
    static const int64_t idx[] = {1, 2, 3, 4, 5, 0, 0, 0, 0, 0};
    static const double w[] = {1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
    static const double rw[] = {3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, zeros[6] = {0};
    return graph(6, ptr, idx, w, 1, zeros, 1.0, ptr, idx, rw);
}

static int report(const char *name, int64_t status, int ok)
{
    printf("%s: status %lld, %s\n", name, (long long)status, ok ? "ok" : "BAD");
    return !ok;
}
"""

# Runs the C level loop, with a toy bit generator, on four small graphs,
# one of them the prelude's every-cluster rows; exits 0 only if each call
# returns 0, canonical labels and a finite energy.
_SANITIZER_MAIN = r"""
static int run(const char *name, graph_t g, double gamma)
{
    int64_t out[8];
    double energy[2];
    uint64_t state;
    bitgen_t rng = xorshift(&state);
    int64_t status = level_loop(&g, gamma, 32, 100, 1000, 1e-12, out, energy,
                                &rng);
    int ok = status == 0;
    for (int64_t i = 0, top = -1; ok && i < g.n; i++) {
        ok = out[i] >= 0 && out[i] <= top + 1;
        top = out[i] > top ? out[i] : top;
    }
    if (ok)
        ok = isfinite(energy[0]) && isfinite(energy[1]);
    return report(name, status, ok);
}

int main(void)
{
    const int64_t tri_ptr[] = {0, 2, 4, 6}, tri_idx[] = {1, 2, 0, 2, 0, 1};
    const double tri_w[] = {1, 1, 1, 1, 1, 1}, ones[] = {1, 1, 1, 1, 1, 1};
    const int64_t pairs_ptr[] = {0, 1, 2, 3, 4}, pairs_idx[] = {1, 0, 3, 2};
    const double pairs_w[] = {2, 2, 1, 1}, pairs_rho[] = {2, 2, 1, 1};
    /* a path 0-1-2-3-4-5 plus 0-2, repelled by 0-5, 1-4 and 2-3 */
    const int64_t path_ptr[] = {0, 2, 4, 7, 9, 11, 12};
    const int64_t path_idx[] = {1, 2, 0, 2, 0, 1, 3, 2, 4, 3, 5, 4};
    const double path_w[] = {3, 1, 3, 2, 1, 2, 1, 1, 3, 3, 2, 2};
    const int64_t rep_ptr[] = {0, 1, 2, 3, 4, 5, 6};
    const int64_t rep_idx[] = {5, 4, 3, 2, 1, 0};
    const double rep_w[] = {1, 2, 4, 4, 2, 1}, zeros[6] = {0};
    return run("triangle", graph(3, tri_ptr, tri_idx, tri_w, 0, ones, 3.0,
                                 NULL, NULL, NULL), 1.0)
        | run("two pairs", graph(4, pairs_ptr, pairs_idx, pairs_w, 0,
                                 pairs_rho, 12.0, NULL, NULL, NULL), 1.0)
        | run("explicit", graph(6, path_ptr, path_idx, path_w, 1, zeros, 1.0,
                                rep_ptr, rep_idx, rep_w), 0.5)
        | run("every cluster", every_cluster(), 0.5);
}
"""

SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all",
            "-fno-omit-frame-pointer")


@pytest.fixture(scope="session")
def sanitized_kernels(tmp_path_factory):
    """(compiler, object): _kernels.c compiled once, under AddressSanitizer
    (leaks included) and UBSan, for every harness to link; skips if the
    sanitizer runtime does not link."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    tmp = tmp_path_factory.mktemp("sanitized")
    probe = tmp / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    linked = subprocess.run([compiler, *SANITIZE, "-o", str(tmp / "probe"),
                             str(probe)], capture_output=True, text=True)
    if linked.returncode != 0:
        pytest.skip(f"the sanitizer runtime does not link: {linked.stderr}")
    obj = tmp / "kernels.o"
    built = subprocess.run(
        [compiler, "-c", "-O1", "-g", "-ffp-contract=off", *SANITIZE, "-o",
         str(obj), kernels._SOURCE], capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
    return compiler, obj


def _run_sanitized(tmp_path, sanitized_kernels, driver, *link_flags):
    """`driver` (C source, after the shared prelude) linked with the
    sanitized kernels object and run with LeakSanitizer on; asserts that
    it exits 0 and returns its output."""
    compiler, obj = sanitized_kernels
    main = tmp_path / "main.c"
    main.write_text(_PRELUDE + driver)
    exe = tmp_path / "check"
    built = subprocess.run(
        [compiler, "-O1", "-g", "-ffp-contract=off", *SANITIZE, *link_flags,
         "-o", str(exe), str(main), str(obj), "-lm"],
        capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
    ran = subprocess.run([str(exe)], capture_output=True, text=True,
                         timeout=60,
                         env=dict(os.environ, ASAN_OPTIONS="detect_leaks=1"))
    assert ran.returncode == 0, ran.stdout + ran.stderr
    return ran.stdout


@has_compiler
def test_level_loop_is_clean_under_sanitizers(tmp_path, sanitized_kernels):
    # the level loop's allocation and aggregation indexing
    out = _run_sanitized(tmp_path, sanitized_kernels, _SANITIZER_MAIN)
    assert out.count(": status") == 4 and "BAD" not in out, out


# Runs the C graph check on four graphs that keep the contract and on
# graphs with one fault each, in a cursor of exactly n heap slots; exits
# 0 only if each call returns 0 or 1 as expected.  Without the checks in
# their order, a faulty graph would be read past its arrays.
_CHECK_SANITIZER_MAIN = r"""
static int run(const char *name, graph_t g, int64_t want)
{
    int64_t *cursor = malloc((size_t)g.n * sizeof(int64_t));
    int64_t status = check_graph(&g, cursor);
    free(cursor);
    return report(name, status, status == want);
}

int main(void)
{
    /* weights of 1 to fill CSRs of 1, 3, 4 and 6 entries exactly */
    const double w1[] = {1}, w3[] = {1, 1, 1}, w4[] = {1, 1, 1, 1};
    const double w6[] = {1, 1, 1, 1, 1, 1}, zeros[3] = {0};
    const int64_t tri_ptr[] = {0, 2, 4, 6}, tri_idx[] = {1, 2, 0, 2, 0, 1};
    const double tri_w[] = {1, 2, 1, 3, 2, 3};
    const double twin_w[] = {1, 2, 1, 3, 2, 4}, nan_w[] = {1, NAN, 1, 3, NAN, 3};
    const double bad_rho[] = {1, NAN, 1};
    const int64_t empty_ptr[] = {0, 0}, no_idx[] = {0};
    const int64_t far_idx[] = {1, 3, 0, 2, 0, 1};  /* 3 >= n, cursor[3] */
    const int64_t fall_ptr[] = {0, 3, 1, 4}, fall_idx[] = {1, 2, 0, 1};
    const int64_t loop_ptr[] = {0, 2, 3}, loop_idx[] = {0, 1, 0};
    const int64_t twice_ptr[] = {0, 2, 4}, twice_idx[] = {1, 1, 0, 0};
    /* 0 -> 1 with row 1 empty: its twin would be read at idx[1] */
    const int64_t one_way_ptr[] = {0, 1, 1}, one_way_idx[] = {1};
    const int64_t rep_ptr[] = {0, 1, 1, 1}, rep_idx[] = {2};  /* one-way */
    graph_t tri = graph(3, tri_ptr, tri_idx, tri_w, 0, w3, 3.0, NULL, NULL,
                        NULL);
    graph_t denom = tri, rho = tri;
    denom.rep_denom = 0.0;
    rho.rep_strength = bad_rho;
    return run("triangle", tri, 0)
        | run("explicit triangle", graph(3, tri_ptr, tri_idx, tri_w, 1, zeros,
                                         1.0, tri_ptr, tri_idx, tri_w), 0)
        | run("every cluster", every_cluster(), 0)
        | run("one item", graph(1, empty_ptr, no_idx, w1, 0, w1, 1.0, NULL,
                                NULL, NULL), 0)
        | run("index out of range", graph(3, tri_ptr, far_idx, w6, 0, w3, 3.0,
                                          NULL, NULL, NULL), 1)
        | run("decreasing indptr", graph(3, fall_ptr, fall_idx, w4, 0, w3,
                                         3.0, NULL, NULL, NULL), 1)
        | run("self-loop", graph(2, loop_ptr, loop_idx, w3, 0, w3, 2.0, NULL,
                                 NULL, NULL), 1)
        | run("repeated column", graph(2, twice_ptr, twice_idx, w4, 0, w3,
                                       2.0, NULL, NULL, NULL), 1)
        | run("one-way entry", graph(2, one_way_ptr, one_way_idx, w1, 0, w3,
                                     2.0, NULL, NULL, NULL), 1)
        | run("twin weights differ", graph(3, tri_ptr, tri_idx, twin_w, 0, w3,
                                           3.0, NULL, NULL, NULL), 1)
        | run("NaN weight", graph(3, tri_ptr, tri_idx, nan_w, 0, w3, 3.0,
                                  NULL, NULL, NULL), 1)
        | run("rep_denom 0", denom, 1)
        | run("NaN rep_strength", rho, 1)
        | run("one-way repulsion", graph(3, tri_ptr, tri_idx, tri_w, 1, zeros,
                                         1.0, rep_ptr, rep_idx, w1), 1);
}
"""


@has_compiler
def test_check_graph_is_clean_under_sanitizers(tmp_path, sanitized_kernels):
    # each fault of the graph contract is found, and reported with status
    # 1, before it could send a read past the graph's arrays
    out = _run_sanitized(tmp_path, sanitized_kernels, _CHECK_SANITIZER_MAIN)
    assert out.count(": status 0, ok") == 4, out
    assert out.count(": status 1, ok") == 10 and "BAD" not in out, out


# Runs the C gamma = 0 kernel on five small graphs; exits 0 only if each
# call returns 0, the expected labels and a finite energy.
_COMPONENTS_SANITIZER_MAIN = r"""
static int run(const char *name, graph_t g, const int64_t *labels)
{
    int64_t out[8];
    double energy[2];
    int64_t status = components(&g, out, energy);
    int ok = status == 0;
    for (int64_t i = 0; ok && i < g.n; i++)
        ok = out[i] == labels[i];
    if (ok)
        ok = isfinite(energy[0]) && isfinite(energy[1]);
    return report(name, status, ok);
}

int main(void)
{
    const int64_t tri_ptr[] = {0, 2, 4, 6}, tri_idx[] = {1, 2, 0, 2, 0, 1};
    const double tri_w[] = {1, 1, 1, 1, 1, 1}, ones[] = {1, 1, 1, 1};
    const int64_t one_ptr[] = {0, 0}, no_idx[] = {0};
    const double no_w[] = {0};
    /* 0-1 linked, item 2 with no entry */
    const int64_t lone_ptr[] = {0, 1, 2, 2}, lone_idx[] = {1, 0};
    const double lone_w[] = {1, 1};
    /* the path 0-1-2-3 with weights 0, 1 and -0.0 */
    const int64_t path_ptr[] = {0, 1, 3, 5, 6};
    const int64_t path_idx[] = {1, 0, 2, 1, 3, 2};
    const double path_w[] = {0, 0, 1, 1, -0.0, -0.0}, zeros[4] = {0};
    const int64_t rep_ptr[] = {0, 1, 2, 3, 4}, rep_idx[] = {3, 2, 1, 0};
    const double rep_w[] = {1, 2, 2, 1};
    const int64_t all[] = {0, 0, 0}, first[] = {0}, pair[] = {0, 0, 1};
    const int64_t middle[] = {0, 1, 1, 2};
    return run("triangle", graph(3, tri_ptr, tri_idx, tri_w, 0, ones, 2.0,
                                 NULL, NULL, NULL), all)
        | run("one item", graph(1, one_ptr, no_idx, no_w, 0, ones, 2.0, NULL,
                                NULL, NULL), first)
        | run("item with no edge", graph(3, lone_ptr, lone_idx, lone_w, 0,
                                         ones, 2.0, NULL, NULL, NULL), pair)
        | run("zero weights", graph(4, path_ptr, path_idx, path_w, 0, ones,
                                    2.0, NULL, NULL, NULL), middle)
        | run("explicit", graph(4, path_ptr, path_idx, path_w, 1, zeros, 2.0,
                                rep_ptr, rep_idx, rep_w), middle);
}
"""


@has_compiler
def test_components_is_clean_under_sanitizers(tmp_path, sanitized_kernels):
    # the gamma = 0 kernel's allocation and union-find
    out = _run_sanitized(tmp_path, sanitized_kernels,
                         _COMPONENTS_SANITIZER_MAIN)
    assert out.count(": status") == 5 and "BAD" not in out


# Runs the C kNN graph on five point sets, one of identical points and
# one with k past half of n; exits 0 only if each call returns pairs
# i < j in order, exactly the pairs of every item and each of its k
# nearest others by (distance, index), found by brute force, each with
# that distance bit for bit; then the kNN graph of distances that
# overflow must return ERR_OVERFLOW (-13) with its outputs untouched.
_KNN_SANITIZER_MAIN = r"""
static uint64_t uniform_state = 88172645463325252ULL;

static double uniform(void)  /* in [0, 1) */
{
    return (double)(next64(&uniform_state) >> 11) / 9007199254740992.0;
}

/* Item i's k nearest others by (distance, index), by brute force: their
 * indices to nn and distances to dist, in that order. */
static void nearest(int64_t n, int64_t d, const double *points, int64_t k,
                    int64_t half_square, int64_t i, int64_t *nn, double *dist)
{
    int64_t size = 0;
    for (int64_t j = 0; j < n; j++) {
        if (j == i)
            continue;
        double sq = 0.0;
        for (int64_t c = 0; c < d; c++) {
            double gap = points[i * d + c] - points[j * d + c];
            sq += gap * gap;
        }
        double at = half_square ? 0.5 * sq : sqrt(sq);
        int64_t r = size < k ? size++ : k;  /* insertion, the worst out */
        for (; r > 0 && dist[r - 1] > at; r--)
            if (r < k) {
                nn[r] = nn[r - 1];
                dist[r] = dist[r - 1];
            }
        if (r < k) {
            nn[r] = j;
            dist[r] = at;
        }
    }
}

static int run(const char *name, int64_t n, int64_t d, const double *points,
               int64_t k, int64_t half_square)
{
    int64_t *edges = malloc((size_t)(2 * n * k) * sizeof *edges);
    double *weights = malloc((size_t)(n * k) * sizeof *weights);
    char *hit = calloc((size_t)(n * k), 1);
    int64_t *nn = malloc((size_t)k * sizeof *nn);
    double *dist = malloc((size_t)k * sizeof *dist);
    int64_t found = knn_graph(n, d, points, k, half_square, edges, weights);
    int ok = found >= (n * k + 1) / 2 && found <= n * k;
    for (int64_t p = 0; ok && p < found; p++) {
        int64_t i = edges[2 * p], j = edges[2 * p + 1];
        ok = 0 <= i && i < j && j < n
             && (p == 0 || i > edges[2 * p - 2]
                 || (i == edges[2 * p - 2] && j > edges[2 * p - 1]));
    }
    for (int64_t i = 0; ok && i < n; i++) {
        nearest(n, d, points, k, half_square, i, nn, dist);
        for (int64_t r = 0; ok && r < k; r++) {
            int64_t lo = i < nn[r] ? i : nn[r], hi = i + nn[r] - lo, p = 0;
            while (p < found && (edges[2 * p] != lo || edges[2 * p + 1] != hi))
                p++;
            ok = p < found && !memcmp(&weights[p], &dist[r], sizeof *dist);
            if (ok)
                hit[p] = 1;
        }
    }
    for (int64_t p = 0; ok && p < found; p++)
        ok = hit[p];  /* no pair beyond the nearest */
    free(edges);
    free(weights);
    free(hit);
    free(nn);
    free(dist);
    return report(name, found, ok);
}

static int overflow(void)
{
    const double far[] = {0.0, 1e160, -1e160, 3.0, 4.0};
    int64_t edges[10] = {0};
    double weights[5] = {0};
    int64_t status = knn_graph(5, 1, far, 1, 0, edges, weights);
    int ok = status == -13;
    for (int i = 0; i < 10; i++)
        ok = ok && edges[i] == 0 && (i >= 5 || weights[i] == 0.0);
    return report("overflow", status, ok);
}

int main(void)
{
    double *cloud = malloc(64 * 3 * sizeof *cloud);
    double *same = malloc(40 * 2 * sizeof *same);
    double *line = malloc(17 * sizeof *line);
    double *unit = malloc(50 * 4 * sizeof *unit);
    double *wide = malloc(100 * 2 * sizeof *wide);
    for (int i = 0; i < 64 * 3; i++)
        cloud[i] = uniform();
    for (int i = 0; i < 100 * 2; i++)
        wide[i] = uniform();
    for (int i = 0; i < 40 * 2; i++)
        same[i] = 0.25;
    for (int i = 0; i < 17; i++)
        line[i] = (i * 7) % 17;  /* distinct, with many equal gaps */
    for (int i = 0; i < 50; i++) {
        double norm = 0.0;
        for (int c = 0; c < 4; c++) {
            unit[i * 4 + c] = 2.0 * uniform() - 1.0;
            norm += unit[i * 4 + c] * unit[i * 4 + c];
        }
        for (int c = 0; c < 4; c++)
            unit[i * 4 + c] /= sqrt(norm);
    }
    int bad = run("cloud", 64, 3, cloud, 7, 0)
        | run("identical", 40, 2, same, 39, 0)
        | run("line", 17, 1, line, 16, 0)
        | run("unit", 50, 4, unit, 7, 1)
        | run("wide", 100, 2, wide, 70, 0)
        | overflow();
    free(cloud);
    free(same);
    free(line);
    free(unit);
    free(wide);
    return bad;
}
"""


@has_compiler
def test_knn_is_clean_under_sanitizers(tmp_path, sanitized_kernels):
    # the kd-tree's allocation, build and search, on ties and one split,
    # and the pair grouping of its result
    out = _run_sanitized(tmp_path, sanitized_kernels, _KNN_SANITIZER_MAIN)
    assert out.count(", ok") == 6 and "BAD" not in out, out
    assert "overflow: status -13, ok" in out, out


# Runs the exported pair grouping, with its CSR layout, on entry lists
# with repeats in both directions, an empty list and one item, and, where
# the pairs join distinct items and leave none out, the affinity kernels
# on them, each output in a buffer of exactly the size the kernel may
# write; then each kernel on inputs it must refuse.  Exits 0 only if each
# call returns the expected status, pairs come out unique, in order and in
# range, the CSR rows list ascending columns, each entry holds the weight
# of the pair that joins its row and column, affinity_layout lays the
# pairs out as pairs does and names those pairs, and the weights of each
# row of similarities sum to one.
_GRAPH_SANITIZER_MAIN = r"""
static void *slots(int64_t count, size_t size)  /* exact, never 0 bytes */
{
    return malloc((size_t)(count > 0 ? count : 1) * size);
}

/* affinity_layout and affinity_weights on the pairs (pr, pc) < as edges,
 * their |pv| as distances, both kernels; 1 when all is well */
static int affinity(int64_t n, int64_t found, const int64_t *pr,
                    const int64_t *pc, const double *pv, const int64_t *ptr,
                    const int64_t *idx, const int64_t *pair)
{
    int64_t *edges = slots(2 * found, 8), *lptr = slots(n + 1, 8);
    int64_t *lidx = slots(2 * found, 8), *lpair = slots(2 * found, 8), at;
    double *dist = slots(found, 8), *vals = slots(found, 8);
    double *w = slots(found, 8), *strengths = slots(n, 8);
    double *weights = slots(2 * found, 8);
    int ok = 1;
    for (int64_t p = 0; p < found; p++) {
        edges[2 * p] = pr[p];
        edges[2 * p + 1] = pc[p];
        dist[p] = fabs(pv[p]);
    }
    for (int64_t inverse = 0; ok && inverse <= 1; inverse++) {
        int64_t status = affinity_layout(n, found, edges, dist, 2, inverse,
                                         lptr, lidx, lpair, vals, &at);
        int positive = 1;
        for (int64_t p = 0; p < found; p++)
            positive &= dist[p] > 0.0;
        ok = status == 0 || (inverse && !positive && status == -18);
        if (!ok || status)
            continue;
        ok = !memcmp(lptr, ptr, (size_t)(n + 1) * 8)
             && !memcmp(lidx, idx, (size_t)(2 * found) * 8)
             && !memcmp(lpair, pair, (size_t)(2 * found) * 8);
        for (int64_t p = 0; p < found; p++)
            vals[p] = inverse ? vals[p] : exp(vals[p]);
        ok = ok && affinity_weights(n, found, edges, lpair, vals, w, strengths,
                                    weights) == 0;
        double total = 0.0;
        for (int64_t i = 0; i < n; i++)
            total += strengths[i];
        ok = ok && fabs(total - (double)n) < 1e-9 * (double)n;
    }
    free(edges);
    free(lptr);
    free(lidx);
    free(lpair);
    free(dist);
    free(vals);
    free(w);
    free(strengths);
    free(weights);
    return ok;
}

/* pairs of the entries, with and without mean, and their CSR layout,
 * each entry's pair found by search and its weight compared, and, when
 * every pair joins two items and every item has one, the affinity
 * kernels */
static int run(const char *name, int64_t n, int64_t m, const int64_t *rows,
               const int64_t *cols, const double *vals, int64_t want)
{
    int bad = 0;
    for (int64_t mean = 0; mean <= 1; mean++) {
        int64_t *pr = slots(m, 8), *pc = slots(m, 8), *ptr = slots(n + 1, 8);
        int64_t *idx = slots(2 * m, 8), *pair = slots(2 * m, 8);
        double *pv = slots(m, 8), *weights = slots(2 * m, 8);
        int64_t found = pairs(n, m, rows, cols, vals, mean, pr, pc, pv, ptr,
                              idx, weights);
        int ok = found == want, distinct = 1;
        for (int64_t p = 0; ok && p < found; p++) {
            ok = pr[p] >= 0 && pr[p] <= pc[p] && pc[p] < n
                 && (p == 0 || pr[p - 1] < pr[p]
                     || (pr[p - 1] == pr[p] && pc[p - 1] < pc[p]));
            distinct &= pr[p] < pc[p];
        }
        ok = ok && ptr[0] == 0 && ptr[n] == 2 * found;
        int full = 1;
        for (int64_t i = 0; ok && i < n; i++) {
            full &= ptr[i + 1] > ptr[i];
            for (int64_t e = ptr[i] + 1; ok && e < ptr[i + 1]; e++)
                ok = idx[e - 1] < idx[e] || (idx[e - 1] == i && idx[e] == i);
            for (int64_t e = ptr[i]; ok && e < ptr[i + 1]; e++) {
                int64_t lo = i < idx[e] ? i : idx[e], hi = i + idx[e] - lo;
                int64_t p = 0;
                while (p < found && (pr[p] != lo || pc[p] != hi))
                    p++;
                ok = p < found && !memcmp(&weights[e], &pv[p], 8);
                pair[e] = p;
            }
        }
        if (ok && full && distinct)
            ok = affinity(n, found, pr, pc, pv, ptr, idx, pair);
        bad |= report(name, found, ok);
        free(pr);
        free(pc);
        free(pv);
        free(ptr);
        free(idx);
        free(pair);
        free(weights);
    }
    return bad;
}

static int expect(const char *name, int64_t status, int64_t want)
{
    return report(name, status, status == want);
}

/* affinity_layout on 3 items and 2 edges, expecting `want` at `want_at` */
static int refused(const char *name, int64_t n, const int64_t *edges,
                   const double *dist, int64_t inverse, int64_t want,
                   int64_t want_at)
{
    int64_t ptr[5], idx[4], pair[4], at = -1;
    double vals[2];
    int64_t status = affinity_layout(n, 2, edges, dist, 1, inverse, ptr, idx,
                                     pair, vals, &at);
    return report(name, status, status == want && (want_at < 0 || at == want_at));
}

int main(void)
{
    const int64_t rows[] = {3, 1, 4, 1, 5, 0, 2, 6, 5, 3, 5, 4};
    const int64_t cols[] = {1, 3, 4, 5, 1, 2, 0, 6, 3, 5, 4, 5};
    const double vals[] = {1, 2, -0.0, 0.0, 3, 0.5, 0.25, 9, 1, 2, 4, 8};
    const int64_t ends[] = {0, 1, 2, 3, 1, 0, 4, 2}, other[] = {1, 2, 3, 4, 0, 2, 3, 4};
    const double lengths[] = {1, 0.5, 2, 0, 1, 3, 0, 0.25};
    const int64_t none[] = {0}, far[] = {1, 3, 0}, near[] = {0, 1, 2};
    const int64_t good[] = {0, 1, 1, 2}, flipped[] = {1, 0, 1, 2};
    const int64_t twice[] = {0, 1, 0, 1}, beyond[] = {0, 1, 1, 3};
    const int64_t pair[] = {0, 0, 1, 1}, stray[] = {0, 0, 1, 2};
    const double ones[] = {1, 1}, gap[] = {1, NAN}, zeros[] = {0, -0.0};
    const double half[] = {0, 1}, inf[] = {1, INFINITY};
    int64_t a[3], b[3], ptr[4], idx[6];
    double w[3], out[6];
    return run("entries", 7, 12, rows, cols, vals, 7)
        | run("graph", 5, 8, ends, other, lengths, 6)
        | run("empty", 5, 0, none, none, vals, 0)
        | run("one item", 1, 1, none, none, vals, 1)
        | expect("pairs row 3", pairs(3, 3, far, near, vals, 0, a, b, w, ptr,
                                      idx, out), -10)
        | expect("pairs col 3", pairs(3, 3, near, far, vals, 1, a, b, w, ptr,
                                      idx, out), -11)
        | refused("edge i > j", 3, flipped, ones, 0, -14, 0)
        | refused("edge twice", 3, twice, ones, 0, -14, 1)
        | refused("distance NaN", 3, good, gap, 0, -15, 1)
        | refused("item alone", 4, good, ones, 0, -16, 3)
        | refused("sigmas zero", 3, good, zeros, 0, -17, -1)
        | refused("inverse zero", 3, good, half, 1, -18, -1)
        | expect("weights end 3", affinity_weights(3, 2, beyond, pair, ones, w,
                                                  out, out), -21)
        | expect("weights pair 2", affinity_weights(3, 2, good, stray, ones, w,
                                                   out, out), -22)
        | expect("weights NaN", affinity_weights(3, 2, good, pair, gap, w, out,
                                                out), -19)
        | expect("weights inf", affinity_weights(3, 2, good, pair, inf, w, out,
                                                out), -19)
        | expect("weights zero", affinity_weights(3, 2, good, pair, zeros, w,
                                                 out, out), -19)
        | expect("weights item 0", affinity_weights(3, 2, good, pair, half, w,
                                                   out, out), -20);
}
"""


@has_compiler
def test_graph_kernels_are_clean_under_sanitizers(tmp_path,
                                                  sanitized_kernels):
    # pairs, affinity_layout and affinity_weights: exact-size outputs,
    # scratch freed, the checks
    out = _run_sanitized(tmp_path, sanitized_kernels, _GRAPH_SANITIZER_MAIN)
    assert out.count(", ok") == 22 and "BAD" not in out, out


# Runs the C points reader on bodies copied, with no terminator, to the
# end of a page before one that may not be read, and on an output of
# exactly the slots the caller sizes (one per comma and line feed, plus
# one).  Bodies that do not end in a line feed (mid-number, in a comma,
# in blanks, in one field, in a number of 300 digits, after a CR) must be
# declined; bodies that end in one at the page's end must be read, among
# them a number of 300 digits, so that strtod reading past the body
# would fault; and a body with more fields than its output holds must be
# declined.  Exits 0 only if each call returns the rows and width
# wanted, or 0 with the width untouched, and the values bit for bit.  A
# read past the body faults, in strtod too, which the sanitizers do not
# see into; they catch a write past the output.
_POINTS_SANITIZER_MAIN = r"""
#include <sys/mman.h>
#include <unistd.h>

static int run(const char *name, const char *body, int64_t cap,
               int64_t want_rows, int64_t want_cols, const double *want)
{
    size_t page = (size_t)sysconf(_SC_PAGESIZE);
    char *pages = mmap(NULL, 2 * page, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (pages == MAP_FAILED || mprotect(pages + page, page, PROT_NONE))
        return report(name, -1, 0);
    int64_t len = (int64_t)strlen(body), cols = -1;
    char *text = pages + page - len;
    double *out = malloc((size_t)cap * sizeof *out);
    memcpy(text, body, (size_t)len);
    int64_t rows = parse_points(text, len, out, cap, &cols);
    int ok = rows == want_rows && cols == (rows ? want_cols : -1);
    for (int64_t v = 0; ok && v < rows * cols; v++)
        ok = !memcmp(&out[v], &want[v], sizeof *out);
    munmap(pages, 2 * page);
    free(out);
    return report(name, rows, ok);
}

/* the output slots graph.load_points_csv gives `body` */
static int64_t slots(const char *body)
{
    int64_t cap = 1;
    for (; *body; body++)
        cap += *body == ',' || *body == '\n';
    return cap;
}

static int check(const char *name, const char *body, int64_t want_rows,
                 int64_t want_cols, const double *want)
{
    return run(name, body, slots(body), want_rows, want_cols, want);
}

int main(void)
{
    static const double grid[] = {1, 2, 3, 4}, five[] = {5},
                        small[] = {0.0025}, big[] = {1e299};
    char digits[302] = "1", line[303];
    memset(digits + 1, '0', 299);
    memcpy(line, digits, 300);
    memcpy(line + 300, "\n", 2);
    return check("exponent cut", "1,2\n3,1e", 0, 0, NULL)
        | check("sign only", "1,2\n3,-", 0, 0, NULL)
        | check("comma last", "1,2\n3,", 0, 0, NULL)
        | check("blank after comma", "1,2\n3, \t", 0, 0, NULL)
        | check("lone cr last", "1,2\n3,4\r", 0, 0, NULL)
        | check("empty", "", 0, 0, NULL)
        | check("blank lines", " \n\t\r\n", 0, 0, NULL)
        | check("no final newline", "1,2\r\n3,4", 0, 0, NULL)
        | check("blanks last", "\t1 ,2\n3,\t4 ", 0, 0, NULL)
        | check("one field", "5", 0, 0, NULL)
        | check("exponent last", "2.5e-3", 0, 0, NULL)
        | check("300 digits last", digits, 0, 0, NULL)
        | check("rows", "1,2\n3,4\n", 2, 2, grid)
        | check("one field, line feed", "5\n", 1, 1, five)
        | check("exponent, line feed", "2.5e-3\n", 1, 1, small)
        | check("300 digits, line feed", line, 1, 1, big)
        | run("more fields than slots", "1,2\n3,4\n", 3, 0, 0, NULL);
}
"""


@has_compiler
def test_parse_points_is_clean_under_sanitizers(tmp_path, sanitized_kernels):
    # no read past the body's length, no write past the output's slots
    out = _run_sanitized(tmp_path, sanitized_kernels, _POINTS_SANITIZER_MAIN)
    assert out.count(", ok") == 17 and "BAD" not in out, out


# Runs each exported kernel that takes buffers (all but parse_points) on
# a small valid input, first with every allocation granted, then with the
# k-th allocation failing for k = 0, 1, ... until a call succeeds (malloc
# and calloc wrapped at link time); exits 0 only if every failing call
# returns ERR_NOMEM (-1), leaves its outputs as they were and draws
# nothing, and the call that succeeds gives the normal result.
_NOMEM_SANITIZER_MAIN = r"""
/* Linked with -Wl,--wrap=malloc,--wrap=calloc, every malloc and calloc of
 * the kernels comes here: with budget >= 0, that many succeed, then every
 * one fails. */
void *__real_malloc(size_t);
void *__real_calloc(size_t, size_t);
static long budget = -1;

static int granted(void)
{
    if (budget == 0)
        return 0;
    if (budget > 0)
        budget--;
    return 1;
}

void *__wrap_malloc(size_t size)
{
    return granted() ? __real_malloc(size) : NULL;
}

void *__wrap_calloc(size_t count, size_t size)
{
    return granted() ? __real_calloc(count, size) : NULL;
}

/* a triangle with product-form repulsion; a path 0-1-2-3-4-5 plus 0-2,
 * repelled by 0-5, 1-4 and 2-3 */
static const int64_t tri_ptr[] = {0, 2, 4, 6}, tri_idx[] = {1, 2, 0, 2, 0, 1};
static const double tri_w[] = {1, 1, 1, 1, 1, 1}, ones[] = {1, 1, 1};
static const int64_t path_ptr[] = {0, 2, 4, 7, 9, 11, 12};
static const int64_t path_idx[] = {1, 2, 0, 2, 0, 1, 3, 2, 4, 3, 5, 4};
static const double path_w[] = {3, 1, 3, 2, 1, 2, 1, 1, 3, 3, 2, 2};
static const int64_t rep_ptr[] = {0, 1, 2, 3, 4, 5, 6};
static const int64_t rep_idx[] = {5, 4, 3, 2, 1, 0};
static const double rep_w[] = {1, 2, 4, 4, 2, 1}, zeros[6] = {0};

static graph_t triangle(void)
{
    return graph(3, tri_ptr, tri_idx, tri_w, 0, ones, 3.0, NULL, NULL, NULL);
}

static graph_t path(void)
{
    return graph(6, path_ptr, path_idx, path_w, 1, zeros, 1.0, rep_ptr,
                 rep_idx, rep_w);
}

/* Each runs one kernel on a small valid input with its outputs in `out`
 * and returns its status. */
static int64_t level_loop_triangle(void *out)
{
    uint64_t state;
    bitgen_t rng = xorshift(&state);
    graph_t g = triangle();
    return level_loop(&g, 1.0, 32, 100, 1000, 1e-12, out,
                      (double *)((int64_t *)out + 3), &rng);
}

static int64_t level_loop_explicit(void *out)
{
    uint64_t state;
    bitgen_t rng = xorshift(&state);
    graph_t g = path();
    return level_loop(&g, 0.5, 32, 100, 1000, 1e-12, out,
                      (double *)((int64_t *)out + 6), &rng);
}

static int64_t components_explicit(void *out)
{
    graph_t g = path();
    return components(&g, out, (double *)((int64_t *)out + 6));
}

static const int64_t rows[] = {3, 1, 0, 2, 1}, cols[] = {1, 3, 2, 0, 2};
static const double vals[] = {1, 2, 0.5, 0.25, 4};

static int64_t pairs_mean(void *out)
{
    int64_t *at = out;
    return pairs(4, 5, rows, cols, vals, 1, at, at + 5, (double *)(at + 10),
                 at + 15, at + 20, (double *)(at + 30));
}

static int64_t knn_graph_line(void *out)  /* 20 points: the tree splits */
{
    double line[20];
    for (int i = 0; i < 20; i++)
        line[i] = (i * 7) % 20;
    return knn_graph(20, 1, line, 3, 0, out, (double *)((int64_t *)out + 120));
}

/* a path 0-1-2-3 plus 0-2, one distance 0 */
static const int64_t edges[] = {0, 1, 0, 2, 1, 2, 2, 3};
static const double lengths[] = {1, 2, 0, 0.5}, sims[] = {0.5, 1, 2, 0.25};

static int64_t affinity_layout_path(void *out)
{
    int64_t *at = out;
    return affinity_layout(4, 4, edges, lengths, 2, 0, at, at + 5, at + 13,
                           (double *)(at + 21), at + 25);
}

static int64_t affinity_weights_path(void *out)
{
    const int64_t pair[] = {0, 1, 0, 2, 1, 2, 3, 3};
    double *at = out;
    return affinity_weights(4, 4, edges, pair, sims, at, at + 4, at + 8);
}

/* Runs `run` with every allocation granted, then with the first k granted
 * for k = 0, 1, ... until a call succeeds.  Before each call `out`
 * (`bytes` long) holds a sentinel fill.  Every failing call must return
 * ERR_NOMEM, leave `out` as it was and draw nothing; the call that
 * succeeds must give the first one's status, bytes and draws. */
static int check(const char *name, int64_t (*run)(void *), size_t bytes)
{
    unsigned char *before = malloc(bytes), *want = malloc(bytes);
    unsigned char *got = malloc(bytes);
    memset(before, 0x5a, bytes);
    memcpy(want, before, bytes);
    draws = 0;
    int64_t normal = run(want);
    long normal_draws = draws, failed = 0;
    int ok = normal >= 0;
    while (ok) {
        memcpy(got, before, bytes);
        draws = 0;
        budget = failed;
        int64_t status = run(got);
        budget = -1;
        if (status != -1) {
            ok = status == normal && draws == normal_draws
                 && !memcmp(got, want, bytes);
            break;
        }
        ok = draws == 0 && !memcmp(got, before, bytes);
        failed++;
    }
    ok = ok && failed > 0;
    printf("%s: %ld failing calls, %s\n", name, failed, ok ? "ok" : "BAD");
    free(before);
    free(want);
    free(got);
    return !ok;
}

int main(void)
{
    size_t i64 = sizeof(int64_t), f64 = sizeof(double);
    return check("level_loop", level_loop_triangle, 3 * i64 + 2 * f64)
        | check("level_loop explicit", level_loop_explicit, 6 * i64 + 2 * f64)
        | check("components", components_explicit, 6 * i64 + 2 * f64)
        | check("knn_graph", knn_graph_line, 120 * i64 + 60 * f64)
        | check("pairs", pairs_mean, 25 * i64 + 15 * f64)
        | check("affinity_layout", affinity_layout_path, 22 * i64 + 4 * f64)
        | check("affinity_weights", affinity_weights_path, 16 * f64);
}
"""


@has_compiler
def test_kernels_fail_cleanly_when_memory_runs_out(tmp_path,
                                                    sanitized_kernels):
    # every out-of-memory exit: status, untouched outputs, no draw and,
    # through LeakSanitizer, no leak
    out = _run_sanitized(tmp_path, sanitized_kernels, _NOMEM_SANITIZER_MAIN,
                         "-Wl,--wrap=malloc,--wrap=calloc")
    assert out.count(", ok") == 7 and "BAD" not in out, out
    # a kernel fails once per allocation, so every buffer is reached: the
    # phases' 13 scratch buffers (the four of the compact rows and the
    # queue's flags among them), then the level loop's own 18, 21 with
    # explicit repulsion
    for line in ("level_loop: 31 ", "level_loop explicit: 34 "):
        assert line + "failing calls, ok" in out, out
