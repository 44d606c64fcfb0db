"""Local moving, aggregation exactness, and full optimization."""

import dataclasses

import numpy as np
import pytest

from confres import kernels, optimizer
from confres.energy import canonicalize, cluster_count, hamiltonian
from confres.graph import AffinityGraph, from_edge_list
from confres.optimizer import OptimizeOptions, aggregate, optimize
from conftest import drop_entries, needs_cc, random_affinity


def _connected_components(graph):
    seen = np.full(graph.n, -1, dtype=np.int64)
    comp = 0
    for start in range(graph.n):
        if seen[start] >= 0:
            continue
        stack = [start]
        seen[start] = comp
        while stack:
            i = stack.pop()
            for e in range(graph.indptr[i], graph.indptr[i + 1]):
                j = graph.indices[e]
                if seen[j] < 0:
                    seen[j] = comp
                    stack.append(j)
        comp += 1
    return canonicalize(seen)


def _sweep(graph, labels, gamma, seed):
    """One unconstrained `kernels.sweep` pass in a seeded item order
    (`default_rng(seed).permutation`); returns (canonical labels, moves)."""
    labels = np.array(labels, dtype=np.int64)
    moves = kernels.sweep(
        graph.indptr, graph.indices, graph.weights,
        graph.rep_mode, graph.rep_strength, graph.rep_denom,
        graph.rep_indptr, graph.rep_indices, graph.rep_weights,
        gamma, labels, np.zeros(graph.n, dtype=np.int64),
        np.random.default_rng(seed), 1)
    return canonicalize(labels), moves


class TestLocalMoveSweep:
    def test_two_items_merge_at_gamma_zero(self):
        g = from_edge_list(2, [(0, 1, 1.0)])
        labels, moves = _sweep(g, np.arange(2), 0.0, seed=0)
        assert moves > 0
        assert cluster_count(labels) == 1

    def test_stable_partition_unchanged(self, rng):
        g = random_affinity(rng)
        labels, _ = optimize(g, 1.0, OptimizeOptions(seed=1))
        after, moves = _sweep(g, labels, 1.0, seed=7)
        assert moves == 0
        assert np.array_equal(after, labels)

    def test_sweep_never_increases_energy(self, rng):
        for _ in range(10):
            g = random_affinity(rng)
            labels = canonicalize(rng.integers(0, 3, g.n))
            gamma = float(rng.random() * 2)
            before = hamiltonian(g, labels, gamma).total
            after, _ = _sweep(g, labels, gamma, seed=3)
            assert hamiltonian(g, after, gamma).total <= before + 1e-12


class TestAggregate:
    def test_singleton_partition_is_identity(self, rng):
        g = random_affinity(rng)
        agg = aggregate(g, np.arange(g.n))
        assert agg.graph.n == g.n
        assert np.allclose(agg.graph.attraction_dense(), g.attraction_dense())
        assert agg.const_h_a == 0.0 and agg.const_h_r == 0.0

    def test_one_cluster_single_node(self, rng):
        g = random_affinity(rng)
        agg = aggregate(g, np.zeros(g.n, dtype=np.int64))
        assert agg.graph.n == 1

    def test_energy_preserved_exactly(self, rng):
        # product-form repulsion (a scheme drawn at random) and explicit
        for trial in range(40):
            g = random_affinity(rng, scheme=(None, "explicit")[trial % 2])
            labels = canonicalize(rng.integers(0, 3, g.n))
            agg = aggregate(g, labels)
            k = cluster_count(labels)
            super_labels = canonicalize(rng.integers(0, 2, k))
            gamma = float(rng.random() * 2)
            coarse = hamiltonian(agg.graph, super_labels, gamma).total
            coarse += agg.const_h_a + gamma * agg.const_h_r
            expanded = super_labels[labels]
            fine = hamiltonian(g, expanded, gamma).total
            assert coarse == pytest.approx(fine, abs=1e-10)


class TestOptimize:
    def test_gamma_zero_gives_components(self, rng):
        for _ in range(10):
            g = random_affinity(rng)
            labels, _ = optimize(g, 0.0, OptimizeOptions(seed=0))
            assert np.array_equal(labels, _connected_components(g))

    def test_large_gamma_gives_singletons(self, rng):
        for _ in range(10):
            g = random_affinity(rng)
            r = g.repulsion_dense()
            positive = r[r > 0]
            if positive.size == 0:
                continue
            bound = g.weights.max() / positive.min()
            labels, _ = optimize(g, 10.0 * bound, OptimizeOptions(seed=0))
            assert cluster_count(labels) == g.n

    def test_deterministic_per_seed(self, rng):
        g = random_affinity(rng)
        a, ea = optimize(g, 1.0, OptimizeOptions(seed=42))
        b, eb = optimize(g, 1.0, OptimizeOptions(seed=42))
        assert np.array_equal(a, b)
        assert ea == eb

    def test_energy_summary_consistent(self, rng):
        g = random_affinity(rng)
        labels, energy = optimize(g, 0.8, OptimizeOptions(seed=5))
        assert energy.total == pytest.approx(
            hamiltonian(g, labels, 0.8).total, abs=1e-12)

    def test_single_move_stability(self, rng):
        from confres.energy import move_delta
        for _ in range(5):
            g = random_affinity(rng)
            gamma = float(rng.random() * 2)
            labels, _ = optimize(g, gamma, OptimizeOptions(seed=2))
            k = cluster_count(labels)
            for item in range(g.n):
                for target in range(k + 1):
                    assert move_delta(g, labels, item, target, gamma) >= -1e-9


# Explicit repulsion, 11 items: at gamma = 2 with seed 0 the second
# level's refinement keeps every super-node apart, so that level
# aggregates its clusters instead.
_FALLBACK_EDGES = (
    [(0, 2, 3.0), (0, 3, 3.0), (0, 6, 2.0), (0, 7, 2.0), (0, 8, 1.0),
     (0, 9, 3.0), (1, 2, 1.0), (1, 4, 2.0), (1, 5, 1.0), (1, 6, 2.0),
     (2, 3, 3.0), (2, 4, 1.0), (2, 6, 2.0), (2, 9, 3.0), (3, 4, 2.0),
     (3, 5, 3.0), (3, 6, 3.0), (3, 7, 2.0), (3, 8, 1.0), (3, 9, 2.0),
     (4, 5, 1.0), (4, 6, 1.0), (4, 7, 1.0), (4, 8, 1.0), (4, 10, 3.0),
     (5, 7, 3.0), (5, 8, 2.0), (5, 9, 1.0), (5, 10, 2.0), (6, 10, 1.0),
     (7, 8, 1.0), (7, 9, 2.0), (7, 10, 2.0), (8, 10, 1.0)],
    [(0, 4, 1.0), (0, 9, 3.0), (1, 3, 3.0), (1, 4, 2.0), (1, 5, 2.0),
     (1, 6, 2.0), (1, 10, 2.0), (2, 3, 1.0), (2, 4, 1.0), (2, 6, 1.0),
     (2, 7, 3.0), (2, 8, 1.0), (3, 4, 3.0), (3, 5, 3.0), (3, 6, 3.0),
     (3, 7, 1.0), (3, 9, 1.0), (4, 6, 2.0), (4, 8, 2.0), (4, 10, 2.0),
     (5, 8, 1.0), (5, 10, 2.0), (6, 7, 2.0), (6, 8, 2.0), (7, 8, 2.0),
     (7, 10, 2.0), (9, 10, 1.0)])


def _fallback_graph():
    edges, repulsion = _FALLBACK_EDGES
    return from_edge_list(11, edges, repulsion_scheme="explicit",
                          repulsion_edges=repulsion)


def _both_loops(monkeypatch, graph, gamma, opts):
    """optimize's result through the C level loop, then through the
    Python one."""
    assert optimizer._compiled_loop()
    compiled = optimize(graph, gamma, opts)
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_compiled_loop", lambda: False)
        python = optimize(graph, gamma, opts)
    return compiled, python


def _exact(energy):
    return [np.float64(x).tobytes()
            for x in (energy.gamma, energy.h_a, energy.h_r, energy.total)]


def test_fallback_graph_aggregates_unrefined_clusters(monkeypatch):
    # the refinement phase run just before an aggregation moved nothing:
    # that level aggregated its clusters, not the refinement
    events = []
    sweep, aggregate_ = kernels.sweep, optimizer.aggregate

    def spy_sweep(*args):
        moves = sweep(*args)
        events.append(moves)
        return moves

    def spy_aggregate(graph, labels):
        events.append("aggregate")
        return aggregate_(graph, labels)

    monkeypatch.setattr(kernels, "sweep", spy_sweep)
    monkeypatch.setattr(optimizer, "aggregate", spy_aggregate)
    optimize(_fallback_graph(), 2.0, OptimizeOptions(seed=0))
    before = [events[i - 1] for i, e in enumerate(events) if e == "aggregate"]
    assert len(before) >= 2 and before[0] > 0 and 0 in before


def _level_loop_cases(rng):
    """(trial, graph, gamma, seed) over both repulsion modes, gamma 0,
    random and large."""
    graphs = [random_affinity(rng, n=int(rng.integers(2, 40)),
                              scheme=(None, "explicit")[trial % 2])
              for trial in range(96)]
    # asymmetric CSRs, which no public builder makes
    graphs[4::8] = [drop_entries(graph, rng) for graph in graphs[4::8]]
    graphs += [
        from_edge_list(9, [(0, 1, 1.0), (1, 2, 0.5), (3, 4, 2.0), (5, 6, 1.0),
                           (6, 7, 1.0), (5, 7, 0.2)]),  # item 8 stands alone
        from_edge_list(2, [(0, 1, 0.5)], repulsion_scheme="uniform"),
        from_edge_list(2, [(0, 1, 0.5)], repulsion_scheme="explicit",
                       repulsion_edges=[(0, 1, 0.25)]),
        _fallback_graph(),
    ]
    for trial, graph in enumerate(graphs):
        gammas = (0.0, float(rng.random() * 2), 1e6)
        if graph is graphs[-1]:
            gammas, seed = (0.0, 2.0, 1e6), 0
        else:
            seed = int(rng.integers(2 ** 32))
        for gamma in gammas:
            yield trial, graph, gamma, seed


@needs_cc
def test_level_loop_backends_agree(rng, monkeypatch):
    # C and Python loops: the same labels and the same energy floats, over
    # both repulsion modes, gamma 0, random and large, 1 and 3 restarts
    for trial, graph, gamma, seed in _level_loop_cases(rng):
        opts = OptimizeOptions(seed=seed, restarts=(1, 3)[trial % 2])
        (a, ea), (b, eb) = _both_loops(monkeypatch, graph, gamma, opts)
        assert np.array_equal(a, b), (trial, gamma)
        assert _exact(ea) == _exact(eb), (trial, gamma)
        # draw for draw: the generators end in the same state
        rng_c, rng_py = (np.random.default_rng(seed) for _ in range(2))
        optimizer._level_loop_c(graph, gamma, rng_c)
        optimizer._level_loop_py(graph, gamma, rng_py)
        assert rng_c.bit_generator.state == rng_py.bit_generator.state


@needs_cc
def test_c_level_loop_energy_is_energy_components(rng):
    # the (h_a, h_r) the C loop returns are, byte for byte, those of
    # kernels.energy_components on the labels it returns
    for trial, graph, gamma, seed in _level_loop_cases(rng):
        labels, h_a, h_r = optimizer._level_loop_c(
            graph, gamma, np.random.default_rng(seed))
        want = kernels.energy_components(
            graph.indptr, graph.indices, graph.weights, labels,
            graph.rep_mode, graph.rep_strength, graph.rep_denom,
            graph.rep_indptr, graph.rep_indices, graph.rep_weights)
        assert [np.float64(x).tobytes() for x in (h_a, h_r)] == [
            np.float64(x).tobytes() for x in want], (trial, gamma)


@needs_cc
def test_python_phases_match_the_c_level_loop(rng, monkeypatch):
    # with kernels.sweep replaced by its Python reference, optimize runs
    # _level_loop_py with every phase in pure Python: the C level loop's
    # labels, energy floats and final generator state
    for trial, graph, gamma, seed in _level_loop_cases(rng):
        opts = OptimizeOptions(seed=seed, restarts=(1, 3)[trial % 2])
        labels_c, energy_c = optimize(graph, gamma, opts)
        rng_c, rng_py = (np.random.default_rng(seed) for _ in range(2))
        optimizer._level_loop_c(graph, gamma, rng_c)
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "sweep", kernels.sweep_py)
            assert not optimizer._compiled_loop()
            labels_py, energy_py = optimize(graph, gamma, opts)
            optimizer._level_loop_py(graph, gamma, rng_py)
        assert np.array_equal(labels_c, labels_py), (trial, gamma)
        assert _exact(energy_c) == _exact(energy_py), (trial, gamma)
        assert rng_c.bit_generator.state == rng_py.bit_generator.state


def _bad_graphs():
    """(name, graph, exception, message) for graphs that no sweep can read."""
    graph = random_affinity(np.random.default_rng(3), scheme="explicit")
    for field, value, name in (("indptr", -1, "indptr"),
                               ("indices", graph.n, "indices"),
                               ("rep_indptr", -1, "rep_indptr"),
                               ("rep_indices", graph.n, "rep_indices")):
        bad = getattr(graph, field).copy()
        bad[-1] = value
        yield (name, dataclasses.replace(graph, **{field: bad}), IndexError,
               rf"^{name} out of range")
    # in range, but row 1 would read [3, 1)
    for scheme in ("uniform", "explicit"):
        rep = {}
        if scheme == "explicit":
            rep = {"rep_indptr": np.array([0, 1, 2, 2]),
                   "rep_indices": np.array([1, 0]), "rep_weights": np.ones(2)}
        decreasing = AffinityGraph(
            n=3, indptr=np.array([0, 3, 1, 4]), indices=np.array([1, 2, 0, 1]),
            weights=np.ones(4), strengths=np.ones(3), total_weight=2.0,
            repulsion_scheme=scheme, rep_strength=np.ones(3), rep_denom=3.0,
            **rep)
        yield (f"decreasing indptr, {scheme}", decreasing, ValueError,
               r"^indptr must be non-decreasing$")


@needs_cc
def test_level_loop_backends_reject_bad_graphs(monkeypatch):
    # both loops check the graph before any draw and raise the same error
    for case, graph, exc, message in _bad_graphs():
        for compiled in (True, False):
            with monkeypatch.context() as patch:
                patch.setattr(optimizer, "_compiled_loop", lambda: compiled)
                with pytest.raises(exc, match=message):
                    optimize(graph, 1.0, OptimizeOptions(restarts=2))
