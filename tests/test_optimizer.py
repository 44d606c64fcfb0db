"""Local moving, aggregation exactness, and full optimization."""

import numpy as np
import pytest

from confres import kernels
from confres.energy import canonicalize, cluster_count, hamiltonian
from confres.graph import from_edge_list
from confres.optimizer import OptimizeOptions, aggregate, optimize
from conftest import random_affinity


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
