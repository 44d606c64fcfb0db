"""Local moving, aggregation exactness, and full optimization."""

import copy
import dataclasses
import pickle
import sys
import threading

import numpy as np
import pytest

from confres import kernels, optimizer
from confres.energy import canonicalize, cluster_count, hamiltonian
from confres.errors import InputError, ParameterError
from confres.graph import AffinityGraph, from_edge_list
from confres.optimizer import OptimizeOptions, aggregate, optimize
from confres.resolution import find_configurations
from conftest import (blob_graph, drop_entries, fresh_optimize, needs_cc,
                      random_affinity, reaching_every_cluster, signed_zeros,
                      with_loops_and_repeats, with_self_loop_first)


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
    """One unconstrained `kernels.sweep` phase in a seeded item order
    (`default_rng(seed).permutation`), of at most n evaluations; returns
    (canonical labels, moves)."""
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

    def test_rejects_labels_that_are_no_integers(self):
        g = from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 0.1)])
        with pytest.raises(InputError, match=r"^label 0\.5 of item 0 is not"):
            aggregate(g, [0.5, 0.7, 1.2, 1.9])

    @pytest.mark.parametrize("count", [3, 5])
    def test_rejects_a_label_count_other_than_n(self, count):
        g = from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 0.1)])
        with pytest.raises(InputError, match=rf"^partition shape \({count},\) "
                                             rf"!= \(4,\): one label per item"):
            aggregate(g, np.arange(count) % 2)

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


def _bytes(values):
    return [np.float64(x).tobytes() for x in values]


def _exact(energy):
    return _bytes((energy.gamma, energy.h_a, energy.h_r, energy.total))


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
    random and large; exact ties, signed zeros and 300 items in blobs."""
    graphs = [random_affinity(rng, n=int(rng.integers(2, 40)),
                              scheme=(None, "explicit")[trial % 2])
              for trial in range(96)]
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
    # what the C pass leaves out of its compact rows, the entries to other
    # constraint clusters: most of a refinement's where four tight pairs
    # are all weakly linked; and an item whose rows reach all n - 1 other
    # clusters, in both repulsion modes
    pairs = from_edge_list(8, [(i, j, 5.0 if i // 2 == j // 2 else 0.1)
                               for i in range(8) for j in range(i + 1, 8)],
                           repulsion_scheme="uniform")
    extra = [pairs] + [reaching_every_cluster(n, scheme)
                       for n in (5, 12) for scheme in (None, "explicit")]
    for trial, graph in enumerate(extra, start=len(graphs)):
        seed = int(rng.integers(2 ** 32))
        for gamma in (0.0, float(rng.random() * 2), 1.0, 3.0):
            yield trial, graph, gamma, seed
    trial = len(graphs) + len(extra)
    # integer weights with uniform repulsion (rep_denom = n): at gamma a
    # multiple of n / 2, gains are exact halves and tie exactly
    for _ in range(24):
        n = int(rng.integers(4, 12))
        edges = [(i, j, float(rng.integers(1, 4)))
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.6] or [(0, 1, 1.0)]
        graph = from_edge_list(n, edges, repulsion_scheme="uniform")
        seed = int(rng.integers(2 ** 32))
        for gamma in (0.0, 0.5, 1.0, 2.0):
            yield trial, graph, gamma * n, seed
        trial += 1
    # weights of -0.0 and 0.0 beside nonzero ones, both repulsion modes
    for _ in range(24):
        graph = signed_zeros(random_affinity(
            rng, scheme=(None, "explicit")[trial % 2]), rng)
        seed = int(rng.integers(2 ** 32))
        for gamma in (0.0, float(rng.random() * 2)):
            yield trial, graph, gamma, seed
        trial += 1
    # 300 items in three blobs
    graph, _ = blob_graph(rng, [(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)], per=100)
    yield trial, graph, 1.0, int(rng.integers(2 ** 32))


@needs_cc
def test_level_loop_backends_agree(rng, monkeypatch):
    # C and Python loops: the same labels and the same energy floats, over
    # both repulsion modes, gamma 0, random and large, 1 and 3 restarts
    for trial, graph, gamma, seed in _level_loop_cases(rng):
        opts = OptimizeOptions(seed=seed, restarts=(1, 3)[trial % 2])
        (a, ea), (b, eb) = _both_loops(monkeypatch, graph, gamma, opts)
        assert np.array_equal(a, b), (trial, gamma)
        assert _exact(ea) == _exact(eb), (trial, gamma)
        # the loops themselves, gamma 0 included, draw for draw: the same
        # labels, energy bytes and final generator state
        rng_c, rng_py = (np.random.default_rng(seed) for _ in range(2))
        labels_c, *energy_c = optimizer._level_loop_c(graph, gamma, rng_c)
        labels_py, *energy_py = optimizer._level_loop_py(graph, gamma, rng_py)
        assert np.array_equal(labels_c, labels_py), (trial, gamma)
        assert _bytes(energy_c) == _bytes(energy_py), (trial, gamma)
        assert rng_c.bit_generator.state == rng_py.bit_generator.state


@needs_cc
def test_c_level_loop_energy_is_energy_components(rng):
    # the (h_a, h_r) the C loop returns are, byte for byte, those of
    # kernels.energy_components on the labels it returns
    for trial, graph, gamma, seed in _level_loop_cases(rng):
        labels, h_a, h_r = optimizer._level_loop_c(
            graph, gamma, np.random.default_rng(seed))
        want = kernels.energy_components(graph, labels)
        assert _bytes((h_a, h_r)) == _bytes(want), (trial, gamma)


@needs_cc
def test_python_phases_match_the_c_level_loop(rng, monkeypatch):
    # with kernels.sweep wrapped, as a tracer wraps it, optimize runs
    # _level_loop_py, every phase through the wrapper: the C level loop's
    # labels, energy floats and final generator state.  A few cases, both
    # repulsion modes: test_level_loop_backends_agree runs them all
    seen = []
    for trial, graph, gamma, seed in _level_loop_cases(rng):
        if trial % 16 > 1 or gamma == 0.0:
            continue
        opts = OptimizeOptions(seed=seed, restarts=(1, 3)[trial % 2])
        labels_c, energy_c = optimize(graph, gamma, opts)
        rng_c, rng_py = (np.random.default_rng(seed) for _ in range(2))
        optimizer._level_loop_c(graph, gamma, rng_c)
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "sweep",
                          lambda *a: seen.append(trial) or kernels.sweep_py(*a))
            assert not optimizer._compiled_loop()
            calls = len(seen)
            labels_py, energy_py = optimize(graph, gamma, opts)
            assert len(seen) > calls, (trial, gamma)
            optimizer._level_loop_py(graph, gamma, rng_py)
        assert np.array_equal(labels_c, labels_py), (trial, gamma)
        assert _exact(energy_c) == _exact(energy_py), (trial, gamma)
        assert rng_c.bit_generator.state == rng_py.bit_generator.state
    assert len(set(seen)) >= 12


@needs_cc
@pytest.mark.parametrize("bit_generator", [np.random.MT19937,
                                           np.random.Philox, np.random.SFC64])
def test_c_kernels_draw_from_every_numpy_bit_generator(rng, bit_generator):
    # the C kernels draw through numpy's bitgen_t whichever generator
    # fills it: MT19937 makes its 32-bit numbers natively, where PCG64,
    # Philox and SFC64 hand out halves of a 64-bit one.  The level loop
    # from a generator that has drawn already: the Python loop's labels,
    # energy bytes and generator state
    for trial, graph, gamma, seed in _level_loop_cases(rng):
        if trial % 12 > 1:  # a sixth of the cases, both repulsion modes
            continue
        gens = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
        for gen in gens:
            gen.permutation(graph.n)
        labels_c, *energy_c = optimizer._level_loop_c(graph, gamma, gens[0])
        labels_py, *energy_py = optimizer._level_loop_py(graph, gamma, gens[1])
        assert np.array_equal(labels_c, labels_py), (trial, gamma)
        assert _bytes(energy_c) == _bytes(energy_py), (trial, gamma)
        # MT19937 and Philox keep arrays in their state
        np.testing.assert_equal(*(gen.bit_generator.state for gen in gens))


def test_phases_stop_at_the_evaluation_budget(rng, monkeypatch):
    # a round queues again the neighbours of each item that moves, so one
    # round from singletons may need more than n evaluations, also on a
    # symmetric graph.  With MAX_SWEEPS_PER_LEVEL = 1 each level phase
    # stops after n of them: the labels or the draws then differ from
    # those of the default budget, and the C loop, whose phases stop there
    # too, gives the Python loop's labels, energy bytes and generator state
    cut = 0
    for trial in range(20):
        graph = random_affinity(rng, n=12,
                                scheme=(None, "explicit")[trial % 2])
        gamma = float(rng.random() * 2)
        seed = int(rng.integers(2 ** 32))
        zeros = np.zeros(graph.n, dtype=np.int64)
        for max_sweeps in (1, 2):
            moved = kernels.sweep_py(
                *graph._kernel_args, gamma, np.arange(graph.n), zeros,
                np.random.default_rng(seed), max_sweeps, False)
            assert moved <= max_sweeps * graph.n, trial
        gens = [np.random.default_rng(seed) for _ in range(3)]
        labels_free = optimizer._level_loop_py(graph, gamma, gens[2])[0]
        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "MAX_SWEEPS_PER_LEVEL", 1)
            labels_py, *energy_py = optimizer._level_loop_py(graph, gamma,
                                                             gens[0])
            cut += not (np.array_equal(labels_py, labels_free)
                        and gens[0].bit_generator.state
                        == gens[2].bit_generator.state)
            if kernels.level_loop is None:
                continue
            labels_c, *energy_c = optimizer._level_loop_c(graph, gamma,
                                                          gens[1])
        assert np.array_equal(labels_c, labels_py), trial
        assert _bytes(energy_c) == _bytes(energy_py), trial
        assert gens[0].bit_generator.state == gens[1].bit_generator.state
    # the budget of n evaluations ended a phase in some of the cases
    assert cut >= 10, cut


def _bad_graphs():
    """(name, function making a graph that breaks the graph contract,
    exception, message): each makes the graph anew, from the same draws."""
    graph = random_affinity(np.random.default_rng(3), scheme="explicit")
    uniform = random_affinity(np.random.default_rng(4), scheme="uniform")

    def with_value(field, at, value, base=graph):
        bad = getattr(base, field).copy()
        bad[at] = value
        return lambda: dataclasses.replace(base, **{field: bad})

    for field, value, message in (
            ("indptr", -1, r"^indptr must run from 0 to \d+ and never fall"),
            ("indices", graph.n, rf"^indices\[\d+\] = {graph.n} in row "),
            ("rep_indptr", -1, r"^rep_indptr must run from 0 to \d+ and "),
            ("rep_indices", graph.n, rf"^rep_indices\[\d+\] = {graph.n} ")):
        yield field, with_value(field, -1, value), InputError, message
    # a weight that is NaN, infinite or negative, on one entry or on all
    # (so on both of each pair), in either CSR
    for prefix in ("", "rep_"):
        for value in (np.nan, np.inf, -0.5):
            for at in (0, slice(None)):
                yield (f"{prefix}weights[{at}] = {value}",
                       with_value(prefix + "weights", at, value), InputError,
                       rf"^{prefix}indices\[0\] = \d+ in row \d+, of weight "
                       rf"{value}: weights must be finite and >= 0$")
    yield ("rep_denom 0", lambda: dataclasses.replace(graph, rep_denom=0.0),
           InputError, r"^rep_denom 0.0 must be finite and > 0")
    yield ("int32 indptr", lambda: dataclasses.replace(
        uniform, indptr=uniform.indptr.astype(np.int32)), ValueError,
           r"^indptr must be a C-contiguous 1-D int64 array$")
    # in range, but row 1 would read [3, 1)
    for scheme in ("uniform", "explicit"):
        rep = {}
        if scheme == "explicit":
            rep = {"rep_indptr": np.array([0, 1, 2, 2]),
                   "rep_indices": np.array([1, 0]), "rep_weights": np.ones(2)}
        yield (f"decreasing indptr, {scheme}", lambda rep=rep, scheme=scheme:
               AffinityGraph(
                   n=3, indptr=np.array([0, 3, 1, 4]),
                   indices=np.array([1, 2, 0, 1]), weights=np.ones(4),
                   strengths=np.ones(3), total_weight=2.0,
                   repulsion_scheme=scheme, rep_strength=np.ones(3),
                   rep_denom=3.0, **rep),
               InputError, r"^indptr must run from 0 to 4 and never fall, not "
               r"from 0 to 4 falling at rows \[1\]$")
    # the test inputs that broke the contract before graphs were checked
    # when made: thinned CSRs (the attraction CSR, or only the explicit
    # repulsion one), rows with self-loops and repeats, and a self-loop
    # first in item 0's rows, in both repulsion modes
    for scheme, prefix in ((None, ""), ("explicit", "rep_")):
        for trial in range(5):
            yield (f"drop_entries {scheme} {trial}", lambda s=scheme, t=trial:
                   drop_entries(random_affinity(np.random.default_rng(t),
                                                scheme=s),
                                np.random.default_rng(t),
                                prefixes=("rep_",) if s else ("",)),
                   InputError, rf"^{prefix}indices\[\d+\] = \d+ in row \d+, "
                   rf"of weight .*: an entry \(i, j\) needs a twin \(j, i\) "
                   rf"of the same weight$")
        yield (f"loops and repeats {scheme}", lambda s=scheme:
               with_loops_and_repeats(random_affinity(
                   np.random.default_rng(5), scheme=s),
                   np.random.default_rng(5)),
               InputError, r"rise strictly in \[0, \d+\), skipping its item$")
        yield (f"self-loop first {scheme}", lambda s=scheme:
               with_self_loop_first(reaching_every_cluster(5, s)),
               InputError, r"^indices\[0\] = 0 in row 0, of weight 2.0: a "
               r"row's columns must rise strictly in \[0, 5\), skipping its "
               r"item$")
    looped = (np.array([0, 1]), np.array([0]), np.array([2.0]))
    yield ("looped single item", lambda: AffinityGraph(
        1, *looped, np.ones(1), 1.0, "explicit", np.zeros(1), 1.0, *looped),
           InputError, r"^indices\[0\] = 0 in row 0, of weight 2.0: ")


def test_level_loop_backends_reject_bad_graphs(monkeypatch):
    # a graph that breaks the contract cannot be made, so neither level
    # loop nor the gamma = 0 kernel ever reads one: the C graph check and
    # its numpy reference raise the same error, with the same message
    checks = [kernels.check_graph_py]
    if kernels.BACKEND == "c":
        checks.append(kernels._check_graph_c)
    for case, make, exc, message in _bad_graphs():
        errors = set()
        for check in checks:
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "check_graph", check)
                with pytest.raises(exc, match=message) as info:
                    make()
            errors.add(str(info.value))
        assert len(errors) == 1, (case, errors)


def _broken_sources(graph):
    """(name, graph, break): graphs equal to `graph`, each made from a
    writable array of its own, or from a read-only view of one, and a
    function that breaks that array after the graph is made: an index out
    of range, or in range but one-way, a falling indptr, a NaN weight."""
    for field, at, value in (("indices", -1, graph.n), ("indices", 0, 0),
                             ("indptr", 1, graph.indptr[-1]),
                             ("weights", 0, np.nan),
                             ("rep_indices", -1, graph.n),
                             ("rep_weights", 0, np.nan)):
        for viewed in (False, True):
            source = getattr(graph, field).copy()
            given = source.view() if viewed else source
            given.flags.writeable = not viewed

            def spoil(source=source, at=at, value=value):
                source[at] = value

            yield (f"{field}[{at}] = {value}, view {viewed}",
                   dataclasses.replace(graph, **{field: given}), spoil)


def test_gamma_zero_backends_reject_bad_graphs(monkeypatch, rng):
    # a graph owns what it checked: breaking the arrays it was made from,
    # after it is made, changes no solve (the kernels trust the graph, so
    # C would read past them), at gamma = 0 on the C kernel or its
    # reference, nor in either level loop
    graph = random_affinity(rng, scheme="explicit")
    solves = []
    for components in (kernels.components, kernels.components_py):
        solves.append((0.0, "components", components))
    for compiled in (optimizer._compiled_loop(), False):
        solves.append((1.0, "_compiled_loop", lambda compiled=compiled:
                       compiled))
    for case, made, spoil in _broken_sources(graph):
        spoil()
        for gamma, name, value in solves:
            target = kernels if name == "components" else optimizer
            with monkeypatch.context() as patch:
                patch.setattr(target, name, value)
                opts = OptimizeOptions(restarts=2)
                assert _same(optimize(made, gamma, opts),
                             optimize(graph, gamma, opts)), (case, gamma)


def _same(a, b):
    """Two (labels, EnergySummary) results, equal to the bit."""
    return np.array_equal(a[0], b[0]) and _exact(a[1]) == _exact(b[1])


def test_gamma_zero_is_the_level_loops_partition(rng):
    # the exact gamma = 0 end returns, bit for bit, what the level loop
    # returned there
    checked = 0
    for trial, graph, gamma, seed in _level_loop_cases(rng):
        if gamma == 0.0:
            opts = OptimizeOptions(seed=seed, restarts=(1, 3)[trial % 2])
            assert _same(optimize(graph, 0.0, opts),
                         fresh_optimize(graph, 0.0, opts)), trial
            checked += 1
    assert checked >= 80


def test_gamma_zero_joins_what_the_level_loop_cannot():
    # a move must gain more than EPSILON, so the level loop leaves an item
    # whose only edge weighs EPSILON apart; the components join it, and
    # their h_a is lower
    graph = from_edge_list(3, [(0, 1, 1.0), (1, 2, kernels.EPSILON)])
    exact, energy = optimize(graph, 0.0)
    looped, looped_energy = fresh_optimize(graph, 0.0, OptimizeOptions())
    assert exact.tolist() == [0, 0, 0] and looped.tolist() == [0, 0, 1]
    assert energy.h_a < looped_energy.h_a
    assert energy.total == energy.h_a


def test_gamma_zero_keeps_the_errors_of_bad_options(rng):
    graph = random_affinity(rng)
    for gamma in (-1.0, np.nan):
        with pytest.raises(ParameterError, match="gamma must be finite"):
            optimize(graph, gamma)
    with pytest.raises(ParameterError, match="seed must be an integer"):
        optimize(graph, 0.0, OptimizeOptions(seed=1.5))


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", 1.5), ("seed", True), ("seed", "0"),
    ("seed", None), ("restarts", 0), ("restarts", -2), ("restarts", 2.5),
    ("restarts", 2.0), ("restarts", False), ("restarts", np.int64(0))])
def test_options_reject_a_bad_seed_or_restart_count(field, value):
    with pytest.raises(ParameterError,
                       match=rf"^{field} must be (an integer|>= [01]), got "):
        OptimizeOptions(**{field: value})


def test_options_take_numpy_integers():
    opts = OptimizeOptions(seed=np.uint64(2 ** 64 - 1), restarts=np.uint8(2))
    assert (opts.seed, opts.restarts) == (2 ** 64 - 1, 2)
    assert type(opts.seed) is type(opts.restarts) is int


_SEEDS = (0, 2 ** 31, 2 ** 63, 2 ** 64 + 5)


def test_reset_generator_draws_as_a_fresh_one():
    # a used generator set to a seed's initial state draws the numbers of
    # default_rng(PCG64(seed)) and ends in its state
    reused = np.random.Generator(np.random.PCG64(7))
    for seed in _SEEDS:
        reused.permutation(50)
        reused.bit_generator.state = optimizer._initial_state(seed)
        fresh = np.random.default_rng(np.random.PCG64(seed))
        draws = [(gen.permutation(300), gen.integers(0, 2 ** 40, 9),
                  gen.random(5), gen.bit_generator.random_raw(3))
                 for gen in (reused, fresh)]
        for a, b in zip(*draws):
            assert np.array_equal(a, b), seed
        assert reused.bit_generator.state == fresh.bit_generator.state


def _jobs(rng):
    """(graph, gamma, opts) over both repulsion modes, gamma 0 and not,
    alternating seeds, 1 and 3 restarts."""
    graphs = [random_affinity(rng, n=int(rng.integers(5, 40)),
                              scheme=(None, "explicit")[t % 2])
              for t in range(6)]
    graphs.append(blob_graph(rng, [(0, 0), (6, 0)], per=30)[0])
    jobs = []
    for t, graph in enumerate(graphs):
        for gamma in (0.0, 0.3, 1.0, 4.0):
            for seed in (_SEEDS[t % 4], 5, _SEEDS[t % 4]):
                jobs.append((graph, gamma, OptimizeOptions(
                    seed=seed, restarts=(1, 3)[len(jobs) % 2])))
    return jobs


def test_optimize_gives_the_fresh_generators_results(rng):
    for graph, gamma, opts in _jobs(rng):
        assert _same(optimize(graph, gamma, opts),
                     fresh_optimize(graph, gamma, opts))


def test_threads_give_the_serial_results(rng):
    # each thread resets a generator of its own: solves running at once
    # (the C call releases the GIL), more threads than cores and switched
    # often, draw what they would draw alone
    jobs = _jobs(rng)
    serial = [optimize(*job) for job in jobs]
    start = threading.Barrier(4)
    results = [[] for _ in range(4)]

    def run(slot):
        order = range(len(jobs)) if slot % 2 else range(len(jobs))[::-1]
        start.wait()
        for _ in range(4):
            results[slot] += [(i, optimize(*jobs[i])) for i in order]

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for done in results:
        assert len(done) == 4 * len(jobs)
        assert all(_same(result, serial[i]) for i, result in done)


@needs_cc
def test_loops_end_a_reset_generator_in_one_state(rng):
    # the C and Python loops draw the same numbers from a generator reset
    # as optimize resets it
    for trial, graph, gamma, seed in _level_loop_cases(rng):
        if trial % 4:
            continue
        ends = []
        for loop in (optimizer._level_loop_c, optimizer._level_loop_py):
            gen = np.random.Generator(np.random.PCG64())
            gen.bit_generator.state = optimizer._initial_state(seed)
            loop(graph, gamma, gen)
            ends.append(gen.bit_generator.state)
        assert ends[0] == ends[1], (trial, gamma)


def test_graph_arguments_are_taken_once_per_graph(rng, monkeypatch):
    # a graph is checked, and its C view laid out, once, when it is made:
    # not again on any solve, at gamma = 0 or not, nor in a sweep over
    # gamma.  A copy is a graph of its own, checked when it is made
    checked = []
    check = kernels.check_graph
    monkeypatch.setattr(kernels, "check_graph",
                        lambda g: checked.append(g.indices) or check(g))

    def checks_of(graph):
        return sum(np.shares_memory(idx, graph.indices) for idx in checked)

    graph = random_affinity(rng)
    for gamma in (0.0, 0.5, 1.0, 0.0):
        optimize(graph, gamma)
    find_configurations(graph, 2.0)
    assert checks_of(graph) == 1
    optimize(dataclasses.replace(graph), 0.5)
    assert checks_of(graph) == 2


def test_graph_arrays_are_read_only(rng):
    # a graph stays as checked: none of its arrays can be written, in a
    # copy, an unpickled graph or a replaced one either
    graph = random_affinity(rng, scheme="explicit")
    for twin in (graph, copy.copy(graph), copy.deepcopy(graph),
                 pickle.loads(pickle.dumps(graph)),
                 dataclasses.replace(graph)):
        for name in ("indptr", "indices", "weights", "strengths",
                     "rep_strength", "rep_indptr", "rep_indices",
                     "rep_weights"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(twin, name)[0] = 1


def test_built_graphs_keep_their_arrays_uncopied(rng):
    # the builders hand a graph fresh arrays marked read-only, which it
    # keeps as they are; a replaced graph shares them, and keeps a copy
    # only of an array a caller could still write to
    graph = random_affinity(rng, scheme="explicit")
    coarse = aggregate(graph, np.arange(graph.n) // 2).graph
    blobs, _ = blob_graph(rng, [(0.0, 0.0), (5.0, 5.0)], per=8, k=4)
    names = [f.name for f in dataclasses.fields(graph)
             if isinstance(getattr(graph, f.name), np.ndarray)]
    for made in (graph, coarse, blobs):
        for name in names:
            array = getattr(made, name)
            assert array.base is None and not array.flags.writeable, name
    writable = graph.indices.copy()
    twin = dataclasses.replace(graph, indices=writable)
    for name in names:
        shared = np.shares_memory(getattr(twin, name), getattr(graph, name))
        assert shared == (name != "indices"), name
    assert not np.shares_memory(twin.indices, writable)


def test_a_solved_graph_copies_with_a_view_of_its_own(rng):
    # a deep copy or an unpickled graph solves as the graph does, through
    # a C view of its own arrays, not of the arrays it was copied from
    if kernels.level_loop is None:
        pytest.skip("the C kernels are not loaded")
    graph = random_affinity(rng, scheme="explicit")
    labels, energy = optimize(graph, 0.5)
    for twin in (copy.deepcopy(graph), pickle.loads(pickle.dumps(graph))):
        assert np.array_equal(optimize(twin, 0.5)[0], labels)
        assert optimize(twin, 0.5)[1] == energy
        view = twin._kernel_graph
        assert view.indptr == twin.indptr.ctypes.data
        assert view.indptr != graph.indptr.ctypes.data
        assert view.rep_weights == twin.rep_weights.ctypes.data
