"""Plateau discovery, configuration-set serialization, lower envelope."""

import bisect
import gc
import json
import weakref

import numpy as np
import pytest

from confres import cognition, resolution
from confres.errors import InputError, ParameterError
from confres.graph import from_edge_list
from confres.optimizer import OptimizeOptions, optimize
from confres.resolution import find_configurations, lower_envelope
from conftest import (blob_graph, blob_points, fresh_optimize, random_affinity,
                      set_partitions)


@pytest.fixture(scope="module")
def blob_sweep():
    rng = np.random.default_rng(0)
    graph, labels = blob_graph(rng, [(0, 0), (10, 0)], per=25, k=8)
    configs = find_configurations(graph, 4.0, OptimizeOptions(seed=0))
    return graph, labels, configs


class TestFindConfigurations:
    def test_tiling_disjoint_contiguous(self, blob_sweep):
        _, _, configs = blob_sweep
        entries = configs.entries
        assert entries[0].gamma_lo == 0.0
        assert entries[-1].gamma_hi == configs.gamma_max
        for prev, cur in zip(entries, entries[1:]):
            assert prev.gamma_hi == cur.gamma_lo
            assert prev.gamma_lo < prev.gamma_hi

    def test_two_blob_plateau(self, blob_sweep):
        graph, labels, configs = blob_sweep
        two = [e for e in configs.entries if e.cluster_count == 2]
        assert two
        widest_two = max(two, key=lambda e: e.width)
        assert np.array_equal(np.sort(np.bincount(widest_two.labels)),
                              np.sort(np.bincount(labels)))
        # the partition re-wins at 10 interior gammas
        for gamma in np.linspace(widest_two.gamma_lo + 1e-6,
                                 widest_two.gamma_hi - 1e-6, 10):
            found, _ = optimize(graph, float(gamma), OptimizeOptions(seed=0))
            assert np.array_equal(found, widest_two.labels)

    def test_dominance_within_plateaus(self, blob_sweep):
        graph, _, configs = blob_sweep
        for entry in configs.entries:
            for gamma in np.linspace(entry.gamma_lo + 1e-9,
                                     entry.gamma_hi - 1e-9, 5):
                h_entry = entry.h_a + gamma * entry.h_r
                for other in configs.entries:
                    assert h_entry <= other.h_a + gamma * other.h_r + 1e-9

    def test_coarse_limit_is_component_partition(self, blob_sweep):
        graph, labels, configs = blob_sweep
        # the two blobs form two kNN components, so gamma -> 0+ gives them
        first = configs.entries[0]
        assert first.cluster_count == 2
        assert np.array_equal(first.labels, labels)

    def test_zero_attraction_graph(self):
        graph = from_edge_list(4, [(0, 1, 0.0), (2, 3, 0.0), (1, 2, 1e-9)],
                               repulsion_scheme="uniform")
        configs = find_configurations(graph, 2.0, OptimizeOptions(seed=0))
        assert configs.entries[-1].cluster_count == 4

    def test_bad_gamma_max(self, blob_sweep):
        graph, _, _ = blob_sweep
        for gamma_max in (0.0, np.nan, np.inf):
            with pytest.raises(ParameterError):
                find_configurations(graph, gamma_max)
        for gamma_max in ("2", True):
            with pytest.raises(ParameterError,
                               match=r"^gamma_max must be a real number"):
                find_configurations(graph, gamma_max)

    def test_partition_at(self, blob_sweep):
        _, _, configs = blob_sweep
        entry = configs.entries[0]
        mid = 0.5 * (entry.gamma_lo + entry.gamma_hi)
        assert configs.partition_at(mid) is entry
        with pytest.raises(ParameterError):
            configs.partition_at(0.0)
        with pytest.raises(ParameterError):
            configs.partition_at(configs.gamma_max + 1.0)

    def test_json_roundtrip(self, blob_sweep, tmp_path):
        _, _, configs = blob_sweep
        data = json.loads(configs.to_json())
        assert data["gamma_max"] == configs.gamma_max
        assert data["budget_exhausted"] is False
        assert len(data["plateaus"]) == configs.m
        for p, e in zip(data["plateaus"], configs.entries):
            assert p["labels"] == e.labels.tolist()
            assert (p["lo"], p["hi"]) == (e.gamma_lo, e.gamma_hi)
            assert (p["h_a"], p["h_r"], p["k"]) == (e.h_a, e.h_r,
                                                    e.cluster_count)

    def test_json_roundtrip_budget_exhausted(self, blob_sweep, monkeypatch):
        graph, _, _ = blob_sweep
        # depth 1 cannot resolve the two-blob plateau's edges
        monkeypatch.setattr(resolution, "MAX_DEPTH", 1)
        configs = find_configurations(graph, 4.0, OptimizeOptions(seed=0))
        assert configs.budget_exhausted
        data = json.loads(configs.to_json())
        assert data["budget_exhausted"] is True

    def test_landscape_csv(self, blob_sweep, tmp_path):
        _, _, configs = blob_sweep
        path = tmp_path / "landscape.csv"
        configs.landscape_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "id,h_a,h_r,lo,hi"
        assert len(rows) == configs.m + 1


def _depth_cut(probes, gamma_max, max_depth):
    """Whether the sweep that made `probes`, its (gamma, labels bytes) in
    call order, left an interval with unequal end partitions at
    `max_depth`, the sweep's `MAX_DEPTH`.

    The recursion is rebuilt from the probes alone.  The first interval,
    (0, gamma_max), has depth 0; a later one has one more than the deeper
    probe at its ends (depth -1 for the two ends of the first).  A probe
    lies strictly inside an interval visited at that depth, and its two
    halves are visited unless it returned the partition of either end.
    """
    (g0, k0), (g1, k1) = probes[:2]
    assert (g0, g1) == (0.0, gamma_max)
    gammas = [0.0, gamma_max]  # sorted
    found = {0.0: (k0, -1), gamma_max: (k1, -1)}  # gamma -> (key, depth)
    visited = [(0.0, gamma_max, 0)]
    for gamma, key in probes[2:]:
        at = bisect.bisect(gammas, gamma)
        lo, hi = gammas[at - 1], gammas[at]
        assert lo < gamma < hi
        depth = max(found[lo][1], found[hi][1]) + 1
        assert (lo, hi, depth) in visited and depth < max_depth
        found[gamma] = (key, depth)
        gammas.insert(at, gamma)
        if key not in (found[lo][0], found[hi][0]):
            visited += [(lo, gamma, depth + 1), (gamma, hi, depth + 1)]
    return any(found[lo][0] != found[hi][0] and depth >= max_depth
               for lo, hi, depth in visited)


def test_no_gamma_probed_twice_and_budget_marks_depth_cuts(blob_sweep,
                                                           monkeypatch):
    probes = []

    def recording(graph, gamma, opts):
        labels, energy = optimize(graph, gamma, opts)
        probes.append((gamma, labels.tobytes()))
        return labels, energy

    monkeypatch.setattr(resolution, "optimize", recording)
    three, _ = blob_graph(np.random.default_rng(1),
                          [(0, 0), (7, 0), (3.5, 6)], per=20, k=8)
    cuts = []
    for graph in (blob_sweep[0], three):
        for gamma_max in (2.0, 3.0):
            for max_depth in (3, 32):
                probes.clear()
                monkeypatch.setattr(resolution, "MAX_DEPTH", max_depth)
                configs = find_configurations(graph, gamma_max,
                                              OptimizeOptions(seed=0))
                gammas = [gamma for gamma, _ in probes]
                assert len(set(gammas)) == len(gammas)
                cut = _depth_cut(probes, gamma_max, max_depth)
                assert configs.budget_exhausted == cut
                cuts.append(cut)
    assert any(cuts) and not all(cuts)  # both outcomes were checked


def _novelty_graphs(count):
    """Graphs like the novelty experiment's at a small size: four 8-D
    blobs 12 apart plus 5 % uniform-box outliers, k = 10."""
    centers = 12.0 * np.eye(8)[:4]
    for seed in range(count):
        points, _ = blob_points(np.random.default_rng(seed), centers, per=20,
                                dim=8)
        points, _ = cognition.inject_outliers(points, 0.05, seed=seed)
        yield cognition.points_to_graph(points, k=10)


def test_exact_gamma_zero_end_changes_no_sweep(blob_sweep, monkeypatch):
    # with the gamma = 0 end forced through the level loop, as before it
    # was solved exactly, every sweep writes the same JSON and discovers
    # the same partitions in the same order, to the bit
    three, _ = blob_graph(np.random.default_rng(1),
                          [(0, 0), (7, 0), (3.5, 6)], per=20, k=8)
    cases = [(blob_sweep[0], 4.0, 0), (three, 3.0, 0)]
    cases += [(g, 2.0, seed) for seed, g in enumerate(_novelty_graphs(50))]
    for graph, gamma_max, seed in cases:
        opts = OptimizeOptions(seed=seed)
        exact = find_configurations(graph, gamma_max, opts)
        with monkeypatch.context() as patch:
            patch.setattr(resolution, "optimize", fresh_optimize)
            looped = find_configurations(graph, gamma_max, opts)
        assert exact.to_json() == looped.to_json()
        assert len(exact.discovered) == len(looped.discovered)
        for (a, ha, ra), (b, hb, rb) in zip(exact.discovered,
                                            looped.discovered):
            assert a.tobytes() == b.tobytes()
            assert np.float64([ha, ra]).tobytes() == np.float64(
                [hb, rb]).tobytes()


def test_sweep_frees_the_graph_without_the_cycle_collector():
    # a reference cycle would keep every swept graph and its partitions
    # alive until a collection runs, raising peak memory
    graph, _ = blob_graph(np.random.default_rng(2), [(0, 0), (9, 0)],
                          per=15, k=6)
    ref = weakref.ref(graph)
    gc.disable()
    try:
        find_configurations(graph, 2.0, OptimizeOptions(seed=0))
        del graph
        assert ref() is None
    finally:
        gc.enable()


class _Interrupted(Exception):
    pass


def test_an_interrupted_sweep_frees_the_graph_without_the_cycle_collector(
        monkeypatch):
    # a probe that raises (a KeyboardInterrupt, say) must leave no cycle
    # that keeps the graph alive once the exception is dropped
    calls = []

    def interrupted(graph, gamma, opts):
        calls.append(gamma)
        if len(calls) == 3:
            raise _Interrupted
        return optimize(graph, gamma, opts)

    monkeypatch.setattr(resolution, "optimize", interrupted)
    graph, _ = blob_graph(np.random.default_rng(2), [(0, 0), (9, 0)],
                          per=15, k=6)
    ref = weakref.ref(graph)
    gc.disable()
    try:
        try:
            find_configurations(graph, 2.0, OptimizeOptions(seed=0))
        except _Interrupted:
            pass
        del graph
        assert len(calls) == 3 and ref() is None
    finally:
        gc.enable()


# The exact-envelope oracle: on graphs of 6 to 9 items every set partition
# is enumerated, and the lower envelope of all their energy lines is the
# true one.  ORACLE_FLOOR is how many of its plateaus wider than
# ORACLE_WIDTH the sweep found when this test was written; a change to the
# optimizer may raise it, never lower it.
ORACLE_GAMMA_MAX = 3.0
ORACLE_WIDTH = 1e-3
ORACLE_FLOOR = 287


def _partition_lines(graph, partitions):
    """(h_a, h_r) of every partition (rows of `partitions`), from the
    dense matrices, pairs counted once."""
    same = partitions[:, :, None] == partitions[:, None, :]
    upper = np.triu(np.ones((graph.n, graph.n), dtype=bool), 1)
    same &= upper
    h_a = -np.einsum("pij,ij->p", same, graph.attraction_dense())
    h_r = np.einsum("pij,ij->p", same, graph.repulsion_dense())
    return h_a, h_r


def test_sweep_against_the_exact_envelope():
    # the sweep's plateaus, counted against the exact ones, and its
    # envelope never below the exact one (which only a wrong energy could
    # give)
    rng = np.random.default_rng(7)
    schemes = ("configuration_null", "uniform", "explicit")
    grid = np.linspace(0.0, ORACLE_GAMMA_MAX, 301)
    partitions = {n: np.array(list(set_partitions(n))) for n in range(6, 10)}
    found = total = 0
    for trial in range(60):
        n = 6 + trial % 4
        graph = random_affinity(rng, n=n, scheme=schemes[trial % 3])
        h_a, h_r = _partition_lines(graph, partitions[n])
        exact = lower_envelope(list(zip(range(len(h_a)), h_a, h_r)))
        configs = find_configurations(graph, ORACLE_GAMMA_MAX,
                                      OptimizeOptions(seed=trial))
        lines = np.array([(e.h_a, e.h_r) for e in configs.entries])
        for pid, lo, hi in exact:
            if min(hi, ORACLE_GAMMA_MAX) - lo <= ORACLE_WIDTH:
                continue
            total += 1
            found += bool(np.any(
                (np.abs(lines[:, 0] - h_a[pid]) <= 1e-9)
                & (np.abs(lines[:, 1] - h_r[pid]) <= 1e-9)))
        floor = np.min(h_a[:, None] + grid * h_r[:, None], axis=0)
        swept = np.min(lines[:, :1] + grid * lines[:, 1:], axis=0)
        assert np.all(swept >= floor - 1e-9), trial
    assert found >= ORACLE_FLOOR, (found, total)


def _plateaus(gamma_max, *spans):
    """A ConfigurationSet over 4 items of the plateaus (lo, hi, k): the
    first k - 1 items apart, the rest together."""
    return resolution.ConfigurationSet(gamma_max, tuple(
        resolution.PlateauEntry(lo, hi, np.minimum(np.arange(4), k - 1),
                                -float(k), float(k), k)
        for lo, hi, k in spans))


def _span(entry):
    return entry.gamma_lo, entry.gamma_hi, entry.cluster_count


class TestWidest:
    def test_skips_one_cluster_and_singletons(self):
        configs = _plateaus(3.0, (0.0, 1.0, 1), (1.0, 1.3, 2), (1.3, 1.5, 3),
                            (1.5, 3.0, 4))
        assert _span(configs.widest()) == (1.0, 1.3, 2)
        # without skipping, the widest of all: here the singletons
        assert _span(configs.widest(skip_extremes=False)) == (1.5, 3.0, 4)

    def test_skips_the_plateau_cut_off_at_gamma_max(self):
        configs = _plateaus(2.0, (0.0, 0.5, 1), (0.5, 1.0, 2), (1.0, 2.0, 3))
        assert _span(configs.widest()) == (0.5, 1.0, 2)
        assert _span(configs.widest(skip_extremes=False)) == (1.0, 2.0, 3)

    def test_falls_back_when_nothing_else_remains(self):
        # only the extremes: the one-cluster plateau, not cut off
        configs = _plateaus(2.0, (0.0, 1.0, 1), (1.0, 2.0, 4))
        assert _span(configs.widest()) == (0.0, 1.0, 1)
        # the one inner plateau is the cut-off one
        configs = _plateaus(2.0, (0.0, 1.5, 1), (1.5, 2.0, 2))
        assert _span(configs.widest()) == (1.5, 2.0, 2)
        # a single plateau, both extreme and cut off
        configs = _plateaus(2.0, (0.0, 2.0, 1))
        assert _span(configs.widest()) == (0.0, 2.0, 1)

    def test_a_tie_goes_to_the_lower_gamma(self):
        configs = _plateaus(3.0, (0.0, 0.5, 1), (0.5, 1.0, 2), (1.0, 1.5, 3),
                            (1.5, 3.0, 4))
        assert _span(configs.widest()) == (0.5, 1.0, 2)
        configs = _plateaus(2.0, (0.0, 1.0, 1), (1.0, 2.0, 4))
        assert _span(configs.widest(skip_extremes=False)) == (0.0, 1.0, 1)


class TestLowerEnvelope:
    def test_single_point(self):
        assert lower_envelope([("a", -1.0, 0.5)]) == [("a", 0.0, np.inf)]

    def test_extreme_pair(self):
        front = lower_envelope([("full", -4.0, 0.0), ("singletons", 0.0, 0.0)])
        assert front == [("full", 0.0, np.inf)]

    def test_excluded_middle_matches_grid_oracle(self, rng):
        for _ in range(50):
            points = [(i, float(rng.normal()), float(abs(rng.normal())))
                      for i in range(6)]
            front = lower_envelope(points)
            grid = np.linspace(0.0, 50.0, 2001)
            for gamma in grid:
                values = {pid: a + gamma * b for pid, a, b in points}
                best = min(values.values())
                winner = next(pid for pid, lo, hi in front if lo <= gamma < hi
                              or (hi == np.inf and gamma >= lo))
                assert values[winner] == pytest.approx(best, abs=1e-9)

    def test_empty_error(self):
        with pytest.raises(InputError):
            lower_envelope([])
