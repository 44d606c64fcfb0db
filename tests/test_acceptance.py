"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Each test prints `[criterion N] PASS ...` (or FAIL) so the suite output
doubles as the acceptance report.  Stated tolerances and time budgets are
asserted, not just reported.
"""

import time

import numpy as np
import pytest

from confres.cognition import (HierarchySpec, novelty_spec,
                               run_evolution_experiment,
                               run_hierarchy_experiment,
                               run_novelty_experiment)
from confres.energy import canonicalize, cluster_count
from confres.evaluation import (ContingencyTable, ari, contingency, nmi,
                                rms_align, v_measure)
from confres.graph import build_knn_graph, derive_affinity
from confres.mosaic import layout
from confres.optimizer import OptimizeOptions, optimize
from confres.resolution import find_configurations
from conftest import (blob_points, dense_energy, random_affinity,
                      set_partitions)
from test_evaluation import (ari_pairs_oracle, best_diagonal_oracle,
                             nmi_oracle, v_oracle)


def _report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_brute_force_optimality():
    """optimize() vs exhaustive set-partition enumeration, n <= 8."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    hits = 0
    worst_excess = 0.0
    for _ in range(50):
        g = random_affinity(rng)
        gamma = float(rng.random() * 2)
        best = min(dense_energy(g, labels, gamma)[0]
                   for labels in set_partitions(g.n))
        _, energy = optimize(g, gamma, OptimizeOptions(seed=0, restarts=4))
        if abs(energy.total - best) <= 1e-9:
            hits += 1
        excess = energy.total - best
        allowed = 0.05 * abs(best) + 1e-9
        worst_excess = max(worst_excess, excess - allowed)
    elapsed = time.perf_counter() - start
    ok = hits >= 40 and worst_excess <= 0.0 and elapsed < 60.0
    _report(1, ok, f"global optimum in {hits}/50 runs, "
                   f"max tolerance overshoot {worst_excess:.2e}, "
                   f"{elapsed:.1f}s (< 60s)")


def test_criterion_2_modularity_equivalence():
    """H at gamma=1 under the null scheme is affine decreasing in Q."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    max_residual = 0.0
    for _ in range(20):
        g = random_affinity(rng, n=int(rng.integers(4, 8)),
                            scheme="configuration_null")
        a = g.attraction_dense()
        s = g.strengths
        two_w = 2.0 * g.total_weight
        h_values, q_values = [], []
        for labels in set_partitions(g.n):
            same = labels[:, None] == labels[None, :]
            q = ((a - np.outer(s, s) / two_w)[same]).sum() / two_w
            h_values.append(dense_energy(g, labels, 1.0)[0])
            q_values.append(q)
        h = np.array(h_values)
        q = np.array(q_values)
        # affine map fixed by the derived identity, slope -W < 0
        predicted = -g.total_weight * q - (s ** 2).sum() / (2.0 * two_w)
        max_residual = max(max_residual, np.abs(h - predicted).max())
    elapsed = time.perf_counter() - start
    ok = max_residual <= 1e-9 and elapsed < 30.0
    _report(2, ok, f"H = -W*Q + const over all partitions of 20 graphs, "
                   f"max |residual| {max_residual:.2e} (<= 1e-9), "
                   f"{elapsed:.1f}s (< 30s)")


def test_criterion_3_extreme_configurations():
    """gamma = 0 -> component-coarse; huge gamma -> all singletons."""
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(20):
        g = random_affinity(rng)
        labels0, _ = optimize(g, 0.0, OptimizeOptions(seed=0))
        comp = _components(g)
        if not np.array_equal(labels0, comp):
            ok = False
        r = g.repulsion_dense()
        positive = r[r > 0]
        if positive.size:
            bound = g.weights.max() / positive.min()
            labels_inf, _ = optimize(g, 10.0 * bound, OptimizeOptions(seed=0))
            if cluster_count(labels_inf) != g.n:
                ok = False
    _report(3, ok, "gamma=0 gives the component partition and gamma at 10x "
                   "the singleton bound gives all singletons on 20 graphs "
                   "(exact)")


def _components(graph):
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


def test_criterion_4_plateau_contract():
    """Sweep intervals tile (0, gamma_max]; dominance inside plateaus."""
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    pts, _ = blob_points(rng, [(0, 0), (8, 0), (0, 8), (8, 8)], per=30)
    graph = derive_affinity(build_knn_graph(pts, k=10))
    configs = find_configurations(graph, 3.0, OptimizeOptions(seed=0))
    entries = configs.entries
    tiling = (entries[0].gamma_lo == 0.0
              and entries[-1].gamma_hi == configs.gamma_max
              and all(p.gamma_hi == c.gamma_lo
                      for p, c in zip(entries, entries[1:])))
    dominance = True
    lines = [(h_a, h_r) for _, h_a, h_r in configs.discovered]
    for entry in entries:
        for gamma in np.linspace(entry.gamma_lo, entry.gamma_hi, 7)[1:-1]:
            h_here = entry.h_a + gamma * entry.h_r
            if any(h_here > h_a + gamma * h_r + 1e-9 for h_a, h_r in lines):
                dominance = False
    elapsed = time.perf_counter() - start
    ok = tiling and dominance and elapsed < 30.0
    _report(4, ok, f"{configs.m} plateaus tile (0, {configs.gamma_max}] "
                   f"exactly; each dominates all {len(lines)} discovered "
                   f"partitions at 5 interior samples; {elapsed:.1f}s (< 30s)")


def test_criterion_5_hierarchical_selectivity():
    """Coarse plateau matches superordinate labels before basic ones."""
    start = time.perf_counter()
    report = run_hierarchy_experiment(HierarchySpec(seed=0))
    sup = report["levels"]["superordinate"]
    bas = report["levels"]["basic"]
    elapsed = time.perf_counter() - start
    ok = (sup["ari"] >= 0.95 and bas["ari"] >= 0.95
          and sup["gamma_lo"] < bas["gamma_lo"] and elapsed < 60.0)
    _report(5, ok, f"superordinate ARI {sup['ari']:.3f} on "
                   f"[{sup['gamma_lo']:.3f}, {sup['gamma_hi']:.3f}), basic "
                   f"ARI {bas['ari']:.3f} on [{bas['gamma_lo']:.3f}, "
                   f"{bas['gamma_hi']:.3f}); coarse first; "
                   f"{elapsed:.1f}s (< 60s)")


def test_criterion_6_novelty_auc():
    """Energy-score ROC-AUC >= 0.85 mean over 10 seeds."""
    start = time.perf_counter()
    aucs = [run_novelty_experiment(novelty_spec(seed))["auc"]
            for seed in range(10)]
    elapsed = time.perf_counter() - start
    mean = float(np.mean(aucs))
    ok = mean >= 0.85 and elapsed < 60.0
    _report(6, ok, f"mean AUC {mean:.3f} over 10 seeds (>= 0.85), "
                   f"min {min(aucs):.3f}, {elapsed:.1f}s (< 60s)")


def test_criterion_7_dynamic_stability():
    """Re-selected-resolution clustering beats frozen-k k-means on 1/ARI."""
    start = time.perf_counter()
    conf, km = [], []
    for seed in range(10):
        spec = HierarchySpec(superordinate_count=2, basic_per_super=2,
                             points_per_basic=40, super_separation=14.0,
                             basic_separation=5.0, seed=seed)
        trace = run_evolution_experiment(spec=spec, seed=seed)
        conf.append(np.mean(trace.inverse_ari_series["configurations"]))
        km.append(np.mean(trace.inverse_ari_series["kmeans"]))
    elapsed = time.perf_counter() - start
    ratio = float(np.mean(conf) / np.mean(km))
    ok = ratio <= 0.8 and elapsed < 120.0
    _report(7, ok, f"mean 1/ARI {np.mean(conf):.3f} (configurations) vs "
                   f"{np.mean(km):.3f} (k-means), ratio {ratio:.3f} "
                   f"(<= 0.8); {elapsed:.1f}s (< 120s)")


def test_criterion_8_metric_oracles():
    """ARI/NMI/V vs independent oracles; relabeling invariance."""
    rng = np.random.default_rng(8)
    max_err = 0.0
    invariant = True
    for trial in range(1000):
        n = int(rng.integers(4, 25))
        a = rng.integers(0, 5, n).tolist()
        b = rng.integers(0, 5, n).tolist()
        table = contingency(a, b)
        max_err = max(
            max_err,
            abs(ari(table) - ari_pairs_oracle(a, b)),
            abs(nmi(table) - nmi_oracle(a, b)),
            abs(v_measure(table) - v_oracle(a, b)))
        if trial % 100 == 0:
            pa = rng.permutation(5)[a].tolist()
            pb = rng.permutation(5)[b].tolist()
            permuted = contingency(pa, pb)
            if (abs(ari(permuted) - ari(table)) > 1e-12
                    or abs(nmi(permuted) - nmi(table)) > 1e-12
                    or abs(v_measure(permuted) - v_measure(table)) > 1e-12):
                invariant = False
    ok = max_err <= 1e-9 and invariant
    _report(8, ok, f"1000 random label pairs, max oracle deviation "
                   f"{max_err:.2e} (<= 1e-9); relabeling invariant")


def test_criterion_9_rms_and_mosaic():
    """Alignment recovery/monotonicity plus mosaic band invariants."""
    rng = np.random.default_rng(9)
    recovered = True
    for _ in range(50):
        k = int(rng.integers(2, 7))
        diag = rng.integers(1, 30, k)
        counts = np.zeros((k, k), dtype=np.int64)
        perm = rng.permutation(k)
        for i in range(k):
            counts[i, perm[i]] = diag[i]
        result = rms_align(ContingencyTable(counts))
        oracle = best_diagonal_oracle(counts)
        if not (result.assigned_mass() == diag.sum() == oracle
                and np.trace(result.aligned.counts) == diag.sum()):
            recovered = False
    monotone = True
    for _ in range(500):
        counts = rng.integers(0, 9, (int(rng.integers(2, 6)),
                                     int(rng.integers(2, 7)))).astype(np.int64)
        if counts.sum() == 0:
            continue
        if rms_align(ContingencyTable(counts)).assigned_mass() < np.trace(counts):
            monotone = False
    band_err = 0.0
    for _ in range(50):
        counts = rng.integers(0, 9, (4, 5)).astype(np.int64)
        if counts.sum() == 0:
            continue
        lay = layout(ContingencyTable(counts), gap=0.0)
        n = counts.sum()
        for i in range(4):
            got = sum(c.w for c in lay.cells if c.row == i)
            band_err = max(band_err, abs(got - counts[i].sum() / n))
        for j in range(5):
            got = sum(c.h for c in lay.cells if c.col == j)
            band_err = max(band_err, abs(got - counts[:, j].sum() / n))
    split = layout(ContingencyTable(np.array([[5, 5]])), gap=0.0)
    cells = sorted(split.cells, key=lambda c: c.col)
    split_ok = (len(cells) == 2
                and all(c.w == pytest.approx(0.5) for c in cells)
                and all(c.h == pytest.approx(0.5) for c in cells)
                and cells[0].x + cells[0].w == pytest.approx(cells[1].x))
    ok = recovered and monotone and band_err <= 1e-9 and split_ok
    _report(9, ok, f"permuted diagonals exactly recovered (50 tables); "
                   f"aligned mass >= raw trace on 500 tables; band sums "
                   f"within {band_err:.2e} (<= 1e-9); split renders two "
                   f"half-width full-height adjacent cells")


def test_criterion_10_scaling_sanity():
    """Doubling n must not much more than double the optimizer time."""
    rng = np.random.default_rng(10)
    graphs = {}
    for n_per in (250, 500):
        pts, _ = blob_points(
            rng, [(0, 0), (12, 0), (0, 12), (12, 12)], per=n_per)
        graphs[n_per * 4] = derive_affinity(build_knn_graph(pts, k=10))
    for graph in graphs.values():
        optimize(graph, 1.0, OptimizeOptions(seed=0))  # warm the kernels
    # both sizes in turn, seed by seed, so that a slow spell hits both
    samples = {n: [] for n in graphs}
    for run in range(15):
        for n, graph in graphs.items():
            t0 = time.perf_counter()
            optimize(graph, 1.0, OptimizeOptions(seed=run))
            samples[n].append(time.perf_counter() - t0)
    times = {n: float(np.median(s)) for n, s in samples.items()}
    factor = times[2000] / times[1000]
    ok = factor <= 2.6
    _report(10, ok, f"median optimize time {times[1000] * 1e3:.1f}ms at "
                    f"n=1000 vs {times[2000] * 1e3:.1f}ms at n=2000: "
                    f"factor {factor:.2f} (<= 2.6)")
