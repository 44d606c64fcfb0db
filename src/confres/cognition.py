"""Desk-scale experiments: hierarchical selectivity, novelty, category evolution.

Synthetic generators stand in for the embedding datasets; every run is
deterministic under its seed.  The working resolution for a dataset is the
midpoint of the widest non-extreme plateau of its sweep.
"""

import math
from dataclasses import dataclass, asdict

import numpy as np

from .energy import canonicalize
from .errors import InputError, ParameterError, check_integer, check_real
from .evaluation import ari, contingency, inverse_ari, item_energy_scores, roc_auc
from .graph import build_knn_graph, derive_affinity
from .optimizer import OptimizeOptions
from .resolution import find_configurations


@dataclass(frozen=True)
class HierarchySpec:
    superordinate_count: int = 2
    basic_per_super: int = 2
    points_per_basic: int = 50
    super_separation: float = 12.0
    basic_separation: float = 3.0
    dimension: int = 2
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("superordinate_count", "basic_per_super",
                     "points_per_basic", "dimension"):
            check_integer(name, getattr(self, name))
        check_integer("seed", self.seed, 0)
        for name in ("super_separation", "basic_separation", "noise_sigma"):
            check_real(name, getattr(self, name))
        if self.superordinate_count < 1 or self.basic_per_super < 1 \
                or self.points_per_basic < 1 or self.dimension < 2:
            raise ParameterError("degenerate hierarchy spec")
        if self.super_separation <= 0 or self.basic_separation <= 0:
            raise ParameterError("separations must be positive")
        if not (math.isfinite(self.super_separation)
                and math.isfinite(self.basic_separation)):
            raise ParameterError("separations must be finite")
        if self.basic_per_super > 1 and self.super_separation <= self.basic_separation:
            raise ParameterError("super_separation must exceed basic_separation")

    @property
    def n(self) -> int:
        return self.superordinate_count * self.basic_per_super * self.points_per_basic


def _ring(count: int, radius: float, dim: int, phase: float = 0.0) -> np.ndarray:
    """Evenly spaced centers on a circle in the first two dimensions."""
    centers = np.zeros((count, dim))
    if count == 1:
        return centers
    angles = phase + 2.0 * np.pi * np.arange(count) / count
    centers[:, 0] = radius * np.cos(angles)
    centers[:, 1] = radius * np.sin(angles)
    return centers


def hierarchy_centers(spec: HierarchySpec):
    sup = _ring(spec.superordinate_count, spec.super_separation, spec.dimension)
    basic = []
    for s in range(spec.superordinate_count):
        offs = _ring(spec.basic_per_super, spec.basic_separation, spec.dimension,
                     phase=0.5 * np.pi * s)
        basic.append(sup[s] + offs)
    return sup, np.concatenate(basic, axis=0)


def generate_hierarchy(spec: HierarchySpec):
    """Gaussian basic-level clusters grouped around superordinate centers.

    Returns (points, super_labels, basic_labels).
    """
    rng = np.random.default_rng(spec.seed)
    _, basic_centers = hierarchy_centers(spec)
    points = []
    super_labels = []
    basic_labels = []
    b = 0
    for s in range(spec.superordinate_count):
        for _ in range(spec.basic_per_super):
            pts = basic_centers[b] + spec.noise_sigma * rng.standard_normal(
                (spec.points_per_basic, spec.dimension))
            points.append(pts)
            super_labels.extend([s] * spec.points_per_basic)
            basic_labels.extend([b] * spec.points_per_basic)
            b += 1
    return (np.concatenate(points, axis=0),
            np.array(super_labels, dtype=np.int64),
            np.array(basic_labels, dtype=np.int64))


def inject_outliers(points, fraction: float, seed: int = 0):
    """Append outliers drawn uniformly from the points' bounding box;
    returns (points, novel_flags)."""
    points = np.asarray(points, dtype=np.float64)
    check_real("fraction", fraction)
    check_integer("seed", seed, 0)
    if not 0.0 <= fraction <= 1.0:  # NaN fails too
        raise ParameterError(f"fraction must be in [0, 1], got {fraction}")
    n = points.shape[0]
    count = int(round(fraction * n))
    flags = np.zeros(n + count, dtype=bool)
    if count == 0:
        return points.copy(), flags
    rng = np.random.default_rng(seed)
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    outliers = center + rng.uniform(-1.0, 1.0, (count, points.shape[1])) * half
    flags[n:] = True
    return np.concatenate([points, outliers], axis=0), flags


def points_to_graph(points, k: int = 10):
    """Euclidean kNN graph, self-tuning Gaussian affinities, null-model
    repulsion."""
    return derive_affinity(build_knn_graph(points, k=k))


def _working_partition(configs):
    entry = configs.widest(skip_extremes=True)
    gamma = 0.5 * (entry.gamma_lo + entry.gamma_hi)
    return entry.labels, gamma, entry


def default_neighbors(spec: HierarchySpec) -> int:
    """k large enough that sibling basic clusters share kNN edges."""
    return min(spec.n - 1, spec.points_per_basic + 10)


def run_hierarchy_experiment(spec: HierarchySpec) -> dict:
    """Sweep the hierarchy dataset up to gamma = 4; report best plateau per
    label level."""
    points, super_labels, basic_labels = generate_hierarchy(spec)
    graph = points_to_graph(points, k=default_neighbors(spec))
    gamma_max = 4.0
    configs = find_configurations(graph, gamma_max, OptimizeOptions(seed=spec.seed))
    report = {"spec": asdict(spec), "gamma_max": gamma_max,
              "plateau_count": configs.m, "levels": {}}
    for name, truth in (("superordinate", super_labels), ("basic", basic_labels)):
        best = None
        for entry in configs.entries:
            score = ari(contingency(truth, entry.labels))
            if best is None or score > best["ari"]:
                best = {"gamma_lo": entry.gamma_lo, "gamma_hi": entry.gamma_hi,
                        "ari": score, "clusters": entry.cluster_count}
        report["levels"][name] = best
    sup = report["levels"]["superordinate"]
    bas = report["levels"]["basic"]
    report["coarse_before_fine"] = sup["gamma_lo"] <= bas["gamma_lo"]
    return report


def novelty_spec(seed: int = 0) -> HierarchySpec:
    """Blob layout for the novelty experiment: four well-separated Gaussian
    blobs in 8 dimensions.  The dimension keeps uniform-box outliers sparse
    enough that they attach to blobs instead of each other."""
    return HierarchySpec(superordinate_count=4, basic_per_super=1,
                         points_per_basic=250, super_separation=12.0,
                         basic_separation=3.0, dimension=8, seed=seed)


def run_novelty_experiment(spec: HierarchySpec,
                           fraction: float = 0.05) -> dict:
    """Cluster at the widest plateau of a sweep up to gamma = 2 (k = 30)
    and score novelty by item energy; outliers fill the data's bounding
    box."""
    check_real("fraction", fraction)
    if not 0.0 < fraction <= 1.0:  # NaN fails too
        raise InputError("novelty experiment needs an outlier fraction in "
                         f"(0, 1], got {fraction}")
    points, _, _ = generate_hierarchy(spec)
    n = points.shape[0]
    points, flags = inject_outliers(points, fraction, seed=spec.seed + 1)
    if not flags.any():  # roc_auc needs an outlier: fail before the sweep
        raise InputError(f"outlier fraction {fraction} of {n} points rounds "
                         f"to no outlier")
    graph = points_to_graph(points, k=30)
    configs = find_configurations(graph, 2.0, OptimizeOptions(seed=spec.seed))
    labels, gamma, entry = _working_partition(configs)
    scores = item_energy_scores(graph, labels, gamma)
    auc = roc_auc(scores.scores, flags)
    return {"spec": asdict(spec), "fraction": fraction, "gamma": gamma,
            "clusters": entry.cluster_count, "auc": auc,
            "novel_mean": float(scores.scores[flags].mean()),
            "familiar_mean": float(scores.scores[~flags].mean()),
            "scores": scores.scores.tolist(),
            "novel_flags": flags.tolist()}


def kmeans_baseline(points, k: int, seed: int = 0):
    """At most 100 Lloyd iterations from k distinct seeded items;
    deterministic per seed."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    check_integer("k", k)
    if not 1 <= k <= n:
        raise ParameterError(f"k must satisfy 1 <= k <= n, got {k}")
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    assign = None
    for _it in range(100):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(d2, axis=1)
        for c in range(k):
            if not np.any(new_assign == c):
                # reseed an empty cluster from the point farthest from its center
                far = int(np.argmax(d2[np.arange(n), new_assign]))
                centers[c] = points[far]
                new_assign[far] = c
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = points[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)
    return canonicalize(assign)


def detect_events(p_t, p_next):
    """Splits/merges between consecutive partitions from their contingency.

    A cluster of p_t spreading at least a fifth of its mass onto each of
    two or more clusters of p_next is a split; a cluster of p_next drawing
    likewise from several clusters of p_t is a merge.
    """
    table = contingency(p_t, p_next)
    counts = table.counts.astype(np.float64)
    events = []
    r = table.row_sums
    for i in range(counts.shape[0]):
        heavy = np.nonzero(counts[i] / r[i] >= 0.2)[0]
        if len(heavy) >= 2:
            events.append(("split", int(i), tuple(int(j) for j in heavy)))
    c = table.col_sums
    for j in range(counts.shape[1]):
        heavy = np.nonzero(counts[:, j] / c[j] >= 0.2)[0]
        if len(heavy) >= 2:
            events.append(("merge", int(j), tuple(int(i) for i in heavy)))
    return events


@dataclass(frozen=True)
class EvolutionTrace:
    timesteps: int
    true_labels: tuple             # per-step ground-truth labellings
    partitions: dict               # method -> list of per-step labellings
    inverse_ari_series: dict       # method -> list of length T-1
    events: tuple                  # (t, kind, clusters involved)


def _evolution_centers(spec: HierarchySpec, t: int, split_at, merge_at):
    """Per-step subgroup centers, truth label ids, and subgroup sizes.

    The item count is constant across steps: a split moves the two halves
    of cluster 0's points apart, a merge drifts the last two clusters onto
    their midpoint.
    """
    _, centers = hierarchy_centers(spec)
    centers = centers.copy()
    b = centers.shape[0]
    ppb = spec.points_per_basic
    out_centers = [centers[i] for i in range(b)]
    labels = list(range(b))
    sizes = [ppb] * b
    if split_at is not None and t >= split_at:
        # cluster 0 bifurcates over two steps along the first axis
        f = min((t - split_at + 1) / 2.0, 1.0)
        delta = np.zeros(spec.dimension)
        delta[0] = 0.75 * spec.basic_separation * f
        half = ppb // 2
        out_centers[0] = centers[0] - delta
        sizes[0] = ppb - half
        out_centers.insert(1, centers[0] + delta)
        labels.insert(1, b if f >= 1.0 else 0)
        sizes.insert(1, half)
    if merge_at is not None and t >= merge_at and b >= 3:
        # the last two clusters coalesce over two steps
        f = min((t - merge_at + 1) / 2.0, 1.0)
        mid = 0.5 * (centers[b - 2] + centers[b - 1])
        out_centers[-2] = centers[b - 2] + f * (mid - centers[b - 2])
        out_centers[-1] = centers[b - 1] + f * (mid - centers[b - 1])
        if f >= 1.0:
            labels[-1] = labels[-2]
    return (np.array(out_centers), np.array(labels, dtype=np.int64),
            np.array(sizes, dtype=np.int64))


def run_evolution_experiment(timesteps: int = 12, split_at: int = 4,
                             merge_at: int = 8, spec: HierarchySpec = None,
                             seed: int = None) -> EvolutionTrace:
    """Cluster each step independently; compare consecutive-step stability.

    The configurations method re-selects its resolution per step (widest
    plateau of a sweep up to gamma = 2); k-means keeps k frozen at the
    step-0 truth cluster count.
    """
    if spec is None:
        spec = HierarchySpec(superordinate_count=2, basic_per_super=2,
                             points_per_basic=40, super_separation=14.0,
                             basic_separation=5.0, noise_sigma=1.0)
    if seed is None:
        seed = spec.seed
    check_integer("seed", seed, 0)
    check_integer("timesteps", timesteps, 1)
    for event_t, name in ((split_at, "split_at"), (merge_at, "merge_at")):
        if event_t is None:
            continue
        check_integer(name, event_t)
        if not 0 <= event_t < timesteps:
            raise ParameterError(f"{name}={event_t} outside [0, {timesteps})")
    rng = np.random.default_rng(seed)
    true_labels = []
    step_points = []
    for t in range(timesteps):
        centers, label_ids, sizes = _evolution_centers(spec, t, split_at, merge_at)
        pts = []
        labs = []
        for c in range(centers.shape[0]):
            pts.append(centers[c] + spec.noise_sigma * rng.standard_normal(
                (int(sizes[c]), spec.dimension)))
            labs.extend([label_ids[c]] * int(sizes[c]))
        step_points.append(np.concatenate(pts, axis=0))
        true_labels.append(canonicalize(np.array(labs, dtype=np.int64)))
    k0 = int(true_labels[0].max()) + 1
    partitions = {"configurations": [], "kmeans": []}
    for t in range(timesteps):
        pts = step_points[t]
        graph = points_to_graph(pts, k=default_neighbors(spec))
        configs = find_configurations(graph, 2.0, OptimizeOptions(seed=seed))
        partitions["configurations"].append(_working_partition(configs)[0])
        partitions["kmeans"].append(kmeans_baseline(pts, k0, seed=seed * 1000 + t))
    series = {
        m: [inverse_ari(steps[t], steps[t + 1]) for t in range(timesteps - 1)]
        for m, steps in partitions.items()}
    events = []
    for t in range(timesteps - 1):
        for kind, cid, parts in detect_events(true_labels[t], true_labels[t + 1]):
            events.append((t + 1, kind, (cid,) + parts))
    return EvolutionTrace(
        timesteps=timesteps,
        true_labels=tuple(true_labels),
        partitions=partitions,
        inverse_ari_series=series,
        events=tuple(events))
