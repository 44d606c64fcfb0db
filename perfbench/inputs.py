"""Seeded input generators for the benchmark workloads (numpy only).

`write_inputs` derives a workload's inputs from its seed and a size scale
(1.0 for the benchmark, smaller for the self-test) and writes the arrays or
CSV files the program will receive into `workdir`.  Nothing here imports confres,
so the inputs stay fixed while the program changes.
"""

import os

import numpy as np

NOVELTY_POOL = 1000
EXPLICIT_POOL = 100
CLUSTER_POOL = 24
CLUSTER_N = 4000
EXPLICIT_N = 2000


def _ring(count, radius, dim):
    centers = np.zeros((count, dim))
    angles = 2.0 * np.pi * np.arange(count) / count
    centers[:, 0] = radius * np.cos(angles)
    centers[:, 1] = radius * np.sin(angles)
    return centers


def novelty_points(rng, per_blob=20, dim=8, fraction=0.05):
    """4 Gaussian blobs on a radius-12 ring in `dim`-D plus uniform outliers.

    The construction of confres's novelty experiment (novelty_spec and
    inject_outliers with spread 1) at a smaller blob size.
    """
    centers = _ring(4, 12.0, dim)
    points = np.concatenate(
        [c + rng.standard_normal((per_blob, dim)) for c in centers])
    count = int(round(fraction * len(points)))
    lo, hi = points.min(axis=0), points.max(axis=0)
    outliers = 0.5 * (lo + hi) + rng.uniform(-1.0, 1.0, (count, dim)) * 0.5 * (hi - lo)
    flags = np.zeros(len(points) + count, dtype=bool)
    flags[len(points):] = True
    return np.concatenate([points, outliers]), flags


def blob_points(rng, n):
    """n 2-D points from 4 unit-variance blobs 12 apart, with blob labels."""
    centers = np.array([(0, 0), (12, 0), (0, 12), (12, 12)], dtype=float)
    truth = np.repeat(np.arange(4), n // 4)
    return centers[truth] + rng.standard_normal((len(truth), 2)), truth


def planted_blocks(rng, n, blocks=8, in_deg=8, cross_deg=1, rep_deg=4):
    """Planted-partition edge lists: attraction (m, 3) and repulsion (r, 3).

    Each item draws `in_deg` partners in its own block (weights U[0.5, 1.5)),
    `cross_deg` in another block (U[0.1, 0.5)) and `rep_deg` repulsion
    partners anywhere (U[0.5, 1.5)).  No self-loops by construction.
    """
    size = n // blocks
    n = size * blocks
    truth = np.arange(n) // size

    src = np.repeat(np.arange(n), in_deg)
    dst = truth[src] * size + (src % size + rng.integers(1, size, len(src))) % size
    att = [np.column_stack([src, dst, rng.uniform(0.5, 1.5, len(src))])]
    src = np.repeat(np.arange(n), cross_deg)
    other = (truth[src] + rng.integers(1, blocks, len(src))) % blocks
    dst = other * size + rng.integers(0, size, len(src))
    att.append(np.column_stack([src, dst, rng.uniform(0.1, 0.5, len(src))]))
    src = np.repeat(np.arange(n), rep_deg)
    dst = (src + rng.integers(1, n, len(src))) % n
    rep = np.column_stack([src, dst, rng.uniform(0.5, 1.5, len(src))])
    return n, np.concatenate(att), rep, truth


def write_inputs(workload, seed, workdir, scale=1.0):
    """Generate `workload`'s inputs into `workdir`; returns the file map."""
    os.makedirs(workdir, exist_ok=True)
    files = {}

    def save(name, array):
        path = os.path.join(workdir, f"{name}.npy")
        np.save(path, array)
        files[name] = path

    if workload == "novelty_8d":
        # a pool of independent instances; a run takes them in order
        pool = [novelty_points(np.random.default_rng([seed, i]),
                               per_blob=max(int(20 * scale), 8))
                for i in range(NOVELTY_POOL)]
        save("points", np.stack([p for p, _ in pool]))
        save("flags", np.stack([f for _, f in pool]))
        # one optimizer seed per instance, so instances share no move order
        save("opt_seeds", np.random.default_rng(seed).integers(0, 2**31, NOVELTY_POOL))
    elif workload == "cluster_4k":
        # a pool of independent CSVs of one size
        files["csvs"] = []
        truths = []
        for i in range(CLUSTER_POOL):
            points, truth = blob_points(np.random.default_rng([seed, i]),
                                        max(int(CLUSTER_N * scale), 40))
            path = os.path.join(workdir, f"points_{i}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("x,y\n")
                for x, y in points:
                    fh.write(f"{float(x)!r},{float(y)!r}\n")
            files["csvs"].append(path)
            truths.append(truth)
        save("truth", np.stack(truths))
        save("opt_seeds", np.random.default_rng(seed).integers(0, 2**31, CLUSTER_POOL))
    elif workload == "explicit_2k":
        # a pool of independent instances of one size, stacked
        pool = [planted_blocks(np.random.default_rng([seed, i]),
                               max(int(EXPLICIT_N * scale), 80))
                for i in range(EXPLICIT_POOL)]
        save("edges", np.stack([att for _, att, _, _ in pool]))
        save("repulsion", np.stack([rep for _, _, rep, _ in pool]))
        save("truth", np.stack([truth for _, _, _, truth in pool]))
        save("opt_seeds", np.random.default_rng(seed).integers(0, 2**31, EXPLICIT_POOL))
        files["n"] = pool[0][0]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files
