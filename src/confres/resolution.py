"""Plateau discovery over a resolution interval and the energy-landscape front.

For a fixed partition H is linear in gamma, so between two known optima the
only place dominance can change is the crossing point of their energy
lines.  The sweep recurses on crossing points until the partitions at both
ends of an interval coincide; the exact lower envelope of the energy lines
of every partition found then assigns the plateaus.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .energy import cluster_count
from .errors import InputError, ParameterError, check_integer, check_real
from .graph import AffinityGraph
from .optimizer import OptimizeOptions, optimize


@dataclass(frozen=True)
class PlateauEntry:
    gamma_lo: float           # half-open [lo, hi); lo == 0 means gamma -> 0+
    gamma_hi: float
    labels: np.ndarray
    h_a: float
    h_r: float
    cluster_count: int

    @property
    def width(self) -> float:
        return self.gamma_hi - self.gamma_lo


@dataclass(frozen=True)
class ConfigurationSet:
    gamma_max: float
    entries: tuple
    budget_exhausted: bool = False
    discovered: tuple = field(default=())  # every distinct partition seen

    @property
    def m(self) -> int:
        return len(self.entries)

    def partition_at(self, gamma: float) -> PlateauEntry:
        if not 0.0 < gamma <= self.gamma_max:
            raise ParameterError(f"gamma {gamma} outside (0, {self.gamma_max}]")
        for entry in self.entries:
            if entry.gamma_lo <= gamma < entry.gamma_hi:
                return entry
        return self.entries[-1]

    def widest(self, skip_extremes: bool = True) -> PlateauEntry:
        """Widest plateau.  By default the one-cluster and all-singleton
        extremes are skipped, as is the plateau truncated at gamma_max
        (its observed width is a cutoff artifact), unless nothing else
        remains."""
        pool = list(self.entries)
        if skip_extremes:
            n = len(self.entries[0].labels)
            inner = [e for e in pool if 1 < e.cluster_count < n]
            if inner:
                pool = inner
            interior = [e for e in pool if e.gamma_hi < self.gamma_max]
            if interior:
                pool = interior
        return max(pool, key=lambda e: (e.width, -e.gamma_lo))

    def to_dict(self) -> dict:
        return {
            "gamma_max": self.gamma_max,
            "budget_exhausted": self.budget_exhausted,
            "plateaus": [
                {"lo": e.gamma_lo, "hi": e.gamma_hi,
                 "labels": e.labels.tolist(),
                 "h_a": e.h_a, "h_r": e.h_r, "k": e.cluster_count}
                for e in self.entries],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    def landscape_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "h_a", "h_r", "lo", "hi"])
            for idx, e in enumerate(self.entries):
                writer.writerow([idx, e.h_a, e.h_r, e.gamma_lo, e.gamma_hi])


def configuration_set_from_dict(data: dict) -> ConfigurationSet:
    entries = []
    for p in data["plateaus"]:
        labels = np.array(p["labels"], dtype=np.int64)
        entries.append(PlateauEntry(
            gamma_lo=float(p["lo"]), gamma_hi=float(p["hi"]), labels=labels,
            h_a=float(p["h_a"]), h_r=float(p["h_r"]),
            cluster_count=int(p["k"])))
    return ConfigurationSet(
        gamma_max=float(data["gamma_max"]), entries=tuple(entries),
        budget_exhausted=bool(data.get("budget_exhausted", False)))


def find_configurations(graph: AffinityGraph, gamma_max: float,
                        opts: OptimizeOptions = None,
                        max_depth: int = 32) -> ConfigurationSet:
    """Discover the plateaus tiling (0, gamma_max].

    The left endpoint is optimized at gamma = 0 (connected-component
    coarse limit); a plateau with gamma_lo == 0 is open at 0.  An
    interval narrower than gamma_max * 1e-4, or `max_depth` crossings
    deep, gets no further probe; a depth cut sets `budget_exhausted`.
    Every probe after the two ends lies strictly inside an interval
    between earlier probes, so no gamma is probed twice.
    """
    check_real("gamma_max", gamma_max)
    # NaN fails every comparison, so it is rejected along with inf
    if not 0.0 < gamma_max < np.inf:
        raise ParameterError(f"gamma_max must be finite and > 0, got {gamma_max}")
    check_integer("max_depth", max_depth, 0)
    if opts is None:
        opts = OptimizeOptions()
    partitions = {}  # labels bytes -> (labels, h_a, h_r), in discovery order
    exhausted = False

    def solve(gamma):
        labels, energy = optimize(graph, gamma, opts)
        key = labels.tobytes()
        partitions.setdefault(key, (labels, energy.h_a, energy.h_r))
        return key

    def recurse(lo, key_lo, hi, key_hi, depth):
        nonlocal exhausted
        if key_lo == key_hi:
            return
        if depth >= max_depth:
            exhausted = True
            return
        if hi - lo < gamma_max * 1e-4:
            return
        _, ha_lo, hr_lo = partitions[key_lo]
        _, ha_hi, hr_hi = partitions[key_hi]
        denom = hr_lo - hr_hi
        if denom > 0.0:
            cross = (ha_hi - ha_lo) / denom
        else:
            cross = 0.5 * (lo + hi)
        if not lo + 1e-15 < cross < hi - 1e-15:
            cross = 0.5 * (lo + hi)
        key_mid = solve(cross)
        if key_mid == key_lo or key_mid == key_hi:
            return  # tie at the crossing: the boundary between the two lines
        recurse(lo, key_lo, cross, key_mid, depth + 1)
        recurse(cross, key_mid, hi, key_hi, depth + 1)

    recurse(0.0, solve(0.0), gamma_max, solve(gamma_max), 0)
    del recurse  # a self-referencing closure: free the graph now, not at GC
    # the recursion discovers candidate partitions; the exact lower envelope
    # of their energy lines assigns the plateau intervals, which guarantees
    # dominance within every interval even when the heuristic optimizer
    # returned an inconsistent answer at some probe
    points = [(key, h_a, h_r) for key, (_, h_a, h_r) in partitions.items()]
    entries = []
    for key, lo, hi in lower_envelope(points):
        if lo >= gamma_max:
            continue
        hi = min(hi, gamma_max)
        labels, h_a, h_r = partitions[key]
        entries.append(PlateauEntry(
            gamma_lo=lo, gamma_hi=hi, labels=labels, h_a=h_a, h_r=h_r,
            cluster_count=cluster_count(labels)))
    return ConfigurationSet(
        gamma_max=float(gamma_max), entries=tuple(entries),
        budget_exhausted=exhausted, discovered=tuple(partitions.values()))


def lower_envelope(points):
    """Minimal front of energy lines H(gamma) = h_a + gamma * h_r over gamma >= 0.

    `points` is a sequence of (id, h_a, h_r).  Returns [(id, lo, hi)]
    ordered by the gamma interval where each point dominates; the last
    interval is unbounded (hi = inf).
    """
    if len(points) == 0:
        raise InputError("lower_envelope needs at least one point")
    # per slope keep only the lowest intercept; sort slopes descending
    best = {}
    for pid, a, b in points:
        if b not in best or a < best[b][1] or (a == best[b][1] and pid < best[b][0]):
            best[b] = (pid, a)
    lines = sorted(((b, a, pid) for b, (pid, a) in best.items()), reverse=True)

    def cross(l1, l2):
        # gamma where the two lines meet; slopes strictly decreasing
        return (l2[1] - l1[1]) / (l1[0] - l2[0])

    hull = []
    for line in lines:
        while len(hull) >= 2 and cross(hull[-2], line) <= cross(hull[-2], hull[-1]):
            hull.pop()
        hull.append(line)
    # breakpoints, then clip to gamma >= 0
    result = []
    for idx, line in enumerate(hull):
        lo = -np.inf if idx == 0 else cross(hull[idx - 1], line)
        hi = np.inf if idx == len(hull) - 1 else cross(line, hull[idx + 1])
        if hi <= 0.0:
            continue
        result.append((line[2], max(lo, 0.0), hi))
    return result
