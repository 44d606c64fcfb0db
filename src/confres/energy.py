"""Attraction-repulsion energy of a partition and incremental move deltas.

The objective is H = h_a + gamma * h_r with h_a the negated sum of
within-cluster attraction and h_r the sum of within-cluster repulsion.
Both components are gamma-independent, so H is linear in gamma for a
fixed partition.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError, check_integer, check_real
from .graph import AffinityGraph
from . import kernels


@dataclass(frozen=True)
class EnergySummary:
    gamma: float
    h_a: float
    h_r: float
    total: float

    @classmethod
    def at(cls, gamma, h_a, h_r) -> "EnergySummary":
        """H = h_a + gamma * h_r for a partition with components (h_a, h_r)."""
        return cls(gamma=float(gamma), h_a=h_a, h_r=h_r,
                   total=h_a + gamma * h_r)


def canonicalize(labels) -> np.ndarray:
    """Relabel clusters in first-occurrence order starting at 0; raises
    InputError unless `labels` is 1-D and each label an integer (negatives
    too: only their order of first occurrence counts)."""
    values = np.asarray(labels)
    if values.ndim != 1:
        raise InputError(f"labels of shape {values.shape} must be 1-D: one "
                         f"label per item")
    labels = integer_labels(values)
    n = labels.shape[0]
    if n and labels.min() >= 0 and labels.max() < n:
        # O(n): each label's first position, then the items that hold it
        pos = np.arange(n)
        first = np.full(n, n)
        np.minimum.at(first, labels, pos)
        head = first[labels]
        return (np.cumsum(head == pos) - 1)[head]
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    # rank each unique value by where it first appears
    rank = np.argsort(np.argsort(first, kind="stable"), kind="stable")
    return rank[inverse].astype(np.int64)


def cluster_count(labels) -> int:
    return int(np.max(labels)) + 1 if len(labels) else 0


def check_gamma(gamma: float) -> None:
    """Raise ParameterError unless gamma is a finite real number >= 0."""
    check_real("gamma", gamma)
    # NaN fails every comparison, so it is rejected along with inf
    if not 0.0 <= gamma < np.inf:
        raise ParameterError(f"gamma must be finite and >= 0, got {gamma}")


def _real(value) -> float:
    """float(value), or NaN where it is no number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return np.nan


def integer_labels(values, n=None) -> np.ndarray:
    """The 1-D array `values` as a C-contiguous int64 array; raises
    InputError, naming the first bad item, unless each is an integer, in
    [0, n) when n is given."""
    if values.dtype.kind in "biu":
        if n is None or not values.size or (values.min() >= 0
                                            and values.max() < n):
            return np.ascontiguousarray(values, dtype=np.int64)
        bad = (values < 0) | (values >= n)
    else:  # a float 1.0 is the integer 1; 0.5 and NaN are none
        try:
            real = values.astype(np.float64)
        except (TypeError, ValueError):  # NaN for each label that is no number
            real = np.array([_real(v) for v in values.tolist()])
        lo, hi = (-2.0 ** 63, 2.0 ** 63) if n is None else (0, n)
        bad = ~((real >= lo) & (real < hi) & (np.floor(real) == real))
        if not bad.any():
            return real.astype(np.int64)
    item = int(np.flatnonzero(bad)[0])
    span = "" if n is None else f" in [0, {n})"
    raise InputError(f"label {values[item]} of item {item} is not an "
                     f"integer{span}")


def check_labels(labels, n: int) -> np.ndarray:
    """`labels` as a C-contiguous int64 array; raises InputError, naming
    the first bad item, unless they are n labels, each an integer in
    [0, n)."""
    values = np.asarray(labels)
    if values.ndim != 1 or values.shape[0] != n:
        raise InputError(f"partition shape {values.shape} != ({n},): one "
                         f"label per item")
    return integer_labels(values, n)


def _check(graph: AffinityGraph, labels, gamma: float) -> np.ndarray:
    labels = check_labels(labels, graph.n)
    check_gamma(gamma)
    return labels


def landscape_point(graph: AffinityGraph, labels) -> tuple:
    """(h_a, h_r) coordinates of a partition in the energy landscape."""
    return kernels.energy_components(graph, _check(graph, labels, 0.0))


def hamiltonian(graph: AffinityGraph, labels, gamma: float) -> EnergySummary:
    return EnergySummary.at(gamma, *kernels.energy_components(
        graph, _check(graph, labels, gamma)))


def move_delta(graph: AffinityGraph, labels, item: int, target: int,
               gamma: float) -> float:
    """H(after moving item to target) - H(before); target = K opens a new cluster.

    Edges are read only from the item's own CSR rows; product-form
    repulsion also sums rep_strength over its two clusters.
    """
    labels = _check(graph, labels, gamma)
    check_integer("item", item)
    check_integer("target", target)
    if not 0 <= item < graph.n:
        raise InputError(f"item {item} out of range")
    k = cluster_count(labels)
    if not 0 <= target <= k:
        raise InputError(f"target {target} out of range [0, {k}]")
    current = labels[item]
    if target == current:
        return 0.0

    def gain(indptr, indices, weights):
        # weight from item to the target cluster minus that to its own
        row = slice(indptr[item], indptr[item + 1])
        to, w = labels[indices[row]], weights[row]
        return np.sum(w[to == target]) - np.sum(w[to == current])

    if graph.rep_mode == kernels.REP_PRODUCT:
        rho = graph.rep_strength
        repulsion = rho[item] * (
            np.sum(rho[labels == target])
            - (np.sum(rho[labels == current]) - rho[item])) / graph.rep_denom
    else:
        repulsion = gain(graph.rep_indptr, graph.rep_indices, graph.rep_weights)
    return float(gamma * repulsion
                 - gain(graph.indptr, graph.indices, graph.weights))
