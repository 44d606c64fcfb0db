"""Leiden-style minimization of the attraction-repulsion energy at fixed gamma.

Phases per level: local moving, refinement (local moving from singletons
constrained to the current clusters), then aggregation on the refined
partition with the coarse partition as the starting point on the
aggregate graph.  Each of the two phases is one round of Leiden's fast
local move (see `kernels`): every item once in a random order, then
the neighbours of the items that moved, until none is left.  A final
item-level polish on the original graph runs rounds until one moves
nothing, which guarantees single-move stability of the returned
partition.

The optimizer runs one of two loops, which return the same labels and the
same energy floats.  With the C kernels loaded, each seed's whole loop
(every level, then the polish) is one call, `kernels.level_loop`, which
also returns the energy components (h_a, h_r) of the partition it found.
`_level_loop_py` runs the same loop in Python, phase by phase through
`kernels.sweep` (the Python phase, `kernels.sweep_py`, on every backend)
and `aggregate`, then takes the components from
`kernels.energy_components`.  It is the fallback without the C kernels
and the oracle the C loop is tested against.  It also runs when
`kernels.sweep` has been replaced (a tracer, which wraps `aggregate`
too), so that the replacement sees every call.

`aggregate` takes its constants from `kernels.energy_components` on the
fine graph, so aggregation is exact by definition: the coarse graph
holds only the cross-cluster pairs, and the partition's own energy is
the constant.

At gamma = 0 no loop runs: the optimum is the graph's connected
components over its edges of positive weight, which `kernels.components`
finds exactly (`kernels.components_py` without the C kernels).

A solve on a small graph should pay for little besides its loop, so the
fixed costs are paid once: the check of the graph and the C kernels'
view of it once per graph object, when it is made, each seed's initial
generator state once per seed, and the generator itself once per thread,
reset to that state per seed.
"""

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .energy import EnergySummary, canonicalize, check_gamma, cluster_count
from .errors import InputError, check_integer
from .graph import AffinityGraph, _owned, _pairs
from . import kernels

MAX_LEVELS = 32
# A phase evaluates at most this many items per item of its graph (as
# many as this many full passes): a move need only gain more than the
# absolute kernels.EPSILON, so rounding could make moves cycle even on a
# symmetric graph.  The final polish may run ten times as many.
MAX_SWEEPS_PER_LEVEL = 100


@dataclass(frozen=True)
class OptimizeOptions:
    seed: int = 0
    restarts: int = 1  # independent seeded runs; the best energy wins

    def __post_init__(self):
        for name, least in (("seed", 0), ("restarts", 1)):
            value = getattr(self, name)
            check_integer(name, value, least)
            # a plain int: numpy integer arithmetic could wrap seed + restarts
            object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class AggregateGraph:
    """Coarse graph over super-nodes plus the constants needed for exactness.

    (const_h_a, const_h_r) is `kernels.energy_components` of the fine
    partition, whose internal pairs the coarse graph leaves out, so
    H(super-partition on .graph) + const_h_a + gamma * const_h_r equals
    H(expanded partition) on the original graph.
    """

    graph: AffinityGraph
    mapping: np.ndarray       # original/previous node -> super-node id
    const_h_a: float
    const_h_r: float


def _run_sweeps(graph, labels, gamma, constraint, rng, max_sweeps, settle):
    """One local-moving phase through `kernels.sweep`: one round of the
    fast local move, or with `settle` rounds until one accepts no move.
    Returns total moves."""
    return kernels.sweep(*graph._kernel_args, float(gamma), labels,
                         constraint, rng, max_sweeps, settle)


def _collapse(labels, k, indptr, indices, weights):
    """`_pairs` of the cross-cluster CSR pairs, their weights summed per
    super-node pair: (rows, cols, vals, indptr, indices, weights)."""
    src = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    once = indices > src
    ci, cj, w = labels[src[once]], labels[indices[once]], weights[once]
    cross = ci != cj
    return _pairs(k, ci[cross], cj[cross], w[cross])


def aggregate(graph: AffinityGraph, labels) -> AggregateGraph:
    """Collapse clusters to super-nodes; energies are preserved exactly.
    InputError unless `labels` holds one integer label per item."""
    labels = canonicalize(labels)
    if labels.shape[0] != graph.n:
        raise InputError(f"partition shape {labels.shape} != ({graph.n},): "
                         f"one label per item")
    k = cluster_count(labels)
    const_h_a, const_h_r = kernels.energy_components(graph, labels)
    _, _, w_agg, indptr, indices, weights = _collapse(
        labels, k, graph.indptr, graph.indices, graph.weights)
    strengths = np.bincount(labels, weights=graph.strengths, minlength=k)
    kwargs = {}
    if graph.rep_mode == kernels.REP_PRODUCT:
        rep_strength = np.bincount(labels, weights=graph.rep_strength,
                                   minlength=k)
    else:
        *_, rp, rix, rwt = _collapse(
            labels, k, graph.rep_indptr, graph.rep_indices, graph.rep_weights)
        kwargs = {"rep_indptr": rp, "rep_indices": rix, "rep_weights": rwt}
        rep_strength = np.zeros(k)

    coarse = _owned(
        n=k, indptr=indptr, indices=indices, weights=weights,
        strengths=strengths, total_weight=float(np.sum(w_agg)),
        repulsion_scheme=graph.repulsion_scheme, rep_strength=rep_strength,
        rep_denom=graph.rep_denom, **kwargs)
    return AggregateGraph(graph=coarse, mapping=labels,
                          const_h_a=const_h_a, const_h_r=const_h_r)


def _level_loop_py(graph, gamma, rng):
    """(labels, h_a, h_r): the canonical labels of one seed's level loop,
    phase by phase, and their energy components."""
    cur = graph
    mapping = np.arange(graph.n)
    labels = np.arange(cur.n, dtype=np.int64)
    zeros = np.zeros(cur.n, dtype=np.int64)
    for _ in range(MAX_LEVELS):
        moved = _run_sweeps(cur, labels, gamma, zeros, rng,
                            MAX_SWEEPS_PER_LEVEL, False)
        labels = canonicalize(labels)
        k = cluster_count(labels)
        if moved == 0 or k == cur.n:
            break
        # refinement: singletons re-merged inside each cluster
        refined = np.arange(cur.n, dtype=np.int64)
        _run_sweeps(cur, refined, gamma, labels, rng, MAX_SWEEPS_PER_LEVEL,
                    False)
        refined = canonicalize(refined)
        if cluster_count(refined) == cur.n:
            refined = labels  # refinement kept everything apart; aggregate coarse
        agg = aggregate(cur, refined)
        # start the next level from the coarse partition expressed on super-nodes
        start = np.full(agg.graph.n, -1, dtype=np.int64)
        start[agg.mapping] = labels
        mapping = agg.mapping[mapping]
        cur = agg.graph
        labels = start
        zeros = np.zeros(cur.n, dtype=np.int64)
    final = labels[mapping]
    # polish on the original graph so single-item moves cannot improve H
    zeros = np.zeros(graph.n, dtype=np.int64)
    _run_sweeps(graph, final, gamma, zeros, rng, 10 * MAX_SWEEPS_PER_LEVEL,
                True)
    final = canonicalize(final)
    return (final, *kernels.energy_components(graph, final))


def _level_loop_c(graph, gamma, rng):
    return kernels.level_loop(graph, float(gamma), rng, MAX_LEVELS,
                              MAX_SWEEPS_PER_LEVEL, 10 * MAX_SWEEPS_PER_LEVEL)


def _compiled_loop():
    """Whether the C level loop stands in for `_level_loop_py`: the C
    kernels are loaded and `kernels.sweep`, which that loop calls per
    phase, has not been replaced."""
    return kernels.level_loop is not None and kernels.sweep is kernels.sweep_py


@lru_cache(maxsize=256)
def _initial_state(seed):
    """The state np.random.default_rng(np.random.PCG64(seed)) starts in.
    Seeding through SeedSequence costs about ten times as much as setting
    a state; the dict is shared, so it must not be changed."""
    return np.random.PCG64(seed).state


_SPARE = threading.local()  # each thread's generator between solves


def optimize(graph: AffinityGraph, gamma: float,
             opts: OptimizeOptions = None):
    """Minimize H at fixed gamma; returns (labels, EnergySummary).

    Deterministic for a fixed seed; the returned partition is canonical
    and single-move stable on the original graph.  With restarts, seeds
    seed, seed + 1, ... run in turn; a later one wins only with an energy
    lower by more than kernels.EPSILON.  At gamma = 0 the partition is
    the exact optimum, the connected components, whatever the seed.
    """
    check_gamma(gamma)
    if opts is None:
        opts = OptimizeOptions()
    if gamma == 0.0:
        labels, h_a, h_r = kernels.components(graph)
        return labels, EnergySummary.at(gamma, h_a, h_r)
    level_loop = _level_loop_c if _compiled_loop() else _level_loop_py
    # taken from the thread while in use, so a solve nested in this one
    # (from a replaced kernels.sweep, say) draws from a generator of its own
    rng = _SPARE.__dict__.pop("rng", None)
    if rng is None:
        rng = np.random.Generator(np.random.PCG64())
    best = None
    for seed in range(opts.seed, opts.seed + opts.restarts):
        # the draws of np.random.default_rng(np.random.PCG64(seed))
        rng.bit_generator.state = _initial_state(seed)
        labels, h_a, h_r = level_loop(graph, gamma, rng)
        energy = EnergySummary.at(gamma, h_a, h_r)
        if best is None or energy.total < best[1].total - kernels.EPSILON:
            best = (labels, energy)
    _SPARE.rng = rng
    return best
