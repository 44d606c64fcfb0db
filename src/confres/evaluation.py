"""Contingency analysis, clustering metrics, RMS alignment, novelty scoring.

RMS (reverse merge/split) alignment reorders a contingency table so each
ground-truth row's assigned predicted columns sit contiguously near the
diagonal, recording which predicted clusters are splits of a category and
which categories were merged away.  Alignment is presentation-only: every
metric computed from the table is unchanged by it.
"""

from dataclasses import dataclass

import numpy as np

from .energy import check_gamma, check_labels, integer_labels
from .errors import InputError
from .graph import AffinityGraph
from .kernels import REP_PRODUCT

INVERSE_ARI_FLOOR = 1e-3  # 1/ARI is clamped at ARI = floor (cap 1000)


@dataclass(frozen=True)
class ContingencyTable:
    counts: np.ndarray      # rows = reference categories, cols = predicted

    @property
    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_sums(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    @property
    def n(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class AlignmentResult:
    table: ContingencyTable          # the original table
    aligned: ContingencyTable        # rows/cols permuted for display
    row_order: np.ndarray            # display position -> original row
    col_order: np.ndarray            # display position -> original column
    owner: np.ndarray                # original column -> owning original row
    splits: tuple                    # (row, (col, col, ...)) with >= 2 columns
    merges: tuple                    # (row, (cols holding its mass,)) unmatched rows

    def assigned_mass(self) -> int:
        counts = self.table.counts
        return int(sum(counts[self.owner[j], j] for j in range(counts.shape[1])))


def contingency(a, b) -> ContingencyTable:
    """The table of two labelings of the same items; InputError, naming
    the first bad label, unless each label is an integer (`1.0` is 1)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError("labelings must be equal-length vectors")
    if a.size == 0:
        raise InputError("labelings are empty")
    a, b = integer_labels(a), integer_labels(b)
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    shape = (ai.max() + 1, bi.max() + 1)
    counts = np.bincount(ai * shape[1] + bi, minlength=shape[0] * shape[1])
    return ContingencyTable(counts=counts.reshape(shape))


def _comb2(x):
    return x * (x - 1) / 2.0


def ari(table: ContingencyTable) -> float:
    """Adjusted Rand index via pair counting."""
    if table.n < 2:
        raise InputError("ARI needs at least two items")
    counts = table.counts.astype(np.float64)
    # sorted summation keeps results bit-identical under relabeling
    index = np.sort(_comb2(counts), axis=None).sum()
    sum_r = np.sort(_comb2(table.row_sums.astype(np.float64))).sum()
    sum_c = np.sort(_comb2(table.col_sums.astype(np.float64))).sum()
    total = _comb2(float(table.n))
    expected = sum_r * sum_c / total
    max_index = 0.5 * (sum_r + sum_c)
    if max_index == expected:
        return 1.0  # both sides trivial (all-singletons or single cluster)
    return float((index - expected) / (max_index - expected))


def _entropy(freq: np.ndarray, n: float) -> float:
    p = np.sort(freq[freq > 0]) / n
    return float(-np.sum(p * np.log(p)))


def _mutual_information(table: ContingencyTable) -> float:
    n = float(table.n)
    counts = table.counts
    r = table.row_sums
    c = table.col_sums
    terms = []
    for i, j in zip(*np.nonzero(counts)):
        p = counts[i, j] / n
        terms.append(p * np.log(n * counts[i, j] / (r[i] * c[j])))
    # sorted summation keeps results bit-identical under relabeling
    return float(np.sort(np.array(terms)).sum()) if terms else 0.0


def nmi(table: ContingencyTable) -> float:
    """Mutual information normalized by the arithmetic mean of entropies."""
    if table.n < 1:
        raise InputError("NMI needs at least one item")
    n = float(table.n)
    h_r = _entropy(table.row_sums.astype(np.float64), n)
    h_c = _entropy(table.col_sums.astype(np.float64), n)
    if h_r == 0.0 and h_c == 0.0:
        return 1.0
    mean = 0.5 * (h_r + h_c)
    return float(np.clip(_mutual_information(table) / mean, 0.0, 1.0))


def v_measure(table: ContingencyTable) -> float:
    """Harmonic mean of homogeneity and completeness (natural logs)."""
    if table.n < 1:
        raise InputError("V-measure needs at least one item")
    n = float(table.n)
    h_r = _entropy(table.row_sums.astype(np.float64), n)
    h_c = _entropy(table.col_sums.astype(np.float64), n)
    mi = _mutual_information(table)
    homogeneity = 1.0 if h_r == 0.0 else mi / h_r
    completeness = 1.0 if h_c == 0.0 else mi / h_c
    if homogeneity + completeness == 0.0:
        return 0.0
    return float(2.0 * homogeneity * completeness / (homogeneity + completeness))


def rms_align(table: ContingencyTable) -> AlignmentResult:
    """Three-stage reverse merge/split alignment.

    Stage 1: optimal one-to-one assignment maximizing matched counts on the
    zero-padded square table.  Stage 2: each still-unmatched predicted
    column becomes a split of the row maximizing N_ij / c_j; each row left
    without any column is recorded as a merge.  Stage 3: columns are laid
    out so each row's columns are contiguous and rows are ordered by their
    first assigned column.
    """
    # imported here so that only `confres eval` pays for scipy.optimize
    from scipy.optimize import linear_sum_assignment

    counts = table.counts
    if counts.size == 0 or table.n == 0:
        raise InputError("empty contingency table")
    nr, nc = counts.shape
    size = max(nr, nc)
    padded = np.zeros((size, size))
    padded[:nr, :nc] = counts
    rows_idx, cols_idx = linear_sum_assignment(-padded)
    primary = np.full(nc, -1, dtype=np.int64)   # column -> stage-1 row
    for r, c in zip(rows_idx, cols_idx):
        if r < nr and c < nc:
            primary[c] = r
    owner = primary.copy()
    split_rows = {}
    for j in range(nc):
        if owner[j] == -1 or counts[owner[j], j] == 0:
            # unmatched (or matched on a zero): reassign by column fraction
            cj = table.col_sums[j]
            frac = counts[:, j] / cj if cj > 0 else counts[:, j]
            owner[j] = int(np.argmax(frac))
    owned = [[] for _ in range(nr)]
    for j in range(nc):
        owned[owner[j]].append(j)
    splits = tuple((i, tuple(cols)) for i, cols in enumerate(owned) if len(cols) >= 2)
    merges = tuple(
        (i, tuple(int(j) for j in np.nonzero(counts[i])[0]))
        for i in range(nr) if not owned[i])
    # stage 3 ordering
    row_order = sorted(range(nr),
                       key=lambda i: (min(owned[i]) if owned[i] else nc, i))
    col_order = []
    for i in row_order:
        # ascending, but the row's stage-1 column (at most one) first
        col_order.extend(sorted(owned[i], key=lambda j: (primary[j] != i, j)))
    row_order = np.array(row_order, dtype=np.int64)
    col_order = np.array(col_order, dtype=np.int64)
    aligned = ContingencyTable(counts=counts[np.ix_(row_order, col_order)])
    return AlignmentResult(
        table=table, aligned=aligned, row_order=row_order, col_order=col_order,
        owner=owner, splits=splits, merges=merges)


def accuracy(alignment: AlignmentResult) -> float:
    """Fraction of items falling in their row's assigned columns."""
    if not isinstance(alignment, AlignmentResult):
        raise InputError("accuracy needs an AlignmentResult (run rms_align first)")
    return alignment.assigned_mass() / alignment.table.n


def inverse_ari(p_t, p_next) -> float:
    """1 / max(ARI, 1e-3), capped at 1000; lower means smoother evolution."""
    score = ari(contingency(p_t, p_next))
    return float(1.0 / max(score, INVERSE_ARI_FLOOR))


@dataclass(frozen=True)
class NoveltyScores:
    scores: np.ndarray


def _within_cluster_sums(indptr, indices, weights, labels) -> np.ndarray:
    """Per item, the sum of its CSR edge weights to other members of its
    own cluster.  bincount adds in CSR order, as a per-edge loop would."""
    n = labels.shape[0]
    src = np.repeat(np.arange(n), np.diff(indptr))
    keep = labels[indices] == labels[src]
    return np.bincount(src[keep], weights=weights[keep], minlength=n)


def item_energy_scores(graph: AffinityGraph, labels, gamma: float) -> NoveltyScores:
    """Per-item mean energy contribution within its cluster (higher = more novel).

    Singleton items take the maximum finite non-singleton score plus one.
    """
    labels = check_labels(labels, graph.n)
    check_gamma(gamma)
    k = int(labels.max()) + 1
    sizes = np.bincount(labels, minlength=k)
    attr = _within_cluster_sums(graph.indptr, graph.indices, graph.weights, labels)
    if graph.rep_mode == REP_PRODUCT:
        # bincount adds each cluster's strengths in item order
        cluster_rho = np.bincount(labels, weights=graph.rep_strength,
                                  minlength=k)
        rep = graph.rep_strength * (cluster_rho[labels] - graph.rep_strength)
        rep = rep / graph.rep_denom
    else:
        rep = _within_cluster_sums(graph.rep_indptr, graph.rep_indices,
                                   graph.rep_weights, labels)
    denom = np.maximum(sizes[labels] - 1, 1)
    scores = (-attr + gamma * rep) / denom
    singleton = sizes[labels] == 1
    if np.any(singleton):
        if np.all(singleton):
            scores[:] = 0.0
        else:
            scores[singleton] = scores[~singleton].max() + 1.0
    return NoveltyScores(scores=scores)


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their positions.  Every rank
    is an integer or a half-integer, so the values are exact."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    n = ordered.shape[0]
    new = np.empty(n, dtype=bool)  # where a tie group starts
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    ends = np.empty_like(starts)  # one past each tie group
    ends[:-1] = starts[1:]
    ends[-1:] = n
    ranks = np.empty(n)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def roc_auc(scores, novel_flags) -> float:
    """Rank-based (Mann-Whitney) AUC with midrank tie handling."""
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(novel_flags, dtype=bool)
    if scores.ndim != 1 or scores.shape != flags.shape:
        raise InputError("scores and flags must be equal-length vectors")
    n_pos = int(flags.sum())
    n_neg = int((~flags).sum())
    if n_pos == 0 or n_neg == 0:
        raise InputError("roc_auc needs at least one positive and one negative")
    if np.isnan(scores).any():
        raise InputError("roc_auc scores contain NaN")
    ranks = _midranks(scores)
    auc = (ranks[flags].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return float(auc)
