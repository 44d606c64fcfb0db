"""Metrics vs independent oracles, RMS alignment, novelty scores."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from confres.errors import InputError, ParameterError
from confres.evaluation import (ContingencyTable, accuracy, ari, contingency,
                                inverse_ari, item_energy_scores, nmi,
                                rms_align, roc_auc, v_measure)
from confres.graph import from_edge_list

from conftest import random_affinity


# --- independent oracles -------------------------------------------------

def ari_pairs_oracle(a, b):
    """ARI from raw agreement counts over all item pairs."""
    n = len(a)
    ss = sd = ds = dd = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            if sa and sb:
                ss += 1
            elif sa:
                sd += 1
            elif sb:
                ds += 1
            else:
                dd += 1
    num = 2.0 * (ss * dd - sd * ds)
    den = (ss + sd) * (sd + dd) + (ss + ds) * (ds + dd)
    if den == 0:
        return 1.0
    return num / den


def entropy_oracle(labels):
    n = len(labels)
    return -sum((c / n) * math.log(c / n) for c in Counter(labels).values())


def mi_oracle(a, b):
    n = len(a)
    joint = Counter(zip(a, b))
    ca, cb = Counter(a), Counter(b)
    mi = 0.0
    for (x, y), c in joint.items():
        mi += (c / n) * math.log(n * c / (ca[x] * cb[y]))
    return mi


def nmi_oracle(a, b):
    ha, hb = entropy_oracle(a), entropy_oracle(b)
    if ha == 0.0 and hb == 0.0:
        return 1.0
    mean = 0.5 * (ha + hb)
    return 0.0 if mean == 0.0 else min(max(mi_oracle(a, b) / mean, 0.0), 1.0)


def v_oracle(a, b):
    ha, hb = entropy_oracle(a), entropy_oracle(b)
    mi = mi_oracle(a, b)
    hom = 1.0 if ha == 0.0 else mi / ha
    com = 1.0 if hb == 0.0 else mi / hb
    return 0.0 if hom + com == 0.0 else 2 * hom * com / (hom + com)


def best_diagonal_oracle(counts):
    """Max diagonal mass over all column permutations (small tables)."""
    nr, nc = counts.shape
    best = 0
    for perm in itertools.permutations(range(nc)):
        mass = sum(counts[i, perm[i]] for i in range(min(nr, nc)))
        best = max(best, mass)
    return best


# --- metric tests --------------------------------------------------------

class TestMetrics:
    def test_match_oracles_random_pairs(self, rng):
        for _ in range(60):
            n = int(rng.integers(5, 30))
            a = rng.integers(0, 4, n).tolist()
            b = rng.integers(0, 4, n).tolist()
            table = contingency(a, b)
            assert ari(table) == pytest.approx(ari_pairs_oracle(a, b), abs=1e-9)
            assert nmi(table) == pytest.approx(nmi_oracle(a, b), abs=1e-9)
            assert v_measure(table) == pytest.approx(v_oracle(a, b), abs=1e-9)

    def test_relabeling_invariance(self, rng):
        a = rng.integers(0, 4, 40)
        b = rng.integers(0, 3, 40)
        base = (ari(contingency(a, b)), nmi(contingency(a, b)),
                v_measure(contingency(a, b)))
        for _ in range(5):
            pa = rng.permutation(4)[a]
            pb = rng.permutation(3)[b]
            got = (ari(contingency(pa, pb)), nmi(contingency(pa, pb)),
                   v_measure(contingency(pa, pb)))
            assert got == pytest.approx(base, abs=1e-12)

    def test_identical_partitions(self, rng):
        a = rng.integers(0, 3, 20)
        table = contingency(a, a)
        assert ari(table) == 1.0
        assert nmi(table) == pytest.approx(1.0)
        assert v_measure(table) == pytest.approx(1.0)

    def test_trivial_partitions(self):
        table = contingency([0, 0, 0], [0, 1, 2])
        # single-cluster vs singletons: both trivial sides give ARI 1 by
        # the max-index == expected-index convention
        assert ari(contingency([0] * 4, [0] * 4)) == 1.0
        assert nmi(contingency([0] * 4, [0] * 4)) == 1.0
        assert ari(table) == 0.0

    @pytest.mark.parametrize("a, b", [([0, 1], [0, 1, 1]),
                                      ([[0, 1]], [[0, 1]])])
    def test_contingency_needs_equal_length_vectors(self, a, b):
        with pytest.raises(InputError,
                           match="^labelings must be equal-length vectors$"):
            contingency(a, b)

    def test_too_few_items(self):
        with pytest.raises(InputError, match="^ARI needs at least two items$"):
            ari(contingency([0], [0]))
        empty = ContingencyTable(np.zeros((1, 1), dtype=np.int64))
        with pytest.raises(InputError, match="^NMI needs at least one item$"):
            nmi(empty)
        with pytest.raises(InputError,
                           match="^V-measure needs at least one item$"):
            v_measure(empty)

    def test_v_measure_of_independent_labelings_is_zero(self):
        # no mutual information: homogeneity and completeness are both 0
        assert v_measure(contingency([0, 0, 1, 1], [0, 1, 0, 1])) == 0.0

    def test_contingency_matches_add_at(self, rng):
        # counts by np.add.at over the inverse labels, the table's old build
        for _ in range(40):
            n = int(rng.integers(1, 60))
            a = rng.integers(-3, int(rng.integers(1, 9)), n)
            b = rng.choice([-7, 0, 2, 10 ** 12], n)
            _, ai = np.unique(a, return_inverse=True)
            _, bi = np.unique(b, return_inverse=True)
            want = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
            np.add.at(want, (ai, bi), 1)
            got = contingency(a, b).counts
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("labels, item", [
        ([0.5, 1.5, 1.0], 0), ([0, np.nan, 1], 1), (["a", "b", "a"], 0),
        ([0, 1, "x"], 2), ([0, None, 1], 1), ([0, 1, 2.0 ** 63], 2)])
    def test_contingency_rejects_labels_that_are_not_integers(self, labels,
                                                              item):
        # before: 0.5 read as 0 with no error, NaN and strings a bare
        # ValueError
        for a, b in ((labels, [0, 1, 1]), ([0, 1, 1], labels)):
            with pytest.raises(InputError,
                               match=rf"of item {item} is not an integer$"):
                contingency(a, b)

    def test_contingency_of_integral_labels_keeps_its_table(self):
        want = contingency([0, 1, 1, 2], [1, 0, 0, 1]).counts
        for a in ([0.0, 1.0, 1.0, 2.0], np.array([0, 1, 1, 2], np.uint8),
                  np.array([0, 1, 1, 2], np.int32), [-0.0, 1, 1.0, 2]):
            got = contingency(a, [1, 0, 0, 1]).counts
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        want = contingency([0, 1, 1], [0, 0, 1]).counts
        got = contingency([False, True, True], [0, 0, 1]).counts
        assert got.tobytes() == want.tobytes()

    def test_inverse_ari(self, rng):
        p = rng.integers(0, 3, 30)
        assert inverse_ari(p, p) == 1.0
        # anti-correlated labellings clamp at the floor
        assert inverse_ari([0, 0, 1, 1], [0, 1, 0, 1]) <= 1000.0


class TestRmsAlign:
    def test_permuted_diagonal_recovered(self, rng):
        for _ in range(30):
            k = int(rng.integers(2, 7))
            diag = rng.integers(1, 20, k)
            counts = np.zeros((k, k), dtype=np.int64)
            perm = rng.permutation(k)
            for i in range(k):
                counts[i, perm[i]] = diag[i]
            result = rms_align(ContingencyTable(counts))
            assert result.assigned_mass() == diag.sum()
            assert np.trace(result.aligned.counts) == diag.sum()

    def test_matches_exhaustive_assignment_oracle(self, rng):
        for _ in range(30):
            k = int(rng.integers(2, 6))
            counts = rng.integers(0, 10, (k, k)).astype(np.int64)
            if counts.sum() == 0:
                continue
            result = rms_align(ContingencyTable(counts))
            assert result.assigned_mass() >= best_diagonal_oracle(counts)

    def test_alignment_is_presentation_only(self, rng):
        a = rng.integers(0, 4, 50)
        b = rng.integers(0, 5, 50)
        table = contingency(a, b)
        aligned = rms_align(table).aligned
        assert ari(aligned) == pytest.approx(ari(table), abs=1e-12)
        assert nmi(aligned) == pytest.approx(nmi(table), abs=1e-12)
        assert v_measure(aligned) == pytest.approx(v_measure(table), abs=1e-12)

    def test_diagonal_mass_never_decreases(self, rng):
        for _ in range(100):
            nr = int(rng.integers(2, 7))
            nc = int(rng.integers(2, 9))
            counts = rng.integers(0, 8, (nr, nc)).astype(np.int64)
            if counts.sum() == 0:
                continue
            table = ContingencyTable(counts)
            result = rms_align(table)
            # aligned diagonal mass = mass each column contributes to its
            # owning row's block; never below the raw trace
            assert result.assigned_mass() >= np.trace(counts)

    def test_split_recorded(self):
        # one category split evenly across two predicted clusters
        counts = np.array([[5, 5]], dtype=np.int64)
        result = rms_align(ContingencyTable(counts))
        assert result.splits == ((0, (0, 1)),)
        assert result.merges == ()

    def test_merge_recorded(self):
        counts = np.array([[5], [5]], dtype=np.int64)
        result = rms_align(ContingencyTable(counts))
        merged_rows = [i for i, _ in result.merges]
        assert len(merged_rows) == 1

    @pytest.mark.parametrize("counts", [np.zeros((0, 0), dtype=np.int64),
                                        np.zeros((2, 2), dtype=np.int64)])
    def test_empty_table(self, counts):
        with pytest.raises(InputError, match="^empty contingency table$"):
            rms_align(ContingencyTable(counts))

    def test_accuracy_requires_alignment(self):
        with pytest.raises(InputError):
            accuracy(np.eye(2))

    def test_accuracy_value(self):
        counts = np.array([[8, 2], [1, 9]], dtype=np.int64)
        result = rms_align(ContingencyTable(counts))
        assert accuracy(result) == pytest.approx(17 / 20)


def _per_edge_scores(graph, labels, gamma):
    """Novelty scores summed edge by edge in CSR order (explicit loops)."""
    n = graph.n
    sizes = np.bincount(labels)

    def within(indptr, indices, weights):
        out = np.zeros(n)
        for i in range(n):
            for e in range(indptr[i], indptr[i + 1]):
                j = indices[e]
                if j != i and labels[j] == labels[i]:
                    out[i] += weights[e]
        return out

    attr = within(graph.indptr, graph.indices, graph.weights)
    if graph.rep_mode == 0:
        rho = np.zeros(sizes.shape[0])
        np.add.at(rho, labels, graph.rep_strength)
        rep = graph.rep_strength * (rho[labels] - graph.rep_strength) / graph.rep_denom
    else:
        rep = within(graph.rep_indptr, graph.rep_indices, graph.rep_weights)
    scores = (-attr + gamma * rep) / np.maximum(sizes[labels] - 1, 1)
    singleton = sizes[labels] == 1
    if singleton.all():
        scores[:] = 0.0
    elif singleton.any():
        scores[singleton] = scores[~singleton].max() + 1.0
    return scores


class TestNoveltyScores:
    def _line_graph(self):
        return from_edge_list(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])

    def test_zero_attraction_item_nonnegative(self):
        # item 3 has no attraction into cluster {0,1,3}; only repulsion
        g = from_edge_list(4, [(0, 1, 1.0), (1, 2, 1.0)])
        labels = np.array([0, 0, 1, 0])
        scores = item_energy_scores(g, labels, gamma=1.0)
        assert scores.scores[3] >= 0.0

    def test_strong_member_negative(self):
        g = self._line_graph()
        labels = np.array([0, 0, 0, 0])
        scores = item_energy_scores(g, labels, gamma=0.1)
        assert scores.scores[1] < 0.0

    def test_singleton_ranks_most_novel(self):
        g = self._line_graph()
        labels = np.array([0, 0, 0, 1])
        scores = item_energy_scores(g, labels, gamma=1.0)
        assert scores.scores[3] == pytest.approx(scores.scores[:3].max() + 1.0)

    def test_all_singletons_score_zero(self):
        scores = item_energy_scores(self._line_graph(), np.arange(4), 1.0)
        assert np.array_equal(scores.scores, np.zeros(4))

    def test_matches_hand_sum(self):
        g = self._line_graph()
        labels = np.array([0, 0, 1, 1])
        gamma = 2.0
        scores = item_energy_scores(g, labels, gamma)
        r = g.repulsion_dense()
        # item 0: one within-cluster pair (0,1): w+ = 1
        expected0 = (-1.0 + gamma * r[0, 1]) / 1
        assert scores.scores[0] == pytest.approx(expected0, abs=1e-12)

    @pytest.mark.parametrize("scheme", [None, "explicit"])
    def test_matches_per_edge_loop(self, rng, scheme):
        for _ in range(30):
            g = random_affinity(rng, n=int(rng.integers(4, 12)), scheme=scheme)
            labels = rng.integers(0, int(rng.integers(1, 4)), g.n)
            gamma = float(rng.uniform(0.0, 3.0))
            expected = _per_edge_scores(g, labels, gamma)
            got = item_energy_scores(g, labels, gamma).scores
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("scheme", ["configuration_null", "uniform"])
    def test_bytes_match_per_edge_loop(self, rng, scheme):
        # _per_edge_scores sums cluster rho with np.add.at; bytes, so the
        # sign of a zero counts too
        for _ in range(20):
            g = random_affinity(rng, n=int(rng.integers(2, 40)), scheme=scheme)
            labels = rng.integers(0, int(rng.integers(1, g.n + 1)), g.n)
            gamma = float(rng.choice([0.0, rng.uniform(0.0, 3.0)]))
            got = item_energy_scores(g, labels, gamma).scores
            assert got.tobytes() == _per_edge_scores(g, labels, gamma).tobytes()

    def test_errors(self):
        g = self._line_graph()
        with pytest.raises(InputError):
            item_energy_scores(g, np.zeros(3, dtype=np.int64), 1.0)
        with pytest.raises(ParameterError):
            item_energy_scores(g, np.zeros(4, dtype=np.int64), -1.0)

    @pytest.mark.parametrize("labels, item", [
        ([0, -1, 0, 1], 1), ([0, 10 ** 12, 0, 1], 1), ([0.5, 1, 0, 1], 0),
        ([0, 1, 0, 4], 3), ([0, 1, 0, np.nan], 3)])
    def test_bad_labels_name_the_first_bad_item(self, labels, item):
        # before: ValueError for a negative label, MemoryError for a huge one
        g = from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 0.1)])
        with pytest.raises(InputError, match=rf"of item {item} is not an "
                                             r"integer in \[0, 4\)"):
            item_energy_scores(g, labels, 1.0)


class TestRocAuc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.9, 0.8])
        flags = np.array([False, False, True, True])
        assert roc_auc(scores, flags) == 1.0

    def test_all_tied_half(self):
        scores = np.ones(10)
        flags = np.arange(10) < 3
        assert roc_auc(scores, flags) == 0.5

    def test_independent_near_half(self):
        rng = np.random.default_rng(99)
        scores = rng.standard_normal(2000)
        flags = rng.random(2000) < 0.3
        assert abs(roc_auc(scores, flags) - 0.5) < 0.05

    def test_monotone_rescaling_invariant(self, rng):
        scores = rng.standard_normal(50)
        flags = rng.random(50) < 0.4
        if not flags.any() or flags.all():
            flags[0] = True
            flags[1] = False
        base = roc_auc(scores, flags)
        assert roc_auc(np.exp(scores), flags) == pytest.approx(base)

    def test_errors(self):
        with pytest.raises(InputError):
            roc_auc(np.ones(3), np.array([True, True, True]))
        with pytest.raises(InputError):
            roc_auc(np.eye(2), np.eye(2, dtype=bool))
        with pytest.raises(InputError, match="NaN"):
            roc_auc(np.array([0.1, np.nan, 0.3]), np.array([True, False, False]))

    def test_matches_rankdata(self):
        from scipy.stats import rankdata

        rng = np.random.default_rng(2024)
        for _ in range(400):
            n = int(rng.integers(2, 120))
            if rng.random() < 0.7:  # heavy ties
                scale = rng.choice([1.0, 0.1, -3.5, 1e-300, 1e300])
                scores = rng.integers(0, int(rng.integers(1, 6)), n) * scale
            else:
                scores = rng.standard_normal(n)
            if rng.random() < 0.2:  # +-inf rank like any other value
                scores[rng.random(n) < 0.2] = rng.choice([-np.inf, np.inf])
            flags = rng.random(n) < rng.uniform(0.05, 0.95)
            flags[0], flags[-1] = True, False
            n_pos, n_neg = int(flags.sum()), int((~flags).sum())
            ranks = rankdata(scores)
            expected = (ranks[flags].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
            assert roc_auc(scores, flags) == expected
