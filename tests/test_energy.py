"""Hamiltonian evaluation, components, move deltas, canonical labels."""

import numpy as np
import pytest

from confres.energy import (canonicalize, cluster_count, hamiltonian,
                            landscape_point, move_delta)
from confres.errors import InputError, ParameterError
from confres.evaluation import item_energy_scores
from confres.graph import from_edge_list
from confres.optimizer import optimize
from conftest import dense_energy, random_affinity


class TestHamiltonian:
    def test_singletons_zero(self, rng):
        g = random_affinity(rng)
        e = hamiltonian(g, np.arange(g.n), gamma=1.5)
        assert e.h_a == 0.0 and e.h_r == 0.0 and e.total == 0.0

    def test_one_cluster_at_gamma_zero(self, rng):
        g = random_affinity(rng)
        e = hamiltonian(g, np.zeros(g.n, dtype=np.int64), gamma=0.0)
        assert e.total == pytest.approx(-g.total_weight, abs=1e-12)

    def test_path_partition_matches_pair_oracle(self):
        g = from_edge_list(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        labels = np.array([0, 0, 1, 1])
        e = hamiltonian(g, labels, gamma=1.0)
        expected, h_a, h_r = dense_energy(g, labels, 1.0)
        assert e.total == pytest.approx(expected, abs=1e-12)
        assert (e.h_a, e.h_r) == (pytest.approx(h_a), pytest.approx(h_r))

    def test_random_partitions_match_oracle(self, rng):
        for _ in range(30):
            g = random_affinity(rng)
            labels = canonicalize(rng.integers(0, 4, g.n))
            gamma = float(rng.random() * 3)
            e = hamiltonian(g, labels, gamma)
            expected, _, _ = dense_energy(g, labels, gamma)
            assert e.total == pytest.approx(expected, abs=1e-10)

    def test_linear_in_gamma(self, rng):
        g = random_affinity(rng)
        labels = canonicalize(rng.integers(0, 3, g.n))
        h_a, h_r = landscape_point(g, labels)
        for gamma in (0.0, 0.7, 2.3):
            e = hamiltonian(g, labels, gamma)
            assert e.total == pytest.approx(h_a + gamma * h_r, abs=1e-12)

    def test_errors(self, rng):
        g = random_affinity(rng)
        with pytest.raises(InputError):
            hamiltonian(g, np.zeros(g.n + 1, dtype=np.int64), 1.0)
        for gamma in (-0.5, np.nan, np.inf):
            with pytest.raises(ParameterError):
                hamiltonian(g, np.zeros(g.n, dtype=np.int64), gamma)

    @pytest.mark.parametrize("gamma", ["1", None, True])
    def test_gamma_must_be_a_real_number(self, rng, gamma):
        # every caller of check_gamma raises the package error
        g = random_affinity(rng)
        labels = np.zeros(g.n, dtype=np.int64)
        for solve in (hamiltonian, item_energy_scores,
                      lambda g, labels, gamma: optimize(g, gamma)):
            with pytest.raises(ParameterError,
                               match=r"^gamma must be a real number, got"):
                solve(g, labels, gamma)

    @pytest.mark.parametrize("labels, item", [
        ([0, -1, 0, 1], 1), ([0, 10 ** 12, 0, 1], 1), ([0.5, 1, 0, 1], 0),
        ([0, 1, 0, 4], 3), ([0, 1, 0, np.nan], 3), ([0, 1, np.inf, 1], 2),
        ([0, 10 ** 30, 0, 1], 1),
        (np.array([0, 1, 0, 2 ** 64 - 1], dtype=np.uint64), 3)])
    def test_bad_labels_name_the_first_bad_item(self, labels, item):
        # before: IndexError, a MemoryError of terabytes, or 0.5 read as 0
        g = from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 0.1)])
        for call in (lambda: hamiltonian(g, labels, 1.0),
                     lambda: landscape_point(g, labels),
                     lambda: move_delta(g, labels, 0, 0, 1.0)):
            with pytest.raises(InputError, match=rf"of item {item} is not an "
                                                 r"integer in \[0, 4\)"):
                call()

    def test_integral_labels_of_any_dtype_keep_their_bytes(self):
        g = from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 0.1)])
        want = hamiltonian(g, np.array([0, 0, 1, 1]), 1.0)
        for labels in ([0, 0, 1, 1], [0.0, 0.0, 1.0, 1.0],
                       np.array([0, 0, 1, 1], dtype=np.uint8),
                       np.array([False, False, True, True])):
            assert hamiltonian(g, labels, 1.0) == want
        for labels in ([[0, 0, 1, 1]], 0, ["a", "b", "a", "b"]):
            with pytest.raises(InputError):
                hamiltonian(g, labels, 1.0)


class TestLandscapePoint:
    def test_extremes(self, rng):
        g = random_affinity(rng)
        h_a, h_r = landscape_point(g, np.zeros(g.n, dtype=np.int64))
        r = g.repulsion_dense()
        assert h_a == pytest.approx(-g.total_weight, abs=1e-12)
        assert h_r == pytest.approx(np.triu(r, 1).sum(), abs=1e-10)
        assert landscape_point(g, np.arange(g.n)) == (0.0, 0.0)


class TestMoveDelta:
    def test_noop_move(self, rng):
        g = random_affinity(rng)
        labels = canonicalize(rng.integers(0, 2, g.n))
        assert move_delta(g, labels, 0, labels[0], 1.0) == 0.0

    def test_matches_recompute_oracle(self, rng):
        for _ in range(40):
            g = random_affinity(rng)
            labels = canonicalize(rng.integers(0, 3, g.n))
            k = int(labels.max()) + 1
            item = int(rng.integers(g.n))
            target = int(rng.integers(k + 1))  # K opens a new cluster
            gamma = float(rng.random() * 2)
            delta = move_delta(g, labels, item, target, gamma)
            after = labels.copy()
            after[item] = target
            expected = (hamiltonian(g, after, gamma).total
                        - hamiltonian(g, labels, gamma).total)
            assert delta == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("item, target, name", [
        (0, 0.5, "target"), (0, True, "target"), (True, 0, "item"),
        (1.5, 0, "item"), (0, np.True_, "target"), (0, "1", "target"),
        (None, 0, "item")])
    def test_item_and_target_must_be_integers(self, item, target, name):
        # before: target 0.5 read as an empty cluster, True as 1, item True
        # numpy's ambiguous truth value, item 1.5 an IndexError
        g = from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 0.1)])
        with pytest.raises(InputError, match=rf"^{name} must be an integer"):
            move_delta(g, [0, 0, 1, 1], item, target, 1.0)

    def test_numpy_integer_item_and_target(self):
        g = from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 0.1)])
        want = move_delta(g, [0, 0, 1, 1], 1, 2, 0.5)
        assert move_delta(g, [0, 0, 1, 1], np.int64(1), np.int32(2),
                          0.5) == want

    def test_invalid_target(self, rng):
        g = random_affinity(rng)
        labels = np.zeros(g.n, dtype=np.int64)
        with pytest.raises(InputError):
            move_delta(g, labels, 0, 5, 1.0)


class TestCanonicalize:
    def test_first_occurrence_order(self):
        assert canonicalize([7, 3, 7, 1]).tolist() == [0, 1, 0, 2]
        # negative labels and floats that are integers are labels too
        assert canonicalize([-4, 2.0, -4]).tolist() == [0, 1, 0]

    @staticmethod
    def _first_occurrence(labels):
        ids = {}
        return np.array([ids.setdefault(c, len(ids)) for c in labels.tolist()],
                        dtype=np.int64)

    def test_matches_first_occurrence_loop(self, rng):
        # labels in [0, n) take the O(n) path, others the sorting one
        for trial in range(200):
            n = int(rng.integers(1, 40))
            lo, hi = ((0, n), (0, 3), (-5, n), (0, 10 * n + 1))[trial % 4]
            labels = rng.integers(lo, hi, n)
            got = canonicalize(labels)
            assert got.dtype == np.int64
            assert np.array_equal(got, self._first_occurrence(labels))

    def test_empty(self):
        assert canonicalize(np.empty(0, dtype=np.int64)).shape == (0,)

    @pytest.mark.parametrize("labels, item", [
        ([0.5, 1.5, 0.7], "0.5 of item 0"), ([0, np.nan, 1], "nan of item 1"),
        (["0", "a"], "a of item 1"), ([1, np.inf], "inf of item 1")])
    def test_rejects_labels_that_are_no_integers(self, labels, item):
        # not truncated: contingency and the optimizer read the same labels
        with pytest.raises(InputError, match=rf"^label {item} is not an "
                                             rf"integer$"):
            canonicalize(labels)

    def test_rejects_labels_that_are_not_1d(self):
        with pytest.raises(InputError, match=r"shape \(2, 2\) must be 1-D"):
            canonicalize([[0, 1], [1, 0]])

    def test_idempotent(self, rng):
        labels = rng.integers(0, 5, 20)
        once = canonicalize(labels)
        assert np.array_equal(canonicalize(once), once)

    def test_cluster_count(self):
        assert cluster_count(np.array([0, 1, 1, 2])) == 3
