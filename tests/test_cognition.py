"""Synthetic generators, baselines, and the three built-in experiments."""

import numpy as np
import pytest

from confres import cognition
from confres.cognition import (HierarchySpec, detect_events,
                               generate_hierarchy, inject_outliers,
                               kmeans_baseline, novelty_spec,
                               run_evolution_experiment,
                               run_hierarchy_experiment,
                               run_novelty_experiment)
from confres.errors import InputError, ParameterError
from confres.evaluation import ari, contingency


SMALL = HierarchySpec(superordinate_count=2, basic_per_super=2,
                      points_per_basic=50, super_separation=12.0,
                      basic_separation=3.0, seed=0)


class TestGenerateHierarchy:
    def test_counts(self):
        points, super_labels, basic_labels = generate_hierarchy(SMALL)
        assert points.shape == (200, 2)
        assert len(np.unique(super_labels)) == 2
        assert len(np.unique(basic_labels)) == 4

    def test_kmeans_recovers_super(self):
        points, super_labels, _ = generate_hierarchy(SMALL)
        labels = kmeans_baseline(points, 2, seed=0)
        assert ari(contingency(super_labels, labels)) > 0.9

    def test_deterministic(self):
        a, _, _ = generate_hierarchy(SMALL)
        b, _, _ = generate_hierarchy(SMALL)
        assert np.array_equal(a, b)

    def test_degenerate_spec(self):
        with pytest.raises(ParameterError):
            HierarchySpec(super_separation=1.0, basic_separation=2.0)

    @pytest.mark.parametrize("field, value, message", [
        ("superordinate_count", 0, "degenerate hierarchy spec"),
        ("dimension", 1, "degenerate hierarchy spec"),
        ("super_separation", 0.0, "separations must be positive"),
        ("basic_separation", -1.0, "separations must be positive")])
    def test_spec_out_of_range(self, field, value, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            HierarchySpec(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("dimension", 2.5, "dimension must be an integer"),
        ("points_per_basic", 2.5, "points_per_basic must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", "1", "seed must be an integer"),
        ("superordinate_count", True, "superordinate_count must be an integer"),
        ("super_separation", np.nan, "separations must be finite"),
        ("basic_separation", np.inf, "separations must be finite"),
        ("noise_sigma", "1", "noise_sigma must be a real number")])
    def test_spec_fields_of_the_wrong_kind(self, field, value, message):
        with pytest.raises(ParameterError, match=f"^{message}"):
            HierarchySpec(**{field: value})


class TestInjectOutliers:
    def test_fraction_zero_unchanged(self, rng):
        pts = rng.standard_normal((20, 2))
        out, flags = inject_outliers(pts, 0.0, 1.5, seed=0)
        assert np.array_equal(out, pts)
        assert not flags.any()

    def test_bad_fraction(self, rng):
        pts = rng.standard_normal((20, 2))
        for fraction in (-0.1, np.nan, np.inf):
            with pytest.raises(ParameterError, match="fraction"):
                inject_outliers(pts, fraction, 1.5, seed=0)
        # raised before an array of about fraction * n rows is allocated
        for fraction in (1.5, 1e300):
            with pytest.raises(ParameterError, match=r"\[0, 1\]"):
                inject_outliers(pts, fraction, 1.5, seed=0)
        with pytest.raises(ParameterError,
                           match=r"^fraction must be a real number"):
            inject_outliers(pts, "0.1", 1.5, seed=0)

    def test_bad_seed(self, rng):
        pts = rng.standard_normal((20, 2))
        for seed, message in ((-1, "seed must be >= 0"),
                              (1.5, "seed must be an integer")):
            with pytest.raises(ParameterError, match=f"^{message}"):
                inject_outliers(pts, 0.5, 1.5, seed=seed)

    def test_fraction_one_doubles_the_points(self, rng):
        pts = rng.standard_normal((20, 2))
        out, flags = inject_outliers(pts, 1.0, 1.5, seed=0)
        assert out.shape == (40, 2)
        assert flags.sum() == 20 and flags[20:].all()
        assert np.array_equal(out[:20], pts)

    def test_count(self, rng):
        pts = rng.standard_normal((1000, 3))
        out, flags = inject_outliers(pts, 0.05, 1.5, seed=0)
        assert flags.sum() == 50
        assert out.shape == (1050, 3)
        assert flags[-50:].all()

    def test_outliers_more_isolated(self):
        points, _, _ = generate_hierarchy(SMALL)
        out, flags = inject_outliers(points, 0.05, 1.5, seed=1)
        d = np.sqrt(((out[:, None, :] - out[None, :, :]) ** 2).sum(axis=2))
        np.fill_diagonal(d, np.inf)
        nearest = d.min(axis=1)
        assert nearest[flags].mean() > nearest[~flags].mean()


class TestKmeansBaseline:
    def test_deterministic_per_seed(self, rng):
        pts = rng.standard_normal((60, 2))
        assert np.array_equal(kmeans_baseline(pts, 3, seed=5),
                              kmeans_baseline(pts, 3, seed=5))

    def test_k_out_of_range(self, rng):
        with pytest.raises(ParameterError):
            kmeans_baseline(rng.standard_normal((4, 2)), 5)

    def test_k_and_seed_must_be_integers(self, rng):
        for k in (2.5, True):
            with pytest.raises(ParameterError, match=r"^k must be an integer"):
                kmeans_baseline(rng.standard_normal((4, 2)), k)
        for seed, message in ((-1, "seed must be >= 0"),
                              ("a", "seed must be an integer")):
            with pytest.raises(ParameterError, match=f"^{message}"):
                kmeans_baseline(rng.standard_normal((4, 2)), 2, seed=seed)

    def test_partition_is_canonical(self, rng):
        labels = kmeans_baseline(rng.standard_normal((30, 2)), 3, seed=2)
        assert labels[0] == 0
        assert set(labels) == set(range(labels.max() + 1))


class TestDetectEvents:
    def test_split(self):
        p_t = [0, 0, 0, 0, 1, 1]
        p_next = [0, 0, 1, 1, 2, 2]
        events = detect_events(p_t, p_next)
        kinds = {kind for kind, _, _ in events}
        assert ("split", 0, (0, 1)) in events
        assert "merge" not in kinds

    def test_merge(self):
        events = detect_events([0, 0, 1, 1], [0, 0, 0, 0])
        assert ("merge", 0, (0, 1)) in events

    def test_stationary_none(self):
        assert detect_events([0, 1, 0, 1], [1, 0, 1, 0]) == []


class TestHierarchyExperiment:
    def test_levels_and_ordering(self):
        report = run_hierarchy_experiment(HierarchySpec(seed=0))
        sup = report["levels"]["superordinate"]
        bas = report["levels"]["basic"]
        assert sup["ari"] >= 0.95 and sup["clusters"] == 2
        assert bas["ari"] >= 0.95 and bas["clusters"] == 4
        assert report["coarse_before_fine"]
        assert sup["gamma_lo"] < bas["gamma_lo"]


class TestNoveltyExperiment:
    def test_fraction_zero_errors(self):
        with pytest.raises(InputError):
            run_novelty_experiment(novelty_spec(0), fraction=0.0)

    def test_fraction_of_no_outlier_errors_before_any_graph(self,
                                                            monkeypatch):
        # 0.0004 of 1000 points rounds to 0 outliers: no AUC to score
        def no_graph(*args, **kwargs):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(cognition, "points_to_graph", no_graph)
        with pytest.raises(InputError, match=r"^outlier fraction 0\.0004 of "
                                             r"1000 points rounds to no "
                                             r"outlier$"):
            run_novelty_experiment(novelty_spec(0), fraction=0.0004)

    def test_fraction_must_be_a_real_number(self):
        with pytest.raises(InputError, match="fraction must be a real number"):
            run_novelty_experiment(novelty_spec(0), fraction="0.1")

    def test_single_seed_auc(self):
        report = run_novelty_experiment(novelty_spec(0))
        assert report["auc"] >= 0.8
        assert report["novel_mean"] > report["familiar_mean"]


class TestEvolutionExperiment:
    def test_series_length_and_events(self):
        trace = run_evolution_experiment(seed=0)
        for series in trace.inverse_ari_series.values():
            assert len(series) == trace.timesteps - 1
        kinds = [kind for _, kind, _ in trace.events]
        assert "split" in kinds and "merge" in kinds

    def test_stationary_near_one(self):
        spec = HierarchySpec(superordinate_count=2, basic_per_super=1,
                             points_per_basic=60, super_separation=14.0,
                             basic_separation=5.0, seed=3)
        trace = run_evolution_experiment(split_at=None, merge_at=None,
                                         spec=spec, seed=3)
        for series in trace.inverse_ari_series.values():
            assert np.mean(series) < 1.2

    def test_event_time_out_of_range(self):
        with pytest.raises(ParameterError):
            run_evolution_experiment(timesteps=5, split_at=9, merge_at=None)

    @pytest.mark.parametrize("kwargs, message", [
        ({"timesteps": 0, "split_at": None, "merge_at": None},
         "timesteps must be >= 1"),
        ({"timesteps": 2.0}, "timesteps must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"split_at": 4.5}, "split_at must be an integer"),
        ({"merge_at": True}, "merge_at must be an integer")])
    def test_bad_parameters(self, kwargs, message):
        with pytest.raises(ParameterError, match=f"^{message}"):
            run_evolution_experiment(**kwargs)
