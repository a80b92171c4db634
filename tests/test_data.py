import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soilgp.data import (
    Location,
    Observation,
    make_dataset,
    normalize,
    prefix,
)


def obs_at(sid, x, y, task, value):
    return Observation(sid, Location(x, y), task, value)


def homotopic(n_samples=30, n_tasks=4, seed=0):
    rng = np.random.default_rng(seed)
    obs = []
    for j in range(n_samples):
        x, y = rng.uniform(0, 100, 2)
        for t in range(n_tasks):
            obs.append(obs_at(f"S{j + 1:02d}", float(x), float(y), t, float(rng.normal())))
    return make_dataset(obs, n_tasks)


class TestMakeDataset:
    def test_thirty_samples_four_tasks(self):
        ds = homotopic()
        assert len(ds) == 120
        assert ds.n_tasks == 4
        assert ds.n_samples == 30

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            make_dataset([], 4)

    def test_task_out_of_range(self):
        with pytest.raises(ValueError, match="task out of range"):
            make_dataset([obs_at("S01", 0, 0, 4, 1.0)], 4)

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValueError):
            obs_at("S01", 0, 0, 0, float("nan"))
        with pytest.raises(ValueError):
            Location(float("inf"), 0.0)

    def test_insertion_order_preserved(self):
        rng = np.random.default_rng(3)
        obs = [
            obs_at(f"S{j:03d}", float(rng.uniform()), float(rng.uniform()), 0, float(j))
            for j in range(25)
        ]
        ds = make_dataset(obs, 1)
        assert list(ds.observations) == obs

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            make_dataset([obs_at("S01", 0, 0, 0, 1.0)], 2, ("N", "N"))

    @pytest.mark.parametrize("labels, message", [
        (("p H",), "invalid task label 'p H'"),
        (tuple(f"T{i}" for i in range(17)), "more than 16 task labels"),
    ], ids=["space", "seventeen"])
    def test_labels_follow_the_observation_file_rule(self, labels, message):
        # a dataset that io.write_observations writes and
        # io.parse_observations would refuse is not built
        with pytest.raises(ValueError, match=message):
            make_dataset([obs_at("S01", 0, 0, 0, 1.0)], len(labels), labels)

    def test_field_bounds(self):
        ds = make_dataset(
            [obs_at("S01", -3, 2, 0, 1.0), obs_at("S02", 7, -5, 0, 2.0)], 1
        )
        b = ds.field_bounds
        assert (b.xmin, b.ymin, b.xmax, b.ymax) == (-3, -5, 7, 2)


class TestNormalize:
    def test_two_values_population_std(self):
        ds = make_dataset(
            [obs_at("S01", 0, 0, 0, 2.0), obs_at("S02", 1, 0, 0, 4.0)], 1
        )
        normed, stats = normalize(ds)
        assert normed.values == pytest.approx([-1.0, 1.0])
        assert stats.means[0] == pytest.approx(3.0)
        assert stats.stds[0] == pytest.approx(1.0)  # divide by count, not count-1

    def test_idempotent_on_zscored(self):
        ds = homotopic(seed=5)
        once, _ = normalize(ds)
        twice, _ = normalize(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-10)

    def test_zscore_postcondition(self):
        ds = homotopic(seed=6)
        normed, _ = normalize(ds)
        for t in range(4):
            v = normed.values[normed.task_index == t]
            assert abs(v.mean()) < 1e-10
            assert abs(v.std() - 1.0) < 1e-10

    def test_single_observation_task(self):
        ds = make_dataset([obs_at("S01", 0, 0, 0, 7.0)], 1)
        normed, stats = normalize(ds)
        assert normed.values[0] == 0.0
        assert stats.stds[0] == 1.0

    def test_constant_task_keeps_unit_std(self):
        ds = make_dataset(
            [obs_at("S01", 0, 0, 0, 5.0), obs_at("S02", 1, 1, 0, 5.0)], 1
        )
        normed, stats = normalize(ds)
        assert stats.stds[0] == 1.0
        assert normed.values == pytest.approx([0.0, 0.0])

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    @settings(deadline=None)
    def test_round_trip_identity(self, values):
        obs = [obs_at(f"S{j:03d}", float(j), 0.0, 0, v) for j, v in enumerate(values)]
        ds = make_dataset(obs, 1)
        normed, stats = normalize(ds)
        back = normed.values * stats.stds[0] + stats.means[0]
        scale = max(1.0, np.max(np.abs(ds.values)))
        np.testing.assert_allclose(back, ds.values, rtol=0, atol=1e-12 * scale)


class TestPrefix:
    def test_full_prefix_is_identity(self):
        ds = homotopic()
        assert prefix(ds, 30).observations == ds.observations

    def test_first_sample_only(self):
        ds = homotopic()
        p = prefix(ds, 1)
        assert {o.sample_id for o in p.observations} == {"S01"}
        assert len(p) == 4

    def test_seventeen_samples_gives_68_observations(self):
        ds = homotopic()
        assert len(prefix(ds, 17)) == 17 * 4

    @pytest.mark.parametrize("k", [0, 31, -2])
    def test_out_of_range(self, k):
        with pytest.raises(ValueError, match="out of range"):
            prefix(homotopic(), k)

    def test_replay_unit_is_sample_id(self):
        # heterotopic: S02 carries one task only; it still counts as one sample
        obs = [
            obs_at("S01", 0, 0, 0, 1.0),
            obs_at("S01", 0, 0, 1, 2.0),
            obs_at("S02", 5, 5, 0, 3.0),
            obs_at("S03", 9, 9, 1, 4.0),
        ]
        ds = make_dataset(obs, 2)
        assert len(prefix(ds, 2)) == 3
        assert {o.sample_id for o in prefix(ds, 2).observations} == {"S01", "S02"}

    @given(
        a=st.integers(min_value=1, max_value=30),
        b=st.integers(min_value=1, max_value=30),
    )
    @settings(deadline=None, max_examples=30)
    def test_monotone_inclusion(self, a, b):
        if a > b:
            a, b = b, a
        ds = homotopic(seed=9)
        small = prefix(ds, a).observations
        large = prefix(ds, b).observations
        assert set(small) <= set(large)


def test_dataset_arrays_are_read_only():
    ds = homotopic()
    with pytest.raises(ValueError):
        ds.values[0] = 99.0
    with pytest.raises(ValueError):
        ds.xy[0, 0] = 99.0


def test_replace_values_keeps_layout():
    ds = homotopic(n_samples=3)
    new = ds.replace_values(np.zeros(len(ds)))
    assert new.sample_order == ds.sample_order
    assert np.all(new.task_index == ds.task_index)
    with pytest.raises(ValueError):
        ds.replace_values([1.0])
