import numpy as np
import pytest
import scipy.stats

from ogica import (
    ExperimentSpec,
    NumericalError,
    ParameterError,
    experiment_preset,
    make_dataset,
    random_mixing,
    sample_laplacian,
    sample_uniform2,
)


class _ScriptedRng:
    """Stands in for a Generator, returning pre-recorded uniform draws."""

    def __init__(self, chunks):
        self._chunks = [np.asarray(c, dtype=float) for c in chunks]

    def random(self, count):
        chunk = self._chunks.pop(0)
        assert chunk.size == count
        return chunk


# ------------------------------------------------------------ specs


def test_spec_validation():
    spec = ExperimentSpec(n_super=3, n_sub=2, samples=100, seed=7)
    assert spec.n_sources == 5
    with pytest.raises(ParameterError):
        ExperimentSpec(n_super=0, n_sub=0, samples=100, seed=7)
    with pytest.raises(ParameterError):
        ExperimentSpec(n_super=-1, n_sub=2, samples=100, seed=7)
    with pytest.raises(ParameterError):
        ExperimentSpec(n_super=1, n_sub=1, samples=1, seed=7)
    for name, value in (("n_super", 2.5), ("samples", 100.5), ("seed", 1.5),
                        ("seed", "1")):
        fields = dict(n_super=2, n_sub=2, samples=100, seed=7)
        fields[name] = value
        with pytest.raises(ParameterError, match=name):
            ExperimentSpec(**fields)
    spec = ExperimentSpec(n_super=np.int64(2), n_sub=np.int64(2),
                          samples=np.int64(100), seed=np.int64(7))
    assert spec.n_sources == 4


def test_spec_refuses_negative_seed():
    # SeedSequence takes no negative entropy; the spec refuses it first.
    with pytest.raises(ParameterError, match="seed"):
        ExperimentSpec(n_super=1, n_sub=1, samples=100, seed=-1)
    with pytest.raises(ParameterError, match="seed"):
        experiment_preset(1, seed=-1)


def test_presets():
    small = experiment_preset(1)
    assert (small.n_super, small.n_sub, small.samples) == (10, 10, 5000)
    large = experiment_preset(2)
    assert (large.n_super, large.n_sub, large.samples) == (25, 25, 10000)
    with pytest.raises(ParameterError):
        experiment_preset(3)


# ------------------------------------------------------- source draws


def test_laplacian_inverse_cdf_midpoint():
    rng = _ScriptedRng([[0.5]])
    assert sample_laplacian(1, rng) == np.array([0.0])


def test_laplacian_redraws_exact_zero():
    # u == 0 would map to +inf; the sampler must redraw that slot.
    rng = _ScriptedRng([[0.0, 0.25], [0.25]])
    values = sample_laplacian(2, rng)
    assert np.all(np.isfinite(values))
    # u = 0.25 is the first quartile, so x = ln(2u) = log1p(-0.5) exactly
    assert values[1] == np.log1p(-0.5)
    assert values[0] == values[1]


def test_laplacian_quantile_map_is_symmetric():
    rng = _ScriptedRng([[0.1, 0.9]])
    lo, hi = sample_laplacian(2, rng)
    assert lo == -hi
    assert lo < 0 < hi


def test_laplacian_moments():
    rng = np.random.default_rng(210)
    x = sample_laplacian(1_000_000, rng)
    assert abs(x.mean()) < 0.01
    assert 1.98 < x.var() < 2.02
    m2 = (x ** 2).mean()
    m4 = (x ** 4).mean()
    assert 2.8 < m4 / m2 ** 2 - 3.0 < 3.2


def test_laplacian_distribution_ks():
    rng = np.random.default_rng(211)
    x = sample_laplacian(100_000, rng)
    stat = scipy.stats.kstest(x, "laplace").statistic
    assert stat < 1.63 / np.sqrt(x.size)  # 1% critical value


def test_uniform_support_and_moments():
    rng = np.random.default_rng(212)
    x = sample_uniform2(1_000_000, rng)
    assert x.min() >= -2.0 and x.max() <= 2.0
    assert abs(x.mean()) < 0.01
    assert 1.32 < x.var() < 1.35  # 4/3
    m2 = (x ** 2).mean()
    m4 = (x ** 4).mean()
    assert -1.22 < m4 / m2 ** 2 - 3.0 < -1.18  # -6/5


def test_sample_count_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        sample_laplacian(0, rng)
    with pytest.raises(ParameterError):
        sample_uniform2(-5, rng)
    for sampler in (sample_laplacian, sample_uniform2):
        with pytest.raises(ParameterError, match="count"):
            sampler(2.5, rng)


# ------------------------------------------------------------ mixing


def test_random_mixing_shape_and_conditioning():
    rng = np.random.default_rng(213)
    A = random_mixing(6, rng)
    assert A.shape == (6, 6)
    assert np.linalg.cond(A) <= 1e6


def test_random_mixing_entries_look_standard_normal():
    rng = np.random.default_rng(214)
    A = random_mixing(40, rng)
    flat = A.ravel()
    assert abs(flat.mean()) < 0.1
    assert abs(flat.std() - 1.0) < 0.1


def test_random_mixing_deterministic():
    a = random_mixing(5, np.random.default_rng(33))
    b = random_mixing(5, np.random.default_rng(33))
    assert np.array_equal(a, b)


def test_random_mixing_needs_two_channels():
    with pytest.raises(ParameterError):
        random_mixing(1, np.random.default_rng(0))
    with pytest.raises(ParameterError, match="n must be an integer"):
        random_mixing(2.0, np.random.default_rng(0))


class _SingularThenGoodRng:
    """Feeds singular 2x2 matrices for `bad` draws, then a rotation."""

    def __init__(self, bad):
        self.bad = bad
        self.calls = 0

    def standard_normal(self, shape):
        self.calls += 1
        if self.calls <= self.bad:
            return np.ones(shape)
        return np.array([[0.0, -1.0], [1.0, 0.0]])[:shape[0], :shape[1]]


def test_random_mixing_retries_then_succeeds():
    rng = _SingularThenGoodRng(bad=3)
    A = random_mixing(2, rng)
    assert rng.calls == 4  # three rejected draws, then the rotation
    assert np.array_equal(A, [[0.0, -1.0], [1.0, 0.0]])


def test_random_mixing_gives_up_after_budget():
    rng = _SingularThenGoodRng(bad=10_000)
    with pytest.raises(NumericalError):
        random_mixing(2, rng)
    assert rng.calls == 100


# ------------------------------------------------------------ datasets


def test_make_dataset_shapes_experiment_presets():
    d1 = make_dataset(experiment_preset(1), 0)
    assert d1.sources.shape == (20, 5000)
    assert d1.mixing.shape == (20, 20)
    assert d1.observed.shape == (20, 5000)
    spec2 = experiment_preset(2)
    d2 = make_dataset(ExperimentSpec(n_super=spec2.n_super,
                                     n_sub=spec2.n_sub,
                                     samples=200,
                                     seed=spec2.seed), 0)
    assert d2.observed.shape == (50, 200)


def test_make_dataset_observed_is_exact_product():
    d = make_dataset(ExperimentSpec(n_super=3, n_sub=2, samples=500, seed=9), 2)
    assert np.array_equal(d.observed, d.mixing @ d.sources)


def test_make_dataset_row_layout():
    # super-Gaussian rows first, then sub-Gaussian: identify them by
    # sample kurtosis, which separates cleanly at this sample size.
    spec = ExperimentSpec(n_super=2, n_sub=3, samples=20_000, seed=10)
    d = make_dataset(spec, 0)
    c = d.sources - d.sources.mean(axis=1, keepdims=True)
    m2 = (c ** 2).mean(axis=1)
    m4 = (c ** 4).mean(axis=1)
    excess = m4 / m2 ** 2 - 3.0
    assert np.all(excess[:2] > 1.0)
    assert np.all(excess[2:] < -0.5)
    assert np.all(np.abs(d.sources[2:]) <= 2.0)


def test_make_dataset_bitwise_deterministic():
    spec = ExperimentSpec(n_super=4, n_sub=4, samples=1000, seed=77)
    a = make_dataset(spec, 5)
    b = make_dataset(spec, 5)
    assert np.array_equal(a.sources, b.sources)
    assert np.array_equal(a.mixing, b.mixing)
    assert np.array_equal(a.observed, b.observed)
    assert a.seed == 77 and a.run_index == 5


def test_make_dataset_runs_are_independent_of_order():
    spec = ExperimentSpec(n_super=2, n_sub=2, samples=500, seed=3)
    direct = make_dataset(spec, 4)
    make_dataset(spec, 0)  # unrelated draws must not shift run 4
    again = make_dataset(spec, 4)
    assert np.array_equal(direct.observed, again.observed)
    different = make_dataset(spec, 3)
    assert not np.array_equal(direct.observed, different.observed)


def test_make_dataset_sources_uncorrelated():
    spec = ExperimentSpec(n_super=3, n_sub=3, samples=100_000, seed=8)
    d = make_dataset(spec, 0)
    c = d.sources - d.sources.mean(axis=1, keepdims=True)
    std = c.std(axis=1)
    corr = (c / std[:, None]) @ (c / std[:, None]).T / spec.samples
    off = corr[~np.eye(6, dtype=bool)]
    bound = 5.0 / np.sqrt(spec.samples)
    assert np.sum(np.abs(off) < bound) >= off.size - 2


def test_make_dataset_rejects_negative_run():
    spec = ExperimentSpec(n_super=1, n_sub=1, samples=100, seed=0)
    with pytest.raises(ParameterError):
        make_dataset(spec, -1)
    with pytest.raises(ParameterError, match="run_index"):
        make_dataset(spec, 1.5)
