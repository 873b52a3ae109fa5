"""Seeded synthetic benchmark data: independent sources under Gaussian mixing.

Each dataset stacks unit-scale Laplacian rows (super-Gaussian, density
``0.5 exp(-|x|)``) on top of uniform rows on ``[-2, 2]`` (sub-Gaussian)
and multiplies them by a random square mixing matrix with i.i.d. standard
normal entries.  Sources are deliberately not variance-normalized; the
whitening stage downstream absorbs all scale.

Reproducibility contract: the stream for run ``r`` of a spec seeded with
``s`` is ``PCG64(SeedSequence(entropy=s, spawn_key=(r,)))``, so any run
can be regenerated in isolation, in any order, on any worker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError, ParameterError
from .validation import as_count

# Mixing matrices above this condition number are redrawn so that a
# freak near-singular draw cannot poison benchmark statistics.
_MAX_CONDITION = 1e6
_MAX_DRAWS = 100

#: Identity of the RNG scheme, recorded in every manifest/report.
GENERATOR_NAME = "numpy.random.PCG64"


@dataclass(frozen=True)
class ExperimentSpec:
    """The layout and base seed of a family of replicated datasets.

    The family has no size: :func:`make_dataset` draws any member by its
    run index, and the caller picks how many.
    """

    n_super: int
    n_sub: int
    samples: int
    seed: int = 0

    def __post_init__(self) -> None:
        as_count(self.n_super, name="n_super", minimum=0)
        as_count(self.n_sub, name="n_sub", minimum=0)
        as_count(self.n_sources, name="n_super + n_sub", minimum=2)
        as_count(self.samples, name="samples", minimum=2)
        as_count(self.seed, name="seed", minimum=0)

    @property
    def n_sources(self) -> int:
        return self.n_super + self.n_sub


@dataclass(frozen=True)
class MixtureDataset:
    """One generated dataset: true sources, mixing matrix, and their product."""

    sources: np.ndarray
    mixing: np.ndarray
    observed: np.ndarray
    seed: int
    run_index: int
    condition_retries: int = 0


def experiment_preset(number: int, *, seed: int = 0) -> ExperimentSpec:
    """The two standard benchmark layouts, with base seed ``seed``.

    Preset 1: 10 Laplacian + 10 uniform sources, 5000 samples.
    Preset 2: 25 Laplacian + 25 uniform sources, 10000 samples.
    """
    if number == 1:
        return ExperimentSpec(n_super=10, n_sub=10, samples=5000, seed=seed)
    if number == 2:
        return ExperimentSpec(n_super=25, n_sub=25, samples=10000, seed=seed)
    raise ParameterError(f"unknown experiment preset {number}; use 1 or 2")


def sample_laplacian(count: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. draws from the unit-scale Laplace density ``0.5 exp(-|x|)``.

    Inverse-CDF construction ``x = -sign(u - 1/2) ln(1 - 2|u - 1/2|)``
    for ``u`` uniform on the open interval (0, 1); population variance 2.
    """
    u = rng.random(as_count(count, name="count"))
    # rng.random covers [0, 1); redraw exact zeros so the log argument
    # stays positive and every sample is finite.
    zero = u == 0.0
    while zero.any():
        u[zero] = rng.random(int(zero.sum()))
        zero = u == 0.0
    half = u - 0.5
    return -np.sign(half) * np.log1p(-2.0 * np.abs(half))


def sample_uniform2(count: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. uniform draws on ``[-2, 2]`` (population variance 4/3)."""
    return rng.uniform(-2.0, 2.0, as_count(count, name="count"))


def _draw_mixing(n: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    for attempt in range(_MAX_DRAWS):
        A = rng.standard_normal((n, n))
        if np.linalg.cond(A) <= _MAX_CONDITION:
            return A, attempt
    raise NumericalError(
        f"no {n}x{n} Gaussian mixing matrix with condition number <= "
        f"{_MAX_CONDITION:g} found in {_MAX_DRAWS} draws")


def random_mixing(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random mixing matrix with i.i.d. N(0, 1) entries.

    Draws whose condition number exceeds 1e6 are rejected and redrawn
    (at most 100 attempts) so downstream benchmark statistics stay
    well-defined.
    """
    A, _ = _draw_mixing(as_count(n, name="n", minimum=2), rng)
    return A


def make_dataset(spec: ExperimentSpec, run_index: int) -> MixtureDataset:
    """Generate dataset ``run_index`` of ``spec``, reproducibly.

    Source rows are ordered Laplacian first, then uniform.  The result
    depends only on ``(spec.seed, run_index)`` and the layout, never on
    which other runs were generated before.
    """
    as_count(run_index, name="run_index", minimum=0)
    seq = np.random.SeedSequence(entropy=spec.seed, spawn_key=(run_index,))
    rng = np.random.Generator(np.random.PCG64(seq))
    t = spec.samples
    rows = [sample_laplacian(t, rng) for _ in range(spec.n_super)]
    rows += [sample_uniform2(t, rng) for _ in range(spec.n_sub)]
    sources = np.vstack(rows)
    mixing, retries = _draw_mixing(spec.n_sources, rng)
    return MixtureDataset(
        sources=sources,
        mixing=mixing,
        observed=mixing @ sources,
        seed=spec.seed,
        run_index=run_index,
        condition_retries=retries,
    )
