"""The accuracy floor of orthogonal estimators on the acceptance layout.

Sample whitening makes the outputs of any orthogonal (prewhitened)
unmixer exactly decorrelated, so for each off-diagonal pair of the
global matrix ``e_ij + e_ji`` equals minus the sources' sample
correlation.  That error is independent of the estimator: it is the
"price of whitening" (Cardoso 1994).  Acceptance 03's threshold of a
median Amari distance of 0.1 on 20 sources x 5000 samples lies below it.

The oracle here is the best orthogonal unmixer that knows the true
sources: the polar factor of the exact whitened-space unmixer.  No
orthogonal solver can beat it systematically, so its median is the floor
that acceptance 03 is measured against.
"""

import numpy as np

from ogica import (
    amari_distance,
    apply_whitening,
    experiment_preset,
    fit_whitening,
    make_dataset,
    percentile_nearest_rank,
    symmetric_orthogonalize,
)

# The layout and seeds of acceptance 03 (tests/test_acceptance.py).
SEED = 20230815
RUNS = 20


def _oracle_amari(dataset):
    model = fit_whitening(dataset.observed, 0.0)
    # Whitened data = (whitener @ mixing * std) @ unit-variance sources.
    whitened_mixing = (model.whitener @ dataset.mixing
                       * dataset.sources.std(axis=1))
    W_o = symmetric_orthogonalize(np.linalg.inv(whitened_mixing))
    # The oracle is, like any solver's W, orthogonal in whitened space.
    assert np.allclose(W_o @ W_o.T, np.eye(W_o.shape[0]), rtol=0,
                       atol=1e-10)
    assert np.allclose(np.cov(apply_whitening(model, dataset.observed),
                              bias=True), np.eye(W_o.shape[0]), atol=1e-8)
    return amari_distance(W_o @ model.whitener, dataset.mixing)


def test_orthogonal_oracle_floor_exceeds_acceptance_threshold(capsys):
    spec = experiment_preset(1, seed=SEED)
    amari = [_oracle_amari(make_dataset(spec, run)) for run in range(RUNS)]
    median = percentile_nearest_rank(amari, 50)
    with capsys.disabled():
        print(f"[orthogonal floor] median Amari distance of the orthogonal "
              f"oracle over {RUNS} runs = {median:.4f} (acceptance 03 "
              f"asks for <= 0.1)")
    assert median > 0.1
