"""Sampled accuracy gate on instances where the estimator recovers the model.

Acceptance criterion 7 (tests/test_acceptance.py) runs on weights U[1, 2],
where the 200k-sample errors sit at the noise floor and its verdict turns
on the seed set.  The two instances here have weights U[1, 8], so the
matched errors at 200k samples are small on every five-seed set measured
(the table is in tests/fixtures/recovery.json).  A fault in a moment or a
solve moves them far past the thresholds, which are about twice the worst
set median.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from mixmnl import LearnConfig, erdos_renyi, learn_mixed_mnl, match_components, random_uniform_model

FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "recovery.json").read_text())


def median_errors(graph, model, samples):
    """Median matched mixture and weight errors over the fixture's sampling seeds."""
    mixture_errors, weight_errors = [], []
    for seed in FIXTURE["sampling_seeds"]:
        rng = np.random.default_rng([seed, samples])
        batch = model.sample_batch(graph, FIXTURE["ell"], samples, rng)
        est = learn_mixed_mnl(batch, LearnConfig(n_components=model.n_components, seed=seed))
        matched = match_components(est.mixture, est.weights, model.mixture, model.weights)
        mixture_errors.extend(matched.mixture_errors.tolist())
        weight_errors.extend(matched.vector_errors.tolist())
    return float(np.median(mixture_errors)), float(np.median(weight_errors))


@pytest.mark.parametrize("name", sorted(FIXTURE["instances"]))
def test_errors_small_and_decreasing(name):
    spec = FIXTURE["instances"][name]
    setup = np.random.default_rng(FIXTURE["setup_seed"])
    graph = erdos_renyi(spec["n_items"], FIXTURE["mean_degree"], setup)
    model = random_uniform_model(
        spec["n_items"], spec["n_components"], setup, *FIXTURE["weight_range"]
    )
    smaller, larger = (median_errors(graph, model, s) for s in FIXTURE["sample_sizes"])
    thresholds = spec["thresholds_at_largest"]
    assert larger[0] < thresholds["mixture_median"], (smaller, larger)
    assert larger[1] < thresholds["weight_median"], (smaller, larger)
    assert larger[0] < smaller[0] and larger[1] < smaller[1], (smaller, larger)
