import csv

import numpy as np
import pytest

from mixmnl import (
    LearnConfig,
    ValidationError,
    check_conditions,
    erdos_renyi,
    evaluate,
    learn_mixed_mnl,
    match_components,
    random_uniform_model,
    run_sweep,
)

from conftest import best_permutation_errors, complete_graph


class TestMatching:
    @pytest.mark.parametrize("rank", [2, 3, 4, 8])
    def test_agrees_with_exhaustive_oracle(self, rank):
        rng = np.random.default_rng(rank)
        true_mix = rng.dirichlet(np.ones(rank))
        true_vec = rng.standard_normal((rank, 10))
        perm = rng.permutation(rank)
        est_mix = true_mix[perm] + rng.normal(0, 0.01, rank)
        est_vec = true_vec[perm] + rng.normal(0, 0.01, (rank, 10))
        result = match_components(est_mix, est_vec, true_mix, true_vec)
        o_mix, o_vec, o_order = best_permutation_errors(
            est_mix, est_vec, true_mix, true_vec
        )
        assert result.order == o_order
        assert result.max_mixture_error == pytest.approx(o_mix)
        assert result.max_vector_error == pytest.approx(o_vec)

    def test_large_rank_uses_assignment_solver(self):
        # Rank 9 has 362,880 permutations, more than the brute-force oracle
        # enumerates in test time; the assignment solver must still find the
        # planted permutation.
        rng = np.random.default_rng(0)
        rank = 9
        true_mix = rng.dirichlet(np.ones(rank) * 5)
        true_vec = rng.standard_normal((rank, 6))
        perm = rng.permutation(rank)
        result = match_components(true_mix[perm], true_vec[perm], true_mix, true_vec)
        assert np.array_equal(np.asarray(result.order), np.argsort(perm))
        assert result.max_mixture_error <= 1e-12
        assert result.max_vector_error <= 1e-12

    def test_identity_match(self):
        mix = np.array([0.4, 0.6])
        vec = np.array([[1.0, 0.0], [0.0, 1.0]])
        result = match_components(mix, vec, mix, vec)
        assert result.order == (0, 1)
        assert result.max_mixture_error == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            match_components(
                np.array([0.5, 0.5]),
                np.zeros((2, 3)),
                np.array([1.0]),
                np.zeros((1, 3)),
            )


class TestLearn:
    def test_exact_moment_path_recovers_weights(self):
        graph = complete_graph(8)
        rng = np.random.default_rng(1)
        model = random_uniform_model(8, 2, rng)
        batch = model.sample_batch(graph, 3, 10, rng)
        config = LearnConfig(n_components=2, exact_moments=True, seed=0)
        estimates = learn_mixed_mnl(batch, config, model=model)
        result = match_components(
            estimates.mixture, estimates.weights, model.mixture, model.weights
        )
        assert result.max_mixture_error <= 1e-6
        assert result.max_vector_error <= 1e-6

    def test_exact_moments_require_model(self):
        graph = complete_graph(6)
        model = random_uniform_model(6, 2, np.random.default_rng(2))
        batch = model.sample_batch(graph, 3, 10, np.random.default_rng(3))
        with pytest.raises(ValidationError):
            learn_mixed_mnl(batch, LearnConfig(n_components=2, exact_moments=True))

    def test_weights_normalized_per_component(self):
        graph = complete_graph(6)
        model = random_uniform_model(6, 2, np.random.default_rng(4))
        batch = model.sample_batch(graph, 4, 4000, np.random.default_rng(5))
        estimates = learn_mixed_mnl(batch, LearnConfig(n_components=2, seed=0))
        np.testing.assert_allclose(estimates.weights.sum(axis=1), 1.0, atol=1e-12)
        # noisy outcome columns can saturate edges and strand states at
        # exactly zero mass, so only nonnegativity is guaranteed
        assert (estimates.weights >= 0).all()
        assert estimates.weights.shape == (2, 6)

    def test_deterministic_for_fixed_seed(self):
        graph = complete_graph(6)
        model = random_uniform_model(6, 2, np.random.default_rng(6))
        batch = model.sample_batch(graph, 4, 3000, np.random.default_rng(7))
        a = learn_mixed_mnl(batch, LearnConfig(n_components=2, seed=11))
        b = learn_mixed_mnl(batch, LearnConfig(n_components=2, seed=11))
        np.testing.assert_array_equal(a.mixture, b.mixture)
        np.testing.assert_array_equal(a.weights, b.weights)


class TestEvaluate:
    def test_report_structure(self):
        graph = complete_graph(8)
        model = random_uniform_model(8, 2, np.random.default_rng(8))
        batch = model.sample_batch(graph, 3, 10, np.random.default_rng(9))
        estimates = learn_mixed_mnl(
            batch, LearnConfig(n_components=2, exact_moments=True), model=model
        )
        report = evaluate(estimates, model, graph=graph, ell=3)
        assert set(report["order"]) == {0, 1}
        assert report["max_mixture_error"] <= 1e-6
        assert report["max_weight_error"] <= 1e-6
        assert "conditions" in report
        assert report["conditions"]["ell"] == 3

    def test_without_graph_no_conditions(self):
        graph = complete_graph(6)
        model = random_uniform_model(6, 2, np.random.default_rng(10))
        batch = model.sample_batch(graph, 3, 10, np.random.default_rng(11))
        estimates = learn_mixed_mnl(
            batch, LearnConfig(n_components=2, exact_moments=True), model=model
        )
        report = evaluate(estimates, model)
        assert "conditions" not in report


class TestConditions:
    def test_fields_present_and_finite(self):
        rng = np.random.default_rng(12)
        graph = erdos_renyi(20, 5.0, rng)
        model = random_uniform_model(20, 2, rng)
        report = check_conditions(model, graph, ell=6)
        for key in (
            "n_items",
            "n_pairs",
            "n_components",
            "sigma_1",
            "sigma_r",
            "condition_ratio",
            "incoherence",
            "dynamic_range",
            "mixture_min",
            "mixture_max",
            "eps_admissible",
            "sample_size_estimate",
        ):
            assert key in report, key
        assert np.isfinite(report["sample_size_estimate"])
        assert report["sample_size_estimate"] > 0
        assert 0 < report["eps_admissible"] < 1
        assert report["graph"]["connected"] is True

    def test_no_ell_no_sample_estimate(self):
        rng = np.random.default_rng(13)
        graph = erdos_renyi(15, 5.0, rng)
        model = random_uniform_model(15, 2, rng)
        report = check_conditions(model, graph)
        assert "sample_size_estimate" not in report
        assert "ell" not in report

    def test_reports_never_raise_on_hard_instances(self):
        # A nearly rank-deficient mixture still gets a report, not an
        # exception: this path only diagnoses.
        graph = complete_graph(6)
        w = np.vstack([np.linspace(1, 2, 6), np.linspace(1, 2, 6) + 1e-9])
        from mixmnl import MixedMNLModel

        model = MixedMNLModel(w, [0.5, 0.5])
        report = check_conditions(model, graph, ell=3)
        assert report["condition_ratio"] > 1e6


class TestSweep:
    def test_rows_and_medians(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rows = run_sweep(
            n_items=10,
            n_components=2,
            mean_degree=5.0,
            ell=4,
            sample_sizes=[200, 400],
            seeds=[0, 1, 2],
            out_path=out,
        )
        data_rows = [r for r in rows if r["seed"] != "median"]
        median_rows = [r for r in rows if r["seed"] == "median"]
        assert len(data_rows) == 6
        assert len(median_rows) == 2
        with open(out, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows)
        assert parsed[0]["samples"] == "200"

    def test_median_ignores_failed_seeds(self):
        # Failed runs turn into error rows and drop out of the medians.
        rows = run_sweep(
            n_items=8,
            n_components=2,
            mean_degree=4.0,
            ell=3,
            sample_sizes=[6],
            seeds=[0, 1],
        )
        statuses = {r["status"] for r in rows if r["seed"] != "median"}
        assert statuses  # ran at all; tiny samples may or may not fail
        for row in rows:
            if str(row["status"]).startswith("error:"):
                assert row["max_mixture_error"] == ""
