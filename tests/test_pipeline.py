import csv
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from mixmnl import (
    ComparisonGraph,
    ComponentEstimates,
    LearnConfig,
    MixedMNLModel,
    ObservationBatch,
    ValidationError,
    altmin_complete,
    check_conditions,
    components_from_exact_moments,
    empirical_second_moment,
    erdos_renyi,
    evaluate,
    exact_second_moment,
    exact_third_moment,
    learn_mixed_mnl,
    match_components,
    random_uniform_model,
    rank_centrality,
    run_sweep,
    split_ranges,
)

from mixmnl import altmin, pipeline

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

    @pytest.mark.parametrize("where", ["mixture", "vectors"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_estimates_rejected(self, where, value):
        mix = np.array([0.4, 0.6])
        vec = np.array([[1.0, 0.0], [0.0, 1.0]])
        est_mix, est_vec = mix.copy(), vec.copy()
        (est_mix if where == "mixture" else est_vec)[0] = value
        with pytest.raises(ValidationError):
            match_components(est_mix, est_vec, mix, vec)

    def test_overflowing_norms_rejected(self):
        # Finite estimates whose distances overflow: the cost is inf, and no
        # RuntimeWarning may escape on the way.
        mix = np.array([0.4, 0.6])
        vec = np.array([[0.5, 0.5], [0.2, 0.8]])
        est_vec = vec.copy()
        est_vec[0] = [1e308, -1e308]
        with pytest.raises(ValidationError, match="matching cost"):
            match_components(mix, est_vec, mix, vec)

    def test_total_cost_matches_linear_sum_assignment(self):
        # Integer costs in 0..3 give exact zeros and heavy ties, where the
        # permutations may differ but the optimal total may not; the unit
        # shift is exact on them.  Continuous costs are compared to roundoff.
        rng = np.random.default_rng(20)
        for trial in range(600):
            r = 1 + trial % 15
            if trial % 3 == 2:
                cost = rng.random((r, r)) * 10.0 ** rng.integers(-3, 4)
            else:
                cost = rng.integers(0, 4 if trial % 3 else 2, size=(r, r)).astype(float)
            order = pipeline._min_cost_order(cost)
            assert sorted(order) == list(range(r))
            rows, cols = linear_sum_assignment(cost)
            total = cost[order, np.arange(r)].sum()
            best = cost[rows, cols].sum()
            if trial % 3 == 2:
                assert total == pytest.approx(best, rel=1e-12, abs=1e-12)
            else:
                assert total == best

    def test_tied_components_keep_the_optimal_total(self):
        # Duplicated true components tie every matching among them.
        rng = np.random.default_rng(21)
        for r in range(1, 16):
            base = rng.standard_normal((3, 5))
            true_vec = base[rng.integers(0, 3, r)]
            true_mix = np.round(rng.dirichlet(np.ones(r)), 1) + 0.1
            perm = rng.permutation(r)
            result = match_components(true_mix[perm], true_vec[perm], true_mix, true_vec)
            diff = true_vec[perm][:, None, :] - true_vec[None, :, :]
            cost = np.abs(true_mix[perm][:, None] - true_mix[None, :]) + (
                np.linalg.norm(diff, axis=2) / np.linalg.norm(true_vec, axis=1)
            )
            rows, cols = linear_sum_assignment(cost)
            total = (result.mixture_errors + result.vector_errors).sum()
            assert total == pytest.approx(cost[rows, cols].sum(), abs=1e-12)


class TestLearn:
    @pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
    def test_negative_seed_rejected(self, exact):
        graph = complete_graph(6)
        rng = np.random.default_rng(1)
        model = random_uniform_model(6, 2, rng)
        batch = model.sample_batch(graph, 3, 100, rng)
        config = LearnConfig(n_components=2, seed=-1, exact_moments=exact)
        with pytest.raises(ValidationError, match="seed"):
            learn_mixed_mnl(batch, config, model=model)

    @pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
    @pytest.mark.parametrize("seed", [True, np.bool_(False)], ids=["bool", "numpy-bool"])
    def test_bool_seed_rejected(self, exact, seed):
        # numpy would seed True exactly as 1.
        graph = complete_graph(6)
        rng = np.random.default_rng(1)
        model = random_uniform_model(6, 2, rng)
        batch = model.sample_batch(graph, 3, 100, rng)
        config = LearnConfig(n_components=2, seed=seed, exact_moments=exact)
        words = r"^invalid seed .*: expected an integer, not a bool$"
        with pytest.raises(ValidationError, match=words):
            learn_mixed_mnl(batch, config, model=model)

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

    @pytest.mark.parametrize(
        "instance",
        ["readme", "complete-12-r3", "complete-16-r4"],
    )
    def test_exact_path_matches_dense_chain(self, instance):
        # The factored exact path against the dense moments it replaces.
        if instance == "readme":
            rng = np.random.default_rng(0)
            graph = erdos_renyi(30, 8.0, rng)
            model = random_uniform_model(30, 2, rng, low=1.0, high=8.0)
        else:
            n_items, rank = (12, 3) if instance == "complete-12-r3" else (16, 4)
            graph = complete_graph(n_items)
            rng = np.random.default_rng(n_items)
            model = MixedMNLModel(
                rng.uniform(1.0, 8.0, (rank, n_items)), rng.dirichlet(np.ones(rank))
            )
        r = model.n_components
        batch = model.sample_batch(graph, 3, 10, np.random.default_rng(1))
        got = learn_mixed_mnl(
            batch, LearnConfig(n_components=r, exact_moments=True, seed=3), model=model
        )
        dense = components_from_exact_moments(
            exact_second_moment(model, graph),
            exact_third_moment(model, graph, max_pairs=graph.n_pairs),
            r,
            rng=np.random.default_rng(3),
        )
        dense_weights = rank_centrality(graph, dense.outcome_matrix)
        match = match_components(got.mixture, got.weights, dense.mixture, dense_weights)
        assert match.max_mixture_error <= 1e-12
        assert match.max_vector_error <= 1e-12
        outcome = got.outcome_matrix[:, list(match.order)]
        assert np.abs(outcome - dense.outcome_matrix).max() <= 1e-12

    def test_exact_path_above_300_pairs(self):
        graph = complete_graph(30)  # 435 pairs
        model = random_uniform_model(30, 2, np.random.default_rng(20), low=1.0, high=8.0)
        batch = model.sample_batch(graph, 3, 10, np.random.default_rng(21))
        estimates = learn_mixed_mnl(
            batch, LearnConfig(n_components=2, exact_moments=True), model=model
        )
        result = match_components(
            estimates.mixture, estimates.weights, model.mixture, model.weights
        )
        assert result.max_mixture_error <= 1e-9
        assert result.max_vector_error <= 1e-9

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
        model = MixedMNLModel(w, [0.5, 0.5])
        report = check_conditions(model, graph, ell=3)
        assert report["condition_ratio"] > 1e6

    def test_equal_components_lose_one_numerical_rank(self):
        # Two equal components make P diag(q) P^T rank r - 1; its third
        # eigenvalue is roundoff, below the floor the whitening uses.
        w = np.random.default_rng(14).uniform(1.0, 4.0, 8)
        distinct = MixedMNLModel(np.vstack([w, w**2, w[::-1]]), [0.3, 0.3, 0.4])
        equal = MixedMNLModel(np.vstack([w, w, w[::-1]]), [0.3, 0.3, 0.4])
        assert check_conditions(distinct, complete_graph(8))["numerical_rank"] == 3
        report = check_conditions(equal, complete_graph(8))
        assert report["n_components"] == 3
        assert report["numerical_rank"] == 2

    def test_vanishing_second_moment_reports_infinity(self):
        # Equal weights give all-zero outcome means: sigma_1 = sigma_r = 0.
        model = MixedMNLModel(np.ones((2, 8)), [0.5, 0.5])
        report = check_conditions(model, complete_graph(8), ell=3)
        assert report["sigma_1"] == 0.0
        assert report["sample_size_estimate"] == float("inf")
        assert report["condition_ratio"] == float("inf")


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

    def test_non_finite_estimate_becomes_error_row(self, monkeypatch):
        def nan_learner(batch, config):
            r = config.n_components
            return ComponentEstimates(
                mixture=np.full(r, np.nan),
                weights=np.full((r, batch.graph.n_items), np.nan),
                outcome_matrix=np.full((batch.graph.n_pairs, r), np.nan),
            )

        monkeypatch.setattr(pipeline, "learn_mixed_mnl", nan_learner)
        rows = run_sweep(
            n_items=8, n_components=2, mean_degree=4.0, ell=3, sample_sizes=[50], seeds=[0]
        )
        assert [r["status"] for r in rows] == ["error:ValidationError"]

    def test_csv_header_order(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_sweep(
            n_items=8, n_components=2, mean_degree=4.0, ell=3, sample_sizes=[60], seeds=[0],
            out_path=out,
        )
        header = out.read_text().splitlines()[0]
        assert header == (
            "samples,seed,status,max_mixture_error,max_weight_error,mean_weight_error"
        )

    @pytest.mark.parametrize(
        "changes, words",
        [
            ({"n_items": 1, "mean_degree": 1.0}, "n_items must be >= 2"),
            ({"mean_degree": 0.0}, "mean_degree"),
            ({"mean_degree": 9.0}, "mean_degree"),
            ({"n_components": 0}, "component"),
            ({"ell": 2}, "ell >= 3"),
            ({"seeds": [0, -1]}, "seed"),
            ({"sample_sizes": [60, -5]}, "sample size must be >= 0, got -5"),
        ],
        ids=["one-item", "zero-degree", "degree-above-n", "no-component", "ell-2",
             "negative-seed", "negative-size"],
    )
    def test_configuration_error_raises_before_any_run(
        self, monkeypatch, tmp_path, changes, words
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(pipeline, "learn_mixed_mnl", no_run)
        monkeypatch.setattr(pipeline, "erdos_renyi", no_run)
        out = tmp_path / "sweep.csv"
        args = dict(
            n_items=8, n_components=2, mean_degree=4.0, ell=3, sample_sizes=[60], seeds=[0]
        )
        args.update(changes)
        with pytest.raises(ValidationError, match=words):
            run_sweep(**args, out_path=out)
        assert not out.exists()

    def test_ell_above_the_pair_count_stays_a_row(self):
        # Whether ell fits depends on the drawn graph, so it is not a
        # configuration error.
        rows = run_sweep(
            n_items=8, n_components=2, mean_degree=2.0, ell=27, sample_sizes=[60], seeds=[0]
        )
        assert [r["status"] for r in rows] == ["error:ValidationError"]


class TestSecondMomentTrusted:
    def test_sampled_fit_skips_the_completion_input_checks(self, monkeypatch):
        # The fit's second moment is the integer Gram X^T X, scaled, with
        # its diagonal zeroed: symmetric, finite and hollow by construction.
        # So it goes to the completion unchecked, and completes exactly as
        # through the checked altmin_complete.
        rng = np.random.default_rng(5)
        graph = erdos_renyi(20, 6.0, rng)
        model = random_uniform_model(20, 2, rng, low=1.0, high=8.0)
        batch = model.sample_batch(graph, 6, 4000, np.random.default_rng(6))
        (lo, hi), _ = split_ranges(len(batch))
        iterations = max(1, math.ceil(math.log(graph.n_pairs * len(batch))))
        offdiag = empirical_second_moment(batch, lo, hi).matrix
        checked = altmin_complete(offdiag, 2, iterations).report()

        def refused(*args, **kwargs):
            raise AssertionError("the fit re-checked its own second moment")

        monkeypatch.setattr(altmin, "_max_asymmetry", refused)
        monkeypatch.setattr(altmin, "checked_array", refused)
        fit = learn_mixed_mnl(batch, LearnConfig(n_components=2, seed=0))
        assert fit.diagnostics["completion"] == checked


def relabeled(batch, perm):
    """``batch`` with item i renamed ``perm[i]``, where each pair went, and which flipped.

    Pair k of the old graph is pair ``moved[k]`` of the new one.  Where its
    endpoints change order (``flip[k]``) its signs flip, since +1 means the
    larger-index item won.  Each row's pairs are sorted again.
    """
    graph = batch.graph
    ends = perm[graph.edges]
    flip = ends[:, 0] > ends[:, 1]
    ends.sort(axis=1)
    new = ComparisonGraph(graph.n_items, ends)
    moved = np.empty(graph.n_pairs, dtype=np.int64)
    moved[np.lexsort((ends[:, 1], ends[:, 0]))] = np.arange(graph.n_pairs)
    assert np.array_equal(new.edges[moved], ends)
    idx = moved[batch.pair_indices]
    sgn = np.where(flip[batch.pair_indices], -batch.signs, batch.signs)
    order = np.argsort(idx, axis=1)
    idx, sgn = np.take_along_axis(idx, order, 1), np.take_along_axis(sgn, order, 1)
    return ObservationBatch(new, idx, sgn), moved, flip


class TestRelabeling:
    """Item labels, and row order within the second-moment half, carry nothing the fit uses."""

    @pytest.fixture(scope="class", params=[(30, 2), (60, 4)], ids=["n30-r2", "n60-r4"])
    def fitted(self, request):
        # criterion 7's shapes: mean degree 8, ell 10, 200,000 samples
        n, r = request.param
        rng = np.random.default_rng(0)
        graph = erdos_renyi(n, 8.0, rng)
        model = random_uniform_model(n, r, rng, low=1.0, high=8.0)
        batch = model.sample_batch(graph, 10, 200_000, np.random.default_rng(1))
        return batch, learn_mixed_mnl(batch, LearnConfig(n_components=r, seed=3))

    def test_relabeled_items_permute_the_estimates(self, fitted):
        # Relabeling reorders the pairs, flips the orientation of some, and
        # so permutes the second moment's rows and columns and flips signs
        # in it; the estimates move only by roundoff (at most 1e-13 of
        # their size measured).
        batch, fit = fitted
        perm = np.random.default_rng(5).permutation(batch.graph.n_items)
        other, moved, flip = relabeled(batch, perm)
        assert flip.any() and not flip.all()
        assert (moved != np.arange(moved.size)).any()
        refit = learn_mixed_mnl(other, LearnConfig(n_components=fit.mixture.size, seed=3))
        weights = np.empty_like(fit.weights)
        weights[:, perm] = fit.weights
        outcomes = np.empty_like(fit.outcome_matrix)
        outcomes[moved] = np.where(flip[:, None], -fit.outcome_matrix, fit.outcome_matrix)
        order = list(match_components(refit.mixture, refit.weights, fit.mixture, weights).order)
        for got, want in [
            (refit.mixture[order], fit.mixture),
            (refit.weights[order], weights),
            (refit.outcome_matrix[:, order], outcomes),
        ]:
            assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    def test_row_order_within_the_second_moment_half_changes_no_bit(self, fitted):
        # The second moment is an exact integer Gram, so its sums do not
        # depend on the order of their rows; the third-moment half is
        # untouched, so the whole fit keeps its bits.
        batch, fit = fitted
        (lo, hi), _ = split_ranges(len(batch))
        rows = np.concatenate([np.random.default_rng(2).permutation(hi), np.arange(hi, len(batch))])
        shuffled = ObservationBatch(batch.graph, batch.pair_indices[rows], batch.signs[rows])
        assert not np.array_equal(shuffled.pair_indices[lo:hi], batch.pair_indices[lo:hi])
        second = empirical_second_moment(shuffled, lo, hi).matrix
        assert np.array_equal(second, empirical_second_moment(batch, lo, hi).matrix)
        refit = learn_mixed_mnl(shuffled, LearnConfig(n_components=fit.mixture.size, seed=3))
        assert np.array_equal(refit.mixture, fit.mixture)
        assert np.array_equal(refit.weights, fit.weights)
        assert np.array_equal(refit.outcome_matrix, fit.outcome_matrix)
