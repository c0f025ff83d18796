"""Every count a caller passes goes through ``errors.checked_count``.

A count that is not an integer (a float such as 2.5, a bool, a string) or
is out of range raises ``ValidationError`` naming the argument; nothing is
truncated.  Python and numpy integers pass.
"""

import numpy as np
import pytest

from mixmnl import (
    ComparisonGraph,
    LearnConfig,
    ValidationError,
    check_conditions,
    erdos_renyi,
    learn_mixed_mnl,
    random_uniform_model,
    run_sweep,
)
from mixmnl import pipeline
from mixmnl.altmin import altmin_complete, symmetrize_and_eig
from mixmnl.errors import checked_count
from mixmnl.moments import (
    empirical_second_moment,
    exact_second_moment,
    exact_third_moment,
    split_ranges,
)
from mixmnl.serialize import dataset_from_dict, dataset_to_dict
from mixmnl.spectral import components_from_factors
from mixmnl.tensors import tensor_power_decomposition

from conftest import complete_graph

_GRAPH = complete_graph(4)  # 6 pairs
_MODEL = random_uniform_model(4, 2, np.random.default_rng(0))
_BATCH = _MODEL.sample_batch(_GRAPH, 3, 40, np.random.default_rng(1))
_SECOND = exact_second_moment(_MODEL, _GRAPH)
_TENSOR = np.zeros((2, 2, 2))
_TENSOR[0, 0, 0], _TENSOR[1, 1, 1] = 1.0, 2.0


def _dataset(n=4, ell=3, graph_n=None):
    doc = dataset_to_dict(_BATCH, _MODEL)
    doc["n"], doc["ell"] = n, ell
    doc["graph"]["n"] = n if graph_n is None else graph_n
    return dataset_from_dict(doc)


def _sweep(**changes):
    args = dict(n_items=8, n_components=2, mean_degree=4.0, ell=3, sample_sizes=[60], seeds=[0])
    args.update(changes)
    return run_sweep(**args)


# Entry point: (call with the count x, an out-of-range count, words the error names).
_COUNTS = {
    "learn-n_components": (
        lambda x: learn_mixed_mnl(_BATCH, LearnConfig(n_components=x)), 0, "n_components"
    ),
    "learn-exact-n_components": (
        lambda x: learn_mixed_mnl(_BATCH, LearnConfig(x, exact_moments=True), model=_MODEL),
        7,
        "n_components",
    ),
    "sample_batch-ell": (
        lambda x: _MODEL.sample_batch(_GRAPH, x, 10, np.random.default_rng(0)), 7, "ell"
    ),
    "sample_batch-count": (
        lambda x: _MODEL.sample_batch(_GRAPH, 3, x, np.random.default_rng(0)), -1, "count"
    ),
    "random_uniform_model-n_items": (
        lambda x: random_uniform_model(x, 2, np.random.default_rng(0)), 1, "n_items"
    ),
    "random_uniform_model-n_components": (
        lambda x: random_uniform_model(30, x, np.random.default_rng(0)), 0, "n_components"
    ),
    "ComparisonGraph-n_items": (lambda x: ComparisonGraph(x, [[0, 1]]), 1, "n_items"),
    "erdos_renyi-n_items": (lambda x: erdos_renyi(x, 1.0, np.random.default_rng(0)), 1, "n_items"),
    "altmin_complete-rank": (lambda x: altmin_complete(_SECOND, x), 7, "rank"),
    "altmin_complete-n_iterations": (
        lambda x: altmin_complete(_SECOND, 2, n_iterations=x), 0, "n_iterations"
    ),
    "symmetrize_and_eig-rank": (lambda x: symmetrize_and_eig(_SECOND, x), 7, "rank"),
    "components_from_factors-n_components": (
        lambda x: components_from_factors(_MODEL.expected_outcomes(_GRAPH), _MODEL.mixture, x),
        7,
        "n_components",
    ),
    "tensor_power_decomposition-rank": (
        lambda x: tensor_power_decomposition(_TENSOR, x), 3, "rank"
    ),
    "tensor_power_decomposition-n_iterations": (
        lambda x: tensor_power_decomposition(_TENSOR, 2, n_iterations=x), 0, "n_iterations"
    ),
    "empirical_second_moment-start": (
        lambda x: empirical_second_moment(_BATCH, x, 10), -1, "start"
    ),
    "empirical_second_moment-stop": (
        lambda x: empirical_second_moment(_BATCH, 0, x), 41, "stop|observation range"
    ),
    "split_ranges": (split_ranges, 1, "observation count"),
    "exact_third_moment-max_pairs": (
        lambda x: exact_third_moment(_MODEL, _GRAPH, max_pairs=x), -1, "max_pairs"
    ),
    "check_conditions-ell": (lambda x: check_conditions(_MODEL, _GRAPH, ell=x), 7, "ell"),
    "run_sweep-n_items": (lambda x: _sweep(n_items=x, mean_degree=1.0), 1, "n_items"),
    "run_sweep-n_components": (lambda x: _sweep(n_components=x), 0, "n_components"),
    "run_sweep-ell": (lambda x: _sweep(ell=x), -1, "ell"),
    "run_sweep-sample_size": (lambda x: _sweep(sample_sizes=[60, x]), -1, "sample size"),
    "run_sweep-seed": (lambda x: _sweep(seeds=[0, x]), -1, "seed"),
    "observation-dense-n_pairs": (lambda x: _BATCH[0].dense(x), -1, "n_pairs"),
    "dataset-n": (lambda x: _dataset(n=x), -1, "dataset n"),
    "dataset-graph-n": (lambda x: _dataset(graph_n=x), -1, "graph n"),
    "dataset-ell": (lambda x: _dataset(ell=x), 0, "ell"),
}


class TestCallerCounts:
    @pytest.mark.parametrize("kind", ["float", "bool", "string", "out-of-range"])
    @pytest.mark.parametrize("call, out_of_range, words", _COUNTS.values(), ids=_COUNTS.keys())
    def test_rejected(self, monkeypatch, call, out_of_range, words, kind):
        def no_run(*args, **kwargs):
            raise AssertionError("a sweep run started")

        monkeypatch.setattr(pipeline, "learn_mixed_mnl", no_run)
        monkeypatch.setattr(pipeline, "erdos_renyi", no_run)
        value = {"float": 2.5, "bool": True, "string": "2", "out-of-range": out_of_range}[kind]
        with pytest.raises(ValidationError, match=words):
            call(value)

    @pytest.mark.parametrize("value", [2.0, np.float64(2.0), True, np.bool_(True), "2", None])
    def test_non_integers_are_refused(self, value):
        with pytest.raises(ValidationError, match=r"^k must be an integer, got"):
            checked_count(value, "k")

    @pytest.mark.parametrize("value", [2, np.int64(2), np.int32(2), np.uint8(2)])
    def test_integers_pass_as_int(self, value):
        count = checked_count(value, "k", low=2, high=2)
        assert count == 2 and type(count) is int

    @pytest.mark.parametrize("value, words", [(1, r"k must be in \[2, 3\], got 1"),
                                              (4, r"k must be in \[2, 3\], got 4")])
    def test_range_names_the_bounds(self, value, words):
        with pytest.raises(ValidationError, match=words):
            checked_count(value, "k", low=2, high=3)

    def test_numpy_integers_give_the_same_results(self):
        i64 = np.int64
        assert split_ranges(i64(5)) == split_ranges(5) == ((0, 3), (3, 5))
        a = _MODEL.sample_batch(_GRAPH, i64(3), i64(10), np.random.default_rng(2))
        b = _MODEL.sample_batch(_GRAPH, 3, 10, np.random.default_rng(2))
        np.testing.assert_array_equal(a.pair_indices, b.pair_indices)
        np.testing.assert_array_equal(a.signs, b.signs)
        assert ComparisonGraph(i64(4), [[0, 1]]).n_items == 4
        np.testing.assert_array_equal(
            altmin_complete(_SECOND, i64(2), n_iterations=i64(3)).matrix,
            altmin_complete(_SECOND, 2, n_iterations=3).matrix,
        )
        np.testing.assert_array_equal(
            tensor_power_decomposition(_TENSOR, i64(2), n_iterations=i64(5)).values,
            tensor_power_decomposition(_TENSOR, 2, n_iterations=5).values,
        )
        assert check_conditions(_MODEL, _GRAPH, ell=i64(3)) == check_conditions(
            _MODEL, _GRAPH, ell=3
        )
        assert _sweep(sample_sizes=[i64(60)], seeds=[i64(0)]) == _sweep()
        np.testing.assert_array_equal(
            empirical_second_moment(_BATCH, i64(0), i64(20)).matrix,
            empirical_second_moment(_BATCH, 0, 20).matrix,
        )
