"""Every float a caller passes goes through ``errors.checked_array``.

An array or scalar that is ragged, holds a string or a bool, or is not
finite raises ``ValidationError`` naming the argument.  Accepted input
comes back as float64; a float64 ndarray is used as it is, with no copy,
and float32 or integer input gives the results of its float64 cast.
"""

import json

import numpy as np
import pytest

from mixmnl import (
    MixedMNLModel,
    ObservationBatch,
    ValidationError,
    erdos_renyi,
    random_uniform_model,
)
from mixmnl import altmin, kernels, rankcentrality
from mixmnl.altmin import altmin_complete, symmetrize_and_eig
from mixmnl.graphs import erdos_renyi_arguments
from mixmnl.moments import (
    exact_second_moment,
    exact_third_moment,
    incoherence_from_basis,
    projected_third_moment,
)
from mixmnl.pipeline import match_components
from mixmnl.rankcentrality import (
    build_transition,
    default_iteration_count,
    project_outcomes,
    rank_centrality,
)
from mixmnl.serialize import load_results
from mixmnl.spectral import components_from_exact_moments, components_from_factors
from mixmnl.tensors import (
    tensor_power_decomposition,
    whitened_third_moment_ls_exact,
    whitened_third_moment_ls_factored,
)

from conftest import complete_graph

_GRAPH = complete_graph(4)  # 6 pairs
_MODEL = random_uniform_model(4, 2, np.random.default_rng(0))
_BATCH = _MODEL.sample_batch(_GRAPH, 3, 40, np.random.default_rng(1))
_SECOND = exact_second_moment(_MODEL, _GRAPH)
_THIRD = exact_third_moment(_MODEL, _GRAPH)
_BASIS = symmetrize_and_eig(_SECOND, 2)
_P = _MODEL.expected_outcomes(_GRAPH)
_Q = _MODEL.mixture
_TENSOR = np.zeros((2, 2, 2))
_TENSOR[0, 0, 0], _TENSOR[1, 1, 1] = 1.0, 2.0
_MIX = [0.4, 0.6]
_VECTORS = [[0.5, 0.5], [0.2, 0.8]]


def _results(**arrays):
    """``load_results`` of a file holding the given arrays, in the working directory."""
    doc = {"q_hat": _MIX, "w_hat": _VECTORS, "p_hat": _VECTORS, "diagnostics": {}}
    doc.update(arrays)
    with open("results.json", "w") as fh:
        json.dump(doc, fh)  # writes NaN and Infinity, which json.load reads back
    return load_results("results.json")


# Entry point: (call with the float input x, a valid x, the argument's name).
_FLOATS = {
    "MixedMNLModel-weights": (lambda x: MixedMNLModel(x, _MIX), _VECTORS, "weights"),
    "MixedMNLModel-mixture": (lambda x: MixedMNLModel(_VECTORS, x), _MIX, "mixture"),
    "ObservationBatch-signs": (
        lambda x: ObservationBatch(_GRAPH, [[0, 1, 2]], x), [[1.0, -1.0, 1.0]], "signs"
    ),
    "load_results-q_hat": (lambda x: _results(q_hat=x), _MIX, "q_hat"),
    "load_results-w_hat": (lambda x: _results(w_hat=x), _VECTORS, "w_hat"),
    "load_results-p_hat": (lambda x: _results(p_hat=x), _VECTORS, "p_hat"),
    "match_components-est_mixture": (
        lambda x: match_components(x, _VECTORS, _MIX, _VECTORS), _MIX, "est_mixture"
    ),
    "match_components-est_vectors": (
        lambda x: match_components(_MIX, x, _MIX, _VECTORS), _VECTORS, "est_vectors"
    ),
    "match_components-true_mixture": (
        lambda x: match_components(_MIX, _VECTORS, x, _VECTORS), _MIX, "true_mixture"
    ),
    "match_components-true_vectors": (
        lambda x: match_components(_MIX, _VECTORS, _MIX, x), _VECTORS, "true_vectors"
    ),
    "altmin_complete-offdiag": (lambda x: altmin_complete(x, 2), _SECOND, "offdiag"),
    "symmetrize_and_eig-matrix": (lambda x: symmetrize_and_eig(x, 2), _SECOND, "matrix"),
    "whitened_third_moment_ls_exact-third_moment": (
        lambda x: whitened_third_moment_ls_exact(x, _BASIS), _THIRD, "third_moment"
    ),
    "components_from_exact_moments-second_moment": (
        lambda x: components_from_exact_moments(x, _THIRD, 2), _SECOND, "second_moment"
    ),
    "components_from_exact_moments-third_moment": (
        lambda x: components_from_exact_moments(_SECOND, x, 2), _THIRD, "third_moment"
    ),
    "components_from_factors-outcome_matrix": (
        lambda x: components_from_factors(x, _Q, 2), _P, "outcome_matrix"
    ),
    "components_from_factors-mixture": (
        lambda x: components_from_factors(_P, x, 2), _Q, "mixture"
    ),
    "whitened_third_moment_ls_factored-outcome_matrix": (
        lambda x: whitened_third_moment_ls_factored(x, _Q, _BASIS), _P, "outcome_matrix"
    ),
    "whitened_third_moment_ls_factored-mixture": (
        lambda x: whitened_third_moment_ls_factored(_P, x, _BASIS), _Q, "mixture"
    ),
    "tensor_power_decomposition-tensor": (
        lambda x: tensor_power_decomposition(x, 2), _TENSOR, "tensor"
    ),
    "projected_third_moment-basis": (
        lambda x: projected_third_moment(_BATCH, x), _BASIS.whitening_map, "basis"
    ),
    "project_outcomes": (project_outcomes, _P, "outcomes"),
    "build_transition-outcomes": (lambda x: build_transition(_GRAPH, x), _P[:, 0], "outcomes"),
    "default_iteration_count-outcomes": (
        lambda x: default_iteration_count(_GRAPH, x), _P[:, 0], "outcomes"
    ),
    "rank_centrality-outcomes": (lambda x: rank_centrality(_GRAPH, x), _P, "outcomes"),
    "incoherence_from_basis-basis": (incoherence_from_basis, _BASIS.vectors, "basis"),
    "erdos_renyi_arguments-mean_degree": (
        lambda x: erdos_renyi_arguments(10, x), 4.0, "mean_degree"
    ),
    "erdos_renyi-mean_degree": (
        lambda x: erdos_renyi(10, x, np.random.default_rng(0)), 4.0, "mean_degree"
    ),
    "random_uniform_model-low": (
        lambda x: random_uniform_model(4, 2, np.random.default_rng(0), low=x), 1.0, "low"
    ),
    "random_uniform_model-high": (
        lambda x: random_uniform_model(4, 2, np.random.default_rng(0), high=x), 2.0, "high"
    ),
}


def _with_first_entry(valid, entry):
    """``valid`` as nested lists, its first entry replaced by ``entry``."""
    value = np.asarray(valid).tolist()
    if not isinstance(value, list):
        return entry
    row = value
    while isinstance(row[0], list):
        row = row[0]
    row[0] = entry
    return value


def _ragged(value):
    return [value, [value, value]]  # its two rows differ in depth


_KINDS = {
    "string": (lambda valid: _with_first_entry(valid, "x"), "numbers"),
    "bool": (lambda valid: _with_first_entry(valid, True), "numbers"),
    "nan": (lambda valid: _with_first_entry(valid, float("nan")), "finite"),
    "inf": (lambda valid: _with_first_entry(valid, float("inf")), "finite"),
    "ragged": (lambda valid: _ragged(np.asarray(valid).tolist()), "a rectangular array"),
}


class TestCallerFloats:
    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("call, valid, name", _FLOATS.values(), ids=_FLOATS.keys())
    def test_rejected(self, monkeypatch, tmp_path, call, valid, name, kind):
        monkeypatch.chdir(tmp_path)
        corrupt, words = _KINDS[kind]
        with pytest.raises(ValidationError, match=rf"^{name} must be {words}"):
            call(corrupt(valid))

    @pytest.mark.parametrize("call, valid, name", _FLOATS.values(), ids=_FLOATS.keys())
    def test_valid_input_passes(self, monkeypatch, tmp_path, call, valid, name):
        monkeypatch.chdir(tmp_path)
        call(valid)


class TestNoCopy:
    """A C-contiguous float64 input reaches the computation itself, not a copy."""

    @staticmethod
    def spy(monkeypatch, owner, name):
        """Replace ``owner.name`` by a pass-through that records the arguments of each call."""
        calls = []
        real = getattr(owner, name)

        def record(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(owner, name, record)
        return calls

    def test_altmin_complete(self, monkeypatch):
        offdiag = _SECOND.copy()
        np.fill_diagonal(offdiag, 0.0)
        calls = self.spy(monkeypatch, altmin, "_top_eigenpairs")
        altmin_complete(offdiag, 2, n_iterations=2)
        assert np.shares_memory(calls[0][0], offdiag)

    def test_projected_third_moment(self, monkeypatch):
        basis = np.ascontiguousarray(_BASIS.whitening_map)
        calls = self.spy(monkeypatch, kernels, "_third_moment_sums")
        projected_third_moment(_BATCH, basis)
        assert np.shares_memory(calls[0][2], basis)

    def test_rank_centrality(self, monkeypatch):
        outcomes = np.ascontiguousarray(_P)
        calls = self.spy(monkeypatch, rankcentrality.np, "clip")
        rank_centrality(_GRAPH, outcomes)
        assert np.shares_memory(calls[0][0], outcomes)


class TestCasts:
    """float32 and integer input gives the results of its float64 cast."""

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_completion_and_whitening(self, dtype):
        offdiag = np.round(_SECOND * 1000)
        offdiag = (offdiag + offdiag.T).astype(dtype)
        cast = offdiag.astype(np.float64)
        np.testing.assert_array_equal(
            altmin_complete(offdiag, 2, n_iterations=3).matrix,
            altmin_complete(cast, 2, n_iterations=3).matrix,
        )
        got, want = symmetrize_and_eig(offdiag, 2), symmetrize_and_eig(cast, 2)
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got.vectors, want.vectors)

    def test_moments_tensors_and_ranking(self):
        basis = _BASIS.whitening_map.astype(np.float32)
        np.testing.assert_array_equal(
            projected_third_moment(_BATCH, basis),
            projected_third_moment(_BATCH, basis.astype(np.float64)),
        )
        tensor = _TENSOR.astype(np.float32)
        np.testing.assert_array_equal(
            tensor_power_decomposition(tensor, 2).vectors,
            tensor_power_decomposition(tensor.astype(np.float64), 2).vectors,
        )
        outcomes = _P.astype(np.float32)
        np.testing.assert_array_equal(
            rank_centrality(_GRAPH, outcomes),
            rank_centrality(_GRAPH, outcomes.astype(np.float64)),
        )
        np.testing.assert_array_equal(
            rank_centrality(_GRAPH, np.zeros((6, 2), dtype=np.int64)),
            rank_centrality(_GRAPH, np.zeros((6, 2))),
        )

    def test_models_graphs_and_matching(self):
        model = MixedMNLModel([[1, 2, 3]], [1])
        np.testing.assert_array_equal(
            model.weights, MixedMNLModel([[1.0, 2.0, 3.0]], [1.0]).weights
        )
        a = erdos_renyi(10, 4, np.random.default_rng(3))
        b = erdos_renyi(10, 4.0, np.random.default_rng(3))
        np.testing.assert_array_equal(a.edges, b.edges)
        assert erdos_renyi_arguments(10, np.float32(2.5)) == (10, 2.5)
        c = random_uniform_model(5, 2, np.random.default_rng(4), low=1, high=3)
        d = random_uniform_model(5, 2, np.random.default_rng(4), low=1.0, high=3.0)
        np.testing.assert_array_equal(c.weights, d.weights)
        match = match_components([0, 1], [[0, 1], [1, 0]], [1, 0], [[1, 0], [0, 1]])
        assert match.order == (1, 0) and match.max_vector_error == 0.0


def test_nan_matrix_is_refused_before_the_eigensolver(capfd):
    # At n = 6 and rank 2 the matrix would go to ARPACK, whose LAPACK calls
    # print to stderr on NaN input.
    with pytest.raises(ValidationError, match="matrix must be finite"):
        symmetrize_and_eig(np.full((6, 6), np.nan), 2)
    assert capfd.readouterr() == ("", "")
