import itertools

import numpy as np
import pytest

from mixmnl import ComparisonGraph, MixedMNLModel


def complete_graph(n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return ComparisonGraph(n, edges)


def brute_force_second_moment(model, graph):
    """sum_a q_a P_a P_a^T by explicit loops."""
    n = graph.n_pairs
    p = model.expected_outcomes(graph)
    out = np.zeros((n, n))
    for a in range(model.n_components):
        for k in range(n):
            for m in range(n):
                out[k, m] += model.mixture[a] * p[k, a] * p[m, a]
    return out


def brute_force_projected_third(observation, basis):
    """Off-diagonal triple outer power of the dense sign vector, contracted."""
    n, r = basis.shape
    x = observation.dense(n)
    t = np.einsum("i,j,k->ijk", x, x, x)
    for i in range(n):
        t[i, i, :] = 0.0
        t[:, i, i] = 0.0
        t[i, :, i] = 0.0
    return np.einsum("ijk,ia,jb,kc->abc", t, basis, basis, basis)


def best_permutation_errors(est_mixture, est_vectors, true_mixture, true_vectors):
    """Independent exhaustive matching used as the oracle for match_components.

    Vectors are one component per row.  Returns the worst mixture error,
    the worst relative vector error, and the minimizing assignment
    (order[b] = estimated index paired with true component b).
    """
    r = len(true_mixture)
    est_vectors = np.asarray(est_vectors)
    true_vectors = np.asarray(true_vectors)
    # cost[a, b]: errors of pairing estimated a with true b.
    mix_cost = np.abs(np.asarray(est_mixture)[:, None] - np.asarray(true_mixture)[None, :])
    vec_cost = np.linalg.norm(
        est_vectors[:, None, :] - true_vectors[None, :, :], axis=2
    ) / np.linalg.norm(true_vectors, axis=1)[None, :]
    perms = np.array(list(itertools.permutations(range(r))))
    cols = np.arange(r)
    totals = (mix_cost[perms, cols] + vec_cost[perms, cols]).sum(axis=1)
    best = int(np.argmin(totals))  # first minimum, as a strict < scan finds
    perm = perms[best]
    return (
        mix_cost[perm, cols].max(),
        vec_cost[perm, cols].max(),
        tuple(int(a) for a in perm),
    )


@pytest.fixture
def small_model():
    rng = np.random.default_rng(42)
    weights = rng.uniform(1.0, 2.0, size=(2, 6))
    return MixedMNLModel(weights, [0.4, 0.6])


@pytest.fixture
def small_graph():
    return complete_graph(6)
