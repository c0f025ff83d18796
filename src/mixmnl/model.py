"""Mixtures of multinomial logit (Bradley-Terry) components.

Each component ``a`` carries a positive weight vector over items,
normalized to sum 1.  Conditioned on component ``a``, item ``i`` is
preferred over item ``j`` with probability ``w_i / (w_i + w_j)``.  An
observation draws one component, then a fixed-size subset of comparison
pairs without replacement, then an independent outcome per drawn pair.

Outcome signs follow the convention that +1 on pair k = (i, j), i < j,
means the larger-index endpoint j won.  The conditional mean of the sign
on pair k is therefore ``(w_j - w_i) / (w_i + w_j)``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graphs import ComparisonGraph

# Observation sampling is chunked so scratch uniforms stay around 32 MB.
_CHUNK_FLOATS = 4 << 20


def _normalized(v):
    """Rows of ``v`` over their sums.

    Rows that already sum to 1 up to roundoff are kept as they are, so
    normalizing twice (as saving and reloading a model does) changes no bit.
    """
    sums = v.sum(axis=-1, keepdims=True)
    done = np.abs(sums - 1.0) <= v.shape[-1] * np.finfo(np.float64).eps
    return np.where(done, v, v / sums)


@dataclass(frozen=True)
class Observation:
    """One multi-pair comparison: ``ell`` distinct pairs with outcomes."""

    pair_indices: np.ndarray  # (ell,) int64, strictly increasing
    signs: np.ndarray  # (ell,) int8 in {-1, +1}

    def dense(self, n_pairs):
        x = np.zeros(int(n_pairs))
        x[self.pair_indices] = self.signs
        return x


class ObservationBatch:
    """Column store of observations sharing one graph and one ell.

    ``pair_indices`` has shape (count, ell) with strictly increasing rows;
    ``signs`` matches with entries in {-1, +1}.
    """

    def __init__(self, graph, pair_indices, signs):
        if not isinstance(graph, ComparisonGraph):
            raise ValidationError("batch needs a ComparisonGraph")
        idx = np.array(pair_indices, dtype=np.int64, copy=True)
        sgn = np.asarray(signs)
        if idx.ndim != 2 or sgn.shape != idx.shape:
            raise ValidationError("pair_indices and signs must both be (count, ell)")
        count, ell = idx.shape
        if ell < 1 or ell > graph.n_pairs:
            raise ValidationError("ell must be in [1, n_pairs]")
        if count > 0:
            if idx.min() < 0 or idx.max() >= graph.n_pairs:
                raise ValidationError("pair index out of range")
            if ell > 1 and not (np.diff(idx, axis=1) > 0).all():
                raise ValidationError("pair indices must be strictly increasing per row")
            if not (np.abs(sgn) == 1).all():
                raise ValidationError("signs must be -1 or +1")
        sgn = sgn.astype(np.int8)
        idx.setflags(write=False)
        sgn.setflags(write=False)
        self.graph = graph
        self.pair_indices = idx
        self.signs = sgn

    @property
    def ell(self):
        return self.pair_indices.shape[1]

    def __len__(self):
        return self.pair_indices.shape[0]

    def __getitem__(self, t):
        return Observation(self.pair_indices[t], self.signs[t])

    def __iter__(self):
        for t in range(len(self)):
            yield self[t]


class MixedMNLModel:
    """An r-component mixture of MNL weight vectors over n items."""

    def __init__(self, weights, mixture):
        w = np.array(weights, dtype=np.float64)
        q = np.array(mixture, dtype=np.float64)
        if w.ndim != 2:
            raise ValidationError("weights must be (r, n)")
        if q.ndim != 1 or q.shape[0] != w.shape[0]:
            raise ValidationError("mixture length must match the number of components")
        if w.shape[1] < 2:
            raise ValidationError("need at least 2 items")
        if not np.isfinite(w).all() or (w <= 0).any():
            raise ValidationError("weights must be finite and strictly positive")
        if not np.isfinite(q).all() or (q <= 0).any():
            raise ValidationError("mixture probabilities must be strictly positive")
        w = _normalized(w)
        q = _normalized(q)
        w.setflags(write=False)
        q.setflags(write=False)
        self.weights = w
        self.mixture = q

    @property
    def n_components(self):
        return self.weights.shape[0]

    @property
    def n_items(self):
        return self.weights.shape[1]

    @property
    def dynamic_range(self):
        """Largest within-component weight ratio max_i w_i / min_i w_i."""
        return float((self.weights.max(axis=1) / self.weights.min(axis=1)).max())

    @property
    def mixture_ratio(self):
        return float(self.mixture.max() / self.mixture.min())

    def win_probability(self, component, i, j):
        """P(item i preferred over item j | component)."""
        w = self.weights[component]
        return float(w[i] / (w[i] + w[j]))

    def expected_outcomes(self, graph, component=None):
        """Conditional mean sign per pair: (w_j - w_i) / (w_i + w_j).

        Returns an (n_pairs, r) matrix, or one (n_pairs,) column when
        ``component`` is given.
        """
        if graph.n_items != self.n_items:
            raise ValidationError("graph and model disagree on the number of items")
        i = graph.edges[:, 0]
        j = graph.edges[:, 1]
        wi = self.weights[:, i]
        wj = self.weights[:, j]
        p = ((wj - wi) / (wi + wj)).T
        if component is None:
            return p
        return p[:, component]

    def sample_batch(self, graph, ell, count, rng):
        """Draw ``count`` independent observations of ``ell`` distinct pairs.

        Pair subsets are uniform without replacement over the graph's
        pairs.  Consumption of ``rng`` is fixed (components, then per-chunk
        pair uniforms and outcome uniforms), so a seeded generator
        reproduces the batch exactly.
        """
        count = int(count)
        ell = int(ell)
        if count < 0:
            raise ValidationError("count must be non-negative")
        n_pairs = graph.n_pairs
        if not 1 <= ell <= n_pairs:
            raise ValidationError("ell must be in [1, n_pairs]")
        p_matrix = self.expected_outcomes(graph)
        win = (1.0 + p_matrix) / 2.0  # P(sign = +1 | pair, component)
        components = rng.choice(self.n_components, size=count, p=self.mixture)
        idx = np.empty((count, ell), dtype=np.int64)
        sgn = np.empty((count, ell), dtype=np.int8)
        step = max(1, _CHUNK_FLOATS // max(n_pairs, 1))
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            keys = rng.random((hi - lo, n_pairs))
            chosen = np.argpartition(keys, ell - 1, axis=1)[:, :ell]
            chosen.sort(axis=1)
            idx[lo:hi] = chosen
            u = rng.random((hi - lo, ell))
            thresholds = win[chosen, components[lo:hi, None]]
            sgn[lo:hi] = np.where(u < thresholds, 1, -1)
        return ObservationBatch(graph, idx, sgn)

    def sample_observation(self, graph, ell, rng):
        batch = self.sample_batch(graph, ell, 1, rng)
        return batch[0]

    def __repr__(self):
        return f"MixedMNLModel(r={self.n_components}, n={self.n_items})"


def random_uniform_model(n_items, n_components, rng, low=1.0, high=2.0):
    """Model with i.i.d. uniform [low, high] weights and uniform mixture.

    The standard synthetic instance: before normalization every weight is
    an independent uniform draw, and components are equally likely.
    """
    if not 0 < low < high:
        raise ValidationError("need 0 < low < high")
    w = rng.uniform(low, high, size=(int(n_components), int(n_items)))
    return MixedMNLModel(w, np.full(int(n_components), 1.0 / int(n_components)))


def marginally_identical_mixtures():
    """Two distinct uniform ranking mixtures with equal pairwise marginals.

    Each case mixes two deterministic rankings of 4 items (best first)
    with probability 1/2 each.  The cases differ as distributions over
    rankings, yet every entry of the pairwise-marginal matrix
    ``M[u, v] = P(u preferred over v)`` coincides, which is why pairwise
    data alone cannot identify the mixture without structural assumptions.
    Returns ``((rankings_1, marginals_1), (rankings_2, marginals_2))``;
    diagonal entries are 0 by convention.
    """
    case_one = [(0, 1, 2, 3), (1, 0, 3, 2)]
    case_two = [(1, 0, 2, 3), (0, 1, 3, 2)]
    return (
        (case_one, ranking_mixture_marginals(case_one)),
        (case_two, ranking_mixture_marginals(case_two)),
    )


def ranking_mixture_marginals(rankings):
    """Pairwise-marginal matrix of a uniform mixture of rankings.

    ``rankings`` lists permutations of 0..n-1, best item first.
    ``M[u, v]`` is the fraction of rankings placing u before v; the
    diagonal is 0.  Entries are exact binary fractions, so equality
    between mixtures of this form is exact in floating point.
    """
    if not rankings:
        raise ValidationError("need at least one ranking")
    n = len(rankings[0])
    m = np.zeros((n, n))
    for perm in rankings:
        if sorted(perm) != list(range(n)):
            raise ValidationError("rankings must be permutations of 0..n-1")
        position = np.empty(n, dtype=np.int64)
        position[list(perm)] = np.arange(n)
        m += position[:, None] < position[None, :]
    m /= len(rankings)
    np.fill_diagonal(m, 0.0)
    return m
