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

from .errors import ValidationError, checked_array, checked_count, checked_rows
from .graphs import ComparisonGraph

# The sampler's chunk fixes the stream: each chunk of _CHUNK_FLOATS // N
# rows draws its pair keys, then its outcome uniforms.  Both are drawn about
# _BLOCK_FLOATS at a time into reusable buffers, which bounds memory without
# moving any draw: a block is the same words of the stream as the matching
# rows of one chunk-sized draw.  Each key block's selection draws nothing,
# so which rows _smallest_keys sends to its exact fallback moves no draw
# either.
_CHUNK_FLOATS = 4 << 20
_BLOCK_FLOATS = 1 << 17

# Pair indices are stored as int32, the one place their width is chosen: a
# batch holds count * ell of them, and the sparse kernels use int32 indices
# without converting.  Graphs with 2**31 or more pairs are refused.
_INDEX_DTYPE = np.int32
_MAX_PAIRS = int(np.iinfo(_INDEX_DTYPE).max)


def checked_ell(graph, ell):
    """``ell``, the pairs per observation, as an int in [1, graph.n_pairs].

    Raises ``ValidationError`` otherwise, or when int32 cannot index the graph's pairs.
    """
    if graph.n_pairs > _MAX_PAIRS:
        raise ValidationError(f"graphs with more than {_MAX_PAIRS} pairs are not supported")
    return checked_count(ell, "ell", low=1, high=graph.n_pairs)


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

    pair_indices: np.ndarray  # (ell,) int32, strictly increasing
    signs: np.ndarray  # (ell,) int8 in {-1, +1}

    def dense(self, n_pairs):
        """Signs at the row's pairs of a length ``n_pairs`` vector, zeros elsewhere.

        ``n_pairs`` must exceed the row's largest pair index (``ValidationError``).
        """
        top = int(self.pair_indices.max(initial=-1))
        x = np.zeros(checked_count(n_pairs, "n_pairs", low=top + 1))
        x[self.pair_indices] = self.signs
        return x


class ObservationBatch:
    """Column store of observations sharing one graph and one ell.

    ``pair_indices`` (count, ell) and ``signs`` are observation rows under
    ``checked_rows``: integer indices in [0, n_pairs), each row strictly
    increasing, and signs of that shape in {-1, +1}.  The batch holds
    read-only copies, the indices as int32 and the signs as int8.  The
    range is checked before the indices are narrowed, so a value too wide
    for int32 is rejected, not wrapped.
    """

    def __init__(self, graph, pair_indices, signs):
        if not isinstance(graph, ComparisonGraph):
            raise ValidationError("batch needs a ComparisonGraph")
        idx, sgn = checked_rows(pair_indices, signs, graph.n_pairs)
        checked_ell(graph, idx.shape[1])
        self._hold(graph, np.array(idx, dtype=_INDEX_DTYPE, order="C"), sgn.astype(np.int8))

    def _hold(self, graph, idx, sgn):
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


def _smallest_keys(keys, ell, words=None):
    """Columns of each row's ``ell`` smallest keys, ascending: (rows, ell) ints.

    Always equal to ``argpartition`` then ``sort`` along the rows, ties
    included.  Each key becomes one uint32 word: its float32 bits, which
    for non-negative keys (the sampler's are uniform on [0, 1)) order as
    unsigned integers, with the low ``(N - 1).bit_length()`` bits replaced
    by its column.  Rounding and truncation are monotone, so the word order
    is the key order with ties in the truncated key broken by column, and
    after a partition of each row at ``ell`` its first ``ell`` words hold
    the chosen columns.  They are exactly the ``ell`` smallest float64 keys
    wherever every one of their truncated keys is below that of word
    ``ell``.  The other rows (about 1 in 14,000 at 104 pairs and ell 10,
    1 in 300 at 1,759 pairs and 1 in 33 at 9,889 pairs with ell 40, and
    every row with a true tie there) take the full-row ``argpartition``
    and ``sort`` on those rows alone, which chooses as on the whole block.
    ``words``, if given, is a C-order (rows or more, N) uint32 buffer.
    """
    rows, n = keys.shape
    if ell == n:
        return np.tile(np.arange(n), (rows, 1))
    words = np.empty(keys.shape, np.uint32) if words is None else words[:rows]
    low = np.uint32((1 << (n - 1).bit_length()) - 1)
    words.view(np.float32)[...] = keys  # cast by value: no byte-order dependence
    words &= ~low
    words |= np.arange(n, dtype=np.uint32)
    words.partition(ell, axis=1)
    chosen = words[:, :ell].copy()
    tie = chosen >= (words[:, ell] & ~low)[:, None]  # truncated key is word ell's
    chosen &= low
    chosen.sort(axis=1)
    if tie.any():  # a row-wise max here would cost about a tenth of the block
        tied = np.flatnonzero(tie.any(axis=1))
        chosen[tied] = _sorted_argpartition(keys[tied], ell)
    return chosen


def _sorted_argpartition(keys, ell):
    """Columns of each row's ``ell`` smallest keys by ``argpartition``, sorted ascending."""
    chosen = np.argpartition(keys, ell - 1, axis=1)[:, :ell]
    chosen.sort(axis=1)
    return chosen


def _fresh_batch(graph, idx, sgn):
    """A batch that takes ``sample_batch``'s own arrays, valid by construction, as they are."""
    batch = ObservationBatch.__new__(ObservationBatch)
    batch._hold(graph, idx, sgn)
    return batch


class MixedMNLModel:
    """An r-component mixture of MNL weight vectors over n items.

    ``weights`` (r, n), r >= 1, and ``mixture`` (r,) are positive finite
    numbers (``checked_array``), held normalized and read-only.
    """

    def __init__(self, weights, mixture):
        w = checked_array(weights, "weights")
        q = checked_array(mixture, "mixture")
        if w.ndim != 2:
            raise ValidationError("weights must be (r, n)")
        component_count(w.shape[0])
        if q.ndim != 1 or q.shape[0] != w.shape[0]:
            raise ValidationError("mixture length must match the number of components")
        if w.shape[1] < 2:
            raise ValidationError("need at least 2 items")
        if (w <= 0).any():
            raise ValidationError("weights must be strictly positive")
        if (q <= 0).any():
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

    def expected_outcomes(self, graph):
        """Conditional mean sign per pair: (w_j - w_i) / (w_i + w_j), (n_pairs, r)."""
        if graph.n_items != self.n_items:
            raise ValidationError("graph and model disagree on the number of items")
        i = graph.edges[:, 0]
        j = graph.edges[:, 1]
        wi = self.weights[:, i]
        wj = self.weights[:, j]
        return ((wj - wi) / (wi + wj)).T

    def sample_batch(self, graph, ell, count, rng):
        """Draw ``count`` independent observations of ``ell`` distinct pairs.

        Pair subsets are uniform without replacement over the graph's
        pairs: each row keeps the ``ell`` smallest of N uniform keys, found
        by one partition of packed (key, column) uint32 words per row
        (``_smallest_keys``).  Consumption of ``rng`` is fixed (components,
        then per chunk the pair keys and the outcome uniforms), so a seeded
        generator reproduces the batch exactly.  The chunk size fixes that
        order; the keys and the outcome uniforms each go through one block
        of about 1 MB (the keys' uint32 words through one of half that), and
        the thresholds and int8 signs are taken per outcome block, so
        scratch memory does not grow with the chunk.
        ``count`` >= 0 and ``ell`` in [1, n_pairs] must be integers: a
        float such as 10.9 is refused, not truncated.
        """
        count = checked_count(count, "count")
        ell = checked_ell(graph, ell)
        n_pairs = graph.n_pairs
        # P(sign = +1 | pair k, component a) at a * N + k
        win = ((1.0 + self.expected_outcomes(graph).T) / 2.0).ravel()
        components = rng.choice(self.n_components, size=count, p=self.mixture)
        idx = np.empty((count, ell), dtype=_INDEX_DTYPE)
        sgn = np.empty((count, ell), dtype=np.int8)
        step = max(1, _CHUNK_FLOATS // n_pairs)
        rows = max(1, _BLOCK_FLOATS // n_pairs)
        keys = np.empty((min(rows, step, count), n_pairs))
        words = np.empty(keys.shape, np.uint32)
        outcome_rows = max(1, _BLOCK_FLOATS // ell)
        uniforms = np.empty((min(outcome_rows, step, count), ell))
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            for start in range(lo, hi, rows):
                stop = min(start + rows, hi)
                idx[start:stop] = _smallest_keys(rng.random(out=keys[: stop - start]), ell, words)
            for start in range(lo, hi, outcome_rows):
                stop = min(start + outcome_rows, hi)
                u = rng.random(out=uniforms[: stop - start])
                thresholds = win.take(components[start:stop, None] * n_pairs + idx[start:stop])
                sgn[start:stop] = u < thresholds
        sgn *= 2  # 1 where the larger-index item won, else 0, to +1 or -1
        sgn -= 1
        return _fresh_batch(graph, idx, sgn)

    def __repr__(self):
        return f"MixedMNLModel(r={self.n_components}, n={self.n_items})"


def random_uniform_model(n_items, n_components, rng, low=1.0, high=2.0):
    """Model with i.i.d. uniform [low, high] weights and uniform mixture.

    The standard synthetic instance: before normalization every weight is
    an independent uniform draw, and components are equally likely.
    ``low`` and ``high`` are finite numbers (``checked_array``).
    """
    low, high = checked_array(low, "low"), checked_array(high, "high")
    if low.ndim or high.ndim or not 0 < low < high:
        raise ValidationError("need 0 < low < high")
    r = component_count(n_components)
    w = rng.uniform(float(low), float(high), size=(r, checked_count(n_items, "n_items", low=2)))
    return MixedMNLModel(w, np.full(r, 1.0 / r))


def component_count(n_components):
    """``n_components`` as an int >= 1; ``ValidationError`` otherwise, 2.5 included."""
    return checked_count(n_components, "n_components", low=1)


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
