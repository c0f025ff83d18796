"""Dataset and result files.

Datasets are JSON with fixed key order: ``n``, ``ell``, ``graph``
(``n`` and sorted ``edges``), ``observations`` (a list of
``[pair_index, sign]`` entry lists), and optionally ``ground_truth``
(``q`` and ``weights``).  A pair index is a position in ``edges``, so the
edges must be listed as ``ComparisonGraph.edges`` holds them: sorted,
each pair once as ``[i, j]`` with i < j.  Serialization is canonical:
loading a dataset and saving it again reproduces the bytes, which keeps
seeded pipelines reproducible at the file level.

Results files hold ``q_hat``, ``w_hat``, ``p_hat`` and ``diagnostics``;
``save_results`` writes them and ``load_results`` reads them back.  Every
array read from a file goes through ``errors.checked_array``.

A dataset file holds one small list per observation entry, and no
Python code runs per entry.  ``save_dataset`` writes the observations in
row chunks: each entry is one cell of a table of byte strings, indexed
by its pair, its sign and whether it ends its row, and numpy gathers a
chunk's cells into bytes that go straight to the file.  Its bytes equal
``json.dumps`` of ``dataset_to_dict``, the container reference, and its
memory does not grow with the file.

``load_dataset`` has two routes to the same validator,
``dataset_from_dict``:

- A byte-canonical file, one whose bytes are exactly what
  ``save_dataset`` writes for its decoded content, has its observations
  block parsed by numpy: the brackets and commas become spaces and one
  ``np.fromstring`` reads the integers.  The header and ground truth are
  parsed by ``json.loads`` with the block replaced by ``[]``.  The route
  only accepts a file whose every byte it has checked against that
  canonical form (``_canonical_dataset``); anything else, including
  values it could misread (leading zeros, ``-0``, a lone ``-``, 19-digit
  integers that numpy saturates), goes to the general route.
- Every other file, for example pretty-printed or hand-edited JSON, goes
  through ``json.load``, and numpy converts the decoded observations.

The general route is kept because valid non-canonical JSON has no other
reader, and because it is the reference that the canonical route is
tested against: on every file both routes give equal arrays or the same
``ValidationError``.  The tree that ``json.load`` builds has no cycles,
so the cyclic collector is paused while a dataset is loaded; otherwise
it rescans the growing tree again and again.
"""

import contextlib
import gc
import json

import numpy as np

from .errors import ValidationError, checked_array, checked_count
from .graphs import ComparisonGraph
from .model import MixedMNLModel, ObservationBatch, checked_ell
from .pipeline import ComponentEstimates


@contextlib.contextmanager
def _collector_paused():
    """Disable the cyclic garbage collector; restore the caller's state on exit."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _header_dict(batch):
    graph = batch.graph
    return {
        "n": graph.n_items,
        "ell": batch.ell,
        "graph": {
            "n": graph.n_items,
            "edges": [[int(i), int(j)] for i, j in graph.edges],
        },
    }


def _ground_truth_dict(model):
    return {
        "q": [float(v) for v in model.mixture],
        "weights": [[float(v) for v in row] for row in model.weights],
    }


def dataset_to_dict(batch, model=None):
    """The dataset as JSON containers; ``save_dataset`` writes the same bytes."""
    out = _header_dict(batch)
    out["observations"] = np.stack([batch.pair_indices, batch.signs], axis=-1).tolist()
    if model is not None:
        out["ground_truth"] = _ground_truth_dict(model)
    return out


# Each observations chunk holds about this many entries, so the encoder's
# buffers stay near 1 MB whatever the file size.
_CHUNK_CELLS = 1 << 15

# Cell kind k of pair p is "[" + p + _CELL_ENDS[k]: a row's middle entry
# with sign -1 or +1, then its last entry, which also opens the next row.
_CELL_ENDS = (b",-1],", b",1],", b",-1]],[", b",1]],[")


def _cells(n_pairs):
    """The 4 * n_pairs entry cells as null-padded bytes; cell k * n_pairs + p has kind k.

    Each pair index fills a fixed field of digits whose leading positions
    hold null bytes, which the encoder deletes, so no Python code runs per
    pair.
    """
    width = len(str(max(n_pairs - 1, 0)))
    powers = 10 ** np.arange(width - 1, -1, -1)
    p = np.arange(n_pairs)[:, None]
    digits = np.where((p >= powers) | (powers == 1), p // powers % 10 + ord("0"), 0)
    cells = np.zeros((len(_CELL_ENDS), n_pairs, 1 + width + max(map(len, _CELL_ENDS))), np.uint8)
    cells[:, :, 0] = ord("[")
    cells[:, :, 1 : 1 + width] = digits
    for kind, end in enumerate(_CELL_ENDS):
        cells[kind, :, 1 + width : 1 + width + len(end)] = list(end)
    return cells.reshape(-1, cells.shape[-1]).view(f"S{cells.shape[-1]}").ravel()


def _write_observations(fh, batch):
    """Write the ``observations`` block as compact JSON bytes, in row chunks.

    Entry (p, s) is cell p + N (s > 0) + 2N (last in its row): each row's
    last cell closes it and opens the next, so the block is ``[[``, the
    cells with their null bytes deleted, and ``]`` in place of the final
    ``,[``.
    """
    count, ell = batch.pair_indices.shape
    if count == 0:
        fh.write(b"[]")
        return
    n_pairs = batch.graph.n_pairs
    cells = _cells(n_pairs)
    rows = max(_CHUNK_CELLS // ell, 1)
    fh.write(b"[[")
    for start in range(0, count, rows):
        stop = start + rows
        codes = np.multiply(batch.signs[start:stop] > 0, n_pairs, dtype=np.int64)
        codes += batch.pair_indices[start:stop]
        codes[:, -1] += 2 * n_pairs
        chunk = cells.take(codes).tobytes().translate(None, b"\0")
        fh.write(chunk if stop < count else chunk[:-2] + b"]")


def _framing(header, truth):
    """The text ``save_dataset`` writes before and after the observations block."""
    head = json.dumps(header, separators=(",", ":"))[:-1] + ',"observations":'
    if truth is None:
        return head, "}\n"
    return head, ',"ground_truth":' + json.dumps(truth, separators=(",", ":")) + "}\n"


def dataset_from_dict(data):
    """Rebuild (batch, model-or-None) from a parsed dataset dict.

    ``observations`` is the nested JSON list, or the (count, ell, 2) int64
    array that ``load_dataset`` decodes from a canonical file.  Either way
    ``ObservationBatch`` gets views of one integer array, range-checks them
    and keeps an int32 copy of the pair indices.  The header counts are
    checked, the two item counts compared, and n bounded by twice the
    number of listed pairs before the graph is built, so a file cannot ask
    for memory beyond its own size.  The listed edges must equal
    ``graph.edges``, the order the pair indices refer to.
    """
    try:
        n = checked_count(data["n"], "dataset n")
        if checked_count(data["graph"]["n"], "graph n") != n:
            raise ValidationError("dataset n and graph n disagree")
        edges = data["graph"]["edges"]
        if n > 2 * len(edges):
            raise ValidationError(
                f"dataset n = {n} exceeds twice the {len(edges)} listed pairs, "
                "so some item is in no pair and cannot be ranked"
            )
        graph = ComparisonGraph(n, edges)
        if not np.array_equal(graph.edges, edges):
            raise ValidationError(
                "graph edges must be listed sorted, each pair once as [i, j] with i < j: "
                "observation pair indices refer to positions in that order"
            )
        ell = checked_ell(graph, data["ell"])
        observations = data["observations"]
    except (KeyError, TypeError) as err:
        raise ValidationError(f"malformed dataset: {err}") from err
    entries = _observation_entries(observations, ell)
    batch = ObservationBatch(graph, entries[:, :, 0], entries[:, :, 1])
    model = None
    if "ground_truth" in data:
        truth = data["ground_truth"]
        try:
            model = MixedMNLModel(truth["weights"], truth["q"])
        except (KeyError, TypeError) as err:
            raise ValidationError(f"malformed ground truth: {err}") from err
    return batch, model


def _observation_entries(observations, ell):
    """The (count, ell, 2) integer array of decoded observations; ``[]`` is empty."""
    if type(observations) is list and not observations:
        return np.empty((0, ell, 2), dtype=np.int64)
    entries = checked_array(observations, "observation entries", integers=True)
    if entries.shape[1:] != (ell, 2):
        raise ValidationError("every observation needs exactly ell [pair, sign] entries")
    return entries


def save_dataset(path, batch, model=None):
    truth = None if model is None else _ground_truth_dict(model)
    head, tail = _framing(_header_dict(batch), truth)
    with open(path, "wb") as fh:
        fh.write(head.encode())
        _write_observations(fh, batch)
        fh.write(tail.encode())


def load_dataset(path):
    with _collector_paused():
        data = _canonical_dataset(path)
        if data is None:
            data = load_json(path, "dataset")
        return dataset_from_dict(data)


_KEYS = ["n", "ell", "graph", "observations"]
_BLOCK_START = b',"observations":['
_SEPARATORS = bytes.maketrans(b"[],", b"   ")
_NUMBER_BYTES = b"0123456789-"
# np.fromstring saturates integers beyond int64 instead of failing, so a
# value this large is left to the general route.
_LARGEST_READ = 10**18


def _canonical_dataset(path):
    """The dataset dict of a byte-canonical file, or None for any other file.

    The observations come back as a (count, ell, 2) int64 array.  A file is
    accepted only if its bytes are exactly those ``save_dataset`` writes for
    the decoded content: the header and ground truth must re-encode to their
    own bytes, and the block must be the canonical skeleton
    ``[[[,],...],...]`` for (count, ell) with one canonical decimal
    integer in each slot.  The slot count, the count of ``-`` bytes and the
    count of digit bytes are all compared with the parsed values, which
    closes what ``np.fromstring`` would otherwise accept (``- 1``, ``01``,
    ``-0``, a lone ``-`` or an empty slot).  The file's bytes are read here
    and freed once the header and tail are checked, so only the block's
    copy is held while it is parsed.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    key = raw.find(_BLOCK_START)
    if key < 0:
        return None
    start = key + len(_BLOCK_START) - 1  # the block's opening bracket
    if raw.startswith(b"[]", start):
        end = start + 2
    else:
        # The tail holds no "]]]" (ground truth nests two deep), so the
        # block's end is the last one; searching back skips the block.
        end = raw.rfind(b"]]]", start) + 3
        if end < 3:
            return None
    block = raw[start:end]
    try:
        data = json.loads(raw[:start] + b"[]" + raw[end:])
    except ValueError:  # invalid JSON or undecodable bytes
        return None
    if type(data) is not dict or list(data) not in (_KEYS, _KEYS + ["ground_truth"]):
        return None
    header = {key: data[key] for key in _KEYS[:3]}
    head, tail = _framing(header, data.get("ground_truth"))
    if raw[:start] != head.encode() or raw[end:] != tail.encode():
        return None
    del raw
    if block == b"[]":
        return data
    ell = data["ell"]
    if type(ell) is not int or ell < 1:
        return None
    try:
        values = np.fromstring(block.translate(_SEPARATORS), dtype=np.int64, sep=" ")
    except ValueError:  # unmatched data, such as 1-2 or --1
        return None
    count = values.size // (2 * ell)
    if count == 0 or values.size != 2 * ell * count:
        return None
    skeleton = block.translate(None, _NUMBER_BYTES)
    minus = block.count(b"-")
    number_bytes = len(block) - len(skeleton)
    del block
    # The block opens with "[" and closes with "]]]", so the skeleton is
    # canonical if it is one byte longer at each end than the rows it should
    # hold, and holds them from its second byte on (compared in place).
    row = b"[" + b",".join([b"[,]"] * ell) + b"]"
    rows = b",".join([row] * count)
    if len(skeleton) != len(rows) + 2 or not skeleton.startswith(rows, 1):
        return None
    if values.min() <= -_LARGEST_READ or values.max() >= _LARGEST_READ:
        return None
    largest = max(int(values.max()), -int(values.min()))
    digits = values.size
    for power in range(1, len(str(largest))):
        digits += np.count_nonzero(values >= 10**power)
        digits += np.count_nonzero(values <= -(10**power))
    if minus != np.count_nonzero(values < 0) or digits + minus != number_bytes:
        return None
    data["observations"] = values.reshape(count, ell, 2)
    return data


def load_json(path, what):
    """Parse a JSON file, raising ``ValidationError`` if it is not valid JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ValidationError(f"{what} file {path} is not valid JSON: {err}") from err


def results_to_dict(estimates):
    return {
        "q_hat": [float(v) for v in estimates.mixture],
        "w_hat": [[float(v) for v in row] for row in estimates.weights],
        "p_hat": [[float(v) for v in row] for row in estimates.outcome_matrix],
        "diagnostics": jsonable(estimates.diagnostics),
    }


def save_results(path, estimates):
    save_json(path, results_to_dict(estimates))


def load_results(path):
    """The ``ComponentEstimates`` of a results file, as ``save_results`` writes it."""
    results = load_json(path, "results")
    try:
        arrays = [checked_array(results[key], key) for key in ("q_hat", "w_hat", "p_hat")]
        diagnostics = results.get("diagnostics", {})
    except (KeyError, TypeError) as err:
        raise ValidationError(f"malformed results file: {err}") from err
    if not isinstance(diagnostics, dict):
        raise ValidationError("results diagnostics must be a JSON object")
    return ComponentEstimates(*arrays, diagnostics)


def save_json(path, payload):
    with open(path, "w") as fh:
        json.dump(jsonable(payload), fh, indent=2, sort_keys=False)
        fh.write("\n")


def jsonable(value):
    """Recursively convert numpy scalars/arrays into JSON-ready types."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value
