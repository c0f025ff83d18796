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
Python code runs per entry.  ``_observation_chunks`` alone knows the
bytes of the observations block: it yields them in row chunks, each entry
one cell of a table of byte strings indexed by its pair, its sign and
whether it ends its row, and numpy gathers a chunk's cells into bytes.
``save_dataset`` writes the chunks as they come, so its memory does not
grow with the file, and its bytes equal ``json.dumps`` of
``dataset_to_dict``, the container reference.

``load_dataset`` has two routes to the same validator,
``dataset_from_dict``.  The general route is ``json.load``; it reads any
valid JSON, such as a pretty-printed or hand-edited file, and it is the
reference.  Every file first takes the canonical route, which is fast
on what ``save_dataset`` writes: ``json.loads`` parses the file with its
observations block replaced by ``[]``, one ``np.fromstring`` reads the
block's integers, and the validator builds the batch.  The batch is kept
only if saving it again gives the file's bytes: the header and tail
through ``_framing``, the block chunk by chunk against the encoder.  A
file that ``save_dataset`` reproduces is one that ``json.load`` reads as
that batch, so whatever numpy misread cannot pass.  A parse failure, a
``ValidationError`` or a byte mismatch sends the file to the general
route, which gives the dataset or the error.

The tree that ``json.load`` builds has no cycles, so the cyclic
collector is paused while a dataset is loaded; otherwise it rescans the
growing tree again and again.
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


def _observation_chunks(batch):
    """The ``observations`` block as compact JSON bytes, in row chunks.

    Entry (p, s) is cell p + N (s > 0) + 2N (last in its row): each row's
    last cell closes it and opens the next, so the block is ``[[``, the
    cells with their null bytes deleted, and ``]`` in place of the final
    ``,[``.
    """
    count, ell = batch.pair_indices.shape
    if count == 0:
        yield b"[]"
        return
    n_pairs = batch.graph.n_pairs
    cells = _cells(n_pairs)
    rows = max(_CHUNK_CELLS // ell, 1)
    yield b"[["
    for start in range(0, count, rows):
        stop = start + rows
        codes = np.multiply(batch.signs[start:stop] > 0, n_pairs, dtype=np.int64)
        codes += batch.pair_indices[start:stop]
        codes[:, -1] += 2 * n_pairs
        chunk = cells.take(codes).tobytes().translate(None, b"\0")
        yield chunk if stop < count else chunk[:-2] + b"]"


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
    ``graph.edges``, the order the pair indices refer to, and ground truth
    weights must be over the dataset's n items.
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
        if model.n_items != n:
            raise ValidationError(
                f"ground truth weights are over {model.n_items} items, but dataset n = {n}"
            )
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
        fh.writelines(_observation_chunks(batch))
        fh.write(tail.encode())


def load_dataset(path):
    with _collector_paused():
        return _canonical_dataset(path) or dataset_from_dict(load_json(path, "dataset"))


_BLOCK_START = b',"observations":['
_SEPARATORS = bytes.maketrans(b"[],", b"   ")


def _canonical_dataset(path):
    """The (batch, model) of a file that ``save_dataset`` wrote; None for any other file.

    The batch is kept only if ``save_dataset`` of it reproduces the file's
    bytes.  The file's bytes are freed once the header and tail are
    checked, so only the block's copy is held while it is parsed.
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
    if type(data) is not dict:
        return None
    header = {key: data.get(key) for key in ("n", "ell", "graph")}
    head, tail = _framing(header, data.get("ground_truth"))
    if raw[:start] != head.encode() or raw[end:] != tail.encode():
        return None
    del raw
    if block != b"[]":
        try:
            values = np.fromstring(block.translate(_SEPARATORS), dtype=np.int64, sep=" ")
            data["observations"] = values.reshape(-1, data["ell"], 2)
        except (TypeError, ValueError):  # unmatched data such as 1-2, or an ell of 0
            return None
    try:
        batch, model = dataset_from_dict(data)
    except ValidationError:
        return None
    offset = 0
    for chunk in _observation_chunks(batch):
        if not block.startswith(chunk, offset):
            return None
        offset += len(chunk)
    return (batch, model) if offset == len(block) else None


def load_json(path, what):
    """Parse a JSON file, raising ``ValidationError`` if it is not valid JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ValidationError(f"{what} file {path} is not valid JSON: {err}") from err


def save_results(path, estimates):
    save_json(
        path,
        {
            "q_hat": estimates.mixture,
            "w_hat": estimates.weights,
            "p_hat": estimates.outcome_matrix,
            "diagnostics": estimates.diagnostics,
        },
    )


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
