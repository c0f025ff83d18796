"""Dataset and result files.

Datasets are JSON with fixed key order: ``n``, ``ell``, ``graph``
(``n`` and sorted ``edges``), ``observations`` (a list of
``[pair_index, sign]`` entry lists), and optionally ``ground_truth``
(``q`` and ``weights``).  Serialization is canonical: loading a dataset
and saving it again reproduces the bytes, which keeps seeded pipelines
reproducible at the file level.

A dataset file holds one small list per observation entry, and no
Python code runs per entry.  ``save_dataset`` encodes the observations
with one ``%``-format call over a flat list of ints; its bytes equal
``json.dumps`` of ``dataset_to_dict``, the container reference.
``dataset_from_dict`` checks the decoded tree with C-level passes
(``map``, ``set``, ``itertools.chain``) and converts one flat list.  The
tree that ``json.load`` builds has no cycles, so the cyclic collector is
paused while a dataset is decoded; otherwise it rescans the growing tree
again and again.
"""

import contextlib
import gc
import json
from itertools import chain

import numpy as np

from .errors import ValidationError
from .graphs import ComparisonGraph
from .model import MixedMNLModel, ObservationBatch


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


def _observations_json(batch):
    """The ``observations`` block as compact JSON, from one format call."""
    count, ell = batch.pair_indices.shape
    flat = np.stack([batch.pair_indices, batch.signs], axis=-1).ravel().tolist()
    row = "[" + ",".join(["[%d,%d]"] * ell) + "]"
    return "[" + ",".join([row] * count) % tuple(flat) + "]"


def _header_int(value, name):
    """A dataset header count; floats, bools and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"dataset {name} must be an integer, got {value!r}")
    return int(value)


def dataset_from_dict(data):
    """Rebuild (batch, model-or-None) from a parsed dataset dict."""
    try:
        n = _header_int(data["n"], "n")
        ell = _header_int(data["ell"], "ell")
        graph_n = _header_int(data["graph"]["n"], "graph n")
        graph = ComparisonGraph(graph_n, data["graph"]["edges"])
        observations = data["observations"]
    except (KeyError, TypeError) as err:
        raise ValidationError(f"malformed dataset: {err}") from err
    if graph.n_items != n:
        raise ValidationError("dataset n and graph n disagree")
    entries = _observation_entries(observations, ell)
    batch = ObservationBatch(graph, entries[:, :, 0], entries[:, :, 1])
    model = None
    if "ground_truth" in data:
        truth = data["ground_truth"]
        try:
            model = MixedMNLModel(
                _numeric(truth["weights"], "weights"), _numeric(truth["q"], "q")
            )
        except (KeyError, TypeError) as err:
            raise ValidationError(f"malformed ground truth: {err}") from err
    return batch, model


def _observation_entries(observations, ell):
    """The (count, ell, 2) int64 array of decoded observations; ``[]`` is empty."""
    if type(observations) is not list:
        raise ValidationError("dataset observations must be a list")
    count = len(observations)
    if count == 0:
        return np.empty((0, ell, 2), dtype=np.int64)
    if set(map(type, observations)) != {list} or set(map(len, observations)) != {ell}:
        raise ValidationError("every observation needs exactly ell [pair, sign] entries")
    entries = list(chain.from_iterable(observations))
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        raise ValidationError("every observation entry must be a [pair, sign] list")
    flat = list(chain.from_iterable(entries))
    # exact type: bool is a subclass of int, and floats, strings and null are not ints
    if set(map(type, flat)) != {int}:
        raise ValidationError("observation entries must be integers")
    try:
        return np.array(flat, dtype=np.int64).reshape(count, ell, 2)
    except OverflowError as err:
        raise ValidationError(f"observation entry out of range: {err}") from err


def _numeric(values, name):
    """A ground-truth array of JSON numbers; strings, bools and ragged rows are rejected."""
    try:
        array = np.asarray(values)
    except ValueError as err:
        raise ValidationError(f"malformed ground truth {name}: {err}") from err
    # As for observations, numpy folds true/false among numbers into 1/0.
    flat = chain.from_iterable(values) if array.ndim == 2 else values
    if array.dtype.kind not in "iuf" or bool in map(type, flat):
        raise ValidationError(f"ground truth {name} must be numbers")
    return array


def save_dataset(path, batch, model=None):
    header = json.dumps(_header_dict(batch), separators=(",", ":"))
    parts = [header[:-1], ',"observations":', _observations_json(batch)]
    if model is not None:
        truth = json.dumps(_ground_truth_dict(model), separators=(",", ":"))
        parts += [',"ground_truth":', truth]
    parts.append("}\n")
    with open(path, "w") as fh:
        fh.write("".join(parts))


def load_dataset(path):
    with _collector_paused():
        return dataset_from_dict(load_json(path, "dataset"))


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
