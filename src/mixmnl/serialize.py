"""Dataset and result files.

Datasets are JSON with fixed key order: ``n``, ``ell``, ``graph``
(``n`` and sorted ``edges``), ``observations`` (a list of
``[pair_index, sign]`` entry lists), and optionally ``ground_truth``
(``q`` and ``weights``).  Serialization is canonical: loading a dataset
and saving it again reproduces the bytes, which keeps seeded pipelines
reproducible at the file level.

Dataset files hold one small list per observation entry.  That tree has
no cycles, so the cyclic collector is paused while it is built, encoded
or decoded; otherwise it rescans the growing tree again and again.
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


def dataset_to_dict(batch, model=None):
    graph = batch.graph
    observations = np.stack([batch.pair_indices, batch.signs], axis=-1).tolist()
    out = {
        "n": graph.n_items,
        "ell": batch.ell,
        "graph": {
            "n": graph.n_items,
            "edges": [[int(i), int(j)] for i, j in graph.edges],
        },
        "observations": observations,
    }
    if model is not None:
        out["ground_truth"] = {
            "q": [float(v) for v in model.mixture],
            "weights": [[float(v) for v in row] for row in model.weights],
        }
    return out


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
    try:
        entries = np.asarray(observations)
    except ValueError as err:
        raise ValidationError(f"malformed observations: {err}") from err
    if entries.shape[:1] == (0,):  # no observations; empty ones are rejected below
        entries = np.empty((0, ell, 2), dtype=np.int64)
    if entries.ndim != 3 or entries.shape[1:] != (ell, 2):
        raise ValidationError("every observation needs exactly ell [pair, sign] entries")
    # numpy reads a float, a string or a lone bool as a non-integer dtype,
    # but folds true/false among integers into 1/0, so bools are sought too.
    if entries.dtype.kind not in "iu" or bool in map(
        type, chain.from_iterable(chain.from_iterable(observations))
    ):
        raise ValidationError("observation entries must be integers")
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
    # json.dumps runs the C encoder; json.dump would iterate in Python.
    with _collector_paused():
        text = json.dumps(dataset_to_dict(batch, model), separators=(",", ":")) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


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
