import gc
import json

import numpy as np
import pytest

from mixmnl import (
    ComparisonGraph,
    MixedMNLModel,
    ObservationBatch,
    ValidationError,
    load_dataset,
    random_uniform_model,
    save_dataset,
)
from mixmnl import serialize
from mixmnl.serialize import dataset_from_dict, dataset_to_dict, jsonable

from conftest import complete_graph


@pytest.fixture
def dataset(tmp_path):
    graph = complete_graph(5)
    model = random_uniform_model(5, 2, np.random.default_rng(0))
    batch = model.sample_batch(graph, 3, 40, np.random.default_rng(1))
    return graph, model, batch


class TestRoundTrip:
    def test_batch_survives(self, dataset, tmp_path):
        _, model, batch = dataset
        path = tmp_path / "d.json"
        save_dataset(path, batch, model)
        loaded_batch, loaded_model = load_dataset(path)
        np.testing.assert_array_equal(loaded_batch.pair_indices, batch.pair_indices)
        np.testing.assert_array_equal(loaded_batch.signs, batch.signs)
        np.testing.assert_array_equal(loaded_batch.graph.edges, batch.graph.edges)
        np.testing.assert_allclose(loaded_model.weights, model.weights, atol=1e-15)
        np.testing.assert_allclose(loaded_model.mixture, model.mixture, atol=1e-15)

    def test_bytes_stable(self, dataset, tmp_path):
        # save -> load -> save must reproduce the file byte for byte
        _, model, batch = dataset
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_dataset(a, batch, model)
        loaded_batch, loaded_model = load_dataset(a)
        save_dataset(b, loaded_batch, loaded_model)
        assert a.read_bytes() == b.read_bytes()

    def test_without_ground_truth(self, dataset, tmp_path):
        _, _, batch = dataset
        path = tmp_path / "d.json"
        save_dataset(path, batch)
        loaded_batch, loaded_model = load_dataset(path)
        assert loaded_model is None
        assert len(loaded_batch) == len(batch)
        raw = json.loads(path.read_text())
        assert "ground_truth" not in raw

    def test_layout(self, dataset):
        _, model, batch = dataset
        doc = dataset_to_dict(batch, model)
        assert doc["n"] == 5
        assert doc["ell"] == 3
        assert doc["graph"]["n"] == 5
        assert len(doc["observations"]) == 40
        assert doc["observations"][0][0] == [
            int(batch.pair_indices[0, 0]),
            int(batch.signs[0, 0]),
        ]
        assert len(doc["ground_truth"]["weights"]) == 2


class TestFormat:
    def test_golden_bytes(self, tmp_path):
        graph = ComparisonGraph(3, [[0, 1], [0, 2], [1, 2]])
        batch = ObservationBatch(
            graph, [[0, 2], [1, 2], [0, 1]], [[1, -1], [-1, -1], [1, 1]]
        )
        model = MixedMNLModel([[0.5, 0.25, 0.25], [0.25, 0.25, 0.5]], [0.75, 0.25])
        path = tmp_path / "d.json"
        save_dataset(path, batch, model)
        assert path.read_text() == (
            '{"n":3,"ell":2,"graph":{"n":3,"edges":[[0,1],[0,2],[1,2]]},'
            '"observations":[[[0,1],[2,-1]],[[1,-1],[2,-1]],[[0,1],[1,1]]],'
            '"ground_truth":{"q":[0.75,0.25],'
            '"weights":[[0.5,0.25,0.25],[0.25,0.25,0.5]]}}\n'
        )

    def test_large_batch_bytes_stable(self, tmp_path):
        graph = complete_graph(12)
        model = random_uniform_model(12, 3, np.random.default_rng(2))
        batch = model.sample_batch(graph, 5, 12000, np.random.default_rng(3))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_dataset(a, batch, model)
        loaded_batch, loaded_model = load_dataset(a)
        save_dataset(b, loaded_batch, loaded_model)
        assert a.read_bytes() == b.read_bytes()


class TestCollectorState:
    """The cyclic collector is paused inside save and load, then restored."""

    @pytest.fixture
    def collector_seen(self, monkeypatch):
        # record the collector state while the dataset tree is built and read
        seen = []

        def spy(fn):
            def wrapped(*args):
                seen.append(gc.isenabled())
                return fn(*args)

            return wrapped

        monkeypatch.setattr(serialize, "dataset_to_dict", spy(dataset_to_dict))
        monkeypatch.setattr(serialize, "dataset_from_dict", spy(dataset_from_dict))
        return seen

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restored(self, dataset, tmp_path, collector_seen, enabled):
        _, model, batch = dataset
        path = tmp_path / "d.json"
        truncated = tmp_path / "t.json"
        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            save_dataset(path, batch, model)
            assert gc.isenabled() is enabled
            load_dataset(path)
            assert gc.isenabled() is enabled
            truncated.write_text(path.read_text()[:100])
            with pytest.raises(ValidationError):
                load_dataset(truncated)
            assert gc.isenabled() is enabled
            doc = json.loads(path.read_text())
            doc["observations"][0][0][1] = 0.5
            path.write_text(json.dumps(doc))
            with pytest.raises(ValidationError):
                load_dataset(path)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert collector_seen == [False, False, False]


class TestValidation:
    def test_ragged_observations_rejected(self, dataset):
        _, model, batch = dataset
        doc = dataset_to_dict(batch, model)
        doc["observations"][3] = doc["observations"][3][:2]
        with pytest.raises(ValidationError):
            dataset_from_dict(doc)

    @pytest.mark.parametrize(
        "position, value",
        [
            ((0, 1), 1.7),  # sign
            ((0, 0), 0.9),  # pair index
            ((0, 1), True),
            ((0, 1), "1"),
        ],
        ids=["float-sign", "float-pair", "bool", "string"],
    )
    def test_non_integer_entry_rejected(self, dataset, position, value):
        _, model, batch = dataset
        doc = dataset_to_dict(batch, model)
        entry, field = position
        doc["observations"][5][entry][field] = value
        with pytest.raises(ValidationError, match="integers"):
            dataset_from_dict(doc)

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("n",), 3.7),
            (("ell",), 1.2),
            (("n",), "3"),
            (("ell",), True),
            (("graph", "n"), 5.0),
            (("graph", "edges", 0, 0), 0.5),
            (("graph", "edges", 0, 0), False),
        ],
        ids=["float-n", "float-ell", "string-n", "bool-ell", "float-graph-n", "float-edge",
             "bool-edge"],
    )
    def test_non_integer_header_rejected(self, dataset, keys, value):
        _, model, batch = dataset
        doc = dataset_to_dict(batch, model)
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        with pytest.raises(ValidationError, match="integer"):
            dataset_from_dict(doc)

    def test_empty_observation_rows_rejected(self, dataset):
        _, model, batch = dataset
        doc = dataset_to_dict(batch, model)
        doc["observations"] = [[], []]
        with pytest.raises(ValidationError, match="ell"):
            dataset_from_dict(doc)

    def test_no_observations_round_trip(self, dataset, tmp_path):
        _, model, batch = dataset
        doc = dataset_to_dict(batch, model)
        doc["observations"] = []
        empty, loaded_model = dataset_from_dict(doc)
        assert len(empty) == 0 and empty.ell == batch.ell
        path = tmp_path / "d.json"
        save_dataset(path, empty, loaded_model)
        again, _ = load_dataset(path)
        assert len(again) == 0 and again.ell == batch.ell
        assert dataset_to_dict(again, loaded_model) == doc

    def test_truncated_file_rejected(self, dataset, tmp_path):
        _, model, batch = dataset
        path = tmp_path / "d.json"
        save_dataset(path, batch, model)
        path.write_text(path.read_text()[:-20])
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_dataset(path)

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_bytes(b'{"n": \xff\xfe}')
        with pytest.raises(ValidationError):
            load_dataset(path)

    def test_missing_key_rejected(self, dataset):
        _, model, batch = dataset
        doc = dataset_to_dict(batch, model)
        del doc["graph"]
        with pytest.raises(ValidationError):
            dataset_from_dict(doc)

    def test_ell_mismatch_rejected(self, dataset):
        _, model, batch = dataset
        doc = dataset_to_dict(batch, model)
        doc["ell"] = 4
        with pytest.raises(ValidationError):
            dataset_from_dict(doc)


class TestJsonable:
    def test_converts_numpy_scalars_and_arrays(self):
        doc = jsonable(
            {
                "a": np.float64(1.5),
                "b": np.int32(3),
                "c": np.array([1.0, 2.0]),
                "d": [np.bool_(True), {"e": np.arange(2)}],
            }
        )
        assert json.dumps(doc) == '{"a": 1.5, "b": 3, "c": [1.0, 2.0], "d": [true, {"e": [0, 1]}]}'
