import gc
import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixmnl import (
    ComparisonGraph,
    ComponentEstimates,
    MixedMNLModel,
    ObservationBatch,
    ValidationError,
    erdos_renyi,
    load_dataset,
    load_results,
    random_uniform_model,
    save_dataset,
    save_results,
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


@st.composite
def batches(draw):
    """Random batches over 10-28 pairs, so pair indices run past one digit."""
    n = draw(st.integers(5, 8))
    graph = complete_graph(n)
    ell = draw(st.integers(1, min(5, graph.n_pairs)))
    count = draw(st.integers(0, 50))
    rows = draw(
        st.lists(
            st.sets(st.integers(0, graph.n_pairs - 1), min_size=ell, max_size=ell),
            min_size=count,
            max_size=count,
        )
    )
    signs = draw(
        st.lists(
            st.lists(st.sampled_from([-1, 1]), min_size=ell, max_size=ell),
            min_size=count,
            max_size=count,
        )
    )
    pair_indices = np.array([sorted(row) for row in rows], dtype=np.int64).reshape(count, ell)
    batch = ObservationBatch(graph, pair_indices, np.array(signs).reshape(count, ell))
    model = None
    if draw(st.booleans()):
        model = random_uniform_model(n, 2, np.random.default_rng(draw(st.integers(0, 99))))
    return batch, model


# 11,175 pairs: the last pair indices have five digits.
FIVE_DIGIT_GRAPH = complete_graph(150)


@st.composite
def encoder_cases(draw):
    """A batch, a model or None, and a chunk size in cells for the encoder.

    Every batch with rows uses its graph's last pair, the longest index.
    """
    graph = draw(st.sampled_from([complete_graph(5), complete_graph(10), FIVE_DIGIT_GRAPH]))
    ell = draw(st.sampled_from([e for e in (1, 2, 3, 40) if e <= graph.n_pairs]))
    count = draw(st.sampled_from([0, 1]) | st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = rng.random((count, graph.n_pairs))
    keys[:1, -1] = -1.0
    pair_indices = np.sort(np.argsort(keys, axis=1)[:, :ell], axis=1)
    sign = draw(st.sampled_from([-1, 1, None]))
    signs = rng.choice([-1, 1], (count, ell)) if sign is None else np.full((count, ell), sign)
    model = None
    if draw(st.booleans()):
        model = random_uniform_model(graph.n_items, 2, rng)
    chunk = draw(st.sampled_from([1, 7, max(ell - 1, 1), ell + 1, serialize._CHUNK_CELLS]))
    return ObservationBatch(graph, pair_indices, signs), model, chunk


class TestEncoder:
    @settings(max_examples=100, deadline=None)
    @given(encoder_cases())
    def test_bytes_match_container_reference(self, tmp_path_factory, case):
        batch, model, chunk = case
        path = tmp_path_factory.mktemp("enc") / "d.json"
        with mock.patch.object(serialize, "_CHUNK_CELLS", chunk):
            save_dataset(path, batch, model)
        reference = json.dumps(dataset_to_dict(batch, model), separators=(",", ":")) + "\n"
        assert path.read_text() == reference
        loaded_batch, loaded_model = load_dataset(path)
        again = path.with_name("again.json")
        save_dataset(again, loaded_batch, loaded_model)
        assert again.read_bytes() == path.read_bytes()

    def test_save_peak_at_the_cli_shape(self, tmp_path):
        # The writer holds one chunk of cells, not the file: encoding the
        # block as one string held about 4 times the file.
        rng = np.random.default_rng(0)
        graph = erdos_renyi(30, 8.0, rng)
        model = random_uniform_model(30, 2, rng)
        batch = model.sample_batch(graph, 10, 50_000, rng)
        path = tmp_path / "d.json"
        gc.collect()
        tracemalloc.start()
        try:
            save_dataset(path, batch, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * path.stat().st_size


def general_route(path):
    """The reference reader: ``json.load`` and the container checks."""
    return dataset_from_dict(serialize.load_json(path, "dataset"))


def outcome(load, path):
    """What a reader makes of a file: its arrays and model, or its error."""
    try:
        batch, model = load(path)
    except ValidationError as err:
        return type(err), str(err)
    arrays = [batch.graph.edges, batch.pair_indices, batch.signs]
    if model is not None:
        arrays += [model.weights, model.mixture]
    return batch.graph.n_items, [(a.dtype.str, a.shape, a.tolist()) for a in arrays]


def assert_routes_agree(path):
    both = outcome(load_dataset, path), outcome(general_route, path)
    assert both[0] == both[1]
    return both[0]


class TestCanonicalRoute:
    """``load_dataset`` gives the general route's result on every file."""

    @pytest.mark.parametrize("with_truth", [True, False])
    @pytest.mark.parametrize("empty", [False, True])
    def test_generated_datasets(self, dataset, tmp_path, with_truth, empty):
        _, model, batch = dataset
        model = model if with_truth else None
        if empty:
            batch = ObservationBatch(batch.graph, batch.pair_indices[:0], batch.signs[:0])
        path = tmp_path / "d.json"
        save_dataset(path, batch, model)
        assert serialize._canonical_dataset(path) is not None
        assert_routes_agree(path)
        assert len(load_dataset(path)[0]) == len(batch)

    @settings(max_examples=40, deadline=None)
    @given(batches())
    def test_random_batches(self, tmp_path_factory, batch_and_model):
        batch, model = batch_and_model
        path = tmp_path_factory.mktemp("route") / "d.json"
        save_dataset(path, batch, model)
        assert serialize._canonical_dataset(path) is not None
        assert_routes_agree(path)

    def test_canonical_file_skips_json_load(self, tmp_path, monkeypatch):
        # A file of the cli workload's shape: n = 30, mean degree 8, ell = 10.
        rng = np.random.default_rng(0)
        graph = erdos_renyi(30, 8.0, rng)
        model = random_uniform_model(30, 2, rng)
        batch = model.sample_batch(graph, 10, 2000, rng)
        path = tmp_path / "d.json"
        save_dataset(path, batch, model)
        expected = outcome(general_route, path)

        def refuse(*args):
            raise AssertionError("canonical file read through json.load")

        monkeypatch.setattr(serialize, "load_json", refuse)
        assert outcome(load_dataset, path) == expected

    def test_load_peak_at_the_cli_shape(self, tmp_path):
        # The int64 values alone are about 2.1 times the file.  Holding the
        # file's bytes, the block and the expected skeleton twice through
        # the parse reached 6.3 times the file.
        rng = np.random.default_rng(0)
        graph = erdos_renyi(30, 8.0, rng)
        model = random_uniform_model(30, 2, rng)
        path = tmp_path / "d.json"
        save_dataset(path, model.sample_batch(graph, 10, 20_000, rng), model)
        gc.collect()
        tracemalloc.start()
        try:
            load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * path.stat().st_size

    # Each edit applies to the text of a canonical file; "{p}" and "{s}"
    # stand for the values of the first observation entry.
    FIRST = '"observations":[[[{p},{s}]'
    MUTATIONS = {
        "space-after-colon": (FIRST, '"observations": [[[{p},{s}]'),
        "space-in-entry": (FIRST, '"observations":[[[{p}, {s}]'),
        "space-in-header": ('"ell":', '"ell": '),
        "space-in-truth": ('"q":', '"q": '),
        "trailing-space": ("}\n", "} \n"),
        "no-newline": ("}\n", "}"),
        "crlf": ("}\n", "}\r\n"),
        "leading-zero": (FIRST, '"observations":[[[0{p},{s}]'),
        "minus-zero": (FIRST, '"observations":[[[-0,{s}]'),
        "minus-space-one": (FIRST, '"observations":[[[{p},- 1]'),
        "lone-minus": (FIRST, '"observations":[[[{p},-]'),
        "empty-slot": (FIRST, '"observations":[[[{p},]'),
        "one-minus-two": (FIRST, '"observations":[[[{p},1-2]'),
        "double-minus": (FIRST, '"observations":[[[{p},--1]'),
        "float": (FIRST, '"observations":[[[{p},1.0]'),
        "exponent": (FIRST, '"observations":[[[{p},1e0]'),
        "plus": (FIRST, '"observations":[[[{p},+1]'),
        "true": (FIRST, '"observations":[[[{p},true]'),
        "string": (FIRST, '"observations":[[[{p},"1"]'),
        "int64-overflow": (FIRST, '"observations":[[[9223372036854775808,{s}]'),
        "int64-underflow": (FIRST, '"observations":[[[-9223372036854775809,{s}]'),
        "nineteen-digits": (FIRST, '"observations":[[[1000000000000000000,{s}]'),
        "ragged-row": (FIRST + ",", '"observations":[['),
        "empty-row": (FIRST, '"observations":[[],[[{p},{s}]'),
        "reordered-keys": ('{"n":5,"ell":3,', '{"ell":3,"n":5,'),
        "duplicate-observations-last": ("}}\n", '},"observations":[]}\n'),
        "duplicate-observations-first": ('"observations":', '"observations":[],"observations":'),
        "nested-observations": [  # the block moves into graph; the top-level key is []
            ('},"observations":', ',"observations":'),
            (']]],"ground_truth"', ']]]},"observations":[],"ground_truth"'),
        ],
        "extra-key": ('"ell":3,', '"ell":3,"x":0,'),
        "truncated": ("]]],", "]],"),
        # The block ends at the file's last "]]]"; these put another after it.
        "triple-bracket-after-block": ("}}\n", '},"x":[[[0]]]}\n'),
        "triple-bracket-in-truth": ('"q":[', '"q":[[[[0]]],'),
        "bom": ("", "\ufeff"),
    }

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutated_file(self, dataset, tmp_path, name):
        _, model, batch = dataset
        path = tmp_path / "d.json"
        save_dataset(path, batch, model)
        text = path.read_text()
        first = {"{p}": str(batch.pair_indices[0, 0]), "{s}": str(batch.signs[0, 0])}
        edits = self.MUTATIONS[name]
        for old, new in [edits] if isinstance(edits, tuple) else edits:
            for key, value in first.items():
                old, new = old.replace(key, value), new.replace(key, value)
            assert old in text
            text = new + text if old == "" else text.replace(old, new, 1)
        path.write_bytes(text.encode())
        assert serialize._canonical_dataset(path) is None
        assert_routes_agree(path)

    def test_large_value_in_range_of_the_canonical_route(self, dataset, tmp_path):
        # The validator refuses the canonical route's batch, so the file goes
        # to the general route, and both give the range error.
        _, model, batch = dataset
        path = tmp_path / "d.json"
        save_dataset(path, batch, model)
        first = '"observations":[[[' + str(batch.pair_indices[0, 0])
        path.write_text(path.read_text().replace(first, '"observations":[[[' + "9" * 18, 1))
        assert serialize._canonical_dataset(path) is None
        assert assert_routes_agree(path) == (ValidationError, "pair index out of range")


    @pytest.mark.parametrize("load", [load_dataset, general_route], ids=["canonical", "general"])
    def test_pair_indices_load_as_int32(self, dataset, tmp_path, load):
        _, model, batch = dataset
        path = tmp_path / "d.json"
        save_dataset(path, batch, model)
        loaded = load(path)[0].pair_indices
        assert loaded.dtype == np.int32
        assert np.array_equal(loaded, batch.pair_indices)

    def test_validator_peak_at_the_cli_shape(self):
        # The canonical route hands over 8 MB of int64 entries.  Above them
        # the validator holds the 2 MB of int32 indices and one-byte masks
        # and signs: 3.0 MB measured.  A float64 copy of the signs would
        # add 4 MB.
        rng = np.random.default_rng(0)
        graph = erdos_renyi(30, 8.0, rng)
        model = random_uniform_model(30, 2, rng)
        batch = model.sample_batch(graph, 10, 50_000, rng)
        data = serialize._header_dict(batch)
        data["observations"] = np.stack([batch.pair_indices, batch.signs], -1, dtype=np.int64)
        data["ground_truth"] = serialize._ground_truth_dict(model)
        assert data["observations"].nbytes == 8_000_000
        gc.collect()
        tracemalloc.start()
        try:
            dataset_from_dict(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    @pytest.mark.parametrize("ell", ["0", "true"])
    def test_canonical_file_with_unusable_ell(self, dataset, tmp_path, ell):
        # The block is canonical for ell 3, but the header's ell cannot
        # shape it; both routes give the validator's error.
        _, model, batch = dataset
        compact = tmp_path / "d.json"
        save_dataset(compact, batch, model)
        text = compact.read_text().replace('"ell":3,', f'"ell":{ell},', 1)
        compact.write_text(text)
        pretty = tmp_path / "pretty.json"
        pretty.write_text(json.dumps(json.loads(text), indent=2))
        assert serialize._canonical_dataset(compact) is None
        error = assert_routes_agree(compact)
        assert error[0] is ValidationError
        assert outcome(load_dataset, pretty) == error


class TestCollectorState:
    """The cyclic collector is paused inside load, and its state survives save and load."""

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
        assert collector_seen == [False, False]


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

    @pytest.mark.parametrize("graph_n", [2**31, 2**63], ids=["2**31", "2**63"])
    def test_huge_graph_n_rejected_before_the_graph_is_built(self, graph_n):
        # A graph of graph_n items would allocate O(graph_n) degrees (16 GiB
        # at 2**31); the header's n = 6 must refuse it first.
        graph = complete_graph(6)
        model = random_uniform_model(6, 2, np.random.default_rng(0))
        doc = dataset_to_dict(model.sample_batch(graph, 3, 20, np.random.default_rng(1)), model)
        doc["graph"]["n"] = graph_n
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="dataset n and graph n disagree"):
                dataset_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n", [2**31, 2**63], ids=["2**31", "2**63"])
    def test_huge_equal_item_counts_rejected_before_the_graph_is_built(self, n):
        # Both counts agree, but 15 pairs name at most 30 items: the rest
        # would be in no pair.  A graph of n items would allocate O(n)
        # degrees (16 GiB at 2**31; 2**63 overflows int64).
        graph = complete_graph(6)
        model = random_uniform_model(6, 2, np.random.default_rng(0))
        doc = dataset_to_dict(model.sample_batch(graph, 3, 20, np.random.default_rng(1)), model)
        doc["n"] = doc["graph"]["n"] = n
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="exceeds twice the 15 listed pairs"):
                dataset_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "key, index, value",
        [
            ("q", (0,), "0.5"),
            ("q", (0,), True),
            ("weights", (1, 2), "0.2"),
            ("weights", (0, 0), False),
        ],
        ids=["string-q", "bool-q", "string-weight", "bool-weight"],
    )
    def test_non_numeric_ground_truth_rejected(self, dataset, key, index, value):
        _, model, batch = dataset
        doc = dataset_to_dict(batch, model)
        parent = doc["ground_truth"][key]
        for i in index[:-1]:
            parent = parent[i]
        parent[index[-1]] = value
        with pytest.raises(ValidationError, match="numbers"):
            dataset_from_dict(doc)

    @pytest.mark.parametrize(
        "position, value",
        [
            ((0, 0, 1), True),
            ((0, 0, 1), 1.0),
            ((0, 0, 0), "3"),
            ((0, 0, 1), None),
            ((0, 0), {"pair": 0, "sign": 1}),
            ((0, 0), [0]),
            ((0, 0), [0, 1, 1]),
            ((0, 0), [[0], [1]]),
            ((0, 0, 0), 2**63),
            ((), {}),
            ((), "x"),
            ((), None),
        ],
        ids=["bool", "float", "string", "null", "dict-entry", "short-entry", "long-entry",
             "nested-entry", "int64-overflow", "dict-observations", "string-observations",
             "null-observations"],
    )
    def test_malformed_observations_rejected(self, dataset, position, value):
        _, model, batch = dataset
        doc = dataset_to_dict(batch, model)
        parent, key = doc, "observations"
        for index in position:
            parent, key = parent[key], index
        parent[key] = value
        with pytest.raises(ValidationError):
            dataset_from_dict(doc)

    def test_ragged_ground_truth_weights_rejected(self, dataset):
        _, model, batch = dataset
        doc = dataset_to_dict(batch, model)
        doc["ground_truth"]["weights"][1] = doc["ground_truth"]["weights"][1][:3]
        with pytest.raises(ValidationError, match="weights"):
            dataset_from_dict(doc)

    def test_ground_truth_over_another_item_count_rejected(self, dataset):
        _, model, batch = dataset
        doc = dataset_to_dict(batch, model)
        for row in doc["ground_truth"]["weights"]:
            row.append(0.1)
        with pytest.raises(ValidationError, match="ground truth weights are over 6 items"):
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


class TestEdgeOrder:
    """Pair indices refer to positions in ``graph.edges``; any other listing is refused."""

    LISTINGS = {
        "rotated": [[1, 2], [0, 1], [0, 2]],
        "repeated": [[0, 1], [0, 1], [1, 2], [0, 2]],
        "reversed": [[1, 0], [2, 1], [2, 0]],
    }

    @staticmethod
    def write(tmp_path, doc):
        """A compact copy and a pretty-printed one.

        The canonical route refuses the compact copy, since the validator
        refuses its batch, and leaves it to the general route.
        """
        compact = tmp_path / "d.json"
        compact.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        pretty = tmp_path / "pretty.json"
        pretty.write_text(json.dumps(doc, indent=2))
        assert serialize._canonical_dataset(compact) is None
        return compact, pretty

    @pytest.mark.parametrize("name", sorted(LISTINGS))
    def test_small_listing_rejected(self, tmp_path, name):
        doc = {
            "n": 3,
            "ell": 2,
            "graph": {"n": 3, "edges": self.LISTINGS[name]},
            "observations": [[[0, 1], [1, -1]], [[0, -1], [2, 1]], [[1, 1], [2, -1]]],
        }
        for path in self.write(tmp_path, doc):
            with pytest.raises(ValidationError, match="pair indices refer to positions"):
                load_dataset(path)


class TestResults:
    @pytest.fixture
    def estimates(self):
        rng = np.random.default_rng(4)
        return ComponentEstimates(
            mixture=rng.dirichlet(np.ones(3)),
            weights=rng.dirichlet(np.ones(6), size=3),
            outcome_matrix=rng.uniform(-1.0, 1.0, size=(15, 3)),
            diagnostics={"completion": {"iterations": np.int64(7)}, "condition": np.float64(2.5)},
        )

    def test_save_then_load_returns_the_same_arrays(self, estimates, tmp_path):
        path = tmp_path / "r.json"
        save_results(path, estimates)
        loaded = load_results(path)
        for name in ("mixture", "weights", "outcome_matrix"):
            array = getattr(loaded, name)
            assert array.dtype == np.float64
            np.testing.assert_array_equal(array, getattr(estimates, name))
        assert loaded.diagnostics == {"completion": {"iterations": 7}, "condition": 2.5}

    @pytest.mark.parametrize(
        "key, value, words",
        [
            ("q_hat", ["0.5", "0.5"], "q_hat must be numbers"),
            ("q_hat", [True, 0.5], "q_hat must be numbers"),
            ("w_hat", [[0.5, 0.5], [0.5]], "w_hat must be a rectangular array"),
            ("p_hat", None, "p_hat must be numbers"),
            ("w_hat", "missing", "malformed results file"),
        ],
        ids=["string", "bool", "ragged", "null", "missing"],
    )
    def test_malformed_estimates_rejected(self, estimates, tmp_path, key, value, words):
        path = tmp_path / "r.json"
        save_results(path, estimates)
        doc = json.loads(path.read_text())
        if value == "missing":
            del doc[key]
        else:
            doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=words):
            load_results(path)

    @pytest.mark.parametrize(
        "value", ["x", 5, None, [1, 2], True], ids=["string", "int", "null", "list", "bool"]
    )
    def test_diagnostics_not_an_object_rejected(self, estimates, tmp_path, value):
        path = tmp_path / "r.json"
        save_results(path, estimates)
        doc = json.loads(path.read_text())
        doc["diagnostics"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="diagnostics"):
            load_results(path)

    def test_missing_diagnostics_read_as_empty(self, estimates, tmp_path):
        path = tmp_path / "r.json"
        save_results(path, estimates)
        doc = json.loads(path.read_text())
        del doc["diagnostics"]
        path.write_text(json.dumps(doc))
        assert load_results(path).diagnostics == {}

    def test_results_keys_are_named_in_serialize_only(self):
        # The results format has one home: no other module spells its keys.
        src = Path(serialize.__file__).parent
        for module in sorted(src.glob("*.py")):
            if module.name != "serialize.py":
                assert "q_hat" not in module.read_text(), module.name


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
