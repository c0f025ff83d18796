import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import mixmnl
from mixmnl import ComparisonGraph, MixedMNLModel, erdos_renyi, pipeline, serialize
from mixmnl.cli import main
from mixmnl.serialize import save_dataset

from conftest import complete_graph


@pytest.fixture
def runner():
    return CliRunner()


def generate_dataset(runner, path, samples=400, n=8, ell=3, seed=0):
    result = runner.invoke(
        main,
        [
            "generate",
            "--n", str(n),
            "--r", "2",
            "--ell", str(ell),
            "--samples", str(samples),
            "--seed", str(seed),
            "--out", str(path),
        ],
    )
    assert result.exit_code == 0, result.output
    return path


def assert_out_matches_stdout(runner, args, out):
    """``args --out out`` writes the JSON that ``args`` alone prints."""
    printed = runner.invoke(main, args)
    assert printed.exit_code == 0, printed.output
    written = runner.invoke(main, args + ["--out", str(out)])
    assert written.exit_code == 0, written.output
    assert written.output == f"wrote {out}\n"
    assert json.loads(out.read_text()) == json.loads(printed.output)


class TestGenerate:
    def test_writes_dataset(self, runner, tmp_path):
        path = generate_dataset(runner, tmp_path / "d.json")
        doc = json.loads(path.read_text())
        assert doc["n"] == 8
        assert len(doc["observations"]) == 400
        assert "ground_truth" in doc

    def test_deterministic(self, runner, tmp_path):
        a = generate_dataset(runner, tmp_path / "a.json", seed=3)
        b = generate_dataset(runner, tmp_path / "b.json", seed=3)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, runner, tmp_path):
        a = generate_dataset(runner, tmp_path / "a.json", seed=3)
        b = generate_dataset(runner, tmp_path / "b.json", seed=4)
        assert a.read_bytes() != b.read_bytes()

    def test_impossible_graph_exits_with_numerical_code(self, runner, tmp_path):
        # two items can only form a bipartite graph, so generation
        # exhausts its retries and dies as a numerical failure
        result = runner.invoke(
            main,
            [
                "generate",
                "--n", "2",
                "--ell", "1",
                "--samples", "5",
                "--out", str(tmp_path / "x.json"),
            ],
        )
        assert result.exit_code == 3
        # No fit stage ran, so the message names none.
        assert "numerical failure: " in result.output
        assert "numerical failure in" not in result.output


class TestLearn:
    def test_writes_results(self, runner, tmp_path):
        data = generate_dataset(runner, tmp_path / "d.json")
        out = tmp_path / "r.json"
        result = runner.invoke(
            main,
            ["learn", "--dataset", str(data), "--out", str(out), "--r", "2"],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert set(doc) == {"q_hat", "w_hat", "p_hat", "diagnostics"}
        assert len(doc["w_hat"]) == 2
        assert len(doc["w_hat"][0]) == 8

    def test_byte_identical_for_fixed_seed(self, runner, tmp_path):
        data = generate_dataset(runner, tmp_path / "d.json")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            result = runner.invoke(
                main,
                [
                    "learn",
                    "--dataset", str(data),
                    "--out", str(out),
                    "--r", "2",
                    "--seed", "5",
                ],
            )
            assert result.exit_code == 0, result.output
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_at_one_and_two_blas_threads(self, runner, tmp_path):
        # The perfbench cli dataset.  Taken by a BLAS dot, whose sum OpenBLAS
        # splits by thread count, ||A||^2 moved the completion objectives'
        # last digits between the two runs.
        data = tmp_path / "d.json"
        args = "--n 30 --dbar 8 --r 2 --ell 10 --samples 50000 --seed 0 --out".split()
        assert runner.invoke(main, ["generate", *args, str(data)]).exit_code == 0
        src = str(Path(mixmnl.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"r{threads}.json"
            subprocess.run(
                [
                    sys.executable, "-m", "mixmnl.cli", "learn", "--dataset", str(data),
                    "--out", str(out), "--r", "2", "--seed", "3",
                ],
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
                capture_output=True,
                check=True,
            )
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_exact_moments_need_ground_truth(self, runner, tmp_path):
        data = generate_dataset(runner, tmp_path / "d.json")
        doc = json.loads(data.read_text())
        del doc["ground_truth"]
        stripped = tmp_path / "s.json"
        stripped.write_text(json.dumps(doc))
        result = runner.invoke(
            main,
            [
                "learn",
                "--dataset", str(stripped),
                "--out", str(tmp_path / "r.json"),
                "--r", "2",
                "--exact-moments",
            ],
        )
        assert result.exit_code == 2
        assert "ground truth" in result.output

    def test_exact_moments_above_300_pairs(self, runner, tmp_path):
        data = tmp_path / "d.json"
        result = runner.invoke(
            main,
            [
                "generate",
                "--n", "30",
                "--dbar", "24",
                "--ell", "3",
                "--samples", "10",
                "--out", str(data),
            ],
        )
        assert result.exit_code == 0, result.output
        assert len(json.loads(data.read_text())["graph"]["edges"]) > 300
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            result = runner.invoke(
                main,
                [
                    "learn",
                    "--dataset", str(data),
                    "--out", str(out),
                    "--r", "2",
                    "--exact-moments",
                ],
            )
            assert result.exit_code == 0, result.output
        doc = json.loads(outs[0].read_text())
        assert len(doc["w_hat"]) == 2
        assert len(doc["p_hat"]) > 300
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_ell_two_dataset_exits_2(self, runner, tmp_path):
        data = generate_dataset(runner, tmp_path / "d.json", ell=2)
        result = runner.invoke(
            main,
            ["learn", "--dataset", str(data), "--out", str(tmp_path / "r.json"), "--r", "2"],
        )
        assert result.exit_code == 2
        assert "error: third-moment estimation needs ell >= 3" in result.output

    def test_numerical_failure_exit_code(self, runner, tmp_path):
        # asking for far more components than the data supports dies in a
        # named stage with the numerical-failure exit code
        data = generate_dataset(runner, tmp_path / "d.json", samples=8, n=5)
        result = runner.invoke(
            main,
            [
                "learn",
                "--dataset", str(data),
                "--out", str(tmp_path / "r.json"),
                "--r", "5",
            ],
        )
        assert result.exit_code == 3
        assert "numerical failure" in result.output

    @pytest.mark.parametrize(
        "n_items, edges, ell",
        [
            (12, [[i, j] for i in range(6) for j in range(6, 12)], 4),  # K_{6,6}
            (6, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]], 3),  # two triangles
        ],
        ids=["bipartite", "disconnected"],
    )
    @pytest.mark.parametrize("flags", [[], ["--exact-moments"]], ids=["sampled", "exact"])
    def test_graph_rank_centrality_rejects_exits_2_before_moments(
        self, runner, tmp_path, monkeypatch, n_items, edges, ell, flags
    ):
        rng = np.random.default_rng(7)
        model = MixedMNLModel(rng.uniform(1, 8, (2, n_items)), [0.5, 0.5])
        data = tmp_path / "d.json"
        batch = model.sample_batch(ComparisonGraph(n_items, edges), ell, 2000, rng)
        save_dataset(data, batch, model)
        stages = []
        for name in ("estimate_components", "components_from_factors"):
            monkeypatch.setattr(pipeline, name, lambda *a, _name=name, **k: stages.append(_name))
        result = runner.invoke(
            main,
            ["learn", "--dataset", str(data), "--out", str(tmp_path / "r.json"), "--r", "2"]
            + flags,
        )
        assert result.exit_code == 2
        assert "Rank Centrality needs a connected non-bipartite comparison graph" in result.output
        assert stages == []

    def test_results_hold_diagnostics(self, runner, tmp_path):
        data = generate_dataset(runner, tmp_path / "d.json")
        out = tmp_path / "r.json"
        result = runner.invoke(
            main,
            [
                "learn",
                "--dataset", str(data),
                "--out", str(out),
                "--r", "2",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "split" in json.loads(out.read_text())["diagnostics"]


class TestEvaluate:
    def test_report_to_stdout(self, runner, tmp_path):
        data = generate_dataset(runner, tmp_path / "d.json", samples=2000)
        out = tmp_path / "r.json"
        runner.invoke(
            main, ["learn", "--dataset", str(data), "--out", str(out), "--r", "2"]
        )
        result = runner.invoke(
            main, ["evaluate", "--dataset", str(data), "--results", str(out)]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert "max_mixture_error" in report
        assert "conditions" in report

    def test_report_to_file(self, runner, tmp_path):
        data = generate_dataset(runner, tmp_path / "d.json", samples=2000)
        results = tmp_path / "r.json"
        runner.invoke(
            main, ["learn", "--dataset", str(data), "--out", str(results), "--r", "2"]
        )
        args = ["evaluate", "--dataset", str(data), "--results", str(results)]
        assert_out_matches_stdout(runner, args, tmp_path / "report.json")

    def test_needs_ground_truth(self, runner, tmp_path):
        data = generate_dataset(runner, tmp_path / "d.json")
        out = tmp_path / "r.json"
        runner.invoke(
            main, ["learn", "--dataset", str(data), "--out", str(out), "--r", "2"]
        )
        doc = json.loads(data.read_text())
        del doc["ground_truth"]
        stripped = tmp_path / "s.json"
        stripped.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["evaluate", "--dataset", str(stripped), "--results", str(out)]
        )
        assert result.exit_code == 2

    def test_malformed_results(self, runner, tmp_path):
        data = generate_dataset(runner, tmp_path / "d.json")
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        result = runner.invoke(
            main, ["evaluate", "--dataset", str(data), "--results", str(bad)]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "infinity"])
    def test_non_finite_estimate_exits_2(self, runner, tmp_path, value):
        # Python's json writes and reads NaN and Infinity tokens.
        data = generate_dataset(runner, tmp_path / "d.json", samples=2000)
        out = tmp_path / "r.json"
        runner.invoke(
            main, ["learn", "--dataset", str(data), "--out", str(out), "--r", "2"]
        )
        doc = json.loads(out.read_text())
        doc["q_hat"][0] = value
        out.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["evaluate", "--dataset", str(data), "--results", str(out)]
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "value", ["x", 5, None, [1, 2], True], ids=["string", "int", "null", "list", "bool"]
    )
    def test_diagnostics_not_an_object_exits_2(self, runner, tmp_path, value):
        data = generate_dataset(runner, tmp_path / "d.json", samples=2000)
        out = tmp_path / "r.json"
        runner.invoke(
            main, ["learn", "--dataset", str(data), "--out", str(out), "--r", "2"]
        )
        doc = json.loads(out.read_text())
        doc["diagnostics"] = value
        out.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["evaluate", "--dataset", str(data), "--results", str(out)]
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "diagnostics" in result.stderr
        assert "Traceback" not in result.output

    def test_overflowing_weights_exit_2(self, runner, tmp_path):
        # Finite weights whose norms overflow make every matching cost inf.
        data = generate_dataset(runner, tmp_path / "d.json", samples=2000)
        out = tmp_path / "r.json"
        runner.invoke(
            main, ["learn", "--dataset", str(data), "--out", str(out), "--r", "2"]
        )
        doc = json.loads(out.read_text())
        doc["w_hat"][0] = [1e308] * len(doc["w_hat"][0])
        out.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["evaluate", "--dataset", str(data), "--results", str(out)]
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error: matching cost")
        assert "Traceback" not in result.output


class TestMalformedJson:
    """A file that is not valid JSON is an invalid input: exit 2, no traceback."""

    def assert_rejected(self, result):
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.output

    def test_truncated_dataset(self, runner, tmp_path):
        data = generate_dataset(runner, tmp_path / "d.json")
        data.write_text(data.read_text()[:-40])
        result = runner.invoke(
            main,
            ["learn", "--dataset", str(data), "--out", str(tmp_path / "r.json"), "--r", "2"],
        )
        self.assert_rejected(result)

    def test_truncated_results(self, runner, tmp_path):
        data = generate_dataset(runner, tmp_path / "d.json")
        out = tmp_path / "r.json"
        result = runner.invoke(
            main, ["learn", "--dataset", str(data), "--out", str(out), "--r", "2"]
        )
        assert result.exit_code == 0, result.output
        out.write_text(out.read_text()[:-40])
        result = runner.invoke(
            main, ["evaluate", "--dataset", str(data), "--results", str(out)]
        )
        self.assert_rejected(result)


class TestNonIntegerDataset:
    def test_float_edge_endpoint_exits_2(self, runner, tmp_path):
        data = generate_dataset(runner, tmp_path / "d.json")
        doc = json.loads(data.read_text())
        doc["graph"]["edges"][0][0] = 0.5
        data.write_text(json.dumps(doc))
        result = runner.invoke(
            main,
            ["learn", "--dataset", str(data), "--out", str(tmp_path / "r.json"), "--r", "2"],
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "integers" in result.stderr

    def test_ragged_edges_exit_2(self, runner, tmp_path):
        data = generate_dataset(runner, tmp_path / "d.json")
        doc = json.loads(data.read_text())
        doc["graph"]["edges"][1] = doc["graph"]["edges"][1][:1]
        data.write_text(json.dumps(doc))
        result = runner.invoke(
            main,
            ["learn", "--dataset", str(data), "--out", str(tmp_path / "r.json"), "--r", "2"],
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("graph_n", [2**31, 2**63], ids=["2**31", "2**63"])
    def test_huge_graph_n_exits_2(self, runner, tmp_path, graph_n):
        data = generate_dataset(runner, tmp_path / "d.json", samples=40, n=6)
        doc = json.loads(data.read_text())
        doc["graph"]["n"] = graph_n
        data.write_text(json.dumps(doc))
        result = runner.invoke(
            main,
            ["learn", "--dataset", str(data), "--out", str(tmp_path / "r.json"), "--r", "2"],
        )
        assert result.exit_code == 2
        assert result.stderr == "error: dataset n and graph n disagree\n"

    @pytest.mark.parametrize("n", [2**31, 2**63], ids=["2**31", "2**63"])
    def test_huge_equal_item_counts_exit_2(self, runner, tmp_path, n):
        data = generate_dataset(runner, tmp_path / "d.json", samples=40, n=6)
        doc = json.loads(data.read_text())
        doc["n"] = doc["graph"]["n"] = n
        data.write_text(json.dumps(doc))
        result = runner.invoke(
            main,
            ["learn", "--dataset", str(data), "--out", str(tmp_path / "r.json"), "--r", "2"],
        )
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: dataset n = {n} exceeds twice the ")

    def test_rotated_edges_exit_2(self, runner, tmp_path):
        # Observations index pairs by position in the listed edges, so a
        # reordered listing would silently point them at other pairs.
        data = generate_dataset(runner, tmp_path / "d.json")
        doc = json.loads(data.read_text())
        edges = doc["graph"]["edges"]
        doc["graph"]["edges"] = edges[1:] + edges[:1]
        data.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        result = runner.invoke(
            main,
            ["learn", "--dataset", str(data), "--out", str(tmp_path / "r.json"), "--r", "2"],
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error: graph edges must be listed sorted")

    @pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "general"])
    def test_sign_of_two_exits_2(self, runner, tmp_path, canonical):
        # Both load routes build the batch, which holds its signs to -1 or +1;
        # the canonical route leaves the compact file it refuses to the
        # general route, which gives the error.
        data = generate_dataset(runner, tmp_path / "d.json")
        doc = json.loads(data.read_text())
        doc["observations"][0][0][1] = 2
        if canonical:
            data.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        else:
            data.write_text(json.dumps(doc))
        assert serialize._canonical_dataset(data) is None
        result = runner.invoke(
            main,
            ["learn", "--dataset", str(data), "--out", str(tmp_path / "r.json"), "--r", "2"],
        )
        assert result.exit_code == 2
        assert result.stderr == "error: signs must be -1 or +1\n"

    @pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "general"])
    def test_ground_truth_over_another_item_count_exits_2(self, runner, tmp_path, canonical):
        # 12 items and 13 weights per component: the run would fit, and
        # evaluate and check would then fail on mismatched shapes.
        data = generate_dataset(runner, tmp_path / "d.json", n=12)
        doc = json.loads(data.read_text())
        for row in doc["ground_truth"]["weights"]:
            row.append(0.05)
        if canonical:
            data.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        else:
            data.write_text(json.dumps(doc))
        result = runner.invoke(
            main,
            ["learn", "--dataset", str(data), "--out", str(tmp_path / "r.json"), "--r", "2"],
        )
        assert result.exit_code == 2
        assert result.stderr == (
            "error: ground truth weights are over 13 items, but dataset n = 12\n"
        )

    @pytest.mark.parametrize("ell", [-1, 0, 10**6])
    def test_ell_out_of_range_with_no_observations_exits_2(self, runner, tmp_path, ell):
        data = generate_dataset(runner, tmp_path / "d.json")
        doc = json.loads(data.read_text())
        doc["ell"] = ell
        doc["observations"] = []
        data.write_text(json.dumps(doc))
        result = runner.invoke(
            main,
            ["learn", "--dataset", str(data), "--out", str(tmp_path / "r.json"), "--r", "2"],
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        n_pairs = len(doc["graph"]["edges"])
        assert f"ell must be in [1, {n_pairs}], got {ell}" in result.stderr


class TestFilesystemErrors:
    """A path the command cannot read or write is an invalid input: exit 2, no traceback."""

    def test_dataset_is_a_directory(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["learn", "--dataset", str(tmp_path), "--out", str(tmp_path / "r.json"), "--r", "2"],
        )
        assert result.exit_code == 2
        assert "directory" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("verb", ["generate", "learn"])
    def test_out_in_missing_directory(self, runner, tmp_path, verb):
        data = generate_dataset(runner, tmp_path / "d.json")
        out = str(tmp_path / "missing" / "x.json")
        args = {
            "generate": ["generate", "--n", "8", "--ell", "3", "--samples", "40", "--out", out],
            "learn": ["learn", "--dataset", str(data), "--out", out, "--r", "2"],
        }[verb]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.output


class TestSweep:
    def test_writes_csv(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            [
                "sweep",
                "--n", "8",
                "--ell", "3",
                "--samples", "100,200",
                "--seeds", "0,1",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        # header + 2 sizes x (2 seeds + median)
        assert len(lines) == 1 + 6


class TestSweepListOptions:
    """A malformed --samples or --seeds list is an invalid input: exit 2, no traceback."""

    @pytest.mark.parametrize(
        "option, value",
        [("--samples", "100,x"), ("--samples", "-5"), ("--seeds", "")],
        ids=["non-integer-entry", "negative-entry", "empty-list"],
    )
    def test_bad_list_exits_2(self, runner, tmp_path, option, value):
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--n", "8", "--ell", "3", "--samples", "100", "--seeds", "0"]
        args[args.index(option) + 1] = value
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert option in result.stderr
        assert "Traceback" not in result.output
        assert not out.exists()


class TestSweepConfiguration:
    """A sweep setting that fails every run is an invalid input: exit 2, no CSV."""

    @pytest.mark.parametrize(
        "option, value",
        [("--n", "1"), ("--dbar", "0"), ("--ell", "2"), ("--seeds", "0,-1")],
        ids=["one-item", "zero-degree", "ell-2", "negative-seed"],
    )
    def test_exits_2_without_csv(self, runner, tmp_path, option, value):
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--n", "8", "--ell", "3", "--samples", "100", "--seeds", "0"]
        args += ["--dbar", "4", "--out", str(out)]
        args[args.index(option) + 1] = value
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.output
        assert not out.exists()


class TestNegativeSeed:
    @pytest.mark.parametrize("verb", ["generate", "learn"])
    def test_exits_2(self, runner, tmp_path, verb):
        data = generate_dataset(runner, tmp_path / "d.json")
        out = tmp_path / "out.json"
        args = {
            "generate": ["generate", "--n", "8", "--ell", "3", "--samples", "40"],
            "learn": ["learn", "--dataset", str(data), "--r", "2"],
        }[verb]
        result = runner.invoke(main, args + ["--seed", "-1", "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: invalid seed -1")
        assert "Traceback" not in result.output
        assert not out.exists()


class TestComponentCount:
    """Fewer than one component is an invalid input: exit 2, no traceback."""

    @pytest.mark.parametrize("r", ["0", "-1"])
    @pytest.mark.parametrize("verb", ["generate", "sweep"])
    def test_exits_2(self, runner, tmp_path, verb, r):
        args = {
            "generate": ["generate", "--samples", "40"],
            "sweep": ["sweep", "--samples", "100", "--seeds", "0"],
        }[verb]
        out = tmp_path / "out"
        result = runner.invoke(
            main, args + ["--n", "8", "--ell", "3", "--r", r, "--out", str(out)]
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.output
        assert not out.exists()


class TestCheck:
    def test_reports_conditions(self, runner, tmp_path):
        data = generate_dataset(runner, tmp_path / "d.json")
        result = runner.invoke(main, ["check", "--dataset", str(data)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["n_items"] == 8
        assert "sample_size_estimate" in report

    def test_report_to_file(self, runner, tmp_path):
        data = generate_dataset(runner, tmp_path / "d.json")
        assert_out_matches_stdout(
            runner, ["check", "--dataset", str(data)], tmp_path / "report.json"
        )

    def test_flat_weights_exit_0(self, runner, tmp_path):
        # Equal weights make every outcome mean, and so the exact second
        # moment, vanish.
        graph = erdos_renyi(8, 4.0, np.random.default_rng(0))
        model = MixedMNLModel(np.ones((2, 8)), [0.5, 0.5])
        data = tmp_path / "flat.json"
        save_dataset(data, model.sample_batch(graph, 3, 20, np.random.default_rng(1)), model)
        result = runner.invoke(main, ["check", "--dataset", str(data)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["sample_size_estimate"] == float("inf")
        assert report["condition_ratio"] == float("inf")

        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({
            "q_hat": model.mixture.tolist(),
            "w_hat": model.weights.tolist(),
            "p_hat": model.expected_outcomes(graph).tolist(),
        }))
        result = runner.invoke(
            main, ["evaluate", "--dataset", str(data), "--results", str(truth)]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["max_weight_error"] == 0.0


class TestAmbiguity:
    def test_prints_identical_marginals(self, runner):
        result = runner.invoke(main, ["ambiguity"])
        assert result.exit_code == 0, result.output
        assert "marginal matrices identical: True" in result.output


class TestRankAbovePairs:
    # Four items, all six pairs: a rank of 7 cannot be completed.  The
    # sampled and the exact-moment fit refuse it in the same words.
    @staticmethod
    def learn(runner, tmp_path, *flags):
        graph = complete_graph(4)
        model = MixedMNLModel(np.random.default_rng(0).uniform(1, 8, (2, 4)), [0.5, 0.5])
        data = tmp_path / "d.json"
        save_dataset(data, model.sample_batch(graph, 3, 200, np.random.default_rng(1)), model)
        out = tmp_path / "r.json"
        result = runner.invoke(
            main, ["learn", "--dataset", str(data), "--out", str(out), "--r", "7", *flags]
        )
        assert result.exit_code == 2
        assert result.stderr == "error: n_components must be in [1, 6], got 7\n"
        assert not out.exists()

    def test_learn_exits_2(self, runner, tmp_path):
        self.learn(runner, tmp_path)

    def test_exact_moments_learn_exits_2(self, runner, tmp_path):
        self.learn(runner, tmp_path, "--exact-moments")
