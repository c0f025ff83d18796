import json

import numpy as np
import pytest
from click.testing import CliRunner

from mixmnl.cli import main


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

    def test_dump_intermediates(self, runner, tmp_path):
        data = generate_dataset(runner, tmp_path / "d.json")
        out = tmp_path / "r.json"
        result = runner.invoke(
            main,
            [
                "learn",
                "--dataset", str(data),
                "--out", str(out),
                "--r", "2",
                "--dump-intermediates",
            ],
        )
        assert result.exit_code == 0, result.output
        extra = json.loads((tmp_path / "r.json.intermediates.json").read_text())
        assert "split" in extra


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


class TestCheck:
    def test_reports_conditions(self, runner, tmp_path):
        data = generate_dataset(runner, tmp_path / "d.json")
        result = runner.invoke(main, ["check", "--dataset", str(data)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["n_items"] == 8
        assert "sample_size_estimate" in report


class TestAmbiguity:
    def test_prints_identical_marginals(self, runner):
        result = runner.invoke(main, ["ambiguity"])
        assert result.exit_code == 0, result.output
        assert "marginal matrices identical: True" in result.output
