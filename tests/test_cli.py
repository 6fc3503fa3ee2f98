import json

import numpy as np
import pytest

from conftest import csv_writer_table
from mfrde.cli import main
from mfrde.datasets import read_dataset
from mfrde.estimator import evaluate_batch, load_model
from mfrde.evaluation import make_grid


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParams:
    def test_derived_values(self, capsys):
        code, out, _ = run(
            ["params", "--alpha", "1", "--beta", "1", "--d", "2",
             "--n", "500", "--outliers", "50"],
            capsys,
        )
        assert code == 0
        assert "gamma1=0.209529" in out
        assert "gamma2=1.193147" in out
        assert "m=16" in out and "p=2" in out and "T=3" in out

    def test_bad_alpha(self, capsys):
        code, _, err = run(
            ["params", "--alpha", "2", "--beta", "1", "--d", "2",
             "--n", "500", "--outliers", "50"],
            capsys,
        )
        assert code == 2
        assert "alpha" in err


class TestPipeline:
    def test_generate_fit_score(self, tmp_path, capsys):
        d_csv = tmp_path / "d.csv"
        m_json = tmp_path / "m.json"
        s_csv = tmp_path / "s.csv"
        code, _, _ = run(
            ["generate", "--scheme", "uniform", "--n", "500",
             "--outlier-ratio", "0.2", "--seed", "7", "--out", str(d_csv)],
            capsys,
        )
        assert code == 0
        code, _, _ = run(
            ["fit", "--input", str(d_csv), "--m-ratio", "0.1", "--trees", "20",
             "--depth", "6", "--seed", "7", "--out", str(m_json)],
            capsys,
        )
        assert code == 0
        code, _, _ = run(
            ["score", "--model", str(m_json), "--input", str(d_csv),
             "--out", str(s_csv)],
            capsys,
        )
        assert code == 0
        rows = s_csv.read_text().splitlines()
        assert rows[0] == "density"
        assert len(rows) == 501
        assert all(float(v) >= 0 for v in rows[1:])

    def test_infeasible_block_size(self, tmp_path, capsys):
        d_csv = tmp_path / "d.csv"
        run(["generate", "--scheme", "uniform", "--n", "50", "--seed", "1",
             "--out", str(d_csv)], capsys)
        code, _, err = run(
            ["fit", "--input", str(d_csv), "--m-ratio", "2.0",
             "--out", str(tmp_path / "m.json")],
            capsys,
        )
        assert code == 1
        assert "block size exceeds sample size" in err

    def test_generate_idempotent(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["generate", "--scheme", "beta", "--n", "100",
                "--outlier-ratio", "0.3", "--seed", "11"]
        assert run(args + ["--out", str(a)], capsys)[0] == 0
        assert run(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fit_idempotent(self, tmp_path, capsys):
        d_csv = tmp_path / "d.csv"
        run(["generate", "--scheme", "uniform", "--n", "120", "--seed", "3",
             "--out", str(d_csv)], capsys)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["fit", "--input", str(d_csv), "--m", "30", "--trees", "5",
                "--depth", "4", "--seed", "3", "--box", "0:5,0:5"]
        assert run(args + ["--out", str(a)], capsys)[0] == 0
        assert run(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_provenance_sidecar(self, tmp_path, capsys):
        d_csv, prov = tmp_path / "d.csv", tmp_path / "d.meta.json"
        code, _, _ = run(
            ["generate", "--scheme", "discrete", "--n", "80",
             "--outlier-ratio", "0.25", "--seed", "5",
             "--out", str(d_csv), "--provenance", str(prov)],
            capsys,
        )
        assert code == 0
        meta = json.loads(prov.read_text())
        assert meta["scheme"] == "discrete"
        assert meta["seed"] == 5


class TestEvalGrid:
    def test_grid_output(self, tmp_path, capsys):
        d_csv, m_json, g_csv = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "g.csv"
        run(["generate", "--scheme", "uniform", "--n", "200", "--seed", "2",
             "--out", str(d_csv)], capsys)
        run(["fit", "--input", str(d_csv), "--m", "40", "--trees", "5",
             "--depth", "3", "--seed", "2", "--box", "0:5,0:5",
             "--out", str(m_json)], capsys)
        code, _, _ = run(
            ["eval-grid", "--model", str(m_json), "--grid", "20", "--out", str(g_csv)],
            capsys,
        )
        assert code == 0
        rows = g_csv.read_text().splitlines()
        assert rows[0] == "x1,x2,density"
        assert len(rows) == 401


class TestOutputBytes:
    """``score`` and ``eval-grid`` write what the csv.writer loops wrote."""

    @pytest.fixture
    def model_files(self, tmp_path, capsys):
        d_csv, m_json = tmp_path / "d.csv", tmp_path / "m.json"
        run(["generate", "--scheme", "beta", "--n", "600", "--outlier-ratio", "0.2",
             "--seed", "4", "--out", str(d_csv)], capsys)
        run(["fit", "--input", str(d_csv), "--m", "60", "--trees", "6",
             "--depth", "5", "--seed", "4", "--out", str(m_json)], capsys)
        return d_csv, m_json

    def test_score(self, tmp_path, capsys, model_files):
        d_csv, m_json = model_files
        out = tmp_path / "s.csv"
        code, _, _ = run(["score", "--model", str(m_json), "--input", str(d_csv),
                          "--out", str(out)], capsys)
        assert code == 0
        dens = evaluate_batch(load_model(m_json), read_dataset(d_csv).points)
        csv_writer_table(tmp_path / "old.csv", ["density"], dens[:, None])
        assert out.read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_eval_grid(self, tmp_path, capsys, model_files):
        _, m_json = model_files
        out = tmp_path / "g.csv"
        code, _, _ = run(["eval-grid", "--model", str(m_json), "--grid", "17",
                          "--out", str(out)], capsys)
        assert code == 0
        model = load_model(m_json)
        grid = make_grid(model.box, 17)
        dens = evaluate_batch(model, grid.points)
        csv_writer_table(tmp_path / "old.csv", ["x1", "x2", "density"],
                         np.column_stack([grid.points, dens]))
        assert out.read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestBenchmarkCommand:
    def test_small_benchmark(self, tmp_path, capsys):
        cfg = {
            "schemes": ["uniform"],
            "ratios": [0.2],
            "m_ratios": [0.1],
            "trees": [5],
            "depths": [4],
            "repeats": 2,
            "seed": 13,
            "grid_G": 40,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "report.json"
        csv_path = tmp_path / "summary.csv"
        code, _, _ = run(
            ["benchmark", "--config", str(cfg_path), "--out", str(out_path),
             "--summary-csv", str(csv_path), "--threads", "2"],
            capsys,
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert len(report["runs"]) == 2
        assert csv_path.exists()

    def test_threads_default_to_one(self, monkeypatch, tmp_path):
        seen = []

        def fake_benchmark(config, threads):
            seen.append(threads)
            raise OSError("stop")

        monkeypatch.setattr("mfrde.cli.benchmark", fake_benchmark)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{}")
        assert main(["benchmark", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 2
        assert seen == [1]


class TestErrors:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(["generate", "--bogus", "1"], capsys)
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == 1

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(
            ["score", "--model", str(tmp_path / "nope.json"),
             "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "s.csv")],
            capsys,
        )
        assert code == 2
        assert err.strip()

    def test_non_finite_data(self, tmp_path, capsys):
        d_csv = tmp_path / "d.csv"
        run(["generate", "--scheme", "uniform", "--n", "30", "--seed", "1",
             "--out", str(d_csv)], capsys)
        rows = d_csv.read_text().splitlines()
        rows[5] = "nan," + rows[5].split(",", 1)[1]
        d_csv.write_text("\n".join(rows) + "\n")
        code, _, err = run(
            ["fit", "--input", str(d_csv), "--m", "10", "--out", str(tmp_path / "m.json")],
            capsys,
        )
        assert code == 2
        assert "1 data row" in err

    def test_nan_query(self, tmp_path, capsys):
        d_csv, m_json, out = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "s.csv"
        run(["generate", "--scheme", "uniform", "--n", "30", "--seed", "1",
             "--out", str(d_csv)], capsys)
        run(["fit", "--input", str(d_csv), "--m", "10", "--out", str(m_json)], capsys)
        rows = d_csv.read_text().splitlines()
        rows[5] = rows[5].split(",", 1)[0] + ",nan," + rows[5].split(",", 2)[2]
        d_csv.write_text("\n".join(rows) + "\n")
        code, _, err = run(
            ["score", "--model", str(m_json), "--input", str(d_csv), "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert "1 query row" in err
        assert not out.exists()

    def test_unresolved_quadrature_in_model(self, tmp_path, capsys):
        d_csv, m_json, out = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "s.csv"
        run(["generate", "--scheme", "uniform", "--n", "30", "--seed", "1",
             "--out", str(d_csv)], capsys)
        run(["fit", "--input", str(d_csv), "--m", "10", "--out", str(m_json)], capsys)
        doc = json.loads(m_json.read_text())
        doc["quadrature"]["method"] = "auto"
        m_json.write_text(json.dumps(doc))
        code, _, err = run(
            ["score", "--model", str(m_json), "--input", str(d_csv), "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert "unresolved quadrature method 'auto'" in err
        assert not out.exists()

    @pytest.mark.parametrize("edit", ["huge-count", "top-level-list"])
    def test_malformed_model(self, tmp_path, capsys, edit):
        # both used to escape main() as OverflowError and TypeError tracebacks
        d_csv, m_json, out = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "s.csv"
        run(["generate", "--scheme", "uniform", "--n", "30", "--seed", "1",
             "--out", str(d_csv)], capsys)
        run(["fit", "--input", str(d_csv), "--m", "10", "--out", str(m_json)], capsys)
        doc = json.loads(m_json.read_text())
        if edit == "huge-count":
            doc["counts"][0][0][0] = 10**30
        else:
            doc = [doc]
        m_json.write_text(json.dumps(doc))
        code, _, err = run(
            ["score", "--model", str(m_json), "--input", str(d_csv), "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert err.startswith("mfrde: error: malformed model file: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"m_ratio": [0.5], "repeat": 3, "grid_g": 7}, "grid_g, m_ratio, repeat"),
            ({"n": 2.7}, "n must be of type int"),
            ({"grid_G": "100"}, "grid_G must be of type int"),
            ({"repeats": True}, "repeats must be of type int"),
            ([1], "must be a JSON object"),
        ],
        ids=["unknown-keys", "float-n", "string-grid", "bool-repeats", "top-level-list"],
    )
    def test_bad_benchmark_config(self, tmp_path, capsys, doc, named):
        # each used to run the default sweep, or truncate 2.7 to 2
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code, _, err = run(["benchmark", "--config", str(cfg_path), "--out", str(out)], capsys)
        assert code == 2
        assert named in err
        assert not out.exists()

    def test_bad_box_spec(self, tmp_path, capsys):
        d_csv = tmp_path / "d.csv"
        run(["generate", "--scheme", "uniform", "--n", "30", "--seed", "1",
             "--out", str(d_csv)], capsys)
        code, _, err = run(
            ["fit", "--input", str(d_csv), "--m", "10", "--box", "zap",
             "--out", str(tmp_path / "m.json")],
            capsys,
        )
        assert code == 1
        assert "box" in err
