import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import csv_writer_table, full_disk_open
from mfrde import datasets
from mfrde.cli import main
from mfrde.datasets import read_dataset
from mfrde.estimator import evaluate_batch, load_model
from mfrde.evaluation import make_grid


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_runtime_imports_no_scipy(tmp_path):
    # scipy is a test dependency only; importing it would add over a second
    # to the start of every mfrde process
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, mfrde, mfrde.cli; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


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

    def test_m_ratio_rounds_like_the_sweep(self, tmp_path, capsys):
        d_csv, m_json = tmp_path / "d.csv", tmp_path / "m.json"
        run(["generate", "--scheme", "uniform", "--n", "500", "--seed", "1",
             "--out", str(d_csv)], capsys)
        code, _, _ = run(["fit", "--input", str(d_csv), "--m-ratio", "0.1", "--trees", "2",
                          "--depth", "2", "--out", str(m_json)], capsys)
        assert code == 0
        assert load_model(m_json).m == 50

    @pytest.mark.parametrize("flag, value, message", [
        ("--m-ratio", "0.0001", "block size must be at least 1"),
        ("--m", "0", "block size must be at least 1"),
        ("--m-ratio", "nan", "--m-ratio must be finite"),
        ("--m-ratio", "inf", "--m-ratio must be finite"),
    ], ids=["tiny-ratio", "zero-m", "nan-ratio", "inf-ratio"])
    def test_block_size_below_one(self, tmp_path, capsys, flag, value, message):
        # an infinite ratio used to escape main() as an OverflowError
        d_csv, m_json = tmp_path / "d.csv", tmp_path / "m.json"
        run(["generate", "--scheme", "uniform", "--n", "500", "--seed", "1",
             "--out", str(d_csv)], capsys)
        code, _, err = run(["fit", "--input", str(d_csv), flag, value,
                            "--out", str(m_json)], capsys)
        assert code == 1
        assert message in err
        assert not m_json.exists()

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
        assert meta["box"] == {"lo": [0.0, 0.0], "hi": [5.0, 5.0]}
        # the box shapes the uniform outliers, so the sidecar records it
        sidecars = []
        for box in ("0:4,0:4", "0:5,0:5"):
            args = ["generate", "--scheme", "uniform", "--n", "20", "--outlier-ratio",
                    "0.2", "--seed", "1", "--box", box, "--out", str(tmp_path / "b.csv"),
                    "--provenance", str(prov)]
            assert run(args, capsys)[0] == 0
            sidecars.append(prov.read_bytes())
        assert sidecars[0] != sidecars[1]
        assert json.loads(sidecars[0])["box"] == {"lo": [0.0, 0.0], "hi": [4.0, 4.0]}


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

    def test_failed_score_write_keeps_previous_file(self, tmp_path, capsys, monkeypatch,
                                                    model_files):
        d_csv, m_json = model_files
        out = tmp_path / "s.csv"
        out.write_text("an earlier output\n")
        monkeypatch.setattr(datasets, "open", full_disk_open, raising=False)
        code, _, err = run(["score", "--model", str(m_json), "--input", str(d_csv),
                            "--out", str(out)], capsys)
        assert code == 2
        assert "disk full" in err
        assert out.read_text() == "an earlier output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "m.json", "s.csv"]

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

    @pytest.mark.parametrize("d", [1, 3])
    def test_eval_grid_other_dimensions(self, tmp_path, capsys, d):
        d_csv, m_json, out = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "g.csv"
        points = np.random.default_rng(d).random((240, d))
        datasets.write_dataset(datasets.Dataset(points=points), d_csv)
        run(["fit", "--input", str(d_csv), "--m", "40", "--trees", "4", "--depth", "3",
             "--seed", "1", "--box", ",".join(["0:1"] * d), "--out", str(m_json)], capsys)
        code, _, _ = run(["eval-grid", "--model", str(m_json), "--grid", "9",
                          "--out", str(out)], capsys)
        assert code == 0
        model = load_model(m_json)
        grid = make_grid(model.box, 9)
        dens = evaluate_batch(model, grid.points)
        header = [f"x{j + 1}" for j in range(d)] + ["density"]
        csv_writer_table(tmp_path / "old.csv", header, np.column_stack([grid.points, dens]))
        assert out.read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert len(out.read_bytes().splitlines()) == 9**d + 1

    def test_score_header_only_query(self, tmp_path, capsys, model_files):
        _, m_json = model_files
        query, out = tmp_path / "q.csv", tmp_path / "s.csv"
        query.write_text("x1,x2,label\r\n")
        code, _, _ = run(["score", "--model", str(m_json), "--input", str(query),
                          "--out", str(out)], capsys)
        assert code == 0
        csv_writer_table(tmp_path / "old.csv", ["density"], np.zeros((0, 1)))
        assert out.read_bytes() == (tmp_path / "old.csv").read_bytes() == b"density\r\n"

    def test_generate_labelled_few_distinct(self, tmp_path, capsys):
        # 90% discrete outliers: at most two thirds of the rows in each column are distinct
        out = tmp_path / "d.csv"
        code, _, _ = run(["generate", "--scheme", "discrete", "--n", "400",
                          "--outlier-ratio", "0.9", "--seed", "6", "--out", str(out)], capsys)
        assert code == 0
        data = datasets.generate("discrete", 400, 0.9, seed=6)
        assert all(3 * np.unique(c).size <= 2 * 400 for c in data.points.T)
        csv_writer_table(tmp_path / "old.csv", ["x1", "x2", "label"], data.points, data.labels)
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

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        # both used to run the sweep on one thread and exit 0
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "report.json"
        cfg_path.write_text(json.dumps({"repeats": 1, "n": 50, "grid_G": 5}))
        code, _, err = run(["benchmark", "--config", str(cfg_path), "--out", str(out),
                            "--threads", threads], capsys)
        assert code == 1
        assert "--threads must be at least 1" in err
        assert not out.exists()


class TestErrors:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(["generate", "--bogus", "1"], capsys)
        assert code == 1

    def test_exactly_one_block_size_flag(self, tmp_path, capsys):
        d_csv, m_json = tmp_path / "d.csv", tmp_path / "m.json"
        run(["generate", "--scheme", "uniform", "--n", "30", "--seed", "1",
             "--out", str(d_csv)], capsys)
        for flags in (["--m", "10", "--m-ratio", "0.1"], []):
            code, _, err = run(["fit", "--input", str(d_csv), "--out", str(m_json)] + flags,
                               capsys)
            assert code == 1
            assert "--m" in err
            assert not m_json.exists()

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

    def test_tree_totals_differ_in_model(self, tmp_path, capsys):
        # the box holds about a quarter of the points, so a count raised by
        # one stays within m and only the trees' totals disagree
        d_csv, m_json, out = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "s.csv"
        run(["generate", "--scheme", "uniform", "--n", "30", "--seed", "1",
             "--out", str(d_csv)], capsys)
        run(["fit", "--input", str(d_csv), "--m", "10", "--box", "0:2.5,0:2.5",
             "--out", str(m_json)], capsys)
        doc = json.loads(m_json.read_text())
        doc["counts"][0][0][0] += 1
        assert sum(doc["counts"][0][0]) <= doc["m"]
        m_json.write_text(json.dumps(doc))
        code, _, err = run(
            ["score", "--model", str(m_json), "--input", str(d_csv), "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert err == ("mfrde: error: malformed model file: "
                       "a block's count total differs between trees\n")
        assert not out.exists()

    @pytest.mark.parametrize("content", ["binary", "empty", "utf8-bom", "utf16"])
    def test_model_file_not_utf8_json(self, tmp_path, capsys, content):
        d_csv, m_json, out = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "s.csv"
        run(["generate", "--scheme", "uniform", "--n", "30", "--seed", "1",
             "--out", str(d_csv)], capsys)
        run(["fit", "--input", str(d_csv), "--m", "10", "--out", str(m_json)], capsys)
        text = m_json.read_text()
        m_json.write_bytes({
            "binary": bytes(range(256)) * 3,
            "empty": b"",
            "utf8-bom": b"\xef\xbb\xbf" + text.encode("utf-8"),
            "utf16": text.encode("utf-16"),
        }[content])
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
            ({"trees": [2.5]}, "benchmark config trees[0] must be of type int"),
            ({"schemes": "uniform"}, "benchmark config schemes must be of type list"),
            ({"quadrature": 5}, "benchmark config quadrature must be of type str"),
            ({"box": {"lo": [0, 0]}}, "benchmark config box must be an object"),
            ({"repeats": 0}, "benchmark config repeats must be at least 1"),
            ({"repeats": -3}, "benchmark config repeats must be at least 1"),
            ({"schemes": []}, "benchmark config schemes must not be empty"),
            ({"ratios": []}, "benchmark config ratios must not be empty"),
            ({"n": 0}, "benchmark config n must be at least 1, not 0"),
            ({"n": -5}, "benchmark config n must be at least 1, not -5"),
            ({"grid_G": 1}, "benchmark config grid_G must be at least 2, not 1"),
        ],
        ids=["unknown-keys", "float-n", "string-grid", "bool-repeats", "top-level-list",
             "float-tree", "string-schemes", "int-quadrature", "box-without-hi",
             "zero-repeats", "negative-repeats", "empty-schemes", "empty-ratios",
             "zero-n", "negative-n", "one-point-grid"],
    )
    def test_bad_benchmark_config(self, tmp_path, capsys, doc, named):
        # each used to run the default sweep, truncate 2.7 to 2, split a
        # string into letters, escape as a traceback, or run an empty sweep
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
