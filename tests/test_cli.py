import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import csv_writer_table, full_disk_open
from mfrde import datasets, estimator, evaluation
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

    def test_negative_seed_named(self, tmp_path, capsys):
        # numpy's "expected non-negative integer" named no seed
        d_csv, m_json = tmp_path / "d.csv", tmp_path / "m.json"
        run(["generate", "--scheme", "uniform", "--n", "30", "--seed", "1",
             "--out", str(d_csv)], capsys)
        for argv, out in ((["generate", "--scheme", "uniform", "--n", "30"], tmp_path / "e.csv"),
                          (["fit", "--input", str(d_csv), "--m", "10"], m_json)):
            code, _, err = run(argv + ["--seed", "-1", "--out", str(out)], capsys)
            assert code == 2
            assert err == "mfrde: error: seed must be a non-negative integer, got -1\n"
            assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(["--quadrature", "grid:abc"], "cannot parse quadrature spec 'grid:abc'"),
         (["--quadrature", "mc:1e5"], "cannot parse quadrature spec 'mc:1e5'"),
         (["--box-margin", "nan"], "box margin must be finite and non-negative")],
        ids=["grid-count", "mc-count", "nan-margin"],
    )
    def test_fit_names_the_bad_flag_value(self, tmp_path, capsys, flags, message):
        d_csv, m_json = tmp_path / "d.csv", tmp_path / "m.json"
        run(["generate", "--scheme", "uniform", "--n", "30", "--seed", "1",
             "--out", str(d_csv)], capsys)
        code, _, err = run(["fit", "--input", str(d_csv), "--m", "10", "--out", str(m_json)]
                           + flags, capsys)
        assert code == 2
        assert message in err
        assert not m_json.exists()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_malformed_piped_input(self, tmp_path, capsys):
        # a row cut short, read through a pipe: a message and exit 2, no traceback
        r, w = os.pipe()
        try:
            os.write(w, b"x1,x2,label\n1.0,2.0,0\n3.0,4")
            os.close(w)
            code, _, err = run(["fit", "--input", f"/dev/fd/{r}", "--m", "1",
                                "--out", str(tmp_path / "m.json")], capsys)
        finally:
            os.close(r)
        assert code == 2
        assert "malformed dataset file: " in err
        assert not (tmp_path / "m.json").exists()

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
            ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ],
        ids=["unknown-keys", "float-n", "string-grid", "bool-repeats", "top-level-list",
             "float-tree", "string-schemes", "int-quadrature", "box-without-hi",
             "zero-repeats", "negative-repeats", "empty-schemes", "empty-ratios",
             "zero-n", "negative-n", "one-point-grid", "negative-seed"],
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

    def test_grid_past_node_budget_refused(self, tmp_path, capsys, monkeypatch):
        # 10**10 nodes for eval-grid and 5000**2 for a sweep's MAE grid: both
        # exit 2 before any lattice is built, and write nothing
        def no_lattice(axes, chunk):
            raise AssertionError("a lattice was built past the node budget")

        monkeypatch.setattr(evaluation, "_lattice", no_lattice)
        d_csv, m_json, out = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "out"
        run(["generate", "--scheme", "uniform", "--n", "40", "--seed", "1",
             "--out", str(d_csv)], capsys)
        run(["fit", "--input", str(d_csv), "--m", "10", "--trees", "2", "--depth", "2",
             "--seed", "1", "--box", "0:5,0:5", "--out", str(m_json)], capsys)
        code, _, err = run(["eval-grid", "--model", str(m_json), "--grid", "100000",
                            "--out", str(out)], capsys)
        assert code == 2
        assert "G**d = 100000**2 = 10000000000 nodes, over the budget of 16777216" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_G": 5000}))
        code, _, err = run(["benchmark", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        assert "G**d = 5000**2 = 25000000 nodes" in err
        assert not out.exists()

    def test_mc_draws_past_budget_refused(self, tmp_path, capsys, monkeypatch):
        # checked before any tree or draw: fit exits 2 and writes nothing
        def no_forest(*args):
            raise AssertionError("a forest was built for an over-budget draw count")

        monkeypatch.setattr(estimator, "_CELL_BUDGET", 1000)
        monkeypatch.setattr(estimator, "build_forest", no_forest)
        d_csv, m_json = tmp_path / "d.csv", tmp_path / "m.json"
        run(["generate", "--scheme", "uniform", "--n", "40", "--seed", "1",
             "--out", str(d_csv)], capsys)
        code, _, err = run(["fit", "--input", str(d_csv), "--m", "10", "--trees", "2",
                            "--depth", "2", "--quadrature", "mc:1001",
                            "--out", str(m_json)], capsys)
        assert code == 2
        assert "asks for 1001 draws, over the budget of 1000" in err
        assert not m_json.exists()

    @pytest.mark.parametrize("ratio", ["0", "0.2"])
    def test_generate_box_of_another_dimension(self, tmp_path, capsys, ratio):
        # at ratio 0 this used to exit 0 with 2-D rows and a 1-D box in the
        # provenance; at 0.2, exit 2 only after drawing both sides
        d_csv, prov = tmp_path / "d.csv", tmp_path / "d.json"
        code, _, err = run(["generate", "--scheme", "beta", "--n", "40", "--box", "0:5",
                            "--outlier-ratio", ratio, "--out", str(d_csv),
                            "--provenance", str(prov)], capsys)
        assert code == 2
        assert "the synthetic family is two-dimensional, got a 1-D box" in err
        assert list(tmp_path.iterdir()) == []

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

    def test_non_finite_box_spec(self, tmp_path, capsys):
        # used to construct a box of volume inf, and the fit then ended in a
        # misleading "degenerate model" error
        d_csv, m_json = tmp_path / "d.csv", tmp_path / "m.json"
        run(["generate", "--scheme", "uniform", "--n", "30", "--seed", "1",
             "--out", str(d_csv)], capsys)
        code, _, err = run(["fit", "--input", str(d_csv), "--m", "10", "--box", "0:inf,0:5",
                            "--out", str(m_json)], capsys)
        assert code == 1
        assert "must be finite and positive" in err
        assert not m_json.exists()

    @pytest.mark.parametrize(
        "quadrature, field, value",
        [(None, '"lo":[0.0,0.0]', '"lo":[-Infinity,0.0]'),
         ("mc:500", '"draws":500', '"draws":1000000000000'),
         ("grid:7", '"points_per_axis":7', '"points_per_axis":1000000')],
        ids=["infinite-box", "mc-draws", "grid-points"],
    )
    def test_model_past_what_fit_accepts(self, tmp_path, capsys, monkeypatch, quadrature,
                                         field, value):
        # each edit used to load: the box served density 0 where it was
        # positive, and the sizes asked for 10**12 quadrature nodes
        def no_draw(*args):
            raise AssertionError("a quadrature ran on a refused model")

        d_csv, m_json, out = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "s.csv"
        run(["generate", "--scheme", "uniform", "--n", "40", "--seed", "1",
             "--out", str(d_csv)], capsys)
        run(["fit", "--input", str(d_csv), "--m", "10", "--trees", "2", "--depth", "2",
             "--box", "0:5,0:5", "--out", str(m_json)]
            + (["--quadrature", quadrature] if quadrature else []), capsys)
        text = m_json.read_text()
        assert field in text
        m_json.write_text(text.replace(field, value))
        monkeypatch.setattr(estimator, "_integrate", no_draw)
        monkeypatch.setattr(estimator, "_fit_streams", no_draw)
        code, _, err = run(
            ["score", "--model", str(m_json), "--input", str(d_csv), "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert err.startswith("mfrde: error: malformed model file: ")
        assert ("must be finite and positive" if quadrature is None
                else "over the budget of 16777216") in err
        assert not out.exists()

    def test_fit_arrays_past_byte_budget(self, tmp_path, capsys, monkeypatch):
        # depth 30 passed the T * 2**p < 2**31 guard, then drew 8 GiB of labels
        def no_forest(*args):
            raise AssertionError("a forest was built past the byte budget")

        monkeypatch.setattr(estimator, "build_forest", no_forest)
        d_csv, m_json = tmp_path / "d.csv", tmp_path / "m.json"
        run(["generate", "--scheme", "uniform", "--n", "40", "--seed", "1",
             "--out", str(d_csv)], capsys)
        code, _, err = run(["fit", "--input", str(d_csv), "--m", "10", "--trees", "1",
                            "--depth", "30", "--out", str(m_json)], capsys)
        assert code == 2
        assert ("split labels need T * (2**p - 1) * 8 = 1 * 1073741823 * 8 = 8589934584 "
                "bytes, over the budget of 1073741824") in err
        assert not m_json.exists()


# One to three byte edits: replace, insert or delete at a position taken
# modulo the file's length.
BYTE_EDITS = st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]),
              st.integers(0, 2**16), st.integers(0, 255)),
    min_size=1, max_size=3,
)


def edit_bytes(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for kind, where, byte in edits:
        if kind == "insert":
            buf.insert(where % (len(buf) + 1), byte)
        elif buf and kind == "replace":
            buf[where % len(buf)] = byte
        elif buf:
            del buf[where % len(buf)]
    return bytes(buf)


class TestFuzz:
    """Mutated model files through ``score`` and datasets through ``fit``.

    Every run ends in exit code 0, 1 or 2 with no exception escaping
    ``main`` and no temporary file left behind.  The sweep config is left
    out: a mutated ``n`` or ``repeats`` asks for unbounded work.
    """

    FIT = ["--m", "20", "--trees", "3", "--depth", "2", "--seed", "3"]

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        data, model = root / "d.csv", root / "m.json"
        assert main(["generate", "--scheme", "beta", "--n", "60", "--outlier-ratio",
                     "0.2", "--seed", "3", "--out", str(data)]) == 0
        assert main(["fit", "--input", str(data), "--out", str(model), *self.FIT]) == 0
        return root, data.read_bytes(), model.read_bytes()

    def run_in(self, root: Path, data: bytes, model: bytes, command: str) -> int:
        work = Path(tempfile.mkdtemp(dir=root))
        d_csv, m_json, out = work / "d.csv", work / "m.json", work / "out"
        d_csv.write_bytes(data)
        m_json.write_bytes(model)
        if command == "score":
            argv = ["score", "--model", str(m_json), "--input", str(d_csv), "--out", str(out)]
        else:
            argv = ["fit", "--input", str(d_csv), "--out", str(out), *self.FIT]
        code = main(argv)
        assert code in (0, 1, 2)
        assert not list(work.glob("*.tmp"))
        assert out.exists() == (code == 0)
        return code

    @settings(max_examples=150, deadline=None)
    @given(edits=BYTE_EDITS)
    def test_mutated_model_through_score(self, inputs, edits):
        root, data, model = inputs
        self.run_in(root, data, edit_bytes(model, edits), "score")

    @settings(max_examples=150, deadline=None)
    @given(edits=BYTE_EDITS)
    def test_mutated_dataset_through_fit(self, inputs, edits):
        root, data, model = inputs
        self.run_in(root, edit_bytes(data, edits), model, "fit")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_one_count_changed_never_exits_zero(self, inputs, data):
        # every count is in [0, m]; another value in that range still
        # parses, but no longer agrees with the other trees' block totals
        root, query, model = inputs
        text = model.decode()
        start = text.index('"counts":')
        end = text.index("]]]", start)
        count = data.draw(st.sampled_from(list(re.finditer(r"\d+", text[start:end]))))
        new = data.draw(st.integers(0, 20).filter(lambda v: v != int(count.group())))
        changed = (text[: start + count.start()] + str(new)
                   + text[start + count.end() :]).encode()
        assert self.run_in(root, query, changed, "score") == 2
