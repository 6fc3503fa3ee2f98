import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from mfrde import estimator, evaluation
from mfrde.datasets import DOMAIN, Dataset, true_density
from mfrde.estimator import Quadrature, _integrate
from mfrde.evaluation import BenchmarkConfig, auc, benchmark, make_grid
from mfrde.geometry import Box


class TestMakeGrid:
    def test_paper_grid(self):
        grid = make_grid(DOMAIN, 100)
        assert grid.points.shape == (10_000, 2)
        as_set = {tuple(p) for p in grid.points[[0, -1]]}
        assert (0.0, 0.0) in as_set and (5.0, 5.0) in as_set

    def test_two_points(self):
        grid = make_grid(Box((0.0,), (1.0,)), 2)
        assert grid.points.ravel().tolist() == [0.0, 1.0]

    def test_spacing(self):
        grid = make_grid(Box((0.0,), (5.0,)), 100)
        gaps = np.diff(np.sort(grid.points.ravel()))
        assert gaps[0] == pytest.approx(5 / 99, rel=1e-12)

    def test_too_few(self):
        with pytest.raises(ValueError):
            make_grid(DOMAIN, 1)

    def test_over_budget_refused_before_allocating(self, monkeypatch):
        # the budget is read at call time; no lattice is built past it
        def no_lattice(axes, chunk):
            raise AssertionError("a lattice was built past the node budget")

        monkeypatch.setattr(evaluation, "_lattice", no_lattice)
        with pytest.raises(ValueError, match=r"G\*\*d = 100000\*\*2 = 10000000000 nodes, "
                                             r"over the budget of 16777216"):
            make_grid(DOMAIN, 100_000)
        monkeypatch.setattr(estimator, "_CELL_BUDGET", 99)
        with pytest.raises(ValueError, match=r"10\*\*2 = 100 nodes, over the budget of 99"):
            make_grid(DOMAIN, 10)
        monkeypatch.setattr(estimator, "_CELL_BUDGET", 100)
        with pytest.raises(AssertionError, match="past the node budget"):
            make_grid(DOMAIN, 10)

    @pytest.mark.parametrize(
        "box, g",
        [(DOMAIN, 100), (Box((0.0,), (1.3,)), 17), (Box((-0.3, 2.0, 1e3), (1.7, 2.1, 1.5e3)), 37)],
    )
    def test_equals_meshgrid(self, box, g):
        axes = [np.linspace(box.lo[j], box.hi[j], g) for j in range(box.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        expected = np.column_stack([m.ravel() for m in mesh])
        assert make_grid(box, g).points.tobytes() == expected.tobytes()

    def test_regular_grid_nodes_are_the_grid(self):
        box = Box((-0.3, 2.0, 1e3), (1.7, 2.1, 1.5e3))
        seen = []

        def record(pts):
            seen.append(pts.copy())
            return np.zeros(len(pts))

        quad = Quadrature(method="regular-grid", grid_points=37)
        _integrate(box, 4, quad, 0, record)
        assert len(seen) > 1
        assert np.concatenate(seen).tobytes() == make_grid(box, 37).points.tobytes()


class TestMae:
    """The sweep's MAE against the true density, with the model's densities stubbed."""

    @staticmethod
    def mae(monkeypatch, estimate, grid):
        monkeypatch.setattr(evaluation, "evaluate_batch", lambda model, pts: estimate(pts))
        unlabelled = Dataset(points=np.zeros((1, 2)))  # no AUC to compute
        mae_val, auc_val = evaluation._metrics(None, unlabelled, grid, true_density(grid.points))
        assert auc_val is None
        return mae_val

    def test_zero_when_equal(self, monkeypatch):
        grid = make_grid(DOMAIN, 25)
        assert self.mae(monkeypatch, true_density, grid) == 0.0

    def test_constant_shift(self, monkeypatch):
        grid = make_grid(DOMAIN, 25)
        shifted = lambda pts: np.asarray(true_density(pts)) + 0.1
        assert self.mae(monkeypatch, shifted, grid) == pytest.approx(0.1, rel=1e-12)

    def test_zero_estimate_equals_grid_mean_of_truth(self, monkeypatch):
        grid = make_grid(DOMAIN, 100)
        zero = lambda pts: np.zeros(len(pts))
        reference = float(np.mean(np.asarray(true_density(grid.points))))
        assert self.mae(monkeypatch, zero, grid) == pytest.approx(reference, rel=1e-12)


def rankdata_auc(scores, labels) -> float:
    """Mann-Whitney AUC from scipy's average ranks: the oracle for ``auc``."""
    pos = labels == 1
    n_pos = int(pos.sum())
    u = rankdata(scores)[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * (labels.size - n_pos)))


class TestAuc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert auc(scores, labels) == 1.0

    def test_all_ties(self):
        assert auc(np.ones(6), np.array([1, 0, 1, 0, 0, 0])) == 0.5

    def test_pair_count_example(self):
        scores = np.array([0.9, 0.8, 0.7, 0.1])
        labels = np.array([1, 0, 1, 0])
        assert auc(scores, labels) == 0.75

    def test_single_class_undefined(self):
        with pytest.raises(ValueError, match="AUC undefined"):
            auc(np.array([0.1, 0.2]), np.array([1, 1]))

    @pytest.mark.parametrize("labels", [[1, 2, 0], [1, 1.5, 0], [1, -1, 0], [1.0, math.nan, 0.0]])
    def test_labels_outside_zero_one_refused(self, labels):
        # each used to count the odd label as an inlier, or to raise that a
        # class was missing
        with pytest.raises(ValueError, match=r"^labels must be 0 \(inlier\) or 1 \(outlier\)$"):
            auc([0.1, 0.9, 0.5], labels)

    @pytest.mark.parametrize("labels", [
        [True, False, False], [1.0, 0.0, 0.0], np.array([1, 0, 0], dtype=np.uint8),
    ], ids=["bool", "float", "uint8"])
    def test_bool_and_float_labels_kept(self, labels):
        assert auc([0.9, 0.1, 0.5], labels) == 1.0

    def test_nan_score_rejected(self):
        # scipy's ranks spread a NaN into an AUC of nan; numpy's would rank it last
        with pytest.raises(ValueError, match="AUC undefined: a score is NaN"):
            auc([1.0, math.nan, 2.0, math.nan], [1, 0, 1, 0])

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_rankdata_oracle(self, data):
        # a few values drawn again and again, so ties are the rule; signed
        # zeros and infinities tie or rank as the extremes
        pool = data.draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=3))
        pool += [-0.0, 0.0, -math.inf, math.inf]
        n = data.draw(st.integers(2, 40))
        scores = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
        n_pos = data.draw(st.integers(1, n - 1))
        labels = np.array(data.draw(st.permutations([1] * n_pos + [0] * (n - n_pos))))
        assert auc(scores, labels) == rankdata_auc(scores, labels)

    def test_exhaustive_pair_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(4, 40))
            scores = rng.integers(0, 6, size=n).astype(float)  # force ties
            labels = np.zeros(n, dtype=int)
            labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
            if labels.sum() in (0, n):
                continue
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
            assert auc(scores, labels) == pytest.approx(wins / (len(pos) * len(neg)))

    @given(
        st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                 min_size=4, max_size=30),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_transform_invariance(self, scores, data):
        n = len(scores)
        n_pos = data.draw(st.integers(min_value=1, max_value=n - 1))
        labels = np.zeros(n, dtype=int)
        labels[:n_pos] = 1
        # quantize so distinct scores stay distinct under the transform
        scores = np.round(np.asarray(scores), 3)
        base = auc(scores, labels)
        assert auc(np.arctan(scores) * 3 + 7, labels) == pytest.approx(base, abs=1e-12)

    def test_complement_identity_without_ties(self):
        rng = np.random.default_rng(11)
        scores = rng.permutation(30).astype(float)  # distinct
        labels = (rng.random(30) < 0.4).astype(int)
        assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def one_cell_report():
    cfg = BenchmarkConfig(
        schemes=("uniform",),
        ratios=(0.2,),
        m_ratios=(0.1,),
        trees=(20,),
        depths=(6,),
        repeats=10,
        seed=77,
    )
    return cfg, benchmark(cfg)


class TestBenchmark:
    def test_smoke_run_shape(self, one_cell_report):
        _, report = one_cell_report
        assert len(report.runs) == 10
        assert all(r["mae"] is not None for r in report.runs)
        assert all(r["auc"] is not None for r in report.runs)
        assert all(r["baseline_mae"] is not None for r in report.runs)

    def test_summary_consistent_with_runs(self, one_cell_report):
        _, report = one_cell_report
        (entry,) = report.summary
        values = [r["mae"] for r in report.runs]
        assert entry["mae_mean"] == pytest.approx(np.mean(values), abs=1e-12)
        assert entry["mae_std"] == pytest.approx(np.std(values), abs=1e-12)
        assert entry["runs"] == 10

    def test_deterministic_modulo_timestamp(self, one_cell_report, tmp_path):
        cfg, report = one_cell_report
        again = benchmark(cfg)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        report.to_json(a)
        again.to_json(b)
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        da["meta"].pop("generated_at")
        db["meta"].pop("generated_at")
        assert da == db

    def test_threads_do_not_change_results(self, one_cell_report):
        cfg, report = one_cell_report
        threaded = benchmark(cfg, threads=4)
        assert threaded.runs == report.runs

    @pytest.mark.parametrize("threads, in_caller", [(1, True), (2, False)])
    def test_one_thread_fits_in_the_caller(self, monkeypatch, threads, in_caller):
        fitted_in = []
        original = evaluation.fit

        def spy(data, config):
            fitted_in.append(threading.get_ident())
            return original(data, config)

        monkeypatch.setattr(evaluation, "fit", spy)
        cfg = BenchmarkConfig(trees=(2,), depths=(2,), repeats=2, n=60, grid_g=5,
                              quadrature=Quadrature.parse("grid:5"))
        benchmark(cfg, threads=threads)
        assert len(fitted_in) == 4  # a baseline and a cell per repeat
        caller = threading.get_ident()
        assert all((ident == caller) == in_caller for ident in fitted_in)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_degenerate_baseline_raises(self, monkeypatch, threads):
        # a sweep cell with a degenerate model is skipped; its baseline is not
        original = evaluation.fit

        def degenerate_baseline(data, config):
            if config.m == data.n:
                raise ValueError("degenerate model: planted")
            return original(data, config)

        monkeypatch.setattr(evaluation, "fit", degenerate_baseline)
        cfg = BenchmarkConfig(trees=(2,), depths=(2,), repeats=2, n=60, grid_g=5,
                              quadrature=Quadrature.parse("grid:5"))
        with pytest.raises(ValueError, match="degenerate model: planted"):
            benchmark(cfg, threads=threads)

    def test_infeasible_cells_skipped(self):
        cfg = BenchmarkConfig(
            schemes=("uniform",),
            ratios=(0.1,),
            m_ratios=(0.0001, 0.1),
            trees=(5,),
            depths=(3,),
            repeats=2,
            seed=3,
        )
        report = benchmark(cfg)
        skipped = [r for r in report.runs if r.get("skipped")]
        assert len(skipped) == 2
        assert all(r["m_ratio"] == 0.0001 for r in skipped)
        assert len(report.summary) == 1

    def test_summary_csv(self, one_cell_report, tmp_path):
        _, report = one_cell_report
        path = tmp_path / "summary.csv"
        report.summary_to_csv(path)
        header = path.read_text().splitlines()[0]
        assert "mae_mean" in header and "scheme" in header

    def test_config_round_trip(self, tmp_path):
        doc = {
            "schemes": ["uniform", "beta"],
            "ratios": [0.1, 0.2],
            "m_ratios": [0.05],
            "trees": [5],
            "depths": [4],
            "repeats": 3,
            "seed": 9,
            "grid_G": 50,
            "box": {"lo": [0, 0], "hi": [5, 5]},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = BenchmarkConfig.from_json(path)
        assert cfg.schemes == ("uniform", "beta")
        assert cfg.grid_g == 50
        assert cfg.to_dict()["ratios"] == [0.1, 0.2]
