import dataclasses
import hashlib
import io
import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    block_densities,
    clean_block_fraction,
    count_leaves,
    dyadic_corners,
    full_disk_open,
    json_load_counts,
    leaf_index,
    local_outliers,
    mask_path_cells,
    naive_median_at,
    naive_sfde_at,
    table_cells,
    walked_densities,
    walked_medians,
)
from mfrde import datasets, estimator, geometry
from mfrde.datasets import generate
from mfrde.estimator import (
    EstimatorConfig,
    FittedMFRDE,
    Quadrature,
    _fit_streams,
    assign_blocks,
    evaluate,
    evaluate_batch,
    fit,
    integrate_estimate,
    load_model,
    save_model,
)
from mfrde.geometry import Box, Forest, build_forest, leaf_indices

UNIT2 = Box((0.0, 0.0), (1.0, 1.0))
BLOCK = np.array([(0.25, 0.5), (0.75, 0.5), (0.9, 0.1)])


def make_model(forest, counts, m, normalizer=1.0):
    """A model from block-major ``(S, T, 2**p)`` counts, with ``n = S * m``."""
    counts = np.asarray(counts, dtype=np.int64)
    return FittedMFRDE(
        seed=0,
        forest=forest,
        n=counts.shape[0] * m,
        m=m,
        leaf_counts=counts.transpose(1, 2, 0),
        normalizer=normalizer,
        quadrature=Quadrature(method="exact-dyadic"),
    )


def median_at(model, x) -> float:
    """The unnormalized lower median of the block densities at one point."""
    return estimator._median_values(
        model.forest, model.leaf_counts, model.m, np.atleast_2d(x)
    )[0]


def two_tree_forest() -> Forest:
    """Two depth-1 trees: the first splits axis 0, the second axis 1."""
    return Forest(box=UNIT2, labels=np.array([[0], [1]]))


class TestAssignBlocks:
    def test_exact_division(self):
        blocks = assign_blocks(6, 3, np.random.default_rng(0))
        assert blocks.shape == (2, 3)
        assert sorted(blocks.ravel().tolist()) == list(range(6))

    def test_floor_rule(self):
        # the blocks are the head of one permutation; its 10 mod 3 = 1 tail is dropped
        blocks = assign_blocks(10, 3, np.random.default_rng(1))
        assert blocks.shape == (3, 3)
        assert len(set(blocks.ravel().tolist())) == 9
        perm = np.random.default_rng(1).permutation(10)
        assert blocks.ravel().tolist() == perm[:9].tolist()

    def test_single_block(self):
        blocks = assign_blocks(5, 5, np.random.default_rng(2))
        assert blocks.shape == (1, 5)
        assert sorted(blocks[0].tolist()) == list(range(5))

    def test_errors(self):
        with pytest.raises(ValueError, match="exceeds sample size"):
            assign_blocks(4, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            assign_blocks(4, 0, np.random.default_rng(0))


class TestConfig:
    def test_block_size_checked(self):
        with pytest.raises(ValueError, match="at least 1"):
            EstimatorConfig(m=0)
        with pytest.raises(ValueError, match="exceeds sample size"):
            fit(np.random.default_rng(0).random((100, 2)), EstimatorConfig(m=101))

    def test_negative_seed_named(self, tmp_path):
        # numpy's "expected non-negative integer" named no seed, and a model
        # file edited to a negative seed loaded, to fail in its Monte Carlo
        # integral check
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            EstimatorConfig(m=1, seed=-1)
        model = fit(np.random.default_rng(0).random((40, 2)), EstimatorConfig(
            m=10, trees=2, depth=2, seed=0, quadrature=Quadrature.parse("mc:50")))
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -2$"):
            dataclasses.replace(model, seed=-2)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["seed"] = -5
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=(
                "^malformed model file: seed must be a non-negative integer, got -5$")):
            load_model(path)

    def test_quadrature_parse(self):
        assert Quadrature.parse("exact").method == "exact-dyadic"
        assert Quadrature.parse("grid:50").grid_points == 50
        assert Quadrature.parse("mc:1000").mc_draws == 1000
        assert Quadrature.parse("auto").method == "auto"
        # a bare name takes the default count
        assert Quadrature.parse("grid") == Quadrature(method="regular-grid", grid_points=100)
        assert Quadrature.parse("monte-carlo") == Quadrature(method="monte-carlo",
                                                             mc_draws=100_000)
        with pytest.raises(ValueError):
            Quadrature.parse("simpson")
        # these used to parse, and the number was ignored
        for spec in ("auto:7", "exact:4", "exact-dyadic:4", "auto:"):
            with pytest.raises(ValueError, match="takes no argument"):
                Quadrature.parse(spec)

    @pytest.mark.parametrize("spec", [
        "grid:abc", "mc:1e5", "grid:7.5", "mc:-3", "grid: 7",
        "grid:", "mc:", "monte-carlo:", "regular-grid:", "grid:\u0663", "mc:\uff15",
    ])
    def test_quadrature_parse_names_the_spec(self, spec):
        # a count that is not a plain decimal integer raised int()'s
        # "invalid literal", which never named the spec; an empty count
        # parsed as the default, and non-ASCII digits ("\u0663" is Arabic-Indic
        # 3, "\uff15" fullwidth 5) as their value
        with pytest.raises(ValueError, match=f"^cannot parse quadrature spec {spec!r}$"):
            Quadrature.parse(spec)

    @pytest.mark.parametrize("margin", [math.nan, math.inf, -0.5])
    def test_box_margin_finite_and_non_negative(self, margin):
        # NaN passed the old "margin < 0" check, and fit then blamed the box
        with pytest.raises(ValueError, match="^box margin must be finite and non-negative"):
            EstimatorConfig(m=10, box_margin=margin)


def one_tree_model(tree, box, points, m):
    """One tree (a label row), one block: the forest density is the tree's."""
    counts, _ = count_leaves(tree, box, points)
    return make_model(Forest(box=box, labels=tree[None, :]), counts[None, None, :], m=m)


class TestStde:
    def test_left_cell(self):
        model = one_tree_model(np.array([0]), UNIT2, BLOCK, m=3)
        assert block_densities(model, (0.1, 0.5))[0] == pytest.approx(0.666667, abs=1e-6)

    def test_right_cell(self):
        model = one_tree_model(np.array([0]), UNIT2, BLOCK, m=3)
        assert block_densities(model, (0.6, 0.2))[0] == pytest.approx(1.333333, abs=1e-6)

    def test_depth_zero_histogram(self):
        box = Box((0.0, 0.0), (2.0, 2.0))
        tree = np.zeros(0, dtype=np.int64)
        model = one_tree_model(tree, box, np.full((7, 2), 1.0), m=7)
        for x in ((0.1, 0.1), (1.9, 1.9)):
            assert block_densities(model, x)[0] == pytest.approx(1 / box.volume)


class TestSfde:
    def test_single_tree_equals_stde(self):
        # leaf count over m times the leaf volume, the leaf found by the oracle
        tree = np.array([0])
        counts, _ = count_leaves(tree, UNIT2, BLOCK)
        model = one_tree_model(tree, UNIT2, BLOCK, m=3)
        x = (0.1, 0.5)
        stde = counts[leaf_index(tree, UNIT2, x)] / (3 * (UNIT2.volume * 2.0**-1))
        assert block_densities(model, x)[0] == stde

    def test_two_tree_average(self):
        forest = two_tree_forest()
        counts = np.stack(
            [count_leaves(t, UNIT2, BLOCK)[0] for t in forest.labels]
        )[None, :, :]
        model = make_model(forest, counts, m=3)
        assert block_densities(model, (0.25, 0.25))[0] == pytest.approx(0.666667, abs=1e-6)

    def test_integral_telescopes_to_inbox_fraction(self):
        # integral of a block density is exactly its in-box count over m
        rng = np.random.default_rng(8)
        pts = np.concatenate([rng.random((37, 2)), rng.random((5, 2)) + 2.0])
        model = fit(
            pts,
            EstimatorConfig(m=42, trees=4, depth=3, seed=3, box=UNIT2),
        )
        assert model.n_blocks == 1
        assert model.normalizer == pytest.approx(37 / 42, rel=1e-12)


class TestMedian:
    def test_single_block(self):
        model = fit(np.random.default_rng(1).random((30, 2)),
                    EstimatorConfig(m=30, trees=3, depth=2, seed=1, box=UNIT2))
        x = (0.3, 0.7)
        assert median_at(model, x) == block_densities(model, x)[0]

    def test_odd_order_statistic(self):
        vals = np.array([0.2, 0.9, 0.4])
        assert np.partition(vals, 1)[1] == 0.4  # rank k=2 of S=3

    def test_even_uses_lower_median(self):
        # four blocks engineered to give distinct densities at x
        forest = Forest(box=UNIT2, labels=np.zeros((1, 0), dtype=np.int64))
        counts = np.array([[[1]], [[2]], [[3]], [[4]]], dtype=np.int64)
        model = make_model(forest, counts, m=10)
        # densities at any x: 0.1, 0.2, 0.3, 0.4; lower median is 0.2
        assert median_at(model, (0.5, 0.5)) == pytest.approx(0.2)

    def test_outside_raises(self):
        model = fit(np.random.default_rng(1).random((30, 2)),
                    EstimatorConfig(m=10, trees=2, depth=1, seed=1, box=UNIT2))
        with pytest.raises(ValueError, match="outside domain"):
            median_at(model, (2.0, 0.5))


@pytest.fixture(scope="module")
def spare_models():
    """Fits with S = 1 to 7 blocks on the unit square; over half of the points
    fall outside the box, so every block has room for extra counts."""
    rng = np.random.default_rng(59)
    models = []
    for s in range(1, 8):
        pts = rng.random((s * 30, 2)) * 1.5
        models.append(fit(pts, EstimatorConfig(m=30, trees=3, depth=3, seed=s, box=UNIT2)))
    return models


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_median_sandwich_order_statistic(spare_models, data):
    # local outliers piled into x's leaves in at most floor((S-1)/2) blocks
    # cannot push the median at x outside the untouched blocks' range; each
    # tree is poisoned by its own amount, which no model would hold, so the
    # kernel runs on the poisoned counts directly
    model = data.draw(st.sampled_from(spare_models))
    s = model.n_blocks
    x = np.array(data.draw(st.tuples(*[st.floats(0.0, 1.0)] * 2)))
    bad = data.draw(st.lists(st.integers(0, s - 1), max_size=(s - 1) // 2, unique=True))
    leaf_counts = model.leaf_counts.copy()
    x_leaves = leaf_indices(model.forest, points=x[None, :])[0]
    for b in bad:
        for t, leaf in enumerate(x_leaves):
            room = model.m - int(leaf_counts[t, :, b].sum())
            leaf_counts[t, leaf, b] += data.draw(st.integers(0, room))
    median = estimator._median_values(model.forest, leaf_counts, model.m, x[None, :])[0]
    untouched = np.delete(block_densities(model, x), bad)
    assert untouched.min() <= median <= untouched.max()


class TestLocalOutliers:
    """The paper's local-outlier effect, end to end through ``fit``.

    ``k`` copies of one point ``x0`` sit in at most ``k`` blocks.  With
    ``k < S/2`` the lower median at ``x0`` is an order statistic that at
    least ``S - k`` clean blocks sandwich, wherever the permutation puts
    the copies; a single forest (``S = 1``) takes their whole mass.  Each
    case is fitted twice with one seed, so one forest and one permutation:
    once with the copies at ``x0``, once with them outside the box, where
    no leaf counts them.
    """

    BOX = Box((0.0, 0.0), (5.0, 5.0))
    X0 = np.array([1.3, 3.7])

    def fits(self, n: int, m: int, k: int, seed: int):
        clean = np.random.default_rng(seed).random((n - k, 2)) * 5.0
        config = EstimatorConfig(m=m, trees=10, depth=6, seed=seed, box=self.BOX)
        planted, away = (fit(np.vstack([clean, np.tile(at, (k, 1))]), config)
                         for at in (self.X0, self.X0 + 10.0))
        return planted, away

    @pytest.mark.parametrize("seed", range(5))
    def test_median_stays_within_the_clean_blocks(self, seed):
        n, m, k = 11 * 200, 200, 5
        planted, away = self.fits(n, m, k, seed)
        # the copies are the last k rows; the blocks come from the fit's own stream
        blocks = assign_blocks(n, m, np.random.default_rng(_fit_streams(seed)[1]))
        copies = np.isin(blocks, np.arange(n - k, n)).sum(axis=1)
        clean = copies == 0
        assert planted.n_blocks == 11 and clean.sum() >= 11 - k
        leaf_volume = self.BOX.volume / 2**6
        # each copy lands in x0's leaf of every tree of its own block
        assert block_densities(planted, self.X0) - block_densities(away, self.X0) == (
            pytest.approx(copies / (m * leaf_volume), rel=1e-12, abs=1e-12))
        median = estimator._median_values(planted.forest, planted.leaf_counts, m,
                                          self.X0[None, :])[0]
        clean_densities = block_densities(planted, self.X0)[clean]
        assert clean_densities.min() <= median <= clean_densities.max()

    def test_single_forest_takes_the_whole_mass(self):
        n, k = 2200, 5
        planted, away = self.fits(n, n, k, seed=0)
        assert planted.n_blocks == away.n_blocks == 1
        moved = block_densities(planted, self.X0) - block_densities(away, self.X0)
        assert moved[0] == pytest.approx(k / (n * self.BOX.volume / 2**6), rel=1e-12)


class TestFit:
    def test_m_equals_n_reduces_to_plain_forest(self):
        data = generate("uniform", 300, 0.0, seed=5)
        model = fit(
            data,
            EstimatorConfig(m=300, trees=10, depth=4, seed=5, box=Box((0, 0), (5, 5))),
        )
        assert model.n_blocks == 1
        x = (1.0, 2.0)
        assert median_at(model, x) == block_densities(model, x)[0]

    def test_deterministic(self):
        data = np.random.default_rng(7).random((120, 2))
        cfg = EstimatorConfig(m=30, trees=6, depth=3, seed=99, box=UNIT2)
        a, b = fit(data, cfg), fit(data, cfg)
        assert np.array_equal(a.counts, b.counts)
        assert a.normalizer == b.normalizer
        pts = np.random.default_rng(1).random((50, 2))
        assert np.array_equal(evaluate_batch(a, pts), evaluate_batch(b, pts))

    def test_mass_invariant(self):
        # per-(block, tree) counts sum to the block's in-box point count
        rng = np.random.default_rng(13)
        pts = np.concatenate([rng.random((90, 2)), rng.random((10, 2)) + 3.0])
        cfg = EstimatorConfig(m=20, trees=5, depth=3, seed=4, box=UNIT2)
        model = fit(pts, cfg)
        _, perm_stream, _ = _fit_streams(cfg.seed)
        blocks = assign_blocks(100, 20, np.random.default_rng(perm_stream))
        inbox = UNIT2.contains_batch(pts)
        for s in range(model.n_blocks):
            expected = int(inbox[blocks[s]].sum())
            sums = model.counts[s].sum(axis=1)
            assert (sums == expected).all()

    def test_fit_speed(self):
        data = generate("uniform", 500, 0.1, seed=2)
        start = time.time()
        fit(data, EstimatorConfig(m=50, trees=20, depth=6, seed=2, box=Box((0, 0), (5, 5))))
        assert time.time() - start < 1.0

    def test_auto_box(self):
        data = np.random.default_rng(3).random((50, 2)) * 4 - 2
        model = fit(data, EstimatorConfig(m=10, trees=2, depth=2, seed=1))
        assert model.box.contains_batch(data).all()

    def test_all_data_outside_box_degenerate(self):
        data = np.random.default_rng(3).random((20, 2)) + 5.0
        with pytest.raises(ValueError, match="degenerate model"):
            fit(data, EstimatorConfig(m=5, trees=2, depth=2, seed=1, box=UNIT2))

    @pytest.mark.parametrize("box", [None, UNIT2], ids=["auto-box", "explicit-box"])
    def test_non_finite_rows_rejected(self, box):
        # with an explicit box these rows used to vanish from the block
        # counts; with the auto box, to fail as a degenerate extent
        data = np.random.default_rng(5).random((100, 2))
        data[[3, 17, 40, 41, 99], [0, 1, 0, 1, 0]] = [np.nan, np.inf, np.nan, -np.inf, np.nan]
        with pytest.raises(ValueError, match="5 data row"):
            fit(data, EstimatorConfig(m=20, trees=2, depth=2, seed=1, box=box))

    @pytest.mark.parametrize("shape", [(40,), (40, 2, 1)], ids=["1-D", "3-D"])
    def test_points_not_two_dimensional_rejected(self, shape):
        # a 1-D array used to be read as one point of dimension 40, and a
        # 3-D one to escape as a TypeError
        data = np.random.default_rng(0).random(shape)
        config = EstimatorConfig(m=10, trees=2, depth=2)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            fit(data, config)
        dataset = datasets.Dataset(np.zeros((40, 2)))
        dataset.points = data
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            fit(dataset, config)

    def test_leaf_major_storage(self):
        model = fit(np.random.default_rng(6).random((90, 2)),
                    EstimatorConfig(m=30, trees=4, depth=3, seed=2, box=UNIT2))
        assert model.leaf_counts.shape == (4, 8, 3)
        assert model.leaf_counts.dtype == np.int32
        assert model.leaf_counts.flags.c_contiguous
        assert not model.leaf_counts.flags.writeable
        assert model.counts.shape == (3, 4, 8)
        assert model.counts.base is model.leaf_counts
        assert np.array_equal(model.counts, model.leaf_counts.transpose(2, 0, 1))
        assert model.median_rank == 2

    def test_chunked_counts_keep_model_bytes(self, tmp_path, monkeypatch):
        # 260 of the 500 points lie in the box and in a block: counted 37
        # at a time, they leave one point for the last chunk
        data = generate("beta", 500, 0.2, seed=4)
        config = EstimatorConfig(m=40, trees=5, depth=4, seed=6,
                                 box=Box((0.5, 0.5), (4.5, 4.5)))
        whole, chunked = tmp_path / "whole.json", tmp_path / "chunked.json"
        save_model(fit(data, config), whole)
        walked = []

        def spy(forest, points):
            walked.append(len(points))
            return leaf_indices(forest, points)

        monkeypatch.setattr(estimator, "_WALK_POINTS", 37)
        monkeypatch.setattr(estimator, "leaf_indices", spy)
        save_model(fit(data, config), chunked)
        assert chunked.read_bytes() == whole.read_bytes()
        assert max(walked) == 37

    def test_count_sum_range_guard(self):
        # T counts of at most m each must sum exactly in int32
        forest = two_tree_forest()
        with pytest.raises(ValueError, match="2\\*\\*31"):
            make_model(forest, np.zeros((1, 2, 2), dtype=np.int64), m=2**30)

    @pytest.mark.parametrize(
        "trees, depth, m, message",
        [(1, 30, 10, "split labels need T * (2**p - 1) * 8 = 1 * 1073741823 * 8 = "
                     "8589934584 bytes, over the budget of 1073741824"),
         (20, 20, 1, "leaf counts need T * 2**p * S * 4 = 20 * 1048576 * 100 * 4 = "
                     "8388608000 bytes, over the budget of 1073741824"),
         (1, 20000, 10, "forest too large: n_trees * 2**depth must stay below 2**31")],
        ids=["labels-8GiB", "counts-8GiB", "depth-20000"],
    )
    def test_arrays_past_byte_budget_refused_unbuilt(self, monkeypatch, trees, depth, m,
                                                     message):
        # the first two used to pass every guard and allocate 8 GiB; a depth
        # whose 2**p has thousands of digits is refused before it is printed
        def no_forest(*args):
            raise AssertionError("a forest was built past the byte budget")

        monkeypatch.setattr(estimator, "build_forest", no_forest)
        config = EstimatorConfig(m=m, trees=trees, depth=depth, seed=0, box=UNIT2)
        with pytest.raises(ValueError, match=re.escape(message)):
            fit(np.random.default_rng(0).random((100, 2)), config)

    @pytest.mark.parametrize(
        "m, size, what",
        [(10, 2 * 4 * 4 * 4, "leaf counts"), (40, 2 * 3 * 8, "split labels")],
        ids=["counts-larger", "labels-larger"],
    )
    def test_byte_budget_edge(self, monkeypatch, m, size, what):
        # T = 2, p = 2 on 40 points: S = 4 blocks of 10 or one block of 40;
        # the larger array fits a budget of exactly its size, not one below
        data = np.random.default_rng(0).random((40, 2))
        config = EstimatorConfig(m=m, trees=2, depth=2, seed=0, box=UNIT2)
        monkeypatch.setattr(estimator, "_BYTE_BUDGET", size)
        fit(data, config)
        built = []
        monkeypatch.setattr(estimator, "_BYTE_BUDGET", size - 1)
        monkeypatch.setattr(estimator, "build_forest", lambda *args: built.append(args))
        monkeypatch.setattr(estimator.np, "zeros", lambda *args, **kw: built.append(args))
        with pytest.raises(ValueError, match=f"the {what} need .* = {size} bytes, over the "
                                             f"budget of {size - 1}"):
            fit(data, config)
        assert built == []


class TestNormalizer:
    def test_full_histogram_integrates_to_one(self):
        data = np.random.default_rng(17).random((64, 2))
        model = fit(data, EstimatorConfig(m=64, trees=1, depth=3, seed=8, box=UNIT2))
        assert model.normalizer == pytest.approx(1.0, abs=1e-12)

    def test_exact_vs_aligned_grid(self):
        # a lattice with 4 * 2**p nodes per axis gives every dyadic cell the
        # same number of nodes, so both quadratures integrate the same
        # piecewise-constant function
        rng = np.random.default_rng(23)
        for p in (1, 3, 6):
            data = rng.random((160, 2))
            exact = fit(
                data,
                EstimatorConfig(
                    m=20, trees=4, depth=p, seed=p,
                    quadrature=Quadrature(method="exact-dyadic"), box=UNIT2,
                ),
            )
            grid = fit(
                data,
                EstimatorConfig(
                    m=20, trees=4, depth=p, seed=p,
                    quadrature=Quadrature(method="regular-grid", grid_points=4 * 2**p),
                    box=UNIT2,
                ),
            )
            assert grid.normalizer == pytest.approx(exact.normalizer, rel=1e-9)

    def test_monte_carlo_within_three_se(self):
        data = np.random.default_rng(29).random((200, 2))
        base = EstimatorConfig(m=40, trees=5, depth=4, seed=11, box=UNIT2)
        exact = fit(data, base)
        n_draws = 200_000
        mc = fit(
            data,
            dataclasses.replace(
                base, quadrature=Quadrature(method="monte-carlo", mc_draws=n_draws)
            ),
        )
        # CLT oracle: estimate the standard error from an independent sample
        rng = np.random.default_rng(31)
        probe = rng.random((n_draws, 2))
        from mfrde.estimator import _median_values

        vals = _median_values(exact.forest, exact.leaf_counts, exact.m, probe)
        se = UNIT2.volume * vals.std(ddof=1) / math.sqrt(n_draws)
        assert abs(mc.normalizer - exact.normalizer) <= 3.0 * se

    def test_exact_over_budget_instructs_fallback(self):
        data = np.random.default_rng(3).random((40, 2))
        cfg = EstimatorConfig(
            m=10, trees=2, depth=13, seed=0, box=UNIT2,
            quadrature=Quadrature(method="exact-dyadic"),
        )
        with pytest.raises(ValueError, match="regular-grid or monte-carlo"):
            fit(data, cfg)

    def test_auto_falls_back_to_grid(self, monkeypatch):
        monkeypatch.setattr(estimator, "_CELL_BUDGET", 4)
        data = np.random.default_rng(3).random((40, 2))
        cfg = EstimatorConfig(m=10, trees=2, depth=4, seed=0, box=UNIT2)
        model = fit(data, cfg)
        assert model.quadrature.method == "regular-grid"
        assert model.quadrature.grid_points == 2

    def test_auto_grid_within_budget(self):
        # d = 5, p = 6: 2**30 cells and a 100**5 grid are both over the
        # 2**24 budget; 27**5 fits and 28**5 does not (one tree, one block)
        quad = estimator._plan(1, 6, 1, 1, 5, Quadrature()).quadrature
        assert quad.method == "regular-grid"
        assert quad.grid_points == 27

    def test_auto_over_budget_raises(self, monkeypatch):
        monkeypatch.setattr(estimator, "_CELL_BUDGET", 7)
        with pytest.raises(ValueError, match="budget of 7 nodes; use monte-carlo"):
            estimator._plan(1, 4, 1, 1, 3, Quadrature())

    def test_explicit_grid_over_budget_raises(self):
        # 10**12 nodes in d = 3; 256**3 is exactly the 2**24 budget
        with pytest.raises(ValueError, match=re.escape(
                "G**d = 10000**3 = 1000000000000 nodes, over the budget of 16777216")):
            estimator._plan(1, 6, 1, 1, 3, Quadrature.parse("grid:10000"))
        with pytest.raises(ValueError, match="257\\*\\*3 = 16974593 nodes"):
            estimator._plan(1, 6, 1, 1, 3, Quadrature.parse("grid:257"))
        for spec, d in (("grid:256", 3), ("grid:100", 2)):
            quad = Quadrature.parse(spec)
            assert estimator._plan(1, 8, 1, 1, d, quad).quadrature == quad

    def test_explicit_grid_over_budget_checked_before_forest(self, monkeypatch):
        def no_forest(*args):
            raise AssertionError("a forest was built for an over-budget grid")

        monkeypatch.setattr(estimator, "build_forest", no_forest)
        config = EstimatorConfig(m=10, trees=2, depth=2, seed=0, box=UNIT2,
                                 quadrature=Quadrature.parse("grid:4097"))
        with pytest.raises(ValueError, match="over the budget"):
            fit(np.random.default_rng(0).random((40, 2)), config)

    def test_explicit_mc_over_budget_checked_before_forest(self, monkeypatch):
        # an explicit draw count used to run whatever its size
        def no_forest(*args):
            raise AssertionError("a forest was built for an over-budget draw count")

        monkeypatch.setattr(estimator, "_CELL_BUDGET", 16)
        assert estimator._plan(1, 8, 1, 1, 3, Quadrature.parse("mc:16")).quadrature.mc_draws == 16
        with pytest.raises(ValueError, match=re.escape(
                "monte-carlo quadrature asks for 17 draws, over the budget of 16")):
            estimator._plan(1, 1, 1, 1, 1, Quadrature.parse("mc:17"))
        monkeypatch.setattr(estimator, "build_forest", no_forest)
        config = EstimatorConfig(m=10, trees=2, depth=2, seed=0, box=UNIT2,
                                 quadrature=Quadrature.parse("mc:17"))
        with pytest.raises(ValueError, match="17 draws, over the budget of 16"):
            fit(np.random.default_rng(0).random((40, 2)), config)


# Every refusal the fit plan owns: the EstimatorConfig fields a fit of 100
# points refuses, the header fields (quadrature sizes are params) that make
# a saved model of those points (T = 2, p = 2, m = 10) ask for the same
# sizes, and the message both give.
PLAN_REFUSALS = {
    "count-range": ({"m": 2**30}, {"m": 2**30},
                    "trees * m = 2147483648 must stay below 2**31 for int32 leaf counts"),
    "forest-size": ({"trees": 1, "depth": 20000}, {"T": 1, "p": 20000},
                    "forest too large: n_trees * 2**depth must stay below 2**31"),
    "label-bytes": ({"trees": 1, "depth": 30}, {"T": 1, "p": 30},
                    "the split labels need T * (2**p - 1) * 8 = 1 * 1073741823 * 8 = "
                    "8589934584 bytes, over the budget of 1073741824; use fewer trees, "
                    "less depth or larger blocks"),
    "count-bytes": ({"trees": 20, "depth": 20, "m": 1}, {"T": 20, "p": 20, "m": 1},
                    "the leaf counts need T * 2**p * S * 4 = 20 * 1048576 * 100 * 4 = "
                    "8388608000 bytes, over the budget of 1073741824; use fewer trees, "
                    "less depth or larger blocks"),
    "exact-cells": ({"depth": 13, "quadrature": "exact"}, {"p": 13},
                    "exact-dyadic quadrature needs 2**(p*d) = 67108864 cells, over the "
                    "budget of 16777216; use regular-grid or monte-carlo"),
    "grid-nodes": ({"quadrature": "grid:4097"}, {"points_per_axis": 4097},
                   "regular-grid quadrature needs G**d = 4097**2 = 16785409 nodes, over "
                   "the budget of 16777216; use fewer points per axis or monte-carlo"),
    "mc-draws": ({"quadrature": "mc:16777217"}, {"draws": 16777217},
                 "monte-carlo quadrature asks for 16777217 draws, over the budget of "
                 "16777216; use fewer draws"),
}


class TestFitPlan:
    @pytest.mark.parametrize("case", list(PLAN_REFUSALS))
    def test_fit_and_load_refuse_alike(self, tmp_path, monkeypatch, case):
        fields, header, message = PLAN_REFUSALS[case]
        quad = Quadrature.parse(fields.get("quadrature", "auto"))
        small = {"auto": "auto", "exact-dyadic": "exact", "regular-grid": "grid:7",
                 "monte-carlo": "mc:500"}[quad.method]
        data = np.random.default_rng(1).random((100, 2))
        base = dict(m=10, trees=2, depth=2, seed=1, box=UNIT2)
        path = tmp_path / "model.json"
        save_model(fit(data, EstimatorConfig(**base, quadrature=Quadrature.parse(small))), path)
        doc = json.loads(path.read_text())
        for key, value in header.items():
            (doc["quadrature"]["params"] if key in ("points_per_axis", "draws") else doc)[
                key] = value
        path.write_text(json.dumps(doc))
        ran = []
        for owner, name in ((estimator, "build_forest"), (estimator, "assign_blocks"),
                            (estimator, "Forest"), (estimator, "_decode_counts"),
                            (estimator, "_compute_normalizer"), (estimator, "_integrate"),
                            (estimator.np, "zeros")):
            monkeypatch.setattr(owner, name, lambda *args, name=name, **kw: ran.append(name))
        with pytest.raises(ValueError) as fit_refusal:
            fit(data, EstimatorConfig(**{**base, **fields, "quadrature": quad}))
        with pytest.raises(ValueError) as load_refusal:
            load_model(path)
        assert str(fit_refusal.value) == message
        assert str(load_refusal.value) == f"malformed model file: {message}"
        assert ran == []

    def test_auto_bounds_gathered_counts(self):
        # d = 3, p = 8, T = 20, S = 10: the 2**24 cells fit the node budget,
        # but exact-dyadic gathers 2**24 * 200 = 3.4e9 counts (a 7.6-s fit);
        # the 100**3 grid gathers 2.0e8
        plan = estimator._plan(20, 8, 3000, 30_000, 3, Quadrature())
        assert plan.blocks == 10
        assert plan.quadrature == Quadrature(method="regular-grid", grid_points=100)
        assert 100**3 * 20 * 10 <= estimator._WORK_BUDGET < 2**24 * 20 * 10
        # an explicit method keeps the node budget only
        exact = Quadrature(method="exact-dyadic")
        assert estimator._plan(20, 8, 3000, 30_000, 3, exact).quadrature == exact

    @pytest.mark.parametrize(
        "budget, resolved",
        [(16 * 8, Quadrature(method="exact-dyadic")),
         (16 * 8 - 1, Quadrature(method="regular-grid", grid_points=3)),
         (4 * 8 - 1, None)],
        ids=["exact-at-budget", "grid-below", "none"],
    )
    def test_auto_work_budget_edge(self, monkeypatch, budget, resolved):
        # 2**(2*2) = 16 cells at T * S = 2 * 4 = 8 counts per node: exact-dyadic
        # fits 128 gathered counts; at 127 the budget allows 15 nodes, so 3**2;
        # at 31 it allows 3, fewer than a 2**2 grid
        monkeypatch.setattr(estimator, "_WORK_BUDGET", budget)
        data = np.random.default_rng(0).random((40, 2))
        config = EstimatorConfig(m=10, trees=2, depth=2, seed=0, box=UNIT2)
        if resolved is not None:
            assert fit(data, config).quadrature == resolved
            return
        with pytest.raises(ValueError, match=re.escape(
                "neither 2**(p*d) = 16 dyadic cells nor a 2**d = 4-node grid fits both 31 "
                "gathered counts at T * S = 8 per node and the budget of 16777216 nodes; "
                "use monte-carlo")):
            fit(data, config)


def cell_path_spy(mp) -> list:
    """Record the size of every batch that looks its values up in a cell table."""
    seen = []
    original = geometry._bordered_index

    def spy(forest, pts):
        seen.append(len(pts))
        return original(forest, pts)

    mp.setattr(geometry, "_bordered_index", spy)
    return seen


def valid_counts(trees: int, leaves: int, s: int, m: int, seed: int) -> np.ndarray:
    """Block-major ``(S, T, leaves)`` counts, each block's total the same in every tree."""
    rng = np.random.default_rng(seed)
    totals = rng.integers(0, m + 1, size=s)
    return np.stack([rng.multinomial(c, [1 / leaves] * leaves, size=trees) for c in totals])


class TestLattice:
    """Quadrature bits pinned on a non-dyadic 3-D box.

    Each method spans several quadrature chunks, so the node values, their
    order, the chunking and the final ``fsum`` all show in the bits.
    """

    BOX = Box((-0.3, 2.0, 1e3), (1.7, 2.1, 1.5e3))

    @pytest.mark.parametrize(
        "spec, nodes, normalizer, integral",
        [
            ("exact", 2**18, "0x1.a384444444444p-1", "0x1.0000000000001p+0"),
            ("grid:37", 37**3, "0x1.b32f72aa81f44p-1", "0x1.0000000000000p+0"),
            ("mc:70000", 70000, "0x1.a0a7a5b7633e8p-1", "0x1.0000000000001p+0"),
        ],
    )
    def test_pinned_bits(self, spec, nodes, normalizer, integral):
        assert nodes > estimator._QUAD_CHUNK
        box = self.BOX
        rng = np.random.default_rng(7)
        pts = box.lo_array + (box.hi_array - box.lo_array) * rng.random((600, 3)) ** 2
        model = fit(pts, EstimatorConfig(m=60, trees=4, depth=6, seed=5, box=box,
                                         quadrature=Quadrature.parse(spec)))
        assert model.normalizer.hex() == normalizer
        assert integrate_estimate(model).hex() == integral

    @pytest.mark.parametrize("chunk", [37, None])
    @pytest.mark.parametrize("d, p", [(1, 16), (2, 8), (3, 6)])
    def test_cell_chunks_are_the_packed_order(self, chunk, d, p):
        # the lattice's chunks of cell codes and the cell index share one C order
        start = 0
        for codes in geometry._lattice([np.arange(2**p, dtype=np.int32)] * d,
                                       chunk or estimator._QUAD_CHUNK):
            assert codes.dtype == np.int32
            assert np.array_equal(geometry._pack(codes, p), np.arange(start, start + len(codes)))
            start += len(codes)
        assert start == 2 ** (p * d)

    def test_median_chunks_do_not_change_bits(self, monkeypatch):
        # S = 20 blocks on 4096 cells, past a table budget set to 0: the
        # 1600 grid nodes and the 2000 queries walk their own leaves.  Walks
        # of 700 points cut both with ragged tails, and gather sub-chunks of
        # 300 points cut every walk, again with a ragged tail.  Every run
        # gives the bits of the in-budget model's lookups
        data, cfg, probe = self.chunk_case(depth=6)
        looked_up = evaluate_batch(fit(data, cfg), probe)
        monkeypatch.setattr(estimator, "_TABLE_CELLS", 0)
        walked = self.check_chunks(monkeypatch, depth=6, lookups=[])
        assert walked.tobytes() == looked_up.tobytes()

    def test_cell_table_chunks_do_not_change_bits(self, monkeypatch):
        # 1024 cells: the nodes and the queries take the cell path.  The
        # gather sub-chunks cut the 1024-cell table; the 700-point chunks
        # cut only walks, so each lookup stays one batch
        self.check_chunks(monkeypatch, depth=5, lookups=[1600, 2000])

    @staticmethod
    def chunk_case(depth: int):
        """S = 20 blocks of a depth-``depth`` grid:40 fit, and 2000 queries."""
        data = np.random.default_rng(4).random((400, 2)) ** 2
        cfg = EstimatorConfig(m=20, trees=3, depth=depth, seed=2, box=UNIT2,
                              quadrature=Quadrature(method="regular-grid", grid_points=40))
        return data, cfg, np.random.default_rng(5).random((2000, 2))

    @classmethod
    def check_chunks(cls, monkeypatch, depth: int, lookups: list) -> np.ndarray:
        """Fit and query a :meth:`chunk_case` model whole, then with 700-point
        walks and 300-point gathers; ``lookups`` are the batch sizes both
        runs look up in a cell table.  Returns the queries' densities."""
        data, cfg, probe = cls.chunk_case(depth)
        seen = cell_path_spy(monkeypatch)
        model = fit(data, cfg)
        dens = evaluate_batch(model, probe)
        assert seen == lookups
        monkeypatch.setattr(estimator, "_WALK_POINTS", 700)
        monkeypatch.setattr(estimator, "_GATHER_ELEMS", 20 * 300)
        seen.clear()
        chunked = fit(data, cfg)
        assert chunked.normalizer == model.normalizer
        assert evaluate_batch(chunked, probe).tobytes() == dens.tobytes()
        assert seen == lookups
        return dens

    def test_median_kernel_memory_is_bounded(self, monkeypatch):
        # 65 536 cells, past a table budget set to 0, so the 40k queries
        # walk their own leaves.  The counts are built, not fitted: at depth
        # 8, 20 points a block leave the median zero almost everywhere, and
        # fit refuses that model
        monkeypatch.setattr(estimator, "_TABLE_CELLS", 0)
        self.check_memory(monkeypatch, depth=8, cell_path=False)

    def test_cell_table_memory_is_bounded(self, monkeypatch):
        # 64 cells: the 40k queries look up the cell table
        self.check_memory(monkeypatch, depth=3, cell_path=True)

    def test_walks_hold_one_chunk_of_leaf_ids(self, monkeypatch):
        # 2.5 walks of 4096 points at T = 64, in fit's leaf counts and in a
        # query batch of a model past the table budget (set to 0 here): each
        # walk's (4096, 64) int32 ids are 1 MiB, and are freed before the
        # next walk's exist.  Holding two walks' ids at once would put
        # either peak near 2.6 MiB
        monkeypatch.setattr(estimator, "_WALK_POINTS", 4096)
        monkeypatch.setattr(estimator, "_TABLE_CELLS", 0)
        n, trees = 10_240, 64
        data = np.random.default_rng(6).random((n, 2))
        probe = np.random.default_rng(7).random((n, 2))
        cfg = EstimatorConfig(m=n // 4, trees=trees, depth=2, seed=4, box=UNIT2)
        deep = fit(data, dataclasses.replace(cfg, depth=7))
        assert deep._cells is None
        peaks = []
        for run in (lambda: fit(data, cfg), lambda: evaluate_batch(deep, probe)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        walk_ids = 4096 * trees * 4
        # one walk's ids, their temporaries, and the per-point arrays
        assert max(peaks) < 1.5 * walk_ids + 32 * n, peaks

    @staticmethod
    def check_memory(monkeypatch, depth: int, cell_path: bool) -> None:
        """S = 400 blocks, 40k queries: the kernel's temporaries stay
        cache-sized instead of growing with the chunk times S."""
        forest = build_forest(UNIT2, depth, 4, seed=1)
        model = make_model(forest, valid_counts(4, 2**depth, 400, 20, seed=8), m=20)
        assert model.n_blocks == 400
        assert (model._cells is not None) == cell_path
        probe = np.random.default_rng(9).random((40_000, 2))
        seen = cell_path_spy(monkeypatch)
        tracemalloc.start()
        try:
            evaluate_batch(model, probe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bool(seen) == cell_path
        assert peak < 16 * 2**20


# (T, m) with T * m one below 2**16, where tree sums fit uint16, and at 2**16.
NARROW_EDGE = [(t, (2**16 - 1) // t) for t in (1, 3, 5, 15, 17)]
WIDE_EDGE = [(t, 2**16 // t) for t in (1, 2, 4, 8, 16)]
# k = p, k = 0 and 0 < k < p: the geometry budgets behind each table regime.
REGIMES = {
    "full": ({}, lambda k, p: k == p),
    "walk": ({"_TABLE_BYTES": 0}, lambda k, p: k == 0),
    "partial": ({"_TABLE_LEAVES": 40}, lambda k, p: 0 < k < p),
}


@st.composite
def offset_boxes(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    lo = draw(st.lists(st.floats(-1e6, 1e6 - 1e-3), min_size=d, max_size=d))
    extent = [draw(st.floats(1e-3, 1e6 - a)) for a in lo]
    return Box(tuple(lo), tuple(a + w for a, w in zip(lo, extent)))


def edge_counts(trees: int, leaves: int, s: int, m: int, seed: int) -> np.ndarray:
    """``(T, leaves, S)`` counts up to ``m``, all ``m`` in leaf 0: a tree sum of ``T * m``."""
    counts = np.random.default_rng(seed).integers(0, m + 1, size=(trees, leaves, s))
    counts[:, 0, :] = m
    return counts.astype(np.int32)


def dtype_spy(monkeypatch) -> list:
    """Record the integer type of every tree sum the median kernel takes."""
    seen = []
    original = estimator._per_tree_sums

    def spy(leaf_major, ids, out):
        seen.append(out.dtype)
        return original(leaf_major, ids, out)

    monkeypatch.setattr(estimator, "_per_tree_sums", spy)
    return seen


class TestCodePathNormalizer:
    """The exact-dyadic normalizer from cell codes against the float-centre oracle.

    The oracle is the quadrature of the naive median at the float cell
    centres, each through its own ``leaf_indices`` walk
    (``conftest.walked_medians``, never the per-cell table), with int64
    sums; the table the normalizer fills holds its values.  Cells here are at
    least ``1e-3 / 2**12`` wide at offsets up to ``1e6``, far above a few
    ulps, so both sides see the same cells and must agree bit for bit.
    """

    @pytest.mark.parametrize("regime", list(REGIMES))
    @settings(max_examples=60, deadline=None)
    @given(box=offset_boxes(), data=st.data())
    def test_matches_float_centre_oracle(self, regime, box, data):
        budgets, in_regime = REGIMES[regime]
        p = data.draw(st.integers(0, 12 // box.d), label="p")
        trees, m = data.draw(st.sampled_from(NARROW_EDGE + WIDE_EDGE), label="T, m")
        s = data.draw(st.integers(1, 4), label="S")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        chunks = data.draw(st.sampled_from([{}, {"_QUAD_CHUNK": 37}]), label="chunks")
        walk = data.draw(st.sampled_from([{}, {"_WALK_CHUNK": 16}]), label="walk")
        quad = Quadrature(method="exact-dyadic")
        with pytest.MonkeyPatch.context() as mp:
            for name, value in {**budgets, **walk}.items():
                mp.setattr(geometry, name, value)
            for name, value in chunks.items():
                mp.setattr(estimator, name, value)
            forest = build_forest(box, p, trees, seed)
            k = (forest._leaf_table.shape[1].bit_length() - 1) // box.d
            assume(in_regime(k, p))
            counts = edge_counts(trees, 2**p, s, m, seed)
            centres = []
            oracle = estimator._integrate(
                box, p, quad, 0,
                lambda q: centres.append(walked_medians(forest, counts, m, q)) or centres[-1],
            )
            seen = dtype_spy(mp)
            z, table = estimator._compute_normalizer(forest, counts, m, quad, 0)
        assert z == oracle
        assert table.tobytes() == np.concatenate(centres).tobytes()
        assert set(seen) == {np.dtype(np.uint16 if trees * m < 2**16 else np.int32)}

    @pytest.mark.parametrize("spec", ["exact", "grid:9", "mc:3000"])
    @pytest.mark.parametrize("trees, m", [NARROW_EDGE[2], WIDE_EDGE[2]])
    def test_every_method_sums_narrow_below_2_16(self, monkeypatch, spec, trees, m):
        box = Box((0.0, -3.0), (5.0, 4.0))
        forest = build_forest(box, 3, trees, seed=5)
        counts = edge_counts(trees, 8, 3, m, seed=6)
        quad = Quadrature.parse(spec)
        oracle = estimator._integrate(
            box, 3, quad, 11, lambda q: walked_medians(forest, counts, m, q)
        )
        seen = dtype_spy(monkeypatch)
        assert estimator._compute_normalizer(forest, counts, m, quad, 11)[0] == oracle
        assert set(seen) == {np.dtype(np.uint16 if trees * m < 2**16 else np.int32)}


def edge_model(trees: int, m: int, seed: int) -> FittedMFRDE:
    """A valid depth-3, S = 3 model whose tree sums reach ``T * m`` at the box's low corner.

    Blocks 0 and 1 hold all ``m`` points in leaf 0 of every tree, where
    the low corner lies, so the median there is the sum ``T * m``; block 2
    spreads a random total over random leaves.
    """
    rng = np.random.default_rng(seed)
    forest = build_forest(Box((0.0, -3.0), (5.0, 4.0)), 3, trees, seed=seed)
    counts = np.zeros((3, trees, 8), dtype=np.int64)
    counts[:2, :, 0] = m
    counts[2] = rng.multinomial(int(rng.integers(0, m + 1)), [1 / 8] * 8, size=trees)
    return make_model(forest, counts, m=m, normalizer=0.75)


class TestSumDtype:
    """Every tree sum follows the normalizer's rule: uint16 exactly when ``T * m < 2**16``."""

    @pytest.mark.parametrize("trees, m", NARROW_EDGE + WIDE_EDGE)
    def test_queries_sum_narrow_below_2_16(self, monkeypatch, trees, m):
        # an in-budget model's table is built by the rule and its queries
        # sum nothing; past the budget (set to 0) every query sums by it
        narrow = {np.dtype(np.uint16 if trees * m < 2**16 else np.int32)}
        seen = dtype_spy(monkeypatch)
        model = edge_model(trees, m, seed=trees)
        assert set(seen) == narrow
        box = model.box
        inner = np.random.default_rng(m).random((40, 2))
        pts = np.concatenate([[box.lo, box.hi, (6.0, 0.0)],
                              box.lo_array + (box.hi_array - box.lo_array) * inner])
        oracle = walked_densities(model, pts)
        assert oracle[0] == trees * m / estimator._density_denom(model.forest, m) / trees / 0.75
        monkeypatch.setattr(estimator, "_TABLE_CELLS", 0)
        walking = dataclasses.replace(model)
        assert walking._cells is None
        for each, sums in ((model, set()), (walking, narrow)):
            seen.clear()
            batch = evaluate_batch(each, pts)
            assert set(seen) == sums
            assert batch.tobytes() == oracle.tobytes()
            seen.clear()
            assert np.array([evaluate(each, x) for x in pts]).tobytes() == batch.tobytes()
            assert set(seen) == sums

    @pytest.mark.parametrize("trees, m", [NARROW_EDGE[0], NARROW_EDGE[-1], WIDE_EDGE[0],
                                          WIDE_EDGE[-1]])
    def test_summed_counts_read_only(self, tmp_path, monkeypatch, trees, m):
        # only a model past the table budget (set to 0) keeps the sums' array
        monkeypatch.setattr(estimator, "_TABLE_CELLS", 0)
        model = edge_model(trees, m, seed=1)
        path = tmp_path / "model.json"
        save_model(model, path)
        for each in (model, load_model(path)):
            summed = each._sum_counts
            assert not summed.flags.writeable
            assert np.array_equal(summed, each.leaf_counts)
            if trees * m < 2**16:
                assert summed.dtype == np.uint16 and summed.flags.c_contiguous
            else:
                assert summed is each.leaf_counts


def walk_spy(monkeypatch) -> list:
    """Record each tree-sum and leaf-walk call, and on how many points."""
    seen = []
    for name in ("_per_tree_sums", "leaf_indices"):
        original = getattr(estimator, name)

        def spy(*args, name=name, original=original, **kwargs):
            seen.append((name, len(args[1] if len(args) > 1 else kwargs["points"])))
            return original(*args, **kwargs)

        monkeypatch.setattr(estimator, name, spy)
    return seen


class TestTreeSums:
    """The per-tree loop sums exactly; only a model past the table budget takes it."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_per_tree_loop_equals_int64_sums(self, data):
        trees = data.draw(st.integers(1, 20), label="T")
        p = data.draw(st.integers(0, 8), label="p")
        s = data.draw(st.integers(1, 120), label="S")
        wide = data.draw(st.booleans(), label="int32 sums")
        # tree sums reach T * m in leaf 0: one below 2**16 in uint16, near 2**31 in int32
        m = (2**31 - 1) // trees if wide else (2**16 - 1) // trees
        n = data.draw(st.integers(1, 600), label="n")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        counts = estimator._summed_counts(edge_counts(trees, 2**p, s, m, seed), trees, m)
        assert counts.dtype == (np.int32 if wide else np.uint16)
        ids = np.random.default_rng(seed).integers(0, 2**p, size=(n, trees), dtype=np.int32)
        ids[0] = 0
        oracle = counts.astype(np.int64)[np.arange(trees), ids].sum(axis=1)
        assert oracle[0].tolist() == [trees * m] * s
        out = np.full((n, s), 7, dtype=counts.dtype)
        assert estimator._per_tree_sums(counts, ids, out) is out
        assert out.tobytes() == oracle.astype(counts.dtype).tobytes()

    @pytest.fixture(scope="class")
    def big_blocks_model(self, tmp_path_factory):
        """A loaded model of big-blocks' shape: (d, p, T, S) = (2, 8, 12, 10), m = 10 000."""
        forest = build_forest(Box((0.0, 0.0), (5.0, 5.0)), 8, 12, seed=3)
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(make_model(forest, valid_counts(12, 256, 10, 10_000, seed=4), 10_000), path)
        return load_model(path)

    def test_single_query_is_one_lookup(self, monkeypatch, big_blocks_model):
        # one bordered index and its take: no tree sum, no walk, no box test
        seen, cells = walk_spy(monkeypatch), cell_path_spy(monkeypatch)
        box_tests, contains_rows = [], Box.contains_rows
        monkeypatch.setattr(Box, "contains_rows", lambda self, pts: (
            box_tests.append(len(pts)) or contains_rows(self, pts)))
        for x in ((1.3, 2.7), (5.0, 5.0), (-1.0, 2.7), (np.inf, 0.0)):
            evaluate(big_blocks_model, x)
        assert seen == [] and cells == [1] * 4 and box_tests == []

    def test_large_batch_keeps_the_per_tree_loop(self, monkeypatch, big_blocks_model):
        # past the table budget (set to 0 here); within it, no tree is summed
        probe = np.random.default_rng(5).random((20_000, 2)) * 5
        seen = walk_spy(monkeypatch)
        looked_up = evaluate_batch(big_blocks_model, probe)
        assert seen == []
        monkeypatch.setattr(estimator, "_TABLE_CELLS", 0)
        walking = dataclasses.replace(big_blocks_model)
        assert evaluate_batch(walking, probe).tobytes() == looked_up.tobytes()
        assert {name for name, _ in seen} == {"_per_tree_sums", "leaf_indices"}
        assert sum(n for name, n in seen if name == "leaf_indices") == 20_000

    def test_scalar_and_batch_agree_across_the_threshold(self, monkeypatch, big_blocks_model):
        # a table budget of exactly the 258**2 entries of the bordered
        # 65 536 cells keeps the table, one below it walks: scalar and
        # batch give one set of bytes either way
        probe = np.random.default_rng(6).random((300, 2)) * 6 - 0.5
        probe[:4] = [big_blocks_model.box.lo, big_blocks_model.box.hi, (2.5, 2.5), (5.0, 0.0)]
        results = set()
        for budget, tabulated in ((258**2, True), (258**2 - 1, False)):
            monkeypatch.setattr(estimator, "_TABLE_CELLS", budget)
            model = dataclasses.replace(big_blocks_model)
            assert (model._cells is not None) == tabulated
            batch = evaluate_batch(model, probe)
            assert np.array([evaluate(model, x) for x in probe]).tobytes() == batch.tobytes()
            results.add(batch.tobytes())
        assert results == {walked_densities(big_blocks_model, probe).tobytes()}


def mesh_points(box: Box, p: int, n: int, seed: int) -> np.ndarray:
    """``n`` points of the box: about a third of the coordinates on a depth-``p``
    breakpoint, the faces included, and the last point the upper corner."""
    rng = np.random.default_rng(seed)
    mesh = geometry._breakpoints(box, p)
    pts = np.minimum(box.lo_array + (box.hi_array - box.lo_array) * rng.random((n, box.d)),
                     box.hi_array)
    on = rng.random((n, box.d)) < 1 / 3
    pts[on] = mesh[np.arange(box.d), rng.integers(0, 2**p + 1, size=(n, box.d))][on]
    pts[-1] = box.hi
    return pts


class TestCellPath:
    """A model's cell table takes the median once per cell of the forest's
    common refinement; every value looked up in it equals the point's own
    walk, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(box=offset_boxes(), data=st.data())
    def test_cell_path_equals_point_path(self, box, data):
        # T = 1 gives the longest runs of cells with one leaf id tuple;
        # chunks of 37 and of 2**p - 1 cells cut them inside a row, and the
        # "walk" and "partial" budgets take the cells' ids from their codes
        d = box.d
        p = data.draw(st.integers(0, min(6, 12 // d)), label="p")
        trees = data.draw(st.integers(1, 4), label="T")
        s = data.draw(st.integers(1, 5), label="S")
        wide = data.draw(st.booleans(), label="int32 sums")
        m = -(-(2**16) // trees) if wide else data.draw(st.integers(1, 9), label="m")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        chunk = data.draw(st.sampled_from([None, 37, 2**p - 1]), label="_QUAD_CHUNK")
        budgets = REGIMES[data.draw(st.sampled_from(list(REGIMES)), label="table")][0]
        with pytest.MonkeyPatch.context() as mp:
            for name, value in budgets.items():
                mp.setattr(geometry, name, value)
            forest = build_forest(box, p, trees, seed)
        cells = 2 ** (p * d)
        walked, lattice = [], geometry._lattice

        def lattice_spy(axes, step):
            # the refinement's cell codes, which it walks to ids chunk by chunk
            for codes in lattice(axes, step):
                walked.append(len(codes))
                yield codes

        with pytest.MonkeyPatch.context() as mp:
            if chunk:
                mp.setattr(estimator, "_QUAD_CHUNK", chunk)
            mp.setattr(geometry, "_lattice", lattice_spy)
            sums = dtype_spy(mp)
            model = make_model(forest, valid_counts(trees, 2**p, s, m, seed), m, 0.75)
        # the model's one table walks every cell's codes, unless the
        # forest's id table is as deep as its trees
        assert sum(walked) == (cells if forest._leaf_table.shape[1] < cells else 0)
        assert set(sums) == {np.dtype(np.int32 if wide else np.uint16)}
        with pytest.MonkeyPatch.context() as mp:
            seen = cell_path_spy(mp)
            for n in (1, cells - 1, cells, cells + 1):
                if n < 1:
                    continue
                pts = mesh_points(box, p, n, seed)
                oracle = walked_medians(forest, model.leaf_counts, m, pts) / 0.75
                seen.clear()
                batch = evaluate_batch(model, pts)
                assert seen == [n]
                assert batch.tobytes() == oracle.tobytes()
        assert np.array([evaluate(model, x) for x in pts]).tobytes() == batch.tobytes()

    @pytest.mark.parametrize("chunk", [None, 20, 6])
    @pytest.mark.parametrize("spec", ["grid:5", "grid:3", "mc:40", "mc:7"])
    @pytest.mark.parametrize("trees, m", [NARROW_EDGE[2], WIDE_EDGE[2]])
    def test_grid_and_mc_normalizers_equal_the_point_path(self, monkeypatch, chunk, spec,
                                                          trees, m):
        # 16 cells, 36 with the border, within the table budget: every
        # method builds the table once and looks up every node in it,
        # whether it has more nodes than cells or fewer.  A 20-node chunk
        # splits grid:5 into chunks of 20 and 5 nodes, and 6-node chunks are
        # all smaller than the cell count.  With the budget one entry short,
        # every node walks its leaves
        box = Box((0.0, -3.0), (5.0, 4.0))
        forest = build_forest(box, 2, trees, seed=5)
        counts = edge_counts(trees, 4, 3, m, seed=6)
        quad = Quadrature.parse(spec)
        if chunk:
            monkeypatch.setattr(estimator, "_QUAD_CHUNK", chunk)
        summed = estimator._summed_counts(counts, trees, m)
        oracle = estimator._integrate(
            box, 2, quad, 11, lambda q: walked_medians(forest, summed, m, q)
        )
        seen, tables, cell_medians = cell_path_spy(monkeypatch), [], estimator._cell_medians
        monkeypatch.setattr(estimator, "_cell_medians",
                            lambda *args: tables.append(args) or cell_medians(*args))
        nodes = quad.grid_points**2 if quad.method == "regular-grid" else quad.mc_draws
        step = chunk or nodes
        for budget, tabulated in ((36, True), (35, False)):
            monkeypatch.setattr(estimator, "_TABLE_CELLS", budget)
            seen.clear()
            tables.clear()
            z, table = estimator._compute_normalizer(forest, counts, m, quad, 11)
            assert z == oracle
            assert seen == ([min(step, nodes - a) for a in range(0, nodes, step)]
                            if tabulated else [])
            assert len(tables) == tabulated
            # the table it built comes back, for the fitted model to keep
            assert (table is not None) == tabulated

    @pytest.mark.parametrize("d, p, trees, seed, chunk, share", [
        # the served forest shape: about an eighth of the 65 536 cells are corners
        (2, 8, 12, 1, None, 0.15),
        (2, 8, 12, 2, None, 0.15),
        # chunks of 5 cells: cell 6, (1, 1, 0), is a corner, though cell 5,
        # (1, 0, 1), one step back across a row edge, has its ids
        (3, 1, 1, 1, 5, 1.0),
    ])
    def test_cell_table_takes_one_median_per_corner(self, monkeypatch, d, p, trees, seed,
                                                    chunk, share):
        # only the corners reach the median kernel, and every cell gets its
        # own walk's value
        if chunk:
            monkeypatch.setattr(estimator, "_QUAD_CHUNK", chunk)
        box = Box((0.0,) * d, (5.0,) * d)
        forest = build_forest(box, p, trees, seed)
        summed = estimator._summed_counts(edge_counts(trees, 2**p, 5, 400, seed), trees, 400)
        rows, kth = [], estimator._kth_densities
        monkeypatch.setattr(estimator, "_kth_densities",
                            lambda *args: rows.append(len(args[3])) or kth(*args))
        table = estimator._cell_table(forest, summed, 400)
        assert sum(rows) == dyadic_corners(forest, estimator._QUAD_CHUNK) <= share * 2 ** (p * d)
        centres = np.concatenate(list(geometry._lattice(
            [(np.arange(2**p) + 0.5) * 5 / 2**p] * d, estimator._QUAD_CHUNK)))
        assert table.tobytes() == walked_medians(forest, summed, 400, centres).tobytes()

    def test_exact_normalizer_sums_the_per_cell_medians(self):
        model = edge_model(3, 1000, seed=2)
        forest, counts = model.forest, model.leaf_counts
        chunks = list(estimator._cell_medians(forest, counts, model.m))
        centres = geometry._lattice([
            lo + (hi - lo) * (np.arange(8) + 0.5) / 8 for lo, hi in zip(model.box.lo,
                                                                        model.box.hi)],
            estimator._QUAD_CHUNK)
        oracle = np.concatenate([walked_medians(forest, counts, model.m, c) for c in centres])
        assert np.concatenate(chunks).tobytes() == oracle.tobytes()
        z, table = estimator._compute_normalizer(forest, model.leaf_counts, model.m,
                                                 model.quadrature, 0)
        # it fills the table it streams, and the model's is that over its normalizer
        assert table.tobytes() == oracle.tobytes()
        assert table_cells(model).tobytes() == (oracle / model.normalizer).tobytes()
        assert z == model.box.volume / 64 * math.fsum(float(np.sum(c)) for c in chunks)


class TestQueriesEqualTheWalk:
    """``evaluate`` and ``evaluate_batch`` of fitted and loaded models equal the
    naive walk of ``conftest.walked_densities``, bit for bit: on breakpoints,
    on the upper face, outside the box and at infinite coordinates, in every
    id-table regime, looked up in the cell table or, past its budget, walked."""

    @pytest.mark.parametrize("budget", ["table", "walk"])
    @pytest.mark.parametrize("regime", list(REGIMES))
    @settings(max_examples=20, deadline=None)
    @given(box=offset_boxes(), data=st.data())
    def test_fitted_and_loaded_queries_equal_the_walk(self, tmp_path_factory, regime, budget,
                                                      box, data):
        budgets, in_regime = REGIMES[regime]
        d = box.d
        p = data.draw(st.integers(2 if regime == "partial" else 0, min(6, 12 // d)), label="p")
        trees = data.draw(st.integers(1, 4), label="T")
        m = data.draw(st.integers(1, 30), label="m")
        s = data.draw(st.integers(1, 5), label="S")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        spec = data.draw(st.sampled_from(["exact", "grid:5", "mc:50"]), label="quadrature")
        rng = np.random.default_rng(seed)
        lo, hi = box.lo_array, box.hi_array
        points = lo + (hi - lo) * rng.random((s * m + m // 2, d)) * 1.1
        config = EstimatorConfig(m=m, trees=trees, depth=p, seed=seed, box=box,
                                 quadrature=Quadrature.parse(spec))
        path = tmp_path_factory.mktemp("walk") / "model.json"
        with pytest.MonkeyPatch.context() as mp:
            for name, value in budgets.items():
                mp.setattr(geometry, name, value)
            if budget == "walk":
                mp.setattr(estimator, "_TABLE_CELLS", 0)
            try:
                fitted = fit(points, config)
            except ValueError as exc:  # the median may vanish on every cell
                assume("degenerate" not in str(exc))
                raise
            k = (fitted.forest._leaf_table.shape[1].bit_length() - 1) // d
            assume(in_regime(k, p))
            save_model(fitted, path)
            loaded = load_model(path)
        queries = np.concatenate([
            mesh_points(box, p, 30, seed),
            [lo - 1.0, hi + 1.0, np.where(np.arange(d) == 0, hi, lo),
             np.full(d, np.inf), np.full(d, -np.inf), np.where(np.arange(d) == 0, np.inf, hi)],
        ])
        oracle = walked_densities(fitted, queries)
        assert box.contains_batch(queries[-6:]).tolist() == [False, False, True] + [False] * 3
        for model in (fitted, loaded):
            assert (model._cells is None) == (budget == "walk")
            assert evaluate_batch(model, queries).tobytes() == oracle.tobytes()
            assert np.array([evaluate(model, x) for x in queries]).tobytes() == oracle.tobytes()


@st.composite
def ulp_boxes(draw):
    """Boxes a few ulps wide on every axis, so that most breakpoints tie."""
    d = draw(st.sampled_from([1, 2, 3]))
    lo = [draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.0, 1e6)) for _ in range(d)]
    ulps = [draw(st.integers(1, 16)) for _ in range(d)]
    return Box(tuple(lo), tuple(a + k * abs(np.spacing(a)) for a, k in zip(lo, ulps)))


def edge_probes(box: Box, p: int, seed: int) -> np.ndarray:
    """Rows that put, on each axis in turn, every breakpoint, its two float
    neighbours (so the first value past each face), +-0.0, +-inf and NaN;
    the other coordinates are drawn from the same values."""
    mesh = geometry._breakpoints(box, p)
    values = [np.concatenate([row, np.nextafter(row, -np.inf), np.nextafter(row, np.inf),
                              [0.0, -0.0, np.inf, -np.inf, np.nan]]) for row in mesh]
    rng = np.random.default_rng(seed)
    rows = []
    for j, own in enumerate(values):
        block = np.stack([rng.choice(v, size=own.size) for v in values], axis=1)
        block[:, j] = own
        rows.append(block)
    return np.concatenate(rows)


class TestBorderedLookup:
    """A bordered table's index equals the mask path it replaced: the box
    test, each coordinate's code and their C-order pack
    (``conftest.mask_path_cells``), with every point outside the closed box,
    NaN included, on the border; and every query of a fitted or loaded
    model equals ``conftest.walked_densities``, bit for bit.  Probed on
    every breakpoint and its float neighbours, on offset boxes and on boxes
    a few ulps wide, whose breakpoints tie."""

    @pytest.mark.parametrize("regime", list(REGIMES))
    @settings(max_examples=25, deadline=None)
    @given(box=st.one_of(offset_boxes(), ulp_boxes()), data=st.data())
    def test_index_equals_the_mask_path(self, tmp_path_factory, regime, box, data):
        budgets, in_regime = REGIMES[regime]
        d = box.d
        p = data.draw(st.integers(2 if regime == "partial" else 0, {1: 8, 2: 5, 3: 3}[d]),
                      label="p")
        trees = data.draw(st.integers(1, 4), label="T")
        m = data.draw(st.integers(1, 40), label="m")
        s = data.draw(st.integers(1, 3), label="S")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        lo, hi = box.lo_array, box.hi_array
        points = lo + (hi - lo) * np.random.default_rng(seed).random((s * m, d))
        config = EstimatorConfig(m=m, trees=trees, depth=p, seed=seed, box=box,
                                 quadrature=Quadrature(method="exact-dyadic"))
        path = tmp_path_factory.mktemp("bordered") / "model.json"
        with pytest.MonkeyPatch.context() as mp:
            for name, value in budgets.items():
                mp.setattr(geometry, name, value)
            try:
                fitted = fit(points, config)
            except ValueError as exc:  # the median may vanish on every cell
                assume("degenerate" not in str(exc))
                raise
            k = (fitted.forest._leaf_table.shape[1].bit_length() - 1) // d
            assume(in_regime(k, p))
            save_model(fitted, path)
            loaded = load_model(path)
        forest, side = fitted.forest, 2**p + 2
        probes = edge_probes(box, p, seed)
        index = geometry._bordered_index(forest, probes)
        oracle = mask_path_cells(forest, probes)
        axes = np.stack(np.unravel_index(index, (side,) * d), axis=1)
        inside = oracle >= 0
        assert np.ravel_multi_index(axes[inside].T - 1, (2**p,) * d).tolist() == (
            oracle[inside].tolist())
        assert ((axes[~inside] == 0) | (axes[~inside] == side - 1)).any(axis=1).all()
        assert geometry._bordered_index(forest, probes[:0]).shape == (0,)
        # the leaf walk quantizes by the same search: each in-box probe's ids
        # are the recursive walker's, and every other probe, NaN included, raises
        assert leaf_indices(forest, probes[inside]).tolist() == [
            [leaf_index(row, box, x) for row in forest.labels] for x in probes[inside]]
        for x in probes[~inside]:
            with pytest.raises(ValueError, match="^point outside domain$"):
                leaf_indices(forest, x)

        nan = np.isnan(probes).any(axis=1)
        finite = probes[~nan]
        expected = walked_densities(fitted, finite)
        for model in (fitted, loaded):
            assert model._cells is not None
            assert evaluate_batch(model, finite).tobytes() == expected.tobytes()
            assert np.array([evaluate(model, x) for x in finite]).tobytes() == (
                expected.tobytes())
            with pytest.raises(ValueError, match=f"^{nan.sum()} query row"):
                evaluate_batch(model, probes)
            with pytest.raises(ValueError, match="^1 query row"):
                evaluate(model, probes[nan][0])
            assert evaluate_batch(model, probes[:0]).shape == (0,)


class TestKeptCellTable:
    """Every model within the table budget holds one normalized cell table: a
    fit keeps the one its normalizer filled, a loaded or replaced model builds
    it from the counts, and all give the same bytes."""

    BOX = Box((-1.0, 2.0), (4.0, 2.5))
    CELLS = 64  # depth 3 on 2 axes
    ENTRIES = 100  # (2**3 + 2)**2, with the border

    def fitted(self, spec: str) -> FittedMFRDE:
        data = generate("beta", 300, 0.2, seed=12)
        data = data.points * [1.0, 0.1] + [-1.0, 2.0]
        return fit(data, EstimatorConfig(m=30, trees=4, depth=3, seed=8, box=self.BOX,
                                         quadrature=Quadrature.parse(spec)))

    @pytest.mark.parametrize("spec", ["grid:8", "grid:9", "mc:64", "mc:500"])
    def test_fitted_and_loaded_models_agree(self, tmp_path, monkeypatch, spec):
        model = self.fitted(spec)
        assert model._cells.shape == (self.ENTRIES,)
        path, again = tmp_path / "model.json", tmp_path / "again.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded._cells.tobytes() == model._cells.tobytes()
        # the table is not serialized
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        seen = cell_path_spy(monkeypatch)
        lo, hi = self.BOX.lo_array, self.BOX.hi_array
        for n in (1, self.CELLS - 1, self.CELLS, self.CELLS + 1):
            pts = lo + (hi - lo) * np.random.default_rng(n).random((n, 2))
            seen.clear()
            fitted = evaluate_batch(model, pts)
            assert seen == [n]
            seen.clear()
            assert evaluate_batch(loaded, pts).tobytes() == fitted.tobytes()
            assert seen == [n]
            for each in (model, loaded):
                assert [evaluate(each, x) for x in pts] == fitted.tolist()

    @pytest.mark.parametrize("spec", ["exact", "auto", "grid:7", "mc:63"])
    def test_no_table_unless_the_normalizer_built_it(self, monkeypatch, spec):
        # every method fills the table in its normalizer, once, and the
        # model keeps that one.  Past the budget (set to 0) the exact
        # normalizer still streams its cells, the others walk their nodes,
        # and no model holds a table
        builds, refinement = [], estimator._refinement
        monkeypatch.setattr(estimator, "_refinement",
                            lambda *args: builds.append(args) or refinement(*args))
        model = self.fitted(spec)
        assert len(builds) == 1
        table = estimator._cell_table(model.forest, model.leaf_counts, model.m)
        assert table_cells(model).tobytes() == (table / model.normalizer).tobytes()
        builds.clear()
        monkeypatch.setattr(estimator, "_TABLE_CELLS", 0)
        past = self.fitted(spec)
        assert past._cells is None
        assert len(builds) == (past.quadrature.method == "exact-dyadic")
        assert past.normalizer == model.normalizer

    def test_a_model_holds_one_query_structure(self, tmp_path, monkeypatch):
        # within the budget the cell table alone, and a fit that hands its
        # table over sums its counts' type once, in its normalizer; past the
        # budget (set to 0) the summed counts alone, narrow exactly when
        # T * m < 2**16.  Fitted, loaded and replaced models alike
        calls, summed_counts = [], estimator._summed_counts
        monkeypatch.setattr(estimator, "_summed_counts",
                            lambda *args: calls.append(args) or summed_counts(*args))
        path = tmp_path / "model.json"
        for spec in ("exact", "grid:9", "mc:63"):
            calls.clear()
            model = self.fitted(spec)
            assert len(calls) == 1
            save_model(model, path)
            for each in (model, load_model(path), dataclasses.replace(model)):
                assert each._sum_counts is None and each._cells is not None
        monkeypatch.setattr(estimator, "_TABLE_CELLS", 0)
        for model in (self.fitted("grid:9"), edge_model(*NARROW_EDGE[-1], seed=3),
                      edge_model(*WIDE_EDGE[0], seed=3)):
            narrow = model.n_trees * model.m < 2**16
            save_model(model, path)
            for each in (model, load_model(path), dataclasses.replace(model)):
                assert each._cells is None
                assert each._sum_counts.dtype == (np.uint16 if narrow else np.int32)

    def test_table_is_read_only(self):
        model = self.fitted("grid:9")
        with pytest.raises(ValueError):
            model._cells[0] = 1.0

    @pytest.mark.parametrize("shape", [(63,), (65,), (64, 1), ()])
    def test_wrong_table_shape_refused(self, shape):
        model = self.fitted("grid:9")
        with pytest.raises(ValueError, match="cell table shape"):
            dataclasses.replace(model, _table=np.zeros(shape))

    def test_table_past_the_budget_refused(self, monkeypatch):
        model = self.fitted("grid:9")
        monkeypatch.setattr(estimator, "_TABLE_CELLS", self.ENTRIES - 1)
        with pytest.raises(ValueError, match=re.escape(
                "cell table shape (64,) does not match the 0 cells the model tabulates")):
            dataclasses.replace(model, _table=np.zeros(self.CELLS))

    def test_replace_rebuilds_the_table(self):
        # the table belongs to the counts and the normalizer it was built from
        model = self.fitted("grid:9")
        again = dataclasses.replace(model)
        assert again._cells is not model._cells
        assert again._cells.tobytes() == model._cells.tobytes()
        table = estimator._cell_table(model.forest, model.leaf_counts, model.m)
        assert table_cells(dataclasses.replace(model, normalizer=0.5)).tobytes() == (
            table / 0.5).tobytes()

    def test_integral_check_walks_no_node(self, tmp_path, monkeypatch):
        # fitted or loaded, the model looks every node up in its table
        calls, leaf, kth = [], estimator.leaf_indices, estimator._kth_densities
        monkeypatch.setattr(estimator, "leaf_indices",
                            lambda *a, **k: calls.append("walk") or leaf(*a, **k))
        monkeypatch.setattr(estimator, "_kth_densities",
                            lambda *a: calls.append("median") or kth(*a))
        for spec in ("mc:500", "exact", "grid:9"):
            model = self.fitted(spec)
            save_model(model, tmp_path / "model.json")
            loaded = load_model(tmp_path / "model.json")
            calls.clear()
            integral = integrate_estimate(model)
            assert integral == pytest.approx(1.0)
            assert integrate_estimate(loaded).hex() == integral.hex()
            assert calls == []


class TestHugeBox:
    """Boxes near the float maximum: finite bounds, extents and volume."""

    @pytest.mark.parametrize("hi", [1.7e308, np.finfo(float).max])
    def test_fit_near_the_float_maximum(self, hi):
        # every axis-0 breakpoint was inf: each query read 4.357 times the
        # uniform density, and the integral came to 4.50
        box = Box((1e308, 0.0), (hi, 1.0))
        pts = box.lo_array + (box.hi_array - box.lo_array) * np.random.default_rng(0).random(
            (400, 2))
        model = fit(pts, EstimatorConfig(m=20, trees=10, depth=4, seed=0, box=box))
        assert integrate_estimate(model) == pytest.approx(1.0)
        assert 0.5 < np.median(evaluate_batch(model, pts)) * box.volume < 1.5
        # the upper face is in; +inf, past a last edge of +inf at the maximum, is out
        probe = np.vstack([pts, [(hi, 0.5), (np.inf, 0.5), (np.nextafter(1e308, 0), 0.5)]])
        assert evaluate_batch(model, probe).tobytes() == walked_densities(model, probe).tobytes()
        assert evaluate(model, (np.inf, 0.5)) == 0.0

    def test_overflowing_leaf_volume_named(self):
        # m times the leaf volume overflowed, every density read 0, and fit
        # blamed "all data outside the box"
        box = Box((1e308, 0.0), (1.7e308, 1.0))
        pts = box.lo_array + (box.hi_array - box.lo_array) * np.random.default_rng(0).random(
            (4000, 2))
        message = re.escape("m times the leaf volume, 2000 * 6.999999999999999e+307 * 2**-4, "
                            "overflows the float range")
        with pytest.raises(ValueError, match=message):
            fit(pts, EstimatorConfig(m=2000, trees=10, depth=4, seed=0, box=box))
        forest = build_forest(box, 4, 2, seed=0)
        with pytest.raises(ValueError, match=message):
            make_model(forest, np.zeros((2, 2, 16)), m=2000)


class TestEvaluate:
    def test_outside_is_zero(self):
        model = fit(np.random.default_rng(1).random((30, 2)),
                    EstimatorConfig(m=10, trees=2, depth=2, seed=1, box=UNIT2))
        assert evaluate(model, (2.0, 2.0)) == 0.0
        assert evaluate_batch(model, [(np.inf, 0.5), (0.5, -np.inf)]).tolist() == [0.0, 0.0]

    def test_nan_query_raises(self):
        model = fit(np.random.default_rng(1).random((30, 2)),
                    EstimatorConfig(m=10, trees=2, depth=2, seed=1, box=UNIT2))
        pts = np.array([(0.5, 0.5), (np.nan, 0.5), (2.0, 2.0), (0.1, np.nan)])
        with pytest.raises(ValueError, match="^2 query row"):
            evaluate_batch(model, pts)
        with pytest.raises(ValueError, match="^1 query row"):
            evaluate(model, (np.nan, np.nan))

    def test_in_box_batch_equals_mixed_batch(self, monkeypatch):
        # rows in the box, corners included, get the same bytes whether or
        # not the batch also holds a row outside, looked up or, past the
        # table budget (set to 0), walked; both give the same bytes
        pts = np.vstack([np.random.default_rng(2).random((40, 2)),
                         [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)]])
        results = set()
        for walk in (False, True):
            if walk:
                monkeypatch.setattr(estimator, "_TABLE_CELLS", 0)
            model = fit(np.random.default_rng(1).random((60, 2)),
                        EstimatorConfig(m=20, trees=3, depth=3, seed=1, box=UNIT2))
            assert (model._cells is None) == walk
            inside = evaluate_batch(model, pts)
            mixed = evaluate_batch(model, np.vstack([pts, [(1.5, 0.5)]]))
            assert inside.tobytes() == mixed[:-1].tobytes()
            assert mixed[-1] == 0.0
            assert [evaluate(model, p) for p in pts] == inside.tolist()
            results.add(mixed.tobytes())
        assert len(results) == 1

    def test_queries_do_not_call_contains_batch(self, monkeypatch):
        # evaluate and evaluate_batch have normalized the rows already
        model = fit(np.random.default_rng(1).random((30, 2)),
                    EstimatorConfig(m=10, trees=2, depth=2, seed=1, box=UNIT2))
        expected = evaluate_batch(model, [(0.5, 0.5), (2.0, 0.5)]).tolist()

        def refuse(self, points):
            raise AssertionError("contains_batch called on a query")

        monkeypatch.setattr(Box, "contains_batch", refuse)
        assert evaluate_batch(model, [(0.5, 0.5), (2.0, 0.5)]).tolist() == expected
        assert evaluate(model, (0.5, 0.5)) == expected[0]
        with pytest.raises(ValueError, match="^1 query row"):
            evaluate_batch(model, [(0.5, 0.5), (np.nan, 0.5)])

    def test_evaluate_takes_one_point_of_shape_d(self):
        line = fit(np.random.default_rng(1).random((30, 1)),
                   EstimatorConfig(m=10, trees=2, depth=2, seed=1, box=Box((0.0,), (1.0,))))
        plane = fit(np.random.default_rng(1).random((30, 2)),
                    EstimatorConfig(m=10, trees=2, depth=2, seed=1, box=UNIT2))
        assert evaluate(line, [0.5]) == evaluate_batch(line, [[0.5]])[0]
        assert evaluate(plane, (0.5, 0.5)) == evaluate_batch(plane, [(0.5, 0.5)])[0]
        for model, x, shape in ((line, 0.5, "()"), (line, [[0.5]], "(1, 1)"),
                                (line, [0.5, 0.5], "(2,)"), (plane, [[0.5, 0.5]], "(1, 2)"),
                                (plane, [0.5], "(1,)")):
            d = model.box.d
            with pytest.raises(ValueError, match=re.escape(
                    f"expected one point of shape ({d},), got shape {shape}")):
                evaluate(model, x)

    def test_complex_coordinates_refused(self):
        # a cast to float dropped the imaginary part with only a warning:
        # evaluate(model, [2+3j, 1]) read the density at (2, 1)
        model = fit(np.random.default_rng(1).random((30, 2)) * 4,
                    EstimatorConfig(m=10, trees=2, depth=2, seed=1, box=Box((0, 0), (4, 4))))
        message = "^coordinates must be real numbers, not complex128$"
        for call in (lambda: evaluate(model, [2 + 3j, 1]),
                     lambda: evaluate_batch(model, np.array([[2, 1], [2 + 3j, 1]])),
                     lambda: evaluate_batch(model, [[2 + 0j, 1.0]]),
                     lambda: datasets.Dataset(np.array([[0.5 + 1j, 0.5]])),
                     lambda: Box.bounding([[0, 1j], [1, 1]]),
                     lambda: fit([[2 + 3j, 1]] * 30, EstimatorConfig(m=10))):
            with pytest.raises(ValueError, match=message):
                call()
        # real dtypes still cast
        assert evaluate(model, [2, 1]) == evaluate(model, np.array([2.0, 1.0], dtype=np.float32))

    def test_evaluate_batch_refuses_more_than_two_axes(self):
        model = fit(np.random.default_rng(1).random((30, 2)),
                    EstimatorConfig(m=10, trees=2, depth=2, seed=1, box=UNIT2))
        assert evaluate_batch(model, (0.5, 0.5)).shape == (1,)
        for pts in (np.full((2, 1, 2), 0.5), np.full((1, 2, 2), 0.5), np.full((3, 3), 0.5)):
            with pytest.raises(ValueError, match=re.escape(f"got shape {pts.shape}")):
                evaluate_batch(model, pts)

    def test_normalized_value(self):
        forest = Forest(box=UNIT2, labels=np.array([[0]]))
        counts, _ = count_leaves(forest.labels[0], UNIT2, BLOCK)
        model = make_model(forest, counts[None, None, :], m=3, normalizer=1.0)
        assert evaluate(model, (0.1, 0.5)) == pytest.approx(0.666667, abs=1e-6)

    def test_batch_preserves_order_and_sign(self):
        data = generate("beta", 400, 0.3, seed=12)
        model = fit(
            data, EstimatorConfig(m=40, trees=8, depth=5, seed=6, box=Box((0, 0), (5, 5)))
        )
        pts = np.random.default_rng(2).random((300, 2)) * 6
        vals = evaluate_batch(model, pts)
        assert vals.shape == (300,)
        assert (vals >= 0).all()
        assert [evaluate(model, p) for p in pts] == vals.tolist()

    def test_integrates_to_one(self):
        for method, tol in (("exact-dyadic", 1e-9), ("regular-grid", 1e-6)):
            data = generate("uniform", 300, 0.2, seed=21)
            model = fit(
                data,
                EstimatorConfig(
                    m=30, trees=6, depth=5, seed=17,
                    quadrature=Quadrature(method=method), box=Box((0, 0), (5, 5)),
                ),
            )
            assert integrate_estimate(model) == pytest.approx(1.0, abs=tol)


class TestNonLocalityImmunity:
    def test_counts_elsewhere_do_not_move_sfde(self):
        rng = np.random.default_rng(41)
        # lower-left quadrant data plus out-of-box points, so every block has
        # spare capacity under its nominal size m
        data = np.concatenate([rng.random((60, 2)) * 0.5, np.full((20, 2), 7.0)])
        data = data[rng.permutation(80)]
        cfg = EstimatorConfig(m=20, trees=3, depth=2, seed=23, box=UNIT2)
        model = fit(data, cfg)
        x = np.array([0.05, 0.05])
        intruders = np.array([[0.95, 0.95], [0.9, 0.99]])
        assert local_outliers(model.forest, x, intruders).size == 0
        assert model.m - model.counts[0, 0].sum() >= len(intruders)

        corrupted = model.leaf_counts.copy()
        for t, tree in enumerate(model.forest.labels):
            extra, _ = count_leaves(tree, model.box, intruders)
            corrupted[t, :, 0] += extra
        poisoned = dataclasses.replace(model, leaf_counts=corrupted)
        for t, tree in enumerate(model.forest.labels):
            xid = leaf_index(tree, model.box, x)
            assert poisoned.counts[0, t, xid] == model.counts[0, t, xid]
        assert block_densities(poisoned, x).tolist() == block_densities(model, x).tolist()
        assert median_at(poisoned, x) == median_at(model, x)


class TestOracleEquivalence:
    def test_matches_naive_reimplementation(self):
        # every block count S from 1 to 9, odd and even, twice each; small
        # blocks make equal block densities (ties) common at the median
        rng = np.random.default_rng(47)
        ties = 0
        for trial, s in enumerate(list(range(1, 10)) * 2):
            m = int(rng.integers(2, 25))
            n = s * m + int(rng.integers(0, m))
            trees = int(rng.integers(1, 4))
            depth = int(rng.integers(0, 4))
            pts = rng.random((n, 2)) * 1.4  # some fall outside the unit box
            cfg = EstimatorConfig(m=m, trees=trees, depth=depth, seed=trial, box=UNIT2)
            model = fit(pts, cfg)
            assert model.n_blocks == s
            _, perm_stream, _ = _fit_streams(cfg.seed)
            blocks = assign_blocks(n, m, np.random.default_rng(perm_stream))
            blocks_points = [pts[b] for b in blocks]
            queries = rng.random((60, 2))
            batch = estimator._median_values(model.forest, model.leaf_counts, m, queries)
            for q, value in zip(queries, batch):
                expected = naive_median_at(blocks_points, model.forest, m, q)
                assert median_at(model, q) == expected
                assert value == expected
                block = int(rng.integers(0, s))
                assert block_densities(model, q)[block] == naive_sfde_at(
                    blocks_points[block], model.forest, m, q
                )
                per_block = [naive_sfde_at(bp, model.forest, m, q) for bp in blocks_points]
                ties += per_block.count(expected) > 1
        assert ties > 100


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        data = generate("discrete", 350, 0.2, seed=31)
        model = fit(
            data, EstimatorConfig(m=35, trees=7, depth=4, seed=13, box=Box((0, 0), (5, 5)))
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        pts = np.random.default_rng(3).random((100, 2)) * 5
        assert np.array_equal(evaluate_batch(model, pts), evaluate_batch(back, pts))
        assert back.normalizer == model.normalizer
        assert back.seed == model.seed == 13

    def test_truncated_file(self, tmp_path):
        data = np.random.default_rng(1).random((40, 2))
        model = fit(data, EstimatorConfig(m=10, trees=2, depth=2, seed=1, box=UNIT2))
        path = tmp_path / "model.json"
        save_model(model, path)
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="malformed"):
            load_model(path)

    def test_minimal_hand_written_model(self, tmp_path):
        doc = {
            "format_version": 1,
            "box": {"lo": [0.0, 0.0], "hi": [2.0, 2.0]},
            "p": 0, "T": 1, "m": 9, "S": 1, "n": 9, "dropped": 0,
            "median_rank": 1, "seed": 0,
            "trees": [[]],
            "counts": [[[9]]],
            "normalizer": 1.0,
            "quadrature": {"method": "exact-dyadic", "params": {}},
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        model = load_model(path)
        assert evaluate(model, (1.0, 1.0)) == pytest.approx(1.0 / 4.0)

    @pytest.mark.parametrize("value", ["Infinity", "NaN"])
    def test_non_finite_normalizer_rejected(self, tmp_path, value):
        # an infinite normalizer used to load and serve density 0 everywhere
        data = np.random.default_rng(1).random((40, 2))
        model = fit(data, EstimatorConfig(m=10, trees=2, depth=2, seed=1, box=UNIT2))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = path.read_text().replace(
            f'"normalizer":{model.normalizer!r}', f'"normalizer":{value}'
        )
        assert value in doc
        path.write_text(doc)
        with pytest.raises(ValueError, match="normalizer"):
            load_model(path)

    @pytest.mark.parametrize("quadrature", ["exact", "grid:7", "mc:500"])
    def test_save_matches_streaming_dump(self, tmp_path, quadrature):
        data = np.random.default_rng(3).random((300, 2))
        config = EstimatorConfig(m=30, trees=3, depth=3, seed=2,
                                 quadrature=Quadrature.parse(quadrature))
        path = tmp_path / "model.json"
        save_model(fit(data, config), path)
        text = path.read_text()
        stream = io.StringIO()
        json.dump(json.loads(text), stream, separators=(",", ":"))
        assert text == stream.getvalue() + "\n"

    @pytest.mark.parametrize(
        "spec, depth, digest",
        [
            ("exact", 6, "a8e85e991e731856f45c6cda96f26d8b01f8342d65d1493d46be34c0d1751b5d"),
            ("grid:37", 6, "309be7f20e0ccfb53c3693bc0aa8a5bac08e63d77bdce0f9ba211cd0e92e98ae"),
            ("mc:5000", 6, "db8243956d7a3a8dc74cc9349d7c7d6f514fdf4d40ccee14bde9cc5e037ef4ed"),
            ("exact", 0, "70acc7cf5ebc7e5e057808ba71ffa7c788ad5dd1c58c3818ceca46668836cb64"),
        ],
        ids=["exact", "grid-37", "mc-5000", "depth-0"],
    )
    def test_pinned_model_bytes(self, tmp_path, spec, depth, digest):
        # the v1 file at fixed seeds, and a loaded model re-saves to the same bytes
        data = generate("beta", 400, 0.2, seed=9)
        model = fit(data, EstimatorConfig(m=40, trees=5, depth=depth, seed=3,
                                          box=Box((0, 0), (5, 5)),
                                          quadrature=Quadrature.parse(spec)))
        path, again = tmp_path / "model.json", tmp_path / "again.json"
        save_model(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        save_model(load_model(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        data = np.random.default_rng(1).random((40, 2))
        model = fit(data, EstimatorConfig(m=10, trees=2, depth=2, seed=1, box=UNIT2))
        path = tmp_path / "model.json"
        save_model(model, path)
        before = path.read_bytes()

        # a prefix of the document lands, then the write fails
        monkeypatch.setattr(datasets, "open", full_disk_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_model(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_unresolved_quadrature_rejected(self, tmp_path):
        # an "auto" model used to load and then fail in integrate_estimate
        data = np.random.default_rng(1).random((40, 2))
        model = fit(data, EstimatorConfig(m=10, trees=2, depth=2, seed=1, box=UNIT2))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["quadrature"]["method"] = "auto"
        path.write_text(json.dumps(doc))
        with pytest.raises(
            ValueError, match="^malformed model file: unresolved quadrature method 'auto'$"
        ):
            load_model(path)

    def test_model_refuses_unresolved_quadrature(self, tmp_path):
        # such a model used to construct, fail in integrate_estimate and save
        # a file that load_model refuses
        forest = build_forest(UNIT2, 1, 1, seed=0)
        counts = np.array([[[3, 1]]])
        with pytest.raises(ValueError, match="^unresolved quadrature method 'auto'$"):
            FittedMFRDE(seed=0, forest=forest, n=4, m=4,
                        leaf_counts=counts.transpose(1, 2, 0), normalizer=1.0,
                        quadrature=Quadrature())
        assert not list(tmp_path.iterdir())

    # A depth-2 model that loads as it is.
    VALID_DOC = {
        "format_version": 1,
        "box": {"lo": [0.0, 0.0], "hi": [2.0, 2.0]},
        "p": 2, "T": 1, "m": 9, "S": 1, "n": 9, "dropped": 0,
        "median_rank": 1, "seed": 0,
        "trees": [[0, 1, 1]],
        "counts": [[[2, 3, 0, 4]]],
        "normalizer": 1.0,
        "quadrature": {"method": "exact-dyadic", "params": {}},
    }

    # Each edit breaks one field.  Before these checks, each case loaded
    # silently or escaped as another exception, except the median rank,
    # which raised without the "malformed model file" prefix, and the
    # split-label shape and range cases, which were always rejected.
    MALFORMED = {
        "float-count": lambda doc: doc["counts"][0][0].__setitem__(0, 1.5),
        "huge-count": lambda doc: doc["counts"][0][0].__setitem__(0, 10**30),
        "float-split-label": lambda doc: doc["trees"][0].__setitem__(1, 1.5),
        "top-level-list": lambda doc: [doc],
        "float-depth": lambda doc: doc.__setitem__("p", 2.7),
        "bool-tree-count": lambda doc: doc.__setitem__("T", True),
        "negative-dropped": lambda doc: doc.update(n=4, dropped=-5),
        "n-not-s-m-dropped": lambda doc: doc.__setitem__("n", 10),
        "median-rank": lambda doc: doc.__setitem__("median_rank", 2),
        "string-normalizer": lambda doc: doc.__setitem__("normalizer", "0.8"),
        "bool-normalizer": lambda doc: doc.__setitem__("normalizer", True),
        "bool-box-lo": lambda doc: doc["box"].__setitem__("lo", [False, 0.0]),
        "string-box-hi": lambda doc: doc["box"].__setitem__("hi", ["2", 2.0]),
        "bool-split-label": lambda doc: doc["trees"][0].__setitem__(1, True),
        "split-label-past-d": lambda doc: doc["trees"][0].__setitem__(1, 2),
        "ragged-split-labels": lambda doc: doc.update(T=2, trees=[[0, 1, 1], [0]]),
        "tree-count": lambda doc: doc.__setitem__("T", 2),
        "huge-depth": lambda doc: doc.__setitem__("p", 2**40),
        "negative-depth": lambda doc: doc.__setitem__("p", -1),
        "zero-tree-count": lambda doc: doc.__setitem__("T", 0),
        "zero-block-size": lambda doc: doc.__setitem__("m", 0),
        "bool-cell-budget": lambda doc: doc["quadrature"]["params"].__setitem__(
            "cell_budget", True),
        "string-cell-budget": lambda doc: doc["quadrature"]["params"].__setitem__(
            "cell_budget", "16777216"),
    }

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_document_rejected(self, tmp_path, case):
        doc = json.loads(json.dumps(self.VALID_DOC))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.VALID_DOC))
        assert load_model(path).counts.tolist() == [[[2, 3, 0, 4]]]
        path.write_text(json.dumps(self.MALFORMED[case](doc) or doc))
        with pytest.raises(ValueError, match="^malformed model file: "):
            load_model(path)

    def test_dropped_is_the_tail(self, tmp_path):
        # the file's field must be n - S*m, which the model derives itself
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(self.VALID_DOC, dropped=1)))
        with pytest.raises(ValueError, match=r"^malformed model file: dropped must be n - S\*m$"):
            load_model(path)
        path.write_text(json.dumps(dict(self.VALID_DOC, n=11, dropped=2)))
        assert load_model(path).dropped == 2

    @pytest.mark.parametrize(
        "spec, field, value",
        [("mc:500", '"draws":500', '"draws":1000000000000'),
         ("grid:7", '"points_per_axis":7', '"points_per_axis":1000000')],
        ids=["mc-draws", "grid-points"],
    )
    def test_quadrature_past_budget_rejected(self, tmp_path, monkeypatch, spec, field, value):
        # both used to load, and integrate_estimate would then have run
        # 10**12 quadrature nodes
        def no_draw(*args):
            raise AssertionError("a quadrature ran on a refused model")

        data = np.random.default_rng(1).random((40, 2))
        model = fit(data, EstimatorConfig(m=10, trees=2, depth=2, seed=1, box=UNIT2,
                                          quadrature=Quadrature.parse(spec)))
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        assert field in text
        path.write_text(text.replace(field, value))
        monkeypatch.setattr(estimator, "_integrate", no_draw)
        monkeypatch.setattr(estimator, "_fit_streams", no_draw)
        with pytest.raises(ValueError, match="^malformed model file: .* over the budget of "
                                             "16777216"):
            load_model(path)

    def test_infinite_box_rejected(self, tmp_path):
        # json reads -Infinity; the box used to load with volume inf and
        # serve density 0 where the saved model's was positive
        data = np.random.default_rng(1).random((40, 2))
        model = fit(data, EstimatorConfig(m=10, trees=2, depth=2, seed=1, box=UNIT2))
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        assert '"lo":[0.0,0.0]' in text
        path.write_text(text.replace('"lo":[0.0,0.0]', '"lo":[-Infinity,0.0]'))
        with pytest.raises(ValueError, match="^malformed model file: box bounds, extents "
                                             "and volume must be finite and positive"):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_invariant_violation_on_load(self, tmp_path):
        doc = {
            "format_version": 1,
            "box": {"lo": [0.0], "hi": [1.0]},
            "p": 0, "T": 1, "m": 3, "S": 1, "n": 3, "dropped": 0,
            "median_rank": 1, "seed": 0,
            "trees": [[]],
            "counts": [[[7]]],  # more points than the block size
            "normalizer": 1.0,
            "quadrature": {"method": "exact-dyadic", "params": {}},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="block holds more points"):
            load_model(path)

    def test_tree_totals_differ_on_load(self, tmp_path):
        # each counted point lies in one leaf of every tree; one count raised
        # by one, still within m, breaks only that invariant
        data = np.random.default_rng(5).random((40, 2)) * 2.0  # most fall outside
        model = fit(data, EstimatorConfig(m=10, trees=3, depth=2, seed=2, box=UNIT2))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["counts"][0][1][0] += 1
        assert sum(doc["counts"][0][1]) <= model.m
        path.write_text(json.dumps(doc))
        with pytest.raises(
            ValueError, match="^malformed model file: a block's count total differs between trees$"
        ):
            load_model(path)

    @pytest.mark.parametrize(
        "spec, m, depth",
        [("exact", 40, 6), ("grid:37", 40, 6), ("mc:5000", 40, 6), ("exact", 400, 6),
         ("exact", 40, 0)],
        ids=["exact", "grid-37", "mc-5000", "one-block", "depth-0"],
    )
    @pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indent-2"])
    def test_counts_decoder_matches_json_load(self, tmp_path, spec, m, depth, indent):
        data = generate("beta", 400, 0.2, seed=9)
        model = fit(data, EstimatorConfig(m=m, trees=5, depth=depth, seed=3,
                                          box=Box((0, 0), (5, 5)),
                                          quadrature=Quadrature.parse(spec)))
        path = tmp_path / "model.json"
        save_model(model, path)
        if indent:
            path.write_text(json.dumps(json.loads(path.read_text()), indent=indent))
        back = load_model(path)
        oracle = json_load_counts(path)
        assert back.leaf_counts.dtype == np.int32 and back.leaf_counts.flags.c_contiguous
        assert back.leaf_counts.tobytes() == oracle.tobytes() == model.leaf_counts.tobytes()
        assert back.leaf_counts.shape == oracle.shape
        assert back.forest.labels.tobytes() == model.forest.labels.tobytes()
        assert (back.normalizer, back.quadrature, back.n) == (
            model.normalizer, model.quadrature, model.n)

    # Each replaces the counts list, [[[2,3,0,4]]], of VALID_DOC's compact
    # text with m = 19, and names the check that rejects it.  The counts of
    # each case fit m, so no later check could catch it instead.
    SHAPE = "count array shape does not match S, T and p"
    NOT_INTEGER = "counts must be non-negative JSON integers"
    PAST_INT32 = "a count is past the int32 maximum 2147483647"
    MALFORMED_COUNTS = {
        "missing-open-bracket": ("[[2,3,0,4]]]", SHAPE),
        "missing-close-bracket": ("[[[2,3,0,4]]", SHAPE),
        "extra-value": ("[[[2,3,0,4,0]]]", SHAPE),
        "missing-value": ("[[[2,3,0]]]", SHAPE),
        "nested-too-deep": ("[[[[2,3,0,4]]]]", SHAPE),
        "empty-first-value": ("[[[,3,0,14]]]", SHAPE),
        "empty-inner-value": ("[[[2,,0,14]]]", SHAPE),
        "empty-last-value": ("[[[12,3,0,]]]", SHAPE),
        "count-before-bracket": ("[[5[,3,0,4]]]", SHAPE),
        "count-after-bracket": ("[[[2,3,0,]5]]", SHAPE),
        "count-before-full-row": ("[[1[2,3,0,4]]]", SHAPE),
        "count-after-full-row": ("[[[2,3,0,4]1]]", SHAPE),
        "negative": ("[[[2,-1,0,4]]]", NOT_INTEGER),
        "fraction": ("[[[2,1.5,0,4]]]", NOT_INTEGER),
        "exponent": ("[[[2,1e2,0,4]]]", NOT_INTEGER),
        "true": ("[[[2,true,0,4]]]", NOT_INTEGER),
        "null": ("[[[2,null,0,4]]]", NOT_INTEGER),
        "space-inside-count": ("[[[2,1 1,0,4]]]", NOT_INTEGER),
        "leading-zero": ("[[[2,07,0,4]]]", "a count has a leading zero"),
        "twenty-digits": ("[[[2,12345678901234567890,0,4]]]", PAST_INT32),
        "eleven-digits": ("[[[2,10000000000,0,4]]]", PAST_INT32),
        "past-int32": ("[[[2,2147483648,0,4]]]", PAST_INT32),
        "not-a-list": ('"[[[2,3,0,4]]]"', "counts must be one list"),
        "duplicate-key": ('[[[2,3,0,4]]],"counts":[[[2,3,0,4]]]', "counts must be one list"),
        "escaped-duplicate-key": ('[[[2,3,0,4]]],"co\\u0075nts":[[[2,3,0,4]]]',
                                  "counts must be one list"),
    }

    @pytest.mark.parametrize("case", list(MALFORMED_COUNTS))
    def test_malformed_counts_rejected(self, tmp_path, case):
        text = json.dumps({**self.VALID_DOC, "m": 19, "n": 19}, separators=(",", ":"))
        path = tmp_path / "model.json"
        path.write_text(text)
        assert load_model(path).counts.tolist() == [[[2, 3, 0, 4]]]
        counts, message = self.MALFORMED_COUNTS[case]
        path.write_text(text.replace("[[[2,3,0,4]]]", counts))
        with pytest.raises(ValueError, match=f"^malformed model file: {re.escape(message)}"):
            load_model(path)

    def test_block_count_past_file_size_rejected_unbuilt(self, tmp_path):
        # the skeleton of 2**40 blocks is never built: the span is too short for it
        text = json.dumps(self.VALID_DOC, separators=(",", ":")).replace('"S":1', f'"S":{2**40}')
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^malformed model file: {self.SHAPE}"):
            load_model(path)

    @pytest.mark.parametrize("top_level", [True, False], ids=["also-top-level", "only-nested"])
    def test_nested_counts_rejected(self, tmp_path, top_level):
        text = json.dumps(self.VALID_DOC, separators=(",", ":")).replace(
            '"params":{}', '"params":{"counts":[[[2,3,0,4]]]}')
        if not top_level:
            text = text.replace('"counts":[[[2,3,0,4]]],', "", 1)
        path = tmp_path / "model.json"
        path.write_text(text)
        message = "missing field 'counts'" if not top_level else "counts must be one list"
        with pytest.raises(ValueError, match=f"^malformed model file: {message}"):
            load_model(path)

    @pytest.mark.parametrize("text", ['{"format_version":1,"counts":',
                                      '{"format_version":1,"counts" : ',
                                      '{"format_version":1,"counts":[[[2'])
    def test_file_ends_in_counts(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="^malformed model file: "):
            load_model(path)

    def test_whitespace_between_count_tokens(self, tmp_path):
        text = json.dumps(self.VALID_DOC, separators=(",", ":"))
        path = tmp_path / "model.json"
        path.write_text(text.replace('"counts":[[[2,3,0,4]]]',
                                     '"counts" :\t[ [\n[ 2 ,3,\r\n0 , 4 ] ] ]  '))
        assert load_model(path).counts.tolist() == [[[2, 3, 0, 4]]]


def encoder_model(case: str) -> FittedMFRDE:
    if case == "all-zero":
        forest = build_forest(UNIT2, 2, 3, seed=1)
        return make_model(forest, np.zeros((2, 3, 4)), m=5)
    if case == "one-value":
        forest = build_forest(UNIT2, 2, 3, seed=1)
        return make_model(forest, np.full((3, 3, 4), 7), m=30)
    if case == "near-int32-max":
        # T * m just below 2**31: every count in the low or high millions
        # of a (2, T, 2) array, so a table of range(max + 1) would hold
        # 2**19 texts for 2**14 counts
        trees = 2**12
        m = 2**31 // trees - 1
        forest = Forest(box=Box((0.0,), (1.0,)), labels=np.zeros((trees, 1), dtype=np.int64))
        low = np.arange(trees)[None, :] + np.array([[0], [trees]])
        return make_model(forest, np.stack([m - low, low], axis=2), m=m)
    assert case == "one-block"
    data = np.random.default_rng(8).random((90, 2))
    return fit(data, EstimatorConfig(m=90, trees=4, depth=3, seed=2, box=UNIT2))


class TestCountsEncoder:
    @pytest.mark.parametrize("case", ["all-zero", "one-value", "near-int32-max", "one-block"])
    def test_same_text_as_json(self, tmp_path, monkeypatch, case):
        model = encoder_model(case)
        tables = []
        original = estimator._count_table

        def spy(counts):
            texts, index = original(counts)
            tables.append((texts.size, counts.size))
            return texts, index

        monkeypatch.setattr(estimator, "_count_table", spy)
        expected = json.dumps(model.counts.tolist(), separators=(",", ":"))
        assert estimator._counts_json(model.counts) == expected
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        assert f'"counts":{expected},"normalizer":' in text
        assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"
        assert np.array_equal(load_model(path).leaf_counts, model.leaf_counts)
        assert tables and all(size <= count_size for size, count_size in tables)

    def test_table_never_outgrows_the_counts(self):
        model = encoder_model("near-int32-max")
        texts, index = estimator._count_table(model.counts)
        assert texts.size == 2 * 2**13 <= model.counts.size
        assert index.shape == model.counts.shape
        assert np.array_equal(texts[index].astype(np.int64), model.counts)


class TestPigeonhole:
    def test_majority_of_blocks_clean(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            n_out = int(rng.integers(0, 8))
            s = int(rng.integers(2 * n_out + 1, 2 * n_out + 6))
            m = int(rng.integers(1, 5))
            n = s * m + int(rng.integers(0, m))
            blocks = assign_blocks(n, m, rng)
            outliers = rng.choice(n, size=n_out, replace=False)
            frac = clean_block_fraction(blocks, outliers)
            n_clean = round(frac * blocks.shape[0])
            assert n_clean >= blocks.shape[0] - n_out
            if blocks.shape[0] >= 2 * n_out + 1:
                assert frac > 0.5
