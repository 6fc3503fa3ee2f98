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
from hypothesis import given, settings, strategies as st

from conftest import (
    block_densities,
    clean_block_fraction,
    count_leaves,
    full_disk_open,
    json_load_counts,
    leaf_index,
    local_outliers,
    naive_median_at,
    naive_sfde_at,
)
from mfrde import datasets, estimator
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
from mfrde.geometry import Box, Forest, leaf_indices

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
        dropped=0,
        leaf_counts=counts.transpose(1, 2, 0),
        normalizer=normalizer,
        quadrature=Quadrature(method="exact-dyadic"),
    )


def median_at(model, x) -> float:
    """The unnormalized lower median of the block densities at one point."""
    return estimator._median_values(
        model.forest, model.leaf_counts, model.m, model.median_rank, np.atleast_2d(x)
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

    def test_quadrature_parse(self):
        assert Quadrature.parse("exact").method == "exact-dyadic"
        assert Quadrature.parse("grid:50").grid_points == 50
        assert Quadrature.parse("mc:1000").mc_draws == 1000
        assert Quadrature.parse("auto").method == "auto"
        with pytest.raises(ValueError):
            Quadrature.parse("simpson")
        # these used to parse, and the number was ignored
        for spec in ("auto:7", "exact:4", "exact-dyadic:4", "auto:"):
            with pytest.raises(ValueError, match="takes no argument"):
                Quadrature.parse(spec)


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
    median = estimator._median_values(
        model.forest, leaf_counts, model.m, model.median_rank, x[None, :]
    )[0]
    untouched = np.delete(block_densities(model, x), bad)
    assert untouched.min() <= median <= untouched.max()


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

    def test_count_sum_range_guard(self):
        # T counts of at most m each must sum exactly in int32
        forest = two_tree_forest()
        with pytest.raises(ValueError, match="2\\*\\*31"):
            make_model(forest, np.zeros((1, 2, 2), dtype=np.int64), m=2**30)


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

        vals = _median_values(exact.forest, exact.leaf_counts, exact.m, exact.median_rank, probe)
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
        # 2**24 budget; 27**5 fits and 28**5 does not
        quad = estimator._resolve_quadrature(Quadrature(), 6, 5)
        assert quad.method == "regular-grid"
        assert quad.grid_points == 27

    def test_auto_over_budget_raises(self, monkeypatch):
        monkeypatch.setattr(estimator, "_CELL_BUDGET", 7)
        with pytest.raises(ValueError, match="budget of 7 nodes; use monte-carlo"):
            estimator._resolve_quadrature(Quadrature(), 4, 3)


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

    def test_median_chunks_do_not_change_bits(self, monkeypatch):
        data = np.random.default_rng(4).random((400, 2)) ** 2
        cfg = EstimatorConfig(m=20, trees=3, depth=4, seed=2, box=UNIT2,
                              quadrature=Quadrature(method="regular-grid", grid_points=40))
        probe = np.random.default_rng(5).random((1000, 2))
        model = fit(data, cfg)
        dens = evaluate_batch(model, probe)
        # S = 20 blocks: walks of 700 points cut the 1000 queries and the
        # 1600 grid nodes with ragged tails; gather sub-chunks of 300 points
        # cut every walk, again with a ragged tail
        monkeypatch.setattr(estimator, "_WALK_POINTS", 700)
        monkeypatch.setattr(estimator, "_GATHER_ELEMS", 20 * 300)
        chunked = fit(data, cfg)
        assert chunked.normalizer == model.normalizer
        assert evaluate_batch(chunked, probe).tobytes() == dens.tobytes()

    def test_median_kernel_memory_is_bounded(self):
        # S = 400 blocks, 40k queries: the kernel's temporaries stay
        # cache-sized instead of growing with the chunk times S
        data = np.random.default_rng(8).random((8000, 2))
        model = fit(data, EstimatorConfig(m=20, trees=4, depth=3, seed=1, box=UNIT2))
        assert model.n_blocks == 400
        probe = np.random.default_rng(9).random((40_000, 2))
        tracemalloc.start()
        try:
            evaluate_batch(model, probe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


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
            batch = estimator._median_values(
                model.forest, model.leaf_counts, m, model.median_rank, queries
            )
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
