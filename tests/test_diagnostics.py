"""The local-outlier and clean-block oracles of ``conftest`` on hand cases.

``TestNonLocalityImmunity`` and ``TestPigeonhole`` in ``test_estimator``
rely on them.
"""

import numpy as np
import pytest

from conftest import clean_block_fraction, local_outliers
from mfrde.estimator import assign_blocks
from mfrde.geometry import Box, Forest, build_forest

UNIT2 = Box((0.0, 0.0), (1.0, 1.0))
# Depth-1 trees: the root splits axis 0, or axis 1.
SPLIT_DIM0 = Forest(box=UNIT2, labels=np.array([[0]]))
SPLIT_BOTH = Forest(box=UNIT2, labels=np.array([[0], [1]]))


class TestLocalOutliers:
    def test_empty(self):
        assert local_outliers(SPLIT_DIM0, (0.5, 0.5), np.zeros((0, 2))).size == 0

    def test_single_tree_hand_trace(self):
        out = np.array([(0.4, 0.9), (0.8, 0.2)])
        found = local_outliers(SPLIT_DIM0, (0.25, 0.5), out)
        assert found.tolist() == [0]

    def test_two_trees_boundary_rule(self):
        # x2 = 0.5 lands in the upper cell of the axis-1 split, 0.2 stays
        # below, so the second tree adds nothing
        out = np.array([(0.4, 0.9), (0.8, 0.2)])
        found = local_outliers(SPLIT_BOTH, (0.25, 0.5), out)
        assert found.tolist() == [0]

    def test_monotone_in_trees(self):
        rng = np.random.default_rng(3)
        box = UNIT2
        out = rng.random((40, 2))
        x = (0.3, 0.6)
        forest_big = build_forest(box, 3, 8, seed=5)
        for t in range(1, 9):
            small = Forest(box=box, labels=forest_big.labels[:t])
            big = Forest(box=box, labels=forest_big.labels[: t + 1])
            a = set(local_outliers(small, x, out).tolist())
            b = set(local_outliers(big, x, out).tolist())
            assert a <= b

    def test_depth_zero_returns_all_inside(self):
        forest = build_forest(UNIT2, 0, 3, seed=1)
        out = np.array([(0.1, 0.1), (0.9, 0.9), (1.5, 0.5)])
        found = local_outliers(forest, (0.5, 0.5), out)
        assert found.tolist() == [0, 1]  # the out-of-box point has no leaf

    def test_outside_query(self):
        with pytest.raises(ValueError, match="outside domain"):
            local_outliers(SPLIT_DIM0, (1.5, 0.5), np.zeros((1, 2)))


class TestCleanBlockFraction:
    def test_no_outliers(self):
        a = assign_blocks(20, 4, np.random.default_rng(0))
        assert clean_block_fraction(a, []) == 1.0

    def test_all_outliers_in_one_block(self):
        a = assign_blocks(25, 5, np.random.default_rng(1))
        assert clean_block_fraction(a, a[2]) == 0.8

    def test_pigeonhole_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = assign_blocks(40, 8, rng)  # S = 5
            outliers = rng.choice(40, size=2, replace=False)
            assert clean_block_fraction(a, outliers) >= 3 / 5

    def test_one_block_per_outlier_at_most(self):
        rng = np.random.default_rng(4)
        a = assign_blocks(60, 6, rng)
        outliers = rng.choice(60, size=7, replace=False)
        frac = clean_block_fraction(a, outliers)
        contaminated = round((1 - frac) * a.shape[0])
        assert contaminated <= 7
