import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import chi2

from conftest import (
    cell_contains,
    count_leaves,
    draw_labels,
    leaf_cell,
    leaf_index,
    path_split_counts,
)
from mfrde.geometry import Box, Forest, build_forest, leaf_indices

UNIT2 = Box((0.0, 0.0), (1.0, 1.0))


class TestBox:
    def test_contains_interior(self):
        assert UNIT2.contains_batch([(0.5, 0.5)]).tolist() == [True]

    def test_contains_closed_upper_face(self):
        assert UNIT2.contains_batch([(1.0, 1.0)]).tolist() == [True]

    def test_contains_outside(self):
        assert UNIT2.contains_batch([(1.0001, 0.5)]).tolist() == [False]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension 2"):
            UNIT2.contains_batch([(0.5, 0.5, 0.5)])

    def test_rejects_empty_extent(self):
        with pytest.raises(ValueError):
            Box((0.0, 0.0), (1.0, 0.0))

    def test_volume(self):
        assert Box((0.0, 0.0), (5.0, 5.0)).volume == 25.0

    def test_derived_arrays_read_only(self):
        box = Box((0.0, -1.5), (2.0, 3.0))
        assert box.lo_array.tolist() == [0.0, -1.5]
        assert box.hi_array.tolist() == [2.0, 3.0]
        assert box.volume == float(np.prod(np.subtract(box.hi, box.lo)))
        for arr in (box.lo_array, box.hi_array):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_eq_and_hash_use_bounds_only(self):
        a, b = Box((0.0, 0.0), (1.0, 2.0)), Box([0, 0], [1, 2])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Box((0.0, 0.0), (1.0, 3.0))
        assert repr(a) == "Box(lo=(0.0, 0.0), hi=(1.0, 2.0))"

    def test_bounding_margin(self):
        box = Box.bounding([(0.0, 1.0), (2.0, 3.0)], margin=0.5)
        assert box.lo == (-1.0, 0.0)
        assert box.hi == (3.0, 4.0)

    def test_bounding_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            Box.bounding([(0.0, 1.0), (0.0, 3.0)])


class TestBuildTree:
    """The per-tree label draw of ``build_forest``."""

    def test_one_dimension_only_choice(self):
        forest = build_forest(Box((0.0,), (1.0,)), 3, 2, seed=0)
        assert forest.labels.shape == (2, 7)
        assert forest.labels.dtype == np.int64
        assert (forest.labels == 0).all()
        assert forest.depth == 3 and forest.n_trees == 2

    def test_depth_zero_has_no_splits(self):
        forest = build_forest(UNIT2, 0, 3, seed=0)
        assert forest.labels.shape == (3, 0)
        assert forest.depth == 0
        assert leaf_indices(forest, [(0.3, 0.9)]).tolist() == [[0, 0, 0]]

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="depth must be non-negative"):
            build_forest(UNIT2, -1, 2, seed=0)
        with pytest.raises(ValueError, match="tree count"):
            build_forest(UNIT2, 3, 0, seed=0)

    def test_rows_are_per_tree_substream_draws(self):
        box = Box((0.0,) * 3, (1.0,) * 3)
        forest = build_forest(box, 5, 4, seed=np.random.SeedSequence(17))
        rows = [draw_labels(3, 5, np.random.default_rng(s))
                for s in np.random.SeedSequence(17).spawn(4)]
        assert np.array_equal(forest.labels, np.stack(rows))
        with pytest.raises(ValueError, match="read-only"):
            forest.labels[0, 0] = 1


class TestLeafIndex:
    def test_depth_zero(self):
        assert leaf_index(np.zeros(0, dtype=np.int64), UNIT2, (0.3, 0.9)) == 0

    def test_hand_trace(self):
        # root splits axis 0, both children split axis 1
        assert leaf_index(np.array([0, 1, 1]), UNIT2, (0.25, 0.75)) == 1

    def test_boundary_goes_right(self):
        assert leaf_index(np.array([0, 1, 1]), UNIT2, (0.25, 0.5)) == 1

    def test_outside_raises(self):
        with pytest.raises(ValueError, match="outside domain"):
            leaf_index(np.array([0]), UNIT2, (1.5, 0.5))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        tree = draw_labels(3, 5, rng)
        box = Box((-1.0, 0.0, 2.0), (1.0, 5.0, 3.0))
        pts = box.lo_array + rng.random((200, 3)) * (box.hi_array - box.lo_array)
        ids = leaf_indices(Forest(box=box, labels=tree[None, :]), pts)[:, 0]
        assert [leaf_index(tree, box, p) for p in pts] == ids.tolist()


# Non-dyadic boxes, one per dimension, plus random ones below.
FIXED_BOXES = (
    Box((-0.3,), (1.7,)),
    Box((0.1, -2.5), (0.35, 7.0)),
    Box((-0.3, 2.0, 1e3), (1.7, 2.1, 1.5e3)),
    Box((1e-3, -7.0, 0.0, 3.3), (1e-3 + 1e-6, 9.0, 1e5, 3.7)),
)


@st.composite
def random_boxes(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    lo = draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d))
    width = draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d))
    return Box(tuple(lo), tuple(a + w for a, w in zip(lo, width)))


@st.composite
def forests(draw):
    box = draw(st.one_of(st.sampled_from(FIXED_BOXES), random_boxes()))
    p = draw(st.integers(min_value=0, max_value=10))
    n_trees = draw(st.integers(min_value=1, max_value=3))
    return build_forest(box, p, n_trees, seed=draw(st.integers(0, 2**32 - 1)))


@st.composite
def forest_and_points(draw):
    """A forest and in-box points: uniform, cell corners and upper faces.

    A corner of a leaf cell is a breakpoint of the dyadic mesh on every
    axis (or a face of the box), where the half-open rule decides.
    """
    forest = draw(forests())
    box = forest.box
    lo, hi = box.lo_array, box.hi_array
    rows = []
    for u in draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=box.d,
                                    max_size=box.d), max_size=8)):
        rows.append(np.minimum(lo + np.asarray(u) * (hi - lo), hi))
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        tree = forest.labels[draw(st.integers(0, forest.n_trees - 1))]
        cell = leaf_cell(tree, box, draw(st.integers(0, 2**forest.depth - 1)))
        upper = np.asarray(draw(st.lists(st.booleans(), min_size=box.d,
                                         max_size=box.d)))
        rows.append(np.where(upper, cell.hi_array, cell.lo_array))
    if draw(st.booleans()):
        rows.append(hi.copy())
    pts = np.asarray(rows, dtype=float).reshape(len(rows), box.d)
    return forest, pts


def oracle_ids(forest: Forest, pts: np.ndarray) -> np.ndarray:
    return np.array(
        [[leaf_index(tree, forest.box, x) for tree in forest.labels] for x in pts],
        dtype=np.int64,
    ).reshape(len(pts), forest.n_trees)


class TestLeafKernel:
    """``leaf_indices`` against the float walker ``leaf_index``."""

    @given(forest_and_points())
    def test_matches_float_walker(self, case):
        forest, pts = case
        ids = leaf_indices(forest, pts)
        assert ids.shape == (len(pts), forest.n_trees)
        assert ids.dtype == np.int32
        assert np.array_equal(ids, oracle_ids(forest, pts))

    @given(forest_and_points())
    def test_one_point_calls_match_batch(self, case):
        forest, pts = case
        ids = leaf_indices(forest, pts)
        for x, row in zip(pts, ids):
            assert leaf_indices(forest, x).tolist() == [row.tolist()]

    @given(forest_and_points(), st.data())
    def test_outside_and_nan_raise(self, case, data):
        forest, pts = case
        box = forest.box
        bad = box.hi_array.copy()
        axis = data.draw(st.integers(0, box.d - 1))
        bad[axis] = data.draw(st.sampled_from([
            np.nextafter(box.hi[axis], np.inf),
            np.nextafter(box.lo[axis], -np.inf),
            np.nan, np.inf, -np.inf,
        ]))
        at = data.draw(st.integers(0, len(pts)))
        with pytest.raises(ValueError, match="point outside domain"):
            leaf_indices(forest, np.insert(pts, at, bad, axis=0))
        with pytest.raises(ValueError, match="point outside domain"):
            leaf_indices(forest, bad)

    def test_upper_face_is_last_cell(self):
        box = FIXED_BOXES[2]
        forest = build_forest(box, 10, 3, seed=4)
        assert (leaf_indices(forest, box.hi_array) == 2**10 - 1).all()
        assert (leaf_indices(forest, box.lo_array) == 0).all()

    def test_empty_batch(self):
        forest = build_forest(UNIT2, 3, 4, seed=0)
        assert leaf_indices(forest, np.zeros((0, 2))).shape == (0, 4)

    def test_forest_size_guard(self):
        # zero-stride labels: a depth-30 forest without allocating its nodes
        labels = np.broadcast_to(np.int64(0), (2, 2**30 - 1))
        with pytest.raises(ValueError, match="forest too large"):
            Forest(box=UNIT2, labels=labels)

    def test_build_forest_checks_size_before_drawing(self):
        # depth 30 with 20 trees: each tree would allocate an 8 GiB label array
        class NoSpawn(np.random.SeedSequence):
            def spawn(self, n_children):
                raise AssertionError("a tree stream was spawned before the size check")

        with pytest.raises(ValueError, match="forest too large"):
            build_forest(UNIT2, 30, 20, seed=NoSpawn(0))


class TestLeafCell:
    def test_depth_zero_returns_box(self):
        assert leaf_cell(np.zeros(0, dtype=np.int64), UNIT2, 0) == UNIT2

    def test_hand_replay(self):
        cell = leaf_cell(np.array([0, 1, 1]), UNIT2, 1)
        assert cell.lo == (0.0, 0.5)
        assert cell.hi == (0.5, 1.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            leaf_cell(np.array([0]), UNIT2, 2)

    def test_volume_halving(self):
        box = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        tree = draw_labels(3, 3, np.random.default_rng(7))
        for leaf in range(8):
            assert leaf_cell(tree, box, leaf).volume == pytest.approx(1 / 8, rel=1e-15)


class TestCountLeaves:
    def test_empty(self):
        counts, dropped = count_leaves(np.array([0]), UNIT2, [])
        assert counts.tolist() == [0, 0]
        assert dropped == 0

    def test_example(self):
        pts = [(0.25, 0.5), (0.75, 0.5), (0.9, 0.1)]
        counts, dropped = count_leaves(np.array([0]), UNIT2, pts)
        assert counts.tolist() == [1, 2]
        assert dropped == 0

    def test_outside_point_dropped(self):
        pts = [(0.25, 0.5), (0.75, 0.5), (0.9, 0.1), (1.5, 0.5)]
        counts, dropped = count_leaves(np.array([0]), UNIT2, pts)
        assert counts.tolist() == [1, 2]
        assert dropped == 1

    def test_brute_force_oracle(self):
        # every point tested against every leaf cell, n <= 200, p <= 4
        rng = np.random.default_rng(11)
        for trial in range(20):
            d = int(rng.integers(1, 4))
            p = int(rng.integers(0, 5))
            n = int(rng.integers(0, 201))
            lo = rng.normal(size=d)
            box = Box(tuple(lo), tuple(lo + rng.uniform(0.5, 2.0, size=d)))
            tree = draw_labels(d, p, rng)
            # scatter some points outside the box as well
            pts = box.lo_array + rng.uniform(-0.2, 1.2, size=(n, d)) * (
                box.hi_array - box.lo_array
            )
            counts, dropped = count_leaves(tree, box, pts)
            brute = np.zeros(2**p, dtype=int)
            for leaf in range(2**p):
                cell = leaf_cell(tree, box, leaf)
                for x in pts:
                    brute[leaf] += bool(cell_contains(cell, box, x))
            assert counts.tolist() == brute.tolist()
            assert counts.sum() + dropped == n


class TestForest:
    def test_single_tree(self):
        forest = build_forest(UNIT2, 2, 1, seed=5)
        assert forest.n_trees == 1

    def test_determinism(self):
        f1 = build_forest(UNIT2, 4, 6, seed=123)
        f2 = build_forest(UNIT2, 4, 6, seed=123)
        assert np.array_equal(f1.labels, f2.labels)

    def test_trees_differ(self):
        box = Box((0.0,) * 3, (1.0,) * 3)
        forest = build_forest(box, 4, 5, seed=99)
        distinct = {tuple(row) for row in forest.labels.tolist()}
        assert len(distinct) >= 2

    def test_int64_labels_kept_read_only(self):
        labels = np.zeros((2, 3), dtype=np.int64)
        forest = Forest(box=UNIT2, labels=labels)
        assert forest.labels is labels
        assert not labels.flags.writeable
        narrow = np.zeros((2, 3), dtype=np.int32)
        forest = Forest(box=UNIT2, labels=narrow)
        assert forest.labels.dtype == np.int64 and not forest.labels.flags.writeable
        assert narrow.flags.writeable

    def test_bad_label_shape_rejected(self):
        # T and p come from the shape: a width other than 2**p - 1, an
        # array that is not 2-D, no tree or a non-integer dtype is no forest
        cases = [
            (np.zeros((2, 4), dtype=np.int64), "2\\*\\*p - 1 split labels, got 4"),
            (np.zeros(3, dtype=np.int64), "got shape \\(3,\\)"),
            (np.zeros((2, 3, 1), dtype=np.int64), "got shape \\(2, 3, 1\\)"),
            (np.zeros((0, 3), dtype=np.int64), "T >= 1"),
            (np.zeros((1, 3)), "signed integers, not float64"),
            (np.zeros((1, 3), dtype=bool), "signed integers, not bool"),
        ]
        for labels, message in cases:
            with pytest.raises(ValueError, match=message):
                Forest(box=UNIT2, labels=labels)

    def test_label_out_of_dimension_rejected(self):
        for label in (2, 5, -1):
            with pytest.raises(ValueError, match="must lie in \\[0, 2\\)"):
                Forest(box=UNIT2, labels=np.array([[0, label, 1]]))


class TestPartitionProperty:
    def test_exactly_one_cell_per_point(self):
        rng = np.random.default_rng(21)
        total = 0
        while total < 10_000:
            d = int(rng.integers(1, 4))
            p = int(rng.integers(0, 5))
            box = Box(tuple(-rng.random(d) - 0.1), tuple(rng.random(d) + 0.1))
            tree = draw_labels(d, p, rng)
            pts = box.lo_array + rng.random((500, d)) * (box.hi_array - box.lo_array)
            # include exact boundary points of the dyadic mesh
            pts[:25] = np.round(pts[:25] * 4) / 4
            pts = pts[box.contains_batch(pts)]
            membership = np.stack(
                [
                    cell_contains(leaf_cell(tree, box, leaf), box, pts)
                    for leaf in range(2**p)
                ]
            )
            assert (membership.sum(axis=0) == 1).all()
            ids = leaf_indices(Forest(box=box, labels=tree[None, :]), pts)[:, 0]
            assert np.array_equal(membership.argmax(axis=0), ids)
            total += len(pts)

    def test_volume_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            p = int(rng.integers(0, 7))
            box = Box(tuple(rng.normal(size=d)), tuple(rng.normal(size=d) + 3.0))
            tree = draw_labels(d, p, rng)
            total = sum(leaf_cell(tree, box, leaf).volume for leaf in range(2**p))
            assert total == pytest.approx(box.volume, rel=1e-12)


def multinomial_split_chisq(d: int, p: int, n_trees: int, seed: int) -> float:
    """Chi-square p-value of path split counts against multinomial(p, 1/d).

    Counts per composition are pooled (smallest expectation first) until
    every pooled cell expects at least 5 trees.
    """
    from itertools import product as iproduct

    box = Box((0.0,) * d, (1.0,) * d)
    x = np.full(d, 0.123456)
    rng = np.random.default_rng(seed)
    observed: dict[tuple, int] = {}
    for _ in range(n_trees):
        tree = draw_labels(d, p, rng)
        key = tuple(path_split_counts(tree, box, x).tolist())
        observed[key] = observed.get(key, 0) + 1

    # multinomial probabilities over all compositions of p into d parts
    from math import comb, factorial

    comps = [c for c in iproduct(range(p + 1), repeat=d) if sum(c) == p]
    probs = {
        c: factorial(p) / np.prod([factorial(k) for k in c]) / d**p for c in comps
    }
    cells = sorted(comps, key=lambda c: probs[c])
    pooled_obs, pooled_exp = [], []
    acc_o, acc_e = 0.0, 0.0
    for c in cells:
        acc_o += observed.get(c, 0)
        acc_e += probs[c] * n_trees
        if acc_e >= 5.0:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o, acc_e = 0.0, 0.0
    if acc_e > 0:
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    stat = sum((o - e) ** 2 / e for o, e in zip(pooled_obs, pooled_exp))
    return float(chi2.sf(stat, df=len(pooled_obs) - 1))


def test_split_counts_multinomial():
    # Monte-Carlo check of the per-dimension split-count law along a path
    assert multinomial_split_chisq(d=2, p=12, n_trees=10_000, seed=2024) > 0.001


def test_path_split_counts_sum_to_depth():
    rng = np.random.default_rng(5)
    box = Box((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
    for _ in range(20):
        tree = draw_labels(3, 6, rng)
        counts = path_split_counts(tree, box, (1.0, 0.3, 1.7))
        assert counts.sum() == 6
