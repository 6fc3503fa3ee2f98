import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st
from scipy.stats import chi2

from conftest import (
    cell_contains,
    count_leaves,
    draw_labels,
    dyadic_corners,
    leaf_cell,
    leaf_index,
    path_split_counts,
    slice_write_leaf_table,
)
from mfrde import geometry
from mfrde.estimator import _QUAD_CHUNK
from mfrde.geometry import _lattice
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

    @pytest.mark.parametrize(
        "lo, hi",
        [((-np.inf, 0.0), (np.inf, 1.0)), ((0.0, 0.0), (np.inf, 1.0)),
         ((-1e308, 0.0), (1e308, 1.0)), ((0.0, 0.0), (1e200, 1e200)),
         ((0.0, 0.0), (1e-200, 1e-200))],
        ids=["infinite-bounds", "infinite-hi", "extent-overflows", "volume-overflows",
             "volume-underflows"],
    )
    def test_rejects_non_finite_geometry(self, lo, hi):
        # each used to construct with volume inf or 0, so densities came out
        # 0 or inf, or a fit ended as a "degenerate model"
        with pytest.raises(ValueError, match="must be finite and positive"):
            Box(lo, hi)

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

    @pytest.mark.parametrize("margin", [0.0, 0.1])
    def test_bounding_names_an_overflowing_extent(self, margin):
        # hi - lo overflowed with a numpy warning, and at margin 0 the
        # bounds became lo - 0 * inf = NaN, reported as no positive extent
        with pytest.raises(ValueError, match=r"must be finite and positive.*hi - lo=\(inf"):
            Box.bounding([(-1e308, 0.0), (1e308, 1.0)], margin=margin)


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
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -3$"):
            build_forest(UNIT2, 3, 2, seed=-3)

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

    def test_points_normalized_once(self, monkeypatch):
        # the box check compares the normalized points; it used to run
        # them through Box.contains_batch, which normalized them again
        calls = []
        original = geometry._as_points

        def spy(points, d):
            calls.append(d)
            return original(points, d)

        monkeypatch.setattr(geometry, "_as_points", spy)
        forest = build_forest(UNIT2, 3, 2, seed=0)
        assert leaf_indices(forest, [(0.3, 0.9), (1.0, 0.0)]).shape == (2, 2)
        assert calls == [2]

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
def boxes_and_depths(draw):
    """A box and a depth that cut it into at most ``2**12`` dyadic cells."""
    box = draw(st.one_of(st.sampled_from(FIXED_BOXES), random_boxes()))
    return box, draw(st.integers(0, 12 // box.d))


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


def cell_centres(box: Box, p: int, cells: np.ndarray) -> np.ndarray:
    """Float centres of depth-``p`` dyadic cells, numbered in C order over the axes."""
    codes = np.stack(np.unravel_index(cells, (2**p,) * box.d), axis=1)
    return box.lo_array + (box.hi_array - box.lo_array) * ((codes + 0.5) / 2**p)


def table_depth(forest: Forest) -> int:
    """Depth ``k`` of the forest's id table, read from its shape."""
    return (forest._leaf_table.shape[1].bit_length() - 1) // forest.box.d


def mesh_points(box: Box, p: int, rng) -> np.ndarray:
    """Uniform points, points on the depth-``p`` mesh of every axis, the upper face."""
    mesh = geometry._breakpoints(box, p)
    return np.vstack([
        box.lo_array + rng.random((100, box.d)) * (box.hi_array - box.lo_array),
        mesh[np.arange(box.d), rng.integers(0, 2**p + 1, size=(100, box.d))],
        box.hi_array,
    ])


# The properties of TestLeafKernel also run from its two subclasses, one
# function called from three classes; all share its example database, as
# the same property must hold in every regime.
all_regimes = settings(suppress_health_check=[HealthCheck.differing_executors])


class TestLeafKernel:
    """``leaf_indices`` against the float walker ``leaf_index``, with k = p.

    Every forest here has its leaves in its id table; the subclasses run
    every test again with monkeypatched budgets, so that every forest
    walks all its levels (k = 0) or some of them (0 < k < p).  Drawn
    forests outside the class's regime are discarded.
    """

    budgets: dict = {}

    @pytest.fixture(scope="class", autouse=True)
    def patched_budgets(self, request):
        with pytest.MonkeyPatch.context() as mp:
            for name, value in request.cls.budgets.items():
                mp.setattr(geometry, name, value)
            yield

    def in_regime(self, k: int, p: int) -> bool:
        return k == p

    def drawn(self, forest: Forest) -> None:
        k = table_depth(forest)
        assert k == geometry._table_depth(forest.n_trees, forest.depth, forest.box.d)
        assume(self.in_regime(k, forest.depth))

    @all_regimes
    @given(forest_and_points())
    def test_matches_float_walker(self, case):
        forest, pts = case
        self.drawn(forest)
        ids = leaf_indices(forest, pts)
        assert ids.shape == (len(pts), forest.n_trees)
        assert ids.dtype == np.int32
        assert np.array_equal(ids, oracle_ids(forest, pts))

    @pytest.mark.parametrize("d, p, n_trees", [(2, 8, 12), (3, 6, 20), (2, 9, 2)])
    def test_benchmark_shapes_match_float_walker(self, d, p, n_trees):
        box = FIXED_BOXES[d - 1]
        forest = build_forest(box, p, n_trees, seed=p)
        assert self.in_regime(table_depth(forest), p)
        pts = mesh_points(box, p, np.random.default_rng(d))
        assert np.array_equal(leaf_indices(forest, pts), oracle_ids(forest, pts))

    @settings(all_regimes, max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 9), st.integers(1, 30), st.integers(0, 2**32 - 1))
    @example(2, 9, 30, 0)  # uint16 ids, near both budgets
    @example(6, 9, 30, 0)  # the byte budget stops the table at k = 3
    def test_table_matches_slice_writes(self, d, p, n_trees, seed):
        labels = np.random.default_rng(seed).integers(0, d, size=(n_trees, 2**p - 1))
        forest = Forest(box=Box((0.0,) * d, (1.0,) * d), labels=labels)
        self.same_table_as_slice_writes(forest)

    @pytest.mark.parametrize("d, n_trees, p", [
        (2, 12, 8), (2, 20, 6), (2, 67, 7), (2, 20, 9),
        (3, 20, 6), (5, 20, 3), (4, 20, 4), (8, 20, 2),
    ])
    def test_fill_shapes_match_slice_writes(self, d, n_trees, p):
        box = Box((0.0,) * d, (1.0,) * d)
        self.same_table_as_slice_writes(build_forest(box, p, n_trees, seed=d))

    @staticmethod
    def same_table_as_slice_writes(forest: Forest) -> None:
        k = table_depth(forest)
        assert k == geometry._table_depth(forest.n_trees, forest.depth, forest.box.d)
        table = slice_write_leaf_table(forest.labels, k, forest.box.d)
        assert forest._leaf_table.dtype == table.dtype
        assert forest._leaf_table.shape == table.shape
        assert forest._leaf_table.tobytes() == table.tobytes()

    @all_regimes
    @given(forest_and_points())
    def test_one_point_calls_match_batch(self, case):
        forest, pts = case
        self.drawn(forest)
        ids = leaf_indices(forest, pts)
        for x, row in zip(pts, ids):
            assert leaf_indices(forest, x).tolist() == [row.tolist()]

    @all_regimes
    @given(forest_and_points(), st.data())
    def test_outside_and_nan_raise(self, case, data):
        forest, pts = case
        self.drawn(forest)
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

    @all_regimes
    @given(forests(), st.data())
    def test_cell_ids_match_float_walker_at_centres(self, forest, data):
        # the codes of a block of at most 64 cells, in the estimator's lattice order
        self.drawn(forest)
        axes, side = [], 2**forest.depth
        for _ in range(forest.box.d):
            lo = data.draw(st.integers(0, side - 1))
            room = 64 // int(np.prod([a.size for a in axes]))
            axes.append(np.arange(lo, data.draw(st.integers(lo + 1, min(side, lo + room))),
                                  dtype=np.int32))
        codes = np.concatenate(list(_lattice(axes, _QUAD_CHUNK)))
        ids = geometry._ids_of_codes(forest, codes)
        assert ids.shape == (len(codes), forest.n_trees)
        assert ids.dtype == np.int32
        cells = np.ravel_multi_index(tuple(codes.T), (side,) * forest.box.d)
        centres = cell_centres(forest.box, forest.depth, cells)
        assert np.array_equal(ids, oracle_ids(forest, centres))

    @settings(all_regimes, max_examples=40, deadline=None)
    @given(boxes_and_depths(), st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans())
    # seed 18 draws one depth-2 tree that splits axis 0 twice, so cell 40,
    # (2, 2, 0), first of its row in the second 37-cell chunk, has the ids of
    # cell 39 before it but is a corner: its lower neighbours lie outside
    @example((FIXED_BOXES[2], 2), 1, 18, False)
    def test_refinement_matches_centre_walks(self, box_and_depth, trees, seed, row_cut):
        # chunks of 37 cells, or of 2**p - 1, which cut every row of cells
        box, p = box_and_depth
        forest = build_forest(box, p, trees, seed)
        self.drawn(forest)
        chunk = max(2**p - 1, 1) if row_cut else 37
        cells = 2 ** (p * box.d)
        centre_ids = leaf_indices(forest, cell_centres(box, p, np.arange(cells)))
        corners = start = 0
        for ids, row in geometry._refinement(forest, chunk):
            assert ids.dtype == np.int32 and ids.shape[1:] == (forest.n_trees,)
            assert row.shape == (min(chunk, cells - start),)
            # every corner is some cell's, and each cell gets its own walk's ids
            assert np.array_equal(np.unique(row), np.arange(len(ids)))
            assert np.array_equal(ids[row], centre_ids[start : start + row.size])
            corners += len(ids)
            start += row.size
        assert start == cells
        assert corners == dyadic_corners(forest, chunk)

    def test_cell_ids_in_walk_chunks(self, monkeypatch):
        box = FIXED_BOXES[2]
        forest = build_forest(box, 3, 4, seed=9)
        monkeypatch.setattr(geometry, "_WALK_CHUNK", 5)
        codes = np.concatenate(list(_lattice([np.arange(8, dtype=np.int32)] * 3, _QUAD_CHUNK)))
        ids = geometry._ids_of_codes(forest, codes[3:500])
        centres = cell_centres(box, 3, np.arange(3, 500))
        assert np.array_equal(ids, leaf_indices(forest, centres))

    def test_upper_face_is_last_cell(self):
        box = FIXED_BOXES[2]
        forest = build_forest(box, 10, 3, seed=4)
        assert (leaf_indices(forest, box.hi_array) == 2**10 - 1).all()
        assert (leaf_indices(forest, box.lo_array) == 0).all()

    def test_empty_batch(self):
        forest = build_forest(UNIT2, 3, 4, seed=0)
        assert leaf_indices(forest, np.zeros((0, 2))).shape == (0, 4)

    def test_forest_size_guard(self, monkeypatch):
        # zero-stride labels: a depth-30 forest without allocating its
        # nodes, and without any leaf table work
        def no_table_work(*args):
            raise AssertionError("leaf table work before the size check")

        monkeypatch.setattr(geometry, "_table_depth", no_table_work)
        monkeypatch.setattr(geometry, "_leaf_table", no_table_work)
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


class TestLeafKernelWalk(TestLeafKernel):
    """k = 0: no budget admits a table, so every forest walks every level."""

    budgets = {"_TABLE_BYTES": 0}

    def in_regime(self, k: int, p: int) -> bool:
        return k == 0


class TestLeafKernelPartial(TestLeafKernel):
    """0 < k < p: at most 40 depth-k nodes, so the table stops short of the leaves.

    With 40, each benchmark shape and the upper-face forest get a table of
    depth 1 to 4.
    """

    budgets = {"_TABLE_LEAVES": 40}

    def in_regime(self, k: int, p: int) -> bool:
        return 0 < k < p


class TestLeafTable:
    """How deep each forest's id table is, checked without building big ones."""

    def test_table_is_read_only_and_narrow(self):
        forest = build_forest(UNIT2, 8, 12, seed=0)
        assert forest._leaf_table.shape == (12, 2**16)
        assert forest._leaf_table.dtype == np.uint8
        with pytest.raises(ValueError, match="read-only"):
            forest._leaf_table[0, 0] = 1
        assert build_forest(UNIT2, 9, 2, seed=0)._leaf_table.dtype == np.uint16

    def test_full_table_builds_no_walk_table(self):
        forest = build_forest(UNIT2, 8, 12, seed=0)
        assert forest._bit_table.shape == (2, 0)
        assert forest._level_base.shape == (0, 12)

    def test_table_within_both_budgets_only(self, monkeypatch):
        # d = 2, p = 3, T = 2: the full table holds 128 one-byte ids
        # of 16 leaves; at one below either, depth 2 is next
        for name, need in (("_TABLE_BYTES", 2 * 2**6), ("_TABLE_LEAVES", 2 * 2**3)):
            for budget, k in ((need, 3), (need - 1, 2)):
                with monkeypatch.context() as mp:
                    mp.setattr(geometry, name, budget)
                    assert geometry._table_depth(2, 3, 2) == k
                    forest = build_forest(UNIT2, 3, 2, seed=1)
                assert forest._leaf_table.shape == (2, 2 ** (2 * k))
                assert forest._bit_table.shape == (2, 2 * (2**3 - 2**k))
                assert forest._level_base.shape == (3 - k, 2)

    def test_id_width_follows_depth(self, monkeypatch):
        # d = 1, p = 9, T = 1: depth 9 needs 2 bytes per id; one byte
        # below that budget, the depth-8 table is uint8
        line = Box((0.0,), (1.0,))
        for budget, k, dtype in ((2 * 2**9, 9, np.uint16), (2 * 2**9 - 1, 8, np.uint8)):
            with monkeypatch.context() as mp:
                mp.setattr(geometry, "_TABLE_BYTES", budget)
                forest = build_forest(line, 9, 1, seed=3)
            assert forest._leaf_table.shape == (1, 2**k)
            assert forest._leaf_table.dtype == dtype
            pts = mesh_points(line, 9, np.random.default_rng(3))
            assert np.array_equal(leaf_indices(forest, pts), oracle_ids(forest, pts))

    @pytest.mark.parametrize("d, p, n_trees, k", [
        (5, 8, 2, 4),    # 2 * 2**(5k) one-byte ids: 2**21 at k = 4, 2**26 at 5
        (1, 15, 1, 14),  # 2**15 leaves at k = 15: over the fill budget
        (2, 0, 3, 0),    # depth 0: a (T, 1) table of zeros
    ], ids=["5-8-2", "1-15-1", "2-0-3"])
    def test_depth_past_the_full_table(self, d, p, n_trees, k):
        box = Box((0.0,) * d, (1.0,) * d)
        forest = build_forest(box, p, n_trees, seed=2)
        assert geometry._table_depth(n_trees, p, d) == k
        assert forest._leaf_table.shape == (n_trees, 2 ** (k * d))
        assert len(forest._level_base) == p - k
        pts = mesh_points(box, p, np.random.default_rng(p))
        assert np.array_equal(leaf_indices(forest, pts), oracle_ids(forest, pts))


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

    @pytest.mark.parametrize("hi", [1.7e308, np.finfo(float).max])
    def test_mesh_near_the_float_maximum(self, hi):
        # 0.5 * (a + b) overflowed once a + b passed the float maximum, so
        # every axis-0 breakpoint of this box was inf.  Halving is exact at
        # these magnitudes, so the mesh is a scaled-down box's, scaled up
        box = Box((1e308, 0.0), (hi, 1.0))
        scale = 2.0**-4
        small = geometry._breakpoints(Box((1e308 * scale, 0.0), (hi * scale, 1.0)), 6)
        mesh = geometry._breakpoints(box, 6)
        assert mesh[0].tolist() == (small[0] / scale).tolist()
        assert mesh[1].tolist() == small[1].tolist()
        # the last edge steps past hi: +inf when hi is the float maximum
        edges = build_forest(box, 6, 2, seed=0)._edges
        assert edges[:, :-1].tolist() == mesh[:, :-1].tolist()
        with np.errstate(over="ignore"):
            assert edges[:, -1].tolist() == [np.nextafter(hi, np.inf), np.nextafter(1.0, 2.0)]

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
