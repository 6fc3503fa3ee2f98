import hashlib
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import chisquare, kstest

from conftest import csv_float_read, csv_writer_table
from mfrde.datasets import (
    _STATE_BOX,
    DOMAIN,
    Dataset,
    _outliers,
    _write_table,
    generate,
    read_dataset,
    true_density,
    write_dataset,
)
from mfrde.geometry import Box

BOX3 = Box((0.0, 0.0, 0.0), (5.0, 5.0, 5.0))


def sha(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


# Recorded from the scheme-class generators these replaced; labels depend
# only on the shuffle stream, so all three schemes share one label digest.
PINNED = {
    ("uniform", 0.2, DOMAIN): "b5c8861435499bd4e30ed09b74c476ad5b3930f19b2720dfdfe1ca913378c362",
    ("beta", 0.2, DOMAIN): "f7d9df8edf9dbc0d34b4c5e5ebf90f4f5a58bfbea18af1c7fe2f63d079c19968",
    ("discrete", 0.2, DOMAIN): "943a9a77478a114f4ea55855e1a40bbf90aa1765e591f1e744e204336d848a69",
    ("beta", 0.0, BOX3): "09830d97280bdb103bba71c434342ef6add8fe94e6c2c900abd1e8487a50656b",
}
PINNED_LABELS = {
    0.2: "803b9fe934a7f1d1fd2fb5214c5ad02cae62ce7f5ac6cd2ac9c4609a158e63af",
    0.0: "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
}


@pytest.mark.parametrize("scheme, ratio, box", list(PINNED))
def test_generate_pinned_bits(scheme, ratio, box):
    data = generate(scheme, 500, ratio, seed=2024, box=box)
    assert data.points.shape == (500, 2)
    assert sha(data.points) == PINNED[scheme, ratio, box]
    assert sha(data.labels) == PINNED_LABELS[ratio]


class TestInliers:
    def test_first_coordinate_mean(self):
        pts = generate("uniform", 100_000, 0.0, seed=1).points
        # Exp(mean 2): 3 sigma band of the sample mean
        assert abs(pts[:, 0].mean() - 2.0) < 0.02

    def test_second_coordinate_mean(self):
        pts = generate("uniform", 100_000, 0.0, seed=2).points
        assert abs(pts[:, 1].mean() - 2.5) < 0.014

    def test_tail_fraction_beyond_domain(self):
        pts = generate("uniform", 100_000, 0.0, seed=3).points
        frac = (pts[:, 0] > 5.0).mean()
        assert abs(frac - np.exp(-2.5)) < 0.0026

    def test_empty(self):
        assert generate("uniform", 0, 0.0, seed=0).points.shape == (0, 2)


class _FixedUniforms:
    """A generator stand-in whose ``random`` returns the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, shape):
        return self.values.reshape(shape)


class TestOutlierSchemes:
    def test_uniform_inside_box(self):
        pts = _outliers("uniform", 5000, DOMAIN, np.random.default_rng(4))
        assert DOMAIN.contains_batch(pts).all()

    def test_beta_inverse_cdf_endpoints(self):
        pts = _outliers("beta", 1, DOMAIN, _FixedUniforms([0.0, 0.75]))
        assert pts[0, 0] == 0.0
        assert pts[0, 1] == pytest.approx(4.6875, abs=1e-12)

    def test_beta_matches_cdf(self):
        # Kolmogorov-Smirnov against F(x) = 1 - sqrt(1 - x/5), level 0.001
        pts = _outliers("beta", 100_000, DOMAIN, np.random.default_rng(5))
        res = kstest(pts[:, 0], lambda x: 1.0 - np.sqrt(1.0 - x / 5.0))
        assert res.pvalue > 0.001

    def test_discrete_takes_few_values(self):
        pts = _outliers("discrete", 5000, DOMAIN, np.random.default_rng(6))
        distinct = {tuple(row) for row in pts}
        assert len(distinct) <= 30
        assert _STATE_BOX.contains_batch(pts).all()

    def test_discrete_uniform_over_states(self):
        # uniform transitions make the emitted marginal uniform on the states
        pts = _outliers("discrete", 100_000, DOMAIN, np.random.default_rng(7))
        _, counts = np.unique(pts, axis=0, return_counts=True)
        assert counts.size == 30
        assert chisquare(counts).pvalue > 0.001

    def test_seed_determinism(self):
        for scheme in ("uniform", "beta", "discrete"):
            a = _outliers(scheme, 100, DOMAIN, np.random.default_rng(42))
            b = _outliers(scheme, 100, DOMAIN, np.random.default_rng(42))
            assert np.array_equal(a, b)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown outlier scheme 'gauss'"):
            generate("gauss", 10, 0.1, seed=0)


class TestMix:
    def test_no_outliers_all_inlier_labels(self):
        data = generate("uniform", 50, 0.0, seed=0)
        assert (data.labels == 0).all()

    def test_ratio_example(self):
        data = generate("uniform", 500, 0.1, seed=9)
        assert data.n == 500
        assert data.labels.sum() == 50

    def test_label_faithful(self):
        # Inliers have x1 >= 0, so outliers over a box left of it are tagged
        # by their coordinates and the shuffle can be audited.
        data = generate("uniform", 50, 0.2, seed=3, box=Box((-2.0, 0.0), (-1.0, 5.0)))
        assert data.labels.sum() == 10
        assert ((data.points[:, 0] < 0) == (data.labels == 1)).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="share one dimension"):
            generate("uniform", 10, 0.3, seed=0, box=BOX3)

    def test_empty_side_takes_other_dimension(self):
        assert generate("uniform", 10, 0.0, seed=0, box=BOX3).points.shape == (10, 2)
        # round(1 * 0.6) = 1 outlier and no inlier
        assert generate("uniform", 1, 0.6, seed=0, box=BOX3).points.shape == (1, 3)

    @pytest.mark.parametrize(
        "n, ratio, message",
        [(-10, 0.1, "sample count"), (-1, 0.9, "outlier count"), (-1, 0.0, "sample count")],
    )
    def test_negative_sizes(self, n, ratio, message):
        with pytest.raises(ValueError, match=message + " must be non-negative"):
            generate("uniform", n, ratio, seed=0)


class TestTrueDensity:
    def test_closed_form(self):
        assert true_density((2.0, 1.0)) == pytest.approx(0.0367879, abs=1e-6)

    def test_outside_support(self):
        assert true_density((-1.0, 1.0)) == 0.0
        assert true_density((1.0, 6.0)) == 0.0

    def test_vectorized(self):
        vals = true_density([[2.0, 1.0], [-1.0, 1.0]])
        assert vals.shape == (2,)
        assert vals[1] == 0.0


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        data = generate("beta", 200, 0.25, seed=3)
        path = tmp_path / "d.csv"
        write_dataset(data, path)
        back = read_dataset(path)
        assert np.array_equal(back.points, data.points)
        assert np.array_equal(back.labels, data.labels)

    def test_unlabeled(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("x1,x2\n0.5,0.5\n")
        data = read_dataset(path)
        assert data.points.shape == (1, 2)
        assert data.labels is None

    def test_non_numeric_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\na,b\n")
        with pytest.raises(ValueError, match="row 1"):
            read_dataset(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x1,x2\n0.5,0.5\n0.25\n")
        with pytest.raises(ValueError, match="row 2"):
            read_dataset(path)

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "lab.csv"
        path.write_text("x1,x2,label\n0.5,0.5,2\n")
        with pytest.raises(ValueError, match="unknown label"):
            read_dataset(path)

    def test_float_label(self, tmp_path):
        path = tmp_path / "lab.csv"
        path.write_text("x1,x2,label\n0.5,0.5,0\n0.5,0.5,1.0\n")
        with pytest.raises(ValueError, match=r"row 2: unknown label value '1.0'"):
            read_dataset(path)

    def test_bad_label_array(self):
        with pytest.raises(ValueError):
            Dataset(points=np.zeros((3, 2)), labels=np.array([0, 1]))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty dataset file"):
            read_dataset(path)

    @pytest.mark.parametrize("header", ["label", ""])
    def test_no_coordinate_columns(self, tmp_path, header):
        path = tmp_path / "nocols.csv"
        path.write_text(header + "\n0\n")
        with pytest.raises(ValueError, match="declares no coordinate columns"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "text, labelled",
        [("x1,x2,label\r\n", True), ("x1,x2\n", False), ("x1,x2\n\n\r\n", False)],
    )
    def test_header_only(self, tmp_path, text, labelled):
        path = tmp_path / "head.csv"
        path.write_text(text, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = read_dataset(path)
        assert data.points.shape == (0, 2)
        assert (data.labels.shape == (0,)) if labelled else data.labels is None

    @pytest.mark.parametrize("body", ["0.5#,0.5\n", "# a note\n", "0.5,0.5 # a note\n"])
    def test_hash_is_not_a_comment(self, tmp_path, body):
        path = tmp_path / "hash.csv"
        path.write_text("x1,x2\n" + body)
        with pytest.raises(ValueError, match="row 1"):
            read_dataset(path)

    def test_row_number_counts_blank_lines(self, tmp_path):
        path = tmp_path / "later.csv"
        path.write_text("x1,x2,label\n0.5,0.5,0\n\n0.25,0.5,2\n")
        with pytest.raises(ValueError, match=r"row 3: unknown label value '2'"):
            read_dataset(path)

    def test_whitespace_line_is_a_row(self, tmp_path):
        path = tmp_path / "ws.csv"
        path.write_text("x1,x2\n0.5,0.5\n  \n")
        with pytest.raises(ValueError, match="row 2: expected 2 fields, got 1"):
            read_dataset(path)


class TestCsvReaderChanges:
    """Where the array reader deliberately differs from the csv+float one."""

    def test_digit_separator_rejected(self, tmp_path):
        path = tmp_path / "sep.csv"
        path.write_text("x1,x2\n1_0,0.5\n")
        assert csv_float_read(path)[0][0, 0] == 10.0
        with pytest.raises(ValueError, match=r"row 1: could not parse coordinates"):
            read_dataset(path)

    def test_blank_interior_line_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("x1,x2,label\n0.5,0.5,1\n\n0.25,0.75,0\n")
        data = read_dataset(path)
        assert data.points.tolist() == [[0.5, 0.5], [0.25, 0.75]]
        assert data.labels.tolist() == [1, 0]

    def test_signed_and_zero_padded_labels(self, tmp_path):
        # an integer parse of the label cell; the old reader wanted "0" or "1"
        path = tmp_path / "signed.csv"
        path.write_text("x1,label\n0.5,+1\n0.5,01\n0.5,-0\n")
        assert read_dataset(path).labels.tolist() == [1, 1, 0]


finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0, 1e308, -1e308]
)
FORMS = [
    lambda v: "%.17g" % v,
    repr,
    lambda v: "%g" % v,
    lambda v: ("%.0e" % v).replace("e+0", "e").replace("e-0", "e-"),
    lambda v: " %.6g" % v,
    lambda v: "%.4f " % v,
]


# Values whose text or bits trip a writer: signed zeros, NaNs of either
# sign, infinities, subnormals and the smallest normal.
EDGE_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               1e-310, 2.2250738585072014e-308, 0.1, 1.0 / 3.0, 1e308]


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@st.composite
def float_columns(draw, rows: int) -> list:
    """A column of ``rows`` values with ``min(k, rows)`` distinct bit patterns.

    ``k`` is one, half the rows, two thirds of them, one past two thirds,
    all the rows, or any count in between, so the column lands on either
    side of the writer's rule.
    """
    top = max(rows, 1)
    cut = 2 * rows // 3
    k = draw(st.sampled_from([1, max(rows // 2, 1), max(cut, 1), min(cut + 1, top), top])
             | st.integers(1, top))
    pool = draw(st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(), min_size=k,
                         max_size=k, unique_by=_bits))
    more = rows - min(k, rows)
    extra = draw(st.lists(st.sampled_from(pool), min_size=more, max_size=more))
    return draw(st.permutations(pool[:rows] + extra))


@st.composite
def float_tables(draw):
    rows = draw(st.integers(0, 24))
    columns = [draw(float_columns(rows)) for _ in range(draw(st.integers(1, 3)))]
    labels = draw(st.none() | st.lists(st.integers(0, 1), min_size=rows, max_size=rows))
    return np.array(columns, dtype=float).T.reshape(rows, len(columns)), labels


class TestCsvOracle:
    """Byte and bit identity with the row-at-a-time csv oracles."""

    @pytest.mark.parametrize("labelled", [True, False])
    def test_write_dataset_bytes(self, tmp_path, labelled):
        data = generate("beta", 300, 0.2, seed=4)
        points = data.points.copy()
        points[:6] = [
            [-0.0, 5e-324], [1e308, -1e308], [np.nan, np.inf],
            [-np.inf, 0.1], [2.2250738585072014e-308, 1e-5], [1.2345678901234567e17, 0.5],
        ]
        labels = data.labels if labelled else None
        write_dataset(Dataset(points=points, labels=labels), tmp_path / "new.csv")
        header = ["x1", "x2"] + (["label"] if labelled else [])
        csv_writer_table(tmp_path / "old.csv", header, points, labels)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @given(table=float_tables())
    def test_write_table_same_bytes_as_csv_writer(self, tmp_path_factory, table):
        values, labels = table
        path = tmp_path_factory.mktemp("table")
        header = [f"x{j + 1}" for j in range(values.shape[1])] + (["label"] if labels else [])
        _write_table(path / "new.csv", header, values, labels)
        csv_writer_table(path / "old.csv", header, values, labels)
        assert (path / "new.csv").read_bytes() == (path / "old.csv").read_bytes()

    @pytest.mark.parametrize("distinct", [6, 7], ids=["two-thirds", "one-past-two-thirds"])
    def test_write_table_two_thirds_distinct(self, tmp_path, distinct):
        # -0.0 and 0.0, and NaNs of either sign, are distinct values
        pool = [-0.0, 0.0, math.nan, -math.nan, 5e-324, math.inf, -math.inf][:distinct]
        column = np.array((pool * 2)[:9])
        assert np.unique(column.view(np.int64)).size == distinct
        _write_table(tmp_path / "new.csv", ["x1"], column[:, None])
        csv_writer_table(tmp_path / "old.csv", ["x1"], column[:, None])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_write_empty_dataset_bytes(self, tmp_path):
        write_dataset(Dataset(points=np.zeros((0, 3))), tmp_path / "new.csv")
        csv_writer_table(tmp_path / "old.csv", ["x1", "x2", "x3"], np.zeros((0, 3)))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_read_generated_bits(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset(generate("discrete", 2000, 0.3, seed=8), path)
        points, labels = csv_float_read(path)
        data = read_dataset(path)
        assert data.points.tobytes() == points.tobytes()
        assert data.labels.tobytes() == labels.tobytes()

    @given(
        rows=st.lists(
            st.tuples(finite, finite, st.integers(0, 1), st.sampled_from(FORMS)),
            min_size=1,
            max_size=30,
        )
    )
    def test_read_same_bits_as_float(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        body = "".join(f"{form(a)},{form(b)},{lab}\r\n" for a, b, lab, form in rows)
        path.write_text("x1,x2,label\r\n" + body, newline="")
        points, labels = csv_float_read(path)
        data = read_dataset(path)
        assert data.points.tobytes() == points.tobytes()
        assert data.labels.tobytes() == labels.tobytes()
