import hashlib
import math
import os
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.stats import chisquare, kstest

from conftest import csv_float_read, csv_writer_table
from mfrde import datasets
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
PLANE = Box((-1.0, 2.0), (4.0, 9.0))


def sha(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


# Recorded from the scheme-class generators these replaced; labels depend
# only on the shuffle stream, so all three schemes share one label digest.
# Inliers never read the box, so at ratio 0 its bounds leave the points as
# they are.
PINNED = {
    ("uniform", 0.2, DOMAIN): "b5c8861435499bd4e30ed09b74c476ad5b3930f19b2720dfdfe1ca913378c362",
    ("beta", 0.2, DOMAIN): "f7d9df8edf9dbc0d34b4c5e5ebf90f4f5a58bfbea18af1c7fe2f63d079c19968",
    ("discrete", 0.2, DOMAIN): "943a9a77478a114f4ea55855e1a40bbf90aa1765e591f1e744e204336d848a69",
    ("beta", 0.0, PLANE): "09830d97280bdb103bba71c434342ef6add8fe94e6c2c900abd1e8487a50656b",
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

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            generate("uniform", 10, 0.3, seed=-1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="two-dimensional, got a 3-D box"):
            generate("uniform", 10, 0.3, seed=0, box=BOX3)

    @pytest.mark.parametrize("box", [Box((0.0,), (5.0,)), BOX3], ids=["1-D", "3-D"])
    @pytest.mark.parametrize("scheme", ["uniform", "beta", "discrete"])
    @pytest.mark.parametrize("ratio", [0.0, 0.2, 0.6])
    def test_box_of_another_dimension_refused_undrawn(self, monkeypatch, box, scheme, ratio):
        # inliers, and beta and discrete outliers, never read the box: at
        # ratio 0 such a box used to give 2-D rows with its bounds in the
        # provenance, and a lone outlier of n = 1 at 0.6 took its dimension
        def no_draw(*args):
            raise AssertionError("a stream was drawn from before the box was checked")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=f"two-dimensional, got a {box.d}-D box"):
            generate(scheme, 1 if ratio == 0.6 else 10, ratio, seed=0, box=box)

    @pytest.mark.parametrize(
        "n, ratio, message",
        [(-10, 0.1, "sample count"), (-1, 0.9, "sample count"), (-1, 0.0, "sample count")],
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

    @pytest.mark.parametrize("shape", [(), (40,), (40, 2, 1)])
    def test_points_not_two_dimensional_refused(self, shape):
        # each used to be padded to (1, n) or kept as it was
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            Dataset(points=np.zeros(shape))

    def test_bad_label_array(self):
        with pytest.raises(ValueError):
            Dataset(points=np.zeros((3, 2)), labels=np.array([0, 1]))

    @pytest.mark.parametrize("labels", [[0, 1, -1], [2, 0, 1], [-(2**62), 0, 2**62]])
    def test_labels_outside_zero_one(self, labels):
        with pytest.raises(ValueError, match=r"labels must be 0 \(inlier\) or 1 \(outlier\)"):
            Dataset(points=np.zeros((3, 2)), labels=np.array(labels))

    def test_empty_labels_accepted(self):
        assert Dataset(points=np.zeros((0, 2)), labels=np.zeros(0)).labels.shape == (0,)

    @pytest.mark.parametrize("labels", [
        [0.7, 1.9], [0.0, 0.5], [1.0, float("nan")], [0.0, float("inf")], [1 + 0.5j, 0j],
        np.array([0, 0.25], dtype=object),
    ], ids=["fractions", "half", "nan", "inf", "complex", "object"])
    def test_non_integral_labels_refused(self, labels):
        # a cast to int64 would truncate each into {0, 1}
        with pytest.raises(ValueError, match=r"labels must be 0 \(inlier\) or 1 \(outlier\)"):
            Dataset(points=np.zeros((2, 2)), labels=labels)

    @pytest.mark.parametrize("labels", [
        [1.0, 0.0], [True, False], np.array([1, 0], dtype=np.uint8),
        np.array([1, 0], dtype=object),
    ], ids=["float", "bool", "uint8", "object"])
    def test_integral_labels_kept(self, labels):
        got = Dataset(points=np.zeros((2, 2)), labels=labels).labels
        assert got.dtype == np.int64 and got.tolist() == [1, 0]

    def test_int64_labels_not_copied(self):
        labels = generate("uniform", 50, 0.2, seed=1).labels
        assert labels.dtype == np.int64
        assert Dataset(points=np.zeros((50, 2)), labels=labels).labels is labels

    @pytest.mark.parametrize("label", ["-1", "2", "9223372036854775807"])
    def test_label_row_named(self, tmp_path, label):
        path = tmp_path / "lab.csv"
        path.write_text(f"x1,x2,label\n0.5,0.5,0\n0.5,0.5,1\n0.5,0.5,{label}\n")
        with pytest.raises(ValueError, match=rf"^row 3: unknown label value '{label}'$"):
            read_dataset(path)

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


class TestLoadtxtSource:
    """What ``np.loadtxt`` is handed: a seekable file's path, a pipe's lines.

    numpy runs its chunked C reader only when given a path.
    """

    @pytest.fixture
    def loadtxt_calls(self, monkeypatch):
        """The file argument and keywords of each ``np.loadtxt`` call."""
        calls, loadtxt = [], np.loadtxt

        def spy(fname, *args, **kwargs):
            calls.append((fname, kwargs))
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(datasets.np, "loadtxt", spy)
        return calls

    @pytest.mark.parametrize("header, lines", [
        ("x1,x2,label\r\n", 1),
        ('"x\n1",x2,label\r\n', 2),
        ('"x\r\n1","x\n2",label\n', 3),
    ], ids=["plain", "quoted-lf", "quoted-crlf-and-lf"])
    @pytest.mark.parametrize("as_str", [False, True], ids=["Path", "str"])
    def test_path_and_physical_header_lines(self, tmp_path, loadtxt_calls, header, lines,
                                            as_str):
        path = tmp_path / "d.csv"
        path.write_text(header + "0.5,0.25,1\r\n0.75,1e-3,0\r\n", newline="")
        arg = str(path) if as_str else path
        data = read_dataset(arg)
        assert len(loadtxt_calls) == 1
        fname, kwargs = loadtxt_calls[0]
        assert fname is arg
        assert kwargs["skiprows"] == lines
        assert data.points.tolist() == [[0.5, 0.25], [0.75, 1e-3]]
        assert data.labels.tolist() == [1, 0]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_once(self, tmp_path, loadtxt_calls):
        # a path to a pipe cannot be opened again for loadtxt: every row
        # after the first handle's read-ahead would be lost
        write_dataset(generate("beta", 2000, 0.2, seed=3), tmp_path / "d.csv")
        text = (tmp_path / "d.csv").read_bytes()
        text = text[: text.rindex(b"\n", 0, 60_000) + 1]  # within one pipe buffer
        (tmp_path / "cut.csv").write_bytes(text)
        points, labels = csv_float_read(tmp_path / "cut.csv")
        r, w = os.pipe()
        try:
            os.write(w, text)
            os.close(w)
            data = read_dataset(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert not isinstance(loadtxt_calls[0][0], str)
        assert data.points.tobytes() == points.tobytes()
        assert data.labels.tobytes() == labels.tobytes()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("body, message", [
        ("0.5,0.5,0\n0.25,0.75", "malformed dataset file: "),
        ("0.5,0.5,0\n0.25,abc,1\n", "malformed dataset file: "),
        ("0.5,0.5,0\n0.25,0.75,2\n", "unknown label value"),
    ], ids=["cut-row", "bad-number", "bad-label"])
    def test_malformed_pipe_raises_value_error(self, body, message):
        # a pipe cannot be read again to name the bad row
        r, w = os.pipe()
        try:
            os.write(w, ("x1,x2,label\n" + body).encode())
            os.close(w)
            with pytest.raises(ValueError, match="^" + message):
                read_dataset(f"/dev/fd/{r}")
        finally:
            os.close(r)

    def test_reopen_that_shares_the_offset(self, tmp_path, monkeypatch):
        # On macOS and the BSDs, opening /dev/fd/N or /dev/stdin dups the
        # descriptor, so loadtxt's handle shares the offset of the handle
        # that read the header.  Emulated here with os.dup on both opens.
        write_dataset(generate("beta", 2000, 0.2, seed=3), tmp_path / "d.csv")
        points, labels = csv_float_read(tmp_path / "d.csv")
        name, fd = "/dev/fd/shared", os.open(tmp_path / "d.csv", os.O_RDONLY)
        loadtxt = np.loadtxt

        def dup_open(file, *args, **kwargs):
            return open(os.dup(fd) if file == name else file, *args, **kwargs)

        def dup_loadtxt(fname, *args, encoding=None, **kwargs):
            assert fname == name
            with dup_open(fname, encoding=encoding, newline="") as fh:
                return loadtxt(fh, *args, encoding=encoding, **kwargs)

        monkeypatch.setattr(datasets, "open", dup_open, raising=False)
        monkeypatch.setattr(datasets.np, "loadtxt", dup_loadtxt)
        try:
            data = read_dataset(name)
        finally:
            os.close(fd)
        assert data.points.tobytes() == points.tobytes()
        assert data.labels.tobytes() == labels.tobytes()


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
    rows = draw(st.integers(0, 24) | st.integers(25, 400))
    columns = [draw(float_columns(rows)) for _ in range(draw(st.integers(1, 3)))]
    labels = draw(st.none() | st.lists(st.integers(0, 1), min_size=rows, max_size=rows))
    if labels is not None and draw(st.booleans()):
        labels = np.array(labels, dtype=np.int64)  # as write_dataset passes them
    return np.array(columns, dtype=float).T.reshape(rows, len(columns)), labels


# Signed zeros, NaNs of either sign and infinities: six distinct values in
# nine rows are on the table side of the two-thirds cut, nine are not.
SIGNED = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf]
BELOW_CUT = (SIGNED * 2)[:9]
ABOVE_CUT = SIGNED + [5e-324, 0.1, 1e308]


@pytest.mark.parametrize("labels", [
    [-(2**40), 2**40, -1, 0, 7, -1, 0, 7, 7],      # four distinct in nine rows
    [-(2**40), 2**40, -1, 0, 7, 3, 5, 9, -(2**62)],  # all distinct
], ids=["below-cut", "above-cut"])
def test_write_table_labels_either_side_of_the_cut(tmp_path, labels):
    # labels take the distinct-value table like any column; wide and
    # negative ones keep csv.writer's bytes on both sides of the cut
    values = np.arange(9.0)[:, None]
    _write_table(tmp_path / "new.csv", ["x1", "label"], values, np.array(labels))
    csv_writer_table(tmp_path / "old.csv", ["x1", "label"], values, labels)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# Files whose header and line ends the csv module and np.loadtxt must count
# alike: the body is handed to loadtxt as the path and a header line count.
LAYOUTS = {
    "quoted-header": lambda rows: '"x\n1",x2,label\r\n' + "".join(r + "\r\n" for r in rows),
    "cr-only": lambda rows: "x1,x2,label\r" + "".join(r + "\r" for r in rows),
    "no-final-newline": lambda rows: "x1,x2,label\n" + "\n".join(rows),
    "leading-blanks": lambda rows: "x1,x2,label\n\n\r\n\n" + "".join(r + "\n" for r in rows),
    "blanks-only": lambda rows: "x1,x2,label\r\n\r\n\n\r",
}


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
    @example(table=(np.zeros((0, 1)), None))
    @example(table=(np.zeros((0, 2)), np.zeros(0, dtype=np.int64)))
    @example(table=(np.array([[-0.0]]), [1]))
    @example(table=(np.array([ABOVE_CUT]).T, None))
    @example(table=(np.array([BELOW_CUT, ABOVE_CUT]).T, [0, 1, 1, 0, 0, 1, 0, 1, 1]))
    def test_write_table_same_bytes_as_csv_writer(self, tmp_path_factory, table):
        # one format call over the interleaved cells of every table, on
        # either side of the distinct-value cut, has csv.writer's bytes
        values, labels = table
        path = tmp_path_factory.mktemp("table")
        header = [f"x{j + 1}" for j in range(values.shape[1])]
        header += ["label"] if labels is not None else []
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

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("as_str", [False, True], ids=["Path", "str"])
    def test_read_line_ends_and_blank_lines(self, tmp_path, layout, as_str):
        data = generate("beta", 40, 0.25, seed=5)
        rows = [f"{a!r},{b:.17g},{lab}" for (a, b), lab in
                zip(data.points.tolist(), data.labels.tolist())]
        path = tmp_path / "d.csv"
        path.write_text(LAYOUTS[layout](rows), newline="")
        points, labels = csv_float_read(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.loadtxt warns on a body without data
            back = read_dataset(str(path) if as_str else path)
        assert back.points.tobytes() == points.tobytes()
        assert back.labels.tobytes() == labels.tobytes()
        assert back.n == (0 if layout == "blanks-only" else 40)

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
