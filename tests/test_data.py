"""Tests for dataset IO and synthetic generators."""

import gzip
import struct

import numpy as np
import pytest

from cramerwold import (
    Dataset,
    SyntheticSpec,
    generate,
    load_csv,
    load_idx,
    mardia,
    save_csv,
    train_valid_split,
)
from cramerwold.data import GAUSSIAN_MIXTURE, UNIFORM_CUBE, load_idx_images, load_idx_labels


def write_idx_images(path, pixels):
    """Build an IDX image file byte-for-byte: big-endian header + u8 payload."""
    n, rows, cols = pixels.shape
    blob = struct.pack(">IIII", 0x00000803, n, rows, cols) + pixels.astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)
    return blob


def write_idx_labels(path, labels):
    blob = struct.pack(">II", 0x00000801, len(labels)) + bytes(labels)
    with open(path, "wb") as fh:
        fh.write(blob)
    return blob


class TestCsv:
    def test_round_trip_is_exact(self, rng, tmp_path):
        points = rng.standard_normal((20, 4)) * 1e3
        path = tmp_path / "points.csv"
        save_csv(path, points)
        loaded = load_csv(path)
        # %.17g prints every float64 exactly
        assert np.array_equal(loaded.points, points)
        assert loaded.labels is None

    def test_header_row_is_skipped(self, tmp_path):
        path = tmp_path / "with_header.csv"
        path.write_text("a,b\n1.5,2.5\n3.5,4.5\n")
        loaded = load_csv(path, has_header=True)
        assert np.array_equal(loaded.points, [[1.5, 2.5], [3.5, 4.5]])

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("1,2\n\n3,4\n")
        assert load_csv(path).points.shape == (2, 2)

    def test_ragged_row_names_position(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(path)

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_csv(path)

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)

    def test_whitespace_only_line_is_skipped(self, tmp_path):
        path = tmp_path / "spaces.csv"
        path.write_text("1,2\n   \n\t\n3,4\n")
        assert np.array_equal(load_csv(path).points, [[1.0, 2.0], [3.0, 4.0]])

    def test_crlf_line_endings_parse(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"a,b\r\n1.5,2\r\n\r\n3,4.5\r\n")
        loaded = load_csv(path, has_header=True)
        assert np.array_equal(loaded.points, [[1.5, 2.0], [3.0, 4.5]])

    def test_header_only_file_is_rejected(self, tmp_path):
        path = tmp_path / "header_only.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path, has_header=True)

    def test_trailing_comma_names_the_empty_column(self, tmp_path):
        path = tmp_path / "trailing.csv"
        path.write_text("1,2,\n3,4,\n")
        with pytest.raises(ValueError, match="row 1, column 3"):
            load_csv(path)

    def test_ragged_row_after_blank_line_names_its_line(self, tmp_path):
        path = tmp_path / "ragged_gap.csv"
        path.write_text("1,2\n\n3,4,5\n")
        with pytest.raises(ValueError, match="row 3: expected 2 columns, found 3"):
            load_csv(path)

    def test_digit_separator_is_rejected(self, tmp_path):
        # float() takes '1_000'; the loader does not
        path = tmp_path / "underscore.csv"
        path.write_text("1,2\n3,1_000\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_csv(path)

    def test_extreme_values_round_trip_bit_for_bit(self, tmp_path):
        points = np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                           [0.0, -5e-324, -1.7976931348623157e308]])
        path = tmp_path / "extremes.csv"
        save_csv(path, points)
        loaded = load_csv(path).points
        assert np.array_equal(loaded.view(np.int64), points.view(np.int64))

    def test_save_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            save_csv(tmp_path / "x.csv", np.zeros(5))


class TestIdx:
    def test_images_scale_to_unit_interval(self, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(5, 3, 4), dtype=np.uint8)
        path = tmp_path / "imgs.idx"
        write_idx_images(path, pixels)
        points = load_idx_images(path)
        assert points.shape == (5, 12)
        assert np.array_equal(points, pixels.reshape(5, 12) / 255.0)

    def test_gzip_content_is_sniffed(self, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(4, 2, 2), dtype=np.uint8)
        plain = tmp_path / "imgs.idx"
        blob = write_idx_images(plain, pixels)
        gz = tmp_path / "imgs.idx.gz"
        with gzip.open(gz, "wb") as fh:
            fh.write(blob)
        assert np.array_equal(load_idx_images(gz), load_idx_images(plain))

    def test_labels_attach_to_images(self, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(6, 2, 2), dtype=np.uint8)
        imgs = tmp_path / "imgs.idx"
        labs = tmp_path / "labels.idx"
        write_idx_images(imgs, pixels)
        write_idx_labels(labs, [0, 1, 2, 0, 1, 2])
        ds = load_idx(imgs, labs)
        assert ds.labels.dtype == np.int64
        assert list(ds.labels) == [0, 1, 2, 0, 1, 2]

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(ValueError, match="magic"):
            load_idx_images(path)

    def test_truncated_payload_is_rejected(self, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(4, 3, 3), dtype=np.uint8)
        path = tmp_path / "imgs.idx"
        blob = write_idx_images(path, pixels)
        path.write_bytes(blob[:-5])
        with pytest.raises(ValueError, match="pixel bytes"):
            load_idx_images(path)

    @pytest.mark.parametrize("header, load, noun", [
        (struct.pack(">IIII", 0x00000803, *[0xFFFFFFFF] * 3), load_idx_images, "pixel"),
        (struct.pack(">II", 0x00000801, 0xFFFFFFFF), load_idx_labels, "label"),
    ], ids=["images", "labels"])
    def test_oversized_declared_size_is_a_value_error(self, tmp_path, header, load, noun):
        path = tmp_path / "huge.idx"
        path.write_bytes(header + b"\x00" * 8)
        with pytest.raises(ValueError, match=f"expected {0xFFFFFFFF ** (len(header) // 4 - 1)} "
                                             f"{noun} bytes, found 8"):
            load(path)

    def test_truncated_header_is_rejected(self, tmp_path):
        path = tmp_path / "imgs.idx"
        path.write_bytes(b"\x00\x00\x08\x03\x00")
        with pytest.raises(ValueError, match="header"):
            load_idx_images(path)

    def test_count_mismatch_is_rejected(self, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(4, 2, 2), dtype=np.uint8)
        imgs = tmp_path / "imgs.idx"
        labs = tmp_path / "labels.idx"
        write_idx_images(imgs, pixels)
        write_idx_labels(labs, [1, 2, 3])
        with pytest.raises(ValueError, match="mismatch"):
            load_idx(imgs, labs)


class TestSynthetic:
    def mixture_spec(self, **overrides):
        base = dict(
            kind=GAUSSIAN_MIXTURE,
            dim=2,
            count=500,
            seed=11,
            means=((0.0, 0.0), (4.0, 4.0)),
            variances=(1.0, 0.25),
            weights=(0.7, 0.3),
        )
        base.update(overrides)
        return SyntheticSpec(**base)

    def test_mixture_shapes_and_labels(self):
        ds = generate(self.mixture_spec())
        assert ds.points.shape == (500, 2)
        assert set(np.unique(ds.labels)) <= {0, 1}
        # weights steer the component draw
        assert 0.55 < (ds.labels == 0).mean() < 0.85

    def test_mixture_components_land_near_their_means(self):
        ds = generate(self.mixture_spec(count=4000))
        for idx, mean in enumerate([(0.0, 0.0), (4.0, 4.0)]):
            got = ds.points[ds.labels == idx].mean(axis=0)
            np.testing.assert_allclose(got, mean, atol=0.15)

    def test_single_standard_component_is_normal(self):
        # one component at the origin with unit variance is exactly N(0, I):
        # its raw kurtosis must sit near the D(D+2) reference
        spec = SyntheticSpec(
            kind=GAUSSIAN_MIXTURE,
            dim=5,
            count=20_000,
            seed=3,
            means=((0.0,) * 5,),
            variances=(1.0,),
            weights=(1.0,),
        )
        stats = mardia(generate(spec).points)
        assert abs(stats.normalized_kurtosis) < 1.0

    def test_seed_determinism(self):
        a = generate(self.mixture_spec())
        b = generate(self.mixture_spec())
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_uniform_cube_bounds(self):
        ds = generate(SyntheticSpec(kind=UNIFORM_CUBE, dim=3, count=1000, seed=5))
        assert ds.points.shape == (1000, 3)
        assert ds.labels is None
        assert ds.points.min() >= -1.0
        assert ds.points.max() <= 1.0
        # actually fills the cube rather than hugging the middle
        assert ds.points.min() < -0.99
        assert ds.points.max() > 0.99

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError, match="count"):
            generate(self.mixture_spec(count=0))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            generate(SyntheticSpec(kind="moons", dim=2, count=10))

    def test_rejects_weights_not_summing_to_one(self):
        with pytest.raises(ValueError, match="weights"):
            generate(self.mixture_spec(weights=(0.7, 0.4)))

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError, match="variances"):
            generate(self.mixture_spec(variances=(1.0, 0.0)))

    def test_rejects_mean_shape_mismatch(self):
        with pytest.raises(ValueError, match="means"):
            generate(self.mixture_spec(means=((0.0, 0.0, 0.0), (4.0, 4.0, 4.0))))

    @pytest.mark.parametrize("kind", [GAUSSIAN_MIXTURE, UNIFORM_CUBE])
    def test_rejects_a_negative_seed_by_name(self, kind):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            generate(self.mixture_spec(kind=kind, seed=-1))


class TestSplit:
    def test_partition_sizes_and_content(self, rng):
        ds = Dataset(points=rng.standard_normal((100, 3)))
        tr, va = train_valid_split(ds, valid_fraction=0.2, seed=4)
        assert tr.n == 80
        assert va.n == 20
        merged = np.vstack([tr.points, va.points])
        assert np.array_equal(
            np.sort(merged, axis=0), np.sort(ds.points, axis=0)
        )

    def test_labels_travel_with_their_points(self):
        ds = generate(
            SyntheticSpec(
                kind=GAUSSIAN_MIXTURE,
                dim=2,
                count=200,
                seed=9,
                means=((0.0, 0.0), (100.0, 100.0)),
                variances=(0.01, 0.01),
                weights=(0.5, 0.5),
            )
        )
        tr, va = train_valid_split(ds, valid_fraction=0.25, seed=1)
        for part in (tr, va):
            near_origin = part.points[:, 0] < 50.0
            assert np.array_equal(part.labels == 0, near_origin)

    def test_rejects_a_negative_seed_by_name(self, rng):
        ds = Dataset(points=rng.standard_normal((10, 2)))
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            train_valid_split(ds, seed=-1)

    def test_split_is_deterministic(self, rng):
        ds = Dataset(points=rng.standard_normal((50, 2)))
        a_tr, a_va = train_valid_split(ds, seed=7)
        b_tr, b_va = train_valid_split(ds, seed=7)
        assert np.array_equal(a_tr.points, b_tr.points)
        assert np.array_equal(a_va.points, b_va.points)

    def test_rejects_out_of_range_fraction(self, rng):
        ds = Dataset(points=rng.standard_normal((10, 2)))
        with pytest.raises(ValueError):
            train_valid_split(ds, valid_fraction=0.0)
        with pytest.raises(ValueError):
            train_valid_split(ds, valid_fraction=1.0)

    def test_rejects_split_with_no_training_rows(self, rng):
        ds = Dataset(points=rng.standard_normal((2, 2)))
        with pytest.raises(ValueError, match="training rows"):
            train_valid_split(ds, valid_fraction=0.9)

    def test_dataset_rejects_label_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            Dataset(points=rng.standard_normal((5, 2)), labels=np.zeros(4, dtype=np.int64))
