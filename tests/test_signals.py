"""Record I/O, segmentation arithmetic, and window normalization."""

import struct

import numpy as np
import pytest

from itfmap.signals import (
    RecordFormatError,
    SampleRecord,
    SegmentationPlan,
    load_record,
    normalize_window,
    record_format,
    save_record,
    segment,
)


def make_record(n=1000, dt=4e-9, seed=0):
    rng = np.random.default_rng(seed)
    return SampleRecord(rng.normal(size=(3, n)), sample_interval=dt, label="fixture")


class TestSampleRecord:
    def test_channel_count_enforced(self):
        with pytest.raises(ValueError, match="3 channels"):
            SampleRecord(np.zeros((2, 10)))

    def test_sample_interval_positive(self):
        for dt in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="sample_interval"):
                SampleRecord(np.zeros((3, 10)), sample_interval=dt)

    def test_channel_views(self):
        rec = make_record(16)
        assert np.array_equal(rec.b, rec.channels[0])
        assert np.array_equal(rec.d, rec.channels[2])
        assert rec.length == 16


class TestCsvFormat:
    def test_roundtrip_header_and_values(self, tmp_path):
        rec = make_record(50)
        path = save_record(rec, tmp_path / "rec.csv")
        back = load_record(path)
        assert back.length == 50
        assert back.sample_interval == rec.sample_interval
        assert back.label == "fixture"
        np.testing.assert_array_equal(back.channels, rec.channels)

    def test_csv_fixture_shape(self, tmp_path):
        # header dt=4e-9, 3 columns x 1000 rows -> length 1000, dt 4 ns
        lines = ["# dt=4e-9"] + ["0.1,0.2,0.3"] * 1000
        p = tmp_path / "in.csv"
        p.write_text("\n".join(lines))
        rec = load_record(p)
        assert rec.length == 1000
        assert rec.sample_interval == 4e-9

    def test_two_columns_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# dt=4e-9\n1.0,2.0\n")
        with pytest.raises(RecordFormatError, match="channel count"):
            load_record(p)

    def test_missing_dt_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0,3.0\n")
        with pytest.raises(RecordFormatError, match="dt"):
            load_record(p)

    def test_nonpositive_dt_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        for dt in ("-1e-9", "inf", "1e400", "nan"):
            p.write_text(f"# dt={dt}\n1.0,2.0,3.0\n")
            with pytest.raises(RecordFormatError, match="non-positive"):
                load_record(p)


class TestRecordFormat:
    def test_suffix_or_explicit(self):
        assert record_format("r.csv") == record_format("r.txt") == "csv"
        assert record_format("r.bin") == record_format("r.itfr") == "raw-binary"
        assert record_format("r.bin", "csv") == "csv"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown record format"):
            record_format("r.csv", "xml")
        with pytest.raises(ValueError, match="unknown record format"):
            save_record(make_record(8), tmp_path / "r.csv", "xml")
        assert not (tmp_path / "r.csv").exists()


class TestRawBinaryFormat:
    def test_write_then_read_bit_identical(self, tmp_path):
        rec = make_record(257)
        p1 = save_record(rec, tmp_path / "a.bin")
        back = load_record(p1)
        p2 = save_record(back, tmp_path / "b.bin")
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_survive_at_f32(self, tmp_path):
        rec = make_record(64)
        back = load_record(save_record(rec, tmp_path / "a.bin"))
        np.testing.assert_array_equal(
            back.channels, rec.channels.astype("<f4").astype(np.float64)
        )

    def test_finite_sample_beyond_f32_rejected_before_writing(self, tmp_path):
        p = tmp_path / "big.bin"
        for big in (1e39, -1e39, 1e300):
            rec = make_record(64)
            rec.channels[1, 5] = big
            with pytest.raises(ValueError, match="does not fit"):
                save_record(rec, p)
            assert not p.exists()

    def test_non_finite_and_f32_max_samples_saved_as_themselves(self, tmp_path):
        rec = make_record(64)
        specials = [np.nan, np.inf, -np.inf, float(np.finfo(np.float32).max)]
        rec.channels[0, :4] = specials
        back = load_record(save_record(rec, tmp_path / "a.bin"))
        np.testing.assert_array_equal(back.channels[0, :4], specials)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(RecordFormatError, match="magic"):
            load_record(p, "raw-binary")

    def test_nonpositive_dt_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        for dt in (0.0, -4e-9, np.inf, np.nan):
            p.write_bytes(struct.pack("<4sIf4x", b"ITFR", 1, dt) + bytes(12))
            with pytest.raises(RecordFormatError, match="non-positive"):
                load_record(p)

    def test_truncated_rejected(self, tmp_path):
        rec = make_record(64)
        p = save_record(rec, tmp_path / "a.bin")
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(RecordFormatError, match="size"):
            load_record(p)


class TestSegmentation:
    def test_window_counts(self):
        # 300 samples, W=256, hop=1 -> 45; 512/256/256 -> 2 disjoint
        rec300 = make_record(300)
        wins = segment(rec300, SegmentationPlan(256, 1))
        assert len(wins) == 45
        rec512 = make_record(512)
        wins = segment(rec512, SegmentationPlan(256, 256))
        assert len(wins) == 2
        assert wins[0].start == 0 and wins[1].start == 256

    def test_too_short_record_rejected(self):
        with pytest.raises(ValueError, match="window length"):
            segment(make_record(255), SegmentationPlan(256, 1))

    def test_count_formula_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 400))
            w = int(rng.integers(2, n + 1))
            hop = int(rng.integers(1, 50))
            rec = SampleRecord(np.zeros((3, n)))
            wins = segment(rec, SegmentationPlan(w, hop))
            assert len(wins) == (n - w) // hop + 1

    def test_windows_reference_samples_unmodified(self):
        rec = make_record(64)
        w = segment(rec, SegmentationPlan(16, 4))[3]
        np.testing.assert_array_equal(w.segments, rec.channels[:, 12:28])

    def test_lossless_reconstruction_at_hop_equal_window(self):
        rec = make_record(300)
        wins = segment(rec, SegmentationPlan(64, 64))
        rebuilt = np.concatenate([w.segments for w in wins], axis=1)
        np.testing.assert_array_equal(rebuilt, rec.channels[:, : rebuilt.shape[1]])


class TestNormalizeWindow:
    def window_of(self, rows):
        from itfmap.signals import Window

        return Window(index=0, start=0, segments=np.array(rows, dtype=float))

    def test_two_point_segment(self):
        w = normalize_window(self.window_of([[1, 3], [1, 3], [1, 3]]))
        np.testing.assert_allclose(w.segments, [[-1, 1]] * 3)
        assert w.degenerate == (False, False, False)

    def test_constant_segment_flags_degenerate(self):
        w = normalize_window(self.window_of([[5, 5, 5], [1, 2, 3], [5, 5, 5]]))
        np.testing.assert_array_equal(w.segments[0], [0, 0, 0])
        assert w.degenerate == (True, False, True)

    def test_non_finite_segment_flags_degenerate(self):
        w = normalize_window(self.window_of([[1, np.nan, 3], [1, 2, 3], [np.inf, 2, 3]]))
        np.testing.assert_array_equal(w.segments[[0, 2]], 0.0)
        assert w.degenerate == (True, False, True)

    def test_random_segment_mean_and_peak(self):
        rng = np.random.default_rng(3)
        w = normalize_window(self.window_of(rng.normal(size=(3, 256))))
        # oracle: recompute mean and max directly
        for ch in range(3):
            assert abs(float(np.mean(w.segments[ch]))) < 1e-12
            assert abs(float(np.max(np.abs(w.segments[ch]))) - 1.0) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        w1 = normalize_window(self.window_of(rng.normal(size=(3, 128))))
        w2 = normalize_window(w1)
        np.testing.assert_allclose(w2.segments, w1.segments, atol=1e-12)

    def test_minimum_length(self):
        with pytest.raises(ValueError, match="2 samples"):
            normalize_window(self.window_of([[1], [1], [1]]))
