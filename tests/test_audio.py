"""Waveform container and WAV I/O contracts."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdpam.audio import (Waveform, apply_gain_db, fix_length, read_wav, resample, rms,
                         write_wav)
from cdpam.errors import CdpamError, ContractError, FormatError, UnsupportedFormatError


def _write_raw_wav(path, payload: bytes, fmt_code=1, channels=1, rate=16000, bits=16):
    block = channels * bits // 8
    header = b"".join([
        b"RIFF", struct.pack("<I", 36 + len(payload)), b"WAVE",
        b"fmt ", struct.pack("<IHHIIHH", 16, fmt_code, channels, rate, rate * block, block, bits),
        b"data", struct.pack("<I", len(payload)),
    ])
    path.write_bytes(header + payload)


class TestWaveform:
    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            Waveform(np.array([]), 16000)

    def test_rejects_nan(self):
        with pytest.raises(ContractError):
            Waveform(np.array([0.0, np.nan]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ContractError):
            Waveform(np.zeros(4), 0)


class TestReadWav:
    def test_16bit_scaling(self, tmp_path):
        payload = struct.pack("<3h", 0, 16384, -16384)
        _write_raw_wav(tmp_path / "a.wav", payload)
        w = read_wav(tmp_path / "a.wav")
        assert np.allclose(w.samples, [0.0, 0.5, -0.5], atol=1 / 32768)
        assert w.sample_rate == 16000

    def test_stereo_average(self, tmp_path):
        # channels hold 1.0 and 0.0 -> mono 0.5
        payload = struct.pack("<2h", 32767, 0)
        _write_raw_wav(tmp_path / "s.wav", payload, channels=2)
        w = read_wav(tmp_path / "s.wav")
        assert w.samples.shape == (1,)
        assert abs(w.samples[0] - 0.5) < 1e-3

    def test_8bit_unsigned(self, tmp_path):
        _write_raw_wav(tmp_path / "b.wav", bytes([128, 255, 0]), bits=8)
        w = read_wav(tmp_path / "b.wav")
        assert np.allclose(w.samples, [0.0, 127 / 128, -1.0])

    def test_24bit(self, tmp_path):
        value = 1 << 22  # half of full scale
        payload = struct.pack("<I", value)[:3] + struct.pack("<I", (1 << 24) - value)[:3]
        _write_raw_wav(tmp_path / "c.wav", payload, bits=24)
        w = read_wav(tmp_path / "c.wav")
        assert np.allclose(w.samples, [0.5, -0.5])

    def test_float32(self, tmp_path):
        payload = struct.pack("<3f", 0.25, -0.75, 1.0)
        _write_raw_wav(tmp_path / "f.wav", payload, fmt_code=3, bits=32)
        w = read_wav(tmp_path / "f.wav")
        assert np.allclose(w.samples, [0.25, -0.75, 1.0])

    def test_truncated_chunk_is_format_error(self, tmp_path):
        payload = struct.pack("<3h", 1, 2, 3)
        _write_raw_wav(tmp_path / "t.wav", payload)
        blob = (tmp_path / "t.wav").read_bytes()
        (tmp_path / "t.wav").write_bytes(blob[:-4])  # cut into the data chunk
        with pytest.raises(FormatError):
            read_wav(tmp_path / "t.wav")

    def test_not_riff_is_format_error(self, tmp_path):
        (tmp_path / "x.wav").write_bytes(b"OGGS" + b"\x00" * 64)
        with pytest.raises(FormatError):
            read_wav(tmp_path / "x.wav")

    def test_compressed_format_unsupported(self, tmp_path):
        _write_raw_wav(tmp_path / "u.wav", b"\x00" * 8, fmt_code=6)  # a-law
        with pytest.raises(UnsupportedFormatError):
            read_wav(tmp_path / "u.wav")


def _valid_wavs() -> list:
    """Small valid files in every encoding read_wav accepts: 8/16/24-bit PCM, float32."""
    wavs = []
    for fmt_code, bits, channels, payload in (
            (1, 8, 1, bytes([128, 255, 0, 64])),
            (1, 16, 2, struct.pack("<4h", 0, 16384, -16384, 32767)),
            (1, 24, 1, bytes(range(9))),
            (3, 32, 1, struct.pack("<3f", 0.25, -0.75, 1.0))):
        block = channels * bits // 8
        wavs.append(b"".join([
            b"RIFF", struct.pack("<I", 36 + len(payload)), b"WAVE",
            b"fmt ", struct.pack("<IHHIIHH", 16, fmt_code, channels, 8000, 8000 * block, block,
                                 bits),
            b"data", struct.pack("<I", len(payload)), payload]))
    return wavs


# (byte offset, struct layout) of each header field in the files above: the RIFF size,
# fmt chunk size, format code, channels, rate, byte rate, block align, bits and data size
_HEADER_FIELDS = [(4, "<I"), (16, "<I"), (20, "<H"), (22, "<H"), (24, "<I"), (28, "<I"),
                  (32, "<H"), (34, "<H"), (40, "<I")]


def _read_or_cdpam_error(path, blob: bytes) -> None:
    """read_wav either returns a valid Waveform or raises a package error."""
    path.write_bytes(blob)
    try:
        w = read_wav(path)
    except CdpamError:
        return
    assert w.sample_rate > 0 and len(w) > 0 and np.isfinite(w.samples).all()


class TestReadWavFuzz:
    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=96), st.booleans())
    def test_arbitrary_bytes(self, tmp_path_factory, data, riff_header):
        if riff_header:  # get past the magic check to the chunk walk
            data = b"RIFF" + data[:4].ljust(4, b"\0") + b"WAVE" + data[4:]
        _read_or_cdpam_error(tmp_path_factory.mktemp("fuzz") / "a.wav", data)

    @pytest.mark.parametrize("offset,layout", _HEADER_FIELDS)
    @settings(max_examples=15, deadline=None)
    @given(blob=st.sampled_from(_valid_wavs()), value=st.integers(0, 2 ** 32 - 1))
    def test_any_header_field_value(self, tmp_path_factory, offset, layout, blob, value):
        mutated = bytearray(blob)
        struct.pack_into(layout, mutated, offset, value % 256 ** struct.calcsize(layout))
        _read_or_cdpam_error(tmp_path_factory.mktemp("fuzz") / "h.wav", bytes(mutated))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_valid_wavs()),
           st.lists(st.tuples(st.integers(0, 56), st.integers(0, 255)), max_size=4),
           st.none() | st.integers(0, 56))
    def test_mutated_valid_wavs(self, tmp_path_factory, blob, overwrites, cut):
        mutated = bytearray(blob)
        for position, value in overwrites:
            if position < len(mutated):
                mutated[position] = value
        _read_or_cdpam_error(tmp_path_factory.mktemp("fuzz") / "m.wav", bytes(mutated[:cut]))

    def test_valid_wavs_read(self, tmp_path):
        for i, blob in enumerate(_valid_wavs()):
            (tmp_path / f"{i}.wav").write_bytes(blob)
            assert read_wav(tmp_path / f"{i}.wav").sample_rate == 8000


class TestWriteWav:
    def test_round_trip_within_quantization(self, tmp_path):
        w = Waveform(np.array([0.0, 1.0, -1.0, 0.5, -0.25]), 16000)
        write_wav(w, tmp_path / "r.wav")
        back = read_wav(tmp_path / "r.wav")
        assert np.max(np.abs(back.samples - w.samples)) <= 1 / 32768

    def test_overshoot_clamps(self, tmp_path):
        w = Waveform(np.array([1.5, -2.0]), 16000)
        write_wav(w, tmp_path / "c.wav")
        back = read_wav(tmp_path / "c.wav")
        assert abs(back.samples[0] - 1.0) <= 1 / 32768
        assert abs(back.samples[1] + 1.0) <= 1 / 32768

    def test_empty_samples_rejected_at_construction(self):
        with pytest.raises(ContractError):
            Waveform(np.array([]), 16000)

    def test_unwritable_path_raises(self, tmp_path):
        w = Waveform(np.zeros(4), 16000)
        with pytest.raises(OSError):
            write_wav(w, tmp_path / "missing_dir" / "x.wav")

    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "keep.wav"
        write_wav(Waveform(np.full(8, 0.5), 16000), path)
        before = path.read_bytes()

        def killed(src, dst):
            raise OSError("killed mid-write")

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(OSError, match="killed mid-write"):
            write_wav(Waveform(np.zeros(4), 16000), path)
        assert path.read_bytes() == before

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0, allow_nan=False, width=32), min_size=1, max_size=64))
    def test_round_trip_property(self, tmp_path_factory, samples):
        path = tmp_path_factory.mktemp("wav") / "p.wav"
        w = Waveform(np.array(samples, dtype=np.float64), 8000)
        write_wav(w, path)
        back = read_wav(path)
        assert back.sample_rate == 8000
        assert np.max(np.abs(back.samples - w.samples)) <= 1 / 32768


class TestFixLength:
    def test_pads_with_trailing_zeros(self):
        w = fix_length(Waveform(np.array([1.0, 2.0, 3.0]), 8000), 5)
        assert np.array_equal(w.samples, [1, 2, 3, 0, 0])

    def test_trims_to_prefix(self):
        w = fix_length(Waveform(np.arange(5, dtype=float), 8000), 3)
        assert np.array_equal(w.samples, [0, 1, 2])

    def test_identity_at_target_length(self):
        w = Waveform(np.arange(4, dtype=float), 8000)
        assert np.array_equal(fix_length(w, 4).samples, w.samples)

    def test_idempotent(self):
        w = Waveform(np.arange(10, dtype=float), 8000)
        once = fix_length(w, 6)
        twice = fix_length(once, 6)
        assert np.array_equal(once.samples, twice.samples)

    def test_rejects_nonpositive(self):
        with pytest.raises(ContractError):
            fix_length(Waveform(np.zeros(4), 8000), 0)


class TestGainAndRms:
    def test_zero_gain_is_identity(self):
        w = Waveform(np.array([0.1, -0.2]), 8000)
        assert np.array_equal(apply_gain_db(w, 0.0).samples, w.samples)

    def test_minus_20db_scales_by_tenth(self):
        w = Waveform(np.array([1.0]), 8000)
        assert np.allclose(apply_gain_db(w, -20.0).samples, [0.1])

    def test_minus_6db_halves(self):
        w = Waveform(np.array([1.0]), 8000)
        assert abs(apply_gain_db(w, -6.0206).samples[0] - 0.5) < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-30, 10), st.floats(-30, 10))
    def test_gain_composes_additively(self, a, b):
        w = Waveform(np.array([0.3, -0.7, 0.05]), 8000)
        chained = apply_gain_db(apply_gain_db(w, a), b)
        direct = apply_gain_db(w, a + b)
        assert np.max(np.abs(chained.samples - direct.samples)) < 1e-9

    def test_rms_zero(self):
        assert rms(Waveform(np.zeros(8), 8000)) == 0.0

    def test_rms_constant(self):
        assert rms(Waveform(np.full(8, 0.5), 8000)) == pytest.approx(0.5)

    def test_rms_formula(self):
        assert rms(Waveform(np.array([3.0, 4.0]), 8000)) == pytest.approx(np.sqrt(12.5))


class TestResample:
    def test_identity_at_same_rate(self):
        w = Waveform(np.arange(8, dtype=float), 8000)
        assert resample(w, 8000) is w

    def test_halving_preserves_duration(self):
        w = Waveform(np.sin(np.arange(1600) / 1600 * 2 * np.pi * 50), 16000)
        down = resample(w, 8000)
        assert down.sample_rate == 8000
        assert abs(down.duration - w.duration) < 0.01
