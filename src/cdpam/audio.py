"""Waveform container and WAV file I/O.

Everything downstream (perturbations, the encoder, the metric) operates on
fixed-rate mono waveforms, so the reader folds multi-channel files down to
mono and scales integer PCM to [-1, 1].  The canonical internal format is
16 kHz mono clips of 40000 samples (2.5 s); shorter/longer material is
conditioned with :func:`fix_length` and :func:`resample`.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FormatError, UnsupportedFormatError

CANONICAL_RATE = 16000
CANONICAL_SAMPLES = 40000

_PCM = 1
_IEEE_FLOAT = 3
_EXTENSIBLE = 0xFFFE


@dataclass(frozen=True)
class Waveform:
    """Mono audio: a float64 sample array plus its sample rate in Hz.

    Samples are dimensionless amplitudes, nominally in [-1, 1].  The array is
    validated (non-empty, finite) and never mutated in place; all operations
    return new Waveforms.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ContractError("waveform must be a non-empty 1-D sample array")
        if not np.isfinite(samples).all():
            raise ContractError("waveform contains non-finite samples")
        if not (isinstance(self.sample_rate, (int, np.integer)) and self.sample_rate > 0):
            raise ContractError(f"sample rate must be a positive integer, got {self.sample_rate!r}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def replace_samples(self, samples: np.ndarray) -> "Waveform":
        return Waveform(samples, self.sample_rate)


def _read_exact(data: bytes, offset: int, n: int, what: str) -> bytes:
    if offset + n > len(data):
        raise FormatError(f"truncated WAV file while reading {what}")
    return data[offset:offset + n]


def read_wav(path) -> Waveform:
    """Read a PCM WAV file as a mono waveform scaled to [-1, 1].

    Accepts 8/16/24-bit integer and 32-bit float encodings, any channel
    count (channels are averaged).  Raises FormatError for malformed RIFF
    structure and UnsupportedFormatError for other codecs.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    offset = 12
    while offset + 8 <= len(data):
        chunk_id = data[offset:offset + 4]
        (chunk_size,) = struct.unpack_from("<I", data, offset + 4)
        body = _read_exact(data, offset + 8, chunk_size, f"chunk {chunk_id!r}")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise FormatError(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            payload = body
        offset += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise FormatError(f"{path}: missing fmt or data chunk")

    audio_format, n_channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if audio_format == _EXTENSIBLE:
        # The real format code is the first 2 bytes of the SubFormat GUID,
        # stored after the 22-byte base of the extended fmt chunk.
        raise UnsupportedFormatError(f"{path}: WAVE_FORMAT_EXTENSIBLE is not supported")
    if n_channels < 1:
        raise FormatError(f"{path}: invalid channel count {n_channels}")

    if audio_format == _PCM and bits == 8:
        raw = np.frombuffer(payload, dtype=np.uint8)
        samples = (raw.astype(np.float64) - 128.0) / 128.0
    elif audio_format == _PCM and bits == 16:
        raw = np.frombuffer(payload[:len(payload) - len(payload) % 2], dtype="<i2")
        samples = raw.astype(np.float64) / 32768.0
    elif audio_format == _PCM and bits == 24:
        usable = len(payload) - len(payload) % 3
        b = np.frombuffer(payload[:usable], dtype=np.uint8).reshape(-1, 3)
        raw = (
            b[:, 0].astype(np.int32)
            | (b[:, 1].astype(np.int32) << 8)
            | (b[:, 2].astype(np.int32) << 16)
        )
        raw = np.where(raw >= 1 << 23, raw - (1 << 24), raw)
        samples = raw.astype(np.float64) / float(1 << 23)
    elif audio_format == _IEEE_FLOAT and bits == 32:
        raw = np.frombuffer(payload[:len(payload) - len(payload) % 4], dtype="<f4")
        samples = raw.astype(np.float64)
    else:
        raise UnsupportedFormatError(
            f"{path}: unsupported encoding (format code {audio_format}, {bits}-bit)"
        )

    usable = samples.size - samples.size % n_channels
    if usable == 0:
        raise FormatError(f"{path}: data chunk holds no complete frame")
    frames = samples[:usable].reshape(-1, n_channels)
    mono = frames.mean(axis=1)
    return Waveform(mono, int(sample_rate))


def write_wav(w: Waveform, path) -> None:
    """Write a waveform as 16-bit PCM mono.

    Samples outside [-1, 1] are clamped (perturbations may overshoot).  The
    read(write(w)) round trip is exact to within one 16-bit quantization step
    (1/32768) per sample.  The file is replaced atomically, so a killed run never leaves a
    truncated WAV at `path`.
    """
    clipped = np.clip(w.samples, -1.0, 1.0)
    quantized = np.clip(np.round(clipped * 32768.0), -32768, 32767).astype("<i2")
    payload = quantized.tobytes()
    header = b"".join([
        b"RIFF",
        struct.pack("<I", 36 + len(payload)),
        b"WAVE",
        b"fmt ",
        struct.pack("<IHHIIHH", 16, _PCM, 1, w.sample_rate, w.sample_rate * 2, 2, 16),
        b"data",
        struct.pack("<I", len(payload)),
    ])
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    os.replace(tmp, path)


def fix_length(w: Waveform, n: int) -> Waveform:
    """Pad with trailing zeros or truncate so the waveform has exactly n samples."""
    if n <= 0:
        raise ContractError(f"target length must be positive, got {n}")
    if len(w) == n:
        return w
    if len(w) > n:
        return w.replace_samples(w.samples[:n])
    out = np.zeros(n, dtype=np.float64)
    out[:len(w)] = w.samples
    return w.replace_samples(out)


def apply_gain_db(w: Waveform, gain_db: float) -> Waveform:
    """Scale all samples by 10^(gain_db/20)."""
    if not np.isfinite(gain_db):
        raise ContractError("gain must be finite")
    return w.replace_samples(w.samples * 10.0 ** (gain_db / 20.0))


def rms(w: Waveform) -> float:
    """Root-mean-square amplitude."""
    return float(np.sqrt(np.mean(np.square(w.samples))))


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Resample by linear interpolation.

    This is a lossy convenience for conditioning external input (no anti-alias
    filtering); synthetic corpora are generated at the target rate directly.
    """
    if target_rate <= 0:
        raise ContractError("target rate must be positive")
    if target_rate == w.sample_rate:
        return w
    n_out = max(1, int(round(len(w) * target_rate / w.sample_rate)))
    t_out = np.arange(n_out) * (w.sample_rate / target_rate)
    samples = np.interp(t_out, np.arange(len(w)), w.samples)
    return Waveform(samples, target_rate)
