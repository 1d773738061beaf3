"""Deterministic synthesis of acoustic perturbations.

Five families are supported: additive colored noise at a target SNR,
synthetic-impulse-response reverberation, 8-band peaking equalization,
mu-law bit-depth compression, and miscellaneous degradations (dropouts and
pops).  A :class:`PerturbSpec` records the parameters of one acoustic
condition; applying the same spec to the same input is bit-reproducible,
which is what makes dataset generation and the pairing rules auditable.

Each family is declared once, in one table: its spec field, the range over
which its severity runs from 0 to 1, and whether severity falls as the value
grows (a higher SNR or bit depth is milder).  :func:`severity` and its inverse
:func:`spec_with_severity` both read it.  The scalar :func:`magnitude`, the
plain mean of the present families' severities and not a perceptual
calibration, drives the oracle that stands in for listeners at desk scale.

The module needs only numpy to import: reverb convolves with numpy.fft at the
FFT size scipy.signal.fftconvolve would pick, so its output matches
fftconvolve bit for bit, and scipy.signal, which takes over a second to
import, is loaded on first use by the EQ family.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .audio import Waveform, rms
from .errors import ContractError

NOISE_SNR_RANGE_DB = (0.0, 40.0)
REVERB_RT60_RANGE_S = (0.05, 2.0)
EQ_GAIN_RANGE_DB = (-12.0, 12.0)
MULAW_BITS_RANGE = (4, 8)
DROPOUT_RATE_RANGE = (0.0, 0.1)
POP_RATE_RANGE = (0.0, 10.0)

# each family, in canonical order: the PerturbSpec field that holds it (None: absent), the
# range its severity runs over from 0 to 1 (for eq, of the mean absolute band gain), and
# whether severity falls as the value grows
_FAMILY_FIELDS = {"noise": ("noise_snr_db", NOISE_SNR_RANGE_DB, True),
                  "reverb": ("reverb_rt60_s", REVERB_RT60_RANGE_S, False),
                  "eq": ("eq_gains_db", (0.0, EQ_GAIN_RANGE_DB[1]), False),
                  "compression": ("mulaw_bits", MULAW_BITS_RANGE, True),
                  "dropouts": ("dropout_rate", DROPOUT_RATE_RANGE, False),
                  "pops": ("pop_rate", POP_RATE_RANGE, False)}
FAMILIES = tuple(_FAMILY_FIELDS)
DEFAULT_FAMILIES = ("noise", "reverb")  # the families the desk pipeline trains and scores on

_EQ_BANDS_HZ = tuple(62.5 * 2 ** i for i in range(8))
_DROPOUT_WINDOW_S = 0.010
_POP_WINDOW_S = 0.001
_MU = 255.0
_EQ_Q = np.sqrt(2.0)  # quality factor of every peaking band


def _check_range(name: str, value, bounds: tuple, open_low: bool = False) -> None:
    """`value` must be a number within `bounds`, and an integer where the bounds are;
    a bool, NaN or infinity never is.  `open_low` excludes the lower bound."""
    lo, hi = bounds
    kind = numbers.Integral if isinstance(lo, int) else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not (lo < value if open_low else lo <= value) or not value <= hi):
        raise ContractError(f"{name} {value!r} outside {'(' if open_low else '['}{lo}, {hi}]")


@dataclass(frozen=True)
class PerturbSpec:
    """Parameter record for one acoustic condition.

    Absent families are None.  At least one family must be present, and the
    seed makes application deterministic.
    """

    noise_snr_db: float | None = None
    noise_color: str | None = None
    reverb_rt60_s: float | None = None
    eq_gains_db: tuple | None = None
    mulaw_bits: int | None = None
    dropout_rate: float | None = None
    pop_rate: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.noise_snr_db is not None:
            _check_range("noise_snr_db", self.noise_snr_db, NOISE_SNR_RANGE_DB)
            color = self.noise_color or "white"
            if color not in ("white", "pink"):
                raise ContractError(f"unknown noise color {color!r}")
            object.__setattr__(self, "noise_color", color)
        elif self.noise_color is not None:
            raise ContractError("noise_color given without noise_snr_db")
        if self.reverb_rt60_s is not None:  # any RT60 > 0 up to the sampled range's top
            _check_range("reverb_rt60_s", self.reverb_rt60_s, (0.0, REVERB_RT60_RANGE_S[1]),
                         open_low=True)
        if self.eq_gains_db is not None:
            gains = tuple(self.eq_gains_db)
            if len(gains) != len(_EQ_BANDS_HZ):
                raise ContractError(f"eq_gains_db needs {len(_EQ_BANDS_HZ)} values")
            for gain in gains:
                _check_range("eq_gains_db", gain, EQ_GAIN_RANGE_DB)
            object.__setattr__(self, "eq_gains_db", tuple(float(g) for g in gains))
        if self.mulaw_bits is not None:
            _check_range("mulaw_bits", self.mulaw_bits, MULAW_BITS_RANGE)
        if self.dropout_rate is not None:
            _check_range("dropout_rate", self.dropout_rate, DROPOUT_RATE_RANGE)
        if self.pop_rate is not None:
            _check_range("pop_rate", self.pop_rate, POP_RATE_RANGE)
        if not self.families:
            raise ContractError("a perturbation spec must name at least one family")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) \
                or self.seed < 0:
            raise ContractError(f"seed must be an integer >= 0, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def families(self) -> tuple:
        return tuple(f for f, (field, _, _) in _FAMILY_FIELDS.items()
                     if getattr(self, field) is not None)


def _family_rng(seed: int, family: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(FAMILIES.index(family),)))


def _colored_noise(n: int, color: str, rng: np.random.Generator) -> np.ndarray:
    white = rng.standard_normal(n)
    if color == "white":
        return white
    # pink: 1/sqrt(f) amplitude shaping in the frequency domain
    spectrum = np.fft.rfft(white)
    freq_index = np.arange(spectrum.size, dtype=np.float64)
    freq_index[0] = 1.0
    spectrum /= np.sqrt(freq_index)
    spectrum[0] = 0.0
    return np.fft.irfft(spectrum, n=n)


def apply_noise(w: Waveform, snr_db: float, color: str = "white", seed: int = 0) -> Waveform:
    """Add seeded colored noise scaled to the requested SNR.

    The clean signal is untouched: the output is exactly w + noise, with the
    noise RMS set so 20*log10(rms(w)/rms(noise)) == snr_db.
    """
    signal_rms = rms(w)
    if signal_rms <= 0.0:
        raise ContractError("cannot set an SNR against a silent signal")
    rng = _family_rng(seed, "noise")
    noise = _colored_noise(len(w), color, rng)
    noise *= signal_rms * 10.0 ** (-snr_db / 20.0) / np.sqrt(np.mean(np.square(noise)))
    return w.replace_samples(w.samples + noise)


def reverb_impulse_response(rt60_s: float, sample_rate: int, seed: int = 0) -> np.ndarray:
    """Exponentially decaying noise IR whose envelope hits -60 dB at rt60_s."""
    _check_range("rt60", rt60_s, (0.0, REVERB_RT60_RANGE_S[1]), open_low=True)
    n = int(round(rt60_s * sample_rate)) + 1
    rng = _family_rng(seed, "reverb")
    t = np.arange(n) / sample_rate
    envelope = np.exp(-np.log(1000.0) * t / rt60_s)
    ir = rng.standard_normal(n) * envelope
    ir[0] = 1.0  # keep the direct path dominant
    return ir


def _fft_len(n: int) -> int:
    """Smallest 5-smooth number (2^a * 3^b * 5^c) that is >= n.

    This is the real-input FFT size that scipy.fft.next_fast_len picks, so
    the reverb convolution below rounds exactly as scipy.signal.fftconvolve.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def apply_reverb(w: Waveform, rt60_s: float, seed: int = 0) -> Waveform:
    """Convolve with a seeded synthetic room response; output keeps the input's length and peak."""
    ir = reverb_impulse_response(rt60_s, w.sample_rate, seed)
    if min(len(w), len(ir)) == 1:
        # fftconvolve multiplies a one-sample operand directly, and ir[0] == 1
        return w
    n = _fft_len(len(w) + len(ir) - 1)
    wet = np.fft.irfft(np.fft.rfft(w.samples, n) * np.fft.rfft(ir, n), n)[:len(w)]
    peak_in = np.max(np.abs(w.samples))
    peak_out = np.max(np.abs(wet))
    if peak_out > 0.0 and peak_in > 0.0:
        wet *= peak_in / peak_out
    return w.replace_samples(wet)


def _peaking_coeffs(center_hz: float, sample_rate: int, gain_db: float):
    # Peaking biquad with gain_db at the center frequency.  Centers at or
    # above Nyquist degenerate to sin(w0) ~ 0, i.e. an identity filter.
    a_lin = 10.0 ** (gain_db / 40.0)
    w0 = 2.0 * np.pi * center_hz / sample_rate
    alpha = np.sin(w0) / (2.0 * _EQ_Q)
    cos_w0 = np.cos(w0)
    b = np.array([1.0 + alpha * a_lin, -2.0 * cos_w0, 1.0 - alpha * a_lin])
    a = np.array([1.0 + alpha / a_lin, -2.0 * cos_w0, 1.0 - alpha / a_lin])
    return b / a[0], a / a[0]


def apply_eq(w: Waveform, gains_db: Sequence[float]) -> Waveform:
    """Cascade of 8 peaking filters on fixed octave bands 62.5 Hz .. 8 kHz."""
    from scipy.signal import lfilter  # deferred: see the module docstring

    if len(gains_db) != len(_EQ_BANDS_HZ):
        raise ContractError(f"expected {len(_EQ_BANDS_HZ)} band gains")
    out = w.samples
    for center, gain in zip(_EQ_BANDS_HZ, gains_db):
        _check_range("eq_gains_db", gain, EQ_GAIN_RANGE_DB)
        if gain == 0.0 or center >= w.sample_rate / 2.0:
            continue
        b, a = _peaking_coeffs(center, w.sample_rate, gain)
        out = lfilter(b, a, out)
    return w.replace_samples(out)


def apply_compression(w: Waveform, bits: int) -> Waveform:
    """Mu-law compand (mu=255), quantize to 2^bits levels, expand back."""
    _check_range("mulaw_bits", bits, MULAW_BITS_RANGE)
    x = np.clip(w.samples, -1.0, 1.0)
    companded = np.sign(x) * np.log1p(_MU * np.abs(x)) / np.log1p(_MU)
    half_levels = 2 ** (bits - 1) - 1  # midtread grid: zero maps to zero
    quantized = np.round(companded * half_levels) / half_levels
    expanded = np.sign(quantized) * ((1.0 + _MU) ** np.abs(quantized) - 1.0) / _MU
    return w.replace_samples(expanded)


def apply_dropouts(w: Waveform, rate: float, seed: int = 0) -> Waveform:
    """Zero out seeded 10 ms windows covering roughly `rate` of the duration."""
    _check_range("dropout_rate", rate, DROPOUT_RATE_RANGE)
    if rate == 0.0:
        return w
    window = max(1, int(round(_DROPOUT_WINDOW_S * w.sample_rate)))
    n_windows = int(round(rate * len(w) / window))
    if n_windows == 0:
        return w
    rng = _family_rng(seed, "dropouts")
    out = w.samples.copy()
    starts = rng.integers(0, max(1, len(w) - window), size=n_windows)
    for start in starts:
        out[start:start + window] = 0.0
    return w.replace_samples(out)


def apply_pops(w: Waveform, rate: float, seed: int = 0) -> Waveform:
    """Insert seeded full-scale 1 ms clicks at roughly `rate` events per second."""
    _check_range("pop_rate", rate, POP_RATE_RANGE)
    n_pops = int(round(rate * w.duration))
    if n_pops == 0:
        return w
    window = max(1, int(round(_POP_WINDOW_S * w.sample_rate)))
    rng = _family_rng(seed, "pops")
    out = w.samples.copy()
    starts = rng.integers(0, max(1, len(w) - window), size=n_pops)
    signs = rng.choice([-1.0, 1.0], size=n_pops)
    for start, sign in zip(starts, signs):
        out[start:start + window] = sign
    return w.replace_samples(out)


def apply(spec: PerturbSpec, w: Waveform) -> Waveform:
    """Apply the present families in fixed order: reverb, eq, compression, noise, dropouts, pops.

    The order is a reproducibility convention; per-family randomness derives
    from spec.seed, so identical (spec, input) pairs give identical output.
    """
    out = w
    if spec.reverb_rt60_s is not None:
        out = apply_reverb(out, spec.reverb_rt60_s, spec.seed)
    if spec.eq_gains_db is not None:
        out = apply_eq(out, spec.eq_gains_db)
    if spec.mulaw_bits is not None:
        out = apply_compression(out, spec.mulaw_bits)
    if spec.noise_snr_db is not None:
        out = apply_noise(out, spec.noise_snr_db, spec.noise_color, spec.seed)
    if spec.dropout_rate is not None:
        out = apply_dropouts(out, spec.dropout_rate, spec.seed)
    if spec.pop_rate is not None:
        out = apply_pops(out, spec.pop_rate, spec.seed)
    return out


def _requested(families) -> tuple:
    requested = tuple(families)
    if not requested:
        raise ContractError("at least one family must be requested")
    unknown = set(requested) - set(FAMILIES)
    if unknown:
        raise ContractError(f"unknown families: {sorted(unknown)}")
    return requested


def sample_spec(seed: int, families: Iterable[str] = FAMILIES) -> PerturbSpec:
    """Draw each requested family's parameter uniformly from its range."""
    requested = _requested(families)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(len(FAMILIES),)))
    kwargs = {}
    for fam, (field, (lo, hi), _) in _FAMILY_FIELDS.items():
        if fam not in requested:
            continue
        if fam == "eq":  # each band's gain, not their mean absolute value
            kwargs[field] = tuple(rng.uniform(*EQ_GAIN_RANGE_DB, size=len(_EQ_BANDS_HZ)))
        elif isinstance(lo, int):
            kwargs[field] = int(rng.integers(lo, hi + 1))
        else:
            kwargs[field] = float(rng.uniform(lo, hi))
        if fam == "noise":
            kwargs["noise_color"] = str(rng.choice(["white", "pink"]))
    kwargs["seed"] = int(rng.integers(0, 2 ** 63))
    return PerturbSpec(**kwargs)


def severity(spec: PerturbSpec, family: str) -> float:
    """Normalized severity of one present family: its place in its range, 0 at the mild end."""
    if family not in spec.families:
        raise ContractError(f"family {family!r} is not in the spec, which has "
                            f"{', '.join(spec.families)}")
    field, (lo, hi), falls = _FAMILY_FIELDS[family]
    value = getattr(spec, field)
    if isinstance(value, tuple):  # eq: the mean absolute gain of its bands
        value = float(np.mean(np.abs(value)))
    s = min(max((value - lo) / (hi - lo), 0.0), 1.0)  # an RT60 below the reverb range is 0
    return 1.0 - s if falls else s


def spec_with_severity(families, target: float, rng: np.random.Generator,
                       max_families: int = 2) -> PerturbSpec:
    """The inverse of :func:`severity`: a spec of one or two of `families` (at most
    `max_families`), each at severity `target`.

    Eq draws a sign for each band, and compression rounds to whole bits.
    """
    pool = _requested(families)
    t = float(np.clip(target, 0.0, 1.0))
    n_fam = 1 if len(pool) == 1 or max_families == 1 or rng.random() < 0.5 else 2
    chosen = rng.choice(pool, size=min(n_fam, len(pool)), replace=False)
    kwargs: dict = {}
    for fam in chosen:
        field, (lo, hi), falls = _FAMILY_FIELDS[fam]
        value = hi - t * (hi - lo) if falls else lo + t * (hi - lo)
        if fam == "noise":
            kwargs["noise_color"] = str(rng.choice(["white", "pink"]))
        elif fam == "eq":
            value = tuple(rng.choice([-1.0, 1.0], size=len(_EQ_BANDS_HZ)) * value)
        kwargs[field] = int(round(value)) if isinstance(lo, int) else value
    kwargs["seed"] = int(rng.integers(0, 2 ** 63))
    return PerturbSpec(**kwargs)


def magnitude(spec: PerturbSpec) -> float:
    """Mean of the present families' severities; monotone per family.

    A spec with every present family at minimum severity maps to 0.0 and a
    single family at maximum severity maps to 1.0.
    """
    present = spec.families
    return float(sum(severity(spec, f) for f in present) / len(present))
