"""Perturbation synthesis: determinism, calibration, and magnitude math."""

import os
import subprocess
import sys

import numpy as np
import pytest

import cdpam
from cdpam.audio import Waveform, rms
from cdpam.errors import ContractError
from cdpam import perturb
from cdpam.perturb import (PerturbSpec, apply, apply_compression, apply_dropouts, apply_eq,
                           apply_noise, apply_pops, apply_reverb, magnitude,
                           reverb_impulse_response, sample_spec, severity)

SR = 16000


@pytest.fixture
def tone():
    t = np.arange(SR) / SR
    return Waveform(0.3 * np.sin(2 * np.pi * 220 * t), SR)


class TestSpec:
    def test_requires_a_family(self):
        with pytest.raises(ContractError):
            PerturbSpec(seed=1)

    def test_range_validation(self):
        with pytest.raises(ContractError):
            PerturbSpec(noise_snr_db=50.0, seed=1)
        with pytest.raises(ContractError):
            PerturbSpec(reverb_rt60_s=3.0, seed=1)
        with pytest.raises(ContractError):
            PerturbSpec(mulaw_bits=3, seed=1)

    @pytest.mark.parametrize("kwargs", [
        {"eq_gains_db": (float("nan"),) * 8},
        {"eq_gains_db": (float("inf"),) + (0.0,) * 7},
        {"eq_gains_db": (True,) + (0.0,) * 7},
        {"noise_snr_db": float("nan")},
        {"pop_rate": float("inf")},
        {"reverb_rt60_s": True},
        {"noise_snr_db": True},
        {"pop_rate": True},
        {"dropout_rate": False},
        {"mulaw_bits": 6.0},
    ], ids=["nan-eq", "inf-eq", "bool-eq", "nan-snr", "inf-pops", "bool-rt60", "bool-snr",
            "bool-pops", "bool-dropouts", "float-bits"])
    def test_rejects_bool_and_non_finite_values(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ContractError, match=f"^{field} "):
            PerturbSpec(seed=1, **kwargs)

    @pytest.mark.parametrize("seed", [-1, float("inf"), True, 1.5, "3"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ContractError, match="seed must be an integer >= 0"):
            PerturbSpec(noise_snr_db=20.0, seed=seed)

    def test_json_round_trip(self):
        spec = sample_spec(11, perturb.FAMILIES)
        again = PerturbSpec.from_json(spec.to_json())
        assert again == spec
        assert again.to_json() == spec.to_json()


class TestNoise:
    def test_snr_zero_matches_signal_rms(self, tone):
        out = apply_noise(tone, 0.0, seed=3)
        noise = out.samples - tone.samples
        ratio_db = 20 * np.log10(rms(tone) / np.sqrt(np.mean(noise ** 2)))
        assert abs(ratio_db) < 0.01

    def test_snr_20_is_tenth_rms(self, tone):
        out = apply_noise(tone, 20.0, seed=3)
        noise = out.samples - tone.samples
        assert np.sqrt(np.mean(noise ** 2)) == pytest.approx(0.1 * rms(tone), rel=1e-6)

    def test_same_seed_bit_identical(self, tone):
        a = apply_noise(tone, 10.0, "pink", seed=9)
        b = apply_noise(tone, 10.0, "pink", seed=9)
        assert np.array_equal(a.samples, b.samples)

    def test_clean_component_untouched(self, tone):
        # output is exactly input + the seeded noise it would add to zeros-free ref
        out1 = apply_noise(tone, 15.0, seed=4)
        out2 = apply_noise(tone, 15.0, seed=4)
        noise = out1.samples - tone.samples
        assert np.array_equal(out2.samples, tone.samples + noise)

    def test_silent_input_rejected(self):
        with pytest.raises(ContractError):
            apply_noise(Waveform(np.zeros(100), SR), 10.0)

    def test_pink_noise_tilts_down(self):
        rng = np.random.default_rng(0)
        w = Waveform(rng.normal(size=SR) * 0.1, SR)
        out = apply_noise(w, -0.0, "pink", seed=5)
        noise = out.samples - w.samples
        spectrum = np.abs(np.fft.rfft(noise)) ** 2
        low = spectrum[1:200].mean()
        high = spectrum[-200:].mean()
        assert low > 10 * high


class TestReverb:
    def test_envelope_hits_minus_60db_at_rt60(self):
        rt60 = 0.5
        ir = reverb_impulse_response(rt60, SR, seed=0)
        t = np.arange(ir.size) / SR
        envelope = np.exp(-np.log(1000.0) * t / rt60)
        assert abs(envelope[int(rt60 * SR)] - 0.001) / 0.001 < 0.05

    def test_impulse_recovers_ir(self):
        imp = np.zeros(SR)
        imp[0] = 1.0
        out = apply_reverb(Waveform(imp, SR), 0.4, seed=7)
        ir = reverb_impulse_response(0.4, SR, seed=7)
        expected = np.zeros(SR)
        expected[:ir.size] = ir / np.max(np.abs(ir))
        assert np.allclose(out.samples, expected)

    def test_output_length_and_peak(self, tone):
        out = apply_reverb(tone, 1.5, seed=2)
        assert len(out) == len(tone)
        assert np.max(np.abs(out.samples)) == pytest.approx(np.max(np.abs(tone.samples)))


class TestReverbMatchesScipy:
    """The numpy.fft reverb reproduces scipy.signal.fftconvolve bit for bit; scipy is
    imported only here, as the reference."""

    def test_fft_len_is_next_fast_len(self):
        from scipy.fft import next_fast_len

        sizes = range(1, 50001)
        assert [perturb._fft_len(n) for n in sizes] == [next_fast_len(n, real=True)
                                                        for n in sizes]

    @pytest.mark.parametrize("rate", [1600, 8000, 16000])
    def test_bit_equal_to_fftconvolve(self, rate):
        from scipy.signal import fftconvolve

        rng = np.random.default_rng(rate)
        for length in (1, 7, 1601, 8001):
            w = Waveform(0.2 * rng.standard_normal(length), rate)
            # 2e-5 s is a one-tap IR at every rate here
            for seed, rt60 in enumerate((2e-5, 0.0501, 0.3, 0.77, 1.3, 2.0)):
                wet = fftconvolve(w.samples, reverb_impulse_response(rt60, rate, seed))[:length]
                wet *= np.max(np.abs(w.samples)) / np.max(np.abs(wet))
                out = apply_reverb(w, rt60, seed)
                assert np.array_equal(out.samples, wet), (length, rt60)

    def test_package_and_reverb_load_no_scipy(self):
        # a fresh interpreter: scipy is already loaded in this one
        src = os.path.dirname(os.path.dirname(os.path.abspath(cdpam.__file__)))
        code = ("import sys\n"
                "import numpy as np\n"
                "import cdpam.cli, cdpam.datagen, cdpam.trainer, cdpam.evaluate\n"
                "from cdpam.audio import Waveform\n"
                "from cdpam.perturb import PerturbSpec, apply\n"
                "spec = PerturbSpec(noise_snr_db=10.0, reverb_rt60_s=0.5, seed=3)\n"
                "apply(spec, Waveform(np.sin(np.arange(4000) / 7.0), 8000))\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"


class TestEq:
    def test_zero_gains_identity(self, tone):
        out = apply_eq(tone, [0.0] * 8)
        assert np.max(np.abs(out.samples - tone.samples)) < 1e-6

    def test_eq_spec_applies(self, tone):
        gains = (3.0, -2.0, 1.0, 0.0, 4.0, -4.0, 2.0, 0.0)
        out = apply(PerturbSpec(eq_gains_db=gains, seed=5), tone)
        assert np.array_equal(out.samples, apply_eq(tone, gains).samples)
        assert not np.allclose(out.samples, tone.samples)

    @pytest.mark.parametrize("gain", [12.0, -12.0])
    def test_1khz_band_gain(self, gain):
        t = np.arange(SR) / SR
        w = Waveform(0.05 * np.sin(2 * np.pi * 1000 * t), SR)
        gains = [0.0] * 8
        gains[4] = gain  # 62.5 * 2^4 = 1000 Hz
        out = apply_eq(w, gains)
        steady = slice(SR // 4, -SR // 4)  # skip filter transients
        measured_db = 20 * np.log10(np.sqrt(np.mean(out.samples[steady] ** 2))
                                    / np.sqrt(np.mean(w.samples[steady] ** 2)))
        assert abs(measured_db - gain) < 1.0


class TestCompression:
    def test_zero_maps_to_zero(self):
        out = apply_compression(Waveform(np.zeros(64), SR), 6)
        assert np.array_equal(out.samples, np.zeros(64))

    def test_8bit_near_identity_at_half(self):
        out = apply_compression(Waveform(np.full(4, 0.5), SR), 8)
        # oracle: evaluate the mu-law round trip at 2^8 midtread levels directly
        def expand(y):
            return np.sign(y) * (256.0 ** np.abs(y) - 1.0) / 255.0
        compand = np.log1p(255 * 0.5) / np.log1p(255)
        quantized = np.round(compand * 127) / 127
        assert out.samples[0] == pytest.approx(expand(quantized))
        step = expand(quantized + 1 / 127) - expand(quantized - 1 / 127)
        assert abs(out.samples[0] - 0.5) <= step

    def test_level_count_bound(self):
        rng = np.random.default_rng(1)
        w = Waveform(rng.uniform(-1, 1, 4096), SR)
        for bits in (4, 6, 8):
            out = apply_compression(w, bits)
            assert np.unique(out.samples).size <= 2 ** bits


class TestDropoutsAndPops:
    def test_zero_rate_identity(self, tone):
        assert np.array_equal(apply_dropouts(tone, 0.0, seed=1).samples, tone.samples)
        assert np.array_equal(apply_pops(tone, 0.0, seed=1).samples, tone.samples)

    def test_dropout_fraction_calibrated(self):
        # average zeroed fraction over seeds approximates the requested rate
        t = np.arange(2 * SR + SR // 2) / SR
        w = Waveform(0.3 * np.sin(2 * np.pi * 300 * t) + 0.05, SR)
        fractions = []
        for seed in range(40):
            out = apply_dropouts(w, 0.05, seed=seed)
            fractions.append(np.mean(out.samples == 0.0))
        assert 0.03 <= np.mean(fractions) <= 0.07

    def test_pop_count(self, tone):
        out = apply_pops(tone, 10.0, seed=3)
        assert np.sum(np.abs(out.samples) == 1.0) >= 10  # ~10 pops of ~16 samples

    def test_determinism(self, tone):
        a = apply_dropouts(tone, 0.08, seed=5)
        b = apply_dropouts(tone, 0.08, seed=5)
        assert np.array_equal(a.samples, b.samples)


class TestApply:
    def test_noise_only_matches_apply_noise(self, tone):
        spec = PerturbSpec(noise_snr_db=10.0, seed=77)
        assert np.array_equal(apply(spec, tone).samples,
                              apply_noise(tone, 10.0, "white", seed=77).samples)

    def test_empty_spec_rejected(self):
        with pytest.raises(ContractError):
            PerturbSpec(seed=0)

    def test_full_spec_deterministic(self, tone):
        spec = PerturbSpec(noise_snr_db=18.0, noise_color="pink", reverb_rt60_s=0.6,
                           eq_gains_db=(3, -2, 1, 0, 4, -4, 2, 0), mulaw_bits=6,
                           dropout_rate=0.02, pop_rate=2.0, seed=123)
        a = apply(spec, tone)
        b = apply(spec, tone)
        assert np.array_equal(a.samples, b.samples)


class TestSampleSpec:
    def test_subset_contract(self):
        spec = sample_spec(5, ("noise",))
        assert spec.families == ("noise",)

    def test_determinism(self):
        assert sample_spec(42, ("noise", "reverb")) == sample_spec(42, ("noise", "reverb"))

    def test_snr_mean_over_draws(self):
        values = [sample_spec(seed, ("noise",)).noise_snr_db for seed in range(1000)]
        assert 17.0 <= np.mean(values) <= 23.0


class TestMagnitude:
    def test_minimum_severity_is_zero(self):
        spec = PerturbSpec(noise_snr_db=40.0, reverb_rt60_s=0.05, dropout_rate=0.0,
                           pop_rate=0.0, eq_gains_db=(0,) * 8, mulaw_bits=8, seed=0)
        assert magnitude(spec) == 0.0

    def test_single_family_max_is_one(self):
        assert magnitude(PerturbSpec(noise_snr_db=0.0, seed=0)) == 1.0
        assert magnitude(PerturbSpec(reverb_rt60_s=2.0, seed=0)) == 1.0

    def test_noise_linear_map(self):
        assert magnitude(PerturbSpec(noise_snr_db=20.0, seed=0)) == pytest.approx(0.5)

    def test_monotone_in_each_family(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            snr_hi = rng.uniform(0, 40)
            snr_lo = rng.uniform(0, snr_hi)  # lower SNR = more severe
            rt = rng.uniform(0.05, 2.0)
            weaker = PerturbSpec(noise_snr_db=snr_hi, reverb_rt60_s=rt, seed=0)
            stronger = PerturbSpec(noise_snr_db=snr_lo, reverb_rt60_s=rt, seed=0)
            assert magnitude(stronger) >= magnitude(weaker)

    def test_severity_unknown_family(self):
        with pytest.raises(ContractError):
            severity(PerturbSpec(noise_snr_db=1.0, seed=0), "codec")
