import numpy as np
import pytest

from svdet import audio
from svdet.audio import AudioClip, frame_signal, istft, stft
from svdet.cli import accompaniment
from svdet.errors import ClipTooShortError, DataError
from svdet.separation import (MASK_EPS, MAX_PERIOD, MIN_PERIOD, beat_spectrum,
                              estimate_period, repet_mask, separate)
from svdet.synth import repeating_loop, synthetic_clip


def periodic_magnitude(period, reps, n_bins, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.1, 1.0, size=(period, n_bins))
    return np.tile(base, (reps, 1))


def reference_beat_spectrum(mag, max_lag=None):
    """Per-lag gather of the window energies, as first written."""
    n_frames = mag.shape[0]
    max_lag = n_frames - 1 if max_lag is None else min(max_lag, n_frames - 1)
    x = mag.T
    n = 1
    while n < 2 * n_frames:
        n *= 2
    spec = np.fft.rfft(x, n=n, axis=1)
    ac = np.fft.irfft(np.abs(spec) ** 2, n=n, axis=1)[:, : max_lag + 1]
    cum = np.cumsum(x ** 2, axis=1)
    lags = np.arange(max_lag + 1)
    e_head = cum[:, n_frames - 1 - lags]
    e_tail = cum[:, -1:] - np.concatenate(
        [np.zeros((x.shape[0], 1)), cum[:, lags[1:] - 1]], axis=1)
    return (ac / np.maximum(np.sqrt(e_head * e_tail), 1e-300)).mean(axis=0)


def reference_repet_mask(mag, period):
    """One median per offset within the period, as first written."""
    model = np.empty_like(mag)
    for j in range(min(period, mag.shape[0])):
        model[j::period] = np.median(mag[j::period], axis=0)
    return np.clip(np.minimum(model, mag) / (mag + MASK_EPS), 0.0, 1.0)


class TestBeatSpectrum:
    @pytest.mark.parametrize("n_frames", [2, 3, 37, 128, 250])
    @pytest.mark.parametrize("max_lag", [None, 0, 1, 20, 400])
    def test_matches_gather_reference(self, rng, n_frames, max_lag):
        mag = rng.uniform(0.0, 1.0, size=(n_frames, 9))
        mag[:, 4] = 0.0  # a silent bin correlates 0 at every lag
        got = beat_spectrum(mag)
        # every lag, of which the reference gathers those up to max_lag
        assert got.shape == (n_frames,)
        want = reference_beat_spectrum(mag, max_lag)
        assert np.abs(got[: len(want)] - want).max() <= 1e-12

    def test_periodic_peaks_at_multiples(self):
        mag = periodic_magnitude(8, 8, 16)
        vals = beat_spectrum(mag)
        for lag in (8, 16, 24):
            assert vals[lag] > vals[lag - 1]
            assert vals[lag] > vals[lag + 1]
            assert vals[lag] == pytest.approx(1.0, abs=1e-9)

    def test_constant_magnitude_all_ones(self):
        bs = beat_spectrum(np.full((30, 5), 2.5))
        assert np.allclose(bs, 1.0)

    def test_lag0_dominates_random(self, rng):
        mag = rng.uniform(0.0, 1.0, size=(64, 20))
        bs = beat_spectrum(mag)
        assert np.all(bs[1:] <= bs[0] + 1e-12)

    def test_single_frame_error(self):
        with pytest.raises(DataError):
            beat_spectrum(np.ones((1, 4)))


class TestEstimatePeriod:
    def test_recovers_synthetic_period(self):
        mag = periodic_magnitude(8, 10, 16)
        bs = beat_spectrum(mag)
        assert estimate_period(bs, (2, 32)) == 8

    def test_constant_input_tie_breaks_small(self):
        bs = beat_spectrum(np.full((40, 4), 1.0))
        assert estimate_period(bs, (3, 20)) == 3

    def test_range_outside_max_lag(self):
        bs = np.ones(31)
        with pytest.raises(DataError):
            estimate_period(bs, (40, 50))


class TestRepetMask:
    @pytest.mark.parametrize("n_frames", [1, 12, 37, 100])
    def test_matches_per_offset_reference(self, rng, n_frames):
        mag = rng.uniform(0.0, 1.0, size=(n_frames, 7))
        mag[::3, 2] = 0.0
        # 1, a divisor of T, non-divisors, above T/2, T and beyond
        periods = {1, 2, 3, 4, 5, 7, n_frames // 2 + 1, n_frames - 1,
                   n_frames, n_frames + 5}
        for period in sorted(p for p in periods if p >= 1):
            got = repet_mask(mag, period)
            assert np.array_equal(got, reference_repet_mask(mag, period)), period

    def test_fortran_ordered_input(self, rng):
        mag = np.asfortranarray(rng.uniform(0.0, 1.0, size=(37, 7)))
        for period in (1, 5, 7, 19, 37, 40):
            got = repet_mask(mag, period)
            assert np.array_equal(got, reference_repet_mask(mag, period)), period

    def test_purely_periodic_vocal_mask_near_zero(self):
        mag = periodic_magnitude(6, 5, 8)
        voc = 1.0 - repet_mask(mag, 6)
        assert voc.max() <= 1e-6

    def test_transient_bin_routed_to_vocal(self):
        # 3 segments of 4 frames; one bin spikes 10x above the median
        mag = np.tile(np.full((4, 3), 1.0), (3, 1))
        mag[5, 1] = 10.0
        voc = 1.0 - repet_mask(mag, 4)
        # median over {1, 10, 1} is 1; W = 1, mask = 1/10
        assert voc[5, 1] >= 0.9
        assert voc[0, 0] <= 1e-6

    def test_zero_spectrogram_no_nan(self):
        acc = repet_mask(np.zeros((6, 4)), 2)
        assert np.all(acc == 0.0)
        assert np.all(np.isfinite(acc))

    def test_mask_complementarity_exact(self, rng):
        mag = rng.uniform(0.0, 2.0, size=(20, 10))
        acc = repet_mask(mag, 5)
        voc = 1.0 - acc
        assert np.all(acc + voc == 1.0)

    def test_invalid_period(self):
        with pytest.raises(DataError):
            repet_mask(np.ones((4, 4)), 0)

    def test_partial_final_period_uses_available_segments(self):
        mag = np.ones((10, 2))
        mag[8:, :] = 3.0  # only frames 8,9 in the trailing partial period
        acc = repet_mask(mag, 4)
        assert np.all(np.isfinite(acc))


def reference_separate(clip):
    """Both estimates through their own ISTFT, padded and cut to the clip."""
    bins = stft(clip)
    mag = np.abs(bins)
    period = estimate_period(beat_spectrum(mag),
                             (MIN_PERIOD, min(MAX_PERIOD, frame_signal(clip) // 3)))
    acc = repet_mask(mag, period)
    n = len(clip.samples)
    out = []
    for mask in (1.0 - acc, acc):
        rec = istft(bins * mask).samples
        out.append(np.pad(rec, (0, max(0, n - len(rec))))[:n])
    return out, len(rec)


def separate_both(clip):
    """separate's vocal and the accompaniment `svdet separate` writes."""
    vocal = separate(clip)
    return vocal, accompaniment(clip, vocal)


def check_one_istft_matches_two(rng, extra):
    loop = repeating_loop(rng, 6.0)
    samples = 0.5 * loop + 0.05 * rng.standard_normal(len(loop))
    clip = AudioClip(samples=np.concatenate(
        [samples, 0.3 * rng.standard_normal(extra)]))
    voc, acc = separate_both(clip)
    (ref_voc, ref_acc), span = reference_separate(clip)
    assert len(voc.samples) == len(acc.samples) == len(clip.samples)
    assert np.array_equal(voc.samples, ref_voc)
    assert np.abs(acc.samples - ref_acc).max() <= 1e-12
    # past the last frame nothing is reconstructed
    assert span == len(clip.samples) - extra
    assert np.all(acc.samples[span:] == 0.0)
    assert np.all(voc.samples[span:] == 0.0)


class TestSeparate:
    @pytest.mark.parametrize("extra", [0, 123, 319])
    def test_one_istft_matches_two(self, rng, extra):
        check_one_istft_matches_two(rng, extra)

    @pytest.mark.parametrize("chunk_rows", [1, 3, 7, 32])
    def test_pooled_chunks_match_two_istfts(self, rng, pool, monkeypatch,
                                            chunk_rows):
        # separate and the reference both split the chunks of stft and
        # the beat spectrum between two threads, at sizes that end mid-array
        monkeypatch.setattr(audio, "CHUNK_ROWS", chunk_rows)
        check_one_istft_matches_two(rng, 123)

    def test_reconstruction_sums_to_mixture(self, rng):
        loop = repeating_loop(rng, 8.0)
        clip = AudioClip(samples=0.5 * loop + 0.05 * rng.standard_normal(len(loop)))
        voc, acc = separate_both(clip)
        mix_resynth = istft(stft(clip)).samples
        total = voc.samples + acc.samples
        n = min(len(total), len(mix_resynth))
        assert np.abs(total[:n] - mix_resynth[:n]).max() < 1e-6

    def test_loop_only_accompaniment_correlation(self, rng):
        loop = repeating_loop(rng, 10.0)
        clip = AudioClip(samples=0.5 * loop)
        voc, acc = separate_both(clip)
        corr = np.corrcoef(acc.samples, clip.samples)[0, 1]
        assert corr > 0.99

    def test_energy_split_bounded(self, rng):
        loop = repeating_loop(rng, 8.0)
        clip = AudioClip(samples=0.4 * loop + 0.1 * rng.standard_normal(len(loop)))
        voc, acc = separate_both(clip)
        mix = istft(stft(clip)).samples
        mix_energy = np.sum(mix ** 2)
        assert (np.sum(voc.samples ** 2) + np.sum(acc.samples ** 2)
                <= mix_energy + 1e-6)

    def test_too_short_clip(self):
        clip = AudioClip(samples=np.zeros(1600))  # 0.1 s
        with pytest.raises(DataError, match="too short"):
            separate(clip)

    def test_shorter_than_three_periods(self):
        clip = AudioClip(samples=np.zeros(32000))  # 2 s
        with pytest.raises(ClipTooShortError, match="3 periods"):
            separate(clip)


def loop_samples(duration=10.0, seed=0):
    return 0.5 * repeating_loop(np.random.default_rng(seed), duration)


def clip_period(samples):
    clip = AudioClip(samples=samples)
    return estimate_period(beat_spectrum(np.abs(stft(clip))),
                           (MIN_PERIOD, min(MAX_PERIOD, frame_signal(clip) // 3)))


class TestSilentWindows:
    """A lag whose window holds no energy correlates 0. Dividing rounding
    noise by a norm floor there read about 1e287 and picked the period."""

    def test_beat_spectrum_bounded_with_silent_ends(self):
        silence = np.zeros(4000)  # 250 ms
        x = np.concatenate([silence, loop_samples(), silence])
        bs = beat_spectrum(np.abs(stft(AudioClip(samples=x))))
        assert np.abs(bs).max() <= 1.0 + 1e-9

    @pytest.mark.parametrize("lead", [800, 4000])  # 50 ms and 250 ms
    def test_leading_silence_keeps_the_period(self, lead):
        loop = loop_samples()
        assert clip_period(loop) == 100
        assert clip_period(np.concatenate([np.zeros(lead), loop])) == 100

    def test_near_silent_float_tail_stays_finite(self):
        # the tail's window energies cancel to exactly 0 in the running sums
        x = synthetic_clip(0)[0].samples.copy()
        x[-4000:] *= 1e-6
        clip = AudioClip(samples=x)
        bs = beat_spectrum(np.abs(stft(clip)))
        assert not np.any(np.isnan(bs))
        assert np.abs(bs).max() <= 1.0 + 1e-9
        assert np.all(np.isfinite(separate(clip).samples))
