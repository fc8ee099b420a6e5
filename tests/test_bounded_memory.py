"""Chunked spectrogram intermediates: same values, bounded memory.

stft, istft, the LPC autocorrelation, the beat spectrum and the REPET
mask work CHUNK_ROWS rows (frames or bins) at a time, and chunk_map
runs stft's, the autocorrelation's and the beat spectrum's chunks on two
threads. The references below are the whole-array versions they
replaced; with the chunk size patched to a few rows, chunk boundaries
fall mid-array and the results must still be bitwise equal. Training gathers its batches, and validation its
PREDICT_BATCH-block batches, from one window view of the frames. The
memory tests trace numpy's buffers with tracemalloc, which counts them
deterministically.
"""

import tracemalloc
import wave

import numpy as np
import pytest
import scipy.signal

from svdet import audio, cli, model, separation
from svdet.audio import (FRAME_LEN, HOP, AudioClip, frame_matrix, frame_signal,
                         istft, stft)
from svdet.features import FeatureMatrix, autocorr_from_spectrogram, lpcc
from svdet.pipeline import PipelineConfig, train_classifier
from svdet.separation import (MAX_PERIOD, MIN_PERIOD, beat_spectrum,
                              estimate_period, repet_mask, separate)
from svdet.synth import repeating_loop, vibrato_voice
from svdet.tracks import LabelTrack


def reference_stft(clip):
    win = scipy.signal.get_window("hamming", FRAME_LEN, fftbins=True)
    return np.fft.rfft(frame_matrix(clip) * win, n=1024, axis=1)


def reference_istft(bins):
    win = scipy.signal.get_window("hamming", FRAME_LEN, fftbins=True)
    frames = np.fft.irfft(bins, n=1024, axis=1)[:, :FRAME_LEN]
    frames *= win
    n_frames = len(bins)
    m = FRAME_LEN // HOP
    chunks = frames.reshape(n_frames, m, HOP)
    wsq = (win ** 2).reshape(m, HOP)
    num = np.zeros((n_frames + m - 1, HOP))
    den = np.zeros_like(num)
    for c in range(m - 1, -1, -1):
        num[c : c + n_frames] += chunks[:, c]
        den[c : c + n_frames] += wsq[c]
    return np.divide(num, den, out=np.zeros_like(num), where=den > 1e-12).ravel()


def reference_beat_spectrum(mag):
    n_frames = mag.shape[0]
    max_lag = n_frames - 1
    x = np.ascontiguousarray(mag.T)
    n = 1
    while n < 2 * n_frames:
        n *= 2
    spec = np.fft.rfft(x, n=n, axis=1)
    ac = np.fft.irfft(np.abs(spec) ** 2, n=n, axis=1)[:, : max_lag + 1]
    cum = np.cumsum(x ** 2, axis=1)
    norm = np.empty_like(ac)
    norm[:, 0] = cum[:, -1]
    np.subtract(cum[:, -1:], cum[:, :max_lag], out=norm[:, 1:])
    norm *= cum[:, n_frames - 1 - max_lag :][:, ::-1]
    np.sqrt(norm, out=norm)
    np.maximum(norm, 1e-300, out=norm)
    ac /= norm
    return ac.mean(axis=0)


def reference_autocorr(power):
    return np.fft.irfft(power, n=1024, axis=1)[:, :13]


def reference_separate(clip):
    """Whole-array separation: (vocal, accompaniment, period)."""
    bins = reference_stft(clip)
    mag = np.abs(bins)
    period = estimate_period(reference_beat_spectrum(mag),
                             (MIN_PERIOD, min(MAX_PERIOD, frame_signal(clip) // 3)))
    voc = 1.0 - repet_mask(mag, period)
    samples = reference_istft(bins * voc)
    span = len(samples)
    vocal, accompaniment = np.zeros(len(clip.samples)), np.zeros(len(clip.samples))
    vocal[:span] = samples
    accompaniment[:span] = clip.samples[:span] - samples
    return vocal, accompaniment, period


def song(duration, seed=5):
    rng = np.random.default_rng(seed)
    x = repeating_loop(rng, duration) + 0.5 * vibrato_voice(rng, duration)[0]
    return AudioClip(samples=x)


@pytest.fixture(params=[1, 3, 7, 32])
def few_rows(request, monkeypatch, pool):
    monkeypatch.setattr(audio, "CHUNK_ROWS", request.param)
    return request.param


# 8500 samples make 25 frames, so the last chunk of 3 or 7 rows is partial;
# chunk_map splits the chunks between the caller's and the pool's thread.
class TestChunksMatchWholeArray:
    def test_stft(self, few_rows, rng):
        clip = AudioClip(samples=rng.standard_normal(8500))
        assert np.array_equal(stft(clip), reference_stft(clip))

    def test_istft(self, few_rows, rng):
        bins = reference_stft(AudioClip(samples=rng.standard_normal(8500)))
        assert np.array_equal(istft(bins).samples, reference_istft(bins))

    def test_beat_spectrum(self, few_rows, rng):
        mag = rng.uniform(0.0, 1.0, size=(61, 40))
        mag[:, 5] = 0.0  # a silent bin correlates 0 at every lag
        assert np.array_equal(beat_spectrum(mag), reference_beat_spectrum(mag))

    def test_autocorr_from_spectrogram(self, few_rows, random_spectrogram):
        power = np.abs(random_spectrogram) ** 2
        got = autocorr_from_spectrogram(power)
        assert np.array_equal(got, reference_autocorr(power))

    def test_separate(self, few_rows, monkeypatch):
        periods = []

        def spy(bs, search_range):
            periods.append(estimate_period(bs, search_range))
            return periods[-1]

        monkeypatch.setattr(separation, "estimate_period", spy)
        clip = song(5.0)
        want_vocal, want_accompaniment, want_period = reference_separate(clip)
        vocal = separate(clip)
        accompaniment = cli.accompaniment(clip, vocal)
        assert periods == [want_period]
        assert np.array_equal(vocal.samples, want_vocal)
        assert np.array_equal(accompaniment.samples, want_accompaniment)


def traced_peak(fn, *args):
    """Peak bytes allocated while fn runs, its result included."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def minute_song():
    clip = song(60.0, seed=11)
    return clip, stft(clip)


class TestMemoryFollowsTheStft:
    """Peaks in units of the clip's complex STFT (2999 x 513 x 16 bytes)."""

    def test_separate_peak(self, minute_song):
        clip, bins = minute_song
        assert traced_peak(separate, clip) <= 4.0 * bins.nbytes

    def test_separate_holds_one_full_size_array(self, minute_song):
        # the STFT, the magnitude the beat spectrum reads and chunks of
        # bins: a whole-array REPET mask and (bins, lags) matrix made 2.53x
        clip, bins = minute_song
        assert traced_peak(separate, clip) <= 2.25 * bins.nbytes

    def test_lpcc_peak(self, minute_song):
        _, bins = minute_song
        assert traced_peak(lpcc, np.abs(bins) ** 2) <= 0.5 * bins.nbytes


def test_load_wav_peak_follows_its_output(tmp_path):
    # 44.1 kHz stereo: a float64 copy of both channels, scaled into a
    # second one and then averaged, peaked at 9.65 times the 16 kHz output;
    # the PCM bytes held through the resampler, at 5.26 times
    rng = np.random.default_rng(3)
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(44100)
        wf.writeframes(rng.integers(-32768, 32768, (441000, 2),
                                    dtype="<i2").tobytes())
    output_bytes = 160000 * 8  # 10 s at SAMPLE_RATE
    assert traced_peak(audio.load_wav, path) <= 4.5 * output_bytes


def ten_stems(n_frames=1500):
    """(stems, feats, labels, cfg, feature bytes): 10 x n_frames x 39."""
    rng = np.random.default_rng(7)
    stems = [f"clip{i}" for i in range(10)]
    feats = {s: FeatureMatrix(values=rng.standard_normal((n_frames, 39)),
                              feature_tag="lpcc_mfcc_plp") for s in stems}
    labels = {s: LabelTrack(labels=rng.integers(0, 2, n_frames,
                                                dtype=np.int8))
              for s in stems}
    cfg = PipelineConfig(feature_tag="lpcc_mfcc_plp", epochs=1)
    return stems, feats, labels, cfg, sum(f.values.nbytes
                                          for f in feats.values())


def test_train_classifier_peak_follows_the_features():
    # copying every block of 29 frames at train_stride 5 held each frame
    # about 5.8 times, and peaked at 9.8 times the feature bytes at 1500
    # frames; scoring all 1190 validation blocks of 3000 frames in one
    # forward_blocks call peaked at 4.5 times
    for n_frames, bound in ((1500, 6.0), (3000, 3.0)):
        stems, feats, labels, cfg, feature_bytes = ten_stems(n_frames)
        peak = traced_peak(train_classifier, stems, feats, labels, cfg)
        assert peak <= bound * feature_bytes, n_frames


def test_training_batches_hold_no_validation_copy(monkeypatch):
    # a copy of every validation block, held for the whole run, put 2.5
    # times the feature bytes in memory as each training batch started
    stems, feats, labels, cfg, feature_bytes = ten_stems()
    held, backward = [], model.lrcn_backward

    def spy(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return backward(*args, **kwargs)

    monkeypatch.setattr(model, "lrcn_backward", spy)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train_classifier(stems, feats, labels, cfg)
    finally:
        tracemalloc.stop()
    assert held and max(held) - base <= 2.0 * feature_bytes
