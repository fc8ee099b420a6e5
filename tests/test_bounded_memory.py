"""Chunked spectrogram intermediates: same values, bounded memory.

stft, istft, the feature front end, the beat spectrum and the REPET
mask work CHUNK_ROWS rows (frames or bins) at a time, and chunk_map
runs the chunks of stft, istft and the beat spectrum on two threads. The
references below are the whole-array versions they replaced; with the
chunk size patched to a few rows, chunk boundaries fall mid-array and
the results must still be bitwise equal. Two sets of last bits follow
the chunk split, never the threads: the beat spectrum's, whose two sides
each sum their own bins, while its period and every separation output
stay bitwise equal; and the features', whose matrix products a BLAS
kernel picks by row count, so they are held to a whole-array reference
within a relative tolerance. Training gathers its batches, and
validation its PREDICT_BATCH-block batches, from one window view of the
frames. The memory tests trace numpy's buffers with tracemalloc, which
counts them deterministically.
"""

import sys
import threading
import tracemalloc
import wave

import numpy as np
import pytest
import scipy.signal

from svdet import audio, cli, features, model, separation
from svdet.audio import (FRAME_LEN, HOP, AudioClip, frame_matrix, frame_signal,
                         istft, stft)
from svdet.features import (DCT, FRONT, FRONT_COLUMNS, LOG_FLOOR,
                            FeatureMatrix, extract_features)
from svdet.pipeline import PipelineConfig, clip_features, train_classifier
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


def reference_features(bins):
    """The features from whole-array products, FRONT's and the DCT's."""
    front = (np.abs(bins) ** 2) @ FRONT
    cols = {name: front[:, c] for name, c in FRONT_COLUMNS.items()}
    return {"mfcc": np.log(np.maximum(cols["mfcc"], LOG_FLOOR)) @ DCT,
            "lpcc": features.lpcc(cols["lpcc"]).values,
            "plp": features.plp(cols["plp"]).values}


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
        # 1-5 chunks, so the caller and the pool run even and odd halves,
        # the last chunk full or one frame; each chunk's first row takes
        # its first piece once both sides have stopped
        for n_frames in sorted({(n_chunks - 1) * few_rows + last
                                for n_chunks in range(1, 6)
                                for last in (1, few_rows)}):
            bins = (rng.standard_normal((n_frames, 513))
                    + 1j * rng.standard_normal((n_frames, 513)))
            assert np.array_equal(istft(bins).samples,
                                  reference_istft(bins)), n_frames

    def test_istft_from_many_threads(self, pool, monkeypatch, rng):
        # four callers on two CPUs share the pool thread, switching every
        # microsecond: each call's workspaces and first pieces are its own
        monkeypatch.setattr(audio, "CHUNK_ROWS", 2)
        inputs = [reference_stft(AudioClip(samples=rng.standard_normal(3300)))
                  for _ in range(4)]
        wants = [reference_istft(bins) for bins in inputs]
        same = [0] * len(inputs)

        def call(i):
            for _ in range(50):
                same[i] += np.array_equal(istft(inputs[i]).samples, wants[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(i,))
                       for i in range(len(inputs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert same == [50] * len(inputs)

    def test_beat_spectrum(self, few_rows, rng):
        mag = rng.uniform(0.0, 1.0, size=(61, 40))
        mag[:, 5] = 0.0  # a silent bin correlates 0 at every lag
        got, want = beat_spectrum(mag), reference_beat_spectrum(mag)
        # each side sums its own bins, not all of them in bin order
        assert np.abs(got - want).max() <= 1e-14
        assert estimate_period(got, (2, 20)) == estimate_period(want, (2, 20))

    def test_beat_spectrum_without_the_pool(self, few_rows, monkeypatch):
        # a side runs the same chunks whichever thread runs it
        bins = stft(song(5.0))
        pooled = beat_spectrum(bins)
        monkeypatch.setattr(audio, "_POOL", None)
        assert np.array_equal(beat_spectrum(bins), pooled)

    def test_features(self, few_rows, random_spectrogram):
        # 49 frames; the products' last bits follow the chunk split
        want = reference_features(random_spectrogram)
        for part in extract_features(random_spectrogram, "lpcc_mfcc_plp"):
            ref = want[part.feature_tag]
            assert (np.abs(part.values - ref).max()
                    <= 1e-12 * np.abs(ref).max()), part.feature_tag

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
        # the STFT and chunks of bins or frames, the peak in beat_spectrum:
        # a whole-array REPET mask and (bins, lags) matrix made 2.53x,
        # holding every normalized row until the mean 1.92x, and istft's
        # full-length window sum, with the STFT held through it, 1.72x
        clip, bins = minute_song
        assert traced_peak(separate, clip) <= 1.55 * bins.nbytes

    def test_beat_spectrum_peak(self, minute_song):
        # two sides of chunk workspaces, mostly the FFT rows; every bin's
        # row held until the mean made 0.92x, and the pool side's 0.70x
        _, bins = minute_song
        assert traced_peak(beat_spectrum, bins) <= 0.55 * bins.nbytes

    def test_features_peak(self, minute_song):
        # one chunk of power rows and the (frames, 60) product; a
        # clip-sized power array and the LPC lags' inverse FFTs made 0.65x
        _, bins = minute_song
        assert (traced_peak(extract_features, bins, "lpcc_mfcc_plp")
                <= 0.3 * bins.nbytes)

    def test_clip_features_peak(self, minute_song):
        # separation, then the vocal estimate's STFT and features: 1.96x
        # with istft's full-length window sum and a clip-sized power array
        clip, bins = minute_song
        cfg = PipelineConfig(feature_tag="lpcc_mfcc_plp")
        assert traced_peak(clip_features, clip, cfg) <= 1.6 * bins.nbytes


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
