import struct
import wave

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from svdet.audio import (AudioClip, frame_grid, frame_matrix, frame_signal,
                         istft, load_wav, save_wav, stft, Spectrogram,
                         FrameGrid)
from svdet.errors import DataError


def grid_at(clip, hop_ms, frame_ms=40.0):
    """The clip's frame grid at another hop than the front end's."""
    return frame_grid(len(clip.samples), clip.sample_rate, frame_ms, hop_ms)


def write_pcm16(path, samples, sample_rate=16000, n_channels=1):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(n_channels)
        wf.setsampwidth(2)
        wf.setframerate(sample_rate)
        wf.writeframes(np.asarray(samples, dtype="<i2").tobytes())


class TestLoadWav:
    def test_mono_scaling(self, tmp_path):
        path = tmp_path / "mono.wav"
        write_pcm16(path, [16384])
        clip = load_wav(path)
        assert clip.samples[0] == pytest.approx(0.5)
        assert clip.sample_rate == 16000

    def test_stereo_downmix(self, tmp_path):
        path = tmp_path / "stereo.wav"
        left = int(round(0.2 * 32768))
        right = int(round(0.6 * 32768))
        write_pcm16(path, [left, right], n_channels=2)
        clip = load_wav(path)
        assert clip.samples[0] == pytest.approx(0.4, abs=1e-4)

    def test_unsupported_bit_depth(self, tmp_path):
        path = tmp_path / "8bit.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(16000)
            wf.writeframes(b"\x80" * 100)
        with pytest.raises(DataError, match="unsupported encoding"):
            load_wav(path)

    def test_mulaw_rejected(self, tmp_path):
        # hand-built RIFF with format code 7 (mu-law)
        path = tmp_path / "ulaw.wav"
        data = b"\x00" * 32
        fmt = struct.pack("<HHIIHH", 7, 1, 8000, 8000, 1, 8)
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(data)) + data)
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(DataError, match="unsupported encoding"):
            load_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises((FileNotFoundError, DataError)):
            load_wav(tmp_path / "nope.wav")

    def test_resample_to_target(self, tmp_path):
        path = tmp_path / "8k.wav"
        write_pcm16(path, np.zeros(8000, dtype=np.int16), sample_rate=8000)
        clip = load_wav(path, target_rate=16000)
        assert clip.sample_rate == 16000
        assert len(clip.samples) == 16000

    def test_resample_suppresses_aliasing(self, tmp_path):
        # a 12 kHz tone is above the 8 kHz Nyquist frequency of 16 kHz
        # audio; without a low-pass it would fold back to 4 kHz
        t = np.arange(44100) / 44100.0
        tone = np.round(0.5 * np.sin(2 * np.pi * 12000.0 * t) * 32767)
        path = tmp_path / "tone.wav"
        write_pcm16(path, tone.astype(np.int16), sample_rate=44100)
        clip = load_wav(path, target_rate=16000)
        assert clip.sample_rate == 16000
        assert len(clip.samples) == 16000
        rms_in = np.sqrt(np.mean((tone / 32768.0) ** 2))
        rms_out = np.sqrt(np.mean(clip.samples ** 2))
        assert 20 * np.log10(rms_out / rms_in) <= -40.0

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_pcm16(path, np.zeros(100, dtype=np.int16))
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(DataError, match="unsupported encoding"):
            load_wav(path)

    @pytest.mark.parametrize("n_channels, cut", [(1, 1), (2, 2)])
    def test_data_ends_inside_a_frame(self, tmp_path, n_channels, cut):
        path = tmp_path / "cut.wav"
        write_pcm16(path, np.zeros(200, dtype=np.int16), n_channels=n_channels)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(DataError, match="unsupported encoding: truncated"):
            load_wav(path)

    def test_save_load_roundtrip(self, tmp_path, rng):
        clip = AudioClip(samples=rng.uniform(-0.9, 0.9, 4000),
                         sample_rate=16000)
        path = tmp_path / "rt.wav"
        save_wav(path, clip)
        back = load_wav(path)
        assert np.abs(back.samples - clip.samples).max() < 1.0 / 32768


class TestFrameSignal:
    def test_40ms_20ms_counts(self):
        clip = AudioClip(samples=np.zeros(16000), sample_rate=16000)
        grid = frame_signal(clip)
        assert grid.n_frames == 49
        assert grid.frame_len == 640
        assert grid.hop == 320

    def test_exact_fit(self):
        clip = AudioClip(samples=np.zeros(640), sample_rate=16000)
        assert frame_signal(clip).n_frames == 1

    def test_too_short(self):
        clip = AudioClip(samples=np.zeros(639), sample_rate=16000)
        with pytest.raises(DataError):
            frame_signal(clip)

    @pytest.mark.parametrize("hop_ms", [0.0, 0.01, -20.0, 80.0])
    def test_bad_hop(self, random_clip, hop_ms):
        with pytest.raises(DataError, match="hop"):
            grid_at(random_clip, hop_ms)

    def test_deterministic(self, random_clip):
        g1 = frame_signal(random_clip)
        g2 = frame_signal(random_clip)
        assert g1 == g2
        assert np.array_equal(frame_matrix(random_clip, g1),
                              frame_matrix(random_clip, g2))

    @given(n=st.integers(min_value=640, max_value=50000))
    @settings(max_examples=50, deadline=None)
    def test_frame_count_formula(self, n):
        clip = AudioClip(samples=np.zeros(n), sample_rate=16000)
        grid = frame_signal(clip)
        assert grid.n_frames == (n - 640) // 320 + 1


class TestFrameMatrix:
    @pytest.mark.parametrize("frame_ms,hop_ms,n", [(40.0, 20.0, 16000),
                                                   (40.0, 10.0, 16317),
                                                   (40.0, 40.0, 640)])
    def test_matches_index_gather(self, rng, frame_ms, hop_ms, n):
        clip = AudioClip(samples=rng.standard_normal(n), sample_rate=16000)
        grid = grid_at(clip, hop_ms, frame_ms)
        idx = (np.arange(grid.n_frames)[:, None] * grid.hop
               + np.arange(grid.frame_len))
        frames = frame_matrix(clip, grid)
        assert frames.shape == (grid.n_frames, grid.frame_len)
        assert np.array_equal(frames, clip.samples[idx])
        assert np.shares_memory(frames, clip.samples)


class TestStft:
    def test_zero_clip(self):
        clip = AudioClip(samples=np.zeros(2000), sample_rate=16000)
        grid = frame_signal(clip)
        assert np.all(stft(clip, grid).bins == 0)

    def test_sine_peaks_at_bin(self):
        # bin-exact frequency for a 1024-point FFT at 16 kHz
        k = 64
        freq = k * 16000 / 1024
        t = np.arange(16000) / 16000
        clip = AudioClip(samples=0.5 * np.sin(2 * np.pi * freq * t),
                         sample_rate=16000)
        grid = frame_signal(clip)
        mags = stft(clip, grid).magnitude()
        assert np.all(mags.argmax(axis=1) == k)

    def test_nfft_too_small(self, random_clip):
        grid = frame_signal(random_clip)
        with pytest.raises(DataError):
            stft(random_clip, grid, n_fft=320)

    def test_nfft_not_power_of_two(self, random_clip):
        grid = frame_signal(random_clip)
        with pytest.raises(DataError):
            stft(random_clip, grid, n_fft=1000)

    def test_linearity(self, rng):
        x = rng.standard_normal(3200)
        y = rng.standard_normal(3200)
        a, b = 0.7, -1.3
        def spec(v):
            clip = AudioClip(samples=v, sample_rate=16000)
            return stft(clip, frame_signal(clip)).bins
        lhs = spec(a * x + b * y)
        rhs = a * spec(x) + b * spec(y)
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() / scale < 1e-9

    def test_parseval(self, random_clip):
        grid = frame_signal(random_clip)
        spec = stft(random_clip, grid)
        frames = frame_matrix(random_clip, grid)
        import scipy.signal
        win = scipy.signal.get_window("hamming", grid.frame_len, fftbins=True)
        windowed = frames * win
        time_energy = np.sum(windowed ** 2, axis=1)
        b = spec.bins
        spec_energy = (np.abs(b[:, 0]) ** 2 + np.abs(b[:, -1]) ** 2
                       + 2 * np.sum(np.abs(b[:, 1:-1]) ** 2, axis=1)) / spec.n_fft
        assert np.abs(time_energy - spec_energy).max() / time_energy.max() < 1e-6


class TestIstft:
    def test_roundtrip_many_random_clips(self, rng):
        for _ in range(20):
            n = int(rng.integers(2000, 20000))
            clip = AudioClip(samples=rng.standard_normal(n), sample_rate=16000)
            grid = frame_signal(clip)
            rec = istft(stft(clip, grid))
            covered = (grid.n_frames - 1) * grid.hop + grid.frame_len
            err = np.abs(rec.samples[:covered] - clip.samples[:covered]).max()
            assert err < 1e-6

    def test_zero_spectrogram(self):
        clip = AudioClip(samples=np.zeros(3200), sample_rate=16000)
        grid = frame_signal(clip)
        rec = istft(stft(clip, grid))
        assert np.all(rec.samples == 0)

    def test_matches_looped_overlap_add(self, random_clip):
        grid = grid_at(random_clip, 10.0)
        spec = stft(random_clip, grid)
        win = scipy.signal.get_window("hamming", grid.frame_len, fftbins=True)
        frames = np.fft.irfft(spec.bins, n=spec.n_fft, axis=1)[:, : grid.frame_len]
        frames *= win
        n_out = (grid.n_frames - 1) * grid.hop + grid.frame_len
        num = np.zeros(n_out)
        den = np.zeros(n_out)
        for i in range(grid.n_frames):
            start = i * grid.hop
            num[start : start + grid.frame_len] += frames[i]
            den[start : start + grid.frame_len] += win ** 2
        expected = np.where(den > 1e-12, num / np.maximum(den, 1e-12), 0.0)
        rec = istft(spec)
        assert rec.samples.shape == expected.shape
        assert np.abs(rec.samples - expected).max() <= 1e-12

    def test_hop_not_dividing_frame_violates_cola(self, random_clip):
        grid = grid_at(random_clip, 15.0)  # 640 / 240 samples
        with pytest.raises(DataError, match="overlap"):
            istft(stft(random_clip, grid))

    def test_cola_violation(self, random_clip):
        grid = grid_at(random_clip, 40.0)  # hop == frame_len
        spec = stft(random_clip, grid)
        with pytest.raises(DataError, match="overlap"):
            istft(spec)
