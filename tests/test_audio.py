import json
import os
import signal
import struct
import threading
import time
import wave

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from svdet import audio
from svdet.audio import (FRAME_LEN, HOP, N_FFT, WINDOW, AudioClip, chunk_map,
                         frame_matrix, frame_signal, frame_times, istft,
                         load_wav, row_chunks, save_wav, stft)
from svdet.errors import DataError
from svdet.separation import separate
from svdet.synth import repeating_loop

from child import run_child


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
        assert len(load_wav(path).samples) == 16000

    def test_nonpositive_rate(self, tmp_path):
        # hand-built RIFF whose header gives a frame rate of 0
        path = tmp_path / "rate0.wav"
        data = b"\x00" * 32
        fmt = struct.pack("<HHIIHH", 1, 1, 0, 0, 2, 16)
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(data)) + data)
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(DataError, match="sample rate 0"):
            load_wav(path)

    def test_resample_suppresses_aliasing(self, tmp_path):
        # a 12 kHz tone is above the 8 kHz Nyquist frequency of 16 kHz
        # audio; without a low-pass it would fold back to 4 kHz
        t = np.arange(44100) / 44100.0
        tone = np.round(0.5 * np.sin(2 * np.pi * 12000.0 * t) * 32767)
        path = tmp_path / "tone.wav"
        write_pcm16(path, tone.astype(np.int16), sample_rate=44100)
        clip = load_wav(path)
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

    @pytest.mark.parametrize("n_frames", [1, 641, 12347])
    @pytest.mark.parametrize("n_channels", [1, 2])
    @pytest.mark.parametrize("rate", [8000, 16000, 44100, 48000])
    def test_samples_equal_float_channel_mean(self, tmp_path, rate,
                                              n_channels, n_frames):
        rng = np.random.default_rng(rate + n_frames)
        pcm = rng.integers(-32768, 32768, (n_frames, n_channels))
        pcm.flat[::97] = -32768
        path = tmp_path / "x.wav"
        write_pcm16(path, pcm.ravel(), sample_rate=rate, n_channels=n_channels)
        # reference: scale each channel in float64, then average them
        want = (pcm / 32768.0).mean(axis=1)
        if rate != 16000:
            g = np.gcd(rate, 16000)
            want = scipy.signal.resample_poly(want, 16000 // g, rate // g)
        assert np.array_equal(load_wav(path).samples, want)

    def test_save_load_roundtrip(self, tmp_path, rng):
        clip = AudioClip(samples=rng.uniform(-0.9, 0.9, 4000))
        path = tmp_path / "rt.wav"
        save_wav(path, clip)
        back = load_wav(path)
        assert np.abs(back.samples - clip.samples).max() < 1.0 / 32768


def test_fixed_layout():
    # what stft and istft rely on without checking it at run time
    assert (FRAME_LEN, HOP) == (640, 320)
    assert np.array_equal(WINDOW, scipy.signal.get_window("hamming", FRAME_LEN,
                                                          fftbins=True))
    assert scipy.signal.check_COLA(WINDOW, FRAME_LEN, FRAME_LEN - HOP, tol=1e-6)
    assert FRAME_LEN % HOP == 0
    assert N_FFT >= FRAME_LEN and N_FFT & (N_FFT - 1) == 0


def test_features_run_loads_no_scipy_signal(tmp_path):
    # import scipy.signal loads scipy.linalg, sparse, optimize, stats and
    # more: about 50 MB of RSS and 1.1 s of start-up, and scipy.fft with
    # scipy.special about 27 MB; only load_wav's resampling of non-16 kHz
    # input needs scipy, and the window and the DCT are built without it
    from svdet.features import NormStats
    from svdet.model import init_params, save_checkpoint
    from svdet.pipeline import PipelineConfig

    rng = np.random.default_rng(6)
    wav = tmp_path / "song.wav"
    save_wav(wav, AudioClip(samples=0.5 * repeating_loop(rng, 4.0)))
    cfg = PipelineConfig(feature_tag="lpcc_mfcc_plp", n_filters=2,
                         hidden_size=2, dense_sizes=(2,))
    lrcn_cfg = cfg.lrcn_config(input_dim=39)
    save_checkpoint(tmp_path / "model.npz", init_params(lrcn_cfg, seed=0),
                    lrcn_cfg, NormStats(col_min=np.zeros(39),
                                        col_max=np.ones(39)),
                    cfg.front_end())
    tag = ["--set", "feature_tag=lpcc_mfcc_plp"]
    runs = [tag + ["features", str(wav), "--out", str(tmp_path / "f.csv")],
            tag + ["predict", str(wav), "--checkpoint",
                   str(tmp_path / "model.npz"), "--out",
                   str(tmp_path / "p.csv")]]
    code = ("import json, sys; import svdet.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    rc = svdet.cli.main(argv)\n"
            "    print(json.dumps([rc, [m for m in sys.modules\n"
            "                           if m.split('.')[0] == 'scipy']]))")
    proc = run_child("-c", code, json.dumps(runs))
    assert proc.returncode == 0, proc.stderr
    assert [json.loads(line) for line in proc.stdout.splitlines()] == [[0, []],
                                                                       [0, []]]


class TestFrameSignal:
    def test_40ms_20ms_counts(self):
        assert frame_signal(AudioClip(samples=np.zeros(16000))) == 49

    def test_exact_fit(self):
        assert frame_signal(AudioClip(samples=np.zeros(640))) == 1

    def test_too_short(self):
        with pytest.raises(DataError):
            frame_signal(AudioClip(samples=np.zeros(639)))

    def test_deterministic(self, random_clip):
        assert frame_signal(random_clip) == frame_signal(random_clip)
        assert np.array_equal(frame_matrix(random_clip),
                              frame_matrix(random_clip))

    @given(n=st.integers(min_value=640, max_value=50000))
    @settings(max_examples=50, deadline=None)
    def test_frame_count_formula(self, n):
        assert frame_signal(AudioClip(samples=np.zeros(n))) == (n - 640) // 320 + 1

    def test_frame_times(self):
        assert np.allclose(frame_times(3), [0.02, 0.04, 0.06], rtol=0, atol=1e-15)
        assert len(frame_times(0)) == 0


class TestFrameMatrix:
    @pytest.mark.parametrize("n", [16000, 16317, 640])
    def test_matches_index_gather(self, rng, n):
        clip = AudioClip(samples=rng.standard_normal(n))
        n_frames = frame_signal(clip)
        idx = np.arange(n_frames)[:, None] * HOP + np.arange(FRAME_LEN)
        frames = frame_matrix(clip)
        assert frames.shape == (n_frames, FRAME_LEN)
        assert np.array_equal(frames, clip.samples[idx])
        assert np.shares_memory(frames, clip.samples)


class TestStft:
    def test_zero_clip(self):
        clip = AudioClip(samples=np.zeros(2000))
        bins = stft(clip)
        assert bins.shape == (frame_signal(clip), N_FFT // 2 + 1)
        assert np.all(bins == 0)

    def test_sine_peaks_at_bin(self):
        # bin-exact frequency for a 1024-point FFT at 16 kHz
        k = 64
        freq = k * 16000 / 1024
        t = np.arange(16000) / 16000
        mags = np.abs(stft(AudioClip(samples=0.5 * np.sin(2 * np.pi * freq * t))))
        assert np.all(mags.argmax(axis=1) == k)

    def test_linearity(self, rng):
        x = rng.standard_normal(3200)
        y = rng.standard_normal(3200)
        a, b = 0.7, -1.3
        def spec(v):
            return stft(AudioClip(samples=v))
        lhs = spec(a * x + b * y)
        rhs = a * spec(x) + b * spec(y)
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() / scale < 1e-9

    def test_parseval(self, random_clip):
        win = scipy.signal.get_window("hamming", FRAME_LEN, fftbins=True)
        windowed = frame_matrix(random_clip) * win
        time_energy = np.sum(windowed ** 2, axis=1)
        b = stft(random_clip)
        spec_energy = (np.abs(b[:, 0]) ** 2 + np.abs(b[:, -1]) ** 2
                       + 2 * np.sum(np.abs(b[:, 1:-1]) ** 2, axis=1)) / N_FFT
        assert np.abs(time_energy - spec_energy).max() / time_energy.max() < 1e-6


class TestIstft:
    def test_roundtrip_many_random_clips(self, rng):
        for _ in range(20):
            n = int(rng.integers(2000, 20000))
            clip = AudioClip(samples=rng.standard_normal(n))
            rec = istft(stft(clip))
            covered = (frame_signal(clip) - 1) * HOP + FRAME_LEN
            err = np.abs(rec.samples[:covered] - clip.samples[:covered]).max()
            assert err < 1e-6

    def test_zero_spectrogram(self):
        rec = istft(stft(AudioClip(samples=np.zeros(3200))))
        assert np.all(rec.samples == 0)

    def test_matches_looped_overlap_add(self, random_clip):
        bins = stft(random_clip)
        win = scipy.signal.get_window("hamming", FRAME_LEN, fftbins=True)
        frames = np.fft.irfft(bins, n=N_FFT, axis=1)[:, :FRAME_LEN]
        frames *= win
        n_out = (len(bins) - 1) * HOP + FRAME_LEN
        num = np.zeros(n_out)
        den = np.zeros(n_out)
        for i in range(len(bins)):
            start = i * HOP
            num[start : start + FRAME_LEN] += frames[i]
            den[start : start + FRAME_LEN] += win ** 2
        expected = np.where(den > 1e-12, num / np.maximum(den, 1e-12), 0.0)
        rec = istft(bins)
        assert rec.samples.shape == expected.shape
        assert np.abs(rec.samples - expected).max() <= 1e-12


@pytest.fixture(params=["pool", "serial"])
def sides(request, monkeypatch):
    """chunk_map with its pool thread, and without one."""
    if request.param == "serial":
        monkeypatch.setattr(audio, "_POOL", None)
    else:
        request.getfixturevalue("pool")
    return request.param


class TestChunkMap:
    # CHUNK_ROWS 5: 1, 2, 3, 4 and 7 chunks, the last of 7 two rows long;
    # the caller runs the first half of them, the middle one included
    @pytest.mark.parametrize("n_rows, n_first",
                             [(5, 1), (10, 1), (15, 2), (20, 2), (32, 4)])
    def test_results_in_chunk_order(self, sides, monkeypatch, n_rows,
                                    n_first):
        monkeypatch.setattr(audio, "CHUNK_ROWS", 5)
        ran = []

        def fn(rows, side):
            ran.append((rows, side, threading.current_thread()))
            return rows  # dropped: chunk_map returns nothing

        chunks = row_chunks(n_rows)
        assert chunk_map(fn, n_rows) is None
        # every chunk once, each side's in order, on its own thread
        assert sorted(rows.start for rows, _, _ in ran) == [
            rows.start for rows in chunks]
        for side, part in ((0, chunks[:n_first]), (1, chunks[n_first:])):
            assert [rows for rows, s, _ in ran if s == side] == part
        if sides == "serial":
            assert [rows for rows, _, _ in ran] == chunks
        caller = threading.current_thread()
        for rows, side, thread in ran:
            assert (thread is caller) == (side == 0 or sides == "serial")

    def test_no_rows(self, sides):
        ran = []
        assert chunk_map(lambda rows, side: ran.append(rows), 0) is None
        assert ran == []

    @pytest.mark.parametrize("failing", [0, 1])
    def test_error_raised_once_both_sides_stop(self, pool, monkeypatch,
                                               failing):
        # 4 chunks of one row: rows 0-1 on the caller, 2-3 on the pool
        monkeypatch.setattr(audio, "CHUNK_ROWS", 1)
        out = np.zeros(4)

        def fn(rows, side):
            if side == failing:
                raise ValueError(f"side {side} failed")
            time.sleep(0.1)
            out[rows] = 1.0

        with pytest.raises(ValueError, match=f"side {failing} failed"):
            chunk_map(fn, 4)
        written = out.copy()
        time.sleep(0.3)
        # the other side ran to its end before the error came back, and
        # nothing writes into the caller's array after that
        assert written.tolist() == ([0, 0, 1, 1] if failing == 0 else
                                    [1, 1, 0, 0])
        assert np.array_equal(out, written)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_separates(self, pool):
        # the child holds the parent's executor but not its thread, so a
        # child that submitted to it would wait for ever
        rng = np.random.default_rng(4)
        clip = AudioClip(samples=0.5 * repeating_loop(rng, 5.0)
                         + 0.05 * rng.standard_normal(80000))
        want = separate(clip).samples.tobytes()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(30)
                same = separate(clip).samples.tobytes() == want
                code = 0 if same and audio._POOL is None else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
