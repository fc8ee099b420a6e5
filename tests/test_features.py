import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dct

from svdet import audio, features, synth
from svdet.audio import AudioClip, save_wav, stft
from svdet.errors import DataError
from svdet.features import (DCT, FEATURE_SETS, FRONT, FRONT_COLUMNS,
                            FeatureMatrix, NormStats, apply_norm,
                            bark_filterbank, blockify, dct_matrix,
                            equal_loudness, extract_features, fit_norm_stats,
                            hz_to_bark, lag_cosines, levinson_durbin,
                            lpc_to_cepstrum, lpcc, mel_filterbank, mfcc, plp)
from svdet.pipeline import PipelineConfig, _training_blocks
from svdet.tracks import LabelTrack

from child import run_child


def make_power(samples):
    return np.abs(stft(AudioClip(samples=samples))) ** 2


def front(power, name):
    """The named extractor's input: its columns of FRONT, applied to a
    power spectrum whole."""
    return power @ FRONT[:, FRONT_COLUMNS[name]]


def sine_clip(freq, n=16000, sr=16000, amp=0.5):
    t = np.arange(n) / sr
    return amp * np.sin(2 * np.pi * freq * t)


# ---------------------------------------------------------------------------
# independent oracles, written against the definitions

def mfcc_oracle(power_row, sr, n_fft, n_mels=26, n_coeffs=13):
    """Direct-summation mel filterbank + log + DCT-II for one frame."""
    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def imel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    pts = imel(np.linspace(mel(0.0), mel(sr / 2.0), n_mels + 2))
    freqs = np.array([k * sr / n_fft for k in range(n_fft // 2 + 1)])
    energies = np.zeros(n_mels)
    for m in range(n_mels):
        for k, f in enumerate(freqs):
            if pts[m] <= f <= pts[m + 1]:
                w = (f - pts[m]) / (pts[m + 1] - pts[m])
            elif pts[m + 1] < f <= pts[m + 2]:
                w = (pts[m + 2] - f) / (pts[m + 2] - pts[m + 1])
            else:
                w = 0.0
            energies[m] += w * power_row[k]
    log_e = np.log(np.maximum(energies, 1e-10))
    # orthonormal DCT-II by direct summation
    cep = np.zeros(n_coeffs)
    for i in range(1, n_coeffs + 1):
        s = 0.0
        for j in range(n_mels):
            s += log_e[j] * np.cos(np.pi * i * (2 * j + 1) / (2 * n_mels))
        cep[i - 1] = s * np.sqrt(2.0 / n_mels)
    return cep


def lpc_normal_equations(r, order):
    """Dense Toeplitz solve for the LPC coefficients."""
    R = np.empty((order, order))
    for i in range(order):
        for j in range(order):
            R[i, j] = r[abs(i - j)]
    return np.linalg.solve(R, r[1 : order + 1])


def plp_oracle(power_row, sr, n_fft, order=12, n_coeffs=13):
    """Stage-by-stage PLP for one frame, by direct summation."""
    freqs = np.array([k * sr / n_fft for k in range(n_fft // 2 + 1)])
    z = 6.0 * np.arcsinh(freqs / 600.0)
    z_max = 6.0 * np.arcsinh((sr / 2.0) / 600.0)
    n_bands = int(np.ceil(z_max)) + 1
    centers = np.linspace(0.0, z_max, n_bands)
    bands = np.zeros(n_bands)
    for b, zc in enumerate(centers):
        for k in range(len(freqs)):
            d = z[k] - zc
            w = 10.0 ** min(0.0, min(d + 0.5, -2.5 * (d - 0.5)))
            bands[b] += w * power_row[k]
    bands = np.maximum(bands, 1e-10)
    fc = 600.0 * np.sinh(centers / 6.0)
    fsq = fc ** 2
    eql = (fsq / (fsq + 1.6e5)) ** 2 * ((fsq + 1.44e6) / (fsq + 9.61e6))
    bands = (bands * eql) ** (1.0 / 3.0)
    bands[0] = bands[1]
    bands[-1] = bands[-2]
    # inverse DFT of the even symmetric extension
    M = 2 * (n_bands - 1)
    r = np.zeros(order + 1)
    full = np.concatenate([bands, bands[-2:0:-1]])
    for lag in range(order + 1):
        r[lag] = np.mean(full * np.cos(2 * np.pi * lag * np.arange(M) / M))
    a = lpc_normal_equations(r, order)
    c = np.zeros(n_coeffs)
    for n in range(1, n_coeffs + 1):
        val = a[n - 1] if n <= order else 0.0
        for k in range(1, n):
            if n - k <= order:
                val += (k / n) * c[k - 1] * a[n - k - 1]
        c[n - 1] = val
    return c


def levinson_durbin_loop(r, order):
    """Reference: Levinson-Durbin for one frame, one step at a time."""
    if r[0] <= 0.0:
        return np.zeros(order), 0.0, False
    a = np.zeros(order)
    err = r[0]
    for i in range(1, order + 1):
        acc = r[i] - np.dot(a[: i - 1], r[i - 1 : 0 : -1])
        if err <= 0.0:
            return np.zeros(order), 0.0, False
        k = acc / err
        a_new = a.copy()
        a_new[i - 1] = k
        a_new[: i - 1] = a[: i - 1] - k * a[i - 2 :: -1][: i - 1]
        a = a_new
        err *= 1.0 - k * k
    return a, err, True


def lpc_cepstra_loop(r, order=12, n_coeffs=13):
    """Reference: per-frame Levinson-Durbin and cepstral recursion."""
    out = np.zeros((r.shape[0], n_coeffs))
    degenerate = []
    for t in range(r.shape[0]):
        a, _, ok = levinson_durbin_loop(r[t], order)
        if not ok:
            degenerate.append(t)
            continue
        for n in range(1, n_coeffs + 1):
            val = a[n - 1] if n <= order else 0.0
            for k in range(1, n):
                if n - k <= order:
                    val += (k / n) * out[t, k - 1] * a[n - k - 1]
            out[t, n - 1] = val
    return out, tuple(degenerate)


# ---------------------------------------------------------------------------

class TestMfcc:
    def test_flat_mel_energies_zero_cepstra(self):
        assert np.allclose(mfcc(np.full((4, 26), 40.0)).values, 0.0)

    def test_dct_matches_scipy(self, rng):
        # coefficients 1..13 of the orthonormal DCT-II of 26 log energies
        log_e = rng.uniform(-23.0, 10.0, size=(50, 26))
        want = dct(log_e, type=2, norm="ortho", axis=1)[:, 1:14]
        bound = 1e-14 * np.abs(log_e).sum(axis=1).max()
        assert np.abs(log_e @ DCT - want).max() <= bound

    def test_zero_signal_all_zero(self):
        feat = mfcc(front(make_power(np.zeros(3200)), "mfcc"))
        assert np.allclose(feat.values, 0.0)
        assert feat.dim == 13

    def test_against_direct_summation_oracle(self):
        power = make_power(sine_clip(1000.0, n=3200))
        feat = mfcc(front(power, "mfcc"))
        for t in (0, len(power) - 1):
            expected = mfcc_oracle(power[t], 16000, 1024)
            assert np.abs(feat.values[t] - expected).max() < 1e-6

    def test_finite_on_silence_and_noise(self, random_spectrogram):
        power = np.abs(random_spectrogram) ** 2
        assert np.all(np.isfinite(mfcc(front(power, "mfcc")).values))


class TestLevinsonLpcc:
    def test_order1_base_case(self):
        alpha = 0.42
        a, _, ok = levinson_durbin(np.array([1.0, alpha]), 1)
        assert ok
        assert a[0] == pytest.approx(alpha)
        assert lpc_to_cepstrum(a, 1)[0] == pytest.approx(alpha)

    def test_matches_dense_solve(self, rng):
        for _ in range(20):
            x = rng.standard_normal(640)
            r = np.correlate(x, x, mode="full")[639 : 639 + 13]
            a, _, ok = levinson_durbin(r, 12)
            assert ok
            dense = lpc_normal_equations(r, 12)
            assert np.abs(a - dense).max() < 1e-8

    @given(seed=st.integers(min_value=0, max_value=10_000),
           order=st.integers(min_value=1, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_levinson_equals_dense_property(self, seed, order):
        x = np.random.default_rng(seed).standard_normal(256)
        r = np.correlate(x, x, mode="full")[255 : 255 + order + 1]
        a, _, ok = levinson_durbin(r, order)
        assert ok
        assert np.abs(a - lpc_normal_equations(r, order)).max() < 1e-8

    def test_all_zero_frame_flagged(self):
        power = make_power(np.zeros(3200))
        feat = lpcc(front(power, "lpcc"))
        assert np.allclose(feat.values, 0.0)
        assert feat.degenerate_frames == tuple(range(len(power)))

    def test_lpcc_dim_default_13(self, random_spectrogram):
        power = np.abs(random_spectrogram) ** 2
        assert lpcc(front(power, "lpcc")).dim == 13


class TestBatchedLpc:
    """The batched LPC path against the per-frame reference loop."""

    @pytest.fixture
    def spec_with_degenerate_frames(self, random_spectrogram):
        bins = random_spectrogram.copy()
        bins[3] = 0.0   # all-zero frame: r[0] == 0
        bins[5] = 0.0
        bins[5, 0] = 1.0  # flat autocorrelation: err hits 0 after step 1
        return bins

    @pytest.mark.parametrize("extractor", [lpcc, plp])
    def test_matches_per_frame_loop(self, extractor, spec_with_degenerate_frames,
                                    monkeypatch):
        power = np.abs(spec_with_degenerate_frames) ** 2
        seen = []
        batched = features._lpc_cepstra

        def spy(r, tag):
            seen.append(r)
            return batched(r, tag)

        monkeypatch.setattr(features, "_lpc_cepstra", spy)
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            feat = extractor(front(power, extractor.__name__))
        expected, degenerate = lpc_cepstra_loop(seen[0])
        assert np.abs(feat.values - expected).max() <= 1e-12
        assert feat.degenerate_frames == degenerate
        assert all(type(t) is int for t in feat.degenerate_frames)
        if extractor is lpcc:
            assert feat.degenerate_frames == (3, 5)

    def test_spectrogram_autocorrelation_matches_full_ifft(self,
                                                          random_spectrogram):
        power = np.abs(random_spectrogram) ** 2
        full = np.concatenate([power, power[:, -2:0:-1]], axis=1)
        ref = np.fft.ifft(full, axis=1).real[:, :13]
        r = front(power, "lpcc")
        assert r.shape == ref.shape
        assert np.abs(r - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_levinson_rows_match_single_calls(self, rng):
        x = rng.standard_normal((6, 256))
        r = np.stack([np.correlate(f, f, mode="full")[255 : 255 + 13] for f in x])
        r[1] = 0.0
        r[4] = 1.0
        a, err, ok = levinson_durbin(r, 12)
        assert a.shape == (6, 12) and err.shape == ok.shape == (6,)
        for t in range(6):
            a_t, err_t, ok_t = levinson_durbin(r[t], 12)
            assert np.array_equal(a[t], a_t)
            assert err[t] == err_t and ok[t] == ok_t
            ref_a, ref_err, ref_ok = levinson_durbin_loop(r[t], 12)
            assert np.abs(a_t - ref_a).max() <= 1e-12
            assert abs(err_t - ref_err) <= 1e-12 * max(1.0, abs(ref_err))
            assert ok_t == ref_ok
        assert list(ok) == [True, False, True, True, False, True]

    def test_cepstrum_rows_match_single_calls(self, rng):
        a = rng.standard_normal((5, 12)) * 0.3
        c = lpc_to_cepstrum(a, 13)
        assert c.shape == (5, 13)
        for t in range(5):
            assert np.array_equal(c[t], lpc_to_cepstrum(a[t], 13))


def test_filterbanks_built_once_read_only():
    fb, centers_hz = bark_filterbank()
    mel_fb = mel_filterbank()
    for fixed, built in ((features.MEL_FB, mel_fb),
                         (features.BARK_FB, fb),
                         (features.BARK_LOUDNESS, equal_loudness(centers_hz)),
                         (DCT, dct_matrix()),
                         (FRONT, np.hstack([mel_fb.T, fb.T, lag_cosines()]))):
        assert fixed.tobytes() == built.tobytes()
        assert not fixed.flags.writeable
    # every column of FRONT feeds exactly one extractor
    assert FRONT.shape == (513, 60)
    taken = [np.arange(60)[cols] for cols in FRONT_COLUMNS.values()]
    assert sorted(np.concatenate(taken)) == list(range(60))


class TestPlp:
    def test_zero_signal_constant_rows(self):
        feat = plp(front(make_power(np.zeros(3200)), "plp"))
        assert np.allclose(feat.values, feat.values[0])

    def test_scale_invariance_of_shape(self, rng):
        # uniform gain only changes the c_0-equivalent term, not c_1..
        x = sine_clip(440.0, n=3200)
        f1 = plp(front(make_power(x), "plp")).values
        f2 = plp(front(make_power(0.25 * x), "plp")).values
        assert np.abs(f1 - f2).max() < 1e-9

    def test_against_staged_oracle(self):
        power = make_power(sine_clip(440.0, n=3200)
                           + 0.3 * sine_clip(880.0, n=3200))
        feat = plp(front(power, "plp"))
        for t in (0, len(power) - 1):
            expected = plp_oracle(power[t], 16000, 1024)
            assert np.abs(feat.values[t] - expected).max() < 1e-6


def test_every_tag_is_its_columns_of_the_full_set(random_spectrogram):
    # extract_features forms every column of FRONT whatever the tag, so a
    # tag's features are, bit for bit, its columns of lpcc_mfcc_plp
    bins = random_spectrogram.copy()
    bins[3] = 0.0   # degenerate for lpcc: r[0] == 0
    bins[5] = 0.0
    bins[5, 0] = 1.0
    full = {p.feature_tag: p for p in extract_features(bins, "lpcc_mfcc_plp")}
    assert full["lpcc"].degenerate_frames == (3, 5)
    for tag, names in FEATURE_SETS.items():
        parts = extract_features(bins, tag)
        assert tuple(p.feature_tag for p in parts) == names
        for part in parts:
            assert part.values.tobytes() == full[part.feature_tag].values.tobytes()
            assert (part.degenerate_frames
                    == full[part.feature_tag].degenerate_frames)


def test_bytes_do_not_follow_blas_threads(tmp_path):
    # whole-clip filterbank products rounded differently on one and two
    # OpenBLAS threads; 993 frames end in a chunk of one row
    n_frames = 993
    assert n_frames % audio.CHUNK_ROWS == 1
    clip, _ = synth.synthetic_clip(11, duration=20.0)
    wav = tmp_path / "clip.wav"
    save_wav(wav, AudioClip(samples=clip.samples[: audio.FRAME_LEN
                                                 + (n_frames - 1) * audio.HOP]))
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / threads / "features.csv"
        out.parent.mkdir()
        proc = run_child("-m", "svdet.cli", "--set", "feature_tag=lpcc_mfcc_plp",
                         "features", str(wav), "--out", str(out),
                         env={var: threads for var in ("OPENBLAS_NUM_THREADS",
                                                       "OMP_NUM_THREADS",
                                                       "MKL_NUM_THREADS")})
        assert proc.returncode == 0, proc.stderr
        csvs.append(out.read_bytes())
    assert len(csvs[0].splitlines()) == 1 + n_frames
    assert csvs[0] == csvs[1]


def test_empty_spectrogram():
    with pytest.raises(DataError, match="empty spectrogram"):
        extract_features(np.zeros((0, 513), dtype=complex), "lpcc_mfcc_plp")


def fit_apply(feat):
    return apply_norm(feat, fit_norm_stats([feat]))


class TestConcatNormalize:
    """Min-max normalization: fit_norm_stats, then apply_norm."""

    def test_table_dims(self, random_spectrogram):
        for tag, dim in (("mfcc_plp", 26), ("lpcc_mfcc_plp", 39)):
            parts = extract_features(random_spectrogram, tag)
            feat = FeatureMatrix(
                values=np.concatenate([p.values for p in parts], axis=1),
                feature_tag=tag)
            assert fit_apply(feat).dim == dim

    def test_constant_column_maps_to_zero(self):
        fm = FeatureMatrix(values=np.array([[5.0], [5.0], [5.0]]),
                           feature_tag="mfcc")
        assert np.all(fit_apply(fm).values == 0.0)

    def test_affine_map(self):
        fm = FeatureMatrix(values=np.array([[2.0], [4.0], [6.0]]),
                           feature_tag="mfcc")
        assert np.allclose(fit_apply(fm).values.ravel(), [0.0, 0.5, 1.0])

    def test_train_fit_in_unit_interval_test_not_clipped(self, rng):
        train = FeatureMatrix(values=rng.standard_normal((10, 4)),
                              feature_tag="mfcc")
        stats = fit_norm_stats([train])
        scaled = apply_norm(train, stats)
        assert scaled.values.min() >= 0.0 and scaled.values.max() <= 1.0
        test = FeatureMatrix(values=train.values + 5.0, feature_tag="mfcc")
        assert apply_norm(test, stats).values.max() > 1.0  # not clipped

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_train_scaling_always_unit_interval(self, seed):
        r = np.random.default_rng(seed)
        fm = FeatureMatrix(values=r.normal(scale=10.0, size=(8, 3)),
                           feature_tag="mfcc")
        scaled = fit_apply(fm)
        assert scaled.values.min() >= 0.0
        assert scaled.values.max() <= 1.0 + 1e-12


def training_blocks(values_by_stem, labels_by_stem, block_len, stride):
    """_training_blocks on raw values under identity normalization."""
    stems = list(values_by_stem)
    dim = next(iter(values_by_stem.values())).shape[1]
    feats = {s: FeatureMatrix(values=v, feature_tag="mfcc")
             for s, v in values_by_stem.items()}
    labels = {s: LabelTrack(labels=l) for s, l in labels_by_stem.items()}
    stats = NormStats(col_min=np.zeros(dim), col_max=np.ones(dim))
    cfg = PipelineConfig(block_len=block_len, train_stride=stride)
    return _training_blocks(stems, feats, labels, stats, cfg)


class TestBlockify:
    def _values(self, n_frames, dim=2):
        return np.arange(n_frames * dim, dtype=float).reshape(n_frames, dim)

    def _one_stem(self, values, stride, labels=None):
        if labels is None:
            labels = np.zeros(len(values), dtype=np.int8)
        return training_blocks({"a": values}, {"a": labels}, 29, stride)

    def test_stride_29_counts(self):
        blocks, _, (centers,) = self._one_stem(self._values(100), stride=29)
        assert list(centers) == [14, 43, 72]
        assert list(blocks[centers][:, 0, 0]) == [0.0, 58.0, 116.0]

    def test_single_block_center(self):
        values = self._values(29)
        blocks, _, (centers,) = self._one_stem(values, stride=1)
        assert list(centers) == [14]
        assert np.array_equal(blocks[centers[0]], values)

    def test_inference_one_block_per_frame(self):
        values = self._values(29)
        blocks = blockify(values, block_len=29)
        assert len(blocks) == 29
        # frame i is the center of block i
        assert np.array_equal(blocks[:, 14], values)

    def test_is_a_window_view(self):
        values = self._values(40)
        blocks = blockify(values, block_len=29)
        assert np.shares_memory(blocks[0], blocks[1])
        assert blocks.strides[0] == blocks.strides[1]
        train_blocks, _, _ = self._one_stem(values, stride=3)
        assert train_blocks.strides[0] == train_blocks.strides[1]

    def test_center_label(self):
        labels = np.zeros(40, dtype=np.int8)
        labels[20] = 1
        values = self._values(40)
        blocks, y, (centers,) = self._one_stem(values, stride=3, labels=labels)
        assert list(centers) == list(np.arange(0, 40 - 29 + 1, 3) + 14)
        assert np.array_equal(blocks[centers][:, 14], values[centers])
        # one label per frame, so block i is labelled y[i]
        assert np.array_equal(y, labels)

    @given(lens=st.lists(st.integers(1, 40), min_size=1, max_size=5),
           block_len=st.integers(1, 9), stride=st.integers(1, 8),
           seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_blocks_stay_inside_one_stem(self, lens, block_len, stride, seed):
        rng = np.random.default_rng(seed)
        lens = [n + block_len - 1 for n in lens]  # at least one block each
        # column 0 names the stem, column 1 numbers the frame within it
        values = {f"s{k}": np.column_stack([np.full(n, k), np.arange(n)])
                  .astype(float) for k, n in enumerate(lens)}
        labels = {s: rng.integers(0, 2, size=len(v), dtype=np.int8)
                  for s, v in values.items()}
        blocks, y, centers = training_blocks(values, labels, block_len, stride)
        picked = blocks[np.concatenate(centers)]
        stem_of, frame_of = picked[:, block_len // 2].T.astype(int)
        # centers[k] are stem k's blocks, and no block takes a frame from
        # another stem, or an edge replica
        assert np.array_equal(stem_of, np.repeat(np.arange(len(lens)),
                                                 [len(c) for c in centers]))
        assert np.all(picked[:, :, 0] == stem_of[:, None])
        assert np.all(np.diff(picked[:, :, 1], axis=1) == 1)
        for k, n in enumerate(lens):
            local = frame_of[stem_of == k]
            # the first center is block_len // 2 into the stem, the rest
            # train_stride apart, and every block fits inside the stem
            assert local[0] == block_len // 2
            assert np.all(np.diff(local) == stride)
            assert len(local) == (n - block_len) // stride + 1
            assert np.array_equal(y[centers[k]], labels[f"s{k}"][local])

    def test_edges_replicated(self):
        values = self._values(10)
        blocks = blockify(values, block_len=29)
        assert np.array_equal(blocks[0, :15], np.repeat(values[:1], 15, axis=0))
        assert np.array_equal(blocks[-1, 14:], np.repeat(values[-1:], 15, axis=0))
        assert np.array_equal(blocks[4, 10:20], values)

    def test_fewer_frames_than_one_block(self):
        assert len(blockify(self._values(28), block_len=29)) == 28
        values = {"long": self._values(40), "short_clip": self._values(28)}
        labels = {s: np.zeros(len(v), dtype=np.int8) for s, v in values.items()}
        with pytest.raises(DataError, match="^short_clip: 28 frames, fewer "
                                            "than one block of 29$"):
            training_blocks(values, labels, 29, 5)

    def test_empty_matrix(self):
        with pytest.raises(DataError):
            blockify(np.zeros((0, 2)), block_len=29)


class TestShiftCovariance:
    def test_one_hop_shift_moves_rows_by_one(self, rng):
        x = 0.2 * rng.standard_normal(4800)
        shifted = np.concatenate([np.zeros(320), x])[:4800]
        f1 = mfcc(front(make_power(x), "mfcc")).values
        f2 = mfcc(front(make_power(shifted), "mfcc")).values
        assert np.abs(f2[1:] - f1[:-1][: len(f2) - 1]).max() < 1e-9
