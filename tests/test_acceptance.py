"""End-to-end acceptance checks for the whole package.

Each test prints a single `ACCEPTANCE nn ...: PASS|FAIL` line directly to
the terminal (bypassing capture), so a plain pytest run shows one status
line per criterion.
"""

import itertools
import json

import numpy as np
import pytest

from svdet.audio import FRAME_LEN, HOP, AudioClip, frame_signal, istft, stft
from svdet.evaluation import metrics
from svdet.model import (LrcnConfig, bce_loss, forward_blocks, init_params,
                         lrcn_backward, lrcn_cell_step, param_views,
                         params_to_vector, zero_params)
from svdet.pipeline import PipelineConfig, load_corpus, run_kfold, run_corpus, \
    report_payload
from svdet.separation import repet_mask
from svdet.smoothing import Gmm1d, HmmGmmModel, fit_gmm_1d, median_filter, \
    viterbi_decode
from svdet.synth import repeating_loop, write_corpus
from svdet.tracks import PredictionTrack
from test_features import lpc_normal_equations, mfcc_oracle, plp_oracle

from svdet.features import extract_features, levinson_durbin


@pytest.fixture
def announce(capsys):
    def _announce(num, name, ok):
        with capsys.disabled():
            print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return _announce


def make_track(posteriors):
    return PredictionTrack(posteriors=np.asarray(posteriors, dtype=np.float64))


def counts_for(precision, recall, scale=10_000_000):
    """Integer confusion counts realizing the given precision/recall."""
    tp = scale
    fp = round(tp / precision) - tp
    fn = round(tp / recall) - tp
    return tp, 0, fp, fn


def test_01_metric_arithmetic(announce):
    rep_a = metrics(counts_for(0.865, 0.920))
    rep_b = metrics(counts_for(0.926, 0.934))
    ok = (abs(rep_a.f1 - 0.892) <= 1e-3) and (abs(rep_b.f1 - 0.930) <= 1e-3)
    announce(1, "metric arithmetic", ok)
    assert ok, (rep_a.f1, rep_b.f1)


def test_02_gradient_check(announce):
    cfg = LrcnConfig(input_dim=6, block_len=5, n_filters=8, hidden_size=8,
                     dense_sizes=(4,))
    rng = np.random.default_rng(0)
    params = init_params(cfg, seed=0)
    x = rng.standard_normal((2, 5, 6))
    y = np.array([1.0, 0.0])
    _, grads = lrcn_backward(x, y, params, cfg)
    theta = params_to_vector(params, cfg)
    g = params_to_vector(grads, cfg)
    delta = 1e-5
    idx = rng.choice(len(theta), size=120, replace=False)
    worst = 0.0
    for i in idx:
        tp = theta.copy(); tp[i] += delta
        tm = theta.copy(); tm[i] -= delta
        lp = bce_loss(forward_blocks(x, param_views(tp, cfg), cfg), y)
        lm = bce_loss(forward_blocks(x, param_views(tm, cfg), cfg), y)
        fd = (lp - lm) / (2 * delta)
        worst = max(worst, abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-8))
    ok = worst < 1e-4
    announce(2, "gradient vs finite differences", ok)
    assert ok, f"worst relative error {worst:.3e}"


def test_03_cell_closed_form(announce):
    cfg = LrcnConfig(input_dim=6, block_len=5, n_filters=8, hidden_size=8,
                     dense_sizes=(4,))
    p = zero_params(cfg)
    rng = np.random.default_rng(1)
    c0 = rng.standard_normal(8)
    h, c = np.zeros(8), c0.copy()
    ok = True
    for t in range(1, 8):
        h, c, gates = lrcn_cell_step(rng.standard_normal(6), h, c, p, cfg)
        for name in ("i", "f", "o"):
            ok &= bool(np.abs(gates[name] - 0.5).max() <= 1e-12)
        ok &= bool(np.abs(c - 0.5 ** t * c0).max() <= 1e-12)
        ok &= bool(np.abs(h - 0.5 * np.tanh(c)).max() <= 1e-12)
    announce(3, "zero-parameter cell closed form", ok)
    assert ok


def test_04_viterbi_exhaustive(announce):
    rng = np.random.default_rng(7)
    T = 8
    all_paths = np.array(list(itertools.product((0, 1), repeat=T)))
    all_obs = np.where(np.array(list(itertools.product((0, 1), repeat=T))),
                       0.75, 0.25)
    ok = True
    for _ in range(50):
        def rand_gmm():
            w = rng.uniform(0.2, 1.0, 2)
            return Gmm1d(weights=w / w.sum(), means=rng.uniform(0.0, 1.0, 2),
                         variances=rng.uniform(0.01, 0.3, 2))
        trans = rng.uniform(0.1, 0.9, (2, 2))
        trans /= trans.sum(axis=1, keepdims=True)
        init = rng.uniform(0.1, 0.9, 2)
        model = HmmGmmModel(initial=init / init.sum(), transition=trans,
                            observation=(rand_gmm(), rand_gmm()))
        log_init = np.log(model.initial)
        log_a = np.log(model.transition)
        for obs in all_obs:
            ll = np.stack([model.observation[s].log_pdf(obs) for s in (0, 1)],
                          axis=1)  # (T, 2)
            lp = log_init[all_paths[:, 0]] + ll[0, all_paths[:, 0]]
            for t in range(1, T):
                lp += log_a[all_paths[:, t - 1], all_paths[:, t]]
                lp += ll[t, all_paths[:, t]]
            decoded = viterbi_decode(model, make_track(obs)).labels
            lp_dec = (log_init[decoded[0]] + ll[0, decoded[0]]
                      + sum(log_a[decoded[t - 1], decoded[t]] + ll[t, decoded[t]]
                            for t in range(1, T)))
            if abs(lp_dec - lp.max()) > 1e-9:
                ok = False
    announce(4, "Viterbi equals exhaustive argmax", ok)
    assert ok


def test_05_em_monotone(announce):
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(10):
        centers = rng.uniform(0.0, 1.0, 4)
        x = np.concatenate([rng.normal(c, rng.uniform(0.02, 0.2), 1250)
                            for c in centers])
        gmm, ll, _ = fit_gmm_1d(x, n_components=45)
        if np.any(np.diff(ll) < -1e-9):
            ok = False
        if abs(gmm.weights.sum() - 1.0) > 1e-12:
            ok = False
    announce(5, "EM log-likelihood monotone", ok)
    assert ok


def test_06_stft_roundtrip(announce):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2000, 30000))
        clip = AudioClip(samples=rng.standard_normal(n))
        rec = istft(stft(clip))
        covered = (frame_signal(clip) - 1) * HOP + FRAME_LEN
        worst = max(worst,
                    float(np.abs(rec.samples[:covered]
                                 - clip.samples[:covered]).max()))
    ok = worst < 1e-6
    announce(6, "STFT/ISTFT round trip", ok)
    assert ok, f"max abs error {worst:.3e}"


def test_07_repet_routing(announce):
    rng = np.random.default_rng(0)
    sr = 16000
    loop = 0.3 * repeating_loop(rng, 12.0)  # exactly 2 s periodic
    burst = np.zeros_like(loop)
    rms = float(np.sqrt(np.mean(loop ** 2)))
    amp = np.sqrt(10.0) * rms * np.sqrt(2.0)  # +10 dB over the loop
    for t0 in (1.7, 4.3, 7.9, 10.1):
        i = int(t0 * sr)
        n = int(0.03 * sr)
        burst[i:i + n] += amp * np.sin(2 * np.pi * 3333.0 * np.arange(n) / sr)
    mag = np.abs(stft(AudioClip(samples=loop + burst)))
    period = int(round(2.0 * sr / HOP))  # known loop period in frames
    acc = repet_mask(mag, period)
    voc = 1.0 - acc
    comp_ok = bool(np.all(acc + voc == 1.0))
    bspec = np.abs(stft(AudioClip(samples=burst)))
    trans = bspec > 0.1 * bspec.max()
    routed = float(np.sum((voc[trans] * mag[trans]) ** 2)
                   / np.sum(bspec[trans] ** 2))
    ok = comp_ok and routed >= 0.8
    announce(7, "mask complementarity and transient routing", ok)
    assert ok, f"complementary={comp_ok}, routed={routed:.3f}"


def test_08_median_filter(announce):
    post = np.concatenate([np.full(100, 0.1), np.full(44, 0.9),
                           np.full(100, 0.1)])
    filtered = median_filter(make_track(post), window=87)
    survives = bool(filtered.labels[100:144].any())
    hand = median_filter(make_track([0.1, 0.9, 0.2, 0.3, 0.8, 0.7, 0.6, 0.4]),
                         window=3)
    hand_ok = hand.labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 0]
    ok = survives and hand_ok
    announce(8, "median filter properties", ok)
    assert ok


def test_09_feature_oracles(announce):
    rng = np.random.default_rng(9)
    t = np.arange(3200) / 16000
    clip = AudioClip(samples=0.5 * np.sin(2 * np.pi * 1000.0 * t)
                     + 0.1 * rng.standard_normal(3200))
    spec = stft(clip)
    ok = True
    power = np.abs(spec) ** 2
    mf, pl = extract_features(spec, "mfcc_plp")
    for fi in (0, len(spec) - 1):
        if np.abs(mf.values[fi] - mfcc_oracle(power[fi], 16000,
                                              1024)).max() >= 1e-6:
            ok = False
        if np.abs(pl.values[fi] - plp_oracle(power[fi], 16000,
                                             1024)).max() >= 1e-6:
            ok = False
    for _ in range(5):
        x = rng.standard_normal(640)
        r = np.correlate(x, x, mode="full")[639:639 + 13]
        a, _, solved = levinson_durbin(r, 12)
        if not solved or np.abs(a - lpc_normal_equations(r, 12)).max() >= 1e-8:
            ok = False
    announce(9, "feature extraction oracles", ok)
    assert ok


@pytest.fixture(scope="module")
def desk_scale_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    write_corpus(root, n_clips=50, seed=0, duration=10.0)
    results = {}
    for separate in (True, False):
        cfg = PipelineConfig(separate=separate)
        run = run_corpus(root / "audio", root / "labels", cfg)
        results[separate] = run.report.f1
    return results


@pytest.mark.slow
def test_10_desk_scale_pipeline(announce, desk_scale_runs):
    f1_on = desk_scale_runs[True]
    f1_off = desk_scale_runs[False]
    ok = (f1_on >= 0.90) and (f1_on >= f1_off - 0.01)
    announce(10, f"desk-scale pipeline (F1 on={f1_on:.4f}, off={f1_off:.4f})",
             ok)
    assert ok


def test_11_determinism(announce, tmp_path):
    write_corpus(tmp_path, n_clips=5, seed=4, duration=6.0)
    cfg = PipelineConfig(n_filters=4, hidden_size=4, dense_sizes=(4,),
                         epochs=3, train_stride=10, folds=2, separate=False,
                         median_window=9)
    payloads = []
    for _ in range(2):
        stems, feats, labels = load_corpus(tmp_path / "audio",
                                           tmp_path / "labels", cfg)
        run = run_kfold(stems, feats, labels, cfg)
        payloads.append(json.dumps(report_payload(run, cfg),
                                   sort_keys=True).encode())
    ok = payloads[0] == payloads[1]
    announce(11, "byte-identical deterministic reports", ok)
    assert ok
