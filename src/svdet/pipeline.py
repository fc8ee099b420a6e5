"""End-to-end runs: separation -> features -> classifier -> smoothing -> scores.

The same code path backs the CLI commands and the experiment scripts;
everything is deterministic given the config seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, asdict
from numbers import Real
from pathlib import Path

import numpy as np

from . import audio, evaluation, features, model, separation, smoothing
from .audio import AudioClip, load_wav, stft
from .errors import ClipTooShortError, DataError
from .features import FEATURE_SETS, FeatureMatrix, apply_norm, fit_norm_stats


@dataclass
class PipelineConfig:
    # stages (the signal front end is fixed: audio.SAMPLE_RATE and on)
    separate: bool = True
    feature_tag: str = "mfcc"
    smoothing_method: str = "median"
    median_window: int = 87
    hmm_components: int = 45
    # classifier
    block_len: int = 29
    n_filters: int = 16
    hidden_size: int = 16
    dense_sizes: tuple = (16,)
    train_stride: int = 5
    # training
    learning_rate: float = 0.01
    momentum: float = 0.9
    epochs: int = 50
    batch_size: int = 32
    patience: int = 12
    # evaluation
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.feature_tag, str):
            raise DataError(f"feature_tag must be of type str, "
                            f"got {self.feature_tag!r}")
        if self.feature_tag not in FEATURE_SETS:
            raise DataError(f"unknown feature set {self.feature_tag!r}")
        if self.smoothing_method not in smoothing.SMOOTHING_METHODS:
            raise DataError(
                f"unknown smoothing method {self.smoothing_method!r}")
        if not isinstance(self.separate, bool):
            raise DataError(f"separate must be of type bool, "
                            f"got {self.separate!r}")
        for name in ("learning_rate", "momentum"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise DataError(f"{name} must be a real number, got {value!r}")
            if not np.isfinite(value):
                raise DataError(f"{name} must be finite, got {value}")
            if not value >= 0:
                raise DataError(f"{name} must be at least 0, got {value}")
        model.check_ints(2, folds=self.folds)
        model.check_ints(1, train_stride=self.train_stride,
                         batch_size=self.batch_size,
                         hmm_components=self.hmm_components,
                         epochs=self.epochs, median_window=self.median_window)
        model.check_ints(0, patience=self.patience, seed=self.seed)
        model.check_shape(block_len=self.block_len, n_filters=self.n_filters,
                          hidden_size=self.hidden_size,
                          dense_sizes=self.dense_sizes)
        self.dense_sizes = tuple(self.dense_sizes)
        if self.median_window % 2 == 0:
            raise DataError(f"median_window must be odd and at least 1, "
                            f"got {self.median_window}")

    def front_end(self) -> dict:
        """Everything that shapes the features; a checkpoint records it."""
        return {"sample_rate": audio.SAMPLE_RATE, "frame_ms": audio.FRAME_MS,
                "hop_ms": audio.HOP_MS, "n_fft": audio.N_FFT,
                "separate": self.separate, "feature_tag": self.feature_tag}

    def lrcn_config(self, input_dim: int) -> model.LrcnConfig:
        return model.LrcnConfig(input_dim=input_dim, block_len=self.block_len,
                                n_filters=self.n_filters,
                                hidden_size=self.hidden_size,
                                dense_sizes=self.dense_sizes)


def clip_features(clip: AudioClip, cfg: PipelineConfig) -> FeatureMatrix:
    """Optionally separate, then extract the configured raw feature set."""
    if cfg.separate:
        try:
            clip = separation.separate(clip)
        except ClipTooShortError as exc:
            logging.getLogger(__name__).warning(
                "%s: %s; using the unseparated mixture", clip.source_id, exc)
    parts = features.extract_features(stft(clip), cfg.feature_tag)
    values = np.concatenate([p.values for p in parts], axis=1)
    return FeatureMatrix(values=values, feature_tag=cfg.feature_tag)


def _training_blocks(stems, feats, labels, stats, cfg: PipelineConfig):
    """The blockify view of the stems' stacked frames, their stacked
    frame labels, and per stem the centers of its train_stride-spaced
    blocks that lie inside it."""
    centers, start = [], 0
    for stem in stems:
        n = len(feats[stem].values)
        if n < cfg.block_len:
            raise DataError(f"{stem}: {n} frames, fewer than one block of "
                            f"{cfg.block_len}")
        centers.append(np.arange(start, start + n - cfg.block_len + 1,
                                 cfg.train_stride) + cfg.block_len // 2)
        start += n
    frames = np.concatenate([apply_norm(feats[s], stats).values for s in stems])
    y = np.concatenate([labels[s].labels for s in stems])
    return features.blockify(frames, cfg.block_len), y, centers


def train_classifier(stems, feats, labels, cfg: PipelineConfig):
    """Train on stems; returns (params, lrcn_cfg, stats, history).

    The last fifth of the stems (at least one) is held out: early
    stopping scores its blocks in the view all stems share, and the
    normalization statistics are fit on the rest. A single stem trains
    without validation and keeps the final parameters.
    """
    n_fit = len(stems) - (max(1, len(stems) // 5) if len(stems) > 1 else 0)
    stats = fit_norm_stats([feats[s] for s in stems[:n_fit]])
    blocks, y, centers = _training_blocks(stems, feats, labels, stats, cfg)
    fit_c, valid_c = np.split(np.concatenate(centers),
                              [sum(map(len, centers[:n_fit]))])
    lrcn_cfg = cfg.lrcn_config(input_dim=blocks.shape[2])
    params, history = model.train_lrcn(blocks, y, fit_c, valid_c, lrcn_cfg,
                                       cfg)
    return params, lrcn_cfg, stats, history


@dataclass
class CorpusRun:
    """Result of a k-fold run: pooled report plus per-fold detail."""

    report: evaluation.EvalReport
    fold_reports: list
    histories: list


def load_corpus(audio_dir, label_dir, cfg: PipelineConfig):
    """Load every wav with a matching label file; returns (stems, feats, labels)."""
    audio_dir, label_dir = Path(audio_dir), Path(label_dir)
    stems = sorted(p.stem for p in audio_dir.glob("*.wav")
                   if (label_dir / f"{p.stem}.lab").exists())
    if not stems:
        raise DataError(f"no wav/label pairs under {audio_dir}")
    feats, labels = {}, {}
    for stem in stems:
        feat = clip_features(load_wav(audio_dir / f"{stem}.wav"), cfg)
        feats[stem] = feat
        labels[stem] = evaluation.load_labels(label_dir / f"{stem}.lab",
                                              len(feat.values))
    return stems, feats, labels


def run_kfold(stems, feats, labels, cfg: PipelineConfig) -> CorpusRun:
    """K-fold train/test over whole files; pooled micro-average report."""
    folds = evaluation.kfold_split(stems, k=cfg.folds, seed=cfg.seed)
    per_file_counts = {}
    fold_reports = []
    histories = []
    for fi, test_stems in enumerate(folds):
        train_stems = [s for s in stems if s not in test_stems]
        params, lrcn_cfg, stats, history = train_classifier(
            train_stems, feats, labels, cfg)
        histories.append(history)
        hmm = None
        if cfg.smoothing_method == "hmm":
            tr_tracks = [model.predict_track(apply_norm(feats[s], stats),
                                             params, lrcn_cfg)
                         for s in train_stems]
            hmm = smoothing.fit_hmm_gmm(tr_tracks,
                                        [labels[s] for s in train_stems],
                                        cfg.hmm_components)
        for stem in test_stems:
            track = model.predict_track(apply_norm(feats[stem], stats),
                                        params, lrcn_cfg)
            pred = smoothing.smooth(track, cfg.smoothing_method,
                                    cfg.median_window, model=hmm)
            per_file_counts[stem] = evaluation.confusion_counts(pred,
                                                                labels[stem])
        fold_reports.append(evaluation.pooled_report(
            {s: per_file_counts[s] for s in test_stems}))
    return CorpusRun(report=evaluation.pooled_report(per_file_counts),
                     fold_reports=fold_reports, histories=histories)


def run_corpus(audio_dir, label_dir, cfg: PipelineConfig) -> CorpusRun:
    stems, feats, labels = load_corpus(audio_dir, label_dir, cfg)
    return run_kfold(stems, feats, labels, cfg)


def report_payload(run: CorpusRun, cfg: PipelineConfig) -> dict:
    """JSON-serializable summary; stable key order for reproducible bytes."""
    return {
        "config": asdict(cfg),
        "pooled": asdict(run.report),
        "folds": [asdict(r) for r in run.fold_reports],
    }
