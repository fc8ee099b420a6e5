"""Command-line entry point.

Subcommands: separate, features, train, predict, evaluate, pipeline.
Configuration comes from PipelineConfig defaults, optionally overridden
by a key=value config file (--config) and repeated --set KEY=VALUE
flags. Every run writes a manifest echoing the resolved config.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 numeric divergence.
Partial artifacts are removed on failure. SVDET_LOG controls verbosity.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import evaluation, features, model, pipeline, separation, smoothing
from .audio import (FRAME_LEN, HOP, SAMPLE_RATE, AudioClip, frame_count,
                    frame_signal, frame_times, load_wav, save_wav)
from .errors import DataError, DivergenceError
from .pipeline import PipelineConfig

log = logging.getLogger("svdet")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _coerce(key: str, value: str, target_type):
    if target_type is bool:
        low = value.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"{key}: expected boolean, got {value!r}")
    try:
        if target_type is tuple:
            return tuple(int(v) for v in value.split(",") if v)
        return target_type(value)
    except ValueError:
        expected = ("comma-separated integers" if target_type is tuple
                    else target_type.__name__)
        raise UsageError(f"{key}: expected {expected}, got {value!r}") from None


def resolve_config(config_path=None, overrides=()) -> PipelineConfig:
    """Defaults <- key=value config file <- --set overrides."""
    values = {}
    field_names = {f.name for f in fields(PipelineConfig)}

    def _assign(key, raw, origin):
        if key not in field_names:
            raise UsageError(f"{origin}: unknown config key {key!r}")
        default = getattr(PipelineConfig(), key)
        values[key] = _coerce(key, raw, type(default))

    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise DataError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc.reason} at offset "
                            f"{exc.start}") from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, raw = line.partition("=")
            _assign(key.strip(), raw.strip(), f"{path}:{lineno}")
    for item in overrides or ():
        if "=" not in item:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        _assign(key.strip(), raw.strip(), "--set")
    return PipelineConfig(**values)


class ArtifactWriter:
    """Tracks written files so a failed run can clean up after itself."""

    def __init__(self):
        self.paths = []

    def register(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self.paths.append(path)
        return path

    def cleanup(self):
        for path in self.paths:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass


def write_manifest(writer, out_dir, command, cfg, inputs):
    payload = {"command": command, "config": asdict(cfg), "inputs": inputs}
    path = writer.register(Path(out_dir) / "manifest.json")
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Commands

def accompaniment(clip: AudioClip, vocal: AudioClip) -> AudioClip:
    """The mixture minus its vocal estimate where frames cover it, zero
    after: the masks sum to one, so the accompaniment mask would give it."""
    samples = clip.samples - vocal.samples
    samples[(frame_signal(clip) - 1) * HOP + FRAME_LEN :] = 0.0
    return AudioClip(samples=samples)


def cmd_separate(args, cfg, writer):
    clip = load_wav(args.input)
    vocal = separation.separate(clip)
    stem = Path(args.input).stem
    out_dir = Path(args.out_dir)
    save_wav(writer.register(out_dir / f"{stem}_vocal.wav"), vocal)
    save_wav(writer.register(out_dir / f"{stem}_accompaniment.wav"),
             accompaniment(clip, vocal))
    write_manifest(writer, out_dir, "separate", cfg, {"input": str(args.input)})


def cmd_features(args, cfg, writer):
    raw = pipeline.clip_features(load_wav(args.input), cfg)
    out = writer.register(args.out)
    features.features_to_csv(
        out, features.apply_norm(raw, features.fit_norm_stats([raw])))
    write_manifest(writer, Path(args.out).parent, "features", cfg,
                   {"input": str(args.input)})


def cmd_train(args, cfg, writer):
    stems, feats, labels = pipeline.load_corpus(args.audio_dir, args.label_dir,
                                                cfg)
    params, lrcn_cfg, stats, history = pipeline.train_classifier(
        stems, feats, labels, cfg)
    out_dir = Path(args.out_dir)
    ckpt = writer.register(out_dir / "checkpoint.npz")
    model.save_checkpoint(ckpt, params, lrcn_cfg, stats, cfg.front_end())
    hist_path = writer.register(out_dir / "history.csv")
    with open(hist_path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["epoch", "train_loss", "valid_f1"])
        w.writeheader()
        for row in history:
            w.writerow({k: row.get(k, "") for k in w.fieldnames})
    write_manifest(writer, out_dir, "train", cfg,
                   {"audio_dir": str(args.audio_dir),
                    "label_dir": str(args.label_dir), "stems": stems})


def cmd_predict(args, cfg, writer):
    if cfg.smoothing_method == "hmm":
        raise DataError("hmm smoothing requires a fitted model, and a "
                        "checkpoint carries none; use median or none")
    params, lrcn_cfg, stats, front_end = model.read_checkpoint(args.checkpoint)
    for key, value in cfg.front_end().items():
        if front_end.get(key) != value:
            raise DataError(f"checkpoint was trained with {key}="
                            f"{front_end.get(key)!r}, the config has {value!r}")
    raw = pipeline.clip_features(load_wav(args.input), cfg)
    feat = features.apply_norm(raw, stats)
    track = model.predict_track(feat, params, lrcn_cfg)
    smoothed = smoothing.smooth(track, cfg.smoothing_method,
                                cfg.median_window)
    out = writer.register(args.out)
    # csv.writer's rendering: nothing to quote, rows end in \r\n
    rows = map("{:.6f},{:.9f},{:d}\r\n".format,
               frame_times(len(track.posteriors)).tolist(),
               track.posteriors.tolist(), smoothed.labels.tolist())
    with open(out, "w", newline="") as fh:
        fh.write("frame_time,posterior,smoothed_label\r\n" + "".join(rows))
    if args.label_out:
        evaluation.save_labels(writer.register(args.label_out), smoothed)
    write_manifest(writer, Path(args.out).parent, "predict", cfg,
                   {"input": str(args.input), "checkpoint": str(args.checkpoint)})


def cmd_evaluate(args, cfg, writer):
    pred_segs = evaluation.parse_label_file(args.pred)
    truth_segs = evaluation.parse_label_file(args.truth)
    end = max([s.end for s in pred_segs + truth_segs], default=0.0)
    if end <= 0.0:
        raise DataError("label files contain no segments")
    n_frames = frame_count(round(end * SAMPLE_RATE))
    pred = evaluation.load_labels(args.pred, n_frames)
    truth = evaluation.load_labels(args.truth, n_frames)
    report = evaluation.metrics(evaluation.confusion_counts(pred, truth))
    out = writer.register(args.out)
    out.write_text(report.to_json() + "\n")
    write_manifest(writer, Path(args.out).parent, "evaluate", cfg,
                   {"pred": str(args.pred), "truth": str(args.truth)})


def cmd_pipeline(args, cfg, writer):
    run = pipeline.run_corpus(args.audio_dir, args.label_dir, cfg)
    out_dir = Path(args.out_dir)
    report_path = writer.register(out_dir / "report.json")
    report_path.write_text(
        json.dumps(pipeline.report_payload(run, cfg), sort_keys=True, indent=2)
        + "\n")
    write_manifest(writer, out_dir, "pipeline", cfg,
                   {"audio_dir": str(args.audio_dir),
                    "label_dir": str(args.label_dir)})
    log.info("pooled F1 %.4f", run.report.f1)


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves
    it as it was."""
    parser = _Parser(prog="svdet", description=__doc__)
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        dest="overrides", help="override a config value")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("separate", help="write vocal/accompaniment WAVs")
    p.add_argument("input")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("features", help="write a per-frame feature CSV")
    p.add_argument("input")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the classifier on a corpus")
    p.add_argument("--audio-dir", required=True)
    p.add_argument("--label-dir", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("predict", help="posterior CSV + smoothed labels")
    p.add_argument("input")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--label-out")

    p = sub.add_parser("evaluate", help="score a prediction label file")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("pipeline", help="k-fold end-to-end run on a corpus")
    p.add_argument("--audio-dir", required=True)
    p.add_argument("--label-dir", required=True)
    p.add_argument("--out-dir", required=True)
    return parser


COMMANDS = {
    "separate": cmd_separate,
    "features": cmd_features,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "pipeline": cmd_pipeline,
}


def _configure_logging():
    """Set the root log level from SVDET_LOG, a level name (default WARNING)."""
    name = os.environ.get("SVDET_LOG", "WARNING").upper()
    level = logging.getLevelName(name)  # an int for a level name
    if not isinstance(level, int):
        raise UsageError(f"SVDET_LOG: unknown log level {name!r}, expected "
                         "DEBUG, INFO, WARNING, ERROR or CRITICAL")
    logging.basicConfig(level=level)


def main(argv=None) -> int:
    writer = ArtifactWriter()
    try:
        _configure_logging()
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args.config, args.overrides)
        COMMANDS[args.command](args, cfg, writer)
        return 0
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    # an OSError is a missing input or an unwritable output path
    except (OSError, DataError) as exc:
        writer.cleanup()
        print(f"error: data: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        writer.cleanup()
        print(f"error: divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
