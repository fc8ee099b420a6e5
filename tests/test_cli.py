import csv
import io
import json
import logging
import tempfile
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svdet import model, pipeline, smoothing
from svdet.audio import AudioClip, frame_times, load_wav, save_wav
from svdet.cli import UsageError, build_parser, main, resolve_config
from svdet.errors import DataError
from svdet.features import (FeatureMatrix, NormStats, apply_norm,
                            features_to_csv, fit_norm_stats)
from svdet.model import LrcnConfig, save_checkpoint, zero_params
from svdet.pipeline import PipelineConfig
from svdet.synth import write_corpus

from child import run_child

# small/fast settings shared by every CLI invocation in this module
FAST = ["--set", "n_filters=4", "--set", "hidden_size=4",
        "--set", "dense_sizes=4", "--set", "epochs=3",
        "--set", "train_stride=10", "--set", "folds=2",
        "--set", "median_window=9", "--set", "separate=false"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    write_corpus(root, n_clips=4, seed=3, duration=6.0)
    return root


ZERO_CFG = LrcnConfig(input_dim=13, block_len=29, n_filters=4, hidden_size=4,
                      dense_sizes=(4,))


def zero_checkpoint(path, **config):
    """An all-zero MFCC model (posterior 0.5 everywhere) with unit stats."""
    stats = NormStats(col_min=np.zeros(13), col_max=np.ones(13))
    save_checkpoint(path, zero_params(ZERO_CFG), ZERO_CFG, stats,
                    PipelineConfig(**config).front_end())
    return path


def rewrite_checkpoint(src, dst, front_end=(), config=(), **arrays):
    """A copy of a checkpoint with front-end or model config entries, or
    arrays, replaced."""
    with np.load(src) as data:
        out = {k: data[k] for k in data.files}
    meta = json.loads(bytes(out["__meta__"]).decode())
    meta["front_end"].update(front_end)
    meta["config"].update(config)
    out["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(),
                                    dtype=np.uint8)
    np.savez(dst, **{**out, **arrays})
    return dst


def no_audio(*args, **kwargs):
    raise AssertionError("audio read before the config was checked")


class TestResolveConfig:
    def test_defaults(self):
        cfg = resolve_config()
        assert cfg.median_window == 87
        # the paper's front end, fixed, as a checkpoint records it
        assert cfg.front_end() == {"sample_rate": 16000, "frame_ms": 40.0,
                                   "hop_ms": 20.0, "n_fft": 1024,
                                   "separate": True, "feature_tag": "mfcc"}

    def test_config_file_and_overrides(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# comment\nfolds=3\nseparate=false\n")
        cfg = resolve_config(conf, ["folds=4", "feature_tag=lpcc"])
        assert cfg.folds == 4          # --set wins over the file
        assert cfg.separate is False
        assert cfg.feature_tag == "lpcc"

    def test_unknown_key(self, tmp_path):
        assert main(["--set", "bogus=1", "evaluate", "--pred", "a",
                     "--truth", "b", "--out", "c"]) == 1

    def test_bad_bool(self):
        assert main(["--set", "separate=maybe", "evaluate", "--pred", "a",
                     "--truth", "b", "--out", "c"]) == 1

    def test_tuple_coercion(self):
        cfg = resolve_config(None, ["dense_sizes=8,4"])
        assert cfg.dense_sizes == (8, 4)

    @pytest.mark.parametrize("item, expected", [
        ("folds=abc", "folds: expected int"),
        ("learning_rate=fast", "learning_rate: expected float"),
        ("dense_sizes=8,x", "dense_sizes: expected comma-separated integers"),
    ])
    def test_bad_value_usage_error(self, item, expected, capsys):
        with pytest.raises(UsageError, match=expected):
            resolve_config(None, [item])
        assert main(["--set", item, "pipeline", "--audio-dir", "a",
                     "--label-dir", "b", "--out-dir", "c"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: usage: {expected}")
        assert err.count("\n") == 1

    def test_unknown_smoothing_method_rejected(self):
        with pytest.raises(DataError, match="smoothing method"):
            PipelineConfig(smoothing_method="bogus")
        assert main(["--set", "smoothing_method=bogus", "evaluate",
                     "--pred", "a", "--truth", "b", "--out", "c"]) == 2

    @pytest.mark.parametrize("folds", [0, 1])
    def test_fewer_than_two_folds_rejected(self, folds, capsys):
        with pytest.raises(DataError, match="folds"):
            PipelineConfig(folds=folds)
        assert main(["--set", f"folds={folds}", "pipeline", "--audio-dir", "a",
                     "--label-dir", "b", "--out-dir", "c"]) == 2
        err = capsys.readouterr().err
        assert "folds must be at least 2" in err
        assert err.count("\n") == 1

    # --set coerces these, so only a Python caller can pass them
    @pytest.mark.parametrize("field, value, message", [
        ("train_stride", 2.5, "train_stride must be of type int, got 2.5"),
        ("batch_size", 2.5, "batch_size must be of type int, got 2.5"),
        ("epochs", 1.5, "epochs must be of type int, got 1.5"),
        ("epochs", True, "epochs must be of type int, got True"),
        ("folds", 2.5, "folds must be of type int, got 2.5"),
        ("patience", 0.5, "patience must be of type int, got 0.5"),
        ("seed", 1.5, "seed must be of type int, got 1.5"),
        ("hmm_components", 2.5, "hmm_components must be of type int, got 2.5"),
        ("median_window", 9.5, "median_window must be of type int, got 9.5"),
        ("separate", "false", "separate must be of type bool, got 'false'"),
        ("learning_rate", "0.1",
         "learning_rate must be a real number, got '0.1'"),
        ("momentum", True, "momentum must be a real number, got True"),
        ("feature_tag", ["mfcc"],
         "feature_tag must be of type str, got ['mfcc']"),
        ("dense_sizes", 4, "dense_sizes must be a tuple or list, got 4"),
        ("dense_sizes", None, "dense_sizes must be a tuple or list, got None"),
    ])
    def test_wrong_type_rejected(self, field, value, message):
        with pytest.raises(DataError) as exc:
            PipelineConfig(**{field: value})
        assert str(exc.value) == message

    # the front end is fixed, so its values are not config keys
    @pytest.mark.parametrize("item", ["sample_rate=0", "sample_rate=-16000",
                                      "hop_ms=0", "hop_ms=0.01", "hop_ms=80",
                                      "hop_ms=10", "frame_ms=nan",
                                      "frame_ms=inf", "n_fft=1000",
                                      "n_fft=512"])
    def test_front_end_key_unknown_before_audio(self, item, corpus, tmp_path,
                                                capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "load_wav", no_audio)
        rc = main(["--set", item, "pipeline",
                   "--audio-dir", str(corpus / "audio"),
                   "--label-dir", str(corpus / "labels"),
                   "--out-dir", str(tmp_path / "run")])
        assert rc == 1
        key = item.partition("=")[0]
        err = capsys.readouterr().err
        assert err == f"error: usage: --set: unknown config key {key!r}\n"
        assert not (tmp_path / "run").exists()

    def test_front_end_config_line_unknown(self, corpus, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setattr(pipeline, "load_wav", no_audio)
        conf = tmp_path / "run.conf"
        conf.write_text("folds=2\nn_fft=512\n")
        rc = main(["--config", str(conf), "pipeline",
                   "--audio-dir", str(corpus / "audio"),
                   "--label-dir", str(corpus / "labels"),
                   "--out-dir", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: usage: {conf}:2: unknown config key 'n_fft'\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("item, message", [
        ("batch_size=0", "batch_size must be at least 1"),
        ("train_stride=0", "train_stride must be at least 1"),
        ("block_len=0", "block_len must be at least 1"),
        ("hmm_components=0", "hmm_components must be at least 1"),
        ("median_window=4", "median_window must be odd"),
        ("learning_rate=-1", "learning_rate must be at least 0"),
        ("learning_rate=inf", "learning_rate must be finite"),
        ("learning_rate=nan", "learning_rate must be finite"),
        ("momentum=nan", "momentum must be finite"),
        ("momentum=-inf", "momentum must be finite"),
        ("momentum=-0.5", "momentum must be at least 0"),
        # found by the train fuzz below
        ("seed=-1", "seed must be at least 0"),
        ("n_filters=-1", "n_filters must be at least 1"),
        ("hidden_size=-2", "hidden_size must be at least 1"),
        ("dense_sizes=4,-1", "dense_sizes must all be at least 1"),
        ("hidden_size=15", "hidden_size must be a multiple of 2"),
        # no epoch, or stopping before the first, trains nothing
        ("epochs=0", "epochs must be at least 1"),
        ("epochs=-2", "epochs must be at least 1"),
        ("patience=-3", "patience must be at least 0"),
    ])
    def test_out_of_range_value_rejected_before_audio(
            self, item, message, corpus, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "load_wav", no_audio)
        rc = main(FAST + ["--set", "smoothing_method=hmm", "--set", item,
                          "pipeline", "--audio-dir", str(corpus / "audio"),
                          "--label-dir", str(corpus / "labels"),
                          "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {message}")
        assert err.count("\n") == 1

    def test_missing_config_file(self, capsys):
        assert main(["--config", "/nonexistent.conf", "evaluate",
                     "--pred", "a", "--truth", "b", "--out", "c"]) == 2

    def test_config_file_not_utf8(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_bytes(b"# caf\xe9\nfolds=3\n")
        assert main(["--config", str(conf), "evaluate",
                     "--pred", "a", "--truth", "b", "--out", "c"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {conf}: not UTF-8 text")
        assert err.count("\n") == 1


class TestExitCodes:
    def test_no_subcommand_usage(self):
        assert main([]) == 1

    def test_unknown_flag_usage(self):
        assert main(["separate", "in.wav", "--out-dir", "x", "--bogus"]) == 1

    def test_one_parser_left_as_it_was(self):
        # main parses every call with the same parser: no call's
        # arguments or usage error reach the next
        parser = build_parser()
        assert build_parser() is parser
        evaluate = ["evaluate", "--pred", "a", "--truth", "b", "--out", "c"]
        first = parser.parse_args(["--set", "epochs=1"] + evaluate)
        assert first.overrides == ["epochs=1"]
        with pytest.raises(UsageError):
            parser.parse_args(evaluate + ["--bogus"])
        second = parser.parse_args(evaluate)
        assert second.overrides is None and second.config is None
        assert vars(second) == {**vars(first), "overrides": None}

    def test_missing_input_data(self, tmp_path):
        assert main(["separate", str(tmp_path / "missing.wav"),
                     "--out-dir", str(tmp_path / "out")]) == 2

    def test_unknown_log_level_usage(self, monkeypatch, capsys):
        monkeypatch.setenv("SVDET_LOG", "verbose")
        assert main(["evaluate", "--pred", "a", "--truth", "b",
                     "--out", "c"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "SVDET_LOG" in err

    def test_features_out_is_a_directory(self, corpus, tmp_path, capsys):
        wav = sorted((corpus / "audio").glob("*.wav"))[0]
        out = tmp_path / "existing"
        out.mkdir()
        assert main(FAST + ["features", str(wav), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Is a directory" in err
        assert out.is_dir() and not any(out.iterdir())
        assert [p.name for p in tmp_path.iterdir()] == ["existing"]

    def test_separate_out_dir_under_a_file(self, corpus, tmp_path, capsys):
        wav = sorted((corpus / "audio").glob("*.wav"))[0]
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        assert main(["separate", str(wav), "--out-dir",
                     str(blocker / "sub")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Not a directory" in err
        assert blocker.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["blocker"]

    def test_unwritable_label_out_removes_the_csv(self, corpus, tmp_path,
                                                  capsys):
        wav = sorted((corpus / "audio").glob("*.wav"))[0]
        ckpt = zero_checkpoint(tmp_path / "zero.npz", separate=False)
        (tmp_path / "labels").mkdir()
        assert main(FAST + ["predict", str(wav), "--checkpoint", str(ckpt),
                            "--out", str(tmp_path / "pred.csv"),
                            "--label-out", str(tmp_path / "labels")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Is a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["labels",
                                                              "zero.npz"]

    def test_non_finite_parameters_exit_3_without_checkpoint(
            self, corpus, tmp_path, capsys, monkeypatch):
        # an inf gradient on the last batch leaves every loss finite, so
        # only the parameter check after the epoch can catch it
        backward = model.lrcn_backward
        batches = []

        def inf_gradient(x, y, params, cfg, grads=None):
            loss, grads = backward(x, y, params, cfg, grads)
            grads["Wo_c"][0, 0] = np.inf
            batches.append(len(x))
            return loss, grads

        monkeypatch.setattr(model, "lrcn_backward", inf_gradient)
        out = tmp_path / "run"
        rc = main(FAST + ["--set", "epochs=1", "--set", "batch_size=100000",
                          "train", "--audio-dir", str(corpus / "audio"),
                          "--label-dir", str(corpus / "labels"),
                          "--out-dir", str(out)])
        assert len(batches) == 1  # one epoch of one batch: the last batch
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: divergence: non-finite parameters")
        assert err.count("\n") == 1
        assert not (out / "checkpoint.npz").exists()


    @pytest.mark.parametrize("short", ["a_short", "z_short"])  # fit, valid
    def test_clip_shorter_than_a_block_named(self, short, corpus, tmp_path,
                                             capsys):
        audio, labels = tmp_path / "audio", tmp_path / "labels"
        audio.mkdir()
        labels.mkdir()
        for src in sorted((corpus / "audio").glob("*.wav")):
            (audio / src.name).write_bytes(src.read_bytes())
            lab = corpus / "labels" / f"{src.stem}.lab"
            (labels / lab.name).write_bytes(lab.read_bytes())
        # 0.5 s is 24 frames, fewer than the 29 of a block
        save_wav(audio / f"{short}.wav", AudioClip(samples=np.zeros(8000)))
        (labels / f"{short}.lab").write_text("0.000000 0.500000 nosing\n")
        out = tmp_path / "run"
        rc = main(FAST + ["train", "--audio-dir", str(audio),
                          "--label-dir", str(labels), "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: data: {short}: 24 frames, fewer than one "
                       "block of 29\n")
        assert not (out / "checkpoint.npz").exists()


class TestSeparateCommand:
    def test_writes_both_stems_and_manifest(self, corpus, tmp_path):
        wav = sorted((corpus / "audio").glob("*.wav"))[0]
        out = tmp_path / "sep"
        rc = main(["separate", str(wav), "--out-dir", str(out)])
        assert rc == 0
        stem = wav.stem
        voc = load_wav(out / f"{stem}_vocal.wav")
        acc = load_wav(out / f"{stem}_accompaniment.wav")
        assert len(voc.samples) == len(acc.samples)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "separate"
        assert manifest["config"]["separate"] is True

    def test_too_short_cleans_up(self, tmp_path, rng):
        from svdet.audio import AudioClip, save_wav
        wav = tmp_path / "short.wav"
        save_wav(wav, AudioClip(samples=np.zeros(800)))
        out = tmp_path / "sep"
        assert main(["separate", str(wav), "--out-dir", str(out)]) == 2
        assert not list(out.glob("*.wav")) if out.exists() else True


class TestFeaturesCommand:
    def test_csv_shape(self, corpus, tmp_path):
        wav = sorted((corpus / "audio").glob("*.wav"))[0]
        out = tmp_path / "feat.csv"
        rc = main(FAST + ["features", str(wav), "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        n_frames = (6 * 16000 - 640) // 320 + 1
        assert len(rows) == n_frames + 1  # header
        body = np.array(rows[1:], dtype=np.float64)
        feats = body[:, 1:]
        assert feats.min() >= 0.0 and feats.max() <= 1.0

    def test_csv_is_fit_and_applied_normalization(self, corpus, tmp_path):
        wav = sorted((corpus / "audio").glob("*.wav"))[0]
        out = tmp_path / "feat.csv"
        assert main(FAST + ["features", str(wav), "--out", str(out)]) == 0
        cfg = resolve_config(None, FAST[1::2])
        raw = pipeline.clip_features(load_wav(wav), cfg)
        features_to_csv(tmp_path / "ref.csv",
                        apply_norm(raw, fit_norm_stats([raw])))
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    rc = main(FAST + ["train", "--audio-dir", str(corpus / "audio"),
                      "--label-dir", str(corpus / "labels"),
                      "--out-dir", str(out)])
    assert rc == 0
    return out


class TestTrainPredictEvaluate:
    def test_train_artifacts(self, trained):
        assert (trained / "checkpoint.npz").exists()
        assert (trained / "history.csv").exists()
        assert (trained / "manifest.json").exists()

    def test_train_one_clip_without_validation(self, corpus, tmp_path):
        audio, labels = tmp_path / "audio", tmp_path / "labels"
        audio.mkdir()
        labels.mkdir()
        for src, dst in ((corpus / "audio" / "clip000.wav", audio),
                         (corpus / "labels" / "clip000.lab", labels)):
            (dst / src.name).write_bytes(src.read_bytes())
        out = tmp_path / "run"
        assert main(FAST + ["train", "--audio-dir", str(audio),
                            "--label-dir", str(labels), "--out-dir", str(out)]) == 0
        with open(out / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(r["valid_f1"] == "" for r in rows)

    def test_predict_csv(self, corpus, trained, tmp_path):
        wav = sorted((corpus / "audio").glob("*.wav"))[0]
        out = tmp_path / "pred.csv"
        lab = tmp_path / "pred.lab"
        rc = main(FAST + ["predict", str(wav),
                          "--checkpoint", str(trained / "checkpoint.npz"),
                          "--out", str(out), "--label-out", str(lab)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        posts = np.array([float(r["posterior"]) for r in rows])
        assert posts.min() >= 0.0 and posts.max() <= 1.0
        assert lab.read_text().strip()  # non-empty label file

    def test_predict_csv_bytes_are_csv_writers(self, corpus, trained, tmp_path,
                                               monkeypatch):
        seen = {}
        predict_track, smooth = model.predict_track, smoothing.smooth

        def spy_predict(*args):
            seen["track"] = predict_track(*args)
            return seen["track"]

        def spy_smooth(*args):
            seen["smoothed"] = smooth(*args)
            return seen["smoothed"]

        monkeypatch.setattr(model, "predict_track", spy_predict)
        monkeypatch.setattr(smoothing, "smooth", spy_smooth)
        wav = sorted((corpus / "audio").glob("*.wav"))[0]
        out = tmp_path / "pred.csv"
        assert main(FAST + ["predict", str(wav),
                            "--checkpoint", str(trained / "checkpoint.npz"),
                            "--out", str(out)]) == 0
        posteriors = seen["track"].posteriors
        want = io.StringIO(newline="")
        w = csv.writer(want)
        w.writerow(["frame_time", "posterior", "smoothed_label"])
        for t, p, label in zip(frame_times(len(posteriors)), posteriors,
                               seen["smoothed"].labels):
            w.writerow([f"{t:.6f}", f"{p:.9f}", int(label)])
        assert out.read_bytes() == want.getvalue().encode()

    def test_evaluate_truth_vs_itself(self, corpus, tmp_path):
        lab = sorted((corpus / "labels").glob("*.lab"))[0]
        out = tmp_path / "report.json"
        rc = main(["evaluate", "--pred", str(lab), "--truth", str(lab),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["accuracy"] == 1.0
        assert report["fp"] == 0 and report["fn"] == 0

    def test_evaluate_disagreement(self, tmp_path):
        pred = tmp_path / "p.lab"
        truth = tmp_path / "t.lab"
        pred.write_text("0.0 2.0 sing\n")
        truth.write_text("0.0 2.0 nosing\n")
        out = tmp_path / "r.json"
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["accuracy"] == 0.0
        assert "precision" not in report["zero_division_flags"]
        assert "recall" in report["zero_division_flags"]

    def test_evaluate_labels_shorter_than_one_frame(self, tmp_path, capsys):
        lab = tmp_path / "t.lab"
        lab.write_text("0.0 0.02 sing\n")
        out = tmp_path / "r.json"
        assert main(["evaluate", "--pred", str(lab), "--truth", str(lab),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and err.count("\n") == 1
        assert "shorter than one frame" in err
        assert not out.exists()


class TestPredictDataErrors:
    """Checkpoint and feature problems exit 2 with one line and no outputs."""

    def _predict(self, corpus, checkpoint, out, extra=()):
        wav = sorted((corpus / "audio").glob("*.wav"))[0]
        return main(FAST + list(extra) + [
            "predict", str(wav), "--checkpoint", str(checkpoint),
            "--out", str(out / "pred.csv"), "--label-out", str(out / "pred.lab")])

    def _assert_clean_data_error(self, rc, capsys, out, match):
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and err.count("\n") == 1
        assert match in err
        assert not out.exists() or not list(out.iterdir())

    def test_feature_width_mismatch(self, corpus, trained, tmp_path, capsys):
        out = tmp_path / "out"
        rc = self._predict(corpus, trained / "checkpoint.npz", out,
                           ["--set", "feature_tag=mfcc_plp"])
        self._assert_clean_data_error(rc, capsys, out,
                                      "checkpoint was trained with feature_tag")
        with pytest.raises(DataError, match="26"):
            pipeline.apply_norm(
                FeatureMatrix(values=np.zeros((3, 26)), feature_tag="mfcc_plp"),
                NormStats(col_min=np.zeros(13), col_max=np.ones(13)))

    @pytest.mark.parametrize("item, message", [
        ("feature_tag=plp", "feature_tag='mfcc', the config has 'plp'"),
        ("separate=true", "separate=False, the config has True")])
    def test_front_end_mismatch(self, corpus, trained, tmp_path, capsys, item,
                                message):
        out = tmp_path / "out"
        rc = self._predict(corpus, trained / "checkpoint.npz", out,
                           ["--set", item])
        self._assert_clean_data_error(
            rc, capsys, out, f"checkpoint was trained with {message}")

    def test_other_framing_refused(self, corpus, trained, tmp_path, capsys):
        ckpt = rewrite_checkpoint(trained / "checkpoint.npz",
                                  tmp_path / "checkpoint.npz",
                                  front_end={"hop_ms": 10.0})
        out = tmp_path / "out"
        rc = self._predict(corpus, ckpt, out)
        self._assert_clean_data_error(
            rc, capsys, out,
            "checkpoint was trained with hop_ms=10.0, the config has 20.0")

    def test_front_end_checked_before_audio(self, trained, tmp_path, capsys):
        ckpt = rewrite_checkpoint(trained / "checkpoint.npz",
                                  tmp_path / "checkpoint.npz",
                                  front_end={"hop_ms": 10.0})
        out = tmp_path / "out"
        rc = main(FAST + ["predict", str(tmp_path / "missing.wav"),
                          "--checkpoint", str(ckpt),
                          "--out", str(out / "pred.csv")])
        self._assert_clean_data_error(rc, capsys, out, "hop_ms=10.0")

    def test_hmm_rejected_before_audio(self, trained, tmp_path, capsys):
        # a checkpoint carries no fitted HMM, so fail before any work
        out = tmp_path / "out"
        rc = main(FAST + ["--set", "smoothing_method=hmm", "predict",
                          str(tmp_path / "missing.wav"), "--checkpoint",
                          str(trained / "checkpoint.npz"),
                          "--out", str(out / "pred.csv"),
                          "--label-out", str(out / "pred.lab")])
        self._assert_clean_data_error(rc, capsys, out,
                                      "hmm smoothing requires a fitted model")

    def test_truncated_checkpoint(self, corpus, trained, tmp_path, capsys):
        ckpt = tmp_path / "checkpoint.npz"
        data = (trained / "checkpoint.npz").read_bytes()
        ckpt.write_bytes(data[: len(data) // 2])
        out = tmp_path / "out"
        rc = self._predict(corpus, ckpt, out)
        self._assert_clean_data_error(rc, capsys, out, "unreadable checkpoint")

    def test_garbage_checkpoint(self, corpus, tmp_path, capsys):
        ckpt = tmp_path / "checkpoint.npz"
        ckpt.write_bytes(b"\x80\x04garbage" * 16)
        out = tmp_path / "out"
        rc = self._predict(corpus, ckpt, out)
        self._assert_clean_data_error(rc, capsys, out, "unreadable checkpoint")

    def test_misshapen_parameter(self, corpus, trained, tmp_path, capsys):
        # hidden_size 4 needs W_h (16, 4); a (16, 5) one would reach matmul
        ckpt = rewrite_checkpoint(trained / "checkpoint.npz",
                                  tmp_path / "checkpoint.npz",
                                  W_h=np.zeros((16, 5)))
        out = tmp_path / "out"
        rc = self._predict(corpus, ckpt, out)
        self._assert_clean_data_error(
            rc, capsys, out,
            "checkpoint parameter W_h has shape (16, 5), its config needs "
            "(16, 4)")

    @pytest.mark.parametrize("name, change, message", [
        ("W_h", lambda v: v.astype(complex),
         "checkpoint array W_h has dtype complex128, not bool, int or float"),
        ("out_b", lambda v: np.array("0.5"),
         "checkpoint array out_b has dtype <U3, not bool, int or float"),
        ("W_h", lambda v: np.where(np.eye(*v.shape) > 0, np.nan, v),
         "checkpoint array W_h holds a non-finite value"),
        ("__norm_max__", lambda v: np.full_like(v, np.inf),
         "checkpoint array __norm_max__ holds a non-finite value"),
    ])
    def test_malformed_array(self, corpus, trained, tmp_path, capsys, name,
                             change, message):
        with np.load(trained / "checkpoint.npz") as data:
            value = change(data[name])
        ckpt = rewrite_checkpoint(trained / "checkpoint.npz",
                                  tmp_path / "checkpoint.npz", **{name: value})
        out = tmp_path / "out"
        rc = self._predict(corpus, ckpt, out)
        self._assert_clean_data_error(rc, capsys, out, message)

    @pytest.mark.parametrize("config, message", [
        ({"block_len": 0}, "block_len must be at least 1, got 0"),
        ({"block_len": -3}, "block_len must be at least 1, got -3"),
        ({"block_len": 29.5}, "block_len must be of type int, got 29.5"),
        ({"block_len": "29"}, "block_len must be of type int, got '29'"),
        ({"n_filters": 0}, "n_filters must be at least 1, got 0"),
        ({"hidden_size": 0}, "hidden_size must be at least 1, got 0"),
        ({"dense_sizes": [0]}, "dense_sizes must all be at least 1, got (0,)"),
    ])
    def test_malformed_model_config(self, corpus, tmp_path, capsys, config,
                                    message):
        # parameters of the shapes the config names, so only it is at fault
        sizes = {**asdict(ZERO_CFG), **config}
        shapes = model.param_shapes(SimpleNamespace(
            **sizes, conv_dim=sizes["n_filters"] * sizes["input_dim"]))
        ckpt = rewrite_checkpoint(
            zero_checkpoint(tmp_path / "zero.npz", separate=False),
            tmp_path / "checkpoint.npz", config=config,
            **{name: np.zeros(shape) for name, shape in shapes})
        out = tmp_path / "out"
        rc = self._predict(corpus, ckpt, out)
        self._assert_clean_data_error(rc, capsys, out, message)


class TestZeroWeightCheckpoint:
    def test_constant_half_posterior(self, corpus, tmp_path):
        wav = sorted((corpus / "audio").glob("*.wav"))[0]
        ckpt = zero_checkpoint(tmp_path / "zero.npz", separate=False)
        out = tmp_path / "pred.csv"
        rc = main(FAST + ["predict", str(wav), "--checkpoint", str(ckpt),
                          "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            posts = [float(r["posterior"]) for r in csv.DictReader(fh)]
        assert np.allclose(posts, 0.5)


class TestPipelineCommand:
    def test_runs_and_reports(self, corpus, tmp_path):
        out = tmp_path / "run1"
        rc = main(FAST + ["pipeline", "--audio-dir", str(corpus / "audio"),
                          "--label-dir", str(corpus / "labels"),
                          "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["pooled"]) >= {"accuracy", "precision", "recall",
                                         "f1", "tp", "tn", "fp", "fn"}
        assert report["config"]["folds"] == 2

    def test_byte_identical_reruns(self, corpus, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(FAST + ["pipeline",
                              "--audio-dir", str(corpus / "audio"),
                              "--label-dir", str(corpus / "labels"),
                              "--out-dir", str(out)])
            assert rc == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("sets, duration", [
        # separation, MFCC, training and median smoothing
        (("epochs=3",), 4.0),
        # no separation, MFCC, one epoch and HMM smoothing
        (("separate=false", "smoothing_method=hmm", "epochs=1"), 6.0),
    ], ids=["kfold-train", "kfold-hmm"])
    def test_report_bytes_do_not_follow_blas_threads(self, tmp_path, sets,
                                                     duration):
        # a k-fold benchmark workload's settings, each run in a fresh
        # interpreter
        write_corpus(tmp_path / "corpus", 5, seed=2, duration=duration)
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            proc = run_child(
                "-m", "svdet.cli", "--set", "folds=5",
                *(arg for s in sets for arg in ("--set", s)),
                "pipeline", "--audio-dir", str(tmp_path / "corpus" / "audio"),
                "--label-dir", str(tmp_path / "corpus" / "labels"),
                "--out-dir", str(out),
                env={var: threads for var in ("OPENBLAS_NUM_THREADS",
                                              "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS")})
            assert proc.returncode == 0, proc.stderr
            reports.append((out / "report.json").read_bytes())
        report = json.loads(reports[0])
        assert len(report["folds"]) == 5
        # both labels predicted, so the counts follow the posteriors
        assert report["pooled"]["tn"] > 0 and report["pooled"]["fp"] > 0
        assert reports[0] == reports[1]

    def test_empty_corpus_data_error(self, tmp_path):
        (tmp_path / "audio").mkdir()
        (tmp_path / "labels").mkdir()
        assert main(FAST + ["pipeline", "--audio-dir", str(tmp_path / "audio"),
                            "--label-dir", str(tmp_path / "labels"),
                            "--out-dir", str(tmp_path / "out")]) == 2


class TestShortClipFallback:
    def test_predict_on_2s_clip_uses_mixture(self, tmp_path, rng, caplog):
        wav = tmp_path / "short.wav"
        save_wav(wav, AudioClip(samples=0.3 * rng.standard_normal(32000)))
        ckpt = zero_checkpoint(tmp_path / "zero.npz", separate=True)
        out = tmp_path / "pred.csv"
        with caplog.at_level(logging.WARNING, logger="svdet"):
            rc = main(FAST + ["--set", "separate=true", "predict", str(wav),
                              "--checkpoint", str(ckpt), "--out", str(out)])
        assert rc == 0
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "short.wav" in warnings[0].getMessage()
        assert "unseparated" in warnings[0].getMessage()
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == (32000 - 640) // 320 + 1


# Per-key values that reach every config and training check without
# asking for long runs (epochs <= 2), plus garbage.
FUZZ_VALUES = {
    "separate": ["true", "false", "2"],
    "feature_tag": ["mfcc", "plp", "lpcc", "lpcc_mfcc_plp", "mfcc_plp", ""],
    "smoothing_method": ["median", "hmm", "none", "viterbi"],
    "median_window": ["9", "1", "2", "0", "-3", "1001"],
    "block_len": ["29", "5", "1", "0", "-1"],
    "train_stride": ["5", "1", "0"],
    "batch_size": ["32", "1", "0"],
    "n_filters": ["4", "1", "0", "-1"],
    "hidden_size": ["4", "2", "1", "0", "-2"],
    "dense_sizes": ["4", "4,2", "", "0", "-1"],
    "learning_rate": ["0.01", "0", "-1", "nan"],
    "epochs": ["1", "2", "0", "-2"],
    "patience": ["0", "3", "-3"],
    "seed": ["0", "3", "-1"],
}
OTHER_KEYS = sorted({f.name for f in fields(PipelineConfig)} - set(FUZZ_VALUES))
GARBAGE = st.one_of(st.sampled_from(["0", "-1", "nan", "inf", "1e300", "4,x"]),
                    st.text(alphabet="abc=,.-_ 0", max_size=4))
FUZZ_SETS = st.lists(
    st.one_of(
        st.sampled_from(sorted(FUZZ_VALUES)).flatmap(
            lambda k: st.one_of(st.sampled_from(FUZZ_VALUES[k]), GARBAGE)
            .map(lambda v: f"{k}={v}")),
        st.tuples(st.sampled_from(OTHER_KEYS), GARBAGE)
        .map(lambda kv: f"{kv[0]}={kv[1]}")),
    max_size=3)


@pytest.fixture(scope="module")
def fuzz_inputs(trained, tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(7)
    good = root / "good.wav"
    save_wav(good, AudioClip(samples=0.3 * rng.standard_normal(48000)))
    data = good.read_bytes()
    (root / "truncated.wav").write_bytes(data[:30])
    (root / "cut.wav").write_bytes(data[:-1])  # ends inside a sample
    (root / "garbage.wav").write_bytes(b"RIFF\x00\x01WAVEjunk" * 8)
    ckpt = (trained / "checkpoint.npz").read_bytes()
    (root / "good.npz").write_bytes(ckpt)
    (root / "truncated.npz").write_bytes(ckpt[: len(ckpt) // 3])
    (root / "garbage.npz").write_bytes(b"PK\x03\x04" + b"\x00" * 60)
    (root / "good.lab").write_text("0.0 1.5 sing\n1.5 3.0 nosing\n")
    (root / "garbage.lab").write_text("1.0 x\n")
    (root / "latin1.lab").write_bytes(b"# caf\xe9\n0.0 1.5 sing\n")
    (root / "nonfinite.lab").write_text("0.0 nan sing\n")
    # a one-clip corpus for train: garbage.wav above has a .lab beside it
    for sub, name in (("audio", "good.wav"), ("labels", "good.lab")):
        (root / "corpus" / sub).mkdir(parents=True)
        (root / "corpus" / sub / name).write_bytes((root / name).read_bytes())
    return root


class TestExitCodeFuzz:
    @settings(max_examples=100, deadline=None)
    @given(sets=FUZZ_SETS,
           command=st.sampled_from(["separate", "features", "train",
                                    "predict", "evaluate"]),
           wav=st.sampled_from(["good", "truncated", "cut", "garbage"]),
           ckpt=st.sampled_from(["good", "truncated", "garbage"]),
           lab=st.sampled_from(["good", "garbage", "latin1", "nonfinite"]))
    def test_main_returns_an_exit_code(self, fuzz_inputs, sets, command, wav,
                                       ckpt, lab):
        """Any config and any corrupted input ends in 0-3, never a raise."""
        root = fuzz_inputs
        # one epoch keeps a train example fast; a fuzzed epochs= overrides it
        argv = ((["--set", "epochs=1"] if command == "train" else [])
                + [a for kv in sets for a in ("--set", kv)] + [command])
        with tempfile.TemporaryDirectory(dir=root) as out:
            out = Path(out)
            argv += {
                "separate": [str(root / f"{wav}.wav"), "--out-dir", str(out)],
                "features": [str(root / f"{wav}.wav"), "--out",
                             str(out / "f.csv")],
                "train": ["--audio-dir", str(root / "corpus" / "audio"),
                          "--label-dir", str(root / "corpus" / "labels"),
                          "--out-dir", str(out)],
                "predict": [str(root / f"{wav}.wav"), "--checkpoint",
                            str(root / f"{ckpt}.npz"), "--out",
                            str(out / "p.csv"), "--label-out",
                            str(out / "p.lab")],
                "evaluate": ["--pred", str(root / f"{lab}.lab"), "--truth",
                             str(root / "good.lab"), "--out",
                             str(out / "r.json")],
            }[command]
            assert main(argv) in (0, 1, 2, 3)
