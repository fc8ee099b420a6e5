import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svdet import cli, evaluation
from svdet.audio import frame_times
from svdet.cli import main
from svdet.errors import DataError
from svdet.evaluation import (MAX_LABEL_SECONDS, Segment, confusion_counts,
                              kfold_split, load_labels, metrics,
                              parse_label_file, pooled_report, save_labels)
from svdet.tracks import LabelTrack

FRAMES_2S = 99


def track(labels):
    return LabelTrack(labels=np.asarray(labels, dtype=np.int8))


class TestParseLabelFile:
    def test_basic_file(self, tmp_path):
        p = tmp_path / "a.lab"
        p.write_text("0.0 1.0 sing\n1.0 2.0 nosing\n")
        segs = parse_label_file(p)
        assert segs == [Segment(0.0, 1.0, 1), Segment(1.0, 2.0, 0)]

    def test_numeric_tokens(self, tmp_path):
        p = tmp_path / "a.lab"
        p.write_text("0 1 1\n1 2 0\n")
        assert [s.label for s in parse_label_file(p)] == [1, 0]

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "a.lab"
        p.write_text("# header\n\n0.5 1.5 sing\n")
        assert parse_label_file(p) == [Segment(0.5, 1.5, 1)]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "a.lab"
        p.write_text("")
        assert parse_label_file(p) == []

    def test_non_monotone_segment(self, tmp_path):
        p = tmp_path / "a.lab"
        p.write_text("1.0 0.5 sing\n")
        with pytest.raises(DataError, match="non-monotone"):
            parse_label_file(p)

    def test_overlapping_segments(self, tmp_path):
        p = tmp_path / "a.lab"
        p.write_text("0.0 1.0 sing\n0.5 2.0 nosing\n")
        with pytest.raises(DataError, match="overlap"):
            parse_label_file(p)

    def test_bad_label_reports_line(self, tmp_path):
        p = tmp_path / "a.lab"
        p.write_text("0.0 1.0 sing\n1.0 2.0 speech\n")
        with pytest.raises(DataError, match=":2:"):
            parse_label_file(p)

    def test_bad_time_reports_line(self, tmp_path):
        p = tmp_path / "a.lab"
        p.write_text("zero 1.0 sing\n")
        with pytest.raises(DataError, match=":1:"):
            parse_label_file(p)

    def test_not_utf8_names_the_file(self, tmp_path):
        p = tmp_path / "a.lab"
        p.write_bytes(b"# caf\xe9\n0.0 1.0 sing\n")
        with pytest.raises(DataError, match=r"a\.lab: not UTF-8 text"):
            parse_label_file(p)

    def test_not_utf8_evaluate_exits_2(self, tmp_path, capsys):
        pred, truth = tmp_path / "pred.lab", tmp_path / "truth.lab"
        pred.write_bytes(b"# caf\xe9\n0.0 1.0 sing\n")
        truth.write_text("0.0 1.0 sing\n")
        out = tmp_path / "r.json"
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {pred}: not UTF-8 text")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("line", ["0.0 nan sing", "0 inf sing",
                                      "-inf 1.0 nosing", "nan nan sing"])
    def test_non_finite_time(self, tmp_path, line):
        p = tmp_path / "a.lab"
        p.write_text(f"0.0 0.5 nosing\n{line}\n")
        with pytest.raises(DataError, match=r"a\.lab:2: non-finite time"):
            parse_label_file(p)

    @pytest.mark.parametrize("end", ["nan", "inf"])
    def test_non_finite_evaluate_exits_2(self, tmp_path, capsys, end):
        pred, truth = tmp_path / "pred.lab", tmp_path / "truth.lab"
        pred.write_text(f"0 {end} sing\n")
        truth.write_text("0.0 1.0 sing\n")
        out = tmp_path / "r.json"
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: data: {pred}:1: non-finite time\n"
        assert not out.exists()

    def test_time_at_the_bound_parses(self, tmp_path):
        p = tmp_path / "a.lab"
        p.write_text(f"0 {MAX_LABEL_SECONDS} sing\n")
        assert parse_label_file(p) == [Segment(0.0, MAX_LABEL_SECONDS, 1)]

    @pytest.mark.parametrize("end", [
        "1e300", str(float(np.nextafter(MAX_LABEL_SECONDS, np.inf)))])
    def test_time_past_the_bound_exits_2(self, tmp_path, capsys, monkeypatch,
                                         end):
        # refused while parsing, before a frame count or array is made
        def no_frames(*args):
            raise AssertionError("frames made before the labels were checked")

        monkeypatch.setattr(cli, "frame_count", no_frames)
        monkeypatch.setattr(evaluation, "frame_times", no_frames)
        pred = tmp_path / "pred.lab"
        pred.write_text(f"0.0 1.0 nosing\n1.0 {end} sing\n")
        out = tmp_path / "r.json"
        assert main(["evaluate", "--pred", str(pred), "--truth", str(pred),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: data: {pred}:2: time {float(end)} s is past "
                       f"the 86400 s bound\n")
        assert not out.exists()


class TestLoadLabels:
    def test_first_second_vocal(self, tmp_path):
        p = tmp_path / "a.lab"
        p.write_text("0.0 1.0 sing\n")
        lab = load_labels(p, FRAMES_2S)
        centers = frame_times(FRAMES_2S)
        assert np.array_equal(lab.labels, (centers < 1.0).astype(np.int8))

    def test_empty_file_all_nonvocal(self, tmp_path):
        p = tmp_path / "a.lab"
        p.write_text("")
        assert np.all(load_labels(p, FRAMES_2S).labels == 0)

    def test_uncovered_time_defaults_nonvocal(self, tmp_path):
        p = tmp_path / "a.lab"
        p.write_text("1.5 1.8 sing\n")
        lab = load_labels(p, FRAMES_2S)
        centers = frame_times(FRAMES_2S)
        expect = ((centers >= 1.5) & (centers < 1.8)).astype(np.int8)
        assert np.array_equal(lab.labels, expect)

    @given(seed=st.integers(0, 3000))
    @settings(max_examples=30, deadline=None)
    def test_save_load_roundtrip(self, seed, tmp_path_factory):
        r = np.random.default_rng(seed)
        labels = r.integers(0, 2, 60).astype(np.int8)
        t = track(labels)
        path = tmp_path_factory.mktemp("rt") / "a.lab"
        save_labels(path, t)
        back = load_labels(path, len(labels))
        assert np.array_equal(back.labels, labels)


def loop_save_labels(path, track):
    """The per-frame run scan save_labels replaced, kept as its reference."""
    labels = track.labels
    centers = frame_times(len(labels))
    hop_s = 320 / 16000
    lines = []
    i = 0
    while i < len(labels):
        j = i
        while j + 1 < len(labels) and labels[j + 1] == labels[i]:
            j += 1
        token = "sing" if labels[i] == 1 else "nosing"
        lines.append(f"{centers[i] - hop_s / 2:.6f} "
                     f"{centers[j] + hop_s / 2:.6f} {token}")
        i = j + 1
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


class TestSaveLabels:
    @pytest.mark.parametrize("p_vocal", [0.02, 0.5, 0.98])
    def test_matches_loop_reference_bytes(self, tmp_path, p_vocal):
        r = np.random.default_rng(int(p_vocal * 100))
        lengths = [0, 1, 2, 999] + list(r.integers(3, 3001, size=12))
        for n in lengths:
            t = track((r.random(n) < p_vocal).astype(np.int8))
            save_labels(tmp_path / "got.lab", t)
            loop_save_labels(tmp_path / "want.lab", t)
            assert ((tmp_path / "got.lab").read_bytes()
                    == (tmp_path / "want.lab").read_bytes()), n


class TestConfusionAndMetrics:
    def test_hand_counts(self):
        pred = track([1, 1, 0, 0, 1, 0])
        truth = track([1, 0, 0, 1, 1, 0])
        assert confusion_counts(pred, truth) == (2, 2, 1, 1)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            confusion_counts(track([1, 0]), track([1]))

    def test_perfect_prediction(self):
        t = track([1, 0, 1, 1, 0])
        rep = metrics(confusion_counts(t, t))
        assert rep.accuracy == rep.precision == rep.recall == rep.f1 == 1.0
        assert rep.zero_division_flags == []

    def test_published_operating_point(self):
        # P = 0.865, R = 0.920 implies F1 = 0.892 (harmonic mean)
        tp = 865 * 920
        fp = round(tp / 0.865) - tp
        fn = round(tp / 0.920) - tp
        rep = metrics((tp, 0, fp, fn))
        assert rep.precision == pytest.approx(0.865, abs=1e-6)
        assert rep.recall == pytest.approx(0.920, abs=1e-6)
        assert rep.f1 == pytest.approx(0.892, abs=1e-3)

    def test_zero_division_flags(self):
        rep = metrics((0, 10, 0, 0))
        assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0
        assert set(rep.zero_division_flags) == {"precision", "recall", "f1"}
        assert rep.accuracy == 1.0

    def test_all_wrong(self):
        pred = track([1, 1, 0, 0])
        truth = track([0, 0, 1, 1])
        rep = metrics(confusion_counts(pred, truth))
        assert rep.accuracy == 0.0
        assert rep.f1 == 0.0

    def test_zero_total_error(self):
        with pytest.raises(DataError):
            metrics((0, 0, 0, 0))

    @given(tp=st.integers(0, 50), tn=st.integers(0, 50),
           fp=st.integers(0, 50), fn=st.integers(0, 50))
    @settings(max_examples=100, deadline=None)
    def test_swap_symmetry(self, tp, tn, fp, fn):
        if tp + tn + fp + fn == 0:
            return
        rep = metrics((tp, tn, fp, fn))
        swapped = metrics((tp, tn, fn, fp))  # swapping pred/truth swaps fp/fn
        assert rep.accuracy == swapped.accuracy
        assert rep.precision == swapped.recall
        assert rep.recall == swapped.precision
        assert 0.0 <= rep.f1 <= 1.0


class TestPooledReport:
    def test_micro_average_is_count_sum(self):
        counts = {"a": (5, 3, 1, 1), "b": (2, 6, 2, 0)}
        rep = pooled_report(counts)
        assert (rep.tp, rep.tn, rep.fp, rep.fn) == (7, 9, 3, 1)
        direct = metrics((7, 9, 3, 1))
        assert rep.f1 == direct.f1

    def test_macro_mean_row(self):
        counts = {"a": (10, 0, 0, 0), "b": (0, 10, 0, 0)}
        rep = pooled_report(counts)
        mean = rep.per_file["__mean__"]
        assert mean["accuracy"] == 1.0
        assert mean["f1"] == pytest.approx(0.5)  # file b flags f1 to 0

    def test_json_is_deterministic(self):
        counts = {"b": (1, 2, 3, 4), "a": (4, 3, 2, 1)}
        assert pooled_report(counts).to_json() == \
            pooled_report(dict(reversed(list(counts.items())))).to_json()


class TestKfold:
    def test_ten_items_five_folds(self):
        folds = kfold_split(list(range(10)), k=5, seed=0)
        assert len(folds) == 5
        assert all(len(f) == 2 for f in folds)
        assert sorted(x for f in folds for x in f) == list(range(10))

    def test_same_seed_deterministic(self):
        a = kfold_split(list("abcdefgh"), k=3, seed=42)
        b = kfold_split(list("abcdefgh"), k=3, seed=42)
        assert a == b

    def test_different_seed_differs(self):
        items = list(range(30))
        assert kfold_split(items, k=5, seed=1) != kfold_split(items, k=5, seed=2)

    def test_too_few_items(self):
        with pytest.raises(DataError):
            kfold_split([1, 2, 3], k=5, seed=0)

    @pytest.mark.parametrize("k", [0, 1])
    def test_fewer_than_two_folds(self, k):
        with pytest.raises(DataError, match="at least 2 folds"):
            kfold_split([1, 2, 3], k=k, seed=0)

    @given(n=st.integers(5, 40), k=st.integers(2, 5), seed=st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, n, k, seed):
        if n < k:
            return
        folds = kfold_split(list(range(n)), k=k, seed=seed)
        flat = sorted(x for f in folds for x in f)
        assert flat == list(range(n))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
