"""The svdet functions the traced run wraps, and what each should move.

Every entry names the end-to-end metric and workload a change to that
function should move, and the workloads whose timed part calls it.
The traced run requires a non-zero call count on exactly those
workloads and zero on the others, so a binding the tracer missed, or a
workload that stops exercising a layer, fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass

KFOLD_TRAIN = "kfold-train"
PREDICT_LONG = "predict-long"
KFOLD_HMM = "kfold-hmm"
ALL = (KFOLD_TRAIN, PREDICT_LONG, KFOLD_HMM)
KFOLD = (KFOLD_TRAIN, KFOLD_HMM)
SEPARATED = (KFOLD_TRAIN, PREDICT_LONG)


@dataclass(frozen=True)
class Layer:
    name: str          # "<module>.<function>" or "<module>.<counter>"
    moves: str         # end-to-end metric and workload it should move
    workloads: tuple   # workloads whose timed part touches it; zero elsewhere
    required: bool = True  # must be non-zero on those workloads


FUNCTIONS = (
    Layer("model.lrcn_backward",
          "wall_s on kfold-train; setup_s on predict-long; little on kfold-hmm",
          KFOLD),
    Layer("model.train_lrcn",
          "wall_s on kfold-train; setup_s on predict-long; little on kfold-hmm",
          KFOLD),
    Layer("model.forward_blocks",
          "call_p50_ms on predict-long; wall_s on kfold-hmm; wall_s on "
          "kfold-train (training and prediction forward passes)",
          ALL),
    Layer("model.predict_track",
          "call_p50_ms on predict-long; wall_s on kfold-hmm; small share of "
          "kfold-train",
          ALL),
    Layer("features.lpcc", "call_p50_ms on predict-long only", (PREDICT_LONG,)),
    Layer("features.plp", "call_p50_ms on predict-long only", (PREDICT_LONG,)),
    Layer("features.mfcc", "small share of every workload", ALL),
    Layer("features.blockify", "small share of every workload", ALL),
    Layer("separation.separate",
          "call_p50_ms on predict-long; small share of kfold-train; none on kfold-hmm",
          SEPARATED),
    Layer("separation.beat_spectrum",
          "call_p50_ms on predict-long; small share of kfold-train; none on kfold-hmm",
          SEPARATED),
    Layer("separation.estimate_period",
          "call_p50_ms on predict-long; small share of kfold-train; none on kfold-hmm",
          SEPARATED),
    Layer("separation.repet_mask",
          "call_p50_ms on predict-long; small share of kfold-train; none on kfold-hmm",
          SEPARATED),
    Layer("audio.istft",
          "call_p50_ms on predict-long; small share of kfold-train; none on kfold-hmm",
          SEPARATED),
    Layer("audio.stft", "call_p50_ms on predict-long; small share of k-fold", ALL),
    Layer("audio.frame_signal", "glue on every workload", ALL),
    Layer("audio.load_wav", "call_p50_ms on predict-long; small share of k-fold",
          ALL),
    Layer("smoothing.fit_hmm_gmm", "wall_s on kfold-hmm only", (KFOLD_HMM,)),
    Layer("smoothing.fit_gmm_1d", "wall_s on kfold-hmm only", (KFOLD_HMM,)),
    Layer("smoothing.viterbi_decode", "wall_s on kfold-hmm only", (KFOLD_HMM,)),
    Layer("smoothing.median_filter",
          "small share of kfold-train and predict-long", SEPARATED),
    Layer("pipeline.load_corpus", "parent: wall_s on k-fold workloads", KFOLD),
    Layer("pipeline.clip_features", "parent: every workload", ALL),
    Layer("pipeline.run_kfold", "parent: wall_s on k-fold workloads", KFOLD),
    Layer("evaluation.load_labels", "glue on k-fold workloads", KFOLD),
    Layer("evaluation.confusion_counts", "glue on k-fold workloads", KFOLD),
    Layer("cli.main", "parent of every call on every workload", ALL),
)

# Counters read from the traced calls' arguments and results. They must
# repeat exactly across runs with the same seed.
COUNTS = (
    Layer("model.epochs_run", "work behind wall_s on k-fold workloads", KFOLD),
    Layer("model.blocks_trained", "work behind wall_s on k-fold workloads",
          KFOLD),
    Layer("model.frames_predicted",
          "work behind call_p50_ms on predict-long and wall_s on kfold-hmm", ALL),
    Layer("smoothing.em_iters", "work behind wall_s on kfold-hmm",
          (KFOLD_HMM,)),
    Layer("smoothing.em_capped", "EM fits that stopped at em_max_iter",
          (KFOLD_HMM,), required=False),
    Layer("features.degenerate_frames",
          "LPC/PLP frames zeroed for a singular autocorrelation",
          (PREDICT_LONG,), required=False),
)
