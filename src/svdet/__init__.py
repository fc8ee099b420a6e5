"""Frame-wise singing voice detection toolkit.

Pipeline stages: repeating-pattern vocal separation, MFCC/LPCC/PLP
feature extraction, a convolutional-LSTM block classifier, and
median/HMM temporal smoothing, plus the evaluation harness.
"""

from .audio import AudioClip, FrameGrid, Spectrogram, frame_signal, istft, \
    load_wav, save_wav, stft
from .errors import DataError, DivergenceError
from .evaluation import EvalReport, confusion_counts, kfold_split, \
    load_labels, metrics
from .features import FeatureMatrix, NormStats, apply_norm, blockify, \
    fit_norm_stats, lpcc, mfcc, plp
from .model import LrcnConfig, lrcn_backward, lrcn_cell_step, predict_track, \
    train_lrcn
from .separation import beat_spectrum, estimate_period, repet_mask, separate
from .smoothing import HmmGmmModel, fit_hmm_gmm, median_filter, \
    viterbi_decode
from .tracks import LabelTrack, PredictionTrack

__version__ = "0.1.0"
