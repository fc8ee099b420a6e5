"""Temporal smoothing of frame-wise voicing posteriors.

Two methods: a binary median filter over a fixed odd window, and a
two-state HMM whose per-state observation densities are 1-D Gaussian
mixtures over the classifier posterior, decoded with Viterbi.
State order is fixed: 0 = non-vocal, 1 = vocal (ties fall to 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .tracks import LabelTrack, PredictionTrack

DEFAULT_VAR_FLOOR = 1e-4
WEIGHT_FLOOR = 1e-8
LOG_EPS = 1e-300


def _log_components(x, weights, means, variances) -> np.ndarray:
    """(N, K) log weight plus log Gaussian density of each component at x."""
    return (np.log(np.maximum(weights, LOG_EPS))[None, :]
            - 0.5 * np.log(2.0 * np.pi * variances)[None, :]
            - 0.5 * (x[:, None] - means[None, :]) ** 2 / variances[None, :])


def _shifted_exp(log_comp: np.ndarray):
    """(e, top): exp(log_comp - top) for top each row's max, or 0 where
    that max is not finite. log(e.sum(axis=1)) + top is the row's
    log-sum-exp, and -inf for a row of -inf."""
    top = log_comp.max(axis=1)
    top[~np.isfinite(top)] = 0.0
    return np.exp(log_comp - top[:, None]), top


@dataclass(frozen=True)
class Gmm1d:
    """One-dimensional Gaussian mixture."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise DataError("mixture weights must sum to 1")
        if np.any(self.variances <= 0.0):
            raise DataError("variances must be positive")

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        e, top = _shifted_exp(_log_components(x, self.weights, self.means,
                                              self.variances))
        with np.errstate(divide="ignore"):
            return np.log(e.sum(axis=1)) + top


@dataclass(frozen=True)
class HmmGmmModel:
    """Two-state HMM with GMM observation densities over the posterior."""

    initial: np.ndarray          # (2,)
    transition: np.ndarray       # (2, 2), rows sum to 1
    observation: tuple           # (Gmm1d non-vocal, Gmm1d vocal)
    degenerate_states: tuple = ()

    def __post_init__(self):
        if np.any(np.abs(self.transition.sum(axis=1) - 1.0) > 1e-9):
            raise DataError("transition rows must sum to 1")


SMOOTHING_METHODS = ("none", "median", "hmm")


def median_filter(track: PredictionTrack, window: int) -> LabelTrack:
    """Threshold at 0.5, then sliding binary median with edge replication."""
    if window % 2 == 0 or window < 1:
        raise DataError("median window must be odd and >= 1")
    binary = track.binarize().labels.astype(np.float64)
    # past the track length, every wider window gives the same labels
    half = min(window // 2, len(binary))
    padded = np.pad(binary, half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)
    smoothed = (windows.mean(axis=1) > 0.5).astype(np.int8)
    return LabelTrack(labels=smoothed)


# ---------------------------------------------------------------------------
# GMM fitting (EM)

def fit_gmm_1d(x: np.ndarray, n_components: int, max_iter: int = 200,
               tol: float = 1e-6):
    """EM fit of a 1-D GMM; means initialized at data quantiles.

    Returns (Gmm1d, log-likelihood history, degenerate flag). The
    variance floor DEFAULT_VAR_FLOOR acts as a constrained M-step, so the
    observed log-likelihood stays non-decreasing.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(x) < n_components:
        raise DataError(f"{len(x)} samples < {n_components} components")
    means = np.quantile(x, (np.arange(n_components) + 0.5) / n_components)
    var0 = max(np.var(x), DEFAULT_VAR_FLOOR)
    variances = np.full(n_components, var0)
    weights = np.full(n_components, 1.0 / n_components)
    degenerate = np.var(x) < DEFAULT_VAR_FLOOR
    ll_history = []
    for _ in range(max_iter):
        resp, top = _shifted_exp(_log_components(x, weights, means,
                                                 variances))
        total = resp.sum(axis=1)
        ll = float(np.sum(np.log(total) + top))
        resp /= total[:, None]
        nk = resp.sum(axis=0)
        alive = nk > 0.0
        weights = nk / len(x)
        means = np.where(alive, resp.T @ x / np.maximum(nk, LOG_EPS), means)
        sq = resp.T @ (x ** 2)
        variances = np.where(
            alive,
            np.maximum(sq / np.maximum(nk, LOG_EPS) - means ** 2,
                       DEFAULT_VAR_FLOOR),
            variances,
        )
        if ll_history and ll - ll_history[-1] < tol * max(1.0, abs(ll)):
            ll_history.append(ll)
            break
        ll_history.append(ll)
    # numerical cleanup after convergence: floor tiny weights, renormalize
    weights = np.maximum(weights, WEIGHT_FLOOR)
    weights = weights / weights.sum()
    return Gmm1d(weights=weights, means=means, variances=variances), \
        ll_history, bool(degenerate)


def fit_hmm_gmm(tracks, labels, n_components: int) -> HmmGmmModel:
    """Transitions/initials by ML counts; per-state GMMs by EM."""
    if len(tracks) != len(labels) or not tracks:
        raise DataError("need matching, non-empty track and label lists")
    counts = np.zeros((2, 2))
    init_counts = np.zeros(2)
    obs = [[], []]
    for track, lab in zip(tracks, labels):
        seq = lab.labels.astype(int)
        init_counts[seq[0]] += 1
        np.add.at(counts, (seq[:-1], seq[1:]), 1)
        for s in (0, 1):
            obs[s].append(track.posteriors[seq == s])
    samples = [np.concatenate(o) for o in obs]
    for s in (0, 1):
        if len(samples[s]) < n_components:
            raise DataError(
                f"state {s} has {len(samples[s])} samples < "
                f"{n_components} mixture components"
            )
    row_sums = counts.sum(axis=1, keepdims=True)
    transition = np.where(row_sums > 0, counts / np.maximum(row_sums, 1.0),
                          0.5)
    initial = (init_counts / init_counts.sum()) if init_counts.sum() else \
        np.array([0.5, 0.5])
    mixtures = []
    degenerate = []
    for s in (0, 1):
        gmm, _, degen = fit_gmm_1d(samples[s], n_components)
        mixtures.append(gmm)
        if degen:
            degenerate.append(s)
    return HmmGmmModel(initial=initial, transition=transition,
                       observation=tuple(mixtures),
                       degenerate_states=tuple(degenerate))


def viterbi_decode(model: HmmGmmModel, track: PredictionTrack) -> LabelTrack:
    """Max-probability state path in log space; ties go to non-vocal."""
    x = track.posteriors
    if len(x) == 0:
        raise DataError("empty track")
    loglik = np.stack([model.observation[s].log_pdf(x) for s in (0, 1)],
                      axis=1)  # (T, 2)
    if not np.all(np.isfinite(loglik.max(axis=1))):
        raise DataError("observation has zero likelihood under both states")
    log_init = np.log(np.maximum(model.initial, LOG_EPS))
    log_a = np.log(np.maximum(model.transition, LOG_EPS))
    # Two states: the recursion runs on Python floats, which takes a fifth
    # of the time of 2-element arrays. Each candidate is delta[j] +
    # log_a[j][s], and a strict > breaks ties toward state 0, as argmax does.
    (a00, a01), (a10, a11) = log_a.tolist()
    d0, d1 = (log_init + loglik[0]).tolist()
    back = []  # back[t - 1]: best predecessor of states 0 and 1 at step t
    for l0, l1 in loglik[1:].tolist():
        c00, c10, c01, c11 = d0 + a00, d1 + a10, d0 + a01, d1 + a11
        from1_to0, from1_to1 = c10 > c00, c11 > c01
        d0 = (c10 if from1_to0 else c00) + l0
        d1 = (c11 if from1_to1 else c01) + l1
        back.append((from1_to0, from1_to1))
    s = d1 > d0
    path = [s]
    for pair in reversed(back):
        s = pair[s]
        path.append(s)
    return LabelTrack(labels=np.array(path[::-1], dtype=np.int8))


def smooth(track: PredictionTrack, method: str, median_window: int,
           model: HmmGmmModel | None = None) -> LabelTrack:
    """Apply a method of SMOOTHING_METHODS to a posterior track."""
    if method == "none":
        return track.binarize()
    if method == "median":
        return median_filter(track, median_window)
    if method != "hmm":
        raise DataError(f"unknown smoothing method {method!r}")
    if model is None:
        raise DataError("hmm smoothing requires a fitted model")
    return viterbi_decode(model, track)
