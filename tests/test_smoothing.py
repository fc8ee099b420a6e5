import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from svdet.errors import DataError
from svdet.pipeline import PipelineConfig
from svdet.smoothing import (DEFAULT_VAR_FLOOR, LOG_EPS, WEIGHT_FLOOR, Gmm1d,
                             HmmGmmModel, fit_gmm_1d, fit_hmm_gmm,
                             median_filter, smooth, viterbi_decode)
from svdet.tracks import LabelTrack, PredictionTrack


def make_track(posteriors):
    return PredictionTrack(posteriors=np.asarray(posteriors, dtype=np.float64))


def make_labels(labels):
    return LabelTrack(labels=np.asarray(labels, dtype=np.int8))


class TestPredictionTrack:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.1])
    def test_rejects_non_finite_or_out_of_range(self, bad):
        with pytest.raises(DataError):
            make_track([0.2, bad, 0.7])

    def test_accepts_bounds(self):
        assert make_track([0.0, 1.0]).binarize().labels.tolist() == [0, 1]


class TestMedianFilter:
    def test_window3_hand_example(self):
        track = make_track([0.1, 0.9, 0.2, 0.3, 0.8, 0.7, 0.6, 0.4])
        out = median_filter(track, window=3)
        assert out.labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 0]

    def test_constant_track_unchanged(self):
        for v in (0.9, 0.1):
            track = make_track(np.full(200, v))
            out = median_filter(track, window=87)
            assert np.all(out.labels == (1 if v >= 0.5 else 0))

    def test_isolated_flip_removed_default_window(self):
        post = np.full(300, 0.2)
        post[150] = 0.95
        out = median_filter(make_track(post), window=87)
        assert np.all(out.labels == 0)

    def test_long_runs_preserved(self):
        # runs of >= 44 frames survive an 87-frame median
        post = np.concatenate([np.full(100, 0.1), np.full(60, 0.9),
                               np.full(100, 0.1)])
        out = median_filter(make_track(post), window=87)
        assert np.all(out.labels[110:150] == 1)
        assert np.all(out.labels[:50] == 0)
        assert np.all(out.labels[-50:] == 0)

    def test_depends_only_on_thresholded_labels(self, rng):
        post = rng.uniform(0.0, 1.0, 150)
        # squash posteriors toward the threshold without crossing it
        squashed = 0.5 + 0.1 * (post - 0.5)
        a = median_filter(make_track(post), window=21)
        b = median_filter(make_track(squashed), window=21)
        assert np.array_equal(a.labels, b.labels)

    def test_even_window_error(self):
        with pytest.raises(DataError):
            median_filter(make_track(np.zeros(10)), window=4)

    @given(seed=st.integers(0, 5000), window=st.sampled_from([1, 3, 5, 9]))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed, window):
        r = np.random.default_rng(seed)
        post = r.uniform(0.0, 1.0, 40)
        out = median_filter(make_track(post), window=window)
        binary = (post >= 0.5).astype(int)
        half = window // 2
        padded = np.pad(binary, half, mode="edge")
        expect = [int(np.median(padded[i : i + window]) > 0.5)
                  for i in range(40)]
        assert out.labels.tolist() == expect


def sliding_median(post, window):
    """Reference: the sliding form, whose pad grows with the window."""
    binary = (np.asarray(post) >= 0.5).astype(np.float64)
    padded = np.pad(binary, window // 2, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, window)
    return (windows.mean(axis=1) > 0.5).astype(np.int8)


class TestMedianWindowCap:
    def test_equals_sliding_form(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 30))
            post = rng.uniform(0.0, 1.0, n)
            if rng.random() < 0.3:
                post[[0, -1]] = rng.choice([0.1, 0.9])  # equal ends
            for window in (1, 3, 2 * n - 1, 2 * n + 1, 2 * n + 3, 4 * n + 7):
                got = median_filter(make_track(post), window=window).labels
                assert np.array_equal(got, sliding_median(post, window)), \
                    (n, window)

    def test_huge_window_is_the_track_wide_window(self, rng):
        # the sliding form pads 10**21 // 2 frames: np.pad cannot
        post = rng.uniform(0.0, 1.0, 999)
        got = median_filter(make_track(post), window=10**21 + 1).labels
        assert np.array_equal(got, sliding_median(post, 2 * 999 + 1))


def log_densities(x, means, variances):
    """(N, K) log Gaussian density of each component, without weights."""
    return (-0.5 * np.log(2.0 * np.pi * variances)[None, :]
            - 0.5 * (x[:, None] - means[None, :]) ** 2 / variances[None, :])


class TestLogPdf:
    def check(self, gmm, x):
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(divide="ignore", over="ignore"):
            want = logsumexp(log_densities(x, gmm.means, gmm.variances),
                             axis=1, b=gmm.weights[None, :])
            got = gmm.log_pdf(x)
        # the log within 1e-12 absolute is the density within 1e-12 relative;
        # near a log of 0 a relative bound on the log itself would be noise
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        return got

    def test_matches_scipy(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 8))
            w = rng.uniform(0.0, 1.0, k)
            gmm = Gmm1d(weights=w / w.sum(), means=rng.uniform(0.0, 1.0, k),
                        variances=rng.uniform(1e-3, 0.5, k))
            self.check(gmm, rng.uniform(-0.5, 1.5, 50))

    def test_zero_weights(self, rng):
        gmm = Gmm1d(weights=np.array([0.0, 0.6, 0.0, 0.4]),
                    means=np.array([0.1, 0.3, 0.5, 0.9]),
                    variances=np.array([0.02, 0.05, 0.01, 0.1]))
        self.check(gmm, rng.uniform(0.0, 1.0, 200))

    def test_tied_maxima(self, rng):
        # identical components tie for every row's maximum
        gmm = Gmm1d(weights=np.array([0.25, 0.25, 0.5]),
                    means=np.array([0.4, 0.4, 0.4]),
                    variances=np.array([0.03, 0.03, 0.03]))
        self.check(gmm, np.round(rng.uniform(0.0, 1.0, 200), 1))

    def test_rows_of_minus_inf(self):
        # point masses: every component is -inf away from 0 and 1
        spikes = Gmm1d(weights=np.array([0.5, 0.5]),
                       means=np.array([0.0, 1.0]),
                       variances=np.array([1e-320, 1e-320]))
        got = self.check(spikes, [0.0, 0.5, 1.0, 0.25])
        assert np.isfinite(got[[0, 2]]).all()
        assert np.isneginf(got[[1, 3]]).all()


def reference_em(x, n_components, max_iter=200, tol=1e-6):
    """EM on scipy's logsumexp; fit_gmm_1d's initialization and M-step."""
    means = np.quantile(x, (np.arange(n_components) + 0.5) / n_components)
    variances = np.full(n_components, max(np.var(x), DEFAULT_VAR_FLOOR))
    weights = np.full(n_components, 1.0 / n_components)
    ll_history = []
    for _ in range(max_iter):
        log_comp = (np.log(np.maximum(weights, LOG_EPS))
                    + log_densities(x, means, variances))
        log_norm = logsumexp(log_comp, axis=1)
        ll = float(log_norm.sum())
        resp = np.exp(log_comp - log_norm[:, None])
        nk = resp.sum(axis=0)
        alive = nk > 0.0
        weights = nk / len(x)
        safe_nk = np.maximum(nk, LOG_EPS)
        means = np.where(alive, resp.T @ x / safe_nk, means)
        variances = np.where(alive, np.maximum(
            resp.T @ (x ** 2) / safe_nk - means ** 2, DEFAULT_VAR_FLOOR),
            variances)
        ll_history.append(ll)
        if len(ll_history) > 1 and \
                ll - ll_history[-2] < tol * max(1.0, abs(ll)):
            break
    weights = np.maximum(weights, WEIGHT_FLOOR)
    return weights / weights.sum(), means, variances, ll_history


class TestFitGmm:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scipy_reference(self, seed):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(0.0, 1.0, 3)
        x = np.concatenate([rng.normal(c, rng.uniform(0.02, 0.2), 300)
                            for c in centers])
        for k in (1, 4, 15):
            gmm, ll, _ = fit_gmm_1d(x, n_components=k)
            weights, means, variances, want_ll = reference_em(x, k)
            assert len(ll) == len(want_ll), k
            np.testing.assert_allclose(ll, want_ll, rtol=1e-12)
            for got, want in ((gmm.weights, weights), (gmm.means, means),
                              (gmm.variances, variances)):
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    def test_loglik_monotone(self, rng):
        x = np.concatenate([rng.normal(0.2, 0.05, 500),
                            rng.normal(0.8, 0.1, 500)])
        _, ll, _ = fit_gmm_1d(x, n_components=5)
        diffs = np.diff(ll)
        assert np.all(diffs >= -1e-9)

    def test_weights_sum_to_one(self, rng):
        x = rng.uniform(0.0, 1.0, 400)
        gmm, _, _ = fit_gmm_1d(x, n_components=8)
        assert abs(gmm.weights.sum() - 1.0) < 1e-12
        assert np.all(gmm.weights > 0.0)
        assert np.all(gmm.variances > 0.0)

    def test_single_component_recovers_moments(self, rng):
        x = rng.normal(0.4, 0.1, 10_000)
        gmm, _, _ = fit_gmm_1d(x, n_components=1)
        assert abs(gmm.means[0] - x.mean()) < 0.05
        assert abs(gmm.variances[0] - x.var()) < 0.01

    def test_degenerate_constant_data_flagged(self):
        gmm, _, degenerate = fit_gmm_1d(np.full(100, 0.5), n_components=3)
        assert degenerate
        assert np.all(np.isfinite(gmm.means))
        assert np.all(gmm.variances >= 1e-4)

    def test_too_few_samples(self):
        with pytest.raises(DataError):
            fit_gmm_1d(np.zeros(4), n_components=5)

    def test_log_pdf_integrates_to_one(self, rng):
        x = rng.uniform(0.0, 1.0, 300)
        gmm, _, _ = fit_gmm_1d(x, n_components=3)
        grid = np.linspace(-5.0, 6.0, 200_001)
        mass = np.trapezoid(np.exp(gmm.log_pdf(grid)), grid)
        assert mass == pytest.approx(1.0, abs=1e-3)


class TestFitHmm:
    def _toy_corpus(self, rng):
        tracks, labels = [], []
        for _ in range(4):
            lab = np.repeat([0, 1, 0, 1], 60)
            post = np.where(lab == 1, rng.uniform(0.6, 0.95, len(lab)),
                            rng.uniform(0.05, 0.4, len(lab)))
            tracks.append(make_track(post))
            labels.append(make_labels(lab))
        return tracks, labels

    def test_transition_counts(self):
        lab = np.array([0, 0, 1, 1, 1, 0])
        track = make_track(np.where(lab == 1, 0.9, 0.1))
        model = fit_hmm_gmm([track], [make_labels(lab)], n_components=1)
        # transitions observed: 0->0, 0->1, 1->1, 1->1, 1->0
        assert model.transition[0] == pytest.approx([0.5, 0.5])
        assert model.transition[1] == pytest.approx([1 / 3, 2 / 3])
        assert model.initial.tolist() == [1.0, 0.0]

    def test_too_few_state_samples(self):
        lab = np.array([0] * 50 + [1] * 2)
        track = make_track(np.where(lab == 1, 0.9, 0.1))
        with pytest.raises(DataError):
            fit_hmm_gmm([track], [make_labels(lab)], n_components=5)

    def test_decoding_recovers_clean_labels(self, rng):
        tracks, labels = self._toy_corpus(rng)
        model = fit_hmm_gmm(tracks, labels, n_components=3)
        decoded = viterbi_decode(model, tracks[0])
        agree = np.mean(decoded.labels == labels[0].labels)
        assert agree > 0.95


def uniform_gmm():
    # broad single Gaussian; effectively uninformative over [0, 1]
    return Gmm1d(weights=np.array([1.0]), means=np.array([0.5]),
                 variances=np.array([100.0]))


def array_viterbi(model, x):
    """Reference: the recursion on 2-element arrays, argmax's tie-break.
    Returns (path, count of exact ties between the two predecessors)."""
    loglik = np.stack([model.observation[s].log_pdf(x) for s in (0, 1)],
                      axis=1)
    log_init = np.log(np.maximum(model.initial, LOG_EPS))
    log_a = np.log(np.maximum(model.transition, LOG_EPS))
    T = len(x)
    delta = np.empty((T, 2))
    psi = np.zeros((T, 2), dtype=np.int8)
    delta[0] = log_init + loglik[0]
    ties = 0
    for t in range(1, T):
        cand = delta[t - 1][:, None] + log_a
        ties += int(np.sum(cand[0] == cand[1]))
        psi[t] = cand.argmax(axis=0)
        delta[t] = cand.max(axis=0) + loglik[t]
    path = np.empty(T, dtype=np.int8)
    path[-1] = delta[-1].argmax()
    for t in range(T - 2, -1, -1):
        path[t] = psi[t + 1][path[t + 1]]
    return path, ties


class TestViterbi:
    def _random_model(self, rng):
        def rand_gmm():
            k = 2
            w = rng.uniform(0.2, 1.0, k)
            return Gmm1d(weights=w / w.sum(),
                         means=rng.uniform(0.0, 1.0, k),
                         variances=rng.uniform(0.01, 0.3, k))
        t = rng.uniform(0.1, 0.9, (2, 2))
        t = t / t.sum(axis=1, keepdims=True)
        init = rng.uniform(0.1, 0.9, 2)
        return HmmGmmModel(initial=init / init.sum(), transition=t,
                           observation=(rand_gmm(), rand_gmm()))

    def _path_logprob(self, model, x, path):
        lp = np.log(model.initial[path[0]])
        lp += float(model.observation[path[0]].log_pdf(x[:1])[0])
        for t in range(1, len(x)):
            lp += np.log(model.transition[path[t - 1], path[t]])
            lp += float(model.observation[path[t]].log_pdf(x[t : t + 1])[0])
        return lp

    def test_matches_exhaustive_search(self, rng):
        for trial in range(20):
            model = self._random_model(rng)
            T = int(rng.integers(2, 8))
            x = rng.uniform(0.0, 1.0, T)
            decoded = viterbi_decode(model, make_track(x)).labels
            best_lp, best_path = -np.inf, None
            for path in itertools.product((0, 1), repeat=T):
                lp = self._path_logprob(model, x, path)
                if lp > best_lp + 1e-12:
                    best_lp, best_path = lp, path
            assert self._path_logprob(model, x, decoded) \
                == pytest.approx(best_lp, abs=1e-9)
            assert tuple(decoded) == best_path

    def test_matches_array_recursion(self, rng):
        for _ in range(50):
            model = self._random_model(rng)
            x = rng.uniform(0.0, 1.0, int(rng.integers(1, 300)))
            decoded = viterbi_decode(model, make_track(x)).labels
            assert decoded.dtype == np.int8
            assert np.array_equal(decoded, array_viterbi(model, x)[0])

    def test_matches_array_recursion_on_ties(self, rng):
        coarse = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        total_ties = 0
        for _ in range(50):
            rows = rng.choice(coarse, 2)
            gmm = Gmm1d(weights=np.array([1.0]),
                        means=rng.choice(coarse, 1),
                        variances=np.array([0.25]))
            other = gmm if rng.random() < 0.5 else uniform_gmm()
            model = HmmGmmModel(initial=np.array([0.5, 0.5]),
                                transition=np.stack([rows, 1.0 - rows], 1),
                                observation=(gmm, other))
            x = rng.choice(coarse, int(rng.integers(1, 60)))
            want, ties = array_viterbi(model, x)
            total_ties += ties
            assert np.array_equal(viterbi_decode(model, make_track(x)).labels,
                                  want)
        assert total_ties > 0

    def test_matches_array_recursion_with_impossible_state(self, rng):
        # a point mass at 0: log-likelihood -inf wherever x != 0
        spike = Gmm1d(weights=np.array([1.0]), means=np.array([0.0]),
                      variances=np.array([1e-320]))
        for _ in range(20):
            model = self._random_model(rng)
            states = (spike, model.observation[1]) if rng.random() < 0.5 \
                else (model.observation[0], spike)
            model = HmmGmmModel(initial=model.initial,
                                transition=model.transition,
                                observation=states)
            x = np.where(rng.random(80) < 0.3, 0.0, rng.uniform(0.0, 1.0, 80))
            with np.errstate(over="ignore"):
                assert np.isneginf(spike.log_pdf(x)).any()
                decoded = viterbi_decode(model, make_track(x)).labels
                want, _ = array_viterbi(model, x)
            assert np.array_equal(decoded, want)

    def test_uniform_model_ties_to_nonvocal(self):
        model = HmmGmmModel(initial=np.array([0.5, 0.5]),
                            transition=np.full((2, 2), 0.5),
                            observation=(uniform_gmm(), uniform_gmm()))
        decoded = viterbi_decode(model, make_track(np.full(12, 0.5)))
        assert np.all(decoded.labels == 0)

    def test_beats_random_paths(self, rng):
        model = self._random_model(rng)
        x = rng.uniform(0.0, 1.0, 30)
        decoded = viterbi_decode(model, make_track(x)).labels
        best = self._path_logprob(model, x, decoded)
        for _ in range(1000):
            rand = rng.integers(0, 2, 30)
            assert self._path_logprob(model, x, rand) <= best + 1e-9

    def test_empty_track_error(self):
        model = HmmGmmModel(initial=np.array([0.5, 0.5]),
                            transition=np.full((2, 2), 0.5),
                            observation=(uniform_gmm(), uniform_gmm()))
        with pytest.raises(DataError):
            viterbi_decode(model, make_track(np.zeros(0)))


class TestSmoothDispatch:
    def test_none_is_threshold_only(self):
        track = make_track([0.4, 0.6, 0.5])
        out = smooth(track, "none", 3)
        assert out.labels.tolist() == [0, 1, 1]

    def test_median_dispatch(self):
        track = make_track([0.1, 0.9, 0.1, 0.1, 0.1])
        out = smooth(track, "median", 3)
        assert out.labels.tolist() == [0, 0, 0, 0, 0]

    def test_hmm_without_model_error(self):
        with pytest.raises(DataError):
            smooth(make_track([0.5]), "hmm", 3)

    def test_unknown_method_rejected(self):
        with pytest.raises(DataError, match="unknown smoothing method"):
            smooth(make_track([0.5]), "mode", 3)

    def test_even_window_config_rejected(self):
        with pytest.raises(DataError, match="median_window"):
            PipelineConfig(median_window=86)
