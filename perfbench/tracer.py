"""In-memory span tracer that wraps svdet functions from outside.

`Tracer.recording()` replaces every module-level binding of each traced
function in the loaded svdet modules, including re-imports such as
`separation.istft` or `pipeline.stft`, with a wrapper that records a
span (name, start, end, parent). Leaving the block restores the
originals. Counter hooks read work counts from a call's arguments and
result.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import Counter
from time import perf_counter


def _fit_gmm_1d_counts(counts, bound, result):
    history = result[1]
    counts["smoothing.em_iters"] += len(history)
    max_iter = bound.arguments["max_iter"]
    tol = bound.arguments["tol"]
    converged = (len(history) >= 2 and history[-1] - history[-2]
                 < tol * max(1.0, abs(history[-1])))
    if len(history) >= max_iter and not converged:
        counts["smoothing.em_capped"] += 1


def _degenerate_counts(counts, bound, result):
    counts["features.degenerate_frames"] += len(result.degenerate_frames)


def _epochs_counts(counts, bound, result):
    counts["model.epochs_run"] += len(result[1])


def _blocks_counts(counts, bound, result):
    counts["model.blocks_trained"] += len(bound.arguments["x"])


def _frames_counts(counts, bound, result):
    counts["model.frames_predicted"] += len(result.posteriors)


HOOKS = {
    "model.train_lrcn": _epochs_counts,
    "model.lrcn_backward": _blocks_counts,
    "model.predict_track": _frames_counts,
    "smoothing.fit_gmm_1d": _fit_gmm_1d_counts,
    "features.lpcc": _degenerate_counts,
    "features.plp": _degenerate_counts,
}


class Tracer:
    """Records spans and counts for a fixed list of svdet functions."""

    def __init__(self, names):
        self.names = tuple(names)
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    @staticmethod
    def _modules():
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "svdet" or n.startswith("svdet."))]

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][1] = start
                spans[index][2] = perf_counter()
                stack.pop()
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, bound, result)
            return result

        return traced

    @contextlib.contextmanager
    def recording(self):
        """Patch every binding of the traced functions for the block."""
        modules = self._modules()
        by_module = {m.__name__: m for m in modules}
        patches = []
        try:
            for name in self.names:
                mod_name, _, attr = name.rpartition(".")
                original = getattr(by_module[f"svdet.{mod_name}"], attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            patches.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(patches):
                setattr(module, key, original)


def layer_totals(spans, lo, hi):
    """Per-name call counts and self times (span minus child spans).

    Covers spans[lo:hi]; parents are absolute indices into `spans`.
    """
    child = Counter()
    for _, start, end, parent in spans[lo:hi]:
        if parent >= 0:
            child[parent] += end - start
    calls = Counter()
    self_s = Counter()
    for i in range(lo, hi):
        name, start, end, _ = spans[i]
        calls[name] += 1
        self_s[name] += end - start - child[i]
    return calls, self_s
