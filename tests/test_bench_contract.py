"""The svdet names the benchmark's tracer wraps must keep existing.

perfbench/ traces svdet functions by module attribute and binds some of
their parameters by name; a refactor that renames one fails the
benchmark's correctness check. These tests catch it in the fast loop.
The perfbench files are loaded by path and only read.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def svdet_function(name):
    mod_name, _, attr = name.rpartition(".")
    return getattr(importlib.import_module(f"svdet.{mod_name}"), attr, None)


# the parameters each counter hook in perfbench/tracer.py reads by name
HOOK_PARAMS = {
    "smoothing.fit_gmm_1d": ("max_iter", "tol"),
    "model.lrcn_backward": ("x",),
}


@pytest.mark.parametrize("name", [layer.name for layer in load("layers").FUNCTIONS])
def test_traced_function_exists(name):
    assert callable(svdet_function(name)), f"svdet.{name} is not a function"


@pytest.mark.parametrize("name", sorted(load("tracer").HOOKS))
def test_hooked_function_keeps_bound_parameters(name):
    params = inspect.signature(svdet_function(name)).parameters
    for param in HOOK_PARAMS.get(name, ()):
        assert param in params, f"svdet.{name} lost parameter {param!r}"


def hook_calls():
    """name -> (args, kwargs, the counts its hook must read off the call).

    Tiny real inputs; each expected count follows from the input alone.
    """
    from svdet.features import FeatureMatrix, blockify
    from svdet.model import init_params
    from svdet.pipeline import PipelineConfig

    rng = np.random.default_rng(0)
    pcfg = PipelineConfig(block_len=5, n_filters=2, hidden_size=4,
                          dense_sizes=(3,), epochs=2, batch_size=4,
                          patience=5)
    cfg = pcfg.lrcn_config(input_dim=3)
    params = init_params(cfg, seed=0)
    feat = FeatureMatrix(values=rng.standard_normal((12, 3)),
                         feature_tag="mfcc")
    blocks = blockify(feat.values, cfg.block_len)
    labels = (np.arange(12) % 2).astype(np.float64)
    power = rng.uniform(0.0, 1.0, (6, 513))
    power[[1, 4]] = 0.0  # all-zero frames are degenerate for LPC
    x = np.concatenate([rng.normal(0.2, 0.05, 200), rng.normal(0.8, 0.1, 200)])
    return {
        "model.train_lrcn": ((blocks, labels, np.arange(10), np.arange(10, 12),
                              cfg, pcfg), {}, {"model.epochs_run": 2}),
        "model.lrcn_backward": ((blocks[:7], labels[:7], params, cfg), {},
                                {"model.blocks_trained": 7}),
        "model.predict_track": ((feat, params, cfg), {},
                                {"model.frames_predicted": 12}),
        # two iterations cannot meet the tolerance: EM stops at the cap
        "smoothing.fit_gmm_1d": ((x, 3), {"max_iter": 2},
                                 {"smoothing.em_iters": 2,
                                  "smoothing.em_capped": 1}),
        "features.lpcc": ((power,), {}, {"features.degenerate_frames": 2}),
        "features.plp": ((power,), {}, {"features.degenerate_frames": 0}),
    }


def test_hooks_read_real_calls():
    # each hook runs on the bound arguments and the result of a real call,
    # as the tracer applies it, and counts what the call did
    hooks = load("tracer").HOOKS
    calls = hook_calls()
    assert sorted(calls) == sorted(hooks)
    for name, (args, kwargs, want) in calls.items():
        fn = svdet_function(name)
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        counts = Counter()
        hooks[name](counts, bound, fn(*args, **kwargs))
        assert counts == Counter(want), name


def test_output_checks_use_the_front_end():
    # the benchmark's output checks count frames and place frame times
    # with their own copies of the fixed frame layout
    from svdet import audio
    workloads = load("workloads")
    for name in ("SAMPLE_RATE", "FRAME_LEN", "HOP"):
        assert getattr(workloads, name) == getattr(audio, name), name


def test_benchmark_imports_load_every_traced_module():
    # the tracer finds each module in sys.modules by name, and the package
    # root imports none of them: the imports perfbench/run.py makes must
    layers = load("layers")
    wanted = {f"svdet.{layer.name.split('.')[0]}"
              for layer in layers.FUNCTIONS + layers.COUNTS}
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import svdet, svdet.cli, svdet.synth; "
            "print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True).stdout
    missing = wanted - set(json.loads(out))
    assert not missing, f"not loaded by the benchmark's imports: {sorted(missing)}"


def test_traced_layers_run_on_the_calling_thread(tmp_path, pool, monkeypatch):
    # the tracer keeps one span stack, so a traced function that ran on
    # chunk_map's pool thread would nest its spans under whatever the
    # caller's thread was in; each binding is wrapped as the tracer does
    import svdet.cli
    import svdet.synth
    from svdet.audio import save_wav
    from svdet.features import NormStats
    from svdet.model import init_params, save_checkpoint
    from svdet.pipeline import PipelineConfig

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "svdet" or n.startswith("svdet."))]
    calls = []
    for layer in load("layers").FUNCTIONS:
        original = svdet_function(layer.name)

        def wrapper(*args, _fn=original, _name=layer.name, **kwargs):
            calls.append((_name, threading.current_thread()))
            return _fn(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    submitted = []
    submit = pool.submit
    monkeypatch.setattr(pool, "submit",
                        lambda *a, **k: submitted.append(1) or submit(*a, **k))

    cfg = PipelineConfig(feature_tag="lpcc_mfcc_plp", n_filters=4,
                         hidden_size=4, dense_sizes=(4,))
    lrcn_cfg = cfg.lrcn_config(input_dim=39)
    save_checkpoint(tmp_path / "model.npz", init_params(lrcn_cfg, seed=0),
                    lrcn_cfg, NormStats(col_min=np.zeros(39),
                                        col_max=np.ones(39)),
                    cfg.front_end())
    clip, _ = svdet.synth.synthetic_clip(0, duration=4.0)
    save_wav(tmp_path / "clip.wav", clip)
    rc = svdet.cli.main(["--set", "feature_tag=lpcc_mfcc_plp",
                         "--set", "n_filters=4", "--set", "hidden_size=4",
                         "--set", "dense_sizes=4",
                         "predict", str(tmp_path / "clip.wav"),
                         "--checkpoint", str(tmp_path / "model.npz"),
                         "--out", str(tmp_path / "pred.csv")])
    assert rc == 0
    names = {name for name, _ in calls}
    assert {"separation.beat_spectrum", "audio.stft", "features.lpcc",
            "separation.separate"} <= names
    assert submitted, "chunk_map never used its pool thread"
    caller = threading.current_thread()
    assert [name for name, thread in calls if thread is not caller] == []
