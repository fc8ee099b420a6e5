"""Synthetic desk-scale corpus: repeating loops plus gated vibrato vocals.

Used by the test suite and the experiment scripts; no real music ships
with the project.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .audio import SAMPLE_RATE, AudioClip, save_wav

# the accompaniment loop's length in seconds and its number of tones
LOOP_PERIOD_S = 2.0
LOOP_TONES = 6


def repeating_loop(rng, duration: float) -> np.ndarray:
    """Exactly periodic accompaniment with a vocal-like phrase inside.

    Tones carry a stepped amplitude pattern; a vibrato harmonic phrase
    repeats with the loop, so it confuses a classifier fed the raw
    mixture but is removed by repetition-based separation.
    """
    n_period = int(round(LOOP_PERIOD_S * SAMPLE_RATE))
    t = np.arange(n_period) / SAMPLE_RATE
    base = np.zeros(n_period)
    freqs = rng.uniform(80.0, 600.0, size=LOOP_TONES)
    for f in freqs:
        # 8-step on/off amplitude pattern inside the loop
        steps = rng.integers(0, 2, size=8).astype(np.float64)
        steps[rng.integers(0, 8)] = 1.0
        env = np.repeat(steps, n_period // 8 + 1)[:n_period]
        base += env * np.sin(2.0 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    f0 = rng.uniform(250.0, 450.0)
    vib = 1.0 + 0.03 * np.sin(2.0 * np.pi * 6.0 * t)
    inst = f0 * vib * (1.0 + 0.1 * np.sin(2.0 * np.pi * 0.5 * t))
    phase = 2.0 * np.pi * np.cumsum(inst) / SAMPLE_RATE
    fake = np.zeros(n_period)
    for h in range(1, 5):
        fake += np.sin(h * phase) / h
    gate = np.zeros(n_period)
    gate[int(0.3 * SAMPLE_RATE) : int(1.4 * SAMPLE_RATE)] = 1.0
    base += 2.0 * gate * fake
    base /= max(np.abs(base).max(), 1e-9)
    reps = int(np.ceil(duration * SAMPLE_RATE / n_period))
    return np.tile(base, reps)[: int(round(duration * SAMPLE_RATE))]


def vibrato_voice(rng, duration: float):
    """Gated vibrato harmonic chirp; returns (signal, vocal segments)."""
    n = int(round(duration * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    f0 = rng.uniform(250.0, 450.0)
    chirp = f0 * (1.0 + 0.15 * np.sin(2.0 * np.pi * rng.uniform(0.05, 0.15) * t))
    vib = 1.0 + 0.03 * np.sin(2.0 * np.pi * rng.uniform(5.0, 7.0) * t)
    inst_freq = chirp * vib
    phase = 2.0 * np.pi * np.cumsum(inst_freq) / SAMPLE_RATE
    voice = np.zeros(n)
    for h in range(1, 5):
        voice += np.sin(h * phase) / h
    voice /= np.abs(voice).max()
    # alternating off/on gates; on-segments long enough to survive smoothing
    gate = np.zeros(n)
    segments = []
    pos = rng.uniform(0.3, 1.2)
    while pos < duration - 1.5:
        seg_len = rng.uniform(1.5, 3.0)
        end = min(pos + seg_len, duration - 0.1)
        i0, i1 = int(pos * SAMPLE_RATE), int(end * SAMPLE_RATE)
        gate[i0:i1] = 1.0
        segments.append((pos, end))
        pos = end + rng.uniform(1.0, 2.5)
    fade = int(0.01 * SAMPLE_RATE)
    if fade:
        kernel = np.ones(fade) / fade
        gate = np.convolve(gate, kernel, mode="same")
    return voice * gate, segments


def synthetic_clip(seed: int, duration: float = 10.0):
    """A loop-plus-voice mixture; returns (clip, vocal segments)."""
    rng = np.random.default_rng(seed)
    loop = repeating_loop(rng, duration)
    voice, segments = vibrato_voice(rng, duration)
    # accompaniment-dominated mix: separation has to earn its keep
    mix = 0.8 * loop + 0.2 * voice
    peak = np.abs(mix).max()
    if peak > 0.95:
        mix *= 0.95 / peak
    return AudioClip(samples=mix, source_id=f"synth-{seed}"), segments


def write_corpus(out_dir, n_clips: int, seed: int = 0, duration: float = 10.0):
    """Write WAVs and matching .lab files; returns the list of stems."""
    out_dir = Path(out_dir)
    audio_dir = out_dir / "audio"
    label_dir = out_dir / "labels"
    audio_dir.mkdir(parents=True, exist_ok=True)
    label_dir.mkdir(parents=True, exist_ok=True)
    stems = []
    for i in range(n_clips):
        clip, segments = synthetic_clip(seed * 10000 + i, duration=duration)
        stem = f"clip{i:03d}"
        save_wav(audio_dir / f"{stem}.wav", clip)
        with open(label_dir / f"{stem}.lab", "w") as fh:
            for start, end in segments:
                fh.write(f"{start:.6f} {end:.6f} sing\n")
        stems.append(stem)
    return stems
