import numpy as np
import pytest

from svdet.audio import AudioClip, stft


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def random_clip(rng):
    return AudioClip(samples=0.3 * rng.standard_normal(16000),
                     source_id="random")


@pytest.fixture
def random_spectrogram(random_clip):
    return stft(random_clip)
