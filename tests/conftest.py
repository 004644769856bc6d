import numpy as np
import pytest

from mfclab.spectral import GridField


def random_field(resolution: int, rng: np.random.Generator,
                 max_mode: int = 3, amplitude: float = 1.0) -> GridField:
    """Random real band-limited grid field with modes up to max_mode."""
    x = np.arange(resolution) / resolution
    vals = np.zeros(resolution)
    for _ in range(4):
        k = rng.integers(-max_mode, max_mode + 1, size=1)
        phase = rng.uniform(0, 2 * np.pi)
        amp = amplitude * rng.uniform(0.2, 1.0)
        vals = vals + amp * np.cos(2 * np.pi * k * x + phase)
    return GridField(vals)


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)
