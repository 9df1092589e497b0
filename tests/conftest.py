import types

import numpy as np
import pytest

from translates import spectral


class _Calls(list):
    """Transform names in order; ``shapes`` holds the shape of each output
    grid (a stack's batch axis first)."""

    def __init__(self):
        super().__init__()
        self.shapes = []

    def clear(self):
        super().clear()
        self.shapes.clear()


@pytest.fixture
def fft_calls(monkeypatch):
    """Names of the grid transforms ``translates.spectral`` takes, in order,
    with their output shapes in ``fft_calls.shapes``.

    Only the spectral module's view of ``np.fft`` is replaced, so transforms
    taken elsewhere are not counted.
    """
    calls = _Calls()

    def counting(name):
        def transform(*args, **kwargs):
            out = getattr(np.fft, name)(*args, **kwargs)
            calls.append(name)
            calls.shapes.append(out.shape)
            return out

        return transform

    class SpectralNumpy:
        fft = types.SimpleNamespace(ifftn=counting("ifftn"), irfftn=counting("irfftn"), fftn=np.fft.fftn)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(spectral, "np", SpectralNumpy())
    return calls
