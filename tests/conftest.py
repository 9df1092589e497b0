import types

import numpy as np
import pytest

from translates import spectral


@pytest.fixture
def fft_calls(monkeypatch):
    """Names of the grid transforms ``translates.spectral`` takes, in order.

    Only the spectral module's view of ``np.fft`` is replaced, so transforms
    taken elsewhere are not counted.
    """
    calls = []

    def counting(name):
        def transform(*args, **kwargs):
            calls.append(name)
            return getattr(np.fft, name)(*args, **kwargs)

        return transform

    class SpectralNumpy:
        fft = types.SimpleNamespace(ifftn=counting("ifftn"), irfftn=counting("irfftn"), fftn=np.fft.fftn)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(spectral, "np", SpectralNumpy())
    return calls
