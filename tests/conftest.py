import numpy as np
import pytest
import scipy.linalg


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def phi_state(n: int) -> np.ndarray:
    """Density matrix of the maximally entangled state on C^n (x) C^n."""
    phi = sum(np.kron(np.eye(n)[:, i], np.eye(n)[:, i]) for i in range(n)) / np.sqrt(n)
    return np.outer(phi, phi)


@pytest.fixture
def evr_calls(monkeypatch):
    """The drivers of every scipy.linalg.eigh call made while the test runs
    (``psd_project`` calls it only on its subset path)."""
    calls = []
    eigh = scipy.linalg.eigh

    def counted(*args, **kw):
        calls.append(kw.get("driver"))
        return eigh(*args, **kw)

    monkeypatch.setattr(scipy.linalg, "eigh", counted)
    return calls
