import numpy as np
import pytest

from hypernorm import linalg


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def phi_state(n: int) -> np.ndarray:
    """Density matrix of the maximally entangled state on C^n (x) C^n."""
    phi = sum(np.kron(np.eye(n)[:, i], np.eye(n)[:, i]) for i in range(n)) / np.sqrt(n)
    return np.outer(phi, phi)


def phi_complex(n: int) -> np.ndarray:
    """phi_state(n) under a local diagonal unitary: genuinely complex, same DPS value."""
    u = np.diag(np.exp(1j * np.linspace(0.3, 2.9, n)))
    return np.kron(u, u) @ phi_state(n).astype(complex) @ np.kron(u, u).conj().T


@pytest.fixture
def evr_calls(monkeypatch):
    """The side, "pos" or "neg", of every direct LAPACK evr call made while
    the test runs (``psd_project`` makes them only on its one-sided paths)."""
    calls = []
    driver = linalg._evr_driver

    def counted(n, complex_):
        drv, sizes = driver(n, complex_)

        def call(h, **kw):
            calls.append("pos" if kw["vl"] == 0.0 else "neg")
            return drv(h, **kw)

        return call, sizes

    monkeypatch.setattr(linalg, "_evr_driver", counted)
    return calls
