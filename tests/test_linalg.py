import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypernorm import linalg
from hypernorm.core import TensorShape
from hypernorm.linalg import (
    image_basis,
    kron,
    partial_transpose,
    perm_operator,
    psd_project,
    reorder_factors,
    sym_eig,
    sym_isometry,
)
from tests.conftest import real_embedding


# References for the checks below; the package itself needs none of them.

def apply_perm(pi, v, n):
    """The factor permutation operator applied to a vector of length n^r:
    ``x_1 (x) ... (x) x_r`` goes to ``x_pi(1) (x) ... (x) x_pi(r)`` (0-based pi)."""
    return np.transpose(np.asarray(v).reshape((n,) * len(pi)), axes=pi).reshape(-1)


def perm_operator_by_columns(pi, n):
    """perm_operator built one identity column at a time."""
    dim = n ** len(pi)
    out = np.zeros((dim, dim))
    eye = np.eye(dim)
    for j in range(dim):
        out[:, j] = apply_perm(pi, eye[:, j], n)
    return out


def compose_perms(pi, sigma):
    """The permutation tau with perm_operator(tau) = perm_operator(pi) @ perm_operator(sigma)."""
    return tuple(sigma[pi[k]] for k in range(len(pi)))


def sym_projector(r, n):
    """Orthogonal projector onto the symmetric subspace of (F^n)^(x r)."""
    acc = sum(perm_operator(pi, n) for pi in itertools.permutations(range(r)))
    return acc / math.factorial(r)


def partial_trace(x, shape, subsystems):
    """Trace out the tensor factors listed in ``subsystems`` (0-based)."""
    r = shape.rank
    subsystems = sorted(set(subsystems))
    t = np.asarray(x).reshape(shape.dims + shape.dims)
    for k, s in enumerate(subsystems):
        t = np.trace(t, axis1=s - k, axis2=s + r - 2 * k)
    keep = int(np.prod([shape.dims[k] for k in range(r) if k not in subsystems]))
    return t.reshape(keep, keep)


class TestSymEig:
    def test_diagonal(self):
        w, _ = sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [3.0, 2.0, 1.0])

    def test_identity(self):
        w, v = sym_eig(np.eye(4))
        assert np.allclose(w, 1.0)
        assert np.allclose(v.T @ v, np.eye(4), atol=1e-10)

    def test_reconstruction_suite(self, rng):
        # 100 random symmetric matrices, residual within 1e-9 relative
        for _ in range(100):
            n = int(rng.integers(2, 12))
            m = rng.normal(size=(n, n))
            m = (m + m.T) / 2
            w, v = sym_eig(m)
            resid = np.linalg.norm(m - (v * w) @ v.T)
            assert resid <= 1e-9 * max(1.0, np.linalg.norm(m))
            assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-10

    def test_rejects_nonsquare_and_nonsymmetric(self, rng):
        with pytest.raises(ValueError):
            sym_eig(rng.normal(size=(2, 3)))
        m = rng.normal(size=(4, 4))
        with pytest.raises(ValueError):
            sym_eig(m + np.eye(4))

    def test_hermitian(self, rng):
        h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = (h + h.conj().T) / 2
        w, v = sym_eig(h)
        assert np.linalg.norm(h - (v * w) @ v.conj().T) <= 1e-9 * np.linalg.norm(h)


def clip_oracle(m):
    w, v = np.linalg.eigh(m)
    return (v * np.maximum(w, 0)) @ v.conj().T


def with_spectrum(w, rng, complex_=False):
    """A self-adjoint matrix with eigenvalues w and random eigenvectors."""
    n = len(w)
    g = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_ else 0)
    q, _ = np.linalg.qr(g)
    m = (q * w) @ q.conj().T
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_image_basis_spans_the_image(rng, scale):
    a = scale * rng.normal(size=(7, 2)) @ rng.normal(size=(2, 5))
    u = image_basis(a)
    assert u.shape == (7, 2)
    assert np.allclose(u.T @ u, np.eye(2), rtol=0, atol=1e-12)
    assert np.allclose(u @ (u.T @ a), a, rtol=0, atol=1e-12 * scale)
    assert image_basis(np.zeros((3, 4))).shape == (3, 0)


class TestPsdProject:
    def test_clips_negative(self):
        p, k = psd_project(np.diag([2.0, -1.0]))
        assert np.allclose(p, np.diag([2.0, 0.0])) and k == 1

    def test_fixed_point_on_psd(self, rng):
        m = rng.normal(size=(5, 5))
        m = m @ m.T
        p, _ = psd_project(m)
        assert np.abs(p - m).max() <= 1e-10 * max(1, np.abs(m).max())

    def test_matches_eig_clip_oracle(self, rng):
        for _ in range(20):
            m = rng.normal(size=(6, 6))
            m = (m + m.T) / 2
            p, _ = psd_project(m)
            assert np.allclose(p, clip_oracle(m), atol=1e-10)
            # idempotent
            assert np.allclose(psd_project(p)[0], p, atol=1e-10)

    @pytest.mark.parametrize("hint", [None, 0, 1, 3, 5, 20, 30])
    def test_rank_hint_changes_nothing(self, rng, evr_calls, hint):
        # hints 0 to 5 take the positive side at N=30, 30 the negative side
        # (whatever the spectrum), None and 20 the full eigh
        m = with_spectrum(np.r_[rng.uniform(0.5, 2.0, 3), -rng.uniform(0.1, 2.0, 27)], rng)
        p, k = psd_project(m, hint)
        assert k == 3
        assert np.abs(p - clip_oracle(m)).max() <= 1e-10
        side = {None: [], 20: [], 30: ["neg"]}.get(hint, ["pos"])
        assert evr_calls == side

    @pytest.mark.parametrize("hint", [None, 0, 30])
    def test_negative_definite_gives_zero(self, rng, hint):
        m = with_spectrum(-rng.uniform(0.1, 2.0, 30), rng)
        p, k = psd_project(m, hint)
        assert k == 0 and p.shape == (30, 30) and not p.any()
        buf = np.full((30, 30), np.nan)
        out, k = linalg._psd_project((m + m.T) / 2.0, hint, out=buf)
        assert out is buf and k == 0 and not buf.any()

    @pytest.mark.parametrize("hint", [None, 0])
    def test_empty_matrix(self, hint):
        p, k = psd_project(np.zeros((0, 0)), hint)
        assert k == 0 and p.shape == (0, 0)

    def test_complex_hermitian_on_subset_path(self, rng, evr_calls):
        m = with_spectrum(np.r_[rng.uniform(0.5, 2.0, 2), -rng.uniform(0.1, 2.0, 28)], rng, True)
        p, k = psd_project(m, 2)
        assert evr_calls == ["pos"] and k == 2
        assert np.abs(p - clip_oracle(m)).max() <= 1e-10
        assert np.abs(p - p.conj().T).max() == 0.0

    @pytest.mark.parametrize("first", [False, True], ids=["real-first", "complex-first"])
    def test_workspace_cache_keeps_fields_apart(self, rng, first):
        linalg._evr_driver.cache_clear()
        spectrum = np.r_[rng.uniform(0.5, 2.0, 2), -rng.uniform(0.1, 2.0, 22)]
        for complex_ in (first, not first):
            m = with_spectrum(spectrum, rng, complex_)
            for hint in (0, 24):
                p, k = psd_project(m, hint)
                assert k == 2 and np.abs(p - clip_oracle(m)).max() <= 1e-10
        assert linalg._evr_driver.cache_info().currsize == 2

    def test_driver_failure_raises(self, rng, monkeypatch):
        def failing(h, **kw):
            n = h.shape[0]
            return np.zeros(n), np.zeros((n, n)), 0, np.zeros(2 * n, dtype=np.int32), 3

        monkeypatch.setattr(linalg, "_evr_driver", lambda n, complex_: (failing, {}))
        m = with_spectrum(np.r_[1.0, -np.ones(29)], rng)
        with pytest.raises(np.linalg.LinAlgError):
            psd_project(m, 1)

    @given(st.integers(12, 60), st.floats(0.0, 1.0), st.one_of(st.none(), st.integers(0, 60)),
           st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_property_any_hint(self, n, frac, hint, complex_, seed):
        # hints up to N/5 take the positive side, hints from 4N/5 the negative one
        rng = np.random.default_rng(seed)
        pos = int(round(frac * n))
        m = with_spectrum(np.r_[rng.uniform(0.1, 2.0, pos), -rng.uniform(0.1, 2.0, n - pos)],
                          rng, complex_)
        p, k = psd_project(m, hint)
        assert k == pos
        assert np.abs(p - clip_oracle(m)).max() <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("func", [sym_eig, psd_project])
def test_nonfinite_input_rejected(func, bad):
    m = np.eye(3)
    m[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        func(m)


class TestPermOperators:
    def test_identity_perm(self):
        assert np.allclose(perm_operator((0, 1), 3), np.eye(9))

    def test_swap_flip(self, rng):
        f = perm_operator((1, 0), 2)
        x, y = rng.normal(size=2), rng.normal(size=2)
        assert np.allclose(f @ np.kron(x, y), np.kron(y, x))

    def test_action_matches_definition(self, rng):
        pi = (1, 2, 0)
        xs = [rng.normal(size=3) for _ in range(3)]
        lhs = perm_operator(pi, 3) @ kron_vec(*xs)
        rhs = kron_vec(*(xs[p] for p in pi))
        assert np.allclose(lhs, rhs)

    def test_composition_law_exhaustive(self):
        for pi in itertools.permutations(range(3)):
            for sg in itertools.permutations(range(3)):
                lhs = perm_operator(pi, 2) @ perm_operator(sg, 2)
                rhs = perm_operator(compose_perms(pi, sg), 2)
                assert np.abs(lhs - rhs).max() <= 1e-12

    def test_phi_phi_transpose_gamma_is_flip(self):
        # the two-two flattening of the unnormalized identity tensor partially
        # transposes to the swap operator
        n = 2
        phi = sum(np.kron(np.eye(n)[:, i], np.eye(n)[:, i]) for i in range(n))
        pp = np.outer(phi, phi)
        gamma = partial_transpose(pp, TensorShape((n, n)), [1])
        assert np.allclose(gamma, perm_operator((1, 0), n))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_the_column_by_column_build(self, n):
        for r in (1, 2, 3, 4):
            for pi in itertools.permutations(range(r)):
                assert np.array_equal(perm_operator(pi, n), perm_operator_by_columns(pi, n))

    def test_invalid_perm(self):
        with pytest.raises(ValueError):
            perm_operator((0, 0), 2)


class TestSymProjector:
    def test_r1_identity(self):
        assert np.allclose(sym_projector(1, 4), np.eye(4))

    @pytest.mark.parametrize("r,n,rank", [(2, 2, 3), (2, 3, 6), (3, 2, 4)])
    def test_rank_is_binomial(self, r, n, rank):
        p = sym_projector(r, n)
        w = np.linalg.eigvalsh(p)
        assert int(np.sum(w > 0.5)) == rank
        assert np.abs(p @ p - p).max() <= 1e-12
        assert np.allclose(p, p.T)

    def test_commutes_with_perms(self):
        p = sym_projector(3, 2)
        for pi in itertools.permutations(range(3)):
            q = perm_operator(pi, 2)
            assert np.abs(p @ q - q @ p).max() <= 1e-12

    def test_isometry_spans_projector(self):
        w = sym_isometry(2, 3)
        assert np.allclose(w.T @ w, np.eye(w.shape[1]))
        assert np.allclose(w @ w.T, sym_projector(2, 3))


class TestPartialOps:
    def test_product_rule(self, rng):
        x, y = rng.normal(size=(3, 3)), rng.normal(size=(4, 4))
        sh = TensorShape((3, 4))
        assert np.allclose(partial_transpose(np.kron(x, y), sh, [1]), np.kron(x, y.T))
        assert np.allclose(partial_trace(np.kron(x, y), sh, [1]), x * np.trace(y))
        assert np.allclose(partial_trace(np.kron(x, y), sh, [0]), y * np.trace(x))

    def test_full_transpose_of_symmetric(self, rng):
        x = rng.normal(size=(4, 4))
        x = x + x.T
        sh = TensorShape((2, 2))
        assert np.allclose(partial_transpose(x, sh, [0, 1]), x)

    def test_entrywise_index_rule(self, rng):
        x = rng.normal(size=(4, 4))
        g = partial_transpose(x, TensorShape((2, 2)), [1]).reshape(2, 2, 2, 2)
        x4 = x.reshape(2, 2, 2, 2)
        for i1, i2, i3, i4 in itertools.product(range(2), repeat=4):
            assert g[i1, i2, i3, i4] == x4[i1, i4, i3, i2]

    @given(st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=20, deadline=None)
    def test_involution_and_trace(self, a, b):
        rng = np.random.default_rng(17 * a + b)
        x = rng.normal(size=(8, 8))
        sh = TensorShape((2, 2, 2))
        sub = sorted({a, b})
        pt = partial_transpose(x, sh, sub)
        assert np.allclose(partial_transpose(pt, sh, sub), x)
        assert np.isclose(np.trace(pt), np.trace(x))

    def test_partial_trace_positive_on_psd(self, rng):
        m = rng.normal(size=(12, 12))
        m = m @ m.T
        out = partial_trace(m, TensorShape((3, 4)), [1])
        assert np.linalg.eigvalsh(out)[0] >= -1e-10
        assert np.isclose(np.trace(out), np.trace(m))

    def test_reorder_factors(self, rng):
        mats = [rng.normal(size=(2, 2)), rng.normal(size=(3, 3)), rng.normal(size=(2, 2))]
        sh = TensorShape((2, 3, 2))
        out = reorder_factors(kron(*mats), sh, (2, 0, 1))
        assert np.allclose(out, kron(mats[2], mats[0], mats[1]))


def test_real_embedding_spectrum(rng):
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (h + h.conj().T) / 2
    w = np.linalg.eigvalsh(h)
    we = np.linalg.eigvalsh(real_embedding(h))
    assert np.allclose(np.sort(np.concatenate([w, w])), we)


def kron_vec(*vs):
    out = vs[0]
    for v in vs[1:]:
        out = np.kron(out, v)
    return out
