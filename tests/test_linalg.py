import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypernorm.core import TensorShape
from hypernorm.linalg import (
    compose_perms,
    kron,
    partial_trace,
    partial_transpose,
    perm_operator,
    psd_project,
    real_embedding,
    reorder_factors,
    sym_eig,
    sym_isometry,
    sym_projector,
)


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


class TestPsdProject:
    def test_clips_negative(self):
        assert np.allclose(psd_project(np.diag([2.0, -1.0])), np.diag([2.0, 0.0]))

    def test_fixed_point_on_psd(self, rng):
        m = rng.normal(size=(5, 5))
        m = m @ m.T
        assert np.abs(psd_project(m) - m).max() <= 1e-10 * max(1, np.abs(m).max())

    def test_matches_eig_clip_oracle(self, rng):
        for _ in range(20):
            m = rng.normal(size=(6, 6))
            m = (m + m.T) / 2
            w, v = np.linalg.eigh(m)
            oracle = (v * np.maximum(w, 0)) @ v.T
            assert np.allclose(psd_project(m), oracle, atol=1e-10)
            # idempotent
            assert np.allclose(psd_project(psd_project(m)), psd_project(m), atol=1e-10)


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
