import functools
from types import SimpleNamespace

import numpy as np
import pytest

from hypernorm.core import OperatorInstance, TensorShape
from hypernorm.dps import _dps_program, _ppt_subsets, dps_value, h_ext
from hypernorm.linalg import partial_transpose
from hypernorm.sdp import SdpProblem, SolveOptions, solve_sdp
from hypernorm.tensorsdp import a22_matrix, tensor_sdp
from tests.conftest import phi_complex, phi_state, real_embedding


def _sym(rng, size, dtype=float):
    """A random real symmetric or, for a complex dtype, Hermitian matrix."""
    g = rng.normal(size=(size, size))
    if np.issubdtype(dtype, np.complexfloating):
        g = g + 1j * rng.normal(size=(size, size))
    return (g + g.conj().T) / 2.0


def _inner(a, b):
    return sum(np.vdot(x, y).real for x, y in zip(a, b))


def _unembed(s):
    """The complex matrix whose real embedding is the J-invariant part of s."""
    d = s.shape[0] // 2
    return (s[:d, :d] + s[d:, d:]) / 2.0 + 1j * (s[d:, :d] - s[:d, d:]) / 2.0


def _sym_basis(dim):
    for a in range(dim):
        for b in range(a, dim):
            e = np.zeros((dim, dim))
            e[a, b] = 1.0
            e[b, a] = 1.0
            yield a, b, e


def _linking_rows(images, blocks, size):
    """Rows Y_k[i, j] = sum_(a, b) image_k(a, b)[i, j] * X[a, b]."""
    cons = []
    for k in range(blocks):
        for i in range(size):
            for j in range(i, size):
                entries = [(k + 1, i, j, 1.0)]
                for (a, bb), mats in images.items():
                    c = mats[k][i, j]
                    if abs(c) > 1e-14:
                        entries.append((0, a, bb, -float(c)))
                cons.append(entries)
    return cons


def full_images(m, n, r):
    """The program of ``dps_value`` and, for each PPT block, the map
    X -> PT_k(L X L^T) at the full size n^(r+1)."""
    linked = _dps_program(m, n, r, True)
    lift, shape = linked.lift, TensorShape((n,) * (r + 1))

    def image(x, sub):
        return partial_transpose(lift @ x @ lift.T, shape, sub)

    return linked, [functools.partial(image, sub=sub) for sub in _ppt_subsets(r)]


def row_form_dps(m, n, r):
    """The PPT DPS program stated as an SdpProblem: every PPT block, at the
    full size n^(r+1), is tied entrywise to the partial transpose of block 0's
    lift by linking rows.  A complex input is stated through the real
    embedding [[Re, -Im], [Im, Re]], under which Hermitian-PSD and
    embedded-real-PSD coincide, with block 0 held J-invariant by explicit
    rows.  Reference for the compressed Hermitian linked blocks of
    ``dps_value``."""
    linked, images = full_images(m, n, r)
    embed = np.iscomplexobj(linked.C[0])
    factor = 2 if embed else 1
    if embed:
        images = [lambda x, image=image: real_embedding(image(_unembed(x))) for image in images]
    D = factor * linked.blocks[0]
    DF = factor * linked.lift.shape[0]
    blocks = [D] + [DF] * len(images)
    cons = [[(0, i, i, 1.0) for i in range(D)]]
    if embed:
        dim = D // 2
        # J-invariance: S[a, b] = S[a+dim, b+dim] and S[a, b+dim] + S[b, a+dim] = 0
        for a in range(dim):
            for bb in range(a, dim):
                cons.append([(0, a, bb, 1.0), (0, a + dim, bb + dim, -1.0)])
        for a in range(dim):
            for bb in range(a, dim):
                cons.append([(0, a, a + dim, 1.0)] if a == bb
                            else [(0, a, bb + dim, 1.0), (0, bb, a + dim, 1.0)])
    cons += _linking_rows({(a, bb): [image(e) for image in images] for a, bb, e in _sym_basis(D)},
                          len(images), DF)
    b = [float(factor)] + [0.0] * (len(cons) - 1)
    C = [real_embedding(linked.C[0]) / 2.0 if embed else linked.C[0]] + [np.zeros((DF, DF))] * len(images)
    problem = SdpProblem(blocks, C, cons, b, trace_bound=factor * linked.trace_bound)
    return solve_sdp(problem, SolveOptions(tol=1e-8, max_iter=100_000)).primal_obj


# (input, n, r) for the real and complex r = 1, 2, 3 programs
LINKED_CASES = [(phi_state(3), 3, 1), (phi_state(3), 3, 2), (phi_state(2), 2, 3),
                (phi_complex(2), 2, 1), (phi_complex(2), 2, 2), (phi_complex(2), 2, 3)]
LINKED_IDS = ["real-r1", "real-r2", "real-r3", "complex-r1", "complex-r2", "complex-r3"]


@pytest.mark.parametrize("m, n, r", LINKED_CASES, ids=LINKED_IDS)
class TestLinkedBlocks:
    def _admissible(self, p, rng, traceless=False):
        x = _sym(rng, p.blocks[0], p.C[0].dtype)
        if traceless:
            x -= np.trace(x) / p.blocks[0] * np.eye(p.blocks[0])
        return x / np.linalg.norm(x)

    def test_images_are_isometries_with_the_stated_adjoint(self, m, n, r, rng):
        p = _dps_program(m, n, r, True)
        assert all(c.dtype == m.dtype for c in p.C)
        assert len(p.subsets) == r
        for k in range(len(p.subsets)):
            x = self._admissible(p, rng)
            assert abs(np.linalg.norm(p.image(x, k)) - 1.0) <= 1e-13
            x, v = _sym(rng, p.blocks[0], m.dtype), _sym(rng, p.blocks[k + 1], m.dtype)
            lhs, rhs = np.vdot(p.image(x, k), v), np.vdot(x, p.coimage(v, k))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_gather_index_is_the_partial_transpose(self, m, n, r, rng):
        p = _dps_program(m, n, r, True)
        d = n ** (r + 1)
        for k, sub in enumerate(p.subsets):
            for g in (rng.normal(size=(d, d)), rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))):
                assert np.array_equal(p._transpose(g, k), partial_transpose(g, TensorShape((n,) * (r + 1)), sub))

    def test_compressed_blocks_keep_the_full_spectrum(self, m, n, r, rng):
        # T_k(X) is PT_k(L X L^T) restricted to its support, so it has the
        # same Frobenius norm and trace, and the same spectrum up to the
        # zeros off the support: in particular the same lambda_min on an
        # indefinite X, and the same PSD-ness
        p, images = full_images(m, n, r)
        x = self._admissible(p, rng)
        for k, image in enumerate(images):
            small, full = p.image(x, k), image(x)
            assert p.blocks[k + 1] <= full.shape[0]
            assert abs(np.linalg.norm(small) - np.linalg.norm(full)) <= 1e-13
            assert abs(np.trace(small) - np.trace(full)) <= 1e-13
            spectrum = np.linalg.eigvalsh((small + small.conj().T) / 2.0)
            padded = np.sort(np.r_[spectrum, np.zeros(full.shape[0] - small.shape[0])])
            assert np.abs(padded - np.linalg.eigvalsh((full + full.conj().T) / 2.0)).max() <= 1e-13
            assert spectrum[0] < -1e-3   # so lambda_min is not one of the padded zeros

    def test_project_is_feasible_idempotent_and_orthogonal(self, m, n, r, rng):
        p = _dps_program(m, n, r, True)
        V = [_sym(rng, s, m.dtype) for s in p.blocks]
        X, w = p.project(V)
        assert w.shape == (1,) and w.dtype == float
        assert abs(np.trace(X[0]) - 1.0) <= 1e-12
        assert all(x.dtype == m.dtype and np.linalg.norm(x - x.conj().T) <= 1e-12 for x in X)
        for k, y in enumerate(X[1:]):
            assert np.linalg.norm(y - p.image(X[0], k)) <= 1e-12
        X2, _ = p.project(X)
        assert max(np.linalg.norm(a - b) for a, b in zip(X, X2)) <= 1e-12
        # the residual is orthogonal to the directions (D, T_1 D, ...) with
        # tr D = 0, and w is the multiplier of the trace row: <V - X, (D, T_1 D, ...)> = w tr D
        residual = [v - x for v, x in zip(V, X)]
        scale = max(1.0, _inner(residual, residual))
        for d in (self._admissible(p, rng, traceless=True), self._admissible(p, rng),
                  np.eye(p.blocks[0])):
            assert abs(_inner(residual, p.push(d)) - w[0] * np.trace(d)) <= 1e-11 * scale

    def test_dual_slack_lies_on_the_dual_affine_set(self, m, n, r, rng):
        p = _dps_program(m, n, r, True)
        sol = SimpleNamespace(y=np.array([rng.normal()]), S=[_sym(rng, s, m.dtype) for s in p.blocks])
        S = p.dual_slack(sol)
        total = p.C[0] + S[0]
        for k, s in enumerate(S[1:]):
            total = total + p.coimage(s, k)
        assert np.linalg.norm(total - sol.y[0] * np.eye(p.blocks[0])) <= 1e-12 * len(p.blocks)


class TestDps:
    def test_identity_is_one(self):
        for r in (1, 2, 3):
            assert abs(dps_value(np.eye(4), 2, r=r) - 1.0) <= 1e-6

    @pytest.mark.parametrize("n", [2, 3])
    def test_maximally_entangled_matches_hsep(self, n):
        v = dps_value(phi_state(n), n, r=1, ppt=True)
        assert abs(v - 1.0 / n) <= 1e-3

    def test_extendability_alone_is_weaker(self):
        v = dps_value(phi_state(2), 2, r=1, ppt=False)
        assert v >= 0.5 + 1e-3      # strictly above the PPT value 1/2
        assert v >= 1.0 - 1e-5      # top eigenvalue of the projector

    def test_monotone_in_r(self):
        v1 = dps_value(phi_state(2), 2, r=1, ppt=True)
        v2 = dps_value(phi_state(2), 2, r=2, ppt=True)
        assert v2 <= v1 + 1e-5

    def test_equivalence_with_moment_relaxation_r1(self, rng):
        a = rng.normal(size=(4, 3))
        inst = OperatorInstance(a)
        v4 = tensor_sdp(inst, 4).value
        vd = dps_value(a22_matrix(inst), 3, r=1, ppt=True,
                       opts=SolveOptions(tol=1e-9, max_iter=200_000))
        assert abs(v4 - vd) <= 1e-4 * max(1.0, abs(v4))

    def test_equivalence_with_moment_relaxation_r2(self, rng):
        a = rng.normal(size=(4, 2))
        inst = OperatorInstance(a)
        v6 = tensor_sdp(inst, 6).value
        vd = dps_value(a22_matrix(inst), 2, r=2, ppt=True,
                       opts=SolveOptions(tol=1e-9, max_iter=200_000))
        assert abs(v6 - vd) <= 1e-4 * max(1.0, abs(v6))

    def test_locally_rotated_complex_input(self):
        u = np.diag(np.exp(1j * np.array([0.3, -1.2])))
        v = np.diag(np.exp(1j * np.array([0.7, 2.1])))
        mc = np.kron(u, v) @ phi_state(2).astype(complex) @ np.kron(u, v).conj().T
        assert np.linalg.norm(np.imag(mc)) > 1e-3
        val = dps_value(mc, 2, r=1, ppt=True)
        assert abs(val - 0.5) <= 1e-3

    @pytest.mark.parametrize("r", [1, 2])
    def test_no_ppt_is_h_ext(self, r):
        a22 = a22_matrix(OperatorInstance(np.random.default_rng(3).normal(size=(4, 3))))
        for m, n in ((phi_state(2), 2), (a22, 3), (phi_complex(2), 2)):
            h = h_ext(m, n, r=r)
            assert abs(dps_value(m, n, r=r, ppt=False) - h) <= 1e-6 * max(1.0, abs(h))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("max_iter", [1, 2, 10])
    def test_bound_holds_for_any_dual_point(self, n, max_iter):
        # h_Sep(phi_n) = 1/n is a lower bound on every DPS level, so a sound
        # upper bound stays above it however early the solver stops
        for m in (phi_state(n), phi_complex(n)):
            for r in (1, 2):
                res = dps_value(m, n, r=r, opts=SolveOptions(tol=1e-8, max_iter=max_iter),
                                return_details=True)
                assert res.status == "max-iter"
                assert res.bound >= 1.0 / n - 1e-12

    def test_bound_brackets_the_converged_value(self):
        res = dps_value(phi_state(3), 3, r=2, return_details=True)
        assert res.status == "optimal"
        assert abs(res.bound - res.value) <= 1e-6

    @pytest.mark.parametrize("case", ["phi3-r2", "phi2-r3", "a22-r1", "phi2c-r1", "phi2c-r2", "phi2c-r3"])
    def test_linked_blocks_match_the_row_form(self, case):
        m, n, r = {
            "phi3-r2": (phi_state(3), 3, 2),
            "phi2-r3": (phi_state(2), 2, 3),
            "a22-r1": (a22_matrix(OperatorInstance(np.random.default_rng(5).normal(size=(4, 3)))), 3, 1),
            "phi2c-r1": (phi_complex(2), 2, 1),
            "phi2c-r2": (phi_complex(2), 2, 2),
            "phi2c-r3": (phi_complex(2), 2, 3),
        }[case]
        linked, rows = dps_value(m, n, r=r), row_form_dps(m, n, r)
        assert abs(linked - rows) <= 1e-7 * max(1.0, abs(rows))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_complex_input_solves_on_hermitian_blocks(self, r):
        # the complex program has the real program's block sizes, and its
        # iterates stay complex Hermitian
        p = _dps_program(phi_complex(2), 2, r, True)
        assert p.blocks == _dps_program(phi_state(2), 2, r, True).blocks
        sol = solve_sdp(p, SolveOptions(tol=1e-8, max_iter=100_000))
        assert sol.status == "optimal"
        for x, size in zip(sol.X, p.blocks):
            assert x.shape == (size, size) and np.iscomplexobj(x)
            assert np.linalg.norm(x - x.conj().T) <= 1e-12 * np.linalg.norm(x)
            assert np.linalg.norm(x.imag) >= 1e-3 * np.linalg.norm(x)
        res = dps_value(phi_complex(2), 2, r=r, return_details=True)
        assert type(res.value) is float and type(res.bound) is float
        assert res.value - 1e-6 <= 0.5 <= res.bound + 1e-6

    def test_rejects_non_hermitian_and_size(self, rng):
        with pytest.raises(ValueError):
            dps_value(rng.normal(size=(4, 4)), 2)
        with pytest.raises(ValueError):
            dps_value(np.eye(25), 5)
        with pytest.raises(ValueError, match="non-finite"):
            h_ext(np.full((4, 4), np.inf), 2)


class TestHExt:
    def test_r1_is_lambda_max(self, rng):
        m = rng.normal(size=(4, 4))
        m = m @ m.T
        assert np.isclose(h_ext(m, 2, r=1), np.linalg.eigvalsh(m)[-1])

    def test_phi_lower_bound_quota(self):
        assert h_ext(phi_state(2), 2, r=2) >= 0.5 - 1e-9

    def test_phi_n3_beats_separable_value(self):
        from hypernorm.oracles import h_sep_lower

        v = h_ext(phi_state(3), 3, r=2)
        assert v >= 0.5 - 1e-9
        seesaw = h_sep_lower(phi_state(3).astype(complex), (3, 3), restarts=16, seed=0).value
        assert v >= seesaw - 1e-9
        assert np.isclose(seesaw, 1.0 / 3.0, atol=1e-6)

    def test_monotone_non_increasing_in_r(self):
        vals = [h_ext(phi_state(2), 2, r=r) for r in (1, 2, 3)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
