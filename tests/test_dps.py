import numpy as np
import pytest

from hypernorm.core import OperatorInstance
from hypernorm.dps import dps_value, h_ext
from hypernorm.sdp import SolveOptions
from hypernorm.tensorsdp import a22_matrix, tensor_sdp
from tests.conftest import phi_state


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

    def test_complex_input_through_embedding(self):
        u = np.diag(np.exp(1j * np.array([0.3, -1.2])))
        v = np.diag(np.exp(1j * np.array([0.7, 2.1])))
        mc = np.kron(u, v) @ phi_state(2).astype(complex) @ np.kron(u, v).conj().T
        assert np.linalg.norm(np.imag(mc)) > 1e-3
        val = dps_value(mc, 2, r=1, ppt=True)
        assert abs(val - 0.5) <= 1e-3

    def test_rejects_non_hermitian_and_size(self, rng):
        with pytest.raises(ValueError):
            dps_value(rng.normal(size=(4, 4)), 2)
        with pytest.raises(ValueError):
            dps_value(np.eye(25), 5)


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
